"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` wraps the listed functions by name, with no
fallback, so renaming or folding one away would only surface as a failed
``--trace 1`` run.  These tests read its lists and check them against the
package instead.
"""

import importlib
import types
from pathlib import Path

import pytest

from oddflag import Degree, cross_check, neighborhoods

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """Load the tracer from its source, leaving no bytecode beside it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


TRACED = _tracing()


@pytest.mark.parametrize(
    "module, func", TRACED.SPAN_FUNCTIONS + TRACED.HOT_FUNCTIONS
)
def test_traced_function_exists(module, func):
    assert callable(getattr(importlib.import_module(f"oddflag.{module}"), func, None))


@pytest.mark.parametrize("module, func", TRACED.HOT_FUNCTIONS)
def test_hot_function_is_cached(module, func):
    fn = getattr(importlib.import_module(f"oddflag.{module}"), func)
    assert hasattr(fn, "cache_info")


def test_cross_check_calls_gamma_bfs_once_per_cell(monkeypatch):
    calls = []
    search = neighborhoods.gamma_bfs

    def counted(*args):
        calls.append(args[:2])
        return search(*args)

    monkeypatch.setattr(neighborhoods, "gamma_bfs", counted)
    report = cross_check(2, Degree(2, 2))
    assert report.ok and report.cells == 144 and len(calls) == 144
