"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracing.py`` wraps the listed functions by name, with no
fallback, so renaming or folding one away would only surface as a failed
``--trace 1`` run.  These tests read its lists and check them against the
package instead.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

from oddflag import Degree, cross_check, neighborhoods, qbg, weyl

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


# The gate compares a hot wrapper's count with its cache's, and the
# benchmark reads the hit ratio of bruhat_leq's cache.  A hot function with
# no cache (down_set, a few bit reads of the rank's masks) is counted by
# its wrapper alone.
@pytest.mark.parametrize("module, func", [("weyl", "bruhat_leq")])
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


def test_hot_call_gate_holds_after_build_qbg(monkeypatch):
    # The tracer's gate: each hot wrapper's call count equals its cache's
    # hits plus misses (bruhat_leq); down_set has no cache, so only its
    # wrapper counts its calls.  Install the real tracer (every attribute it
    # replaces is restored afterwards), build a graph cold, and read the
    # gate as a traced run would.
    targets = TRACED.SPAN_FUNCTIONS + TRACED.HOT_FUNCTIONS
    originals = {
        id(getattr(importlib.import_module(f"oddflag.{m}"), f)) for m, f in targets
    }
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "oddflag" or name.startswith("oddflag.")):
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    monkeypatch.setattr(module, attr, value)
    caches = {"weyl.bruhat_leq": weyl.bruhat_leq}
    weyl.bruhat_leq.cache_clear()
    weyl._rank.cache_clear()

    tracer = TRACED.Tracer()
    tracer.install()
    g = qbg.build_qbg(3)
    # The build reads Bruhat masks and calls neither hot function, so the
    # test calls both through their wrappers, once per vertex.
    for v in g.vertices:
        weyl.down_set(v)
        weyl.bruhat_leq(g.vertices[0], v)

    summary = tracer.summary(caches)
    assert TRACED.check_summary(summary) == []
    info = caches["weyl.bruhat_leq"].cache_info()
    assert summary["hot"]["weyl.bruhat_leq"]["calls"] == info.hits + info.misses > 0
    assert summary["hot"]["weyl.down_set"]["calls"] == len(g.vertices)
    assert summary["counters"]["qbg.edges"] == len(g.edges)
