"""Tracing installed from outside the oddflag package.

``Tracer.install`` wraps the public functions of each layer and puts the
wrapper under every module name that holds the original, because several
modules import functions into their own namespace (``verify`` imports
``cross_check``, ``qbg`` imports ``bruhat_leq`` and ``gamma_closed_form``).

Each call of a span function records one span
``(span_id, parent_id, name, start_ns, end_ns, hot_ns, request)``.  The two
hot functions (``bruhat_leq`` and ``down_set``, about a million calls in
``verify``) keep a call count and their self time instead; ``hot_ns`` of a
span is the time its directly nested hot calls took.  A span's self time is
its duration minus the part its child spans cover, minus ``hot_ns``.

This module imports nothing from oddflag, so its logic can be tested alone.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs, in layer order.
SPAN_FUNCTIONS = (
    ("moment", "build_moment_graph"),
    ("neighborhoods", "cross_check"),
    ("neighborhoods", "gamma_bfs"),
    ("neighborhoods", "maximal_union"),
    ("neighborhoods", "gamma_closed_form"),
    ("neighborhoods", "union_leq"),
    ("lattice", "build_cn_lattice"),
    ("lattice", "is_distributive"),
    ("lattice", "classify_shape"),
    ("qbg", "build_qbg"),
    ("qbg", "property_o_verdict"),
    ("verify", "run_suite"),
    ("cli", "main"),
)
HOT_FUNCTIONS = (("weyl", "bruhat_leq"), ("weyl", "down_set"))

ROOT = 0  # parent id of a span opened outside every other span


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the part of [start, end] that the intervals cover."""
    total = 0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def span_self_ns(spans) -> dict[int, int]:
    """Self time of every span, by span id."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _sid, parent, _name, start, end, _hot, _req in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered_ns(start, end, children.get(sid, [])) - hot
        for sid, _parent, _name, start, end, hot, _req in spans
    }


def self_ns_by_name(spans) -> dict[str, int]:
    """Summed self time per span name."""
    own = span_self_ns(spans)
    out: dict[str, int] = {}
    for span in spans:
        out[span[2]] = out.get(span[2], 0) + own[span[0]]
    return out


class Tracer:
    """Spans, hot-call totals and result counters for one process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        # Hot functions: [calls, self_ns].
        self.hot: dict[str, list[int]] = {}
        # Open frames: [hot_ns of nested hot calls, span id or None].
        self.stack: list[list] = [[0, ROOT]]
        self.request = 0
        self.counters: dict[str, int] = {}
        self._seen: set[int] = set()
        self._next_id = ROOT + 1

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that each call records one span."""
        stack, spans, clock, calls = self.stack, self.spans, self.clock, self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][1]
            frame = [0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                calls[name] += 1
                spans.append((sid, parent, name, start, end, frame[0], self.request))
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hot_call(self, name: str, fn):
        """Wrap ``fn`` so that each call adds to a count and a self time."""
        stack, clock = self.stack, self.clock
        stat = self.hot.setdefault(name, [0, 0])

        def wrapper(*args):
            frame = [0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                took = clock() - start
                stack.pop()
                stack[-1][0] += took
                stat[0] += 1
                stat[1] += took - frame[0]

        wrapper.__wrapped__ = fn
        return wrapper

    def count_once(self, key: str, obj, amount: int) -> None:
        """Add ``amount`` to a counter the first time ``obj`` is seen.

        Cached builders return the same object on every call; each graph
        is counted once.
        """
        if id(obj) not in self._seen:
            self._seen.add(id(obj))
            self.counters[key] = self.counters.get(key, 0) + amount

    def add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self) -> None:
        """Wrap every listed function under every loaded oddflag module holding it."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "oddflag" or name.startswith("oddflag."))
        ]
        hooks = {
            "moment.build_moment_graph": lambda t, g: t.count_once("moment.edges", g, len(g.edges)),
            "neighborhoods.cross_check": lambda t, r: t.add("neighborhoods.cross_check.cells", r.cells),
            "qbg.build_qbg": lambda t, g: t.count_once("qbg.edges", g, len(g.edges)),
            "verify.run_suite": lambda t, rs: (
                t.add("verify.checks", len(rs)),
                t.add("verify.checks_failed", sum(r.status == "fail" for r in rs)),
            ),
        }
        for module, func in SPAN_FUNCTIONS + HOT_FUNCTIONS:
            loaded = sys.modules.get(f"oddflag.{module}")
            if loaded is None:  # e.g. the CLI, in a library-only run
                continue
            name = f"{module}.{func}"
            original = getattr(loaded, func)
            if (module, func) in HOT_FUNCTIONS:
                wrapped = self.hot_call(name, original)
            else:
                wrapped = self.span(name, original, hooks.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def summary(self, caches: dict[str, object]) -> dict:
        """Per-layer figures; ``caches`` maps names to lru_cache functions."""
        root_hot = self.stack[0][0]
        out: dict = {
            "calls": dict(self.calls),
            "self_ns": {name: 0 for name in self.calls},
            "hot": {name: {"calls": c, "self_ns": s} for name, (c, s) in self.hot.items()},
            "counters": dict(self.counters),
            "caches": {name: fn.cache_info()._asdict() for name, fn in caches.items()},
            "spans": len(self.spans),
            "root_hot_ns": root_hot,
            "root_ns": sum(end - start for _s, parent, _n, start, end, _h, _r in self.spans if parent == ROOT),
        }
        out["self_ns"].update(self_ns_by_name(self.spans))
        return out


def check_summary(summary: dict) -> list[str]:
    """Invariants a traced run must meet; returns the violations.

    * The self times of all spans and hot functions add up exactly to the
      time covered by the outermost spans plus hot calls made outside them.
    * Each hot function's wrapper count equals the hits plus misses of its
      cache, so every call went through the wrapper.
    """
    problems = []
    total_self = sum(summary["self_ns"].values()) + sum(
        h["self_ns"] for h in summary["hot"].values()
    )
    expected = summary["root_ns"] + summary["root_hot_ns"]
    if total_self != expected:
        problems.append(f"self times add up to {total_self} ns, spans cover {expected} ns")
    for name, h in summary["hot"].items():
        info = summary["caches"].get(name)
        if info is not None and info["hits"] + info["misses"] != h["calls"]:
            problems.append(
                f"{name}: wrapper saw {h['calls']} calls, cache saw "
                f"{info['hits'] + info['misses']}"
            )
    return problems
