"""Combinatorial quantum Bruhat graph and the Property O verdict.

The graph has one vertex per odd label.  Classical edges step down one
Bruhat cover.  A quantum edge u -> v of degree d requires the exact length
gain 2*d1 + (2n-1)*d2 - 1 together with v lying below some component of
the degree-d curve neighborhood of X(u); a strict mode instead requires v
to BE a component.  Property O asks for strong connectivity and for the
cycle-length gcd to equal the Fano index gcd(2, 2n-1) = 1.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence, TypeVar

from .errors import DomainError, VerificationError
from .moment import EDGE_COLORS, Degree, build_moment_graph
from .neighborhoods import gamma_closed_form
from .weyl import (
    FlagLabel,
    bruhat_leq,
    enumerate_labels,
    label,
    length,
    top_label,
)

__all__ = [
    "ChernData",
    "chern_data",
    "QBGEdge",
    "QBGraph",
    "build_qbg",
    "strongly_connected",
    "digraph_period",
    "is_strongly_connected",
    "cycle_length_gcd",
    "witness_cycles",
    "PropertyOVerdict",
    "property_o_verdict",
    "moment_discrepancies",
    "to_dot",
    "to_json_dict",
]

T = TypeVar("T", bound=Hashable)


@dataclass(frozen=True)
class ChernData:
    """Divisor-class coefficients of the anticanonical class and Fano index."""

    n: int
    a1: int
    a2: int
    div1: FlagLabel
    div2: FlagLabel
    fano_index: int


def chern_data(n: int) -> ChernData:
    """Coefficients (2, 2n-1) on the two divisor classes; index gcd = 1."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"rank must be an integer >= 2, got {n!r}")
    div2 = label(-2, 3, n) if n == 2 else label(-2, -4, n)
    return ChernData(
        n=n,
        a1=2,
        a2=2 * n - 1,
        div1=label(-3, -2, n),
        div2=div2,
        fano_index=math.gcd(2, 2 * n - 1),
    )


@dataclass(frozen=True)
class QBGEdge:
    """Directed edge; degree is None on classical (cover) edges."""

    u: FlagLabel
    v: FlagLabel
    degree: Degree | None

    @property
    def kind(self) -> str:
        return "classical" if self.degree is None else "quantum"


@dataclass(frozen=True)
class QBGraph:
    n: int
    strict: bool
    vertices: tuple[FlagLabel, ...]
    edges: tuple[QBGEdge, ...]

    @functools.cached_property
    def successors(self) -> dict[FlagLabel, tuple[FlagLabel, ...]]:
        adj: dict[FlagLabel, list[FlagLabel]] = {v: [] for v in self.vertices}
        seen = set()
        for e in self.edges:
            if (e.u, e.v) not in seen:
                seen.add((e.u, e.v))
                adj[e.u].append(e.v)
        return {v: tuple(xs) for v, xs in adj.items()}

    def has_edge(self, u: FlagLabel, v: FlagLabel) -> bool:
        """Some edge u -> v of any kind."""
        return v in self.successors.get(u, ())

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.edges:
            key = "classical" if e.degree is None else str(e.degree)
            out[key] = out.get(key, 0) + 1
        return out


def _quantum_degrees(n: int, lmax: int) -> list[Degree]:
    """Degrees whose length gain 2*d1 + (2n-1)*d2 - 1 can still fit."""
    out = []
    for d1 in range((lmax + 1) // 2 + 1):
        for d2 in range((lmax + 1) // (2 * n - 1) + 1):
            if (d1, d2) == (0, 0):
                continue
            if 2 * d1 + (2 * n - 1) * d2 - 1 <= lmax:
                out.append(Degree(d1, d2))
    return sorted(out, key=lambda d: d.key)


def build_qbg(n: int, strict: bool = False) -> QBGraph:
    """The quantum Bruhat graph of rank n, built once per (n, strict).

    ``build_qbg(n)`` and ``build_qbg(n, strict=False)`` share one cached
    graph: the cache sits on ``_build_qbg``, which is always called with
    positional arguments.
    """
    return _build_qbg(n, strict)


@functools.lru_cache(maxsize=None)
def _build_qbg(n: int, strict: bool) -> QBGraph:
    vertices = enumerate_labels(n)
    index = {v: i for i, v in enumerate(vertices)}
    by_length: dict[int, list[FlagLabel]] = {}
    for v in vertices:
        by_length.setdefault(length(v), []).append(v)
    edges: list[QBGEdge] = []
    for u in vertices:
        lu = length(u)
        for v in by_length.get(lu - 1, []):
            if bruhat_leq(v, u):
                edges.append(QBGEdge(u, v, None))
    lmax = length(top_label(n))
    for d in _quantum_degrees(n, lmax):
        gain = 2 * d.d1 + (2 * n - 1) * d.d2 - 1
        for u in vertices:
            targets = by_length.get(length(u) + gain)
            if not targets:
                continue
            comps = gamma_closed_form(u, d).components
            for v in targets:
                if strict:
                    ok = v in comps
                else:
                    ok = any(bruhat_leq(v, c) for c in comps)
                if ok:
                    edges.append(QBGEdge(u, v, d))
    edges.sort(
        key=lambda e: (
            e.degree is not None,
            e.degree.key if e.degree else (0, 0),
            index[e.u],
            index[e.v],
        )
    )
    return QBGraph(n, strict, vertices, tuple(edges))


def _closure(succ: Mapping[T, Sequence[T]], start: T) -> set[T]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def strongly_connected(succ: Mapping[T, Sequence[T]]) -> bool:
    """One component spans all keys: forward and backward closures do."""
    verts = list(succ)
    if not verts:
        raise DomainError("empty graph")
    if len(_closure(succ, verts[0])) != len(verts):
        return False
    pred: dict[T, list[T]] = {v: [] for v in verts}
    for u in verts:
        for v in succ[u]:
            pred[v].append(u)
    return len(_closure(pred, verts[0])) == len(verts)


def digraph_period(succ: Mapping[T, Sequence[T]]) -> int:
    """Gcd of the lengths of all closed walks of a strongly connected graph.

    Computed from breadth-first depths: every edge (u, v) contributes
    depth(u) + 1 - depth(v) to the gcd.
    """
    if not strongly_connected(succ):
        raise DomainError("period is defined for strongly connected graphs")
    verts = list(succ)
    root = verts[0]
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    g = 0
    for u in verts:
        for v in succ[u]:
            g = math.gcd(g, abs(depth[u] + 1 - depth[v]))
    if g == 0:
        raise DomainError("graph has no closed walks")
    return g


def is_strongly_connected(g: QBGraph) -> bool:
    return strongly_connected(g.successors)


def cycle_length_gcd(g: QBGraph) -> int:
    return digraph_period(g.successors)


def witness_cycles(n: int) -> tuple[tuple[FlagLabel, ...], ...]:
    """The explicit cycles of lengths 2 and 2n-1 through (1|2).

    The long cycle takes one quantum step (1|2) -> (1|-3) and then walks
    classical covers down the second column: -3, -4, ..., -(n+1), n+1,
    n, ..., 3, and back to 2.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"rank must be an integer >= 2, got {n!r}")
    short = (label(1, 2, n), label(2, 1, n), label(1, 2, n))
    column = [-k for k in range(3, n + 2)] + [k for k in range(n + 1, 1, -1)]
    long = tuple(label(1, b, n) for b in [2] + column)
    return (short, long)


@dataclass(frozen=True)
class PropertyOVerdict:
    n: int
    strongly_connected: bool
    gcd: int | None
    fano_index: int
    holds: bool
    witness_cycles: tuple[tuple[FlagLabel, ...], ...]


def property_o_verdict(n: int) -> PropertyOVerdict:
    """Check strong connectivity, the cycle gcd, and the witness cycles.

    A witness cycle edge missing from the graph is a verification
    failure, not a negative verdict.
    """
    data = chern_data(n)
    g = build_qbg(n)
    cycles = witness_cycles(n)
    for cycle in cycles:
        for u, v in zip(cycle, cycle[1:]):
            if not g.has_edge(u, v):
                raise VerificationError(f"witness edge {u} -> {v} missing at n={n}")
    sc = is_strongly_connected(g)
    gcd = cycle_length_gcd(g) if sc else None
    return PropertyOVerdict(
        n=n,
        strongly_connected=sc,
        gcd=gcd,
        fano_index=data.fano_index,
        holds=sc and gcd == data.fano_index,
        witness_cycles=cycles,
    )


def moment_discrepancies(n: int) -> tuple[tuple[FlagLabel, FlagLabel, Degree], ...]:
    """Quantum edges whose endpoints no single moment-graph edge joins."""
    g = build_qbg(n)
    pairs = build_moment_graph(n).pair_set
    index = {v: i for i, v in enumerate(g.vertices)}
    out = [
        (e.u, e.v, e.degree)
        for e in g.edges
        if e.degree is not None and frozenset((e.u, e.v)) not in pairs
    ]
    out.sort(key=lambda t: (index[t[0]], index[t[1]], t[2].key))
    return tuple(out)


def to_dot(g: QBGraph) -> str:
    """Directed DOT text; classical edges black, quantum by degree class."""
    lines = [f"digraph qbg_n{g.n} {{", "  node [shape=plaintext];"]
    lines.extend(f'  "{v}";' for v in g.vertices)
    for e in g.edges:
        if e.degree is None:
            style = "color=black"
        else:
            color = EDGE_COLORS.get(e.degree, "purple")
            style = f'color={color}, label="{e.degree}"'
        lines.append(f'  "{e.u}" -> "{e.v}" [{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: QBGraph, verdict: PropertyOVerdict | None = None) -> dict:
    edges = []
    for e in g.edges:
        entry: dict = {"u": str(e.u), "v": str(e.v), "kind": e.kind}
        if e.degree is not None:
            entry["deg"] = [e.degree.d1, e.degree.d2]
        edges.append(entry)
    out: dict = {
        "schema": "oddflag.qbg/1",
        "n": g.n,
        "strict": g.strict,
        "edges": edges,
    }
    if verdict is not None:
        out["verdict"] = {
            "strongly_connected": verdict.strongly_connected,
            "gcd": verdict.gcd,
            "fano_index": verdict.fano_index,
            "holds": verdict.holds,
            "witness_cycles": [
                [str(w) for w in cycle] for cycle in verdict.witness_cycles
            ],
        }
    return out
