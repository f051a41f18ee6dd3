"""Degree-labeled moment graph of the odd symplectic flag family.

Vertices are the odd labels; there is an unoriented edge w -- reflect(w, r)
for every root r outside the parabolic subsystem whose reflection keeps the
coset inside the odd index set.  Each edge carries the curve degree of its
root, one of (1,0), (0,1), (1,1), (1,2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError
from .weyl import (
    FlagLabel,
    Root,
    enumerate_labels,
    moment_roots,
    reflect,
)

__all__ = [
    "Degree",
    "MomentEdge",
    "MomentGraph",
    "degree_of_root",
    "build_moment_graph",
    "to_dot",
    "to_json_dict",
    "EDGE_COLORS",
]


@dataclass(frozen=True)
class Degree:
    """An effective curve class (d1, d2), ordered componentwise.

    The order is partial; use ``key`` for deterministic sorting.
    """

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if self.d1 < 0 or self.d2 < 0:
            raise DomainError(f"degrees are nonnegative, got ({self.d1},{self.d2})")

    def __add__(self, other: Degree) -> Degree:
        return Degree(self.d1 + other.d1, self.d2 + other.d2)

    def __le__(self, other: Degree) -> bool:
        return self.d1 <= other.d1 and self.d2 <= other.d2

    def __ge__(self, other: Degree) -> bool:
        return other <= self

    def join(self, other: Degree) -> Degree:
        return Degree(max(self.d1, other.d1), max(self.d2, other.d2))

    @property
    def key(self) -> tuple[int, int]:
        return (self.d1, self.d2)

    def __str__(self) -> str:
        return f"({self.d1},{self.d2})"


# Edge style used by every DOT export, one color per degree class.
EDGE_COLORS: Mapping[Degree, str] = {
    Degree(1, 0): "green",
    Degree(0, 1): "orange",
    Degree(1, 1): "blue",
    Degree(1, 2): "purple",
}


def degree_of_root(root: Root) -> Degree:
    """Degree class of a root outside the parabolic subsystem.

    t1-t2 -> (1,0); the t2 family -> (0,1); the t1 family -> (1,1);
    t1+t2 -> (1,2).
    """
    if root.i > 2:
        raise DomainError(f"root {root} lies in the parabolic subsystem")
    if root.j == 2:  # i == 1
        return Degree(1, 0) if root.kind == "diff" else Degree(1, 2)
    return Degree(1, 1) if root.i == 1 else Degree(0, 1)


@dataclass(frozen=True)
class MomentEdge:
    u: FlagLabel
    v: FlagLabel
    degree: Degree
    root: Root


@dataclass(frozen=True)
class MomentGraph:
    """Immutable unoriented multigraph; edges stored once per pair+root."""

    n: int
    vertices: tuple[FlagLabel, ...]
    edges: tuple[MomentEdge, ...]

    @functools.cached_property
    def pair_set(self) -> frozenset[frozenset[FlagLabel]]:
        """Unordered vertex pairs joined by at least one edge."""
        return frozenset(frozenset((e.u, e.v)) for e in self.edges)

    def degree_counts(self) -> dict[Degree, int]:
        counts: dict[Degree, int] = {}
        for e in self.edges:
            counts[e.degree] = counts.get(e.degree, 0) + 1
        return counts


@functools.lru_cache(maxsize=None)
def build_moment_graph(n: int) -> MomentGraph:
    """Assemble the graph by reflecting every vertex by every root.

    Reflections that leave the odd index set are dropped; the surviving
    edges form the full subgraph, on odd vertices, of the even-case graph.
    """
    vertices = enumerate_labels(n)
    index = {v: i for i, v in enumerate(vertices)}
    edges: list[MomentEdge] = []
    for w in vertices:
        for root in moment_roots(n):
            r = reflect(w, root)
            if r is None:
                continue
            if index[w] < index[r]:
                edges.append(MomentEdge(w, r, degree_of_root(root), root))
    edges.sort(key=lambda e: (index[e.u], index[e.v]))  # one root per pair
    return MomentGraph(n, vertices, tuple(edges))


def to_dot(g: MomentGraph, degree: Degree | None = None) -> str:
    """Deterministic DOT text; optionally keep a single degree class."""
    lines = [f"graph moment_n{g.n} {{", "  node [shape=plaintext];"]
    lines.extend(f'  "{v}";' for v in g.vertices)
    for e in g.edges:
        if degree is not None and e.degree != degree:
            continue
        lines.append(f'  "{e.u}" -- "{e.v}" [color={EDGE_COLORS[e.degree]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: MomentGraph) -> dict:
    return {
        "schema": "oddflag.moment-graph/1",
        "n": g.n,
        "vertices": [str(v) for v in g.vertices],
        "edges": [
            {
                "u": str(e.u),
                "v": str(e.v),
                "deg": [e.degree.d1, e.degree.d2],
                "root": str(e.root),
            }
            for e in g.edges
        ],
    }
