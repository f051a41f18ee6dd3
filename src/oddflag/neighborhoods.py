"""Curve neighborhoods of Schubert varieties, computed two independent ways.

``gamma_bfs`` searches the moment graph with a componentwise degree budget,
starting from the full lower set of the base label, and returns the Bruhat
maxima of everything reached.  ``gamma_closed_form`` evaluates the closed
expressions directly.  ``cross_check`` asserts the two agree cell by cell;
they are deliberately kept independent of each other and share no helper.

The search works on integers.  Each moment graph gets, on first use, an
index that numbers the labels by their position in ``g.vertices`` and
holds the Bruhat lower and upper sets as bitmasks and the edges as
``(j, d1, d2)`` tuples.  A search from one base records, per label, the
Pareto front of minimal degree spends within its budget; every smaller
degree is read off that front (see ``gamma_bfs`` for why this is exact),
so ``cross_check`` runs one search per base for its whole degree grid.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import weyl
from .errors import DomainError
from .moment import Degree, MomentGraph, build_moment_graph
from .weyl import FlagLabel, bar_value, bruhat_leq, top_label

__all__ = [
    "SchubertUnion",
    "maximal_union",
    "union_leq",
    "gamma_bfs",
    "gamma_closed_form",
    "CrossCheckReport",
    "cross_check",
    "degree_grid",
]


@dataclass(frozen=True)
class SchubertUnion:
    """A finite union of Schubert varieties, recorded by its maximal labels.

    Components must form a nonempty Bruhat antichain of a single rank;
    they are stored in canonical (length, rank a, rank b) order.
    """

    components: tuple[FlagLabel, ...]

    def __post_init__(self) -> None:
        comps = tuple(sorted(set(self.components), key=lambda w: w.sort_key))
        if not comps:
            raise DomainError("a Schubert union has at least one component")
        if len({w.n for w in comps}) != 1:
            raise DomainError("components must share one rank")
        for x, y in itertools.combinations(comps, 2):
            if bruhat_leq(x, y) or bruhat_leq(y, x):
                raise DomainError(f"components {x} and {y} are comparable")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return self.components[0].n

    def __str__(self) -> str:
        return ", ".join(str(w) for w in self.components)

    def __iter__(self):
        return iter(self.components)


def maximal_union(labels: Iterable[FlagLabel]) -> SchubertUnion:
    """The union spanned by the Bruhat-maximal elements of ``labels``."""
    labs = set(labels)
    maxima = [
        x for x in labs if not any(x != y and bruhat_leq(x, y) for y in labs)
    ]
    return SchubertUnion(tuple(maxima))


def union_leq(lhs: SchubertUnion, rhs: SchubertUnion) -> bool:
    """Containment of the represented varieties."""
    if lhs.n != rhs.n:
        raise DomainError(f"rank mismatch: {lhs.n} vs {rhs.n}")
    return all(any(bruhat_leq(u, v) for v in rhs) for u in lhs)


# Minimal degree spend -> bitmask of the labels whose Pareto front holds it.
_Front = dict[tuple[int, int], int]


class _SearchIndex:
    """Integer view of one moment graph, built once for the search.

    Labels are numbered by their position in ``g.vertices``.  ``below[i]``
    and ``above[i]`` are the Bruhat lower and upper sets of label i as
    bitmasks (both include i), ``adj[i]`` lists ``(j, d1, d2)`` for every
    edge i -- j of degree (d1, d2), and ``memo`` is ``(base, b1, b2,
    front)`` for the last base searched.
    """

    def __init__(self, g: MomentGraph) -> None:
        labels = g.vertices
        self.labels = labels
        self.index = {v: i for i, v in enumerate(labels)}
        self.below = [0] * len(labels)
        self.above = [0] * len(labels)
        # The vertices come sorted by length and u < v forces l(u) < l(v),
        # so only pairs i <= j can be comparable.
        for j, v in enumerate(labels):
            for i in range(j + 1):
                if weyl.bruhat_leq(labels[i], v):
                    self.below[j] |= 1 << i
                    self.above[i] |= 1 << j
        self.adj = [
            tuple({(self.index[x], deg.d1, deg.d2) for x, deg, _root in g.neighbors[v]})
            for v in labels
        ]
        self.memo: tuple[int, int, int, _Front] | None = None

    def front(self, w: int, b1: int, b2: int) -> _Front:
        """The front of base w within a budget that covers (b1, b2).

        Served from ``memo`` when it holds w at a budget that covers
        (b1, b2); otherwise searched again at the join of both budgets.
        """
        memo = self.memo
        if memo is not None and memo[0] == w:
            if b1 <= memo[1] and b2 <= memo[2]:
                return memo[3]
            b1, b2 = max(b1, memo[1]), max(b2, memo[2])
        front = self._search(w, b1, b2)
        self.memo = (w, b1, b2, front)
        return front

    def _search(self, w: int, b1: int, b2: int) -> _Front:
        """The minimal spends of every label reachable within (b1, b2).

        Spends are two-dimensional, so a state (label, spend) is dropped
        only when the label already holds a componentwise-smaller spend,
        and a queued state is skipped once a smaller spend has replaced it.
        """
        fronts: list[list[tuple[int, int]]] = [[] for _ in self.labels]
        queue: deque[tuple[int, int, int]] = deque()
        for u in _bits(self.below[w]):
            fronts[u].append((0, 0))
            queue.append((u, 0, 0))
        while queue:
            v, s1, s2 = queue.popleft()
            if (s1, s2) not in fronts[v]:
                continue
            for x, e1, e2 in self.adj[v]:
                t1, t2 = s1 + e1, s2 + e2
                if t1 > b1 or t2 > b2:
                    continue
                pareto = fronts[x]
                if any(o1 <= t1 and o2 <= t2 for o1, o2 in pareto):
                    continue
                pareto[:] = [(o1, o2) for o1, o2 in pareto if not (t1 <= o1 and t2 <= o2)]
                pareto.append((t1, t2))
                queue.append((x, t1, t2))
        front: _Front = {}
        for x, pareto in enumerate(fronts):
            for spend in pareto:
                front[spend] = front.get(spend, 0) | 1 << x
        return front

    def neighborhood(self, w: int, d1: int, d2: int) -> SchubertUnion:
        """Bruhat maxima of the labels reached from base w within (d1, d2)."""
        reached = 0
        for (s1, s2), mask in self.front(w, d1, d2).items():
            if s1 <= d1 and s2 <= d2:
                reached |= mask
        return SchubertUnion(
            tuple(
                self.labels[x]
                for x in _bits(reached)
                if self.above[x] & reached == 1 << x
            )
        )


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search_index(g: MomentGraph) -> _SearchIndex:
    """The search index of ``g``, built on first use and kept on the graph.

    ``MomentGraph`` is a frozen dataclass, so the index goes straight into
    the instance dict, as ``functools.cached_property`` does.
    """
    index = g.__dict__.get("_search_index")
    if index is None:
        index = g.__dict__["_search_index"] = _SearchIndex(g)
    return index


def gamma_bfs(
    w: FlagLabel, d: Degree, graph: MomentGraph | None = None
) -> SchubertUnion:
    """Degree-budgeted search for the curve neighborhood of X(w).

    Walks the moment graph from the lower set of w, spending edge degrees
    against the budget d componentwise, and returns the Bruhat maxima of
    every label reached.

    The walk is run once per base, at some budget b >= d, and keeps for
    every label x the Pareto front of its minimal spends within b.  Reading
    d off that front is exact: x is reached within d iff some walk to x
    spends s <= d, and such an s is within b, so it lies above a minimal
    spend s' <= s <= d in the front; conversely every front spend is the
    spend of a walk.  The graph's index keeps the last base's front, so a
    call searches again only for a new base or for a d beyond the kept
    budget, and then at the join of d and that budget.
    """
    g = build_moment_graph(w.n) if graph is None else graph
    index = _search_index(g)
    return index.neighborhood(index.index[w], d.d1, d.d2)


# The rank-independent letters the closed form names: 1, 2, -2 and -3.
# gamma_bfs does not read them; the two routes share no helper.
_ONE, _TWO, _BAR_TWO, _BAR_THREE = (bar_value(k) for k in (1, 2, -2, -3))


def gamma_closed_form(w: FlagLabel, d: Degree) -> SchubertUnion:
    """Closed-form curve neighborhood of X(w) in degree d.

    Degrees are first normalized to the stable regime representative
    (min(d1,1), min(d2,2)): raising d1 beyond 1, or d2 beyond 1 (beyond 2
    when d1 >= 1), never changes the answer.  The table, for w = (a|b):

    * (0,0): X(a|b).
    * (d1>=1, 0): X(a|b) when a > b, else X(b|a).
    * (0, d2>=1): column two sweeps to its maximum while column one stays
      fixed, giving X(a|-3) for a in {2,-2} and X(a|-2) otherwise.  When
      a = 2 the lower set of (a|b) also contains labels with first value
      1, and their sweep ends at X(1|-2), which has the same length 2n-1
      as X(2|-3); the result then carries both components.
    * (d1>=1, 1): X(-3|2) u X(-2|1) for the two bottom labels (1|2) and
      (2|1); the top when -2 is among {a,b}; X(-2|max(a,b)) otherwise.
    * (d1>=1, d2>=2): the top.
    """
    n = w.n
    a, b = w.a, w.b
    reg = (min(d.d1, 1), min(d.d2, 2))
    if reg == (0, 0):
        return SchubertUnion((w,))
    if reg == (1, 0):
        if a > b:
            return SchubertUnion((w,))
        return SchubertUnion((FlagLabel(b, a, n),))
    if reg[0] == 0:  # (0, d2 >= 1)
        if a == _TWO:
            return SchubertUnion(
                (FlagLabel(_TWO, _BAR_THREE, n), FlagLabel(_ONE, _BAR_TWO, n))
            )
        target = _BAR_THREE if a == _BAR_TWO else _BAR_TWO
        return SchubertUnion((FlagLabel(a, target, n),))
    if reg == (1, 1):
        if {a, b} == {_ONE, _TWO}:
            return SchubertUnion(
                (FlagLabel(_BAR_THREE, _TWO, n), FlagLabel(_BAR_TWO, _ONE, n))
            )
        if _BAR_TWO in (a, b):
            return SchubertUnion((top_label(n),))
        return SchubertUnion((FlagLabel(_BAR_TWO, max(a, b), n),))
    return SchubertUnion((top_label(n),))  # (d1 >= 1, d2 >= 2)


def degree_grid(dmax: Degree) -> tuple[Degree, ...]:
    """All degrees below ``dmax``, in (d1, d2) order."""
    return tuple(
        Degree(d1, d2)
        for d1 in range(dmax.d1 + 1)
        for d2 in range(dmax.d2 + 1)
    )


@dataclass(frozen=True)
class CrossCheckReport:
    """Outcome of comparing the search and the closed form on a full grid."""

    n: int
    dmax: Degree
    cells: int
    mismatches: tuple[tuple[FlagLabel, Degree, SchubertUnion, SchubertUnion], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.ok:
            return f"n={self.n}: {self.cells} cells agree up to d={self.dmax}"
        worst = self.mismatches[0]
        return (
            f"n={self.n}: {len(self.mismatches)} of {self.cells} cells disagree; "
            f"first at w={worst[0]}, d={worst[1]}: "
            f"search gives [{worst[2]}], closed form gives [{worst[3]}]"
        )


def cross_check(n: int, dmax: Degree) -> CrossCheckReport:
    """Compare gamma_bfs with gamma_closed_form everywhere below dmax.

    Before a base's cells, its search runs once at the budget dmax.  The
    gamma_bfs call of each cell then reads the answer off that front,
    which is exact for every d <= dmax (see gamma_bfs), so the whole grid
    of a base costs one search.
    """
    g = build_moment_graph(n)
    index = _search_index(g)
    mismatches = []
    cells = 0
    for w in g.vertices:
        index.front(index.index[w], dmax.d1, dmax.d2)
        for d in degree_grid(dmax):
            cells += 1
            found = gamma_bfs(w, d, g)
            stated = gamma_closed_form(w, d)
            if found != stated:
                mismatches.append((w, d, found, stated))
    return CrossCheckReport(n, dmax, cells, tuple(mismatches))
