"""Curve neighborhoods of Schubert varieties, computed two independent ways.

``gamma_bfs`` searches the moment graph with a componentwise degree budget,
starting from the full lower set of the base label, and returns the Bruhat
maxima of everything reached.  ``gamma_closed_form`` evaluates the closed
expressions directly, reading its values from one per-rank table: the
one-component unions of ``weyl._by_letters`` keyed by their letters, and
its two two-component values.  The search never reads it.  ``cross_check``
asserts the two agree cell by cell; they are deliberately kept
independent of each other and share no helper.

The search works on integers, labels numbered by their position in
``enumerate_labels(n)`` and sets held as bitmasks.  It reads the moment
graph as the per-class neighbour masks of ``moment.moment_masks(n)``, the
rows, columns, swaps and bar-swaps of the letters, and builds no edge
object.  Every moment edge has a nonzero degree class c, one of (1,0),
(0,1), (1,1), (1,2).  Write R[d] for the labels reached from w within
budget d, and N_c(S) for the labels joined to some label of S by a
class-c edge.  Then

    R[d] = below[w]  |  OR over classes c <= d of  N_c(R[d - c]).

Proof, by induction on walk length: a walk of no edges ends in below[w];
a longer walk within d ends in one edge of some class c, and the walk
before that edge fits in d - c.  Conversely every label on the right ends
a walk within d.  Each d - c precedes d in (d1, d2) order, so the grid of
R fills in that order.

Huge degrees need no full grid.  Let m be the componentwise largest class
((1,2)) and write min for the componentwise minimum.  Window lemma: if
R[e] = R[min(e, k)] for every e <= min(d, k + m), then R[d] = R[min(d, k)].
Proof, by induction on e <= d: for e outside the window put
e' = min(e, k + m).  In each coordinate where e and e' differ, e exceeds
k + m >= k + c, so c <= e iff c <= e', and e - c, e' - c both lie at or
above k there, hence min(e - c, k) = min(e' - c, k).  The recursion and
the induction hypothesis give R[e] = R[e'], and R[e'] = R[min(e', k)] =
R[min(e, k)] by the window.  So ``_SearchIndex.reached`` tests the first
window, k = min(d, m), and widens k to min(d, k + m) while the test fails.

A cell expands only maxima, never every label it holds.  For each label x
and class c the index keeps DN_c[x] = N_c(below[x]).  Since below[x] =
{x} | OR over the labels y covered by x of below[y], and N_c distributes
over unions,

    DN_c[x] = N_c({x})  |  OR over y covered by x of  DN_c[y].

Labels come in length order, so one pass along the covers fills DN_c.  A
cell with maxima M(S) for each earlier cell S then takes

    R[d] = below[w]  |  OR over classes c <= d and m in M(R[d - c]) of  DN_c[m].

Maxima are peeled off a set S one by one: the highest bit left is a
longest label left, and a label of S above it would be longer, hence
already dropped with the lower set of an earlier maximum, which then holds
this label too.  So it is a maximum of S, and dropping its lower set
leaves the others.  Every label of S lies below one of them.

Certificate, checked on every cell while its maxima are peeled: R[d]
holds below[m] for each of its maxima m.  A set passes iff it is a lower
set: a lower set holds the lower set of each of its labels, and a set that
passes is the union of the below[m], since each of its labels lies below
one of its maxima.  If R[d - c] is a lower
set with maxima M, it is that union over m in M, so N_c(R[d - c]) is the
union of the DN_c[m]: the formula is the recursion.  R[0,0] = below[w] is
one, so by induction every certified cell equals the recursion's.  A cell
that fails raises ``VerificationError``; there is no second route.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import weyl
from .errors import DomainError, VerificationError
from .moment import Degree, NeighbourMasks, moment_masks
from .weyl import FlagLabel, _bits, bruhat_leq, enumerate_labels, letter_rank

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
        comps = self.components
        if type(comps) is not tuple:
            comps = tuple(comps)
            object.__setattr__(self, "components", comps)
        if len(comps) == 1:  # no check below can fail on one label
            return
        comps = tuple(sorted(set(comps), key=lambda w: w.sort_key))
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
    """Containment of the represented varieties, read off lower-set masks.

    Give a union y the mask L(y), the OR of ``below[v]`` over its
    components v (``weyl.bruhat_masks``).  Then x <= y iff every
    component u of x lies below some v in y, iff u is in L(y) for each u,
    iff L(x) is inside L(y), since L(x) is the union of the lower sets of
    the u and L(y) is a lower set.  So no pair of labels is compared.
    """
    if lhs.n != rhs.n:
        raise DomainError(f"rank mismatch: {lhs.n} vs {rhs.n}")
    x = _lower_mask(lhs)
    return x & _lower_mask(rhs) == x


def _lower_mask(value: SchubertUnion) -> int:
    """L(value), the labels below some component, as a mask over ``enumerate_labels(n)``.

    ``union_leq`` and the lattice order read it; neither neighborhood route does.
    """
    index, below, _covered, _level = weyl.bruhat_masks(value.components[0].n)
    mask = 0
    for v in value.components:
        mask |= below[index[v]]
    return mask


# A reached set as a bitmask over the label indices, and its Bruhat maxima.
_Cell = tuple[int, tuple[int, ...]]


class _SearchIndex:
    """Integer view of one moment graph, built once for the search.

    ``labels`` is ``enumerate_labels(n)``, and ``near`` holds, for each
    degree class c = (c1, c2) of the graph, the neighbour masks N_c({x})
    of the labels in that order (``moment.moment_masks``).  ``below[i]``,
    the Bruhat lower set of label i (including i), and the labels i covers
    come from ``weyl.bruhat_masks``.  ``steps`` holds, for each class c,
    ``(c, DN)``: the bitmasks ``DN[x]`` of N_c(below[x]) (module
    docstring).  ``reach`` is the componentwise
    largest class, (1, 2) for every moment graph.  No attribute changes
    after ``__init__``, so threads may share the index.
    """

    def __init__(self, labels: Sequence[FlagLabel], near: NeighbourMasks) -> None:
        self.labels = labels
        self.index, self.below, covered, _level = weyl.bruhat_masks(labels[0].n)
        steps = []
        for c, masks in sorted(near.items()):
            # Lengths ascend with the index, so covers come first.
            dn = list(masks)
            for x in range(len(labels)):
                for y in _bits(covered[x]):
                    dn[x] |= dn[y]
            steps.append((c, tuple(dn)))
        self.steps = tuple(steps)
        classes = [c for c, _dn in self.steps]
        self.reach = (max(c1 for c1, _ in classes), max(c2 for _, c2 in classes))

    def reached(self, w: int, d1: int, d2: int) -> _Cell:
        """Bitmask of the labels base w reaches within (d1, d2), and their maxima.

        Fills R on the window below min(d, k + m), with m = ``reach`` and
        k = min(d, m) at first, and stops once R[e] = R[min(e, k)] on the
        whole window; otherwise k widens to min(d, k + m).  At k = d the
        test holds trivially, so the loop ends.  See the module docstring
        for the recursion and for why the test is exact.  The maxima come
        longest first.
        """
        m1, m2 = self.reach
        k1, k2 = min(d1, m1), min(d2, m2)
        grid: dict[tuple[int, int], _Cell] = {}
        while True:
            t1, t2 = min(d1, k1 + m1), min(d2, k2 + m2)
            for e1 in range(t1 + 1):
                for e2 in range(t2 + 1):
                    if (e1, e2) not in grid:
                        grid[e1, e2] = self._cell(grid, w, e1, e2)
            if all(
                cell[0] == grid[min(e1, k1), min(e2, k2)][0]
                for (e1, e2), cell in grid.items()
            ):
                return grid[k1, k2]
            k1, k2 = t1, t2

    def _cell(
        self, grid: dict[tuple[int, int], _Cell], w: int, e1: int, e2: int
    ) -> _Cell:
        """(R[e], its maxima) from the maxima of the cells e - c, already in grid.

        Peels the maxima off R[e], longest first, and raises
        ``VerificationError`` when the lower set of one is not inside R[e]:
        the certificate of the module docstring.
        """
        reached = self.below[w]
        for (c1, c2), dn in self.steps:
            if c1 <= e1 and c2 <= e2:
                for m in grid[e1 - c1, e2 - c2][1]:
                    reached |= dn[m]
        maxima = []
        rest = reached
        while rest:
            m = rest.bit_length() - 1
            if self.below[m] & ~reached:
                raise VerificationError(
                    f"search from {self.labels[w]}: the labels reached within "
                    f"({e1},{e2}) do not form a Bruhat lower set"
                )
            maxima.append(m)
            rest &= ~self.below[m]
        return reached, tuple(maxima)

    def neighborhood(self, w: int, d1: int, d2: int) -> SchubertUnion:
        """Bruhat maxima of the labels reached from base w within (d1, d2)."""
        _reached, maxima = self.reached(w, d1, d2)
        return SchubertUnion(tuple(self.labels[x] for x in maxima))


@functools.lru_cache(maxsize=None)
def _search_index(n: int) -> _SearchIndex:
    """The search index of the rank-n moment graph, built on first use."""
    return _SearchIndex(enumerate_labels(n), moment_masks(n))


def gamma_bfs(w: FlagLabel, d: Degree) -> SchubertUnion:
    """Degree-budgeted search for the curve neighborhood of X(w).

    Walks the moment graph from the lower set of w, spending edge degrees
    against the budget d componentwise, and returns the Bruhat maxima of
    every label reached.  The reached set comes from the degree-graded
    recursion of the module docstring, filled afresh on each call in
    (d1, d2) order up to the first window that passes the stability test;
    only the per-rank index is kept between calls.  The search expands
    only maxima, which is exact on Bruhat lower sets, so it raises
    ``VerificationError`` when a reached set is not one.
    """
    index = _search_index(w.n)
    return index.neighborhood(index.index[w], d.d1, d.d2)


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

    Here > and max are the alphabet order, read through ``letter_rank``.
    Every value is read from one per-rank table of unions over the label
    objects of ``enumerate_labels(n)`` (``_closed_form_table``), built on
    first use, so a call builds no label and no union.
    """
    n = w.n
    a, b = w.a, w.b
    one, two = _closed_form_table(n)
    d1, d2 = d.d1, d.d2
    reg = (d1 if d1 < 1 else 1, d2 if d2 < 2 else 2)
    if reg == (0, 0):
        return one[a, b]
    if reg == (1, 0):
        return one[a, b] if letter_rank(a, n) > letter_rank(b, n) else one[b, a]
    if reg[0] == 0:  # (0, d2 >= 1)
        if a == 2:
            return two[0]
        return one[a, -3 if a == -2 else -2]
    if reg == (1, 1):
        if {a, b} == {1, 2}:
            return two[1]
        if -2 in (a, b):
            return one[-2, -3]
        return one[-2, a if letter_rank(a, n) > letter_rank(b, n) else b]
    return one[-2, -3]  # (d1 >= 1, d2 >= 2)


@functools.lru_cache(maxsize=None)
def _closed_form_table(
    n: int,
) -> tuple[Mapping[tuple[int, int], SchubertUnion], tuple[SchubertUnion, SchubertUnion]]:
    """The closed form's values at rank n, as ``(one, two)``, built on first use.

    ``one`` maps the letters of each label of ``weyl._by_letters(n)`` to
    its one-component union, read-only; ``two`` holds X(2|-3) u X(1|-2)
    and X(-3|2) u X(-2|1), over the same label objects.
    """
    one = MappingProxyType(
        {ab: SchubertUnion((w,)) for ab, w in weyl._by_letters(n).items()}
    )
    two = (
        SchubertUnion((*one[2, -3], *one[1, -2])),
        SchubertUnion((*one[-3, 2], *one[-2, 1])),
    )
    return one, two


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

    Each cell is one gamma_bfs call, made through the module attribute,
    and one closed-form evaluation; the two share no helper.
    """
    mismatches = []
    cells = 0
    for w in enumerate_labels(n):
        for d in degree_grid(dmax):
            cells += 1
            found = gamma_bfs(w, d)
            stated = gamma_closed_form(w, d)
            if found != stated:
                mismatches.append((w, d, found, stated))
    return CrossCheckReport(n, dmax, cells, tuple(mismatches))
