"""Curve neighborhoods of Schubert varieties, computed two independent ways.

``gamma_bfs`` searches the moment graph with a componentwise degree budget,
starting from the full lower set of the base label, and returns the Bruhat
maxima of everything reached.  ``gamma_closed_form`` states the answer in
closed form.  The curve neighborhood stabilises at d = (1,2), so a label
has at most five distinct values, one per regime (min(d1,1), min(d2,2)).
The closed form evaluates its rules once per rank, in one pass over the
rank's label table (``weyl._Rank.by_letters``) that gives every label a
row of six values, one per regime, over the table's label objects
(``_closed_form_rows``, kept on the rank object); a call reads one row.
The search never reads the rows or the label table, and the closed form
never reads the moment masks or the search index.  ``cross_check``
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

A cell R[e] depends on the base and on e, never on the degree asked, so
one base's grid serves every degree.  ``gamma_bfs`` keeps the grid of the
last base asked in a one-entry memo, ``_base_grid``, keyed on the index
object and the base: a call fills only the cells its window lacks, and
``cross_check``, which asks every degree of one base in a row, fills each
base's grid once.  Only certified cells are stored, so a cell that fails
is never kept and a repeated call raises again at the same cell.  Threads
may share a grid.  A thread fills its window in (d1, d2) order, so every
cell a new cell reads is already in the dict, stored whole and never
removed; the new cell is written once, with ``setdefault``, after the
cells it reads.  The window test reads its own window's cells by key and
never iterates the dict, which may hold more cells and grow meanwhile.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Sequence

from . import weyl
from .errors import DomainError, VerificationError, _Frozen
from .moment import Degree, NeighbourMasks
from .weyl import FlagLabel, _bits, _rank, bruhat_leq, enumerate_labels, letter_rank

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


class SchubertUnion(_Frozen):
    """A finite union of Schubert varieties, recorded by its maximal labels.

    Components must form a nonempty Bruhat antichain of a single rank;
    they are stored in canonical (length, rank a, rank b) order.
    """

    components: tuple[FlagLabel, ...]
    __match_args__ = ("components",)

    def __init__(self, components: Iterable[FlagLabel]) -> None:
        if type(components) is not tuple:
            components = tuple(components)
        if len(components) != 1:  # no check below can fail on one label
            components = tuple(sorted(set(components), key=lambda w: w.sort_key))
            if not components:
                raise DomainError("a Schubert union has at least one component")
            if len({w.n for w in components}) != 1:
                raise DomainError("components must share one rank")
            # Read off the rank's masks, not bruhat_leq: its unbounded cache
            # would keep these labels alive after their rank is evicted.
            index, below, _covered, _level = _rank(components[0].n).masks
            for x, y in itertools.combinations(components, 2):
                if below[index[x]] >> index[y] & 1 or below[index[y]] >> index[x] & 1:
                    raise DomainError(f"components {x} and {y} are comparable")
        object.__setattr__(self, "components", components)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.components,) == (other.components,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.components,))

    @property
    def n(self) -> int:
        return self.components[0].n

    def __str__(self) -> str:
        return self._text

    @weyl._Once
    def _text(self) -> str:
        """The components' texts joined by ", ", built once per object.

        Kept on the object, outside equality, hashing and the repr, so the
        closed form's shared values print their text once per process.
        """
        return ", ".join(map(str, self.components))

    def __iter__(self):
        return iter(self.components)

    @weyl._Once
    def _lower(self) -> int:
        """L(self), the labels below some component, as a mask over ``enumerate_labels(n)``.

        Computed once per object and kept on it; it takes no part in
        equality, hashing or the repr.  ``union_leq``, the lattice order
        and the quantum graph read it; neither neighborhood route does.
        """
        index, below, _covered, _level = _rank(self.components[0].n).masks
        mask = 0
        for v in self.components:
            mask |= below[index[v]]
        return mask


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
    Each union keeps L on itself (``SchubertUnion._lower``), computed on
    first read, and the closed form hands back the same union objects, so
    a repeated containment query reads two ints.
    """
    if lhs.n != rhs.n:
        raise DomainError(f"rank mismatch: {lhs.n} vs {rhs.n}")
    x = lhs._lower
    return x & rhs._lower == x


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

    def reached(
        self,
        w: int,
        d1: int,
        d2: int,
        grid: dict[tuple[int, int], _Cell] | None = None,
    ) -> _Cell:
        """Bitmask of the labels base w reaches within (d1, d2), and their maxima.

        Fills R on the window below t = min(d, k + m), with m = ``reach``
        and k = min(d, m) at first, and stops once R[e] = R[min(e, k)] on
        the whole window; otherwise k widens to t.  The test holds
        trivially for e <= k, so it reads only the other cells of the
        window, and at t = k it is skipped and the loop ends.  See the
        module docstring for the recursion and for why the test is exact.
        The maxima come longest first.

        ``grid`` holds the cells of base w already filled, keyed by degree;
        a cell found there is not filled again, and a fresh dict is used
        when none is given.  It may hold cells outside the window, so the
        test reads the window's cells by key.
        """
        m1, m2 = self.reach
        k1, k2 = min(d1, m1), min(d2, m2)
        if grid is None:
            grid = {}
        while True:
            t1, t2 = min(d1, k1 + m1), min(d2, k2 + m2)
            for e1 in range(t1 + 1):
                for e2 in range(t2 + 1):
                    if (e1, e2) not in grid:
                        # Another thread may have stored the cell meanwhile;
                        # the first value stored stays.
                        grid.setdefault((e1, e2), self._cell(grid, w, e1, e2))
            if (t1, t2) == (k1, k2) or all(
                grid[e1, e2][0] == grid[min(e1, k1), min(e2, k2)][0]
                for e1 in range(t1 + 1)
                for e2 in range(t2 + 1)
                if e1 > k1 or e2 > k2
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
        """Bruhat maxima of the labels reached from base w within (d1, d2).

        Reads and extends the cells of base w kept by ``_base_grid``.
        """
        _reached, maxima = self.reached(w, d1, d2, _base_grid(self, w))
        return SchubertUnion(tuple(self.labels[x] for x in maxima))


def _search_index(rank: weyl._Rank) -> _SearchIndex:
    """The search index of the rank's moment graph, built on first use."""
    return _SearchIndex(rank.labels, rank._moment_masks)


weyl._Rank._search_index = weyl._Once(_search_index)


@functools.lru_cache(maxsize=1)
def _base_grid(index: _SearchIndex, w: int) -> dict[tuple[int, int], _Cell]:
    """The cells of base w filled so far on ``index``, for the last base asked.

    Keyed on the index object itself, which the memo holds, so its identity
    is not reused and a grid never serves another index.
    ``_SearchIndex.reached`` stores only certified cells in it.
    """
    return {}


def gamma_bfs(w: FlagLabel, d: Degree) -> SchubertUnion:
    """Degree-budgeted search for the curve neighborhood of X(w).

    Walks the moment graph from the lower set of w, spending edge degrees
    against the budget d componentwise, and returns the Bruhat maxima of
    every label reached.  The reached set comes from the degree-graded
    recursion of the module docstring, filled in (d1, d2) order up to the
    first window that passes the stability test.  The cells filled for w
    are kept until a call asks another base or rank, so consecutive calls
    on one base fill each cell once; threads may share them (module
    docstring).  The search expands only maxima, which is exact on Bruhat
    lower sets, so it raises ``VerificationError`` when a reached set is
    not one, and stores no cell that fails.
    """
    index = _rank(w.n)._search_index
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
    The rules are evaluated once per rank, not per call: each label has
    one row of six values, one per regime, over the label objects of
    ``enumerate_labels(n)`` (``_closed_form_rows``), so a call reads one
    row at column 3*min(d1,1) + min(d2,2) and builds no label and no union.
    """
    d1, d2 = d.d1, d.d2
    return _rank(w.n)._closed_form_rows[w.a][w.b][(3 if d1 else 0) + (d2 if d2 < 2 else 2)]


def _closed_form_rows(rank: weyl._Rank) -> dict[int, dict[int, tuple[SchubertUnion, ...]]]:
    """The closed form's values at the rank, one row per label, built on first use.

    The row of the label (a|b) of the rank's table is ``rows[a][b]``: two
    int keys, which a call hashes faster than one tuple key.  Private and
    never changed after the build.  Column 3*r1 + r2 holds the value at the regime (r1, r2) = (min(d1,1),
    min(d2,2)): (0,0), (0,1), (0,2), (1,0), (1,1), (1,2).  Columns (0,1) and
    (0,2) hold one object, since with d1 = 0 the sweep of column two ends
    at d2 = 1.  Every value is a union over the table's label objects, and
    each one-component union is built once per label; the rules of
    ``gamma_closed_form`` are written out here, one pass over the labels.
    """
    one = {ab: SchubertUnion((w,)) for ab, w in rank.by_letters.items()}
    top = one[-2, -3]
    two_sweep = SchubertUnion((*one[2, -3], *one[1, -2]))  # (2|b) at (0, d2 >= 1)
    two_bottom = SchubertUnion((*one[-3, 2], *one[-2, 1]))  # (1|2), (2|1) at (1,1)
    ranks = {k: letter_rank(k, rank.n) for k in weyl.odd_letters(rank.n)}
    rows: dict[int, dict[int, tuple[SchubertUnion, ...]]] = {}
    for ab, same in one.items():
        a, b = ab
        if ranks[a] > ranks[b]:
            hi, swap = a, same
        else:
            hi, swap = b, one[b, a]
        sweep = two_sweep if a == 2 else one[a, -3 if a == -2 else -2]
        if a == -2 or b == -2:
            both = top
        elif hi == 2:  # (1|2) or (2|1)
            both = two_bottom
        else:
            both = one[-2, hi]
        rows.setdefault(a, {})[b] = (same, sweep, sweep, swap, both, top)
    return rows


weyl._Rank._closed_form_rows = weyl._Once(_closed_form_rows)


def degree_grid(dmax: Degree) -> tuple[Degree, ...]:
    """All degrees below ``dmax``, in (d1, d2) order."""
    return tuple(
        Degree(d1, d2)
        for d1 in range(dmax.d1 + 1)
        for d2 in range(dmax.d2 + 1)
    )


class CrossCheckReport(_Frozen):
    """Outcome of comparing the search and the closed form on a full grid."""

    n: int
    dmax: Degree
    cells: int
    mismatches: tuple[tuple[FlagLabel, Degree, SchubertUnion, SchubertUnion], ...]
    __slots__ = __match_args__ = ("n", "dmax", "cells", "mismatches")

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
    and one closed-form evaluation; the two share no helper.  The cells of
    one base come in a row, so the search fills that base's grid once.
    """
    mismatches = []
    cells = 0
    degrees = degree_grid(dmax)
    for w in enumerate_labels(n):
        for d in degrees:
            cells += 1
            found = gamma_bfs(w, d)
            stated = gamma_closed_form(w, d)
            if found != stated:
                mismatches.append((w, d, found, stated))
    return CrossCheckReport(n, dmax, cells, tuple(mismatches))
