"""Degree-labeled moment graph of the odd symplectic flag family.

Vertices are the odd labels; there is an unoriented edge w -- reflect(w, r)
for every root r outside the parabolic subsystem whose reflection keeps the
coset inside the odd index set.  Each edge carries the curve degree of its
root, one of (1,0), (0,1), (1,1), (1,2).

The graph has a closed form in the letters of (a|b).  Read off ``reflect``
root by root, with h running over the letters unused by (a|b):

* t1 - t2, class (1,0), sends (a|b) to (b|a), always an odd label.
* t1 + t2, class (1,2), sends (a|b) to (-b|-a), odd unless a or b is 1.
* The t2 family, class (0,1): 2t2 gives (a|-b), and t2 - tj, t2 + tj
  (j >= 3) give (a|h) and (a|-h).  Together they put every allowed letter
  y != b with |y| != |a| in place of b, -1 excluded as for every odd
  label: the (0,1) neighbours of (a|b) are the other labels of its row,
  the labels with first letter a.
* The t1 family, class (1,1), does the same to a: the (1,1) neighbours of
  (a|b) are the other labels of its column, the labels with second
  letter b.

Having the same first letter is an equivalence, so any two labels of a
row are (0,1) neighbours of each other: each row is a clique of (0,1)
edges, and each column, in the same way, a clique of (1,1) edges.  No
pair is joined twice: a pair in one row or column differs in one letter,
the swap and the bar-swap change both, and (b|a) = (-b|-a) would need
b = -b.

``moment_masks`` builds the per-class neighbour masks from this rule, and
the search reads them.  The reference route reflects letters, not
labels: ``_reflections`` sends the letters of every label through every
root with ``weyl._reflect_letters`` and looks the result up by its
letters.  ``verify`` ORs those reflections into masks and compares them
with ``moment_masks`` at every rank.  ``build_moment_graph`` builds the
graph as objects from the same reflections, for output only: the
``moment-graph`` subcommand, which ``cli`` writes as JSON, DOT or a table,
and the rank-2 reference figure and edge counts in ``verify``.  It keeps
nothing between calls.  This module renders nothing.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from types import MappingProxyType

from .errors import DomainError, _Frozen
from .weyl import FlagLabel, Root, _Once, _Rank, _checked, _reflect_letters
from .weyl import enumerate_labels, moment_roots

__all__ = [
    "Degree",
    "MomentEdge",
    "MomentGraph",
    "degree_of_root",
    "build_moment_graph",
]


class Degree(_Frozen):
    """An effective curve class (d1, d2) of two ints, ordered componentwise.

    A bool or a float is not a degree part.  The order is partial; use
    ``key`` for deterministic sorting.  Sums and comparisons take another
    ``Degree`` only.

    Every degree with both parts below 8 is one shared object, made at
    import, so a caller's per-query degrees allocate nothing.  The bound
    is a literal, and it is enough: the closed form reads only
    (min(d1,1), min(d2,2)), the benchmark's queries stay within (3,3)
    and the test grids within (3,5) and (4,4).  A larger degree is built
    fresh.  Equality, hashing and the order are by value, and ``is`` is
    not part of the API.  The parts are checked before the lookup, since
    ``(True, 1)`` equals ``(1, 1)``.
    """

    d1: int
    d2: int
    __slots__ = __match_args__ = ("d1", "d2")

    def __new__(cls, d1: int, d2: int) -> Degree:
        if type(d1) is not int or type(d2) is not int:
            raise DomainError(f"degrees are ints, got ({d1!r},{d2!r})")
        if d1 < 0 or d2 < 0:
            raise DomainError(f"degrees are nonnegative, got ({d1},{d2})")
        if d1 < 8 and d2 < 8:
            return _SMALL[d1 << 3 | d2]
        return cls._fresh(d1, d2)

    __init__ = object.__init__  # ignores the arguments: __new__ has checked and set the parts

    @classmethod
    def _fresh(cls, d1: int, d2: int) -> Degree:
        self = object.__new__(cls)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.d1, self.d2) == (other.d1, other.d2)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d1, self.d2))

    def __add__(self, other: Degree) -> Degree:
        if other.__class__ is not Degree:
            return NotImplemented
        return Degree(self.d1 + other.d1, self.d2 + other.d2)

    def __le__(self, other: Degree) -> bool:
        if other.__class__ is not Degree:
            return NotImplemented
        return self.d1 <= other.d1 and self.d2 <= other.d2

    @property
    def key(self) -> tuple[int, int]:
        return (self.d1, self.d2)

    def __str__(self) -> str:
        return f"({self.d1},{self.d2})"


# The shared small degrees, (d1, d2) at index d1 << 3 | d2.
_SMALL = tuple(Degree._fresh(d1, d2) for d1 in range(8) for d2 in range(8))


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


class MomentEdge(_Frozen):
    u: FlagLabel
    v: FlagLabel
    degree: Degree
    root: Root
    __slots__ = __match_args__ = ("u", "v", "degree", "root")


class MomentGraph(_Frozen):
    """Immutable unoriented multigraph; edges stored once per pair+root."""

    n: int
    vertices: tuple[FlagLabel, ...]
    edges: tuple[MomentEdge, ...]
    __slots__ = __match_args__ = ("n", "vertices", "edges")

    def degree_counts(self) -> dict[Degree, int]:
        counts: dict[Degree, int] = {}
        for e in self.edges:
            counts[e.degree] = counts.get(e.degree, 0) + 1
        return counts


def build_moment_graph(n: int) -> MomentGraph:
    """Assemble the graph from the reflection of every vertex by every root.

    Reflections that leave the odd index set are dropped; the surviving
    edges form the full subgraph, on odd vertices, of the even-case graph.
    Each pair is stored once, with the root that reflects its lower-index
    end, in order of the two indices.  Built anew on every call.
    """
    vertices = enumerate_labels(n)
    degrees = {root: degree_of_root(root) for root in moment_roots(n)}
    ends = sorted((e for e in _reflections(n) if e[0] < e[1]), key=lambda e: e[:2])
    edges = tuple(
        MomentEdge(vertices[i], vertices[j], degrees[root], root) for i, j, root in ends
    )
    return MomentGraph(n, vertices, edges)


def _reflections(n: int) -> Iterator[tuple[int, int, Root]]:
    """``(i, j, root)`` for each label i that ``root`` reflects to label j.

    Indices are positions in ``enumerate_labels(n)``; reflections that
    leave the odd index set are skipped.  Every pair appears twice, once
    from each end, with roots of one degree class.
    """
    at = {(w.a, w.b): i for i, w in enumerate(enumerate_labels(n))}
    roots = moment_roots(n)
    for (a, b), i in at.items():  # in label order
        for root in roots:
            new = _reflect_letters(a, b, root)
            if new is not None:
                yield i, at[new], root


# Per-class neighbour masks over a label list: bit j of near[c][i] is set
# iff labels i and j are joined by an edge of class c = (c1, c2).
NeighbourMasks = Mapping[tuple[int, int], tuple[int, ...]]


def moment_masks(n: int) -> NeighbourMasks:
    """The moment graph of rank n as read-only per-class neighbour masks.

    Masks are aligned with ``enumerate_labels(n)`` and built once per rank
    from the row, column, swap and bar-swap rule of the module docstring,
    with no reflection (``_moment_masks``, kept on the rank object).  The
    classes come in increasing (c1, c2) order.
    """
    return _checked(n)._moment_masks


def _moment_masks(rank: _Rank) -> NeighbourMasks:
    at = {(w.a, w.b): i for i, w in enumerate(rank.labels)}
    row: dict[int, int] = {}
    col: dict[int, int] = {}
    for (a, b), i in at.items():
        row[a] = row.get(a, 0) | 1 << i
        col[b] = col.get(b, 0) | 1 << i
    # ``at`` keeps the label order, so the masks line up with the labels.
    return MappingProxyType({
        (0, 1): tuple(row[a] & ~(1 << i) for (a, b), i in at.items()),
        (1, 0): tuple(1 << at[b, a] for a, b in at),
        (1, 1): tuple(col[b] & ~(1 << i) for (a, b), i in at.items()),
        (1, 2): tuple(1 << at[-b, -a] if (-b, -a) in at else 0 for a, b in at),
    })


_Rank._moment_masks = _Once(_moment_masks)
