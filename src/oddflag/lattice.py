"""Curve-neighborhood lattices: build, check lattice/distributivity, classify.

For a base label w the distinct values of the closed-form neighborhood over
the representative degrees (0,0), (1,0), (0,1), (1,1), (1,2) exhaust all
neighborhood values; ordered by containment they form a small poset with
at most five elements.  ``is_distributive`` evaluates the distributive law
over all triples and, independently, hunts for five-element sublattices
shaped like the diamond M3 or the pentagon N5, and insists the two verdicts
agree.

Containment is inclusion of lower-set masks L(x), the rule that
``neighborhoods.union_leq`` states and proves, so ``build_cn_lattice``
compares no labels; each value keeps its mask (``SchubertUnion._lower``).
The same masks drop repeated values: two antichains with equal masks are
equal, since an antichain is the set of maxima of its L.

Every fact that depends on the order alone lives on one record per
distinct order (``_Order``), shared by every lattice with that order: the
up-set and down-set rows as bitmasks, the bool ``order`` matrix, the join
and meet tables and their completeness, the distributivity verdict of
both routes and the structural shape.  The records sit in an
``lru_cache`` of 256 keys on the up-set rows (``_order``).  A lattice is
given by its elements alone: ``CNLattice`` computes the up-set rows from
the elements' lower-set masks, looks up the record and keeps it, and
reads its ``order`` off the record, so the order can never disagree with
the elements and the checks on a built lattice hash nothing.  There is
no route for other posets.  The lattices of each rank from 2 to 16 have
six orders, so each order's checks run six times there.  The verdict and
the shape are computed on first read, since each raises on some valid
order (a non-lattice, an unrecognised shape); a read that raises keeps
nothing, so it raises again on every call.  A 3-chain's shape is named
by the degree witnessing its middle, so the record holds the middle's
index and ``CNLattice._shape`` reads ``witnesses[middle]``; it compares
the shape with the base-label predicate once per lattice object and
keeps it there.

A lattice is a pure function of its base's letters and rank (a, b, n):
the closed-form values, the lower-set masks and hence the order and the
witnesses are all read off them.  So ``build_cn_lattice`` memoises the
lattice on its rank object, in a dict keyed on the letters a, then b
(``weyl._Rank.lattices``), and a repeated query returns the immutable
instance built by the first.  The memo holds at most one lattice per
label, 4n^2, and goes with its rank when ``weyl._rank`` evicts it.  The
lattice is built from the label object of the rank's table
(``weyl._Rank.by_letters``), so its base and top are the table's objects;
``CNLattice`` finds them with ``list.index``, which tries identity and
then equality, so a label kept by a caller across an eviction is found as
well.  The base and top check runs once per label, when the memo builds
the lattice, and a build that raises keeps nothing.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable

from .errors import DomainError, VerificationError, _Frozen
from .moment import Degree
from .neighborhoods import SchubertUnion, gamma_closed_form
from .weyl import FlagLabel, _bits, _Once, _rank, letter_rank, top_label

__all__ = [
    "REPRESENTATIVE_DEGREES",
    "CNLattice",
    "build_cn_lattice",
    "is_lattice",
    "is_distributive",
    "classify_shape",
    "figure_shape_predicate",
    "SHAPE_TAGS",
    "hasse_edges",
]

REPRESENTATIVE_DEGREES: tuple[Degree, ...] = (
    Degree(0, 0),
    Degree(1, 0),
    Degree(0, 1),
    Degree(1, 1),
    Degree(1, 2),
)

SHAPE_TAGS = (
    "trivial",
    "2-chain",
    "3-chain-via-(0,1)",
    "3-chain-via-(1,0)",
    "4-chain",
    "diamond",
    "diamond-plus-top",
)

OrderMatrix = tuple[tuple[bool, ...], ...]
Rows = tuple[int, ...]  # one bitmask per element
BoundTable = tuple[tuple[int | None, ...], ...]


class _Order:
    """One distinct partial order and every fact that depends on it alone.

    Built from the up-set rows: bit j of ``up[i]`` and bit i of ``down[j]``
    are set iff element i lies below element j.  ``CNLattice`` derives the
    rows from inclusion of lower-set masks, which is reflexive and
    transitive, so no axiom is checked here.  It is antisymmetric unless
    two elements are equal: they lie below each other and have equal
    up-set rows, and that raises ``DomainError``.  ``order`` is the same
    relation as a bool matrix.

    ``join`` and ``meet`` are the least-upper-bound and
    greatest-lower-bound tables, None where missing.  The upper bounds of
    a and b form the up-set U = up[a] & up[b], and k is their least upper
    bound iff up[k] == U: a least k lies below all of U, so U is inside
    up[k], and in U, an up-set, so up[k] is inside U; up[k] == U puts k in
    U below all of it.  Antisymmetry makes k unique, so the join is
    ``by_up.get(U)``; the meet is the same with down-sets.
    """

    def __init__(self, up: Rows) -> None:
        size = len(up)
        down = [0] * size
        for i, row in enumerate(up):
            for j in _bits(row):
                down[j] |= 1 << i
        by_up = {mask: k for k, mask in enumerate(up)}
        if len(by_up) != size:
            raise DomainError("lattice elements must be distinct")
        by_down = {mask: k for k, mask in enumerate(down)}
        self.up, self.down = up, tuple(down)
        self.order = tuple(tuple(bool(row >> j & 1) for j in range(size)) for row in up)
        self.join = tuple(tuple(by_up.get(ua & ub) for ub in up) for ua in up)
        self.meet = tuple(tuple(by_down.get(da & db) for db in down) for da in down)
        self.complete = not any(None in row for row in self.join + self.meet)

    @_Once
    def distributive(self) -> bool:
        """The verdict of both routes, which must agree (``is_distributive``)."""
        if not self.complete:
            raise DomainError("distributivity is only defined for lattices")
        by_law = not _violates_triple_law(self.join, self.meet)
        by_shape = not _sublattice_shapes(self.up, self.down, self.join, self.meet)
        if by_law != by_shape:
            raise VerificationError(
                f"distributivity verdicts disagree: triple law {by_law}, "
                f"sublattice hunt {by_shape}"
            )
        return by_law

    @_Once
    def shape(self) -> str | int:
        """The structural shape tag; for a 3-chain, the index of its middle."""
        up, down = self.up, self.down
        size = len(up)
        full = (1 << size) - 1
        # A chain: every element is comparable with all the others.
        chain = all(u | d == full for u, d in zip(up, down))
        middles = [i for i in range(size) if up[i] != full and down[i] != full]
        if size == 1:
            return "trivial"
        if size == 2:
            return "2-chain"
        if size == 3 and chain:
            return middles[0]
        if size == 4:
            return "4-chain" if chain else "diamond"
        # bottom < {m1, m2} incomparable, their join, then the top
        pairs = itertools.combinations(middles, 2)
        if size == 5 and sum((up[i] | down[i]) >> j & 1 for i, j in pairs) == 2:
            return "diamond-plus-top"
        raise VerificationError(f"unrecognized lattice shape of size {size}")


_order = functools.lru_cache(maxsize=256)(_Order)  # keyed on the up-set rows


class CNLattice(_Frozen):
    """The poset of curve neighborhoods of one base label.

    ``elements[i]`` is witnessed by ``witnesses[i]``, the first
    representative degree producing it.  The order is derived, not given:
    ``order[i][j]`` holds iff elements[i] is contained in elements[j],
    read off the elements' lower-set masks, so every element must have the
    base's rank.  Elements and witnesses are stored as tuples, whatever
    sequences they are given as.
    """

    base: FlagLabel
    elements: tuple[SchubertUnion, ...]
    witnesses: tuple[Degree, ...]
    __match_args__ = ("base", "elements", "witnesses")

    def __init__(
        self, base: FlagLabel, elements: Iterable[SchubertUnion], witnesses: Iterable[Degree]
    ) -> None:
        elements, witnesses = tuple(elements), tuple(witnesses)
        if len(elements) != len(witnesses):
            raise DomainError("elements and witnesses differ in number")
        n = base.n
        for e in elements:
            if e.components[0].n != n:
                raise DomainError(f"rank mismatch: {n} vs {e.n}")
        lower = [e._lower for e in elements]
        up = []
        for x in lower:
            row = 0
            for j, y in enumerate(lower):
                if x & y == x:
                    row |= 1 << j
            up.append(row)
        record = _order(tuple(up))
        comps = [e.components for e in elements]
        try:
            bottom = comps.index((base,))
            # The top comes last in a built lattice, so search from the end:
            # each earlier tuple would cost a FlagLabel.__eq__ call.
            top = len(comps) - 1 - comps[::-1].index((top_label(n),))
        except ValueError:
            raise VerificationError("lattice must contain its base and the top") from None
        full = (1 << len(comps)) - 1
        if record.up[bottom] != full or record.down[top] != full:
            raise VerificationError("base must be the minimum and the top the maximum")
        _Frozen.__init__(self, base, elements, witnesses)
        object.__setattr__(self, "_record", record)  # outside equality, hash and repr

    @property
    def order(self) -> OrderMatrix:
        """The containment matrix, held by the record of the order."""
        return self._record.order

    @property
    def size(self) -> int:
        return len(self.elements)

    @_Once
    def _shape(self) -> str:
        """The structural shape, checked against the base-label predicate once.

        Kept on the object; it takes no part in equality, hashing or the
        repr.  A mismatch raises and keeps nothing, so it raises on every read.
        """
        shape = self._record.shape
        if shape.__class__ is int:  # a 3-chain, named by the degree witnessing its middle
            wit = self.witnesses[shape]
            shape = f"3-chain-via-{wit}"
            if shape not in SHAPE_TAGS:
                raise VerificationError(f"3-chain middle witnessed by unexpected degree {wit}")
        expected = figure_shape_predicate(self.base)
        if shape != expected:
            raise VerificationError(
                f"lattice of {self.base} is a {shape} but its label predicts {expected}"
            )
        return shape


def build_cn_lattice(w: FlagLabel) -> CNLattice:
    """Collect the distinct neighborhood values of w and order them.

    Repeated values and containment are read off the lower-set masks
    (module docstring), so no pair of labels is compared.  Each label's
    lattice is built once and then served from its rank's memo on its
    letters; its ``base`` is the label object that
    ``enumerate_labels(w.n)`` holds, equal to w.
    """
    memo = _rank(w.n).lattices[w.a]
    lat = memo.get(w.b)  # no KeyError raised on the first query of a label
    if lat is None:
        lat = memo.setdefault(w.b, _lattice(w.a, w.b, w.n))
    return lat


def _lattice(a: int, b: int, n: int) -> CNLattice:
    w = _rank(n).by_letters[a, b]
    elements, witnesses, lower = [], [], []  # the values, their first degrees, their masks
    for d in REPRESENTATIVE_DEGREES:
        value = gamma_closed_form(w, d)
        mask = value._lower
        if mask not in lower:
            elements.append(value)
            witnesses.append(d)
            lower.append(mask)
    return CNLattice(w, elements, witnesses)


def is_lattice(lat: CNLattice) -> bool:
    """Every pair has a unique least upper and greatest lower bound."""
    return lat._record.complete


def _violates_triple_law(join: BoundTable, meet: BoundTable) -> bool:
    """True iff a v (b ^ c) != (a v b) ^ (a v c) for some triple (a, b, c)."""
    for ja in join:
        for b, mb in enumerate(meet):
            meet_jab = meet[ja[b]]  # type: ignore[index]
            for c, mbc in enumerate(mb):
                if ja[mbc] != meet_jab[ja[c]]:  # type: ignore[index]
                    return True
    return False


def _sublattice_shapes(
    up: Rows, down: Rows, join: BoundTable, meet: BoundTable
) -> bool:
    """True iff some 5-element subset closed under join/meet is M3 or N5."""
    for sub in itertools.combinations(range(len(up)), 5):
        inside = set(sub)
        if any(
            join[a][b] not in inside or meet[a][b] not in inside
            for a, b in itertools.combinations(sub, 2)
        ):
            continue
        mask = sum(1 << a for a in sub)
        bottoms = [a for a in sub if up[a] & mask == mask]
        tops = [a for a in sub if down[a] & mask == mask]
        if len(bottoms) != 1 or len(tops) != 1:
            continue
        middles = [a for a in sub if a not in (bottoms[0], tops[0])]
        comparable = sum(
            1
            for a, b in itertools.combinations(middles, 2)
            if (up[a] | down[a]) >> b & 1
        )
        if comparable in (0, 1):  # 0 middle relations: M3; exactly 1: N5
            return True
    return False


def is_distributive(lat: CNLattice) -> bool:
    """Distributivity, decided twice: triple law and forbidden sublattices.

    The verdict is decided once per order, on its record (module
    docstring), from the join and meet tables that the lattice test reads
    too.  The two routes must agree; disagreement indicates a bug in one
    of them, not a property of the input.
    """
    return lat._record.distributive


def figure_shape_predicate(w: FlagLabel) -> str:
    """Shape expected from the base label alone.

    The seven predicates partition the label set: the top label is
    trivial; a = -2 or (a|b) = (-3|-2) give a 2-chain; a = -3 a 3-chain
    through the (0,1) value; b = -2 a 3-chain through the (1,0) value;
    b = -3 a diamond; the remaining labels give a 4-chain when a > b and
    a diamond plus a new top when a < b, in the alphabet order.
    """
    a, b = w.a, w.b
    if (a, b) == (-2, -3):
        return "trivial"
    if a == -2 or (a, b) == (-3, -2):
        return "2-chain"
    if a == -3:
        return "3-chain-via-(0,1)"
    if b == -2:
        return "3-chain-via-(1,0)"
    if b == -3:
        return "diamond"
    if letter_rank(a, w.n) > letter_rank(b, w.n):
        return "4-chain"
    return "diamond-plus-top"


def classify_shape(lat: CNLattice) -> str:
    """Structural shape tag, checked against the base-label predicate.

    Read off ``lat._shape``, so the check runs once per lattice object.
    """
    return lat._shape


def hasse_edges(lat: CNLattice) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j) with element i covered by element j.

    j covers i iff the interval up[i] & down[j] is exactly {i, j}.
    """
    rec = lat._record
    up, down = rec.up, rec.down
    return tuple(
        (i, j)
        for i, j in itertools.permutations(range(len(up)), 2)
        if up[i] & down[j] == 1 << i | 1 << j
    )
