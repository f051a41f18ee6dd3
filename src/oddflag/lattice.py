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

Every fact the module reads of an order matrix comes from one record,
``_poset(order) -> (order, up, down, join, meet)``.  ``up[k]`` and
``down[k]`` are the up-set and down-set of element k as bitmasks; the
axioms are checked on them in O(k^2) mask operations, and the join and
meet tables are read off them (see ``_poset``).  The record is a pure
function of ``order``, so it is computed once per distinct order, in an
``lru_cache`` bounded at 256 keys (``is_lattice``, ``is_distributive``
and ``hasse_edges`` read only the ``order`` of what they are given, so
they take any finite poset).  Its ``order`` is the first-seen tuple equal
to the key, and ``CNLattice`` stores that one, so lattices with equal
orders share one order tuple.  An invalid order raises on every call,
since a call that raises caches nothing.  ``CNLattice`` still accepts
list rows.

Two facts stay lazy, each in its own ``lru_cache`` of 256 keys: the
distributivity verdict, a function of ``order`` (both routes and their
agreement), and the structural shape, a function of ``order`` and
``witnesses``.  Both raise on some valid input (a non-lattice, an
unrecognised shape), so they run only when a caller asks.  Two lattices
with equal keys get equal facts, so every check still runs once for each
distinct key.  The lattices have six orders at every rank from 2 to 16.
``CNLattice`` still checks its base and its top on every instance.
``classify_shape`` reads the shape that each lattice object keeps
(``CNLattice._shape``): the cached structural shape is compared with the
base-label predicate once per lattice object, and a mismatch keeps
nothing, so it raises on every call.

A lattice is a pure function of its base's letters and rank (a, b, n):
the closed-form values, the lower-set masks and hence the order and the
witnesses are all read off them.  So ``build_cn_lattice`` memoises the
lattice on its rank object, in a dict keyed on the letters a, then b
(``weyl._Rank.lattices``), and a repeated query returns the instance
built by the first; the instance is immutable, so sharing it changes no
answer.  The memo holds at most one lattice per label, 4n^2, and goes
with its rank when ``weyl._rank`` evicts it, together with the labels and
values its lattices hold.  The lattice is built from the label object of
the rank's table (``weyl._Rank.by_letters``), so its base and top are the
table's objects.  ``CNLattice`` finds them with ``list.index``, which
tries identity first and falls back to equality, so a label from another
build of the rank, kept by a caller across an eviction, is found as well.
Every check still runs once per label: ``CNLattice`` checks its axioms,
base and top when the memo builds it, and a build that raises keeps
nothing.
"""

from __future__ import annotations

import functools
import itertools

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
    "to_dot",
    "to_json_dict",
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
Poset = tuple[OrderMatrix, Rows, Rows, BoundTable, BoundTable]


@functools.lru_cache(maxsize=256)
def _poset(order: OrderMatrix) -> Poset:
    """The record ``(order, up, down, join, meet)`` of a partial order.

    ``order`` is the first-seen tuple equal to the key.  Bit j of
    ``up[i]`` and bit i of ``down[j]`` are set iff order[i][j].  Raises
    ``DomainError`` unless the matrix is square, reflexive (bit i in
    up[i]), antisymmetric (up[i] & down[i] is {i}) and transitive (up[j]
    inside up[i] for every j in up[i]).

    ``join`` and ``meet`` are the least-upper-bound and
    greatest-lower-bound tables, None where missing.  The upper bounds of
    a and b form the set U = up[a] & up[b].  An element k is their least
    upper bound iff up[k] == U.  If k is least, every member of U lies
    above k, so U is inside up[k]; and k lies in U, which is an up-set (an
    intersection of up-sets), so up[k] is inside U.  Conversely up[k] == U
    puts k in U, below every member of U.  Antisymmetry makes k unique
    (up[k] == up[k'] gives k <= k' <= k), so the join is ``by_up.get(U)``
    and the meet is the same with down-sets.
    """
    size = len(order)
    if any(len(row) != size for row in order):
        raise DomainError("order matrix must be square")
    up = [0] * size
    down = [0] * size
    for i, row in enumerate(order):
        for j, leq in enumerate(row):
            if leq:
                up[i] |= 1 << j
                down[j] |= 1 << i
    for i in range(size):
        if not up[i] >> i & 1:
            raise DomainError("order must be reflexive")
    for i in range(size):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            j = (both & -both).bit_length() - 1
            raise DomainError(f"order not antisymmetric at ({i},{j})")
    for i in range(size):
        for j in _bits(up[i]):
            missed = up[j] & ~up[i]
            if missed:
                k = (missed & -missed).bit_length() - 1
                raise DomainError(f"order not transitive at ({i},{j},{k})")
    by_up = {mask: k for k, mask in enumerate(up)}
    by_down = {mask: k for k, mask in enumerate(down)}
    join = tuple(tuple(by_up.get(ua & ub) for ub in up) for ua in up)
    meet = tuple(tuple(by_down.get(da & db) for db in down) for da in down)
    return order, tuple(up), tuple(down), join, meet


class CNLattice(_Frozen):
    """The poset of curve neighborhoods of one base label.

    ``elements[i]`` is witnessed by ``witnesses[i]``, the first
    representative degree producing it; ``order[i][j]`` holds iff
    elements[i] is contained in elements[j].
    """

    base: FlagLabel
    elements: tuple[SchubertUnion, ...]
    order: OrderMatrix
    witnesses: tuple[Degree, ...]
    __match_args__ = ("base", "elements", "order", "witnesses")

    def __init__(
        self,
        base: FlagLabel,
        elements: tuple[SchubertUnion, ...],
        order: OrderMatrix,
        witnesses: tuple[Degree, ...],
    ) -> None:
        # _poset checks the partial-order axioms.
        order, up, down, _join, _meet = _poset(tuple(map(tuple, order)))
        comps = [e.components for e in elements]
        try:
            bottom = comps.index((base,))
            # The top comes last in a built lattice, so search from the end:
            # each earlier tuple would cost a FlagLabel.__eq__ call.
            top = len(comps) - 1 - comps[::-1].index((top_label(base.n),))
        except ValueError:
            raise VerificationError("lattice must contain its base and the top") from None
        full = (1 << len(comps)) - 1
        if up[bottom] != full or down[top] != full:
            raise VerificationError("base must be the minimum and the top the maximum")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "witnesses", witnesses)

    @property
    def size(self) -> int:
        return len(self.elements)

    @_Once
    def _shape(self) -> str:
        """The structural shape, checked against the base-label predicate once.

        Kept on the object; it takes no part in equality, hashing or the
        repr.  A mismatch raises and keeps nothing, so it raises on every read.
        """
        shape = _structural_shape(self.order, self.witnesses)
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
    elements: list[SchubertUnion] = []
    witnesses: list[Degree] = []
    lower: list[int] = []
    for d in REPRESENTATIVE_DEGREES:
        value = gamma_closed_form(w, d)
        mask = value._lower
        if mask not in lower:
            elements.append(value)
            witnesses.append(d)
            lower.append(mask)
    order = tuple([tuple([x & y == x for y in lower]) for x in lower])
    return CNLattice(w, tuple(elements), order, tuple(witnesses))


def _complete(join: BoundTable, meet: BoundTable) -> bool:
    return all(None not in row for row in join) and all(None not in row for row in meet)


def is_lattice(lat: CNLattice) -> bool:
    """Every pair has a unique least upper and greatest lower bound."""
    _order, _up, _down, join, meet = _poset(lat.order)
    return _complete(join, meet)


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

    The verdict is decided once per order matrix (module docstring), from
    the join and meet tables that the lattice test reads too.  The two
    routes must agree; disagreement indicates a bug in one of them, not a
    property of the input.
    """
    return _distributive(lat.order)


@functools.lru_cache(maxsize=256)
def _distributive(order: OrderMatrix) -> bool:
    _order, up, down, join, meet = _poset(order)
    if not _complete(join, meet):
        raise DomainError("distributivity is only defined for lattices")
    by_law = not _violates_triple_law(join, meet)
    by_shape = not _sublattice_shapes(up, down, join, meet)
    if by_law != by_shape:
        raise VerificationError(
            f"distributivity verdicts disagree: triple law {by_law}, "
            f"sublattice hunt {by_shape}"
        )
    return by_law


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


@functools.lru_cache(maxsize=256)
def _structural_shape(order: OrderMatrix, witnesses: tuple[Degree, ...]) -> str:
    _order, up, down, _join, _meet = _poset(order)
    size = len(order)
    full = (1 << size) - 1
    # A chain: every element is comparable with all the others.
    chain = all(u | d == full for u, d in zip(up, down))
    if size == 1:
        return "trivial"
    if size == 2:
        return "2-chain"
    if size == 3 and chain:
        middle = next(i for i in range(size) if up[i] != full and down[i] != full)
        wit = witnesses[middle]
        if wit == Degree(0, 1):
            return "3-chain-via-(0,1)"
        if wit == Degree(1, 0):
            return "3-chain-via-(1,0)"
        raise VerificationError(f"3-chain middle witnessed by unexpected degree {wit}")
    if size == 4 and chain:
        return "4-chain"
    if size == 4:
        return "diamond"
    if size == 5 and not chain:
        # bottom < {m1, m2} incomparable, their join, then the top
        middles = [i for i in range(size) if up[i] != full and down[i] != full]
        comparable = [
            (i, j)
            for i, j in itertools.combinations(middles, 2)
            if (up[i] | down[i]) >> j & 1
        ]
        if len(comparable) == 2:
            return "diamond-plus-top"
    raise VerificationError(f"unrecognized lattice shape of size {size}")


def classify_shape(lat: CNLattice) -> str:
    """Structural shape tag, checked against the base-label predicate.

    Read off ``lat._shape``, so the check runs once per lattice object.
    """
    return lat._shape


def hasse_edges(lat: CNLattice) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j) with element i covered by element j.

    j covers i iff the interval up[i] & down[j] is exactly {i, j}.
    """
    _order, up, down, _join, _meet = _poset(lat.order)
    return tuple(
        (i, j)
        for i, j in itertools.permutations(range(len(up)), 2)
        if up[i] & down[j] == 1 << i | 1 << j
    )


def to_dot(lat: CNLattice) -> str:
    """Hasse diagram drawn bottom-up, one node per neighborhood value."""
    names = [str(e) for e in lat.elements]
    lines = [f'digraph lattice {{', '  rankdir=BT;', '  node [shape=box];']
    lines.extend(f'  v{i} [label="{name}"];' for i, name in enumerate(names))
    lines.extend(
        f"  v{i} -> v{j} [arrowhead=none];" for i, j in hasse_edges(lat)
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(lat: CNLattice) -> dict:
    return {
        "schema": "oddflag.lattice/1",
        "base": str(lat.base),
        "elements": [[str(w) for w in e] for e in lat.elements],
        "hasse": [list(p) for p in hasse_edges(lat)],
        "shape": classify_shape(lat),
    }
