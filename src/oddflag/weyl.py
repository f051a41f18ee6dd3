"""Signed-permutation combinatorics for the odd symplectic flag family.

The hyperoctahedral group of rank n+1 (Weyl group of type C) permutes the
alphabet

    1 < 2 < ... < n+1 < -(n+1) < ... < -2 < -1

where ``-k`` is the barred letter k.  Cosets of the parabolic subgroup that
fixes the first two positions are identified by the first two one-line
values, written ``(a|b)``; the trailing positions always hold the unused
letters, unbarred, in increasing order.  The Schubert cells of the odd
symplectic partial flag manifold IF(1,2;C^(2n+1)) are indexed by the
"odd" labels: those in which the letter -1 never appears.

Bruhat order on labels has a closed form in the alphabet ranks of a and b
alone (see ``bruhat_leq``): only the first one and the first two values
of the minimal representatives are ever compared.

Everything in this module is an immutable value; all operations are pure
functions and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Literal, Union

from .errors import DomainError

__all__ = [
    "BarValue",
    "FlagLabel",
    "SignedPermutation",
    "Root",
    "ReflectOutcome",
    "EVEN_ONLY",
    "FIXED",
    "bar_value",
    "alphabet",
    "odd_letters",
    "label",
    "top_label",
    "parse_label",
    "format_label",
    "enumerate_labels",
    "minimal_representative",
    "length",
    "reflect",
    "bruhat_leq",
    "down_set",
    "covers",
    "moment_roots",
    "all_positive_roots",
    "all_signed_permutations",
]


@dataclass(frozen=True, order=False)
class BarValue:
    """A letter of the alphabet, optionally barred.

    The total order is 1 < ... < n+1 < -(n+1) < ... < -1 and does not
    depend on the rank, so values of different ranks compare consistently.
    """

    letter: int
    barred: bool = False

    def __post_init__(self) -> None:
        if self.letter < 1:
            raise DomainError(f"letter must be a positive integer, got {self.letter}")

    def bar(self) -> BarValue:
        """The bar involution: k <-> -k."""
        return BarValue(self.letter, not self.barred)

    def rank(self, n: int) -> int:
        """Position in the alphabet of rank n, counted from 1."""
        return 2 * n + 3 - self.letter if self.barred else self.letter

    @property
    def sort_key(self) -> tuple[int, int]:
        return (1, -self.letter) if self.barred else (0, self.letter)

    def __lt__(self, other: BarValue) -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: BarValue) -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: BarValue) -> bool:
        return other < self

    def __ge__(self, other: BarValue) -> bool:
        return other <= self

    def __str__(self) -> str:
        return f"-{self.letter}" if self.barred else str(self.letter)


def bar_value(k: int) -> BarValue:
    """Build a BarValue from a signed integer; negative means barred."""
    if k == 0:
        raise DomainError("letters are nonzero")
    return BarValue(abs(k), k < 0)


def alphabet(n: int) -> tuple[BarValue, ...]:
    """All 2n+2 letters of rank n in increasing order."""
    _check_rank(n)
    up = [BarValue(k) for k in range(1, n + 2)]
    return tuple(up + [v.bar() for v in reversed(up)])


def odd_letters(n: int) -> tuple[BarValue, ...]:
    """The alphabet with -1 removed (letters allowed in odd labels)."""
    return tuple(v for v in alphabet(n) if not (v.letter == 1 and v.barred))


def _check_rank(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"rank must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class FlagLabel:
    """A coset label (a|b) of rank n, with the odd restriction.

    Invariants: the letters of a and b are distinct, both lie in 1..n+1,
    and neither value is -1.
    """

    a: BarValue
    b: BarValue
    n: int

    def __post_init__(self) -> None:
        _check_rank(self.n)
        for v in (self.a, self.b):
            if not 1 <= v.letter <= self.n + 1:
                raise DomainError(f"letter {v} out of range for rank {self.n}")
            if v.letter == 1 and v.barred:
                raise DomainError("odd labels may not contain -1")
        if self.a.letter == self.b.letter:
            raise DomainError(f"positions share the letter {self.a.letter}")

    def __str__(self) -> str:
        return f"{self.a}|{self.b}"

    @property
    def sort_key(self) -> tuple[int, int, int]:
        """Canonical enumeration key: (length, rank of a, rank of b)."""
        return (length(self), self.a.rank(self.n), self.b.rank(self.n))


def label(a: int, b: int, n: int) -> FlagLabel:
    """Build a label from signed integers, e.g. label(-2, 1, n)."""
    return FlagLabel(bar_value(a), bar_value(b), n)


def top_label(n: int) -> FlagLabel:
    """The maximum label (-2|-3)."""
    return label(-2, -3, n)


def parse_label(text: str, n: int) -> FlagLabel:
    """Parse the ``a|b`` syntax, with a leading ``-`` denoting a bar."""
    parts = text.strip().split("|")
    if len(parts) != 2:
        raise DomainError(f"label must look like 'a|b', got {text!r}")
    try:
        a, b = (int(p.strip()) for p in parts)
    except ValueError:
        raise DomainError(f"label sides must be integers, got {text!r}") from None
    return label(a, b, n)


def format_label(w: FlagLabel) -> str:
    """Inverse of parse_label."""
    return str(w)


@dataclass(frozen=True)
class SignedPermutation:
    """One-line notation on positions 1..n+1.

    Only the window is stored; the bar symmetry w(-i) = -w(i) is implied.
    The underlying letters must be a permutation of 1..n+1.
    """

    values: tuple[BarValue, ...]

    def __post_init__(self) -> None:
        letters = sorted(v.letter for v in self.values)
        if letters != list(range(1, len(self.values) + 1)):
            raise DomainError(f"values {self.values} are not a signed permutation")

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"

    def coxeter_length(self) -> int:
        """Number of positive roots sent to negative roots.

        With r(i) the alphabet rank of the i-th value, a root t_i - t_j
        (i < j) goes negative iff r(i) > r(j); a root t_i + t_j iff
        r(i) + r(j) > 2n+3; a root 2t_i iff the i-th value is barred.
        """
        n = self.n
        ranks = [v.rank(n) for v in self.values]
        mid = 2 * n + 3
        inv = 0
        big = 0
        for i, j in itertools.combinations(range(n + 1), 2):
            if ranks[i] > ranks[j]:
                inv += 1
            if ranks[i] + ranks[j] > mid:
                big += 1
        return inv + big + sum(v.barred for v in self.values)

    def apply_reflection(self, root: Root) -> SignedPermutation:
        """Right multiplication by the reflection of ``root``."""
        vals = list(self.values)
        i = root.i - 1
        if root.kind == "long":
            vals[i] = vals[i].bar()
        else:
            j = root.j - 1  # type: ignore[operator]
            if root.kind == "diff":
                vals[i], vals[j] = vals[j], vals[i]
            else:
                vals[i], vals[j] = vals[j].bar(), vals[i].bar()
        return SignedPermutation(tuple(vals))

    def first_two(self) -> tuple[BarValue, BarValue]:
        return self.values[0], self.values[1]


RootKind = Literal["diff", "sum", "long"]


@dataclass(frozen=True)
class Root:
    """A positive root: t_i - t_j, t_i + t_j (i < j) or 2 t_i."""

    kind: RootKind
    i: int
    j: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("diff", "sum", "long"):
            raise DomainError(f"unknown root kind {self.kind!r}")
        if self.kind == "long":
            if self.j is not None:
                raise DomainError("long roots take a single index")
        elif self.j is None or not self.i < self.j:
            raise DomainError(f"need i < j, got ({self.i}, {self.j})")
        if self.i < 1:
            raise DomainError("root indices start at 1")

    def __str__(self) -> str:
        if self.kind == "long":
            return f"2t{self.i}"
        op = "-" if self.kind == "diff" else "+"
        return f"t{self.i}{op}t{self.j}"


def moment_roots(n: int) -> tuple[Root, ...]:
    """The 4n positive roots not in the parabolic subsystem (index 1 or 2)."""
    _check_rank(n)
    roots: list[Root] = [Root("diff", 1, 2), Root("sum", 1, 2)]
    for i in (1, 2):
        roots.append(Root("long", i))
        for j in range(3, n + 2):
            roots.append(Root("diff", i, j))
            roots.append(Root("sum", i, j))
    return tuple(roots)


def all_positive_roots(n: int) -> tuple[Root, ...]:
    """All (n+1)^2 positive roots of the rank-(n+1) type C system."""
    _check_rank(n)
    roots: list[Root] = []
    for i in range(1, n + 2):
        roots.append(Root("long", i))
        for j in range(i + 1, n + 2):
            roots.append(Root("diff", i, j))
            roots.append(Root("sum", i, j))
    return tuple(roots)


def _in_parabolic(root: Root) -> bool:
    return root.i > 2


class ReflectOutcome(Enum):
    """Non-label results of reflecting a coset."""

    EVEN_ONLY = "even-only"
    FIXED = "fixed"


EVEN_ONLY = ReflectOutcome.EVEN_ONLY
FIXED = ReflectOutcome.FIXED

ReflectResult = Union[FlagLabel, ReflectOutcome]


def minimal_representative(w: FlagLabel) -> SignedPermutation:
    """The shortest coset member: a, b, then the rest unbarred increasing."""
    used = {w.a.letter, w.b.letter}
    trailing = tuple(BarValue(k) for k in range(1, w.n + 2) if k not in used)
    return SignedPermutation((w.a, w.b) + trailing)


@functools.lru_cache(maxsize=None)
def length(w: FlagLabel) -> int:
    """Coxeter length of the minimal coset representative."""
    return minimal_representative(w).coxeter_length()


def reflect(w: FlagLabel, root: Root) -> ReflectResult:
    """The coset of (minimal representative of w) times the reflection.

    Returns EVEN_ONLY when the resulting coset leaves the odd index set
    (its label would contain -1) and FIXED when the coset is unchanged;
    the latter cannot occur for roots outside the parabolic subsystem and
    is kept for contract completeness.
    """
    if _in_parabolic(root):
        raise DomainError(f"root {root} lies in the parabolic subsystem")
    if root.j is not None and root.j > w.n + 1:
        raise DomainError(f"root {root} exceeds rank {w.n}")
    a, b = w.a, w.b
    if root.kind == "long":
        new = (a.bar(), b) if root.i == 1 else (a, b.bar())
    elif root.j == 2:  # i == 1
        new = (b, a) if root.kind == "diff" else (b.bar(), a.bar())
    else:
        h = minimal_representative(w).values[root.j - 1]  # type: ignore[operator]
        if root.kind == "sum":
            h = h.bar()
        new = (h, b) if root.i == 1 else (a, h)
    if any(v.letter == 1 and v.barred for v in new):
        return EVEN_ONLY
    out = FlagLabel(new[0], new[1], w.n)
    return FIXED if out == w else out


@functools.lru_cache(maxsize=None)
def bruhat_leq(u: FlagLabel, v: FlagLabel) -> bool:
    """Bruhat order on labels, in closed form.

    With r the alphabet rank (``BarValue.rank``),

        u <= v  iff  r(a_u) <= r(a_v),
                     min(r(a_u), r(b_u)) <= min(r(a_v), r(b_v)) and
                     max(r(a_u), r(b_u)) <= max(r(a_v), r(b_v)).

    Why: type-C Bruhat order is the order induced on doubled words, the
    one-line ranks r_1 .. r_(n+1) followed by 2n+3 - r_(n+1) .. 2n+3 - r_1,
    inside the symmetric group on the 2n+2 ranks (Bjorner-Brenti,
    Cor. 8.1.9), and on cosets it is the order of the minimal
    representatives.  For permutations, u <= v iff for every right
    descent k of u the sorted first k entries of u lie entrywise below
    those of v (Thm. 2.6.3).  The minimal representative is (a, b) then
    the unused letters unbarred and increasing, so its doubled word
    ascends everywhere except possibly at positions 1, 2, 2n and 2n+1.
    The doubled word is centrally symmetric, so the prefix test at k is
    the test at 2n+2-k, and only the prefixes of length 1 and 2 remain:
    {r(a)} and the sorted pair {r(a), r(b)}.
    """
    if u.n != v.n:
        raise DomainError(f"rank mismatch: {u.n} vs {v.n}")
    n = u.n
    au, bu = u.a.rank(n), u.b.rank(n)
    av, bv = v.a.rank(n), v.b.rank(n)
    return au <= av and min(au, bu) <= min(av, bv) and max(au, bu) <= max(av, bv)


@functools.lru_cache(maxsize=None)
def enumerate_labels(n: int) -> tuple[FlagLabel, ...]:
    """All 4n^2 odd labels of rank n, sorted by (length, rank a, rank b)."""
    _check_rank(n)
    out = [
        FlagLabel(a, b, n)
        for a in odd_letters(n)
        for b in odd_letters(n)
        if a.letter != b.letter
    ]
    return tuple(sorted(out, key=lambda w: w.sort_key))


@functools.lru_cache(maxsize=None)
def down_set(w: FlagLabel) -> tuple[FlagLabel, ...]:
    """All labels u with u <= w, including w itself."""
    return tuple(u for u in enumerate_labels(w.n) if bruhat_leq(u, w))


@functools.lru_cache(maxsize=None)
def covers(v: FlagLabel) -> tuple[FlagLabel, ...]:
    """Labels covered by v: all u <= v with length(u) = length(v) - 1."""
    lv = length(v)
    return tuple(
        u for u in enumerate_labels(v.n) if length(u) == lv - 1 and bruhat_leq(u, v)
    )


def all_signed_permutations(n: int) -> Iterator[SignedPermutation]:
    """The full hyperoctahedral group of rank n+1, 2^(n+1) (n+1)! elements."""
    _check_rank(n)
    for perm in itertools.permutations(range(1, n + 2)):
        for bars in itertools.product((False, True), repeat=n + 1):
            yield SignedPermutation(
                tuple(BarValue(k, m) for k, m in zip(perm, bars))
            )
