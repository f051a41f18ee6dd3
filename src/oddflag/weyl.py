"""Schubert labels (a|b) of the odd symplectic flag family.

The hyperoctahedral group of rank n+1 (Weyl group of type C) permutes the
alphabet

    1 < 2 < ... < n+1 < -(n+1) < ... < -2 < -1

where ``-k`` is the barred letter k.  Cosets of the parabolic subgroup that
fixes the first two positions are identified by the first two one-line
values, written ``(a|b)``; the trailing positions of the minimal
representative always hold the unused letters, unbarred, in increasing
order.  The Schubert cells of the odd symplectic partial flag manifold
IF(1,2;C^(2n+1)) are indexed by the "odd" labels: those in which the
letter -1 never appears.

A letter is a signed int, negative meaning barred, and a label is two of
them plus the rank.  Letters compare in alphabet order through their rank
``letter_rank``, never with ``<`` or ``max``: as ints 2 < -3 is False,
yet 2 comes before -3 in the alphabet.

This module knows only the labels and the alphabet ranks of their
letters.  Length (``length``), the reflection of a label by a moment root
(``reflect``) and Bruhat order (``bruhat_leq``) are closed forms in the
two letters of (a|b); each docstring derives its formula from the group.
The group itself, signed permutations with their root counts and
reflections, lives only in the test oracles that check these formulas.

Bruhat order has dimension at most 3.  By ``bruhat_leq``, u <= v iff
the key (r(a), min, max) of the ranks of (a|b) lies entrywise below v's;
the key determines the label, so it embeds the order in a product of
three chains.  With A[k], L[k] and H[k] the labels whose first, second
and third key entries are at most k (prefix ORs over the ranks), the
lower set of v is A[k1] & L[k2] & H[k3] at v's key.  The order is graded
by length, so the labels v covers are its lower set cut to length
l(v) - 1.  ``bruhat_masks`` holds these lower sets and covers as bitmasks;
``down_set``, ``covers``, the search, ``union_leq``, the lattice order
and the quantum graph read them.

Every per-rank table lives on one rank object, ``_rank(n)``, each built
on first read and kept there (``_Rank``): the labels, the labels by their
letters (a, b), the Bruhat masks and the parse memo here, and the tables
that higher modules attach to ``_Rank`` as ``_Once`` attributes.  ``enumerate_labels(n)``
holds one object per label of rank n; ``top_label``, ``parse_label`` and
the closed-form neighborhoods take their labels from the rank's table
instead of building new ones, and the search does not read that table.
A label keeps its length once computed (``FlagLabel._length``), so the
enumeration's sort computes each length of a rank once, and the Bruhat
masks and the quantum graph read them off the same objects.

Everything in this module is an immutable value or a table built once
from one; all operations are pure functions and safe to share across
threads.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator, Mapping
from types import MappingProxyType

from .errors import DomainError, _Frozen

__all__ = [
    "FlagLabel",
    "Root",
    "letter_rank",
    "alphabet",
    "odd_letters",
    "label",
    "top_label",
    "parse_label",
    "enumerate_labels",
    "length",
    "reflect",
    "bruhat_leq",
    "down_set",
    "covers",
    "moment_roots",
]


def letter_rank(k: int, n: int) -> int:
    """Position of the signed letter k in the alphabet of rank n, from 1.

    The alphabet order of letters is the order of these ranks.
    """
    return k if k > 0 else 2 * n + 3 + k


def alphabet(n: int) -> tuple[int, ...]:
    """All 2n+2 letters of rank n in increasing order."""
    _check_rank(n)
    return tuple(range(1, n + 2)) + tuple(range(-n - 1, 0))


def odd_letters(n: int) -> tuple[int, ...]:
    """The alphabet with -1 removed (letters allowed in odd labels)."""
    return alphabet(n)[:-1]


def _check_rank(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"rank must be an integer >= 2, got {n!r}")


class _Once:
    """A read-only property computed on first read and then kept on the object.

    A non-data descriptor, so the stored attribute shadows it; threads
    that race compute the same value.  Unlike the standard library's
    cached property it takes no lock (CPython 3.11 takes one on every first
    read: about half a millisecond over the 576 labels of rank 12) and
    never reads ``obj.__dict__``, which would give each label a dict of its
    own and make every later attribute read of it slower.  A first read that raises
    keeps nothing, so the next read computes again.  It holds
    ``FlagLabel._length``, ``neighborhoods.SchubertUnion._lower`` and
    ``_text``, ``lattice.CNLattice._shape``, the verdict and shape of a
    lattice order's record (``lattice._Order``), and every table of a rank
    object: ``_Rank.labels``, ``by_letters`` and ``masks``, and those that
    higher modules attach (the moment masks, the search index and the
    closed form's rows).
    """

    def __init__(self, func) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


class FlagLabel(_Frozen):
    """A coset label (a|b) of rank n, with the odd restriction.

    a and b are signed letters, ints (a bool is not one), negative meaning
    barred.  Invariants: the unsigned letters |a| and |b| are distinct,
    both lie in 1..n+1, and neither value is -1.
    """

    a: int
    b: int
    n: int
    __match_args__ = ("a", "b", "n")

    def __init__(self, a: int, b: int, n: int) -> None:
        _check_rank(n)
        for k in (a, b):
            if type(k) is not int:
                raise DomainError(f"letters are ints, got {k!r}")
            if not 1 <= abs(k) <= n + 1:
                raise DomainError(f"letter {k} out of range for rank {n}")
            if k == -1:
                raise DomainError("odd labels may not contain -1")
        if abs(a) == abs(b):
            raise DomainError(f"positions share the letter {abs(a)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.n) == (other.a, other.b, other.n)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.n))

    def __str__(self) -> str:
        return f"{self.a}|{self.b}"

    @_Once
    def _length(self) -> int:
        """``length(self)``, computed once per object.

        ``enumerate_labels`` sorts by it, so a rank's lengths are computed
        once, and ``bruhat_masks`` and the quantum graph read them here.
        """
        return length(self)

    @property
    def sort_key(self) -> tuple[int, int, int]:
        """Canonical enumeration key: (length, rank of a, rank of b)."""
        n = self.n
        return (self._length, letter_rank(self.a, n), letter_rank(self.b, n))


def label(a: int, b: int, n: int) -> FlagLabel:
    """Build a label from signed integers, e.g. label(-2, 1, n)."""
    return FlagLabel(a, b, n)


def top_label(n: int) -> FlagLabel:
    """The maximum label (-2|-3), the object held by ``enumerate_labels(n)``.

    It is the only label of the largest length, 4n - 2, so it comes last.
    """
    return _checked(n).labels[-1]


def parse_label(text: str, n: int) -> FlagLabel:
    """Parse the ``a|b`` syntax, with a leading ``-`` denoting a bar.

    Each side, stripped of surrounding whitespace, is an optional sign and
    ASCII digits (``_plain_int``); anything else raises ``DomainError``.

    Returns the object of rank n's label table (``_Rank.by_letters``), so
    a parse builds no label, and every parse of one label, whatever its
    spelling, returns one object.  The rank and the type of the text are
    checked before any table is read, so a rank that is not an int >= 2
    (a float, a bool, an unhashable value) or a text that is not a ``str``
    (an int, bytes, a list) raises ``DomainError`` whatever was parsed
    before.  The rank keeps the canonical text ``str(w)`` of each label
    parsed (``_Rank.parsed``, at most 4n^2 keys), so a repeated canonical
    text is one dict read; another spelling is split again.  A parse that
    raises keeps nothing.  The first parse at a cold rank builds the
    rank's label table, which every other query of the rank reads too.
    """
    _check_rank(n)
    if not isinstance(text, str):
        raise DomainError(f"label must be a str like 'a|b', got {text!r}")
    try:
        return _rank(n).parsed[text]
    except KeyError:
        rank = _rank(n)
    parts = text.strip().split("|")
    if len(parts) != 2:
        raise DomainError(f"label must look like 'a|b', got {text!r}")
    try:
        a, b = map(_plain_int, parts)
    except ValueError:
        raise DomainError(f"label sides must be integers, got {text!r}") from None
    # The table holds every label of the rank, so the build only ever raises.
    w = rank.by_letters.get((a, b)) or label(a, b, rank.n)
    return rank.parsed.setdefault(str(w), w)


def _plain_int(text: str) -> int:
    """The int written by ``text``: after ``strip()``, an optional sign and ASCII digits.

    Raises ``ValueError`` otherwise.  ``int`` alone would also read
    underscores (``1_0``) and non-ASCII digits (a full-width ``２``).
    """
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a plain integer: {text!r}")
    return int(text)


class Root(_Frozen):
    """A positive root: t_i - t_j ("diff"), t_i + t_j ("sum"), i < j, or 2 t_i ("long")."""

    kind: str
    i: int
    j: int | None
    __slots__ = __match_args__ = ("kind", "i", "j")

    def __init__(self, kind: str, i: int, j: int | None = None) -> None:
        if kind not in ("diff", "sum", "long"):
            raise DomainError(f"unknown root kind {kind!r}")
        if kind == "long":
            if j is not None:
                raise DomainError("long roots take a single index")
        elif j is None or not i < j:
            raise DomainError(f"need i < j, got ({i}, {j})")
        if i < 1:
            raise DomainError("root indices start at 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.kind, self.i, self.j) == (other.kind, other.i, other.j)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.i, self.j))

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


def _unused_inversions(x: int, other: int, n: int) -> int:
    """Count of t_x - t_u, t_x + t_u (u unused) and 2t_x sent negative."""
    k, k2 = abs(x), abs(other)
    if x < 0:
        return 2 * n + 1 - k - (k2 > k)
    return k - 1 - (k2 < k)


def length(w: FlagLabel) -> int:
    """Coxeter length of the minimal coset representative, in closed form.

    The minimal representative is (a, b, u_1, ..., u_(n-1)) with the
    unused letters u unbarred and increasing, so r(u_i) = u_i <= n+1.
    Its length counts the positive roots it sends negative: t_i - t_j
    (i < j) iff r_i > r_j, t_i + t_j iff r_i + r_j > 2n+3, and 2t_i iff
    the i-th value is barred.  The unused letters alone contribute
    nothing: they ascend, no two ranks sum past 2n+1, and none is barred.
    The pair (a, b) contributes [r(a) > r(b)] + [r(a) + r(b) > 2n+3].
    A value x with letter k = |x|, the other value having letter k', meets
    each unused letter u once:

    * x unbarred, r(x) = k: t_x - t_u counts for the k - 1 - [k' < k]
      unused letters below k; t_x + t_u never does (k + u <= 2n+2).
    * x barred, r(x) = 2n+3-k > n+1: t_x - t_u counts for all n - 1 unused
      letters, t_x + t_u for the n + 1 - k - [k' > k] unused letters
      above k, and 2t_x once; together 2n + 1 - k - [k' > k].

    The tests check this against the root count itself.
    """
    n = w.n
    ra, rb = letter_rank(w.a, n), letter_rank(w.b, n)
    return (
        _unused_inversions(w.a, w.b, n)
        + _unused_inversions(w.b, w.a, n)
        + (ra > rb)
        + (ra + rb > 2 * n + 3)
    )


def reflect(w: FlagLabel, root: Root) -> FlagLabel | None:
    """The coset of (minimal representative of w) times the reflection.

    Returns None when the resulting coset leaves the odd index set (its
    label would contain -1).  The coset always changes: every root
    outside the parabolic subsystem moves a letter of (a|b).  Raises
    ``DomainError`` for a root inside the parabolic subsystem or beyond
    the rank; the letters themselves are reflected by
    ``_reflect_letters``.
    """
    if root.i > 2:
        raise DomainError(f"root {root} lies in the parabolic subsystem")
    if root.j is not None and root.j > w.n + 1:
        raise DomainError(f"root {root} exceeds rank {w.n}")
    new = _reflect_letters(w.a, w.b, root)
    return None if new is None else FlagLabel(new[0], new[1], w.n)


def _reflect_letters(a: int, b: int, root: Root) -> tuple[int, int] | None:
    """The letters of (a|b) reflected by a moment root, None if -1 appears.

    2t_i bars the i-th letter, t1 - t2 swaps the two and t1 + t2 swaps and
    bars them.  A root t_i -+ t_j with j >= 3 puts in place of the i-th
    letter the j-th value of the minimal representative, the (j-2)-th
    unused letter, barred for t_i + t_j.  That letter is found by counting
    up past the used letters |a| and |b|, lower one first.  The root is
    taken to be a moment root within the rank, as ``reflect`` checks.
    """
    if root.kind == "long":
        new = (-a, b) if root.i == 1 else (a, -b)
    elif root.j == 2:  # i == 1
        new = (b, a) if root.kind == "diff" else (-b, -a)
    else:
        h, ka, kb = root.j - 2, abs(a), abs(b)  # type: ignore[operator]
        lo, hi = (ka, kb) if ka < kb else (kb, ka)
        h += lo <= h
        h += hi <= h
        if root.kind == "sum":
            h = -h
        new = (h, b) if root.i == 1 else (a, h)
    return None if -1 in new else new


@functools.lru_cache(maxsize=None)
def bruhat_leq(u: FlagLabel, v: FlagLabel) -> bool:
    """Bruhat order on labels, in closed form.

    With r the alphabet rank (``letter_rank``),

        u <= v  iff  r(a_u) <= r(a_v),
                     min(r(a_u), r(b_u)) <= min(r(a_v), r(b_v)) and
                     max(r(a_u), r(b_u)) <= max(r(a_v), r(b_v)),

    i.e. iff ``_bruhat_key(u)`` lies entrywise below ``_bruhat_key(v)``.

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
    ku, kv = _bruhat_key(u), _bruhat_key(v)
    return ku[0] <= kv[0] and ku[1] <= kv[1] and ku[2] <= kv[2]


def _bruhat_key(w: FlagLabel) -> tuple[int, int, int]:
    """(r(a), min, max) of the ranks of (a|b); Bruhat order compares it entrywise."""
    ra, rb = letter_rank(w.a, w.n), letter_rank(w.b, w.n)
    return (ra, ra, rb) if ra < rb else (ra, rb, ra)


def enumerate_labels(n: int) -> tuple[FlagLabel, ...]:
    """All 4n^2 odd labels of rank n, sorted by (length, rank a, rank b)."""
    return _checked(n).labels


def bruhat_masks(n: int) -> tuple[Mapping, tuple[int, ...], tuple[int, ...], Mapping]:
    """Bruhat order of rank n as bitmasks over ``enumerate_labels(n)``.

    Returns read-only ``(index, below, covered, level)``: ``index`` maps
    each label to its position, bit j of ``below[i]`` is set iff label
    j <= label i, ``covered[i]`` holds the labels that label i covers, and
    ``level[l]`` holds the labels of length l.  Built once per rank from
    prefix ORs over the key ranks, with no ``bruhat_leq`` call
    (``_Rank.masks``, module docstring).
    """
    return _checked(n).masks


class _Rank:
    """Every per-rank table of rank n, each built on first read and kept here.

    ``labels``, ``by_letters`` and ``masks`` are ``_Once`` attributes.
    The memos are plain dicts, filled as queries come: ``parsed``, that of
    ``parse_label``, and ``lattices``, that of ``lattice.build_cn_lattice``
    keyed on the letters a, then b, hold at most one entry per label, and
    ``graphs`` holds ``qbg.build_qbg``'s graph of each rule.  A memo hit
    reads an attribute that the interpreter can specialise, which it
    cannot for a descriptor.  ``lattices`` starts with one empty dict per
    first letter, so making the object checks the rank.  Higher modules
    attach their own tables as ``_Once`` attributes of the class; the
    search and the closed form each read only their own tables, beside
    the labels and the masks.  ``_rank`` keeps the rank objects, so
    evicting one drops its labels and every table that holds them
    together.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.parsed: dict = {}  # str(w) -> the table's w
        self.lattices: dict = {a: {} for a in odd_letters(n)}  # [a][b] -> lattice of (a|b)
        self.graphs: dict = {}  # strict -> the quantum Bruhat graph

    @_Once
    def labels(self) -> tuple[FlagLabel, ...]:
        """The labels of ``enumerate_labels``, one object each."""
        n, letters = self.n, odd_letters(self.n)
        out = [FlagLabel(a, b, n) for a in letters for b in letters if abs(a) != abs(b)]
        return tuple(sorted(out, key=lambda w: w.sort_key))

    @_Once
    def by_letters(self) -> Mapping[tuple[int, int], FlagLabel]:
        """Each label of ``labels`` under its letters ``(a, b)``, read-only."""
        return MappingProxyType({(w.a, w.b): w for w in self.labels})

    @_Once
    def masks(self) -> tuple[Mapping, tuple[int, ...], tuple[int, ...], Mapping]:
        """``bruhat_masks(n)``, built from prefix ORs over the key ranks."""
        keys = [_bruhat_key(w) for w in self.labels]
        lengths = [w._length for w in self.labels]  # computed by the sort
        at = [[0] * (2 * self.n + 3) for _ in range(3)]  # at[t][r]: key entry t is r
        level: dict[int, int] = {}
        for i, key in enumerate(keys):
            for t, r in enumerate(key):
                at[t][r] |= 1 << i
            level[lengths[i]] = level.get(lengths[i], 0) | 1 << i
        le = [list(itertools.accumulate(row, operator.or_)) for row in at]
        below = tuple(le[0][x] & le[1][y] & le[2][z] for x, y, z in keys)
        covered = tuple(b & level.get(lw - 1, 0) for b, lw in zip(below, lengths))
        index = {w: i for i, w in enumerate(self.labels)}
        return MappingProxyType(index), below, covered, MappingProxyType(level)


# The rank store: _rank(n) is the rank object of n, one of the last two
# asked.  Two, not one: run_suite works rank by rank, so it holds about one
# rank at a time, and code that alternates between two ranks (a caller
# comparing ranks n and n + 1) runs without rebuilding either.  A caller
# with no label in hand checks the rank first (_checked): as keys, 2.0
# equals 2, so the store alone would serve rank 2 to it.
_rank = functools.lru_cache(maxsize=2)(_Rank)


def _checked(n: int) -> _Rank:
    """The rank object of n, after ``_check_rank``."""
    _check_rank(n)
    return _rank(n)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def down_set(w: FlagLabel) -> tuple[FlagLabel, ...]:
    """All labels u with u <= w, including w itself."""
    index, below, _covered, _level = bruhat_masks(w.n)
    labels = enumerate_labels(w.n)
    return tuple(labels[i] for i in _bits(below[index[w]]))


def covers(v: FlagLabel) -> tuple[FlagLabel, ...]:
    """Labels covered by v: all u <= v with length(u) = length(v) - 1."""
    index, _below, covered, _level = bruhat_masks(v.n)
    labels = enumerate_labels(v.n)
    return tuple(labels[i] for i in _bits(covered[index[v]]))
