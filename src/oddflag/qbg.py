"""Combinatorial quantum Bruhat graph and the Property O verdict.

The graph has one vertex per odd label.  Classical edges step down one
Bruhat cover.  A quantum edge u -> v of degree d requires the exact length
gain 2*d1 + (2n-1)*d2 - 1 together with v lying below some component of
the degree-d curve neighborhood of X(u); a strict mode instead requires v
to BE a component.  Property O asks for strong connectivity and for the
cycle-length gcd to equal the Fano index gcd(2, 2n-1) = 1.  This module
only computes; the ``qbg`` subcommand of ``cli`` writes the graph and the
verdict as JSON, DOT or a table.

Both kinds of edge are read off the masks of ``weyl.bruhat_masks``: the
classical targets of u are covered[u], and its quantum targets in degree
d are level[l(u) + gain] & reach, where reach is the lower-set mask
that the union Gamma_d(X(u)) keeps (the OR of below[c] over its
components c), or only the bits of the components themselves under the
strict rule.

Only the degrees (1,0), (0,1) and (1,1) carry quantum edges.  An edge of
degree d from u needs a component c of Gamma_d(X(u)) with a rise
l(c) - l(u) >= gain(d) = 2*d1 + (2n-1)*d2 - 1.  The closed-form table
(Gamma_d = Gamma_pi(d), pi(d) = (min(d1,1), min(d2,2))) bounds the rise,
with l(a|b) = r(a) + r(b) - 2 - [r(b) > r(a)] - [r(b) > r(-a)]: the
letters before a plus those before b other than +-a, r the alphabet
rank (this is ``weyl.length``; the tests check it).  For u = (a|b):

* d2 = 0: c = (a|b) or (b|a), a rise of at most 1 < 2*d1 - 1 for d1 >= 2.
* d1 = 0: c = (a|c2) with c2 in {-2, -3} rises by the number of letters
  other than +-a ranked in (r(b), r(c2)], at most 2n - 1 (at most 2n of
  them rank below -1, b among them); c = (1|-2) for a = 2 rises by
  2n - 1 - l(u) < 2n - 1.  Both stay below 4n - 3 <= gain(0, d2 >= 2).
* d1 >= 1, d2 = 1: c = (-3|2) or (-2|1) has length 2n; the top, of length
  4n - 2, needs -2 in u, so l(u) >= 2n - 2; c = (-2|m), m the later
  letter of u with 3 <= r(m) <= 2n, has length 2n - 2 + r(m) and
  l(u) >= r(m) - 3.  The rise is at most 2n + 1 < 2*d1 + 2n - 2 for d1 >= 2.
* d1 >= 1, d2 >= 2: the gain, at least 4n - 1, exceeds l(top) = 4n - 2.

The gain is the anticanonical degree minus one.  The test oracle
``uncut_qbg_edges`` (tests/helpers.py) still tries every degree.

Property O takes one forward and one backward breadth-first search
(``_depths``) from one vertex r, over the adjacency written as label
indices, which the cached build keeps beside the graph, so a verdict
hashes no label.  The graph is strongly connected iff both reach every
vertex.  Its period p, the gcd of its closed walks' lengths, is then the
gcd g over edges u -> v of depth(u) + 1 - depth(v), with the forward depths.
With a path v -> r of length m, the walks r -> u -> v -> r and r -> v -> r
are closed, of lengths depth(u) + 1 + m and depth(v) + m, so p divides
their difference, the edge's term.  The terms of a closed walk's edges
sum to its length, since the depths telescope away, so g divides it.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import deque
from collections.abc import Hashable, Iterator, Mapping, Sequence

from .errors import DomainError, VerificationError, _Frozen
from .moment import Degree, moment_masks
from .neighborhoods import gamma_closed_form
from .weyl import FlagLabel, _bits, _check_rank, _checked, bruhat_masks, enumerate_labels, label
from .weyl import bruhat_leq  # noqa: F401  perfbench/selftest.py checks qbg's alias

__all__ = [
    "ChernData",
    "chern_data",
    "QBGEdge",
    "QBGraph",
    "build_qbg",
    "strongly_connected",
    "digraph_period",
    "witness_cycles",
    "PropertyOVerdict",
    "property_o_verdict",
    "moment_discrepancies",
]

class ChernData(_Frozen):
    """Divisor-class coefficients of the anticanonical class and Fano index."""

    n: int
    a1: int
    a2: int
    div1: FlagLabel
    div2: FlagLabel
    fano_index: int
    __slots__ = __match_args__ = ("n", "a1", "a2", "div1", "div2", "fano_index")


def chern_data(n: int) -> ChernData:
    """Coefficients (2, 2n-1) on the two divisor classes; index gcd = 1."""
    _check_rank(n)
    div2 = label(-2, 3, n) if n == 2 else label(-2, -4, n)
    return ChernData(
        n=n,
        a1=2,
        a2=2 * n - 1,
        div1=label(-3, -2, n),
        div2=div2,
        fano_index=math.gcd(2, 2 * n - 1),
    )


class QBGEdge(_Frozen):
    """Directed edge; degree is None on classical (cover) edges."""

    u: FlagLabel
    v: FlagLabel
    degree: Degree | None
    __slots__ = __match_args__ = ("u", "v", "degree")

    @property
    def kind(self) -> str:
        return "classical" if self.degree is None else "quantum"


class QBGraph(_Frozen):
    """The quantum Bruhat graph of rank n under one edge rule (``strict``).

    A built graph also keeps ``_targets``, its adjacency as label indices,
    outside equality, hashing and the repr (``_build_qbg``).
    """

    n: int
    strict: bool
    vertices: tuple[FlagLabel, ...]
    edges: tuple[QBGEdge, ...]
    __match_args__ = ("n", "strict", "vertices", "edges")


def _quantum_degrees(data: ChernData) -> Iterator[tuple[Degree, int]]:
    """The degrees with quantum edges (module docstring), in key order, and gains."""
    for d in (Degree(0, 1), Degree(1, 0), Degree(1, 1)):
        yield d, data.a1 * d.d1 + data.a2 * d.d2 - 1


def build_qbg(n: int, strict: bool = False) -> QBGraph:
    """The quantum Bruhat graph of rank n, built once per rank and rule.

    The rank object keeps the graphs in a memo on ``strict``
    (``weyl._Rank.graphs``), so ``build_qbg(n)`` and
    ``build_qbg(n, strict=False)`` share one graph.  A ``strict`` that is
    not a bool raises ``DomainError``, as a rank that is not an int does.
    """
    if type(strict) is not bool:
        raise DomainError(f"strict must be a bool, got {strict!r}")
    graphs = _checked(n).graphs
    return graphs.get(strict) or graphs.setdefault(strict, _build_qbg(n, strict))


def _build_qbg(n: int, strict: bool) -> QBGraph:
    """The graph, with its adjacency as label indices kept for the verdict.

    Built anew on every call; ``build_qbg`` keeps one per rank and rule.
    The graph's private ``_targets`` maps each vertex's index in
    ``enumerate_labels(n)`` to the indices of its edges' targets, in edge
    order; ``property_o_verdict`` searches it.  Each label's length was
    computed once, by the enumeration's sort.
    """
    vertices = enumerate_labels(n)
    index, _below, covered, level = bruhat_masks(n)
    targets: list[list[int]] = [list(_bits(c)) for c in covered]
    edges = [QBGEdge(u, vertices[j], None) for u, js in zip(vertices, targets) for j in js]
    for d, gain in _quantum_degrees(chern_data(n)):
        for i, u in enumerate(vertices):
            candidates = level.get(u._length + gain, 0)
            if not candidates:
                continue
            value = gamma_closed_form(u, d)
            if strict:
                reach = 0
                for c in value.components:
                    reach |= 1 << index[c]
            else:
                reach = value._lower
            js = list(_bits(candidates & reach))
            targets[i].extend(js)
            edges.extend(QBGEdge(u, vertices[j], d) for j in js)
    g = QBGraph(n, strict, vertices, tuple(edges))
    object.__setattr__(g, "_targets", {i: tuple(js) for i, js in enumerate(targets)})
    return g


def _depths(succ: Mapping[Hashable, Sequence[Hashable]], root: Hashable) -> dict[Hashable, int]:
    """Breadth-first depths from root of the vertices it reaches."""
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def _period(succ: Mapping[Hashable, Sequence[Hashable]]) -> int | None:
    """The gcd of the edges' depth terms, or None if not strongly connected.

    One forward and one backward search from the first key (module
    docstring).  Every successor must be a key.
    """
    verts = list(succ)
    if not verts:
        raise DomainError("empty graph")
    pred: dict[Hashable, list[Hashable]] = {v: [] for v in verts}
    try:
        for u in verts:
            for v in succ[u]:
                pred[v].append(u)
    except KeyError as exc:
        raise DomainError(f"successor {exc.args[0]} is not a vertex") from None
    depth = _depths(succ, verts[0])
    if len(depth) != len(verts) or len(_depths(pred, verts[0])) != len(verts):
        return None
    g = 0
    for u, vs in succ.items():
        rise = depth[u] + 1
        for v in vs:
            g = math.gcd(g, rise - depth[v])
    return g


def strongly_connected(succ: Mapping[Hashable, Sequence[Hashable]]) -> bool:
    """One component spans all keys: forward and backward searches do."""
    return _period(succ) is not None


def digraph_period(succ: Mapping[Hashable, Sequence[Hashable]]) -> int:
    """Gcd of the lengths of all closed walks of a strongly connected graph.

    Computed from breadth-first depths: every edge (u, v) contributes
    depth(u) + 1 - depth(v) to the gcd.
    """
    g = _period(succ)
    if g is None:
        raise DomainError("period is defined for strongly connected graphs")
    if g == 0:
        raise DomainError("graph has no closed walks")
    return g


def witness_cycles(n: int) -> tuple[tuple[FlagLabel, ...], ...]:
    """The explicit cycles of lengths 2 and 2n-1 through (1|2).

    The long cycle takes one quantum step (1|2) -> (1|-3) and then walks
    classical covers down the second column: -3, -4, ..., -(n+1), n+1,
    n, ..., 3, and back to 2.
    """
    _check_rank(n)
    short = (label(1, 2, n), label(2, 1, n), label(1, 2, n))
    column = [-k for k in range(3, n + 2)] + [k for k in range(n + 1, 1, -1)]
    long = tuple(label(1, b, n) for b in [2] + column)
    return (short, long)


class PropertyOVerdict(_Frozen):
    n: int
    strongly_connected: bool
    gcd: int | None
    fano_index: int
    holds: bool
    witness_cycles: tuple[tuple[FlagLabel, ...], ...]
    __slots__ = __match_args__ = (
        "n", "strongly_connected", "gcd", "fano_index", "holds", "witness_cycles"
    )


def property_o_verdict(n: int) -> PropertyOVerdict:
    """Check strong connectivity, the cycle gcd, and the witness cycles.

    A witness cycle edge missing from the graph is a verification
    failure, not a negative verdict.
    """
    data = chern_data(n)
    succ = build_qbg(n)._targets
    at = {(w.a, w.b): i for i, w in enumerate(enumerate_labels(n))}
    cycles = witness_cycles(n)
    for cycle in cycles:
        for u, v in zip(cycle, cycle[1:]):
            if at[v.a, v.b] not in succ[at[u.a, u.b]]:
                raise VerificationError(f"witness edge {u} -> {v} missing at n={n}")
    gcd = _period(succ)
    sc = gcd is not None
    return PropertyOVerdict(
        n=n,
        strongly_connected=sc,
        gcd=gcd,
        fano_index=data.fano_index,
        holds=sc and gcd == data.fano_index,
        witness_cycles=cycles,
    )


def moment_discrepancies(n: int) -> tuple[tuple[FlagLabel, FlagLabel, Degree], ...]:
    """Quantum edges whose endpoints no single moment-graph edge joins.

    Adjacency is one bit of the OR of the per-class neighbour masks of
    ``moment.moment_masks``.
    """
    g = build_qbg(n)
    index, _below, _covered, _level = bruhat_masks(n)
    joined = [functools.reduce(operator.or_, x) for x in zip(*moment_masks(n).values())]
    out = [
        (e.u, e.v, e.degree)
        for e in g.edges
        if e.degree is not None and not joined[index[e.u]] >> index[e.v] & 1
    ]
    out.sort(key=lambda t: (index[t[0]], index[t[1]], t[2].key))
    return tuple(out)
