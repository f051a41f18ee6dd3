"""Brute-force oracles shared by the test modules.

Everything here recomputes structures from first principles, independently
of the package's production code paths, so that agreement is meaningful.
The hyperoctahedral group (``SignedPermutation`` and its enumerators)
lives only here: the package computes length, reflection and Bruhat
order in closed form on the labels (a|b), and these oracles check them.
Letters are signed ints as in the package, negative meaning barred; they
are compared in alphabet order through ``letter_rank``, never with ``<``.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Iterator

from oddflag.errors import DomainError, _Frozen
from oddflag.lattice import _order
from oddflag.moment import Degree, MomentEdge, MomentGraph, build_moment_graph
from oddflag.neighborhoods import SchubertUnion, gamma_closed_form, maximal_union
from oddflag.weyl import (
    FlagLabel,
    Root,
    _bits,
    bruhat_leq,
    bruhat_masks,
    enumerate_labels,
    length,
    letter_rank,
)


@dataclass(frozen=True)
class SignedPermutation:
    """One-line notation on positions 1..n+1.

    Only the window is stored; the bar symmetry w(-i) = -w(i) is implied.
    The underlying letters must be a permutation of 1..n+1.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        letters = sorted(abs(v) for v in self.values)
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
        ranks = [letter_rank(v, n) for v in self.values]
        mid = 2 * n + 3
        inv = 0
        big = 0
        for i, j in itertools.combinations(range(n + 1), 2):
            if ranks[i] > ranks[j]:
                inv += 1
            if ranks[i] + ranks[j] > mid:
                big += 1
        return inv + big + sum(v < 0 for v in self.values)

    def apply_reflection(self, root: Root) -> SignedPermutation:
        """Right multiplication by the reflection of ``root``."""
        vals = list(self.values)
        i = root.i - 1
        if root.kind == "long":
            vals[i] = -vals[i]
        else:
            j = root.j - 1  # type: ignore[operator]
            if root.kind == "diff":
                vals[i], vals[j] = vals[j], vals[i]
            else:
                vals[i], vals[j] = -vals[j], -vals[i]
        return SignedPermutation(tuple(vals))

    def first_two(self) -> tuple[int, int]:
        return self.values[0], self.values[1]


def minimal_representative(w: FlagLabel) -> SignedPermutation:
    """The shortest coset member: a, b, then the rest unbarred increasing."""
    used = {abs(w.a), abs(w.b)}
    trailing = tuple(k for k in range(1, w.n + 2) if k not in used)
    return SignedPermutation((w.a, w.b) + trailing)


def all_positive_roots(n: int) -> tuple[Root, ...]:
    """All (n+1)^2 positive roots of the rank-(n+1) type C system."""
    roots: list[Root] = []
    for i in range(1, n + 2):
        roots.append(Root("long", i))
        for j in range(i + 1, n + 2):
            roots.append(Root("diff", i, j))
            roots.append(Root("sum", i, j))
    return tuple(roots)


def all_signed_permutations(n: int) -> Iterator[SignedPermutation]:
    """The full hyperoctahedral group of rank n+1, 2^(n+1) (n+1)! elements."""
    for perm in itertools.permutations(range(1, n + 2)):
        for bars in itertools.product((False, True), repeat=n + 1):
            yield SignedPermutation(
                tuple(-k if m else k for k, m in zip(perm, bars))
            )


def closure_oracle(n):
    """Bruhat order on the full group as a reflection-cover closure.

    Covers are u -> u*s for every reflection s raising the length by
    exactly one; the order is the transitive closure.  Returns a
    predicate on pairs of SignedPermutations.
    """
    perms = list(all_signed_permutations(n))
    idx = {p: i for i, p in enumerate(perms)}
    lens = [p.coxeter_length() for p in perms]
    roots = all_positive_roots(n)
    succ: list[list[int]] = [[] for _ in perms]
    for p in perms:
        i = idx[p]
        for r in roots:
            j = idx[p.apply_reflection(r)]
            if lens[j] == lens[i] + 1:
                succ[i].append(j)
    reach: list[set[int] | None] = [None] * len(perms)
    for i in sorted(range(len(perms)), key=lambda k: -lens[k]):
        acc = {i}
        stack = list(succ[i])
        while stack:
            j = stack.pop()
            if reach[j] is not None:
                acc |= reach[j]  # type: ignore[arg-type]
            elif j not in acc:
                acc.add(j)
                stack.extend(succ[j])
        reach[i] = acc

    def leq(u: SignedPermutation, v: SignedPermutation) -> bool:
        return idx[v] in reach[idx[u]]  # type: ignore[operator]

    return leq


def doubled_word(p):
    """Image of a signed permutation in the symmetric group on 2n+2 ranks.

    The window's alphabet ranks, followed by their mirror images
    2n+3 - r in reverse order.
    """
    n = p.n
    ranks = [letter_rank(v, n) for v in p.values]
    return tuple(ranks + [2 * n + 3 - r for r in reversed(ranks)])


def prefix_dominates(uw, vw):
    """Sorted-prefix test: every sorted u-prefix is entrywise <= the v-prefix."""
    us: list[int] = []
    vs: list[int] = []
    for x, y in zip(uw, vw):
        insort(us, x)
        insort(vs, y)
        if any(p > q for p, q in zip(us, vs)):
            return False
    return True


def doubled_word_oracle(labels):
    """Bruhat order on labels by the symmetric-group prefix criterion.

    Every label's minimal representative is doubled once; a pair is
    compared on all 2n+2 sorted prefixes, with no use of descents or of
    the central symmetry.  Returns a predicate on pairs of labels.
    """
    words = {w: doubled_word(minimal_representative(w)) for w in labels}

    def leq(u, v):
        return prefix_dominates(words[u], words[v])

    return leq


def brute_cosets(n):
    """Group the full group by the first two one-line values."""
    groups: dict[tuple, list[SignedPermutation]] = defaultdict(list)
    for p in all_signed_permutations(n):
        groups[(p.values[0], p.values[1])].append(p)
    return groups


def even_moment_edges(n):
    """Moment-graph edges of the even (unrestricted) label set.

    Built by full signed-permutation arithmetic: fill the minimal
    representative, multiply by each non-parabolic reflection, and read
    the new coset off the first two values.  Returns frozensets
    {(a, b), (a', b')} paired with the root, without any odd filtering.
    """
    from oddflag.weyl import alphabet, moment_roots

    edges = set()
    letters = alphabet(n)
    for a in letters:
        for b in letters:
            if abs(a) == abs(b):
                continue
            used = {abs(a), abs(b)}
            trailing = tuple(k for k in range(1, n + 2) if k not in used)
            rep = SignedPermutation((a, b) + trailing)
            for root in moment_roots(n):
                product = rep.apply_reflection(root)
                target = product.first_two()
                if target != (a, b):
                    edges.add((frozenset(((a, b), target)), root))
    return edges


def successors(g):
    """The targets of each vertex's edges in a quantum graph, each target once.

    No built graph has two edges u -> v, so none is dropped: an edge's
    length change fixes its kind and degree (a classical edge loses one, a
    quantum edge of degree (1,0), (0,1) or (1,1) gains 1, 2n - 2 or 2n,
    distinct for n >= 2), and the build lists each cover and each quantum
    target of one degree once.
    """
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.u].append(e.v)
    return {v: tuple(xs) for v, xs in adj.items()}


def edge_counts(g):
    """The number of a quantum graph's edges of each kind, keyed like "(0,1)"."""
    return Counter("classical" if e.degree is None else str(e.degree) for e in g.edges)


def simple_cycle_lengths(succ, max_len):
    """Lengths of simple directed cycles up to max_len edges.

    Each cycle is found once, rooted at its index-minimal vertex.
    """
    verts = sorted(succ, key=str)
    index = {v: i for i, v in enumerate(verts)}
    lengths: set[int] = set()

    def dfs(start, v, depth, visited):
        for w in succ[v]:
            if w == start:
                lengths.add(depth + 1)
            elif index[w] > index[start] and w not in visited and depth + 1 < max_len:
                visited.add(w)
                dfs(start, w, depth + 1, visited)
                visited.remove(w)

    for s in verts:
        dfs(s, s, 0, {s})
    return lengths


def strongly_connected_oracle(vertices, pairs):
    """Strong connectivity of the digraph on vertices with edges pairs (u, v).

    Takes the transitive closure as one reach bitmask per vertex
    (Warshall's order: a path through k joins once k's row is final), so
    it shares no code with a breadth-first search.
    """
    pos = {v: i for i, v in enumerate(vertices)}
    reach = [1 << i for i in range(len(vertices))]
    for u, v in pairs:
        reach[pos[u]] |= 1 << pos[v]
    for k in range(len(reach)):
        for i, mask in enumerate(reach):
            if mask >> k & 1:
                reach[i] = mask | reach[k]
    full = (1 << len(vertices)) - 1
    return all(mask == full for mask in reach)


def oracle_min_coset_member(members):
    """The unique shortest member of a coset, asserting uniqueness."""
    lens = sorted(members, key=lambda p: p.coxeter_length())
    assert len(lens) == 1 or lens[0].coxeter_length() < lens[1].coxeter_length()
    return lens[0]


def moment_neighbors(
    g: MomentGraph,
) -> dict[FlagLabel, tuple[tuple[FlagLabel, Degree, Root], ...]]:
    """Each vertex's incident edges as (other end, degree, root), edge order."""
    adj: dict[FlagLabel, list[tuple[FlagLabel, Degree, Root]]] = {
        v: [] for v in g.vertices
    }
    for e in g.edges:
        adj[e.u].append((e.v, e.degree, e.root))
        adj[e.v].append((e.u, e.degree, e.root))
    return {v: tuple(xs) for v, xs in adj.items()}


def edge_masks(g: MomentGraph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Per-class neighbour masks read off ``g.edges``, aligned with ``g.vertices``.

    Only the classes that carry an edge appear, in increasing order.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    near: dict[tuple[int, int], list[int]] = {}
    for e in g.edges:
        masks = near.setdefault(e.degree.key, [0] * len(g.vertices))
        i, j = index[e.u], index[e.v]
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return {c: tuple(masks) for c, masks in sorted(near.items())}


def skipping_path(n: int) -> MomentGraph:
    """Every other rank-n label, joined in one path of (0,1) edges.

    A walk along it skips the labels between its stops, so the reached sets
    of a search on it are not Bruhat lower sets.
    """
    g = build_moment_graph(n)
    path = g.vertices[::2]
    root = g.edges[0].root
    edges = tuple(MomentEdge(u, v, Degree(0, 1), root) for u, v in zip(path, path[1:]))
    return MomentGraph(n, g.vertices, edges)


def reference_gamma_bfs(w, d, graph=None):
    """Curve neighborhood of X(w) by a fresh search on label objects.

    Independent of the package's integer-indexed search: states are
    (label, spent Degree), seeded at zero spend from a ``bruhat_leq`` scan
    of ``enumerate_labels`` (not from ``down_set`` or the Bruhat masks the
    package's search reads), and a state is pruned only when the same
    label was already reached with a componentwise-smaller spend.  It
    searches at exactly d, from scratch for every (w, d) cell, keeps
    nothing between calls and takes the maxima with ``maximal_union``.
    """
    g = build_moment_graph(w.n) if graph is None else graph
    neighbors = moment_neighbors(g)
    spent = {}
    queue = deque()
    zero = Degree(0, 0)
    for u in enumerate_labels(w.n):
        if bruhat_leq(u, w):
            spent[u] = [zero]
            queue.append((u, zero))
    while queue:
        v, used = queue.popleft()
        for x, edeg, _root in neighbors[v]:
            nxt = used + edeg
            if not nxt <= d:
                continue
            pareto = spent.setdefault(x, [])
            if any(old <= nxt for old in pareto):
                continue
            pareto[:] = [old for old in pareto if not nxt <= old]
            pareto.append(nxt)
            queue.append((x, nxt))
    return maximal_union(spent.keys())


class BitExpandingSearch:
    """The degree-graded recursion of ``oddflag.neighborhoods``, run on bits.

    ``reached(w, d1, d2)`` fills R[e] = below[w] | OR over classes c <= e of
    N_c(R[e - c]) by expanding every set bit of every earlier cell, and
    cuts huge degrees off with the same window test as the package.  It
    assumes nothing about lower sets or maxima, so it checks the package's
    maxima recursion.  Cells depend only on the base and e, so one grid per
    base serves every degree.  Returns the reached set as a bitmask over
    ``g.vertices`` and its maxima, read off it bit by bit, highest first.
    """

    def __init__(self, g):
        index, self.below, _covered, _level = bruhat_masks(g.n)
        self.above = [0] * len(g.vertices)  # upper sets: below, transposed
        for j, lower in enumerate(self.below):
            for i in _bits(lower):
                self.above[i] |= 1 << j
        steps = {}
        for e in g.edges:
            masks = steps.setdefault(e.degree.key, [0] * len(g.vertices))
            i, j = index[e.u], index[e.v]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.steps = sorted(steps.items())
        self.reach = tuple(max(c[k] for c, _masks in self.steps) for k in (0, 1))
        self.grids = defaultdict(dict)

    def reached(self, w, d1, d2):
        m1, m2 = self.reach
        k1, k2 = min(d1, m1), min(d2, m2)
        grid = self.grids[w]
        while True:
            t1, t2 = min(d1, k1 + m1), min(d2, k2 + m2)
            for e1 in range(t1 + 1):
                for e2 in range(t2 + 1):
                    if (e1, e2) not in grid:
                        grid[e1, e2] = self._cell(grid, w, e1, e2)
            window = itertools.product(range(t1 + 1), range(t2 + 1))
            if all(grid[e] == grid[min(e[0], k1), min(e[1], k2)] for e in window):
                break
            k1, k2 = t1, t2
        reached = grid[k1, k2]
        maxima = [x for x in _bits(reached) if self.above[x] & reached == 1 << x]
        return reached, tuple(reversed(maxima))

    def _cell(self, grid, w, e1, e2):
        reached = self.below[w]
        for (c1, c2), masks in self.steps:
            if c1 <= e1 and c2 <= e2:
                for x in _bits(grid[e1 - c1, e2 - c2]):
                    reached |= masks[x]
        return reached


def union_leq_oracle(lhs, rhs):
    """Containment of two unions by pairwise ``bruhat_leq``, independent of the masks.

    Every component of lhs lies below some component of rhs.  The package's
    ``union_leq`` and the lattice order read lower-set masks instead.
    """
    return all(any(bruhat_leq(u, v) for v in rhs) for u in lhs)


def closed_form_oracle(w, d):
    """The closed form, dispatched rule by rule on every call, on fresh labels.

    The rule table of ``gamma_closed_form``'s docstring, evaluated per
    (label, degree): normalise d to (min(d1,1), min(d2,2)), then pick the
    regime's rule.  The package writes the rules once per rank, in one pass
    that builds every label's row (``neighborhoods._closed_form_rows``), and
    a call reads one row; this oracle reads no row and no label table.
    """
    n, a, b = w.n, w.a, w.b

    def x(*letters):
        return FlagLabel(*letters, n)

    later = a if letter_rank(a, n) > letter_rank(b, n) else b
    reg = (min(d.d1, 1), min(d.d2, 2))
    if reg == (0, 0):
        comps = [x(a, b)]
    elif reg == (1, 0):
        comps = [x(a, b) if later == a else x(b, a)]
    elif reg[0] == 0:  # (0, d2 >= 1)
        comps = [x(2, -3), x(1, -2)] if a == 2 else [x(a, -3 if a == -2 else -2)]
    elif reg == (1, 1):
        if {a, b} == {1, 2}:
            comps = [x(-3, 2), x(-2, 1)]
        elif -2 in (a, b):
            comps = [x(-2, -3)]
        else:
            comps = [x(-2, later)]
    else:  # (d1 >= 1, d2 >= 2)
        comps = [x(-2, -3)]
    return SchubertUnion(tuple(comps))


def degree_join(d, e):
    """The componentwise maximum of two degrees."""
    return Degree(max(d.d1, e.d1), max(d.d2, e.d2))


def _poset(order):
    """The shared record of an order matrix of truth values, after checking the axioms.

    The matrix must be square, and the order reflexive (bit i in up[i]),
    antisymmetric (up[i] & down[i] is {i}) and transitive (up[j] inside
    up[i] for every j in up[i]); list rows are accepted.  The record is the
    one ``lattice._order`` keeps for the up-set rows, which checks none of
    this, since a ``CNLattice`` derives its rows from an inclusion order.
    """
    size = len(order)
    if any(len(row) != size for row in order):
        raise DomainError("order matrix must be square")
    up = tuple(sum(1 << j for j, leq in enumerate(row) if leq) for row in order)
    down = [0] * size
    for i, row in enumerate(up):
        if not row >> i & 1:
            raise DomainError("order must be reflexive")
        for j in _bits(row):
            down[j] |= 1 << i
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
    return _order(up)


class FinitePoset(_Frozen):
    """A finite poset given by its full order matrix; order[i][j] iff i <= j.

    ``_poset`` checks the axioms; the order is stored as the record's
    tuple (list rows are accepted), and the record is kept as ``_record``,
    outside equality, hash and repr, which is all the library's lattice
    checks read.  So they take these as they take lattices.
    """

    __match_args__ = ("order",)

    def __init__(self, order):
        record = _poset(order)
        object.__setattr__(self, "order", record.order)
        object.__setattr__(self, "_record", record)


def poset_from_covers(size, cover_pairs):
    """Reflexive-transitive closure of a cover relation (i covered by j)."""
    leq = [[i == j for j in range(size)] for i in range(size)]
    for i, j in cover_pairs:
        leq[i][j] = True
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                row_k = leq[k]
                row_i = leq[i]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    return FinitePoset(tuple(tuple(row) for row in leq))


def m3_poset():
    """Bottom, three pairwise incomparable atoms, top."""
    return poset_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5_poset():
    """The pentagon: 0 < c < a < 1 and 0 < b < 1 with b off the chain."""
    return poset_from_covers(5, [(0, 2), (2, 3), (3, 4), (0, 1), (1, 4)])


def bound_tables_oracle(order):
    """Join and meet tables of an order matrix by list scans, None where missing.

    For every pair it lists the upper (lower) bounds and keeps those below
    (above) all the others; a pair gets a join (meet) only when exactly one
    such bound exists.
    """
    size = len(order)
    join = [[None] * size for _ in range(size)]
    meet = [[None] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            ubs = [k for k in range(size) if order[a][k] and order[b][k]]
            least = [k for k in ubs if all(order[k][m] for m in ubs)]
            if len(least) == 1:
                join[a][b] = least[0]
            lbs = [k for k in range(size) if order[k][a] and order[k][b]]
            greatest = [k for k in lbs if all(order[m][k] for m in lbs)]
            if len(greatest) == 1:
                meet[a][b] = greatest[0]
    return join, meet


def hasse_edges_oracle(order):
    """Cover pairs (i, j) of an order matrix by a scan over every k.

    j covers i iff i < j and no third element k has i <= k <= j.
    """
    size = len(order)
    out = []
    for i, j in itertools.permutations(range(size), 2):
        if not order[i][j]:
            continue
        if any(k not in (i, j) and order[i][k] and order[k][j] for k in range(size)):
            continue
        out.append((i, j))
    return tuple(sorted(out))


def reference_qbg_oracle():
    """The rank-2 quantum Bruhat graph rebuilt from the shipped references.

    Reads only the classical edges of ``qbg_n2.json`` (the Hasse diagram
    of the reference figure) and the edges of ``moment_graph_n2.json``.
    Bruhat order is the reflexive-transitive closure of the classical
    edges and lengths are their grading.  For every degree d whose gain
    2*d1 + (2n-1)*d2 - 1 fits under the top length, Gamma_d(X(u)) is the
    down-closure of every label reached from the lower set of u by a
    walk in the moment graph whose degrees add up to at most d,
    componentwise.  The documented edge rule then gives a quantum edge
    u -> v of degree d exactly when l(v) - l(u) is the gain and v lies in
    Gamma_d(X(u)), i.e. below some component.

    Returns edge keys (u, v, degree tuple or None for classical edges),
    with labels as the strings the references use.
    """
    from oddflag.verify import load_golden

    figure = load_golden("qbg_n2.json")
    moment = load_golden("moment_graph_n2.json")
    n = figure["n"]
    assert moment["n"] == n
    classical = [(e["u"], e["v"]) for e in figure["edges"] if e["kind"] == "classical"]
    labels = {x for edge in classical for x in edge}
    lower_covers: dict[str, list[str]] = {x: [] for x in labels}
    for u, v in classical:
        lower_covers[u].append(v)

    lens: dict[str, int] = {}

    def grade(x: str) -> int:
        if x not in lens:
            below = {grade(y) + 1 for y in lower_covers[x]} or {0}
            assert len(below) == 1, f"the figure is not graded at {x}"
            lens[x] = below.pop()
        return lens[x]

    down: dict[str, set[str]] = {}

    def lower_set(x: str) -> set[str]:
        if x not in down:
            acc = {x}
            for y in lower_covers[x]:
                acc |= lower_set(y)
            down[x] = acc
        return down[x]

    moment_nbrs: dict[str, list[tuple[str, tuple[int, int]]]] = {x: [] for x in labels}
    for e in moment["edges"]:
        deg = tuple(e["deg"])
        moment_nbrs[e["u"]].append((e["v"], deg))
        moment_nbrs[e["v"]].append((e["u"], deg))
    assert set(moment_nbrs) == labels, "the two references disagree on the labels"

    def neighborhood(u: str, d: tuple[int, int]) -> set[str]:
        start = {(x, (0, 0)) for x in lower_set(u)}
        seen = set(start)
        queue = deque(start)
        while queue:
            x, (s1, s2) = queue.popleft()
            for y, (e1, e2) in moment_nbrs[x]:
                state = (y, (s1 + e1, s2 + e2))
                if s1 + e1 <= d[0] and s2 + e2 <= d[1] and state not in seen:
                    seen.add(state)
                    queue.append(state)
        reached: set[str] = set()
        for x, _ in seen:
            reached |= lower_set(x)
        return reached

    top = max(labels, key=grade)
    edges = {(u, v, None) for u, v in classical}
    for d in itertools.product(range(grade(top) + 1), repeat=2):
        gain = 2 * d[0] + (2 * n - 1) * d[1] - 1
        if d == (0, 0) or gain > grade(top):
            continue
        for u in labels:
            nbhd = neighborhood(u, d)
            edges |= {(u, v, d) for v in nbhd if grade(v) == grade(u) + gain}
    return edges


def uncut_qbg_edges(n, strict):
    """The quantum Bruhat graph's edges, testing every target.

    Each target v of length l(u) + gain is compared, through
    ``bruhat_leq``, with every component of Gamma_d(X(u)), at every
    degree.  Classical edges come first, then quantum edges by degree,
    each in label order.  Returns triples (u, v, degree or None).  It
    shares the closed form and the Bruhat order with the package, so it
    checks the build's masks and degree bound and nothing else.
    """
    vertices = enumerate_labels(n)
    by_length = defaultdict(list)
    for v in vertices:
        by_length[length(v)].append(v)
    lmax = max(by_length)
    edges = [
        (u, v, None)
        for u in vertices
        for v in by_length[length(u) - 1]
        if bruhat_leq(v, u)
    ]
    for d1 in range(lmax + 1):
        for d2 in range(lmax + 1):
            gain = 2 * d1 + (2 * n - 1) * d2 - 1
            if (d1, d2) == (0, 0) or gain > lmax:
                continue
            d = Degree(d1, d2)
            for u in vertices:
                targets = by_length[length(u) + gain]
                if not targets:
                    continue
                comps = gamma_closed_form(u, d).components
                for v in targets:
                    if strict:
                        ok = v in comps
                    else:
                        ok = any(bruhat_leq(v, c) for c in comps)
                    if ok:
                        edges.append((u, v, d))
    return edges
