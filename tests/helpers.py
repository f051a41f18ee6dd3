"""Brute-force oracles shared by the test modules.

Everything here recomputes structures from first principles, independently
of the package's production code paths, so that agreement is meaningful.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import defaultdict, deque

from oddflag.moment import Degree, build_moment_graph
from oddflag.neighborhoods import maximal_union
from oddflag.weyl import (
    SignedPermutation,
    all_positive_roots,
    all_signed_permutations,
    down_set,
    minimal_representative,
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
    ranks = [v.rank(n) for v in p.values]
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
    from oddflag.weyl import BarValue, alphabet, moment_roots

    edges = set()
    letters = alphabet(n)
    for a in letters:
        for b in letters:
            if a.letter == b.letter:
                continue
            used = {a.letter, b.letter}
            trailing = tuple(
                BarValue(k) for k in range(1, n + 2) if k not in used
            )
            rep = SignedPermutation((a, b) + trailing)
            for root in moment_roots(n):
                product = rep.apply_reflection(root)
                target = product.first_two()
                if target != (a, b):
                    edges.add((frozenset(((a, b), target)), root))
    return edges


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


def oracle_min_coset_member(members):
    """The unique shortest member of a coset, asserting uniqueness."""
    lens = sorted(members, key=lambda p: p.coxeter_length())
    assert len(lens) == 1 or lens[0].coxeter_length() < lens[1].coxeter_length()
    return lens[0]


def reference_gamma_bfs(w, d, graph=None):
    """Curve neighborhood of X(w) by a fresh search on label objects.

    Independent of the package's integer-indexed search: states are
    (label, spent Degree), seeded from ``down_set(w)`` at zero spend, and
    a state is pruned only when the same label was already reached with a
    componentwise-smaller spend.  It searches at exactly d, from scratch
    for every (w, d) cell, keeps nothing between calls and takes the
    maxima with ``maximal_union``.
    """
    g = build_moment_graph(w.n) if graph is None else graph
    spent = {}
    queue = deque()
    zero = Degree(0, 0)
    for u in down_set(w):
        spent[u] = [zero]
        queue.append((u, zero))
    while queue:
        v, used = queue.popleft()
        for x, edeg, _root in g.neighbors[v]:
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
