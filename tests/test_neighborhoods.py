import functools
import itertools
import random
import re
import sys
import threading

import pytest

from helpers import (
    BitExpandingSearch,
    closed_form_oracle,
    edge_masks,
    moment_neighbors,
    reference_gamma_bfs,
    skipping_path,
    union_leq_oracle,
)
from oddflag import moment, neighborhoods, qbg, weyl
from oddflag.errors import DomainError, VerificationError
from oddflag.moment import Degree, MomentEdge, MomentGraph, build_moment_graph
from oddflag.neighborhoods import (
    SchubertUnion,
    cross_check,
    degree_grid,
    gamma_bfs,
    gamma_closed_form,
    maximal_union,
    union_leq,
)
from oddflag.verify import load_golden
from oddflag.weyl import (
    FlagLabel,
    _bits,
    alphabet,
    down_set,
    enumerate_labels,
    label,
    length,
    parse_label,
    top_label,
)


def su(*labels):
    return SchubertUnion(tuple(labels))


def test_union_validation():
    with pytest.raises(DomainError):
        SchubertUnion(())
    with pytest.raises(DomainError):
        su(label(1, 2, 2), label(2, 1, 2))  # comparable
    with pytest.raises(DomainError):
        su(label(1, 2, 2), label(1, 2, 3))  # mixed rank
    # duplicates collapse, canonical order is by (length, rank a, rank b)
    u = su(label(-2, 1, 2), label(-3, 2, 2), label(-2, 1, 2))
    assert [str(c) for c in u] == ["-3|2", "-2|1"]


@pytest.mark.parametrize(
    "make", [list, lambda xs: (x for x in xs)], ids=["list", "generator"]
)
def test_unions_from_other_iterables(make):
    # One component skips every check, which cannot fail on one label, but
    # is still stored as a tuple; two or more keep every check.
    w = label(-2, 1, 3)
    got = SchubertUnion(make([w]))
    assert type(got.components) is tuple and got.components == (w,)
    assert got == su(w) and hash(got) == hash(su(w))
    with pytest.raises(DomainError, match="share one rank"):
        SchubertUnion(make([label(-3, 2, 2), label(-2, 1, 3)]))
    with pytest.raises(DomainError, match="comparable"):
        SchubertUnion(make([label(1, 2, 2), label(2, 1, 2)]))
    with pytest.raises(DomainError, match="comparable"):
        SchubertUnion(make([label(-3, 2, 2), label(-2, 1, 2), label(2, 1, 2)]))
    u = SchubertUnion(make([label(-2, 1, 2), label(-3, 2, 2), label(-2, 1, 2)]))
    assert u.components == (label(-3, 2, 2), label(-2, 1, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_closed_form_builds_no_label(monkeypatch, n):
    # Every component, the top and the base included, is the object that
    # enumerate_labels(n) holds, so no FlagLabel is constructed.
    labels = enumerate_labels(n)
    held = {id(w) for w in labels}
    copies = [label(w.a, w.b, n) for w in labels]  # equal, not the same objects
    built = []
    init = FlagLabel.__post_init__

    def spy(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(FlagLabel, "__post_init__", spy)
    for w in (*labels, *copies):
        for d in degree_grid(Degree(3, 3)):
            value = gamma_closed_form(w, d)
            assert all(id(c) in held for c in value), (w, d)
    assert built == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_closed_form_builds_no_single_component_union(monkeypatch, n):
    # One-component values come from the rank's rows, each label's own
    # union once, and so do the two two-component values, of (2|b) at
    # (0,1) and of (1|2), (2|1) at (1,1), so once the rows are built a call
    # builds no union at all.
    rows = weyl._rank(n)._closed_form_rows
    built = []
    init = SchubertUnion.__init__

    def spy(self, components):
        built.append(components)
        init(self, components)

    monkeypatch.setattr(SchubertUnion, "__init__", spy)
    pairs = 0
    for w in enumerate_labels(n):
        for d in degree_grid(Degree(3, 3)):
            value = gamma_closed_form(w, d)
            if len(value.components) == 1:
                (v,) = value
                assert value is rows[v.a][v.b][0]
            else:
                assert value is (rows[2][1][1] if d.d1 == 0 else rows[1][2][4]), (w, d)
                pairs += 1
    assert pairs > 0 and built == []


@pytest.mark.parametrize("n", range(2, 17))
def test_rows_match_the_closed_form_oracle(n):
    # Every label's row against the rule-by-rule oracle on the (4,4) grid,
    # past the stable regime (1,2) in both parts; each value is the row's
    # object at column 3*min(d1,1) + min(d2,2).
    rows = weyl._rank(n)._closed_form_rows
    assert sum(map(len, rows.values())) == 4 * n * n
    for w in enumerate_labels(n):
        row = rows[w.a][w.b]
        assert len(row) == 6 and row[1] is row[2]
        for d in degree_grid(Degree(4, 4)):
            value = gamma_closed_form(w, d)
            assert value is row[3 * min(d.d1, 1) + min(d.d2, 2)], (w, d)
            assert value == closed_form_oracle(w, d), (w, d)


@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_a_closed_form_call_reads_one_row(monkeypatch, n):
    # The rules are evaluated once per rank, while the rows are built; a
    # call on a built rank reads one row and never consults the alphabet
    # order, for the table's labels and for equal copies of them.
    labels = enumerate_labels(n)
    copies = [label(w.a, w.b, n) for w in labels]
    grid = degree_grid(Degree(3, 3))
    want = [gamma_closed_form(w, d) for w in labels for d in grid]

    def refuse(k, n):
        raise AssertionError("a closed-form call ranked a letter")

    monkeypatch.setattr(neighborhoods, "letter_rank", refuse)
    for ws in (labels, copies):
        got = [gamma_closed_form(w, d) for w in ws for d in grid]
        assert all(x is y for x, y in zip(got, want)) and len(got) == len(want)


def test_the_search_does_not_read_the_closed_form_table(monkeypatch):
    # The search and the closed form share no helper: the label table and
    # the rows of the closed form stay out of the index and the search, and the
    # moment graph's masks, which the search reads, stay out of the
    # closed form.
    def refuse(what):
        def fail(rank):
            raise AssertionError(f"read {what}")

        return property(fail)

    # Each table is read off a fresh rank object, where a refusal raises.
    with monkeypatch.context() as m:
        m.setattr(weyl._Rank, "by_letters", refuse("the closed form's label table"))
        m.setattr(weyl._Rank, "_closed_form_rows", refuse("the closed form's rows"))
        weyl._rank.cache_clear()
        for w in enumerate_labels(3):
            for d in degree_grid(Degree(2, 2)):
                assert gamma_bfs(w, d).n == 3
    monkeypatch.setattr(weyl._Rank, "_moment_masks", refuse("the search's moment masks"))
    monkeypatch.setattr(weyl._Rank, "_search_index", refuse("the search index"))
    weyl._rank.cache_clear()
    for w in enumerate_labels(3):
        for d in degree_grid(Degree(2, 2)):
            assert gamma_closed_form(w, d).n == 3


@pytest.mark.parametrize("bad", [1.5, True, "1"])
@pytest.mark.parametrize("route", [gamma_bfs, gamma_closed_form])
def test_letters_and_degree_parts_must_be_ints(route, bad):
    # A float letter would have a fractional length, a bool letter would
    # print as True yet equal the letter 1, and a float degree part would
    # let the closed form answer where the search cannot, so each is
    # refused before either route sees it.
    with pytest.raises(DomainError, match="letters are ints"):
        route(label(bad, 2, 3), Degree(0, 1))
    with pytest.raises(DomainError, match="letters are ints"):
        route(label(1, bad, 3), Degree(0, 1))
    with pytest.raises(DomainError, match="degrees are ints"):
        route(label(1, 2, 3), Degree(bad, 0))
    with pytest.raises(DomainError, match="degrees are ints"):
        route(label(1, 2, 3), Degree(0, bad))


def test_union_leq_examples():
    assert union_leq(su(label(1, 2, 2)), su(label(-2, -3, 2)))
    a = su(label(-3, 2, 2))
    b = su(label(-2, 1, 2))
    assert not union_leq(a, b) and not union_leq(b, a)
    assert union_leq(su(label(2, 1, 2)), su(label(-3, 2, 2), label(-2, 1, 2)))
    with pytest.raises(DomainError):
        union_leq(su(label(1, 2, 2)), su(label(1, 2, 3)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_union_leq_matches_the_pairwise_oracle(n):
    # union_leq reads lower-set masks, the rule the lattice order shares;
    # the oracle compares components pairwise with bruhat_leq.
    values = sorted(
        {gamma_closed_form(w, d) for w in enumerate_labels(n) for d in degree_grid(Degree(1, 2))},
        key=str,
    )
    assert sum(len(v.components) == 2 for v in values) == 2
    for x, y in itertools.permutations(values, 2):
        assert union_leq(x, y) == union_leq_oracle(x, y), (x, y)


def all_rows(n):
    """Every row of the closed form's table at rank n."""
    return [row for by_b in weyl._rank(n)._closed_form_rows.values() for row in by_b.values()]


def fresh_lower(value):
    """L(value) ORed anew from the rank's Bruhat lower sets."""
    index, below, _covered, _level = weyl.bruhat_masks(value.n)
    mask = 0
    for v in value.components:
        mask |= below[index[v]]
    return mask


@pytest.mark.parametrize("n", range(2, 17))
def test_every_row_value_keeps_its_lower_set_mask(n):
    for row in all_rows(n):
        for value in row:
            assert value._lower == fresh_lower(value), value


@pytest.mark.parametrize("n", range(2, 7))
def test_every_searched_value_keeps_its_lower_set_mask(n):
    for w in enumerate_labels(n):
        for d in degree_grid(Degree(2, 2)):
            value = gamma_bfs(w, d)
            assert value._lower == fresh_lower(value), (w, d)


def test_a_kept_mask_changes_no_equality_hash_or_repr():
    comps = (label(-3, 2, 2), label(-2, 1, 2))
    read, unread = SchubertUnion(comps), SchubertUnion(comps)
    assert read._lower == fresh_lower(read)
    assert "_lower" in vars(read) and "_lower" not in vars(unread)
    assert read == unread and unread == read
    assert hash(read) == hash(unread)
    assert repr(read) == repr(unread)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_every_row_value_keeps_its_text(n):
    # A closed-form value prints its text once; every later str() returns
    # the same string object.
    for row in all_rows(n):
        for value in row:
            text = str(value)
            assert str(value) is text
            assert text == ", ".join(str(c) for c in value.components)


def test_a_kept_text_changes_no_equality_hash_or_repr():
    comps = (label(-3, 2, 2), label(-2, 1, 2))
    read, unread = SchubertUnion(comps), SchubertUnion(comps)
    assert str(read) == "-3|2, -2|1"
    assert "_text" in vars(read) and "_text" not in vars(unread)
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread)
    assert str(SchubertUnion((label(1, -3, 2),))) == "1|-3"


def test_a_repeated_containment_reads_no_bruhat_table(monkeypatch):
    # The closed form hands back the same union objects, and each keeps its
    # mask, so a containment query asked before reads no per-rank table.
    grid = degree_grid(Degree(1, 2))
    queries = [(w, d, v, e) for w in enumerate_labels(4)[::9] for d in grid
               for v in enumerate_labels(4)[::7] for e in grid]
    want = [
        union_leq(gamma_closed_form(w, d), gamma_closed_form(v, e))
        for w, d, v, e in queries
    ]
    assert True in want and False in want

    def refuse(rank):
        raise AssertionError("a repeated containment read the Bruhat table")

    monkeypatch.setattr(weyl._Rank, "masks", property(refuse))
    got = [
        union_leq(gamma_closed_form(w, d), gamma_closed_form(v, e))
        for w, d, v, e in queries
    ]
    assert got == want


def test_maximal_union():
    got = maximal_union(down_set(label(-2, 1, 2)))
    assert got == su(label(-2, 1, 2))


def test_gamma_bfs_examples():
    assert gamma_bfs(label(1, 2, 2), Degree(1, 1)) == su(
        label(-3, 2, 2), label(-2, 1, 2)
    )
    assert gamma_bfs(label(1, 2, 2), Degree(0, 1)) == su(label(1, -2, 2))
    for w in enumerate_labels(2):
        assert gamma_bfs(w, Degree(0, 0)) == su(w)


def test_gamma_closed_form_examples():
    assert gamma_closed_form(label(1, 2, 2), Degree(1, 0)) == su(label(2, 1, 2))
    assert gamma_closed_form(label(-2, 1, 2), Degree(0, 5)) == su(label(-2, -3, 2))
    assert gamma_closed_form(label(1, 2, 2), Degree(1, 2)) == su(label(-2, -3, 2))
    assert gamma_closed_form(label(5, 2, 5), Degree(1, 1)) == su(label(-2, 5, 5))


def test_second_component_for_column_one_value_two():
    # The lower set of (2|b) contains (1|2), whose second column sweeps to
    # (1|-2); that label has the same length as (2|-3), so both survive.
    want = su(label(2, -3, 2), label(1, -2, 2))
    assert gamma_closed_form(label(2, 1, 2), Degree(0, 1)) == want
    assert gamma_bfs(label(2, 1, 2), Degree(0, 1)) == want
    assert gamma_closed_form(label(2, 3, 2), Degree(0, 2)) == want
    # value-two column one with a bar is not affected
    assert gamma_closed_form(label(-2, 1, 2), Degree(0, 1)) == su(label(-2, -3, 2))


def test_reference_figure_cells():
    gold = load_golden("neighborhoods_n2.json")
    for cell in gold["cells"]:
        w = parse_label(cell["w"], 2)
        d = Degree(*cell["d"])
        got = gamma_closed_form(w, d)
        assert [str(c) for c in got] == cell["components"]
        assert gamma_bfs(w, d) == got


def test_cross_check_is_clean():
    for n in (2, 3):
        report = cross_check(n, Degree(2, 2))
        assert report.ok, report.summary()
        assert report.cells == 4 * n * n * 9
    assert cross_check(2, Degree(0, 0)).ok


def test_monotone_in_degree_and_base():
    for n in (2, 3):
        grid = degree_grid(Degree(2, 2))
        for w in enumerate_labels(n):
            values = {d: gamma_closed_form(w, d) for d in grid}
            for d, d2 in itertools.product(grid, repeat=2):
                if d <= d2:
                    assert union_leq(values[d], values[d2])
            for u in down_set(w):
                for d in grid:
                    assert union_leq(gamma_closed_form(u, d), values[d])


def test_top_is_a_fixed_point():
    for n in (2, 3, 4):
        top = top_label(n)
        for d in degree_grid(Degree(3, 3)):
            assert gamma_closed_form(top, d) == su(top)


def test_saturation_at_degree_one_two():
    for n in (2, 3):
        top = su(top_label(n))
        for w in enumerate_labels(n):
            assert gamma_closed_form(w, Degree(1, 2)) == top


def test_regime_stability_via_search():
    for n in (2, 3):
        for w in enumerate_labels(n):
            base01 = gamma_bfs(w, Degree(0, 1))
            base11 = gamma_bfs(w, Degree(1, 1))
            for k in (2, 3):
                assert gamma_bfs(w, Degree(0, k)) == base01
                assert gamma_bfs(w, Degree(k, 1)) == base11


def _neighbors_by_degree(g, w, key):
    return {x for x, d, _ in moment_neighbors(g)[w] if d.key == key}


def test_one_step_chain_shapes():
    # Walking one edge of a given class rewrites one column: a (1,0) edge
    # swaps the columns, a (0,1) edge rewrites column two, a (1,1) edge
    # rewrites column one.
    for n in (2, 3):
        g = build_moment_graph(n)
        letters = [v for v in alphabet(n) if v != -1]
        for w in enumerate_labels(n):
            a, b = w.a, w.b
            assert _neighbors_by_degree(g, w, (1, 0)) == {FlagLabel(b, a, n)}
            want01 = {
                FlagLabel(a, y, n)
                for y in letters
                if abs(y) != abs(a) and y != b
            }
            assert _neighbors_by_degree(g, w, (0, 1)) == want01
            want11 = {
                FlagLabel(x, b, n)
                for x in letters
                if abs(x) != abs(b) and x != a
            }
            assert _neighbors_by_degree(g, w, (1, 1)) == want11


def test_two_step_chain_shapes():
    # (1,0) then (0,1) lands on (b|h); (0,1) then (1,0) lands on (h|a).
    for n in (2, 3):
        g = build_moment_graph(n)
        letters = [v for v in alphabet(n) if v != -1]
        for w in enumerate_labels(n):
            a, b = w.a, w.b
            first = _neighbors_by_degree(g, w, (1, 0))
            two_step = {
                x for u in first for x in _neighbors_by_degree(g, u, (0, 1))
            }
            assert two_step == {
                FlagLabel(b, h, n)
                for h in letters
                if abs(h) != abs(b) and h != a
            }
            first = _neighbors_by_degree(g, w, (0, 1))
            two_step = {
                x for u in first for x in _neighbors_by_degree(g, u, (1, 0))
            }
            assert two_step == {
                FlagLabel(h, a, n)
                for h in letters
                if abs(h) != abs(a) and h != b
            }


def test_outputs_are_antichains_everywhere():
    # SchubertUnion construction rejects comparable components, so it is
    # enough that these calls do not raise.
    for n in (2, 3):
        for w in enumerate_labels(n):
            for d in degree_grid(Degree(2, 2)):
                gamma_closed_form(w, d)
                gamma_bfs(w, d)


# The (3,5) grid, plus huge degrees that only the window cut-off can reach.
ORACLE_DEGREES = degree_grid(Degree(3, 5)) + (
    Degree(10**6, 10**6),
    Degree(0, 10**6),
    Degree(10**6, 1),
)


@functools.lru_cache(maxsize=None)
def _reference_cells(n):
    g = build_moment_graph(n)
    return {
        (w, d): reference_gamma_bfs(w, d, g) for w in g.vertices for d in ORACLE_DEGREES
    }


def _index_of(g):
    """A search index of the graph ``g``, read off its edges."""
    return neighborhoods._SearchIndex(g.vertices, edge_masks(g))


def _search(index, w, d):
    return index.neighborhood(index.index[w], d.d1, d.d2)


@pytest.mark.parametrize("n", [2, 3])
def test_search_matches_reference_cold_and_after_cross_check(n):
    want = _reference_cells(n)
    weyl._rank.cache_clear()
    for w, d in want:
        assert gamma_bfs(w, d) == want[w, d], (w, d)
    assert cross_check(n, Degree(3, 5)).ok
    for w, d in want:
        assert gamma_bfs(w, d) == want[w, d], (w, d)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_building_the_search_index_compares_no_pair(monkeypatch, n):
    # The index reads its lower sets from weyl.bruhat_masks,
    # rebuilt here from an empty cache, and fills its per-class tables
    # along the masks' covers, so neither the masks
    # nor the index may call bruhat_leq under any of its names.
    calls = []

    def spy(u, v):
        calls.append((u, v))
        return weyl.bruhat_leq.__wrapped__(u, v)

    for module in (weyl, neighborhoods):
        monkeypatch.setattr(module, "bruhat_leq", spy)
    weyl._rank.cache_clear()
    index = neighborhoods._SearchIndex(enumerate_labels(n), moment.moment_masks(n))
    assert calls == []
    assert len(index.below) == 4 * n * n
    assert all(len(dn) == 4 * n * n for _c, dn in index.steps)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_maxima_recursion_matches_the_bit_expanding_search(n):
    # The index expands only the maxima of earlier cells; the oracle
    # expands every set bit, as the recursion is written.  Reached sets and
    # their maxima must agree on every base and degree, huge ones included.
    g = build_moment_graph(n)
    index = weyl._rank(n)._search_index
    oracle = BitExpandingSearch(g)
    for w in range(len(g.vertices)):
        for d in ORACLE_DEGREES:
            got = index.reached(w, d.d1, d.d2)
            assert got == oracle.reached(w, d.d1, d.d2), (g.vertices[w], d)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_search_and_the_discrepancies_build_no_object_graph(monkeypatch, n):
    # The search, the cross-check and the discrepancy list read the moment
    # graph as masks, so none may build it as objects under any name.
    def refuse(n):
        raise AssertionError("built the moment graph as objects")

    want = qbg.moment_discrepancies(n)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "oddflag":
            for attr, value in list(vars(module).items()):
                if value is build_moment_graph:
                    monkeypatch.setattr(module, attr, refuse)
    weyl._rank.cache_clear()
    assert cross_check(n, Degree(2, 2)).ok
    assert gamma_bfs(top_label(n), Degree(10**6, 10**6)).components == (top_label(n),)
    assert qbg.moment_discrepancies(n) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reached_sets_are_stable_beyond_degree_one_two(n, monkeypatch):
    # The finite certificate: on every base, R[e] = R[min(e, (1,2))] for
    # every e <= (2,4), the first window of the cut-off at k = (1,2).  By
    # the window lemma (module docstring) R[d] = R[min(d, (1,2))] then
    # holds at every degree d, which extends
    # test_regime_stability_via_search to all degrees for these ranks.
    index = weyl._rank(n)._search_index
    for w in range(len(index.labels)):
        for e in degree_grid(Degree(2, 4)):
            stable = index.reached(w, min(e.d1, 1), min(e.d2, 2))
            assert index.reached(w, e.d1, e.d2) == stable, (index.labels[w], e)
    # So the cut-off stops at its first window, the 3 x 5 cells below (2,4).
    filled = []
    fill = neighborhoods._SearchIndex._cell

    def counted(self, grid, w, e1, e2):
        filled.append((e1, e2))
        return fill(self, grid, w, e1, e2)

    monkeypatch.setattr(neighborhoods._SearchIndex, "_cell", counted)
    for w in range(len(index.labels)):
        filled.clear()
        index.reached(w, 10**6, 10**6)
        assert filled == [d.key for d in degree_grid(Degree(2, 4))]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cross_check_fills_each_base_grid_once(n, monkeypatch):
    # cross_check asks the 9 degrees of one base in a row, and the search
    # keeps that base's cells between the calls, so each base fills its 9
    # cells once; refilling from (0,0) on every call would fill
    # 1 + 2 + 3 + 2 + 4 + 6 + 3 + 6 + 9 = 36.
    filled = []
    fill = neighborhoods._SearchIndex._cell

    def counted(self, grid, w, e1, e2):
        filled.append((w, e1, e2))
        return fill(self, grid, w, e1, e2)

    weyl._rank.cache_clear()
    monkeypatch.setattr(neighborhoods._SearchIndex, "_cell", counted)
    assert cross_check(n, Degree(2, 2)).ok
    assert len(filled) == 9 * 4 * n * n
    assert len(set(filled)) == len(filled)


def _outcome(call, *args):
    """The value of ``call(*args)``, or the message of its ``VerificationError``."""
    try:
        return call(*args)
    except VerificationError as exc:
        return str(exc)


def _fresh(index, w, d):
    """The search's answer from a grid of its own, as ``_outcome`` gives it."""

    def search():
        _reached, maxima = index.reached(index.index[w], d.d1, d.d2)
        return SchubertUnion(tuple(index.labels[x] for x in maxima))

    return _outcome(search)


# Degrees asked in an order that revisits cells a larger degree filled.
MEMO_DEGREES = (
    degree_grid(Degree(3, 5))
    + (Degree(10**6, 10**6), Degree(0, 10**6), Degree(10**6, 1))
    + tuple(reversed(degree_grid(Degree(2, 2))))
)


def test_a_refused_cell_is_refused_again_on_every_call(monkeypatch):
    # On the skipping paths and the cycling chain some bases fail their
    # certificate.  The grid kept between calls stores no failed cell, so
    # every repeated call on such a base raises the same error, at the
    # same cell, and every call that passes gives the answer of a search
    # with a grid of its own.
    for g in (_cycling_chain(), *(skipping_path(n) for n in (2, 3, 4))):
        index = _index_of(g)
        monkeypatch.setattr(weyl._Rank, "_search_index", property(lambda rank: index))
        refused = 0
        for w in g.vertices:
            for d in MEMO_DEGREES:
                want = _fresh(index, w, d)
                for _ in range(3):
                    assert _outcome(gamma_bfs, w, d) == want, (w, d)
                refused += isinstance(want, str)
        # Across bases, so that each call starts on another base's grid.
        for d in MEMO_DEGREES:
            for w in g.vertices:
                assert _outcome(gamma_bfs, w, d) == _fresh(index, w, d), (w, d)
        assert refused > 0, g.n


def test_a_grid_never_serves_another_index(monkeypatch):
    # Between two calls on one (n, w), the index changes: swapped for the
    # skipping path's, or rebuilt after a cache clear from other masks.
    # The second answer must follow the new index, never the cells the
    # first one filled.
    n = 3
    real = weyl._rank(n)._search_index
    other = _index_of(skipping_path(n))
    current = [real]
    monkeypatch.setattr(weyl._Rank, "_search_index", property(lambda rank: current[0]))
    differ = 0
    for w in enumerate_labels(n):
        for d in (Degree(10**6, 10**6), Degree(2, 2), Degree(0, 3)):
            for index in (real, other, real):
                current[0] = index
                got = _outcome(gamma_bfs, w, d)
                assert got == _fresh(index, w, d), (w, d)
            differ += _fresh(real, w, d) != _fresh(other, w, d)
    assert differ > 0
    monkeypatch.undo()

    def rows_only(rank):
        return {(0, 1): moment._moment_masks(rank)[0, 1]}

    w, d, top = label(1, 2, n), Degree(1, 2), SchubertUnion((top_label(n),))
    weyl._rank.cache_clear()
    assert gamma_bfs(w, d) == top
    weyl._rank.cache_clear()
    monkeypatch.setattr(weyl._Rank, "_moment_masks", property(rows_only))
    rows = weyl._rank(n)._search_index
    assert _outcome(gamma_bfs, w, d) == _fresh(rows, w, d) != top
    monkeypatch.undo()
    weyl._rank.cache_clear()


def test_calls_interleaved_across_bases_and_ranks_match_the_reference():
    # The grid memo holds one base at a time.  Calls that hop between
    # bases and ranks, and come back to a base after another one, must
    # each give the reference answer.
    cells = [(w, d) for n in (2, 3) for w, d in _reference_cells(n)]
    order = list(range(len(cells)))
    random.Random(27).shuffle(order)
    weyl._rank.cache_clear()
    for k in order:
        w, d = cells[k]
        assert gamma_bfs(w, d) == _reference_cells(w.n)[w, d], (w, d)
    # Each base of rank 2 followed by the same base of rank 3, then again.
    for w2 in enumerate_labels(2):
        w3 = FlagLabel(w2.a, w2.b, 3)
        for d in ORACLE_DEGREES:
            for w in (w2, w3, w2):
                assert gamma_bfs(w, d) == _reference_cells(w.n)[w, d], (w, d)


class _RecordingIndex(neighborhoods._SearchIndex):
    """A search index that records each cell it fills, and its reached set."""

    def __init__(self, labels, near):
        super().__init__(labels, near)
        self.filled = []

    def _cell(self, grid, w, e1, e2):
        cell = super()._cell(grid, w, e1, e2)
        self.filled.append(((e1, e2), cell[0]))
        return cell


def _cycling_chain():
    """Every other rank-3 label, joined in one path whose edge classes cycle.

    The path's edges are stored in alternating orientation, so a search
    that walks edges one way only stops early.
    """
    g = build_moment_graph(3)
    path = g.vertices[::2]
    classes = (Degree(1, 0), Degree(0, 1), Degree(1, 2), Degree(1, 1))
    root = g.edges[0].root
    edges = tuple(
        MomentEdge(*((u, v) if k % 2 else (v, u)), classes[k % len(classes)], root)
        for k, (u, v) in enumerate(zip(path, path[1:]))
    )
    return MomentGraph(3, g.vertices, edges)


def test_search_refuses_reached_sets_that_are_not_lower_sets():
    # A walk along the cycling chain skips the labels between its stops, so
    # the reached sets are not Bruhat lower sets and the maxima recursion
    # does not apply.  The per-cell certificate must then raise; wherever
    # it lets a cell through, the answer is the true one.
    chain = _cycling_chain()
    path = chain.vertices[::2]
    index = _index_of(chain)
    huge = (Degree(10**6, 10**6), Degree(1, 10**6), Degree(10**6, 2), Degree(7, 10**6))
    for w in path[:4]:
        for d in huge:
            with pytest.raises(VerificationError, match="not form a Bruhat lower set"):
                _search(index, w, d)
        for d in degree_grid(Degree(3, 5)):
            try:
                got = _search(index, w, d)
            except VerificationError:
                continue
            assert got == reference_gamma_bfs(w, d, chain), (w, d)
    # The certificate against the bit-expanding oracle, on this chain and on
    # the skipping paths of verify's certificate case at n = 2..4: every
    # base raises at the first cell, in fill order, whose reached set is not
    # a lower set, and fills the oracle's cells before it, where the maxima
    # recursion is exact.
    for g in (chain, *(skipping_path(n) for n in (2, 3, 4))):
        below = weyl.bruhat_masks(g.n)[1]
        oracle = BitExpandingSearch(g)
        index = _RecordingIndex(g.vertices, edge_masks(g))
        refused = 0
        for w in range(len(g.vertices)):
            oracle.reached(w, 10**6, 10**6)
            cells = list(oracle.grids[w].items())
            lower = [all(below[x] & ~s == 0 for x in _bits(s)) for _e, s in cells]
            index.filled.clear()
            if all(lower):
                index.reached(w, 10**6, 10**6)
                assert index.filled == cells, g.vertices[w]
                continue
            first = lower.index(False)
            e1, e2 = cells[first][0]
            message = (
                f"search from {g.vertices[w]}: the labels reached within "
                f"({e1},{e2}) do not form a Bruhat lower set"
            )
            with pytest.raises(VerificationError, match=re.escape(message)):
                index.reached(w, 10**6, 10**6)
            assert index.filled == cells[:first], g.vertices[w]
            refused += 1
        assert refused > 0, g.n


def test_window_widens_while_the_reached_sets_grow():
    # On the moment graphs the first window always passes, so the widening
    # branch needs a graph built for it: every rank-3 label joined to every
    # label one length up, all edges of one class.  Each step then climbs
    # one length, so the reached sets are the labels up to a length that
    # grows with the budget, lower sets because Bruhat order is graded,
    # and they keep growing for many windows before they stop.
    g = build_moment_graph(3)
    by_length = {}
    for v in g.vertices:
        by_length.setdefault(length(v), []).append(v)
    root = g.edges[0].root
    degrees = degree_grid(Degree(3, 5)) + (
        Degree(10**6, 10**6),
        Degree(1, 10**6),
        Degree(10**6, 2),
        Degree(7, 10**6),
    )
    for c in (Degree(0, 1), Degree(1, 1), Degree(1, 2)):
        edges = tuple(
            MomentEdge(u, v, c, root)
            for u in g.vertices
            for v in by_length.get(length(u) + 1, ())
        )
        graded = MomentGraph(3, g.vertices, edges)
        index = _index_of(graded)
        for w in g.vertices:
            for d in degrees:
                want = reference_gamma_bfs(w, d, graded)
                assert _search(index, w, d) == want, (c, w, d)


def test_threads_sharing_a_lazily_built_index_get_every_cell_right():
    want = _reference_cells(2)
    cells = list(want)
    wrong = []
    weyl._rank.cache_clear()

    def worker(k):
        # The rank starts without its search index, so the first calls
        # race to build it; each thread walks the cells from its own
        # offset while the others read the index.
        for w, d in (cells[k:] + cells[:k]) * 3:
            if gamma_bfs(w, d) != want[w, d]:
                wrong.append((w, d))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(17 * k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
