import functools
import itertools
import sys
import threading

import pytest

from helpers import reference_gamma_bfs
from oddflag import neighborhoods
from oddflag.errors import DomainError
from oddflag.moment import Degree, build_moment_graph
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
    alphabet,
    down_set,
    enumerate_labels,
    label,
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


def test_union_leq_examples():
    assert union_leq(su(label(1, 2, 2)), su(label(-2, -3, 2)))
    a = su(label(-3, 2, 2))
    b = su(label(-2, 1, 2))
    assert not union_leq(a, b) and not union_leq(b, a)
    assert union_leq(su(label(2, 1, 2)), su(label(-3, 2, 2), label(-2, 1, 2)))
    with pytest.raises(DomainError):
        union_leq(su(label(1, 2, 2)), su(label(1, 2, 3)))


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
        g = build_moment_graph(n)
        for w in enumerate_labels(n):
            base01 = gamma_bfs(w, Degree(0, 1), g)
            base11 = gamma_bfs(w, Degree(1, 1), g)
            for k in (2, 3):
                assert gamma_bfs(w, Degree(0, k), g) == base01
                assert gamma_bfs(w, Degree(k, 1), g) == base11


def _neighbors_by_degree(g, w, key):
    return {x for x, d, _ in g.neighbors[w] if d.key == key}


def test_one_step_chain_shapes():
    # Walking one edge of a given class rewrites one column: a (1,0) edge
    # swaps the columns, a (0,1) edge rewrites column two, a (1,1) edge
    # rewrites column one.
    for n in (2, 3):
        g = build_moment_graph(n)
        letters = [
            v for v in alphabet(n) if not (v.letter == 1 and v.barred)
        ]
        for w in enumerate_labels(n):
            a, b = w.a, w.b
            assert _neighbors_by_degree(g, w, (1, 0)) == {FlagLabel(b, a, n)}
            want01 = {
                FlagLabel(a, y, n)
                for y in letters
                if y.letter != a.letter and y != b
            }
            assert _neighbors_by_degree(g, w, (0, 1)) == want01
            want11 = {
                FlagLabel(x, b, n)
                for x in letters
                if x.letter != b.letter and x != a
            }
            assert _neighbors_by_degree(g, w, (1, 1)) == want11


def test_two_step_chain_shapes():
    # (1,0) then (0,1) lands on (b|h); (0,1) then (1,0) lands on (h|a).
    for n in (2, 3):
        g = build_moment_graph(n)
        letters = [
            v for v in alphabet(n) if not (v.letter == 1 and v.barred)
        ]
        for w in enumerate_labels(n):
            a, b = w.a, w.b
            first = _neighbors_by_degree(g, w, (1, 0))
            two_step = {
                x for u in first for x in _neighbors_by_degree(g, u, (0, 1))
            }
            assert two_step == {
                FlagLabel(b, h, n)
                for h in letters
                if h.letter != b.letter and h != a
            }
            first = _neighbors_by_degree(g, w, (0, 1))
            two_step = {
                x for u in first for x in _neighbors_by_degree(g, u, (1, 0))
            }
            assert two_step == {
                FlagLabel(h, a, n)
                for h in letters
                if h.letter != a.letter and h != b
            }


def test_outputs_are_antichains_everywhere():
    # SchubertUnion construction rejects comparable components, so it is
    # enough that these calls do not raise.
    for n in (2, 3):
        for w in enumerate_labels(n):
            for d in degree_grid(Degree(2, 2)):
                gamma_closed_form(w, d)
                gamma_bfs(w, d)


GRID_33 = degree_grid(Degree(3, 3))


@functools.lru_cache(maxsize=None)
def _reference_cells(n):
    g = build_moment_graph(n)
    return {(w, d): reference_gamma_bfs(w, d, g) for w in g.vertices for d in GRID_33}


@pytest.fixture
def searches(monkeypatch):
    """Counts the searches gamma_bfs runs, as opposed to memo reads."""
    count = [0]
    search = neighborhoods._SearchIndex._search

    def counted(self, *args):
        count[0] += 1
        return search(self, *args)

    monkeypatch.setattr(neighborhoods._SearchIndex, "_search", counted)
    return count


@pytest.mark.parametrize("n", [2, 3])
def test_search_matches_reference_cold(n, searches):
    g = build_moment_graph(n)
    want = _reference_cells(n)
    neighborhoods._search_index(g).memo = None
    # Consecutive calls change base, so each one searches at its own d.
    for d in GRID_33:
        for w in g.vertices:
            assert gamma_bfs(w, d, g) == want[w, d], (w, d)
    assert searches[0] == len(want)


@pytest.mark.parametrize("n", [2, 3])
def test_search_matches_reference_after_priming(n, searches):
    g = build_moment_graph(n)
    want = _reference_cells(n)
    assert cross_check(n, Degree(3, 3)).ok
    primed = searches[0]
    assert primed == len(g.vertices)
    last = g.vertices[-1]
    for d in GRID_33:
        assert gamma_bfs(last, d, g) == want[last, d], (last, d)
    assert searches[0] == primed
    for w in g.vertices:
        gamma_bfs(w, Degree(3, 3), g)
        for d in GRID_33:
            assert gamma_bfs(w, d, g) == want[w, d], (w, d)
    assert searches[0] == primed + len(g.vertices)


@pytest.mark.parametrize("n", [2, 3])
def test_search_matches_reference_beyond_primed_budget(n, searches):
    g = build_moment_graph(n)
    want = _reference_cells(n)
    for w in g.vertices:
        before = searches[0]
        assert gamma_bfs(w, Degree(1, 1), g) == want[w, Degree(1, 1)]
        assert gamma_bfs(w, Degree(3, 1), g) == want[w, Degree(3, 1)]
        assert gamma_bfs(w, Degree(1, 3), g) == want[w, Degree(1, 3)]
        # (1,1), then the joins (3,1) and (3,3); the rest is read off.
        assert searches[0] == before + 3
        for d in GRID_33:
            assert gamma_bfs(w, d, g) == want[w, d], (w, d)
        assert searches[0] == before + 3


def test_threads_sharing_the_kept_front_get_every_cell_right():
    g = build_moment_graph(2)
    want = _reference_cells(2)
    cells = list(want)
    wrong = []

    def worker(k):
        # Each thread walks the cells from its own offset, so the threads
        # keep replacing one another's front.
        for w, d in (cells[k:] + cells[:k]) * 3:
            if gamma_bfs(w, d, g) != want[w, d]:
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
