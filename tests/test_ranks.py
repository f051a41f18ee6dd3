"""The rank store: one object per rank holds every per-rank table.

``weyl._rank(n)`` keeps the last two ranks asked.  These tests check that
a rank is refused before any table is read, that objects kept across an
eviction still give the answers of a rebuilt rank, and that a suite run
holds no more than the store's bound.
"""

import gc
import random
import sys
import threading
import weakref

import pytest

from oddflag import weyl
from oddflag.errors import DomainError
from oddflag.lattice import CNLattice, build_cn_lattice, classify_shape, is_distributive
from oddflag.moment import Degree, build_moment_graph
from oddflag.neighborhoods import (
    cross_check,
    degree_grid,
    gamma_bfs,
    gamma_closed_form,
    union_leq,
)
from oddflag.qbg import build_qbg, chern_data, moment_discrepancies, property_o_verdict
from oddflag.verify import run_suite, suite_passed
from oddflag.weyl import bruhat_leq, covers, enumerate_labels, label, parse_label, top_label

GRID = degree_grid(Degree(1, 2))

ENTRY_POINTS = {
    "enumerate_labels": enumerate_labels,
    "top_label": top_label,
    "build_qbg": build_qbg,
    "property_o_verdict": property_o_verdict,
    "chern_data": chern_data,
    "moment_discrepancies": moment_discrepancies,
    "build_moment_graph": build_moment_graph,
    "cross_check": lambda n: cross_check(n, Degree(1, 1)),
}


@pytest.mark.parametrize("rank", [2.0, True])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_entry_point_checks_the_rank_before_any_memo(name, rank):
    # 2.0 == 2 and True == 1 as keys, so a memo asked first would serve
    # rank 2 (or 1) to them.  Each is refused, cold and once rank 2 is
    # built, before the rank store is asked.
    call = ENTRY_POINTS[name]
    weyl._rank.cache_clear()
    for _ in range(2):
        before = weyl._rank.cache_info()
        with pytest.raises(DomainError, match="rank must be an integer >= 2"):
            call(rank)
        assert weyl._rank.cache_info() == before
        call(2)


def test_objects_kept_across_an_eviction_give_the_answers_of_a_rebuild():
    # Labels, closed-form values and a lattice kept from one build of rank
    # 12 meet the objects of the next build; every comparison between the
    # two falls back to equality.
    n = 12
    weyl._rank.cache_clear()
    old = enumerate_labels(n)
    sample = old[::37]
    old_values = [gamma_closed_form(w, d) for w in sample for d in GRID]
    # Half of the old values read their lower-set masks before the eviction.
    assert all(union_leq(v, v) for v in old_values[::2])
    old_lat = build_cn_lattice(label(1, 2, n))
    weyl._rank.cache_clear()

    new = enumerate_labels(n)
    assert new == old and not any(x is y for x, y in zip(new, old))
    for u, w in zip(old, new):
        assert parse_label(str(u), n) is w
        assert covers(u) == covers(w)
        for d in GRID:
            assert gamma_closed_form(u, d) is gamma_closed_form(w, d)
    new_values = [gamma_closed_form(w, d) for w in new[::37] for d in GRID]
    assert new_values == old_values
    for x_old, x_new in zip(old_values, new_values):
        for y_old, y_new in zip(old_values, new_values):
            want = union_leq(x_new, y_new)
            assert union_leq(x_old, y_new) == union_leq(x_new, y_old) == want
            assert union_leq(x_old, y_old) == want
    for u_old, u_new in zip(sample, new[::37]):
        for v_old, v_new in zip(sample, new[::37]):
            want = bruhat_leq(u_new, v_new)
            assert bruhat_leq(u_old, v_new) == bruhat_leq(u_new, v_old) == want

    new_lat = build_cn_lattice(old_lat.base)
    assert new_lat == old_lat and new_lat is not old_lat
    assert new_lat.base is new[new.index(old_lat.base)]
    # CNLattice finds its base and its top by equality across the builds.
    assert CNLattice(old_lat.base, new_lat.elements, new_lat.witnesses) == new_lat
    assert CNLattice(new_lat.base, old_lat.elements, old_lat.witnesses) == old_lat
    assert top_label(n) in old_lat.elements[-1].components
    assert (is_distributive(old_lat), classify_shape(old_lat)) == (
        is_distributive(new_lat),
        classify_shape(new_lat),
    )


def _answers(w):
    """Every kind of query on the base w, as plain comparable values."""
    values = [gamma_closed_form(w, d) for d in GRID]
    lat = build_cn_lattice(w)
    return (
        [str(v) for v in values],
        [str(gamma_bfs(w, d)) for d in GRID],
        [union_leq(x, y) for x in values for y in values],
        (str(lat.base), lat.size, is_distributive(lat), classify_shape(lat)),
        str(parse_label(str(w), w.n)),
        [str(u) for u in covers(w)],
        str(top_label(w.n)),
    )


def test_calls_that_interleave_three_ranks_get_every_answer_right():
    # Three ranks asked in a shuffled order overflow the store's two, so
    # ranks are evicted and rebuilt between calls; the labels asked with
    # come from the first builds.
    ranks = (2, 3, 4)
    want = {}
    for n in ranks:
        weyl._rank.cache_clear()
        want.update({w: _answers(w) for w in enumerate_labels(n)})
    bases = list(want)
    random.Random(31).shuffle(bases)
    weyl._rank.cache_clear()
    for w in bases:
        assert _answers(w) == want[w], w
    info = weyl._rank.cache_info()
    assert info.currsize <= info.maxsize == 2
    assert info.misses > len(ranks)  # some rank was evicted and built again


def test_threads_on_more_ranks_than_the_store_holds_get_every_answer_right():
    # Four threads on three ranks evict each other's rank objects while
    # they read them; a thread keeps reading the object it holds, and its
    # next call builds the rank again, so every answer stays right.
    ranks = (2, 3, 4)
    want = {}
    for n in ranks:
        weyl._rank.cache_clear()
        want.update({w: _answers(w) for w in enumerate_labels(n)})
    bases = list(want)
    wrong = []

    def worker(seed):
        order = bases[:]
        random.Random(seed).shuffle(order)
        for w in order:
            if _answers(w) != want[w]:
                wrong.append(w)

    weyl._rank.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert weyl._rank.cache_info().currsize <= 2


def test_a_suite_run_holds_at_most_two_ranks():
    # run_suite works rank by rank, so the store evicts each rank two
    # ranks later, and with it every table and memo of that rank.  No
    # per-label cache keeps a rank's labels past it either.
    assert not hasattr(weyl.down_set, "cache_info")
    weyl._rank.cache_clear()
    first = weakref.ref(weyl._rank(2))
    assert suite_passed(run_suite(6))
    info = weyl._rank.cache_info()
    assert info.currsize <= info.maxsize == 2
    gc.collect()
    assert first() is None


def test_no_cache_keeps_the_labels_of_an_evicted_rank():
    # A two-component value is checked for being an antichain when it is
    # built; that check must not leave its labels in bruhat_leq's cache,
    # which no rank eviction clears.
    weyl.bruhat_leq.cache_clear()
    weyl._rank.cache_clear()
    value = gamma_closed_form(label(2, 1, 2), Degree(0, 1))
    assert len(value.components) == 2
    component = weakref.ref(value.components[0])
    del value
    assert suite_passed(run_suite(8))
    gc.collect()
    assert component() is None
