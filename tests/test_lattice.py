import itertools
import json
import sys
import threading
from collections import Counter

import pytest

from oddflag.errors import DomainError, VerificationError
from oddflag import cli, lattice, neighborhoods, verify, weyl
from oddflag.lattice import (
    REPRESENTATIVE_DEGREES,
    CNLattice,
    build_cn_lattice,
    classify_shape,
    figure_shape_predicate,
    hasse_edges,
    is_distributive,
    is_lattice,
)
from oddflag.moment import Degree
from oddflag.neighborhoods import SchubertUnion, degree_grid, gamma_closed_form, union_leq
from oddflag.verify import load_golden
from oddflag.weyl import enumerate_labels, label, parse_label, top_label
from helpers import (
    FinitePoset,
    _poset,
    bound_tables_oracle,
    degree_join,
    hasse_edges_oracle,
    m3_poset,
    n5_poset,
    poset_from_covers,
    union_leq_oracle,
)


# The per-order cache of the order records, which hold every poset fact
# (lattice module docstring).
CACHES = ("_order",)


def clear_caches():
    for name in CACHES:
        getattr(lattice, name).cache_clear()
    weyl._rank.cache_clear()  # the rank objects, with their lattice memos


def test_build_examples():
    top = build_cn_lattice(top_label(2))
    assert top.size == 1 and classify_shape(top) == "trivial"

    two = build_cn_lattice(label(-2, 1, 2))
    assert [str(e) for e in two.elements] == ["-2|1", "-2|-3"]
    assert classify_shape(two) == "2-chain"

    five = build_cn_lattice(label(1, 2, 2))
    assert five.size == 5
    assert classify_shape(five) == "diamond-plus-top"
    e = {str(x): i for i, x in enumerate(five.elements)}
    order = five.order
    mid1, mid2 = e["2|1"], e["1|-2"]
    assert not order[mid1][mid2] and not order[mid2][mid1]
    join = e["-3|2, -2|1"]
    assert order[mid1][join] and order[mid2][join]
    assert order[join][e["-2|-3"]]


def test_hasse_of_the_bottom_label():
    five = build_cn_lattice(label(1, 2, 2))
    assert hasse_edges(five) == ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))


def test_witnesses_are_minimal_producers():
    for n in (2, 3):
        for w in enumerate_labels(n):
            lat = build_cn_lattice(w)
            for element, witness in zip(lat.elements, lat.witnesses):
                producers = [
                    d
                    for d in REPRESENTATIVE_DEGREES
                    if gamma_closed_form(w, d) == element
                ]
                assert witness in producers
                assert not any(d != witness and d <= witness for d in producers)


def _closures(size):
    """Every poset on range(size) that is the closure of some pairs i < j."""
    pairs = list(itertools.combinations(range(size), 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        yield poset_from_covers(size, [p for p, c in zip(pairs, chosen) if c])


def test_bound_tables_match_the_list_scan_oracle():
    posets = [p for size in range(1, 6) for p in _closures(size)]
    assert len(posets) == 1 + 2 + 2**3 + 2**6 + 2**10
    posets += [m3_poset(), n5_poset()]
    posets += [build_cn_lattice(w) for n in (2, 3, 4) for w in enumerate_labels(n)]
    incomplete = 0
    for p in posets:
        record = p._record
        oracle = bound_tables_oracle(p.order)
        assert (record.join, record.meet) == tuple(tuple(map(tuple, table)) for table in oracle)
        incomplete += not is_lattice(p)
    assert incomplete > 0  # the sweep includes non-lattices, so None entries


def test_hasse_edges_match_the_triple_loop_oracle():
    posets = [p for size in range(1, 6) for p in _closures(size)]
    posets += [m3_poset(), n5_poset()]
    posets += [build_cn_lattice(w) for n in range(2, 9) for w in enumerate_labels(n)]
    assert len(posets) == 1099 + 2 + sum(4 * n * n for n in range(2, 9))
    for p in posets:
        assert hasse_edges(p) == hasse_edges_oracle(p.order), p.order


def test_is_lattice_on_chains_and_all_bases():
    for size in (1, 2, 3, 4):
        chain = poset_from_covers(size, [(i, i + 1) for i in range(size - 1)])
        assert is_lattice(chain)
    for w in enumerate_labels(2):
        assert is_lattice(build_cn_lattice(w))


def test_is_lattice_negative_control():
    vee = poset_from_covers(3, [(0, 1), (0, 2)])
    assert not is_lattice(vee)


def test_is_distributive_on_all_bases():
    for n in (2, 3):
        for w in enumerate_labels(n):
            assert is_distributive(build_cn_lattice(w))


def test_is_distributive_negative_controls():
    assert is_lattice(m3_poset()) and not is_distributive(m3_poset())
    assert is_lattice(n5_poset()) and not is_distributive(n5_poset())
    with pytest.raises(DomainError):
        is_distributive(poset_from_covers(3, [(0, 1), (0, 2)]))


def test_forbidden_sublattice_inside_a_larger_lattice():
    # A pentagon with one extra atom below everything is still caught.
    p = poset_from_covers(
        6, [(5, 0), (0, 2), (2, 3), (3, 4), (0, 1), (1, 4)]
    )
    assert is_lattice(p)
    assert not is_distributive(p)


def test_each_route_decides_on_its_own():
    # is_distributive insists the routes agree, so check each one alone.
    pentagon_plus_atom = poset_from_covers(
        6, [(5, 0), (0, 2), (2, 3), (3, 4), (0, 1), (1, 4)]
    )
    bad = [m3_poset(), n5_poset(), pentagon_plus_atom]
    good = [build_cn_lattice(w) for n in (2, 3) for w in enumerate_labels(n)]
    for p in bad + good:
        r = p._record
        expected = p in bad
        assert lattice._violates_triple_law(r.join, r.meet) is expected
        assert lattice._sublattice_shapes(r.up, r.down, r.join, r.meet) is expected


def test_triple_law_finds_the_pentagon_under_every_labelling():
    # The pentagon violates the law only at triples whose first entry is
    # the lower element of its long chain, so each relabelling moves the
    # violations; the law must find them wherever they land.
    base = n5_poset().order
    for perm in itertools.permutations(range(5)):
        moved = [[False] * 5 for _ in range(5)]
        for i, j in itertools.product(range(5), repeat=2):
            moved[perm[i]][perm[j]] = base[i][j]
        record = _poset(moved)
        assert lattice._violates_triple_law(record.join, record.meet), perm


@pytest.mark.parametrize("route", ["_violates_triple_law", "_sublattice_shapes"])
def test_is_distributive_consults_both_routes(monkeypatch, route):
    # The verdict is kept on the record of the order, so a kept verdict
    # would skip both routes; clear the records and the lattice memo first.
    clear_caches()
    monkeypatch.setattr(lattice, route, lambda *tables: True)
    with pytest.raises(VerificationError):
        is_distributive(build_cn_lattice(label(1, 2, 2)))


def test_is_distributive_builds_the_tables_once():
    # is_lattice and is_distributive read one record per order, which
    # holds the rows, the tables and the verdict.
    clear_caches()
    posets = (build_cn_lattice(label(1, 2, 2)), m3_poset(), n5_poset())
    for p in posets + posets:
        is_lattice(p)
        is_distributive(p)
    assert len({p.order for p in posets}) == 3
    assert lattice._order.cache_info().misses == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_check_lattices_builds_one_row_pair_and_one_table_pair_per_base(n):
    # verify's lattice row calls is_lattice and then is_distributive; they
    # read the record that each lattice keeps for its order, which holds
    # the rows and the tables, and the build makes the same record.
    # The lattices of every rank have six orders
    # (test_lattice_orders_are_few), so a cold run computes six records,
    # however many bases share them.
    clear_caches()
    assert verify._check_lattices(n)[0] == "pass"
    assert len(enumerate_labels(n)) > 6
    assert lattice._order.cache_info().misses == 6


def test_threads_sharing_lattices_whose_tables_are_not_built_yet():
    # The order records are cleared and the lattices built again before
    # the threads start, so the first calls race on each record's verdict
    # and shape and on each lattice's checked shape.
    bases = enumerate_labels(3)
    want = [
        (is_lattice(lat), is_distributive(lat), classify_shape(lat))
        for lat in map(build_cn_lattice, bases)
    ]
    clear_caches()
    shared = [build_cn_lattice(w) for w in bases]
    wrong = []

    def worker(k):
        for i in list(range(k, len(shared))) + list(range(k)):
            lat = shared[i]
            if (is_lattice(lat), is_distributive(lat), classify_shape(lat)) != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(5 * k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_lattice_orders_are_few():
    # An observation over the ranks the CLI accepts, not a proof: the
    # 5,980 lattices of ranks 2..16 share six order matrices, all six at
    # every rank, and eight (order, witnesses) pairs.
    orders, pairs = set(), set()
    for n in range(2, 17):
        lats = [build_cn_lattice(w) for w in enumerate_labels(n)]
        assert len({lat.order for lat in lats}) == 6, n
        orders.update(lat.order for lat in lats)
        pairs.update((lat.order, lat.witnesses) for lat in lats)
    assert len(orders) == 6
    assert len(pairs) == 8


def spy_on(monkeypatch, calls, owner, name):
    """Count the calls of ``owner.name`` in ``calls[name]``."""
    real = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


def test_check_lattices_computes_each_fact_once_per_order(monkeypatch):
    # The guard on the lattice's cost: verify's lattice rows of ranks 2..8
    # compute the order record, each distributivity route and the
    # structural shape once for each distinct order, not once per base;
    # only the check against the label predicate runs once per lattice.
    calls = Counter()
    routes = ("_violates_triple_law", "_sublattice_shapes")
    for name in routes + ("figure_shape_predicate",):
        spy_on(monkeypatch, calls, lattice, name)
    spy_on(monkeypatch, calls, lattice._Order.shape, "func")
    clear_caches()
    for n in range(2, 9):
        assert verify._check_lattices(n)[0] == "pass"
    lats = [build_cn_lattice(w) for n in range(2, 9) for w in enumerate_labels(n)]
    orders = {lat.order for lat in lats}
    pairs = {(lat.order, lat.witnesses) for lat in lats}
    assert lattice._order.cache_info().misses == len(orders)
    assert calls == {
        **{name: len(orders) for name in routes},
        "func": len(orders),
        "figure_shape_predicate": len(lats),
    }
    assert len(lats) > 100 * len(pairs)


def test_ranks_2_to_16_make_one_record_per_order(monkeypatch):
    # Building every lattice of ranks 2..16 and reading its verdict and
    # shape makes one record per distinct order, six in all.  Once the
    # records exist, lattices built again and read for the first time
    # hash no Degree: a 3-chain's shape reads the witness of its middle.
    clear_caches()
    records = set()
    for n in range(2, 17):
        for w in enumerate_labels(n):
            lat = build_cn_lattice(w)
            is_distributive(lat), classify_shape(lat)
            records.add(lat._record)
    assert len(records) == lattice._order.cache_info().misses == 6
    calls = Counter()
    spy_on(monkeypatch, calls, Degree, "__hash__")
    weyl._rank.cache_clear()
    lats = [build_cn_lattice(w) for n in (3, 16) for w in enumerate_labels(n)]
    assert all(is_distributive(lat) for lat in lats)
    shapes = {classify_shape(lat) for lat in lats}
    assert {"3-chain-via-(0,1)", "3-chain-via-(1,0)"} <= shapes
    assert {lat._record for lat in lats} == records
    assert calls == {}
    assert lattice._order.cache_info().misses == 6


def _base_not_minimum():
    """The 4-chain of (2|1) at rank 2 with (1|2), below the base, put first."""
    lat = build_cn_lattice(label(2, 1, 2))
    below = SchubertUnion((label(1, 2, 2),))
    return lat.base, (below, *lat.elements), (Degree(0, 0), *lat.witnesses)


def test_posets_take_list_rows_and_invalid_orders_raise_every_time():
    chain = FinitePoset([[True, True], [False, True]])
    assert chain.order == ((True, True), (False, True))
    assert is_lattice(chain) and is_distributive(chain)
    lat = build_cn_lattice(label(1, 2, 2))
    listed = CNLattice(lat.base, list(lat.elements), list(lat.witnesses))
    assert listed == lat
    assert classify_shape(listed) == "diamond-plus-top" and is_distributive(listed)
    # A raised check caches nothing, so it raises again on every call.
    for _ in range(2):
        with pytest.raises(DomainError, match="antisymmetric"):
            FinitePoset(((True, True), (True, True)))
        with pytest.raises(DomainError, match="only defined for lattices"):
            is_distributive(poset_from_covers(3, [(0, 1), (0, 2)]))
        with pytest.raises(VerificationError, match="minimum"):
            CNLattice(*_base_not_minimum())


def test_a_second_shape_query_reads_the_kept_shape(monkeypatch):
    # The first query of a lattice object computes its shape and checks it
    # against the label; the shape is kept on the object, so a second
    # query runs neither.
    # The structural shape is read once per order, off its record.
    calls = Counter()
    spy_on(monkeypatch, calls, lattice, "figure_shape_predicate")
    spy_on(monkeypatch, calls, lattice._Order.shape, "func")
    clear_caches()
    lats = [build_cn_lattice(w) for w in enumerate_labels(3)]
    want = {"figure_shape_predicate": len(lats), "func": len({lat.order for lat in lats})}
    first = [classify_shape(lat) for lat in lats]
    assert calls == want
    assert [classify_shape(lat) for lat in lats] == first
    assert calls == want
    assert first == [figure_shape_predicate(w) for w in enumerate_labels(3)]


def test_a_mismatched_shape_raises_on_every_query_and_keeps_nothing(monkeypatch):
    weyl._rank.cache_clear()
    lat = build_cn_lattice(label(1, 2, 3))
    with monkeypatch.context() as m:
        m.setattr(lattice, "figure_shape_predicate", lambda w: "4-chain")
        for _ in range(3):
            with pytest.raises(VerificationError, match="predicts 4-chain"):
                classify_shape(lat)
            assert "_shape" not in vars(lat)
    assert classify_shape(lat) == "diamond-plus-top"
    assert vars(lat)["_shape"] == "diamond-plus-top"


def test_a_three_chain_is_named_by_the_witness_of_its_middle():
    # The record holds the middle's index; the lattice reads its witness.
    lat = build_cn_lattice(label(-3, 2, 3))
    assert lat._record.shape == 1 and lat.witnesses[1] == Degree(0, 1)
    for wit, message in [
        (Degree(1, 0), r"is a 3-chain-via-\(1,0\) but its label predicts 3-chain-via-\(0,1\)"),
        (Degree(1, 1), r"middle witnessed by unexpected degree \(1,1\)"),
    ]:
        moved = CNLattice(lat.base, lat.elements, (lat.witnesses[0], wit, lat.witnesses[2]))
        with pytest.raises(VerificationError, match=message):
            classify_shape(moved)


def test_a_kept_shape_changes_no_equality_hash_or_repr():
    lat = build_cn_lattice(label(1, 2, 3))
    fresh = CNLattice(lat.base, lat.elements, lat.witnesses)
    classify_shape(lat)
    assert "_shape" in vars(lat) and "_shape" not in vars(fresh)
    assert lat == fresh and hash(lat) == hash(fresh) and repr(lat) == repr(fresh)


def test_list_elements_and_witnesses_are_stored_as_tuples():
    # A list input used to be stored as a list: the value was unhashable
    # and unequal to the lattice built from tuples.
    lat = build_cn_lattice(label(1, 2, 3))
    listed = CNLattice(lat.base, list(lat.elements), list(lat.witnesses))
    assert type(listed.elements) is tuple and type(listed.witnesses) is tuple
    assert listed == lat and hash(listed) == hash(lat) and repr(listed) == repr(lat)
    assert {lat: 1}[listed] == 1
    assert listed._record is lat._record


def test_the_order_is_derived_from_the_elements():
    # The (1|2) lattice at rank 3 is a diamond plus a top.  Its order comes
    # from the elements, so no call can hand it another one (a 5-chain
    # used to be accepted, and then judged distributive with no shape).
    lat = build_cn_lattice(label(1, 2, 3))
    chain = tuple(tuple(i <= j for j in range(5)) for i in range(5))
    with pytest.raises(TypeError):
        CNLattice(lat.base, lat.elements, chain, lat.witnesses)
    with pytest.raises(AttributeError, match="cannot assign to field 'order'"):
        lat.order = chain
    assert lat.order != chain and classify_shape(lat) == "diamond-plus-top"
    assert lat.__match_args__ == ("base", "elements", "witnesses")


def test_repeated_elements_raise_every_time():
    # Two equal elements lie below each other, the one way an inclusion
    # order fails antisymmetry; an equal copy is caught as the same object.
    lat = build_cn_lattice(label(1, 2, 3))
    for again in (lat.elements[1], SchubertUnion(lat.elements[1].components)):
        for _ in range(2):
            with pytest.raises(DomainError, match="lattice elements must be distinct"):
                CNLattice(lat.base, (*lat.elements, again), (*lat.witnesses, Degree(2, 2)))


def test_classify_shape_examples():
    assert classify_shape(build_cn_lattice(label(-3, 2, 2))) == "3-chain-via-(0,1)"
    assert classify_shape(build_cn_lattice(label(1, -2, 2))) == "3-chain-via-(1,0)"
    assert classify_shape(build_cn_lattice(label(1, -3, 2))) == "diamond"
    assert classify_shape(build_cn_lattice(label(2, -3, 2))) == "diamond"
    assert classify_shape(build_cn_lattice(label(2, 1, 2))) == "4-chain"


def test_shape_table_matches_golden():
    gold = load_golden("lattice_shapes_n2.json")["shapes"]
    got = {
        str(w): classify_shape(build_cn_lattice(w)) for w in enumerate_labels(2)
    }
    assert got == gold


def test_predicates_partition_and_match_structure():
    for n in (2, 3, 4, 5):
        shapes = set()
        for w in enumerate_labels(n):
            # classify_shape raises if structure and predicate disagree.
            shape = classify_shape(build_cn_lattice(w))
            assert shape == figure_shape_predicate(w)
            shapes.add(shape)
        # Every tag occurs at each of these ranks, and no other.
        assert shapes == set(lattice.SHAPE_TAGS), n


def test_size_bound_and_extremes():
    for n in (2, 3, 4):
        for w in enumerate_labels(n):
            lat = build_cn_lattice(w)
            assert lat.size <= 5
            assert lat.elements[0] == SchubertUnion((w,))
            assert SchubertUnion((top_label(n),)) in lat.elements


def test_representative_degrees_exhaust_a_bounded_sweep():
    for n in (2, 3):
        for w in enumerate_labels(n):
            lat = build_cn_lattice(w)
            swept = {gamma_closed_form(w, d) for d in degree_grid(Degree(3, 3))}
            assert swept == set(lat.elements)


def test_join_degree_bound():
    # The join of two neighborhood values is contained in the value at
    # the componentwise-max degree.
    for n in (2, 3):
        grid = degree_grid(Degree(2, 2))
        for w in enumerate_labels(n):
            lat = build_cn_lattice(w)
            index = {e: i for i, e in enumerate(lat.elements)}
            values = {d: gamma_closed_form(w, d) for d in grid}
            for d, d2 in itertools.combinations(grid, 2):
                i, j = index[values[d]], index[values[d2]]
                ubs = [
                    k
                    for k in range(lat.size)
                    if lat.order[i][k] and lat.order[j][k]
                ]
                join = next(
                    k for k in ubs if all(lat.order[k][m] for m in ubs)
                )
                assert union_leq_oracle(lat.elements[join], values[degree_join(d, d2)])


def test_finite_poset_rejects_bad_matrices():
    with pytest.raises(DomainError):
        FinitePoset(((True, True), (True, True)))  # not antisymmetric
    with pytest.raises(DomainError):
        FinitePoset(((False,),))  # not reflexive
    with pytest.raises(DomainError, match="square"):
        FinitePoset(((True, False), (True,)))
    # 0 <= 1 and 1 <= 2 but not 0 <= 2: reflexive and antisymmetric only.
    with pytest.raises(DomainError, match=r"not transitive at \(0,1,2\)"):
        FinitePoset(
            ((True, True, False), (False, True, True), (False, False, True))
        )


def test_cn_lattice_rejects_a_missing_or_misplaced_extreme():
    lat = build_cn_lattice(label(1, 2, 2))
    top = SchubertUnion((top_label(2),))
    assert lat.elements[0] == SchubertUnion((lat.base,)) and lat.size == 5

    def without(k):
        keep = [i for i in range(lat.size) if i != k]
        return lattice.CNLattice(
            lat.base,
            tuple(lat.elements[i] for i in keep),
            tuple(lat.witnesses[i] for i in keep),
        )

    for k in (0, lat.elements.index(top)):
        with pytest.raises(VerificationError, match="must contain its base and the top"):
            without(k)
    # A label below the base makes the base no minimum.
    with pytest.raises(
        VerificationError, match="base must be the minimum and the top the maximum"
    ):
        lattice.CNLattice(*_base_not_minimum())


@pytest.mark.parametrize("cut", ["elements", "witnesses"])
def test_cn_lattice_refuses_lengths_that_differ(cut):
    # The 3-chain of (-3|2): one field cut to its first entry used to build,
    # and its shape query then raised a bare IndexError.
    lat = build_cn_lattice(label(-3, 2, 3))
    assert lat.size == 3 and classify_shape(lat) == "3-chain-via-(0,1)"
    fields = {name: getattr(lat, name) for name in ("elements", "witnesses")}
    fields[cut] = fields[cut][:1]
    with pytest.raises(DomainError, match="differ in number"):
        CNLattice(lat.base, **fields)


def test_cn_lattice_finds_an_equal_top_and_refuses_a_missing_one():
    # The top is found from the end of the elements, by identity or, as
    # list.index does, by equality: an equal copy of the top label serves.
    lat = build_cn_lattice(label(1, 2, 3))
    top = top_label(3)
    assert lat.elements[-1].components == (top,)
    copy = weyl.FlagLabel(top.a, top.b, 3)
    assert copy == top and copy is not top
    elements = (*lat.elements[:-1], SchubertUnion((copy,)))
    rebuilt = CNLattice(lat.base, elements, lat.witnesses)
    assert rebuilt == lat and rebuilt.elements[-1].components[0] is copy
    # Moved first, the top is still found, and the derived order moves with it.
    perm = (lat.size - 1, *range(lat.size - 1))
    moved = CNLattice(lat.base, [elements[i] for i in perm], [lat.witnesses[i] for i in perm])
    assert moved.order == tuple(tuple(lat.order[i][j] for j in perm) for i in perm)
    below = SchubertUnion((label(-3, 2, 3),))
    with pytest.raises(VerificationError, match="must contain its base and the top"):
        CNLattice(lat.base, (*lat.elements[:-1], below), lat.witnesses)


@pytest.mark.parametrize("n", range(2, 17))
def test_order_matches_the_union_leq_oracle(n):
    # The independent check that the order derived from the masks is
    # containment: the oracle compares the components with bruhat_leq.
    for w in enumerate_labels(n):
        lat = build_cn_lattice(w)
        els = lat.elements
        assert lat.order == tuple(
            tuple(union_leq_oracle(x, y) for y in els) for x in els
        ), w


@pytest.mark.parametrize("n", [2, 3, 4])
def test_building_a_lattice_compares_no_pair(monkeypatch, n):
    # The order comes from the lower-set masks of weyl.bruhat_masks,
    # rebuilt here from an empty rank store.  The closed-form values are
    # taken before the spies go in: a two-component value checks its
    # antichain with bruhat_leq when it is built, and that is not the
    # order's work.
    weyl._rank.cache_clear()  # a memo hit would build nothing
    values = {
        (w, d): gamma_closed_form(w, d)
        for w in enumerate_labels(n)
        for d in REPRESENTATIVE_DEGREES
    }
    monkeypatch.setattr(lattice, "gamma_closed_form", lambda w, d: values[w, d])
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    leq = weyl.bruhat_leq.__wrapped__
    for module in (weyl, neighborhoods, lattice):
        monkeypatch.setattr(module, "bruhat_leq", spy("bruhat_leq", leq), raising=False)
    for module in (neighborhoods, lattice):
        monkeypatch.setattr(module, "union_leq", spy("union_leq", union_leq), raising=False)
    for w in enumerate_labels(n):
        assert build_cn_lattice(w).size >= 1
    assert sum(map(len, weyl._rank(n).lattices.values())) == len(enumerate_labels(n))
    assert calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_memoised_lattices_equal_fresh_builds(n):
    weyl._rank.cache_clear()
    lats = []
    for w in enumerate_labels(n):
        lat = build_cn_lattice(w)
        assert lat == lattice._lattice(w.a, w.b, n), w
        assert build_cn_lattice(w) is lat
        lats.append(lat)
        # The derived order passes the axioms, and its record is the kept one.
        assert lat._record is _poset(lat.order), w
    # Lattices with equal orders share their rows.
    assert len({tuple(map(id, lat.order)) for lat in lats}) == len({lat.order for lat in lats})


def test_a_parsed_label_gets_the_table_label_lattice():
    # A parse returns the table's label; an equal copy built by hand gets
    # the lattice of the table's label too.
    for n in (2, 4, 12):
        for w in enumerate_labels(n):
            assert parse_label(str(w), n) is w
            copy = label(w.a, w.b, n)
            assert copy == w and copy is not w
            lat = build_cn_lattice(copy)
            assert build_cn_lattice(w) is lat
            assert lat.base is w
            assert lat.elements[-1].components[0] is top_label(n)


def test_a_second_query_builds_nothing(monkeypatch):
    # The guard on the memo: a repeated query of one label, by the table
    # label or a parsed copy, reads no closed-form value.
    calls = []
    real = lattice.gamma_closed_form

    def counted(w, d):
        calls.append((w, d))
        return real(w, d)

    monkeypatch.setattr(lattice, "gamma_closed_form", counted)
    weyl._rank.cache_clear()
    for n in (2, 12):
        for w in enumerate_labels(n):
            first = build_cn_lattice(w)
            built = len(calls)
            assert built > 0
            assert build_cn_lattice(w) is first
            assert build_cn_lattice(parse_label(str(w), n)) is first
            assert len(calls) == built, w
    assert len(calls) == len(REPRESENTATIVE_DEGREES) * len(
        enumerate_labels(2) + enumerate_labels(12)
    )


def test_a_failed_build_raises_every_time_and_caches_nothing(monkeypatch):
    # With a wrong top, CNLattice's extreme check raises; no lattice is kept.
    monkeypatch.setattr(lattice, "top_label", lambda n: label(1, 2, n))
    weyl._rank.cache_clear()
    for _ in range(3):
        with pytest.raises(VerificationError, match="minimum"):
            build_cn_lattice(label(1, 2, 2))
    assert not any(weyl._rank(2).lattices.values())


def test_the_lattice_memo_holds_a_whole_rank():
    # One lattice per label, keyed on its letters: the memo is bounded by
    # the 4n^2 labels of its rank, and every repeated query is a hit.
    for n in (2, cli.MAX_RANK):
        weyl._rank.cache_clear()
        labels = enumerate_labels(n)
        first = [build_cn_lattice(w) for w in labels]
        assert all(build_cn_lattice(label(w.a, w.b, n)) is lat for w, lat in zip(labels, first))
        memo = weyl._rank(n).lattices
        assert sum(map(len, memo.values())) == len(labels) == 4 * n * n
        assert all(memo[w.a][w.b] is lat for w, lat in zip(labels, first))


def test_dot_and_json_exports(capsys):
    lat = build_cn_lattice(label(1, 2, 2))
    argv = ["lattice", "--n", "2", "--w", "1|2", "--format"]
    assert cli.main(argv + ["dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("->") == len(hasse_edges(lat))
    assert cli.main(argv + ["dot"]) == 0
    assert capsys.readouterr().out == dot
    assert cli.main(argv + ["json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["base"] == "1|2"
    assert payload["shape"] == "diamond-plus-top"
    assert payload["elements"][3] == ["-3|2", "-2|1"]
    assert payload["hasse"] == [[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]]
