import json
import math

import pytest

from oddflag import qbg
from oddflag.cli import main
from oddflag.errors import DomainError
from oddflag.moment import Degree, build_moment_graph
from oddflag.qbg import (
    build_qbg,
    chern_data,
    cycle_length_gcd,
    digraph_period,
    is_strongly_connected,
    moment_discrepancies,
    property_o_verdict,
    strongly_connected,
    to_dot,
    to_json_dict,
    witness_cycles,
)
from oddflag.verify import KNOWN_EXTRA_QBG_EDGE, load_golden, run_suite
from oddflag.weyl import covers, enumerate_labels, label, length
from helpers import reference_qbg_oracle, simple_cycle_lengths


def edge_keys(g):
    return {(str(e.u), str(e.v), e.degree.key if e.degree else None) for e in g.edges}


def golden_keys():
    gold = load_golden("qbg_n2.json")
    return {
        (e["u"], e["v"], tuple(e["deg"]) if "deg" in e else None)
        for e in gold["edges"]
    }


def test_chern_data_examples():
    two = chern_data(2)
    assert (two.a1, two.a2) == (2, 3)
    assert str(two.div1) == "-3|-2" and str(two.div2) == "-2|3"
    three = chern_data(3)
    assert (three.a1, three.a2) == (2, 5)
    assert str(three.div2) == "-2|-4"
    for n in range(2, 7):
        assert chern_data(n).fano_index == 1
    with pytest.raises(DomainError):
        chern_data(1)


def test_edge_counts_at_rank_two():
    counts = build_qbg(2).counts()
    # One more (0,1) edge than the reference figure: 2|1 -> 1|-2 follows
    # from the two-component (0,1)-neighborhood of X(2|1).
    assert counts == {"classical": 29, "(1,0)": 8, "(0,1)": 7, "(1,1)": 4}


@pytest.mark.parametrize("n", range(2, 11))
def test_edge_counts_fit_closed_formulas(n):
    # Observed formulas, checked here rank by rank; not proved.
    assert build_qbg(n).counts() == {
        "classical": 10 * n * n - 4 * n - 3,
        "(1,0)": 2 * n * n,
        "(0,1)": 2 * n + 3,
        "(1,1)": 2 * n,
    }
    assert len(build_qbg(n).edges) == 12 * n * n


def test_one_build_per_rank_whatever_the_spelling(tmp_path):
    # The CLI asks for build_qbg(n, strict=False) and the verdict for
    # build_qbg(n); both must land on one cached graph.
    qbg._build_qbg.cache_clear()
    out = str(tmp_path / "g.json")
    assert main(["qbg", "--n", "3", "--format", "json", "--out", out]) == 0
    info = qbg._build_qbg.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert build_qbg(3) is build_qbg(3, strict=False) is qbg._build_qbg(3, False)
    assert qbg._build_qbg.cache_info().misses == 1

    qbg._build_qbg.cache_clear()
    run_suite(3)
    info = qbg._build_qbg.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    for n in (2, 3):
        assert build_qbg(n) is build_qbg(n, strict=False)
    assert qbg._build_qbg.cache_info().misses == 2


def test_named_edges_present():
    g = build_qbg(2)
    assert g.has_edge(label(1, 2, 2), label(-2, 1, 2))
    assert g.has_edge(label(1, 2, 2), label(1, -3, 2))
    assert (str(label(1, 2, 2)), str(label(-2, 1, 2)), (1, 1)) in edge_keys(g)
    assert (str(label(1, 2, 2)), str(label(1, -3, 2)), (0, 1)) in edge_keys(g)


def test_quantum_pair_without_moment_edge():
    pairs = build_moment_graph(2).pair_set
    assert frozenset((label(1, 2, 2), label(-2, 1, 2))) not in pairs
    assert frozenset((label(1, 2, 2), label(1, -3, 2))) in pairs


def test_graph_is_reference_figure_plus_one_edge():
    got = edge_keys(build_qbg(2))
    want = golden_keys()
    assert want <= got
    assert got - want == {KNOWN_EXTRA_QBG_EDGE}
    # the flagged edge is the one the references force, derived independently
    assert reference_qbg_oracle() - want == {KNOWN_EXTRA_QBG_EDGE}


def test_strict_mode_differs_from_reference_figure():
    got = edge_keys(build_qbg(2, strict=True))
    want = golden_keys()
    assert got != want
    assert want - got == {("1|2", "1|-3", (0, 1))}
    assert got - want == {KNOWN_EXTRA_QBG_EDGE}
    assert reference_qbg_oracle() - want == {KNOWN_EXTRA_QBG_EDGE}


def test_classical_edges_are_lower_covers():
    for n in (2, 3):
        g = build_qbg(n)
        got = {(e.u, e.v) for e in g.edges if e.degree is None}
        want = {
            (u, v) for u in enumerate_labels(n) for v in covers(u)
        }
        assert got == want


def test_length_equations():
    for n in (2, 3):
        for e in build_qbg(n).edges:
            gap = length(e.v) - length(e.u)
            if e.degree is None:
                assert gap == -1
            else:
                assert gap == 2 * e.degree.d1 + (2 * n - 1) * e.degree.d2 - 1


def test_degree_one_zero_edges_are_column_swaps():
    from oddflag.weyl import FlagLabel

    for n in (2, 3):
        got = {
            (e.u, e.v)
            for e in build_qbg(n).edges
            if e.degree == Degree(1, 0)
        }
        want = {
            (w, FlagLabel(w.b, w.a, n))
            for w in enumerate_labels(n)
            if w.a < w.b
        }
        assert got == want
        assert len(got) == 2 * n * n


def test_strong_connectivity():
    for n in (2, 3):
        assert is_strongly_connected(build_qbg(n))
    assert strongly_connected({1: []})
    assert not strongly_connected({1: [2], 2: [1], 3: []})
    with pytest.raises(DomainError):
        strongly_connected({})


def test_digraph_period_synthetic():
    assert digraph_period({1: [2], 2: [1]}) == 2
    assert digraph_period({1: [2], 2: [3], 3: [1]}) == 3
    assert digraph_period({1: [2], 2: [3], 3: [1, 1]}) == 3
    with pytest.raises(DomainError):
        digraph_period({1: [2], 2: []})  # not strongly connected
    with pytest.raises(DomainError):
        digraph_period({1: []})  # no closed walks


def test_cycle_gcd_matches_simple_cycle_oracle():
    g = build_qbg(2)
    lengths = simple_cycle_lengths(g.successors, 8)
    assert 2 in lengths and 3 in lengths
    assert math.gcd(*lengths) == 1
    assert cycle_length_gcd(g) == 1


def test_witness_cycles_shape():
    short, long = witness_cycles(4)
    assert len(short) - 1 == 2
    assert len(long) - 1 == 7
    assert [str(w) for w in long] == [
        "1|2", "1|-3", "1|-4", "1|-5", "1|5", "1|4", "1|3", "1|2",
    ]


def test_property_o_verdict():
    v = property_o_verdict(2)
    assert v.holds and v.gcd == 1 and v.strongly_connected
    assert [len(c) - 1 for c in v.witness_cycles] == [2, 3]
    v4 = property_o_verdict(4)
    assert v4.holds and [len(c) - 1 for c in v4.witness_cycles] == [2, 7]
    with pytest.raises(DomainError):
        property_o_verdict(1)


def test_moment_discrepancies():
    found = moment_discrepancies(2)
    keyed = [(str(u), str(v), d.key) for u, v, d in found]
    assert ("1|2", "-2|1", (1, 1)) in keyed
    gold = load_golden("discrepancies_n2.json")["pairs"]
    assert keyed == [(e["u"], e["v"], tuple(e["deg"])) for e in gold]
    # the orange edge from the bottom label is a moment edge, so absent
    assert ("1|2", "1|-3", (0, 1)) not in keyed
    for u, v, _ in found:
        assert abs(length(u) - length(v)) >= 2


def test_exports():
    g = build_qbg(2)
    dot = to_dot(g)
    assert dot.count("->") == len(g.edges)
    assert to_dot(g) == dot
    payload = to_json_dict(g, property_o_verdict(2))
    assert payload["n"] == 2 and not payload["strict"]
    assert payload["verdict"]["holds"] is True
    assert json.loads(json.dumps(payload)) == payload
    kinds = {e["kind"] for e in payload["edges"]}
    assert kinds == {"classical", "quantum"}
