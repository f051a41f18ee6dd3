import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddflag import qbg, weyl
from oddflag.cli import main
from oddflag.errors import DomainError
from oddflag.moment import Degree, build_moment_graph, moment_masks
from oddflag.neighborhoods import gamma_closed_form
from oddflag.qbg import (
    build_qbg,
    chern_data,
    digraph_period,
    moment_discrepancies,
    property_o_verdict,
    strongly_connected,
    witness_cycles,
)
from oddflag.verify import (
    KNOWN_EXTRA_QBG_EDGE,
    _edge_key_set,
    _golden_edge_keys,
    load_golden,
    run_suite,
)
from oddflag.weyl import (
    FlagLabel,
    covers,
    enumerate_labels,
    label,
    length,
    letter_rank,
)
from helpers import (
    edge_counts,
    moment_neighbors,
    reference_qbg_oracle,
    simple_cycle_lengths,
    strongly_connected_oracle,
    successors,
    uncut_qbg_edges,
)


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
    counts = edge_counts(build_qbg(2))
    # One more (0,1) edge than the reference figure: 2|1 -> 1|-2 follows
    # from the two-component (0,1)-neighborhood of X(2|1).
    assert counts == {"classical": 29, "(1,0)": 8, "(0,1)": 7, "(1,1)": 4}


@pytest.mark.parametrize("n", range(2, 11))
def test_edge_counts_fit_closed_formulas(n):
    # Observed formulas, checked here rank by rank; not proved.
    assert edge_counts(build_qbg(n)) == {
        "classical": 10 * n * n - 4 * n - 3,
        "(1,0)": 2 * n * n,
        "(0,1)": 2 * n + 3,
        "(1,1)": 2 * n,
    }
    assert len(build_qbg(n).edges) == 12 * n * n


def test_one_build_per_rank_whatever_the_spelling(tmp_path, monkeypatch):
    # The CLI asks for build_qbg(n, strict=False) and the verdict for
    # build_qbg(n); both must land on the one graph the rank object keeps.
    builds = []
    real = qbg._build_qbg

    def counted(n, strict):
        builds.append((n, strict))
        return real(n, strict)

    monkeypatch.setattr(qbg, "_build_qbg", counted)
    weyl._rank.cache_clear()
    out = str(tmp_path / "g.json")
    assert main(["qbg", "--n", "3", "--format", "json", "--out", out]) == 0
    assert builds == [(3, False)]
    assert build_qbg(3) is build_qbg(3, strict=False) is weyl._rank(3).graphs[False]
    assert builds == [(3, False)]

    weyl._rank.cache_clear()
    builds.clear()
    run_suite(3)
    assert builds == [(2, False), (3, False)]
    for n in (2, 3):
        assert build_qbg(n) is build_qbg(n, strict=False)
    assert builds == [(2, False), (3, False)]


@pytest.mark.parametrize("strict", ["no", 0, 1, None])
def test_build_refuses_a_strict_flag_that_is_not_a_bool(strict):
    # "no" is true, so it would build the strict graph under its own key,
    # and 0 == False as a key, so it would be served the default graph.
    # Each is refused before the rank's graph memo is read.
    weyl._rank.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError, match="strict must be a bool"):
            build_qbg(2, strict)
        build_qbg(2)
        assert list(weyl._rank(2).graphs) == [False]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", range(2, 9))
def test_length_cut_keeps_the_uncut_edges_in_order(n, strict):
    # The build reads its targets off the Bruhat masks; the oracle tests
    # every target of every degree with bruhat_leq.
    got = [(e.u, e.v, e.degree) for e in build_qbg(n, strict).edges]
    assert got == uncut_qbg_edges(n, strict)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", range(2, 13))
def test_no_two_edges_join_one_pair(n, strict):
    # helpers.successors keeps every edge's target, since no pair repeats
    # (the argument is in its docstring).
    g = build_qbg(n, strict)
    assert len({(e.u, e.v) for e in g.edges}) == len(g.edges)
    assert sum(map(len, successors(g).values())) == len(g.edges)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", range(2, 7))
def test_build_makes_no_bruhat_comparison_of_its_own(monkeypatch, n, strict):
    # Classical and quantum targets are both read off weyl.bruhat_masks,
    # so the build still gives the uncut edges when qbg's own Bruhat
    # comparison is unusable.
    def refuse(v, c):
        raise AssertionError(f"build_qbg compared {v} with {c}")

    monkeypatch.setattr(qbg, "bruhat_leq", refuse)
    got = [(e.u, e.v, e.degree) for e in qbg._build_qbg(n, strict).edges]
    assert got == uncut_qbg_edges(n, strict)


@pytest.mark.parametrize("n", range(2, 17))
def test_only_three_degrees_rise_far_enough(n):
    # The bound in the module docstring: the length formula it uses, and,
    # per regime of the closed form, a largest rise l(c) - l(u) below the
    # gain of every degree the build skips, up to the top length.
    labs = enumerate_labels(n)
    for w in labs:
        ra, rb = letter_rank(w.a, n), letter_rank(w.b, n)
        assert length(w) == ra + rb - 2 - (rb > ra) - (rb > 2 * n + 3 - ra), w
    rise = {
        regime: max(
            length(c) - length(u)
            for u in labs
            for c in gamma_closed_form(u, Degree(*regime)).components
        )
        for regime in ((1, 0), (0, 1), (0, 2), (1, 1), (1, 2))
    }
    assert rise == {
        (1, 0): 1,
        (0, 1): 2 * n - 1,
        (0, 2): 2 * n - 1,
        (1, 1): 2 * n,
        (1, 2): 4 * n - 2,
    }
    top = max(length(w) for w in labs)
    kept = [d for d, _gain in qbg._quantum_degrees(chern_data(n))]
    assert [d.key for d in kept] == [(0, 1), (1, 0), (1, 1)]
    for d1 in range(top + 1):
        for d2 in range(top + 1):
            gain = 2 * d1 + (2 * n - 1) * d2 - 1
            if (d1, d2) == (0, 0) or Degree(d1, d2) in kept or gain > top:
                continue
            assert rise[min(d1, 1), min(d2, 2)] < gain, (d1, d2)


def test_named_edges_present():
    g = build_qbg(2)
    succ = successors(g)
    assert label(-2, 1, 2) in succ[label(1, 2, 2)]
    assert label(1, -3, 2) in succ[label(1, 2, 2)]
    assert (str(label(1, 2, 2)), str(label(-2, 1, 2)), (1, 1)) in _edge_key_set(g)
    assert (str(label(1, 2, 2)), str(label(1, -3, 2)), (0, 1)) in _edge_key_set(g)


def test_quantum_pair_without_moment_edge():
    labels = enumerate_labels(2)
    near = moment_masks(2)

    def joined(u, v):
        i, j = labels.index(u), labels.index(v)
        return any(masks[i] >> j & 1 for masks in near.values())

    assert not joined(label(1, 2, 2), label(-2, 1, 2))
    assert joined(label(1, 2, 2), label(1, -3, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_discrepancies_match_the_object_graph(n):
    # The quantum edges whose ends no edge of the reflection-built graph
    # joins, in the order moment_discrepancies sorts them.
    near = moment_neighbors(build_moment_graph(n))
    adjacent = {(u, x) for u, out in near.items() for x, _degree, _root in out}
    position = {v: i for i, v in enumerate(enumerate_labels(n))}
    want = sorted(
        (
            (e.u, e.v, e.degree)
            for e in build_qbg(n).edges
            if e.degree is not None and (e.u, e.v) not in adjacent
        ),
        key=lambda t: (position[t[0]], position[t[1]], t[2].key),
    )
    assert moment_discrepancies(n) == tuple(want)


def test_graph_is_reference_figure_plus_one_edge():
    got = _edge_key_set(build_qbg(2))
    want = _golden_edge_keys()
    assert want <= got
    assert got - want == {KNOWN_EXTRA_QBG_EDGE}
    # the flagged edge is the one the references force, derived independently
    assert reference_qbg_oracle() - want == {KNOWN_EXTRA_QBG_EDGE}


def test_strict_mode_differs_from_reference_figure():
    got = _edge_key_set(build_qbg(2, strict=True))
    want = _golden_edge_keys()
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
            if letter_rank(w.a, n) < letter_rank(w.b, n)
        }
        assert got == want
        assert len(got) == 2 * n * n


def test_strong_connectivity():
    for n in (2, 3):
        assert strongly_connected(successors(build_qbg(n)))
    assert strongly_connected({1: []})
    assert not strongly_connected({1: [2], 2: [1], 3: []})
    with pytest.raises(DomainError):
        strongly_connected({})
    with pytest.raises(DomainError, match="successor 2 is not a vertex"):
        strongly_connected({1: [2]})
    with pytest.raises(DomainError, match="successor 3 is not a vertex"):
        strongly_connected({1: [], 2: [3]})  # 2 is not reached from 1


def test_digraph_period_synthetic():
    assert digraph_period({1: [2], 2: [1]}) == 2
    assert digraph_period({1: [2], 2: [3], 3: [1]}) == 3
    assert digraph_period({1: [2], 2: [3], 3: [1, 1]}) == 3
    with pytest.raises(DomainError):
        digraph_period({1: [2], 2: []})  # not strongly connected
    with pytest.raises(DomainError):
        digraph_period({1: []})  # no closed walks
    with pytest.raises(DomainError, match="successor 2 is not a vertex"):
        digraph_period({1: [2]})


def test_cycle_gcd_matches_simple_cycle_oracle():
    succ = successors(build_qbg(2))
    lengths = simple_cycle_lengths(succ, 8)
    assert 2 in lengths and 3 in lengths
    assert math.gcd(*lengths) == 1
    assert digraph_period(succ) == 1


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


@pytest.mark.parametrize("n", range(2, 17))
def test_verdict_agrees_with_the_label_keyed_functions(n):
    # The verdict searches the adjacency by label index; the public
    # functions search the same graph keyed by its labels.
    succ = successors(build_qbg(n))
    v = property_o_verdict(n)
    assert v.strongly_connected is strongly_connected(succ) is True
    assert v.gcd == digraph_period(succ) == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_connectivity_matches_the_closure_oracle(n):
    g = build_qbg(n)
    pairs = [(e.u, e.v) for e in g.edges]
    assert property_o_verdict(n).strongly_connected
    assert strongly_connected_oracle(g.vertices, pairs)
    # Classical edges alone only go down, so both routes must refuse them.
    down = [(e.u, e.v) for e in g.edges if e.degree is None]
    assert not strongly_connected_oracle(g.vertices, down)
    succ = {w: [] for w in g.vertices}
    for u, w in down:
        succ[u].append(w)
    assert not strongly_connected(succ)


def test_a_verdict_runs_two_searches_over_label_indices(monkeypatch):
    # One forward and one backward search, over int keys.
    roots = []
    real = qbg._depths

    def spy(succ, root):
        assert all(type(u) is int for u in succ)
        roots.append(root)
        return real(succ, root)

    monkeypatch.setattr(qbg, "_depths", spy)
    weyl._rank.cache_clear()
    verdict = property_o_verdict(5)
    assert verdict.holds
    assert roots == [0, 0]


def test_a_verdict_hashes_no_label(monkeypatch):
    # The verdict searches the adjacency of label indices that the cached
    # build keeps, and finds the witness labels by their letters, so it
    # hashes no FlagLabel.
    # Each rank is asked again while its graph is kept: the rank store
    # holds two ranks, so a later pass over all four would rebuild.
    def refuse(self):
        raise AssertionError(f"the verdict hashed {self}")

    for n in (2, 3, 5, 12):
        want = property_o_verdict(n)
        with monkeypatch.context() as m:
            m.setattr(FlagLabel, "__hash__", refuse)
            assert property_o_verdict(n) == want and want.holds


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("n", range(2, 7))
def test_a_cold_build_computes_each_length_once(n):
    # A fresh interpreter, so every per-rank table is cold.  The label
    # enumeration computes each label's length once, for its sort key, and
    # the Bruhat masks, the quantum graph and the closed form's
    # two-component unions read it from there.
    code = (
        "from oddflag import qbg, weyl\n"
        "calls = []\n"
        "real = weyl.length\n"
        "def spy(w):\n"
        "    calls.append((w.a, w.b, w.n))\n"
        "    return real(w)\n"
        "weyl.length = spy\n"
        f"qbg.build_qbg({n})\n"
        "print(len(calls), len(set(calls)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{4 * n * n} {4 * n * n}\n"


def test_a_cold_build_reads_each_reach_from_the_kept_mask():
    # A fresh interpreter with the rank-12 Bruhat masks and closed-form rows
    # built and the graph cold.  The non-strict reach is the union's kept
    # lower-set mask.  The rows' one-component unions got theirs when the
    # rows were built, so the build hashes a label only for the components
    # of the two two-component values, whose masks it reads first: 4 in
    # all, where an index lookup per component per (label, degree) hashed
    # 1,199 labels and one per distinct union 315.  One probe hash, made
    # before the build, shows that the spy is installed.
    code = (
        "from oddflag import qbg, weyl\n"
        "rank = weyl._rank(12)\n"
        "rank.masks, rank._closed_form_rows\n"
        "calls = []\n"
        "real = weyl.FlagLabel.__hash__\n"
        "def spy(w):\n"
        "    calls.append(w)\n"
        "    return real(w)\n"
        "weyl.FlagLabel.__hash__ = spy\n"
        "hash(rank.labels[0])\n"
        "probe = len(calls)\n"
        "qbg.build_qbg(12)\n"
        "print(probe, len(calls) - probe)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    probe, hashes = map(int, proc.stdout.split())
    assert probe == 1
    assert hashes <= 4


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12, 16])
def test_the_json_export_is_the_payload_dump(capsys, n, strict):
    # The CLI writes each edge from a template; the text must be the one
    # json.dumps with indent=2 makes of the payload it holds.
    argv = ["qbg", "--n", str(n), "--format", "json"] + ["--strict-qbg"] * strict
    assert main(argv) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert json.dumps(payload, indent=2) + "\n" == out
    assert payload["edges"] == [
        {"u": str(e.u), "v": str(e.v), "kind": e.kind}
        if e.degree is None
        else {"u": str(e.u), "v": str(e.v), "kind": e.kind, "deg": [e.degree.d1, e.degree.d2]}
        for e in build_qbg(n, strict).edges
    ]
    assert payload["strict"] is strict and ("verdict" in payload) is not strict


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


def test_exports(capsys):
    g = build_qbg(2)
    assert main(["qbg", "--n", "2", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("->") == len(g.edges)
    assert main(["qbg", "--n", "2", "--format", "dot"]) == 0
    assert capsys.readouterr().out == dot
    assert main(["qbg", "--n", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    verdict = property_o_verdict(2)
    assert payload["n"] == 2 and not payload["strict"]
    assert payload["verdict"] == {
        "strongly_connected": True,
        "gcd": 1,
        "fano_index": 1,
        "holds": True,
        "witness_cycles": [[str(w) for w in c] for c in verdict.witness_cycles],
    }
    kinds = {e["kind"] for e in payload["edges"]}
    assert kinds == {"classical", "quantum"}
