"""Acceptance criteria, one test per criterion, with a printed verdict line.

Criterion 5 checks the rank-two quantum Bruhat graph against the reference
figure (29 classical + 18 quantum edges) plus exactly one edge,
2|1 -> 1|-2 at degree (0,1), which the shipped references force under the
documented edge rule.  The reference moment graph has the (0,1) edge
1|2 -- 1|-2, and 1|2 lies in X(2|1), so X(1|-2) lies in Gamma_(0,1)(X(2|1));
l(1|-2) = 3 = l(2|1) + 2 is the exact (0,1) gain.  The test rebuilds the
graph from the two reference files alone (``reference_qbg_oracle``) and
asserts that the built graph equals that rebuild.  Whether the printed
figure leaves the edge out or the paper uses a different edge rule is not
settled by anything in this repository; the figure's transcription
(``qbg_n2.json``) is kept as it is, and ``verify`` flags the difference.
"""

import itertools
import time
from collections import Counter

from oddflag.moment import Degree, build_moment_graph
from oddflag.neighborhoods import cross_check, gamma_closed_form
from oddflag.lattice import build_cn_lattice, classify_shape, figure_shape_predicate, is_distributive, is_lattice
from oddflag.qbg import build_qbg, chern_data, moment_discrepancies, property_o_verdict
from oddflag.verify import _edge_key_set, _golden_edge_keys, load_golden, run_suite
from oddflag.weyl import bruhat_leq, enumerate_labels, length, parse_label, top_label
from helpers import closure_oracle, minimal_representative, reference_qbg_oracle


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_enumeration():
    t0 = time.perf_counter()
    labs = enumerate_labels(2)
    levels = Counter(length(w) for w in labs)
    elapsed = time.perf_counter() - t0
    ok = (
        len(labs) == 16
        and [levels[k] for k in range(7)] == [1, 2, 3, 4, 3, 2, 1]
        and elapsed < 1.0
    )
    report(1, ok, f"16 labels, levels 1,2,3,4,3,2,1, {elapsed:.3f}s")
    assert ok


def test_criterion_2_moment_graph_counts():
    g = build_moment_graph(2)
    counts = {k.key: v for k, v in g.degree_counts().items()}
    gold = load_golden("moment_graph_n2.json")
    want_edges = {
        (frozenset((parse_label(e["u"], 2), parse_label(e["v"], 2))), tuple(e["deg"]))
        for e in gold["edges"]
    }
    got_edges = {(frozenset((e.u, e.v)), e.degree.key) for e in g.edges}
    ok = counts == {(1, 0): 8, (0, 1): 18, (1, 1): 18, (1, 2): 4} and got_edges == want_edges
    report(2, ok, f"degree counts {sorted(counts.items())}, golden match {got_edges == want_edges}")
    assert ok


def test_criterion_3_curve_neighborhood_cross_check():
    t0 = time.perf_counter()
    reports = [cross_check(n, Degree(2, 2)) for n in (2, 3, 4)]
    elapsed = time.perf_counter() - t0
    cells = sum(r.cells for r in reports)
    spot = load_golden("neighborhoods_n2.json")["cells"]
    spot_ok = all(
        [str(c) for c in gamma_closed_form(parse_label(s["w"], 2), Degree(*s["d"]))]
        == s["components"]
        for s in spot
    )
    ok = all(r.ok for r in reports) and cells == (16 + 36 + 64) * 9 and spot_ok and elapsed < 10.0
    report(3, ok, f"{cells} cells, 0 mismatches, spot values exact, {elapsed:.2f}s")
    assert ok


def test_criterion_4_lattices():
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 3, 4, 5):
        for w in enumerate_labels(n):
            lat = build_cn_lattice(w)
            assert is_lattice(lat)
            assert is_distributive(lat)
            assert classify_shape(lat) == figure_shape_predicate(w)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(4, ok, f"{checked} lattices distributive with matching shapes, {elapsed:.2f}s")
    assert ok


def test_criterion_5_qbg_matches_reference_figure():
    """The built graph is the figure plus the one edge the references force.

    The expected graph is rebuilt from ``moment_graph_n2.json`` and the
    classical edges of ``qbg_n2.json`` alone, by the documented rule (exact
    length gain 2*d1 + (2n-1)*d2 - 1, target below some component of the
    curve neighborhood).  That rebuild adds 2|1 -> 1|-2 at (0,1) to the
    figure; the repository cannot tell whether the printed figure omits
    the edge or the paper's rule differs, so that one edge is named here.
    """
    want = _golden_edge_keys()
    got = _edge_key_set(build_qbg(2))
    oracle = reference_qbg_oracle()
    named_present = ("1|2", "-2|1", (1, 1)) in got and ("1|2", "1|-3", (0, 1)) in got
    missing, extra = sorted(want - got), sorted(got - want)
    forced = {("2|1", "1|-2", (0, 1))}
    ok = not missing and named_present and got == oracle and oracle - want == forced
    report(
        5,
        ok,
        f"reference has {len(want)} edges, built graph {len(got)}; "
        f"missing={missing} extra={extra}",
    )
    assert ok, (
        f"missing figure edges {missing}, extra edges {extra}, "
        f"named edges present: {named_present}; "
        f"built minus rebuild {sorted(got - oracle)}, "
        f"rebuild minus built {sorted(oracle - got)}, "
        f"rebuild minus figure {sorted(oracle - want)}. "
        "Expected the figure plus only 2|1 -> 1|-2 at (0,1): the reference "
        "moment edge 1|2 -- 1|-2 of degree (0,1) starts inside X(2|1), and "
        "l(1|-2) = l(2|1) + 2 is the (0,1) gain"
    )


def test_criterion_5_strict_mode_negative_control():
    want = _golden_edge_keys()
    got = _edge_key_set(build_qbg(2, strict=True))
    ok = got != want
    report(5, ok, "strict-component mode fails the reference golden, as required")
    assert ok


def test_criterion_6_property_o():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in range(2, 7):
        v = property_o_verdict(n)  # verifies witness cycles edge by edge
        ok = ok and v.strongly_connected and v.gcd == 1 == chern_data(n).fano_index
        details.append(f"n={n} lens={[len(c) - 1 for c in v.witness_cycles]}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(6, ok, f"{'; '.join(details)}; {elapsed:.2f}s")
    assert ok


def test_criterion_7_bruhat_oracle_equivalence():
    mismatches = 0
    pairs = 0
    for n in (2, 3):
        leq = closure_oracle(n)
        labs = enumerate_labels(n)
        reps = {w: minimal_representative(w) for w in labs}
        for u, v in itertools.product(labs, repeat=2):
            pairs += 1
            if bruhat_leq(u, v) != leq(reps[u], reps[v]):
                mismatches += 1
    ok = mismatches == 0
    report(7, ok, f"{pairs} pairs compared against the reflection-closure oracle")
    assert ok


def test_criterion_8_discrepancy_list():
    found = {(str(u), str(v), d.key) for u, v, d in moment_discrepancies(2)}
    ok = ("1|2", "-2|1", (1, 1)) in found
    report(8, ok, f"moment_discrepancies(2) = {sorted(found)}")
    assert ok


def test_criterion_9_dimension_discrepancy():
    ok = length(top_label(2)) == 6 and all(
        length(top_label(n)) == 4 * n - 2 for n in range(2, 7)
    )
    flagged = [
        r for r in run_suite(2) if r.name == "dimension-formula" and r.status == "flagged"
    ]
    ok = ok and len(flagged) == 1 and "4n-6" in flagged[0].detail
    report(9, ok, "top length is 4n-2 (6 at n=2); the 4n-6 formula is flagged, not asserted")
    assert ok
