"""Every failure report of ``verify``, each reached by one monkeypatch.

Each case replaces one name in ``oddflag.verify``'s namespace (or, for the
cross-check, in ``oddflag.neighborhoods``'s, or the search index on every
rank object) so that one chosen branch of
one check reports a failure, runs ``run_suite(2)``, and pins that row's
name, rank, status and detail text.  Other rows may fail as well under the
same patch; only the targeted row is asserted.
"""

import sys

import pytest

from oddflag import cli, neighborhoods, verify, weyl
from oddflag.errors import DomainError, VerificationError
from oddflag.moment import Degree, MomentGraph
from oddflag.qbg import ChernData, PropertyOVerdict
from oddflag.weyl import parse_label
from helpers import edge_masks, skipping_path

REAL = {
    name: getattr(verify, name)
    for name in (
        "enumerate_labels",
        "build_moment_graph",
        "moment_masks",
        "gamma_closed_form",
        "load_golden",
        "property_o_verdict",
        "chern_data",
    )
}
REAL_CROSS_CHECK_CLOSED_FORM = neighborhoods.gamma_closed_form
REAL_GAMMA_BFS = cli.gamma_bfs


def _edit_golden(name, edit):
    """A ``load_golden`` that passes the payload of ``name`` through ``edit``."""

    def load(which):
        data = REAL["load_golden"](which)
        if which == name:
            edit(data)
        return data

    return "load_golden", load


def _raise(message):
    def fail(*_args):
        raise VerificationError(message)

    return fail


def _closed_form_at_01(replace):
    """A closed form whose (0,1) value is ``replace(w)`` where that is not None."""

    def gamma(w, d):
        if d.key == (0, 1) and replace(w) is not None:
            return REAL["gamma_closed_form"](w, replace(w))
        return REAL["gamma_closed_form"](w, d)

    return "gamma_closed_form", gamma


def _one_more_edge(n):
    g = REAL["build_moment_graph"](n)
    return MomentGraph(g.n, g.vertices, g.edges + g.edges[:1])


def _verdict_with_holds_false(n):
    v = REAL["property_o_verdict"](n)
    return PropertyOVerdict(v.n, v.strongly_connected, v.gcd, v.fano_index, False, v.witness_cycles)


def _chern_data_with_index_3(n):
    c = REAL["chern_data"](n)
    return ChernData(c.n, c.a1, c.a2, c.div1, c.div2, 3)


def _skipping_path_index(rank):
    """The search index of every other label in one path of (0,1) edges.

    A walk along it skips the labels between its stops, so the search's
    reached sets are not Bruhat lower sets and its certificate raises.
    """
    g = skipping_path(rank.n)
    return neighborhoods._SearchIndex(g.vertices, edge_masks(g))


def _without_bar_swaps(n):
    """The letter rule's masks with the (1,2) class left out."""
    return {c: m for c, m in REAL["moment_masks"](n).items() if c != (1, 2)}


def _shifted_cross_check_closed_form(w, d):
    if (str(w), d.key) == ("1|2", (0, 0)):
        return REAL_CROSS_CHECK_CLOSED_FORM(w, Degree(1, 0))
    return REAL_CROSS_CHECK_CLOSED_FORM(w, d)


# (case id, patch, strict_qbg, row name, detail of the "fail" row).  A patch
# is a (name, replacement) pair set in oddflag.verify, a (module, name,
# replacement) triple, or None.
CASES = [
    (
        "enumeration-count",
        ("enumerate_labels", lambda n: REAL["enumerate_labels"](n)[1:]),
        False,
        "enumeration",
        "expected 16 labels, found 15",
    ),
    (
        "enumeration-levels",
        ("length", lambda w: 0),
        False,
        "enumeration",
        "level distribution {0: 16}",
    ),
    (
        "moment-graph-degree-classes",
        ("degree_of_root", lambda r: Degree(1, 0)),
        False,
        "moment-graph",
        "degree classes sized {(1, 0): 8}",
    ),
    (
        "moment-graph-reference-edges",
        _edit_golden("moment_graph_n2.json", lambda g: g["edges"].pop(0)),
        False,
        "moment-graph",
        "1 edges differ from the reference figure",
    ),
    (
        "moment-graph-edge-counts",
        ("build_moment_graph", _one_more_edge),
        False,
        "moment-graph",
        "edge counts {(0, 1): 19, (1, 0): 8, (1, 1): 18, (1, 2): 4}",
    ),
    (
        "moment-graph-letter-rule",
        ("moment_masks", _without_bar_swaps),
        False,
        "moment-graph",
        "8 labels have other neighbours by the letter rule, first 2|3",
    ),
    (
        "curve-neighborhoods-cross-check",
        (neighborhoods, "gamma_closed_form", _shifted_cross_check_closed_form),
        False,
        "curve-neighborhoods",
        "n=2: 1 of 144 cells disagree; first at w=1|2, d=(0,0): "
        "search gives [1|2], closed form gives [2|1]",
    ),
    (
        "curve-neighborhoods-certificate",
        (weyl._Rank, "_search_index", property(_skipping_path_index)),
        False,
        "curve-neighborhoods",
        "search from 1|2: the labels reached within (0,2) do not form a "
        "Bruhat lower set",
    ),
    (
        "curve-neighborhoods-reference-cell",
        _edit_golden(
            "neighborhoods_n2.json", lambda g: g["cells"][0].update(components=[])
        ),
        False,
        "curve-neighborhoods",
        "reference cell w=1|2, d=(1,0): got ['2|1']",
    ),
    (
        "second-component-missing",
        _closed_form_at_01(lambda w: Degree(0, 0) if w.a == 2 else None),
        False,
        "closed-form-second-component",
        "base 2|1: expected the extra component 1|-2, got ['2|1']",
    ),
    (
        "second-component-unexpected",
        _closed_form_at_01(lambda w: Degree(2, 2) if w.a != 2 else None),
        False,
        "closed-form-second-component",
        "base 1|2: unexpected components ['-2|-3']",
    ),
    (
        "lattices-not-a-lattice",
        ("is_lattice", lambda lat: False),
        False,
        "lattices",
        "base 1|2: not a lattice",
    ),
    (
        "lattices-not-distributive",
        ("is_distributive", lambda lat: False),
        False,
        "lattices",
        "base 1|2: not distributive",
    ),
    (
        "lattices-unknown-shape",
        ("classify_shape", _raise("no known shape")),
        False,
        "lattices",
        "no known shape",
    ),
    (
        "lattices-sweep",
        ("degree_grid", lambda dmax: [Degree(0, 0)]),
        False,
        "lattices",
        "base 1|2: the representative degrees miss values of the (3,3) sweep",
    ),
    (
        "lattices-shape-table",
        _edit_golden(
            "lattice_shapes_n2.json", lambda g: g["shapes"].update({"1|2": "bogus"})
        ),
        False,
        "lattices",
        "shape table differs: {'1|2': ('diamond-plus-top', 'bogus')}",
    ),
    (
        "qbg-golden-uncharacterized",
        _edit_golden("qbg_n2.json", lambda g: g["edges"].pop(0)),
        False,
        "qbg-golden",
        "uncharacterized difference: missing [], "
        "extra [('2|1', '1|-2', (0, 1)), ('2|1', '1|2', None)]",
    ),
    (
        "qbg-strict-golden",
        None,
        True,
        "qbg-strict-golden",
        "strict mode differs from the reference figure: missing "
        "[('1|2', '1|-3', (0, 1))], extra [('2|1', '1|-2', (0, 1))]",
    ),
    (
        "property-o-raises",
        ("property_o_verdict", _raise("witness edge missing")),
        False,
        "property-o",
        "witness edge missing",
    ),
    (
        "property-o-negative",
        ("property_o_verdict", _verdict_with_holds_false),
        False,
        "property-o",
        "holds=False strongly_connected=True gcd=1 fano_index=1",
    ),
    (
        "property-o-fano-index",
        ("chern_data", _chern_data_with_index_3),
        False,
        "property-o",
        "holds=True strongly_connected=True gcd=1 fano_index=3",
    ),
    (
        "moment-discrepancies-gap",
        (
            "moment_discrepancies",
            lambda n: ((parse_label("1|2", n), parse_label("2|1", n), Degree(1, 0)),),
        ),
        False,
        "moment-discrepancies",
        "pair 1|2, 2|1 has length gap below 2",
    ),
    (
        "moment-discrepancies-reference",
        _edit_golden("discrepancies_n2.json", lambda g: g["pairs"].pop(0)),
        False,
        "moment-discrepancies",
        "expected [('2|1', '1|-2', (0, 1))], "
        "got [('1|2', '-2|1', (1, 1)), ('2|1', '1|-2', (0, 1))]",
    ),
    (
        "dimension-formula",
        ("top_label", lambda n: parse_label("1|2", n)),
        False,
        "dimension-formula",
        "root counting gives length 0 for the top cell",
    ),
]


def _apply(monkeypatch, patch):
    if patch is None:
        return
    if len(patch) == 3:
        monkeypatch.setattr(*patch)
    else:
        monkeypatch.setattr(verify, *patch)


@pytest.mark.parametrize(
    "patch, strict, name, detail",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_each_failure_branch_reports_its_row(monkeypatch, patch, strict, name, detail):
    _apply(monkeypatch, patch)
    results = verify.run_suite(2, strict_qbg=strict)
    rows = [r for r in results if r.name == name]
    assert [(r.name, r.n, r.status, r.detail) for r in rows] == [
        (name, 2, "fail", detail)
    ]
    assert verify.suite_passed(results) is False


@pytest.mark.parametrize("n_max", [1, 0, 2.5, True, "3"])
def test_run_suite_refuses_a_rank_that_is_not_an_int_of_two_or_more(n_max):
    # An empty suite would pass, so a rank below 2 must not yield one.
    with pytest.raises(DomainError, match="rank must be an integer >= 2"):
        verify.run_suite(n_max)


def test_every_check_name_has_a_failure_case():
    names = {r.name for r in verify.run_suite(2)} | {"qbg-strict-golden"}
    assert names == {case[3] for case in CASES}


def test_a_failed_check_makes_the_cli_exit_1(monkeypatch, capsys):
    _apply(monkeypatch, ("top_label", lambda n: parse_label("1|2", n)))
    assert cli.main(["verify", "--n-max", "2"]) == cli.CHECK_FAILED
    assert '"passed": false' in capsys.readouterr().out


def test_qbg_golden_passes_on_an_exact_match(monkeypatch):
    u, v, d = verify.KNOWN_EXTRA_QBG_EDGE
    _apply(
        monkeypatch,
        _edit_golden(
            "qbg_n2.json", lambda g: g["edges"].append({"u": u, "v": v, "deg": list(d)})
        ),
    )
    rows = [r for r in verify.run_suite(2) if r.name == "qbg-golden"]
    assert [(r.status, r.detail) for r in rows] == [("pass", "exact match")]


def test_nbhd_oracle_disagreement_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "gamma_bfs", lambda w, d: REAL_GAMMA_BFS(w, Degree(d.d1 + 1, d.d2))
    )
    code = cli.main(["nbhd", "--n", "2", "--w", "1|2", "--d", "0,0", "--oracle"])
    captured = capsys.readouterr()
    assert code == cli.CHECK_FAILED and captured.out == ""
    assert captured.err == (
        "oddflag: closed form [1|2] disagrees with the search [2|1]\n"
    )


def test_a_run_builds_the_object_graph_once_at_rank_two(monkeypatch):
    # The moment-graph row compares every rank's reflections as masks and
    # builds the graph as objects only for the rank-2 reference figure and
    # edge counts.  One build keeps one id() for the whole run, so a tracer
    # that counts each graph once by its id() counts its 48 edges exactly.
    built = []

    def spy(n):
        built.append(n)
        return REAL["build_moment_graph"](n)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "oddflag":
            for attr, value in list(vars(module).items()):
                if value is REAL["build_moment_graph"]:
                    monkeypatch.setattr(module, attr, spy)
    assert verify.suite_passed(verify.run_suite(4))
    assert built == [2]
