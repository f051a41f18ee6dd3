import json
from collections import Counter

import pytest

from oddflag import moment, verify
from oddflag.cli import main
from oddflag.errors import DomainError
from oddflag.moment import (
    Degree,
    build_moment_graph,
    degree_of_root,
    moment_masks,
    to_dot,
    to_json_dict,
)
from oddflag.verify import load_golden
from oddflag.weyl import (
    FlagLabel,
    Root,
    label,
    moment_roots,
    parse_label,
    reflect,
)
from helpers import degree_join, edge_masks, even_moment_edges, moment_neighbors


def test_degree_examples():
    assert degree_of_root(Root("diff", 1, 2)) == Degree(1, 0)
    assert degree_of_root(Root("long", 2)) == Degree(0, 1)
    assert degree_of_root(Root("sum", 1, 2)) == Degree(1, 2)
    assert degree_of_root(Root("diff", 1, 5)) == Degree(1, 1)
    assert degree_of_root(Root("sum", 2, 3)) == Degree(0, 1)


def test_degree_rejects_parabolic_roots():
    with pytest.raises(DomainError):
        degree_of_root(Root("diff", 3, 4))
    with pytest.raises(DomainError):
        degree_of_root(Root("long", 4))


def test_degree_partition_sizes():
    for n in (2, 3, 4, 5):
        sizes = Counter(degree_of_root(r).key for r in moment_roots(n))
        assert sizes == {
            (1, 0): 1,
            (0, 1): 2 * n - 1,
            (1, 1): 2 * n - 1,
            (1, 2): 1,
        }
        assert sum(sizes.values()) == 4 * n


def test_degree_validation_and_arithmetic():
    with pytest.raises(DomainError):
        Degree(-1, 0)
    assert Degree(1, 0) + Degree(0, 2) == Degree(1, 2)
    assert Degree(1, 1) <= Degree(2, 1)
    assert not Degree(1, 1) <= Degree(0, 5)
    # >= is the reflected <=, with no method of its own.
    assert Degree(2, 2) >= Degree(1, 1)
    assert not Degree(1, 3) >= Degree(2, 1)
    assert degree_join(Degree(2, 1), Degree(1, 3)) == Degree(2, 3)


@pytest.mark.parametrize("other", [5, (1, 1), [1, 1], "1,1", None])
def test_degree_sums_and_comparisons_refuse_other_types(other):
    # NotImplemented lets Python raise the TypeError of any unorderable
    # pair, instead of an AttributeError from inside the method.
    d = Degree(1, 1)
    assert d.__le__(other) is NotImplemented
    assert d.__add__(other) is NotImplemented
    with pytest.raises(TypeError):
        d <= other
    with pytest.raises(TypeError):
        d >= other
    with pytest.raises(TypeError):
        d + other


def test_neighbors_of_bottom_at_rank_two():
    g = build_moment_graph(2)
    got = {(x, d.key) for x, d, _ in moment_neighbors(g)[label(1, 2, 2)]}
    assert got == {
        (label(2, 1, 2), (1, 0)),
        (label(1, 3, 2), (0, 1)),
        (label(1, -3, 2), (0, 1)),
        (label(1, -2, 2), (0, 1)),
        (label(3, 2, 2), (1, 1)),
        (label(-3, 2, 2), (1, 1)),
    }


def test_edge_counts_at_rank_two():
    counts = {k.key: v for k, v in build_moment_graph(2).degree_counts().items()}
    assert counts == {(1, 0): 8, (0, 1): 18, (1, 1): 18, (1, 2): 4}


def test_graph_matches_reference_figure_at_rank_two():
    gold = load_golden("moment_graph_n2.json")
    want = {
        (frozenset((parse_label(e["u"], 2), parse_label(e["v"], 2))), tuple(e["deg"]))
        for e in gold["edges"]
    }
    got = {(frozenset((e.u, e.v)), e.degree.key) for e in build_moment_graph(2).edges}
    assert got == want


def test_no_self_loops_and_unique_pairs():
    # Distinct roots at one vertex always hit distinct cosets, so this
    # family has no parallel edges at all, and the edge sort key (the two
    # endpoint indices) is a total order at every rank the CLI accepts.
    for n in range(2, 17):
        g = build_moment_graph(n)
        pairs = [frozenset((e.u, e.v)) for e in g.edges]
        assert all(e.u != e.v for e in g.edges)
        assert len(pairs) == len(set(pairs))


@pytest.mark.parametrize("n", [*range(2, 17), 24])
def test_letter_rule_masks_match_the_reflection_edges(n):
    # Rows and columns of (a|b) as cliques, plus the swap and the bar-swap,
    # give exactly the graph that reflecting every label by every root does:
    # by the letters, as verify's moment-graph row reflects them, and up to
    # rank 10 as the object graph.
    got = moment_masks(n)
    assert list(got) == [(0, 1), (1, 0), (1, 1), (1, 2)]
    near = {c: [0] * len(masks) for c, masks in got.items()}
    for i, j, root in moment._reflections(n):
        near[degree_of_root(root).key][i] |= 1 << j
    assert {c: tuple(masks) for c, masks in near.items()} == got
    edges = sum(m.bit_count() for masks in got.values() for m in masks) // 2
    assert verify._check_moment_graph(n) == ("pass", f"{edges} edges")
    if n <= 10:
        g = build_moment_graph(n)
        assert got == edge_masks(g)
        assert edges == len(g.edges)
    with pytest.raises(TypeError):
        got[0, 1] = ()


def test_edges_come_from_their_roots():
    # The stored root maps u to v and carries the stored degree; some
    # root of the same degree maps v back to u (roots that move a
    # trailing value differ between the two endpoints).
    for n in (2, 3):
        for e in build_moment_graph(n).edges:
            assert reflect(e.u, e.root) == e.v
            assert degree_of_root(e.root) == e.degree
            assert any(
                reflect(e.v, other) == e.u
                and degree_of_root(other) == e.degree
                for other in moment_roots(n)
            )


def test_restricting_even_graph_gives_odd_graph():
    # The even-label graph is built by full signed-permutation arithmetic
    # in the oracle; its restriction to odd labels must equal the build.
    # Edges compare as (pair, degree): the per-endpoint root labels of one
    # curve may differ, but the degree class never does.
    for n in (2, 3):
        even = even_moment_edges(n)
        odd_pairs = set()
        for pair, root in even:
            (a1, b1), (a2, b2) = tuple(pair)
            if -1 in (a1, b1, a2, b2):
                continue
            odd_pairs.add(
                (
                    frozenset((FlagLabel(a1, b1, n), FlagLabel(a2, b2, n))),
                    degree_of_root(root).key,
                )
            )
        got = {
            (frozenset((e.u, e.v)), e.degree.key)
            for e in build_moment_graph(n).edges
        }
        assert got == odd_pairs


def test_even_graph_vertex_count():
    # 2n+2 choices times 2n for the second with a distinct letter.
    for n in (2, 3):
        pairs = {p for pair, _ in even_moment_edges(n) for p in pair}
        assert len(pairs) == (2 * n + 2) * 2 * n


def test_dot_output():
    g = build_moment_graph(2)
    dot = to_dot(g)
    node_lines = [l for l in dot.splitlines() if l.endswith('";') and "--" not in l]
    assert len(node_lines) == 16
    filtered = to_dot(g, Degree(1, 2))
    assert sum(1 for l in filtered.splitlines() if "--" in l) == 4
    assert to_dot(g) == dot  # byte determinism


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 16])
def test_the_json_export_is_the_payload_dump(capsys, n):
    # The CLI writes each edge from a template; to_json_dict defines the
    # payload.
    assert main(["moment-graph", "--n", str(n), "--format", "json"]) == 0
    want = json.dumps(to_json_dict(build_moment_graph(n)), indent=2) + "\n"
    assert capsys.readouterr().out == want


def test_json_round_trip():
    g = build_moment_graph(2)
    payload = to_json_dict(g)
    assert payload["n"] == 2
    assert len(payload["vertices"]) == 16
    assert len(payload["edges"]) == 48
    text = json.dumps(payload)
    assert json.loads(text) == payload
    e = payload["edges"][0]
    assert set(e) == {"u", "v", "deg", "root"}
