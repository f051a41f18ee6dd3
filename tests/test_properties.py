"""Property tests: label text, Degree algebra, SchubertUnion canonical form.

Skipped as a module where ``hypothesis`` is not installed.
"""

import pytest

from helpers import degree_join
from oddflag.errors import DomainError
from oddflag.moment import Degree
from oddflag.neighborhoods import SchubertUnion
from oddflag.weyl import bruhat_leq, enumerate_labels, parse_label

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# No deadline, so a loaded machine cannot fail a test, and a fixed seed,
# so every run draws the same examples.
checked = settings(deadline=None, derandomize=True)
ranks = st.integers(min_value=2, max_value=8)
degrees = st.builds(Degree, st.integers(0, 50), st.integers(0, 50))


@checked
@given(ranks)
def test_every_label_survives_the_text_round_trip(n):
    for w in enumerate_labels(n):
        text = str(w)
        assert parse_label(text, n) == w
        assert parse_label(f" {text.replace('|', ' | ')} ", n) == w


@checked
@given(degrees, degrees, degrees)
def test_degree_addition_laws(a, b, c):
    zero = Degree(0, 0)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a
    assert a <= a + b
    if a <= b:
        assert a + c <= b + c


@checked
@given(degrees, degrees, degrees)
def test_degree_join_is_the_least_upper_bound(a, b, c):
    j = degree_join(a, b)
    assert j == degree_join(b, a)
    assert degree_join(a, a) == a
    assert degree_join(j, c) == degree_join(a, degree_join(b, c))
    assert a <= j and b <= j
    assert (a <= c and b <= c) == (j <= c)
    assert (a <= b) == (j == b)


@checked
@given(degrees, degrees, degrees)
def test_degree_order_is_a_partial_order(a, b, c):
    assert a <= a
    if a <= b and b <= a:
        assert a == b
    if a <= b and b <= c:
        assert a <= c
    assert (a >= b) == (b <= a)


@st.composite
def antichains(draw):
    """A nonempty list of pairwise incomparable labels of one rank."""
    n = draw(st.integers(min_value=2, max_value=5))
    labels = enumerate_labels(n)
    picks = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=8))
    kept: list = []
    for w in picks:
        if all(not bruhat_leq(w, x) and not bruhat_leq(x, w) for x in kept):
            kept.append(w)
    return kept


@checked
@given(antichains(), st.randoms(use_true_random=False))
def test_union_is_order_independent(comps, rng):
    shuffled = list(comps)
    rng.shuffle(shuffled)
    assert SchubertUnion(tuple(shuffled)) == SchubertUnion(tuple(comps))
    keys = [w.sort_key for w in SchubertUnion(tuple(shuffled)).components]
    assert keys == sorted(keys)


@checked
@given(antichains(), st.data())
def test_union_duplicates_collapse(comps, data):
    extra = data.draw(st.lists(st.sampled_from(comps), max_size=6))
    doubled = SchubertUnion(tuple(comps) + tuple(extra))
    assert doubled.components == SchubertUnion(tuple(comps)).components
    assert len(doubled.components) == len(comps)


@checked
@given(st.integers(min_value=2, max_value=5), st.data())
def test_union_rejects_comparable_components(n, data):
    labels = enumerate_labels(n)
    v = data.draw(st.sampled_from(labels[1:]))  # labels[0] is the minimum
    u = data.draw(st.sampled_from([x for x in labels if x != v and bruhat_leq(x, v)]))
    others = data.draw(st.lists(st.sampled_from(labels), max_size=4))
    with pytest.raises(DomainError):
        SchubertUnion(tuple([v] + others + [u]))
