import itertools

import pytest

from oddflag.errors import DomainError
from oddflag.weyl import (
    EVEN_ONLY,
    FIXED,
    FlagLabel,
    ReflectOutcome,
    Root,
    SignedPermutation,
    alphabet,
    all_signed_permutations,
    bar_value,
    bruhat_leq,
    covers,
    down_set,
    enumerate_labels,
    format_label,
    label,
    length,
    minimal_representative,
    moment_roots,
    parse_label,
    reflect,
    top_label,
)
from helpers import (
    brute_cosets,
    closure_oracle,
    doubled_word,
    doubled_word_oracle,
    oracle_min_coset_member,
)


def test_alphabet_order_and_rank():
    for n in (2, 3, 4):
        letters = alphabet(n)
        assert len(letters) == 2 * n + 2
        ranks = [v.rank(n) for v in letters]
        assert ranks == list(range(1, 2 * n + 3))
        for u, v in itertools.combinations(letters, 2):
            assert u < v and not v < u


def test_bar_is_an_involution():
    for v in alphabet(4):
        assert v.bar().bar() == v
        assert v.bar() != v


def test_label_validation():
    with pytest.raises(DomainError):
        label(1, 2, 1)  # rank too small
    with pytest.raises(DomainError):
        label(1, 1, 2)  # repeated letter
    with pytest.raises(DomainError):
        label(2, -2, 2)  # repeated letter with bar
    with pytest.raises(DomainError):
        label(-1, 2, 2)  # -1 is excluded
    with pytest.raises(DomainError):
        label(4, 1, 2)  # letter out of range


def test_enumeration_counts_and_order():
    assert len(enumerate_labels(2)) == 16
    assert len(enumerate_labels(3)) == 36
    for n in (2, 3, 4):
        labs = enumerate_labels(n)
        assert len(labs) == 4 * n * n
        assert all(
            not (v.letter == 1 and v.barred) for w in labs for v in (w.a, w.b)
        )
        assert list(labs) == sorted(labs, key=lambda w: w.sort_key)


def test_enumeration_against_coset_oracle():
    # Group the full group by its first two values; odd cosets must agree
    # with the enumeration, and the shortest member with the fill rule.
    for n in (2, 3):
        groups = brute_cosets(n)
        odd_keys = {
            key
            for key in groups
            if not any(v.letter == 1 and v.barred for v in key)
        }
        assert len(odd_keys) == 4 * n * n
        assert {(w.a, w.b) for w in enumerate_labels(n)} == odd_keys
        for a, b in odd_keys:
            w = FlagLabel(a, b, n)
            shortest = oracle_min_coset_member(groups[(a, b)])
            assert minimal_representative(w) == shortest
            assert length(w) == shortest.coxeter_length()


def test_minimal_representative_examples():
    assert minimal_representative(label(1, 2, 3)).values == tuple(
        bar_value(k) for k in (1, 2, 3, 4)
    )
    assert minimal_representative(label(-2, -3, 2)).values == (
        bar_value(-2),
        bar_value(-3),
        bar_value(1),
    )
    assert minimal_representative(label(-3, 1, 2)).values == (
        bar_value(-3),
        bar_value(1),
        bar_value(2),
    )


def test_length_examples_and_levels():
    assert length(label(1, 2, 2)) == 0
    assert length(label(2, 1, 2)) == 1
    assert length(label(-2, -3, 2)) == 6
    levels = {}
    for w in enumerate_labels(2):
        levels[length(w)] = levels.get(length(w), 0) + 1
    assert levels == {0: 1, 1: 2, 2: 3, 3: 4, 4: 3, 5: 2, 6: 1}


def test_top_length_is_4n_minus_2():
    for n in range(2, 7):
        assert length(top_label(n)) == 4 * n - 2


def test_reflect_examples():
    w = label(1, 2, 2)
    assert reflect(w, Root("diff", 1, 2)) == label(2, 1, 2)
    assert reflect(w, Root("sum", 1, 2)) is EVEN_ONLY
    assert reflect(w, Root("long", 2)) == label(1, -2, 2)
    assert reflect(label(1, 2, 3), Root("sum", 1, 3)) == label(-3, 2, 3)


def test_reflect_rejects_parabolic_and_oversized_roots():
    w = label(1, 2, 3)
    with pytest.raises(DomainError):
        reflect(w, Root("diff", 3, 4))
    with pytest.raises(DomainError):
        reflect(w, Root("long", 3))
    with pytest.raises(DomainError):
        reflect(label(1, 2, 2), Root("diff", 1, 4))


def test_reflect_pair_roots_are_involutive():
    # Roots supported on positions {1,2} act on the label alone, so
    # repeating them returns the starting label.
    pair_roots = (Root("diff", 1, 2), Root("sum", 1, 2), Root("long", 1), Root("long", 2))
    for n in (2, 3):
        for w in enumerate_labels(n):
            for root in pair_roots:
                r = reflect(w, root)
                assert r is not FIXED
                if not isinstance(r, ReflectOutcome):
                    assert r != w
                    assert reflect(r, root) == w


def test_reflect_has_degree_matched_return_root():
    # Roots moving a trailing value are not involutive on cosets: the way
    # back is a possibly different root of the same degree class.
    from oddflag.moment import degree_of_root

    for n in (2, 3):
        for w in enumerate_labels(n):
            for root in moment_roots(n):
                r = reflect(w, root)
                assert r is not FIXED
                if isinstance(r, ReflectOutcome):
                    continue
                assert r != w
                back = [
                    other
                    for other in moment_roots(n)
                    if reflect(r, other) == w
                ]
                assert any(
                    degree_of_root(other) == degree_of_root(root) for other in back
                ), (w, root, r)


def test_bruhat_examples():
    assert bruhat_leq(label(1, 2, 2), label(-2, -3, 2))
    assert not bruhat_leq(label(-3, 2, 2), label(-2, 1, 2))
    assert not bruhat_leq(label(-2, 1, 2), label(-3, 2, 2))
    assert bruhat_leq(label(1, -3, 2), label(1, -2, 2))


def test_bruhat_rank_mismatch():
    with pytest.raises(DomainError):
        bruhat_leq(label(1, 2, 2), label(1, 2, 3))


def test_bruhat_is_a_partial_order():
    for n in (2, 3):
        labs = enumerate_labels(n)
        for u in labs:
            assert bruhat_leq(u, u)
        for u, v in itertools.combinations(labs, 2):
            assert not (bruhat_leq(u, v) and bruhat_leq(v, u))
        for u, v, w in itertools.product(labs, repeat=3):
            if bruhat_leq(u, v) and bruhat_leq(v, w):
                assert bruhat_leq(u, w)


def test_bruhat_respects_length():
    for n in (2, 3):
        for u, v in itertools.product(enumerate_labels(n), repeat=2):
            if bruhat_leq(u, v):
                assert length(u) <= length(v)
                assert length(u) < length(v) or u == v


def test_bruhat_matches_reflection_closure_oracle():
    for n in (2, 3):
        leq = closure_oracle(n)
        labs = enumerate_labels(n)
        reps = {w: minimal_representative(w) for w in labs}
        for u, v in itertools.product(labs, repeat=2):
            assert bruhat_leq(u, v) == leq(reps[u], reps[v]), (u, v)


@pytest.mark.parametrize("n", range(2, 9))
def test_bruhat_matches_doubled_word_oracle(n):
    # Every pair against the full sorted-prefix test on doubled words.
    # The uncached body is swept, so the 4n^2 x 4n^2 pairs leave no
    # entries in the shared cache.
    labs = enumerate_labels(n)
    leq = doubled_word_oracle(labs)
    closed = bruhat_leq.__wrapped__
    for u, v in itertools.product(labs, repeat=2):
        assert closed(u, v) == leq(u, v), (u, v)


def test_top_is_unique_maximum():
    for n in range(2, 7):
        top = top_label(n)
        labs = enumerate_labels(n)
        assert all(bruhat_leq(w, top) for w in labs)
        assert [w for w in labs if bruhat_leq(top, w)] == [top]


def test_down_set_examples():
    assert down_set(label(1, 2, 2)) == (label(1, 2, 2),)
    assert set(down_set(label(2, 1, 2))) == {label(1, 2, 2), label(2, 1, 2)}
    assert len(down_set(label(-2, -3, 2))) == 16


def test_covers_examples():
    assert covers(label(2, 1, 2)) == (label(1, 2, 2),)
    assert set(covers(label(-2, 1, 2))) == {label(-3, 1, 2), label(1, -2, 2)}
    assert covers(label(1, 2, 2)) == ()


def test_edge_length_gap_at_least_one():
    for n in (2, 3):
        for w in enumerate_labels(n):
            for root in moment_roots(n):
                r = reflect(w, root)
                if not isinstance(r, ReflectOutcome):
                    assert abs(length(w) - length(r)) >= 1


def test_label_text_round_trip():
    for n in (2, 3):
        for w in enumerate_labels(n):
            assert parse_label(format_label(w), n) == w
    assert format_label(label(-2, 1, 2)) == "-2|1"
    assert parse_label(" -2 | 1 ", 2) == label(-2, 1, 2)


def test_label_parse_errors():
    for text in ("12", "1|2|3", "a|b", "0|2", "-1|2"):
        with pytest.raises(DomainError):
            parse_label(text, 2)


def test_signed_permutation_validation():
    with pytest.raises(DomainError):
        SignedPermutation((bar_value(1), bar_value(1), bar_value(2)))
    with pytest.raises(DomainError):
        SignedPermutation((bar_value(1), bar_value(3), bar_value(4)))


def test_doubled_word_is_a_permutation():
    for n in (2, 3):
        for p in all_signed_permutations(n):
            word = doubled_word(p)
            assert sorted(word) == list(range(1, 2 * n + 3))


def test_full_group_size():
    assert sum(1 for _ in all_signed_permutations(2)) == 48
    assert sum(1 for _ in all_signed_permutations(3)) == 384
