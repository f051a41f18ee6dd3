import itertools

import pytest

from oddflag.errors import DomainError
from oddflag.weyl import (
    FlagLabel,
    Root,
    _rank,
    _reflect_letters,
    alphabet,
    bruhat_leq,
    bruhat_masks,
    covers,
    down_set,
    enumerate_labels,
    label,
    length,
    letter_rank,
    moment_roots,
    parse_label,
    reflect,
    top_label,
)
from helpers import (
    SignedPermutation,
    all_signed_permutations,
    brute_cosets,
    closure_oracle,
    doubled_word,
    doubled_word_oracle,
    minimal_representative,
    oracle_min_coset_member,
)


def test_alphabet_order_and_rank():
    assert alphabet(2) == (1, 2, 3, -3, -2, -1)
    for n in (2, 3, 4):
        letters = alphabet(n)
        assert len(letters) == 2 * n + 2
        ranks = [letter_rank(v, n) for v in letters]
        assert ranks == list(range(1, 2 * n + 3))
        for u, v in itertools.combinations(letters, 2):
            assert letter_rank(u, n) < letter_rank(v, n)
            assert not letter_rank(v, n) < letter_rank(u, n)


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
        assert all(v != -1 for w in labs for v in (w.a, w.b))
        assert list(labs) == sorted(labs, key=lambda w: w.sort_key)


def test_enumeration_against_coset_oracle():
    # Group the full group by its first two values; odd cosets must agree
    # with the enumeration, and the shortest member with the fill rule.
    for n in (2, 3):
        groups = brute_cosets(n)
        odd_keys = {
            key
            for key in groups
            if -1 not in key
        }
        assert len(odd_keys) == 4 * n * n
        assert {(w.a, w.b) for w in enumerate_labels(n)} == odd_keys
        for a, b in odd_keys:
            w = FlagLabel(a, b, n)
            shortest = oracle_min_coset_member(groups[(a, b)])
            assert minimal_representative(w) == shortest
            assert length(w) == shortest.coxeter_length()


def test_minimal_representative_examples():
    assert minimal_representative(label(1, 2, 3)).values == (1, 2, 3, 4)
    assert minimal_representative(label(-2, -3, 2)).values == (-2, -3, 1)
    assert minimal_representative(label(-3, 1, 2)).values == (-3, 1, 2)


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


@pytest.mark.parametrize("n", range(2, 17))
def test_length_matches_coxeter_length(n):
    # The closed form against the root count of the minimal representative.
    for w in enumerate_labels(n):
        assert length(w) == minimal_representative(w).coxeter_length(), w


@pytest.mark.parametrize("n", range(2, 9))
def test_reflect_matches_signed_permutation_arithmetic(n):
    # Every label times every moment root, against the one-line product
    # of the minimal representative and the reflection.
    for w in enumerate_labels(n):
        rep = minimal_representative(w)
        for root in moment_roots(n):
            a, b = rep.apply_reflection(root).first_two()
            r = reflect(w, root)
            letters = _reflect_letters(w.a, w.b, root)
            if -1 in (a, b):
                assert r is None and letters is None, (w, root)
            else:
                assert r == FlagLabel(a, b, n) and letters == (a, b), (w, root)


def test_reflect_examples():
    w = label(1, 2, 2)
    assert reflect(w, Root("diff", 1, 2)) == label(2, 1, 2)
    assert reflect(w, Root("sum", 1, 2)) is None
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
                assert r != w
                if r is not None:
                    assert reflect(r, root) == w


def test_reflect_has_degree_matched_return_root():
    # Roots moving a trailing value are not involutive on cosets: the way
    # back is a possibly different root of the same degree class.
    from oddflag.moment import degree_of_root

    for n in (2, 3):
        for w in enumerate_labels(n):
            for root in moment_roots(n):
                r = reflect(w, root)
                assert r != w
                if r is None:
                    continue
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
    # The same pairs are read off the masks of bruhat_masks as well.
    labs = enumerate_labels(n)
    leq = doubled_word_oracle(labs)
    closed = bruhat_leq.__wrapped__
    index, below, _covered, _level = bruhat_masks(n)
    for u, v in itertools.product(labs, repeat=2):
        assert closed(u, v) == leq(u, v), (u, v)
        assert (below[index[v]] >> index[u] & 1) == leq(u, v), (u, v)


@pytest.mark.parametrize("n", range(2, 17))
def test_bruhat_masks_match_the_closed_form_on_every_pair(n):
    # Every rank the CLI accepts: the lower sets and covers against the
    # uncached closed form and length, pair by pair, and the level masks
    # against length.
    labs = enumerate_labels(n)
    closed = bruhat_leq.__wrapped__
    index, below, covered, level = bruhat_masks(n)
    assert index == {w: i for i, w in enumerate(labs)}
    want_below = [0] * len(labs)
    want_covered = [0] * len(labs)
    for i, u in enumerate(labs):
        for j, v in enumerate(labs):
            if closed(u, v):
                want_below[j] |= 1 << i
                if length(u) == length(v) - 1:
                    want_covered[j] |= 1 << i
    assert list(below) == want_below
    assert list(covered) == want_covered
    assert level == {
        lw: sum(1 << i for i, w in enumerate(labs) if length(w) == lw)
        for lw in {length(w) for w in labs}
    }


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
                if r is not None:
                    assert abs(length(w) - length(r)) >= 1


def test_label_text_round_trip():
    for n in (2, 3):
        for w in enumerate_labels(n):
            assert parse_label(str(w), n) == w
    assert str(label(-2, 1, 2)) == "-2|1"
    assert parse_label(" -2 | 1 ", 2) == label(-2, 1, 2)


def test_label_parse_errors():
    # A parse that raises keeps nothing, so it raises on every call.
    _rank.cache_clear()
    for _ in range(3):
        for text in ("12", "1|2|3", "a|b", "0|2", "-1|2", "1|1", "4|1", "99999999999|1"):
            with pytest.raises(DomainError):
                parse_label(text, 2)
    assert _rank(2).parsed == {}


@pytest.mark.parametrize(
    "text", ["1_0|2", "1|0_2", "\uff12|1", "1|\u0662", "+|2", "1|-", "- 1|2", "1|2 3", "1|"]
)
def test_label_sides_are_a_sign_and_ascii_digits(text):
    # int() alone reads "1_0" as 10 and the full-width or Arabic-Indic
    # digit as 2; a side is an optional sign and ASCII digits, nothing else.
    with pytest.raises(DomainError, match="label sides must be integers"):
        parse_label(text, 12)


def test_signed_and_spaced_label_sides_still_parse():
    assert parse_label("+1|2", 2) == label(1, 2, 2)
    assert parse_label(" -2 | 1 ", 2) == label(-2, 1, 2)
    assert parse_label("-2|+3", 3) == label(-2, 3, 3)


def test_a_repeated_parse_builds_no_label(monkeypatch):
    _rank.cache_clear()
    first = {text: parse_label(text, 3) for text in ("1|2", "-2|1", " 3 | -4 ")}
    built = []
    init = FlagLabel.__init__

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(FlagLabel, "__init__", spy)
    for text, w in first.items():
        assert parse_label(text, 3) is w
    assert built == []


def test_a_cached_parse_keeps_a_float_rank_an_error():
    _rank.cache_clear()
    assert parse_label("1|2", 2) == label(1, 2, 2)
    with pytest.raises(DomainError, match="rank"):
        parse_label("1|2", 2.0)


@pytest.mark.parametrize("rank", [[2], 2.0, True])
def test_a_parse_rejects_a_rank_that_is_not_an_int(rank):
    # The rank is checked before the memo is asked, so a rank the memo
    # cannot hash, or would take for an equal int key, is a DomainError,
    # before and after the int rank is cached.
    _rank.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError, match="rank must be an integer >= 2"):
            parse_label("1|2", rank)
        assert parse_label("1|2", 2) == label(1, 2, 2)


@pytest.mark.parametrize("text", [12, b"1|2", ["1|2"], ("1", "2"), None])
def test_a_parse_rejects_a_text_that_is_not_a_str(text):
    # The text is checked after the rank and before the memo is asked, so
    # an unhashable text never reaches the memo and no rank is built.
    _rank.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError, match="label must be a str like 'a|b', got "):
            parse_label(text, 2)
        with pytest.raises(DomainError, match="rank must be an integer >= 2"):
            parse_label(text, 1)
    info = _rank.cache_info()
    assert (info.currsize, info.misses, info.hits) == (0, 0, 0)


def test_every_label_of_rank_16_fits_in_the_parse_memo():
    # The memo holds only canonical texts, so it is bounded by the 4n^2
    # labels of its rank, however many spellings are parsed; every parse
    # returns the rank table's label.
    for n in (2, 16):
        _rank.cache_clear()
        labels = enumerate_labels(n)
        texts = [str(w) for w in labels]
        spaced = [f" {w.a} | {w.b} " for w in labels]
        for _ in range(2):
            assert all(parse_label(text, n) is w for text, w in zip(texts, labels))
            assert all(parse_label(text, n) is w for text, w in zip(spaced, labels))
        assert list(_rank(n).parsed) == texts
        assert len(_rank(n).parsed) == 4 * n * n


def test_signed_permutation_validation():
    with pytest.raises(DomainError):
        SignedPermutation((1, 1, 2))
    with pytest.raises(DomainError):
        SignedPermutation((1, 3, 4))


def test_doubled_word_is_a_permutation():
    for n in (2, 3):
        for p in all_signed_permutations(n):
            word = doubled_word(p)
            assert sorted(word) == list(range(1, 2 * n + 3))


def test_full_group_size():
    assert sum(1 for _ in all_signed_permutations(2)) == 48
    assert sum(1 for _ in all_signed_permutations(3)) == 384
