import pytest
from hypothesis import given, strategies as st

from nfasat.sample import (
    Sample,
    SampleError,
    all_prefix_cuts,
    all_suffix_cuts,
    format_sample,
    parse_sample,
    prefixes,
    split_sets,
    suffixes,
    validate_cuts,
    word_from_text,
    word_to_text,
)

A, B = (0,), (1,)
AB = (0, 1)
ABB = (0, 1, 1)


def words_strategy(n=2, max_len=5):
    word = st.lists(st.integers(0, n - 1), max_size=max_len).map(tuple)
    return st.sets(word, max_size=6)


class TestParsing:
    def test_plain_basic(self):
        sample = parse_sample("n=2\na+\nb-\n")
        assert sample.positives == {A}
        assert sample.negatives == {B}

    def test_plain_empty_word(self):
        sample = parse_sample("n=2\n+\nab-\n")
        assert () in sample.positives
        assert AB in sample.negatives

    def test_plain_comma_ids(self):
        sample = parse_sample("n=30\n0,29+\n")
        assert (0, 29) in sample.positives

    def test_plain_digit_words(self):
        sample = parse_sample("n=3\n012+\n")
        assert (0, 1, 2) in sample.positives

    def test_plain_digit_run_rejected_above_ten_symbols(self):
        with pytest.raises(SampleError, match="ambiguous with n=12.*commas"):
            parse_sample("n=12\n11+\n3-\n")
        sample = parse_sample("n=12\n1,1+\n11,-\n3-\n")
        assert sample.positives == {(1, 1)}
        assert sample.negatives == {(11,), (3,)}
        assert parse_sample("n=10\n11+\n").positives == {(1, 1)}

    def test_plain_round_trip_lone_large_id(self):
        sample = Sample.build(30, [(12,), (3,), (12, 5)], [(29,), ()])
        assert parse_sample(format_sample(sample)) == sample

    def test_plain_unicode_minus(self):
        sample = parse_sample("n=2\na−\n")
        assert A in sample.negatives

    def test_abbadingo_line(self):
        sample = parse_sample("1 2\n1 2 0 1\n", fmt="abbadingo")
        assert sample.positives == {AB}
        assert sample.alphabet_size == 2

    def test_abbadingo_negative_and_empty(self):
        sample = parse_sample("2 2\n0 0\n1 1 1\n", fmt="abbadingo")
        assert () in sample.negatives
        assert B in sample.positives

    def test_word_in_both_sets_rejected(self):
        with pytest.raises(SampleError):
            parse_sample("n=2\na+\na-\n")

    def test_symbol_out_of_range(self):
        with pytest.raises(SampleError):
            parse_sample("n=2\nc+\n")

    def test_missing_header(self):
        with pytest.raises(SampleError):
            parse_sample("a+\n")

    def test_bad_abbadingo_length(self):
        with pytest.raises(SampleError):
            parse_sample("1 2\n1 3 0 1\n", fmt="abbadingo")

    def test_duplicates_deduplicated(self):
        sample = parse_sample("n=2\na+\na+\nb-\n")
        assert len(sample.positives) == 1

    @given(st.integers(1, 30), words_strategy(n=3), words_strategy(n=3))
    def test_round_trip_plain(self, extra, pos, neg):
        neg = neg - pos
        n = max([3, extra] + [s + 1 for w in pos | neg for s in w])
        sample = Sample.build(n, pos, neg)
        again = parse_sample(format_sample(sample))
        assert again == sample

    @given(words_strategy(n=4), words_strategy(n=4))
    def test_round_trip_abbadingo(self, pos, neg):
        neg = neg - pos
        sample = Sample.build(4, pos, neg)
        again = parse_sample(format_sample(sample, fmt="abbadingo"), fmt="abbadingo")
        assert again == sample

    def test_word_text_round_trip_large_alphabet(self):
        word = (0, 12, 29)
        assert word_from_text(word_to_text(word, 30)) == word


class TestClosures:
    def test_prefixes_single(self):
        assert prefixes({AB}) == {A, AB}

    def test_prefixes_shared(self):
        assert prefixes({AB, ABB}) == {A, AB, ABB}

    def test_prefixes_empty_word(self):
        assert prefixes({()}) == set()

    def test_suffixes_single(self):
        assert suffixes({AB}) == {B, AB}

    def test_suffixes_shared(self):
        assert suffixes({AB, (1, 1)}) == {B, AB, (1, 1)}

    def test_suffixes_singleton(self):
        assert suffixes({A}) == {A}

    @given(words_strategy())
    def test_prefix_elements_are_prefixes(self, ws):
        for p in prefixes(ws):
            assert any(w[: len(p)] == p for w in ws)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple))
    def test_prefix_count_single_word(self, w):
        assert len(prefixes({w})) == len(w)

    @given(words_strategy())
    def test_prefix_suffix_duality(self, ws):
        reversed_ws = {tuple(reversed(w)) for w in ws}
        assert suffixes(ws) == {tuple(reversed(p)) for p in prefixes(reversed_ws)}


class TestSplits:
    def test_split_basic(self):
        sample = Sample.build(2, [AB, ABB], [])
        sp, ss = split_sets(sample, {AB: 1, ABB: 2})
        assert sp == {A, AB}
        assert ss == {B}

    def test_split_pure_suffix(self):
        sample = Sample.build(2, [AB], [])
        sp, ss = split_sets(sample, {AB: 0})
        assert sp == set()
        assert ss == {AB}

    def test_split_pure_prefix(self):
        sample = Sample.build(2, [AB], [])
        sp, ss = split_sets(sample, {AB: 2})
        assert sp == {AB}
        assert ss == set()

    def test_all_prefix_matches_prefix_model_input(self):
        sample = Sample.build(2, [AB, ABB], [B])
        sp, ss = split_sets(sample, all_prefix_cuts(sample))
        assert sp == {AB, ABB, B}
        assert ss == set()

    def test_all_suffix(self):
        sample = Sample.build(2, [AB], [B])
        sp, ss = split_sets(sample, all_suffix_cuts(sample))
        assert (sp, ss) == (set(), {AB, B})

    def test_cut_out_of_range(self):
        sample = Sample.build(2, [AB], [])
        with pytest.raises(SampleError):
            validate_cuts(sample, {AB: 3})

    def test_lambda_excluded_from_cuts(self):
        sample = Sample.build(2, [()], [AB])
        validate_cuts(sample, {AB: 1})
        with pytest.raises(SampleError):
            validate_cuts(sample, {AB: 1, (): 0})

    def test_missing_word(self):
        sample = Sample.build(2, [AB, A], [])
        with pytest.raises(SampleError):
            validate_cuts(sample, {AB: 1})


class TestSample:
    def test_overlap_constructible_but_flagged(self):
        sample = Sample.build(2, [A], [A])
        with pytest.raises(SampleError):
            sample.check_consistent()

    def test_symbol_range_enforced(self):
        with pytest.raises(SampleError):
            Sample.build(1, [(1,)], [])

    def test_total_symbol_count(self):
        sample = Sample.build(2, [AB, A], [B])
        assert sample.total_symbol_count() == 4
