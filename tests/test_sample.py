import hashlib

import pytest
from hypothesis import given, strategies as st

from nfasat import sample as sample_module
from nfasat.cli import random_sample
from nfasat.sample import (
    Sample,
    SampleError,
    _fooling_graph,
    _max_clique,
    format_sample,
    parse_sample,
    validate_cuts,
    word_from_text,
    word_key,
    word_to_text,
)
from nfasat.solver import is_fooling_set

from _helpers import samples_with_cuts
from oracle import fooling_graph_by_words, prefixes, suffixes

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


class TestSampleIndex:
    @given(samples_with_cuts())
    def test_ids_are_dense_in_word_key_order_and_match_slicing(self, drawn):
        sample, _ = drawn
        index = sample.index
        words = sample.sorted_nonempty_words()
        assert index.words == words
        assert index.prefixes == sorted({w[:i] for w in words for i in range(1, len(w) + 1)}, key=word_key)
        assert index.suffixes == sorted({w[i:] for w in words for i in range(len(w))}, key=word_key)
        for w in words:
            assert [index.prefixes[p] for p in index.heads[w]] == [w[: i + 1] for i in range(len(w))]
            assert [index.suffixes[s] for s in index.tails[w]] == [w[i:] for i in range(len(w))]
        for p, prefix in enumerate(index.prefixes):
            parent = index.parent[p]
            assert (index.prefixes[parent] if parent >= 0 else ()) == prefix[:-1]
        for s, suffix in enumerate(index.suffixes):
            rest = index.rest[s]
            assert (index.suffixes[rest] if rest >= 0 else ()) == suffix[1:]

    def test_built_once_per_sample(self):
        sample = Sample.build(2, [AB, ABB], [B, ()])
        assert sample.index is sample.index
        assert Sample.build(2, [AB, ABB], [B, ()]).index is not sample.index
        assert sample == Sample.build(2, [AB, ABB], [B, ()])  # the index is not a field


@st.composite
def overlapping_samples(draw) -> Sample:
    """A sample over 1 to 3 symbols whose positive and negative sets may share
    words, the empty word included, so a split can be its own cross word."""
    n = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, n - 1), max_size=5).map(tuple)
    return Sample.build(n, draw(st.lists(word, max_size=8)), draw(st.lists(word, max_size=8)))


class TestFoolingSet:
    # sha256 of repr(fooling_set), taken when the graph was built from word slices
    @pytest.mark.parametrize(
        "args, empty_word, digest",
        [
            ((2, 50, 7, 0.5, 3), "+", "ea1e48b2f9a73eb418b219fdd596c09a8cfc6f10566599ded824364ce7cd579e"),
            ((2, 40, 5, 0.5, 11), "+", "82b1078a61e9ab411d1798f25c1f8a749b54be213fe3fa5e00755d9168fb3f03"),
            ((2, 30, 5, 0.3, 7), "-", "ed6d92380db3367c93fd74d4ef45fc02c2ebbff47aaacee710c28202ae150255"),
            ((2, 40, 6, 0.5, 7), "-", "511b64dcbdb568c150d9bdeda2bc1532fd43a3654eb70cddfd65e10456e34329"),
        ],
    )
    def test_certificate_is_pinned(self, args, empty_word, digest):
        *shape, seed = args
        sample = random_sample(*shape, seed=seed)
        assert (() in sample.positives, () in sample.negatives) == (empty_word == "+", empty_word == "-")
        assert is_fooling_set(sample, sample.fooling_set)
        assert hashlib.sha256(repr(sample.fooling_set).encode()).hexdigest() == digest

    @given(overlapping_samples())
    def test_index_built_graph_equals_the_word_sliced_one(self, sample):
        splits, adjacent = _fooling_graph(sample)
        expected_splits, expected_adjacent = fooling_graph_by_words(sample)
        assert [(w[:i], w[i:]) for w, i, _, _ in splits] == expected_splits
        assert adjacent == expected_adjacent
        index = sample.index
        for w, i, x, y in splits:  # ε is the id past the last on each side
            assert (index.prefixes + [()])[x] == w[:i] and (index.suffixes + [()])[y] == w[i:]
        assert sample.fooling_set == tuple(expected_splits[v] for v in _max_clique(expected_adjacent))

    def test_the_vertex_cut_keeps_the_graphs_equal(self, monkeypatch):
        monkeypatch.setattr(sample_module, "_CLIQUE_VERTICES", 9)
        sample = random_sample(2, 50, 7, 0.5, seed=3)
        assert sum(len(w) + 1 for w in sample.positives) > 9
        splits, adjacent = _fooling_graph(sample)
        expected_splits, expected_adjacent = fooling_graph_by_words(sample)
        assert len(splits) == len(expected_splits) == 9
        assert [(w[:i], w[i:]) for w, i, _, _ in splits] == expected_splits
        assert adjacent == expected_adjacent
        pairs = sample.fooling_set
        assert pairs == tuple(expected_splits[v] for v in _max_clique(expected_adjacent))
        assert set(pairs) <= set(expected_splits) and is_fooling_set(sample, pairs)
