import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from nfasat.nfa import Nfa, accepts, nfa_to_dot, nfa_to_json, verify
from nfasat.sample import Sample

from oracle import OracleBoundError, accepts_by_path_search, oracle_exists

LOOP_A_FINAL = Nfa(k=1, n=2, transitions=frozenset({(1, 0, 1)}), finals=frozenset({1}))


def test_accepts_loop():
    assert accepts(LOOP_A_FINAL, (0, 0, 0))


def test_rejects_missing_transition():
    assert not accepts(LOOP_A_FINAL, (1,))


def test_empty_word_needs_initial_final():
    nonfinal = Nfa(k=1, n=1, transitions=frozenset(), finals=frozenset())
    assert not accepts(nonfinal, ())
    assert accepts(LOOP_A_FINAL, ())


def random_nfa(rng: random.Random, k: int, n: int) -> Nfa:
    transitions = {
        (i, a, j)
        for i in range(1, k + 1)
        for a in range(n)
        for j in range(1, k + 1)
        if rng.random() < 0.3
    }
    finals = {i for i in range(1, k + 1) if rng.random() < 0.5}
    return Nfa(k=k, n=n, transitions=frozenset(transitions), finals=frozenset(finals))


@given(st.integers(0, 10_000), st.lists(st.integers(0, 1), max_size=5).map(tuple))
@settings(max_examples=200)
def test_subset_propagation_agrees_with_path_search(seed, word):
    rng = random.Random(seed)
    nfa = random_nfa(rng, rng.randint(1, 4), 2)
    assert accepts(nfa, word) == accepts_by_path_search(nfa, word)


def test_verify_consistent():
    sample = Sample.build(2, [(0,), (0, 0)], [(1,)])
    report = verify(LOOP_A_FINAL, sample)
    assert report.ok and report.counterexamples == []


def test_verify_reports_counterexample_with_polarity():
    sample = Sample.build(2, [(1,)], [(0,)])
    report = verify(LOOP_A_FINAL, sample)
    assert not report.ok
    assert ((1,), "positive") in report.counterexamples
    assert ((0,), "negative") in report.counterexamples


def test_verify_empty_sample_ok():
    assert verify(LOOP_A_FINAL, Sample.build(2, [], [])).ok


class TestOracle:
    def test_simple_witness(self):
        sample = Sample.build(2, [(0,)], [(1,)])
        ok, witness = oracle_exists(sample, 1)
        assert ok
        assert witness == LOOP_A_FINAL

    def test_contradictory_sample(self):
        sample = Sample.build(1, [(0,)], [(0,)])
        for k in (1, 2):
            assert oracle_exists(sample, k) == (False, None)

    def test_empty_word_positive(self):
        ok, witness = oracle_exists(Sample.build(1, [()], []), 1)
        assert ok and 1 in witness.finals

    def test_bound_enforced(self):
        with pytest.raises(OracleBoundError):
            oracle_exists(Sample.build(3, [(0,)], []), 3)

    def test_witness_always_verifies(self):
        rng = random.Random(7)
        for _ in range(40):
            words = [
                tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(1, 4))
            ]
            pos = set(words[: len(words) // 2])
            neg = set(words[len(words) // 2 :]) - pos
            sample = Sample.build(2, pos, neg)
            for k in (1, 2):
                ok, witness = oracle_exists(sample, k)
                if ok:
                    assert verify(witness, sample).ok

    def test_monotone_in_k(self):
        rng = random.Random(11)
        for _ in range(30):
            words = rng.sample(
                [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)], rng.randint(1, 4)
            )
            pos, neg = set(words[::2]), set(words[1::2])
            sample = Sample.build(2, pos, neg)
            if oracle_exists(sample, 1)[0]:
                assert oracle_exists(sample, 2)[0]

    def test_slow_scan_agrees_with_table(self, monkeypatch):
        import oracle as oracle_mod

        rng = random.Random(3)
        for _ in range(10):
            words = rng.sample([(0,), (1,), (0, 1), (1, 0), (0, 0), (1, 1)], 3)
            sample = Sample.build(2, set(words[:1]), set(words[1:]))
            fast = oracle_exists(sample, 2)
            monkeypatch.setattr(oracle_mod, "_EXACT_TABLE_MAX_BITS", -1)
            slow = oracle_exists(sample, 2)
            monkeypatch.undo()
            assert fast[0] == slow[0]
            if fast[0]:
                assert fast[1] == slow[1]  # same fixed enumeration order


def test_json_round_trip():
    nfa = Nfa(
        k=3,
        n=2,
        transitions=frozenset({(1, 0, 2), (2, 1, 3), (3, 0, 1)}),
        finals=frozenset({2, 3}),
    )
    assert json.loads(nfa_to_json(nfa)) == {
        "k": 3,
        "n": 2,
        "finals": [2, 3],
        "transitions": [[1, "a", 2], [2, "b", 3], [3, "a", 1]],
    }


def test_dot_output_mentions_states():
    text = nfa_to_dot(LOOP_A_FINAL)
    assert "doublecircle" in text and "q1 -> q1" in text
