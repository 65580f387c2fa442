import hashlib
import json
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nfasat import splitopt
from nfasat.cli import random_sample
from nfasat.cnf import dimacs_text
from nfasat.encoders import ModelKind, encode
from nfasat.sample import Sample, SampleError, all_prefix_cuts, all_suffix_cuts
from nfasat.splitopt import (
    GaParams,
    IlsParams,
    _ga_scorer,
    _SplitScore,
    _uniform_crossover,
    fitness,
    ga_optimize,
    ils_optimize,
    spearman_rho,
    word_weights,
)

from _helpers import random_tiny_sample, samples_with_cuts
from oracle import prefixes, suffixes

A, B = (0,), (1,)
AB = (0, 1)
ABB = (0, 1, 1)


class TestFitness:
    def test_hand_computed_example(self):
        sample = Sample.build(2, [AB, ABB], [])
        assert fitness(sample, 3, {AB: 1, ABB: 2}) == 2 + 3 * 1

    def test_all_prefix_equals_prefix_closure(self):
        sample = Sample.build(2, [AB, ABB], [B])
        words = set(sample.words())
        assert fitness(sample, 4, all_prefix_cuts(sample)) == len(prefixes(words))

    def test_all_suffix_equals_weighted_suffix_closure(self):
        sample = Sample.build(2, [AB, ABB], [B])
        words = set(sample.words())
        assert fitness(sample, 4, all_suffix_cuts(sample)) == 4 * len(suffixes(words))

    def test_invariant_under_word_order(self):
        sample = Sample.build(2, [AB, ABB, B], [])
        cuts1 = {AB: 1, ABB: 2, B: 0}
        cuts2 = {B: 0, ABB: 2, AB: 1}
        assert fitness(sample, 2, cuts1) == fitness(sample, 2, cuts2)


@pytest.mark.parametrize(
    "run",
    [
        lambda sample, k: fitness(sample, k, all_prefix_cuts(sample)),
        lambda sample, k: ils_optimize(sample, k, IlsParams()),
        lambda sample, k: ga_optimize(sample, k, GaParams(max_gen=5)),
    ],
    ids=["fitness", "ils", "ga"],
)
@pytest.mark.parametrize("k", [0, -2])
def test_state_count_below_one_is_rejected(run, k):
    sample = random_sample(2, 10, 5, 0.5, seed=1)
    with pytest.raises(SampleError, match=f"state count k must be >= 1, got {k}$"):
        run(sample, k)


class TestWordWeights:
    def test_hand_computed_example(self):
        sample = Sample.build(2, [AB], [B])
        weights = word_weights(sample)
        assert weights[AB] == pytest.approx(0.75 / 2 + 0.25 * 2 / 3)
        assert weights[B] == pytest.approx(0.75 / 2 + 0.25 * 1 / 3)

    def test_uniform_lengths_equal_weights(self):
        sample = Sample.build(2, [A], [B])
        weights = word_weights(sample)
        assert weights[A] == weights[B] == pytest.approx(0.5)

    def test_single_word_weight_one(self):
        weights = word_weights(Sample.build(2, [AB], []))
        assert weights[AB] == pytest.approx(1.0)

    def test_weights_sum_to_one(self):
        rng = random.Random(9)
        for _ in range(20):
            sample = random_tiny_sample(rng, max_len=4, max_each=4)
            if not sample.sorted_nonempty_words():
                continue
            weights = word_weights(sample)
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(w > 0 for w in weights.values())

    def test_empty_word_only_rejected(self):
        with pytest.raises(ValueError):
            word_weights(Sample.build(2, [()], []))


class TestSplitScore:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_incremental_matches_from_scratch(self, seed):
        rng = random.Random(seed)
        sample = random_tiny_sample(rng, max_len=5, max_each=4)
        words = sample.sorted_nonempty_words()
        if not words:
            return
        k = rng.randint(1, 4)
        cuts = {w: rng.randint(0, len(w)) for w in words}
        score = _SplitScore(sample, cuts, k)
        assert score.fitness() == fitness(sample, k, cuts)
        for _ in range(5):
            word = rng.choice(words)
            _, fit = score.rescore_word(word)
            assert fit == fitness(sample, k, dict(score.cuts))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rescore_is_single_word_optimal(self, seed):
        rng = random.Random(seed)
        sample = random_tiny_sample(rng, max_len=5, max_each=3)
        words = sample.sorted_nonempty_words()
        if not words:
            return
        k = rng.randint(1, 4)
        cuts = {w: rng.randint(0, len(w)) for w in words}
        score = _SplitScore(sample, cuts, k)
        word = rng.choice(words)
        best_cut, best_fit = score.rescore_word(word)
        for candidate in range(len(word) + 1):
            trial = dict(score.cuts)
            trial[word] = candidate
            trial_fit = fitness(sample, k, trial)
            assert best_fit <= trial_fit
            if trial_fit == best_fit:
                assert best_cut <= candidate  # ties go to the smallest cut


class TestIls:
    def test_trace_non_increasing(self):
        sample = Sample.build(2, [AB, ABB, (1, 0, 1)], [B, (0, 0)])
        result = ils_optimize(sample, 3, IlsParams(max_iter=200, rng_seed=4))
        values = [p.best_fitness for p in result.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_single_word_converges_to_exhaustive_optimum(self):
        sample = Sample.build(2, [AB], [])
        result = ils_optimize(sample, 2, IlsParams(max_iter=50, rng_seed=0))
        # cuts 0..2 score 4, 3, 2; the full-prefix cut wins
        assert result.cuts[AB] == 2
        assert result.best_fitness == 2

    def test_seed_reproducibility(self):
        sample = Sample.build(2, [AB, ABB, (1, 0)], [(0, 0, 1)])
        params = IlsParams(max_iter=300, rng_seed=11)
        first = ils_optimize(sample, 3, params)
        second = ils_optimize(sample, 3, params)
        assert first.cuts == second.cuts
        assert first.best_fitness == second.best_fitness
        assert [p.best_fitness for p in first.trace] == [
            p.best_fitness for p in second.trace
        ]

    def test_never_worse_than_initial(self):
        rng = random.Random(2)
        for seed in range(10):
            sample = random_tiny_sample(rng, max_len=5, max_each=4)
            if not sample.sorted_nonempty_words():
                continue
            result = ils_optimize(sample, 3, IlsParams(max_iter=100, rng_seed=seed))
            assert result.best_fitness <= result.initial_fitness

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_either_corner(self, seed, k):
        rng = random.Random(seed)
        sample = random_tiny_sample(rng, max_len=5, max_each=4)
        if not sample.sorted_nonempty_words():
            return
        result = ils_optimize(sample, k, IlsParams(max_iter=50, rng_seed=seed))
        corners = (all_prefix_cuts(sample), all_suffix_cuts(sample))
        assert result.best_fitness <= min(fitness(sample, k, cuts) for cuts in corners)

    def test_stagnation_stop(self):
        sample = Sample.build(2, [A], [])
        result = ils_optimize(
            sample, 2, IlsParams(max_iter=10_000, max_iter_without_improv=5, rng_seed=0)
        )
        assert result.trace[-1].step <= 6  # improves at most once, then stalls


class TestGa:
    def test_trace_non_increasing(self):
        sample = Sample.build(2, [AB, ABB, (1, 0, 1)], [B, (0, 0)])
        params = GaParams(population_size=10, max_gen=40, rng_seed=3)
        result = ga_optimize(sample, 3, params)
        values = [p.best_fitness for p in result.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_single_word_reaches_optimum(self):
        sample = Sample.build(2, [AB], [])
        params = GaParams(population_size=10, max_gen=60, rng_seed=1)
        result = ga_optimize(sample, 2, params)
        assert result.best_fitness == 2
        assert result.cuts[AB] == 2

    def test_seed_reproducibility(self):
        sample = Sample.build(2, [AB, ABB], [(1, 0)])
        params = GaParams(population_size=12, max_gen=30, rng_seed=8)
        first = ga_optimize(sample, 2, params)
        second = ga_optimize(sample, 2, params)
        assert first.cuts == second.cuts
        assert first.best_fitness == second.best_fitness
        assert [p.best_fitness for p in first.trace] == [
            p.best_fitness for p in second.trace
        ]

    def test_never_worse_than_initial_population(self):
        rng = random.Random(5)
        for seed in range(6):
            sample = random_tiny_sample(rng, max_len=5, max_each=4)
            if not sample.sorted_nonempty_words():
                continue
            params = GaParams(population_size=8, max_gen=25, rng_seed=seed)
            result = ga_optimize(sample, 3, params)
            assert result.best_fitness <= result.initial_fitness

    def test_population_size_validated(self):
        with pytest.raises(ValueError):
            GaParams(population_size=1).validate()

    def test_crossover_of_identical_parents_is_identity(self):
        rng = random.Random(0)
        individual = [2, 0, 5, 1]
        for _ in range(20):
            assert _uniform_crossover(rng, individual, list(individual)) == individual

    def test_crossover_inherits_per_word(self):
        rng = random.Random(1)
        pa, pb = [0, 0, 0, 0], [9, 9, 9, 9]
        child = _uniform_crossover(rng, pa, pb)
        assert all(c in (0, 9) for c in child)

    def test_crossover_takes_each_gene_from_first_by_a_fair_coin(self):
        rng = random.Random(12)
        first, second = list(range(0, 300, 2)), list(range(1, 300, 2))
        children = [_uniform_crossover(rng, first, second) for _ in range(100)]  # 15,000 genes
        genes = [(c, a, b) for child in children for c, a, b in zip(child, first, second)]
        assert all(c in (a, b) for c, a, b in genes)
        assert 0.47 <= sum(c == a for c, a, _ in genes) / len(genes) <= 0.53

    @given(samples_with_cuts(), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_score_is_the_paper_fitness(self, sample_and_cuts, k):
        sample, cuts = sample_and_cuts
        words = sample.sorted_nonempty_words()
        assert _ga_scorer(sample, k)([cuts[w] for w in words]) == fitness(sample, k, cuts)

    @pytest.mark.parametrize("p_mut", [0.05, 0.3])
    def test_mutation_redraws_genes_at_rate_p_mut(self, p_mut):
        # every randint after the initial population re-draws one mutated gene
        class CountingRandom(random.Random):
            randints = 0

            def randint(self, a, b):
                CountingRandom.randints += 1
                return super().randint(a, b)

        sample = random_sample(2, 40, 8, 0.5, seed=3)
        params = GaParams(population_size=20, max_gen=200, max_gen_without_improv=200, p_mut=p_mut, rng_seed=5)
        with mock.patch.object(splitopt, "random", SimpleNamespace(Random=CountingRandom)):
            result = ga_optimize(sample, 3, params)
        genes = params.population_size * len(sample.sorted_nonempty_words())
        assert len(result.trace) == 201
        rate = (CountingRandom.randints - genes) / (200 * genes)
        assert abs(rate - p_mut) <= 0.1 * p_mut

    @pytest.mark.parametrize("p_mut", [5e-324, 1e-17, 0.999])
    def test_extreme_mutation_rates_run_to_completion(self, p_mut):
        sample = random_sample(2, 40, 8, 0.5, seed=3)
        params = GaParams(population_size=10, max_gen=30, max_gen_without_improv=30, p_mut=p_mut, rng_seed=2)
        result = ga_optimize(sample, 3, params)
        assert len(result.trace) == 31
        assert result.best_fitness == fitness(sample, 3, result.cuts)


class TestFitnessProxy:
    def test_rank_correlates_with_hybrid_variable_count(self):
        # reported by the bench harness; sanity-check the direction here
        rng = random.Random(21)
        sample = Sample.build(
            2,
            [tuple(rng.randrange(2) for _ in range(rng.randint(2, 7))) for _ in range(12)],
            [tuple(rng.randrange(2) for _ in range(rng.randint(2, 7))) for _ in range(6)],
        )
        k = 3
        fits, sizes = [], []
        for seed in range(12):
            local = random.Random(seed)
            cuts = {w: local.randint(0, len(w)) for w in sample.sorted_nonempty_words()}
            fits.append(fitness(sample, k, cuts))
            sizes.append(encode(ModelKind.HYBRID, sample, k, cuts).var_count)
        assert spearman_rho(fits, sizes) > 0


def _set_fitness(cuts, k):
    """Reference count: distinct prefixes of the heads plus k times distinct suffixes of the tails."""
    heads = {w[:i] for w, cut in cuts.items() for i in range(1, cut + 1)}
    tails = {w[i:] for w, cut in cuts.items() for i in range(cut, len(w))}
    return len(heads) + k * len(tails)


class TestFitnessOracle:
    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_scores_match_set_count(self, seed, k):
        rng = random.Random(seed)
        sample = random_tiny_sample(rng, n=rng.randint(1, 3), max_len=6, max_each=5)
        words = sample.sorted_nonempty_words()
        if not words:
            return
        cuts = {w: rng.randint(0, len(w)) for w in words}
        assert fitness(sample, k, cuts) == _set_fitness(cuts, k)
        score = _SplitScore(sample, cuts, k)
        assert score.fitness() == _set_fitness(cuts, k)
        for _ in range(6):
            _, fit = score.rescore_word(rng.choice(words))
            assert fit == score.fitness() == _set_fitness(score.cuts, k)

        ils = ils_optimize(sample, k, IlsParams(max_iter=30, rng_seed=seed))
        draws = random.Random(seed)
        starts = (
            {w: draws.randint(0, len(w)) for w in words},
            {w: len(w) for w in words},
            {w: 0 for w in words},
        )
        assert ils.initial_fitness == min(_set_fitness(cuts, k) for cuts in starts)
        assert ils.trace[0].best_fitness == ils.initial_fitness
        assert ils.best_fitness == _set_fitness(ils.cuts, k)

        params = GaParams(population_size=6, max_gen=8, rng_seed=seed)
        ga = ga_optimize(sample, k, params)
        draws = random.Random(seed)
        population = [{w: draws.randint(0, len(w)) for w in words} for _ in range(6)]
        assert ga.initial_fitness == min(_set_fitness(ind, k) for ind in population)
        assert ga.best_fitness == _set_fitness(ga.cuts, k)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


# (random_sample arguments, k, seed, GaParams fields) -> optimizer -> (best
# fitness, initial fitness, trace length, digest of the cuts in
# sorted_nonempty_words order, digest of the trace's fitness list), plus the
# sha256 of the hm DIMACS built from the GA cuts.  Any change to the RNG draw
# order, the tie-breaks or the stopping rules moves these values.
PINNED_TRAJECTORIES = {
    ((2, 40, 8, 0.5, 3), 3, 1, (("population_size", 20), ("max_gen", 40))): {
        "ils": (80, 80, 101, "52cc6d11f1603947", "c9dda9c514780d13"),
        "ga": (63, 106, 41, "fff6bbe2cc33e2cc", "2105c94d202338ba"),
        "hm-ga": "a60d949d0192689adb96cc59e5bfea057a8d4f5d5b44a17eb746b65741b3ca38",
    },
    (
        (3, 60, 10, 0.5, 7),
        4,
        5,
        (("population_size", 16), ("max_gen", 300), ("max_gen_without_improv", 15),
         ("p_mut", 0.1), ("p_parents", 0.2)),
    ): {
        "ils": (220, 220, 101, "d98e7ade21ebed93", "17aaef3ff88086fb"),
        "ga": (243, 346, 81, "264a79b5c251e1e7", "3c63d916386785e7"),
        "hm-ga": "34e8fa8f82e78c4aeadc74ebe75151976a991ddbe762ad40ca048d0b58caf145",
    },
    # the seeded draw beats both corners at k = 1, and the search then improves on it
    ((2, 40, 8, 0.5, 3), 1, 5, (("population_size", 20), ("max_gen", 40))): {
        "ils": (39, 65, 229, "58e87cdcaf9eb8de", "53779e49ee3c44cc"),
        "ga": (38, 62, 41, "99a5789e302acf71", "a2e29a8f75014274"),
        "hm-ga": "217bc56cbe051750f1a188f07f669c348f3b785d3f83b68db0bedc7bfac9318a",
    },
}


@pytest.mark.parametrize(
    "case", list(PINNED_TRAJECTORIES), ids=lambda case: f"n{case[0][0]}-seed{case[0][4]}-k{case[1]}"
)
def test_pinned_optimizer_trajectory(case):
    args, k, seed, ga_fields = case
    sample = random_sample(*args)
    words = sample.sorted_nonempty_words()

    def summary(result):
        return (
            result.best_fitness,
            result.initial_fitness,
            len(result.trace),
            _digest([result.cuts[w] for w in words]),
            _digest([p.best_fitness for p in result.trace]),
        )

    pins = PINNED_TRAJECTORIES[case]
    assert summary(ils_optimize(sample, k, IlsParams(rng_seed=seed))) == pins["ils"]
    ga = ga_optimize(sample, k, GaParams(**dict(ga_fields), rng_seed=seed))
    assert summary(ga) == pins["ga"]
    text = dimacs_text(encode(ModelKind.HYBRID, sample, k, ga.cuts))
    assert hashlib.sha256(text.encode()).hexdigest() == pins["hm-ga"]


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_average(self):
        assert spearman_rho([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)

    def test_constant_series_is_zero(self):
        assert spearman_rho([1, 1, 1], [1, 2, 3]) == 0.0
