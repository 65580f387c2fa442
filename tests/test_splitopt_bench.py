"""Per-layer microbenchmark of the split optimizers: one ILS sweep and one short GA run.

One seeded random sample, timed with pytest-benchmark over a few rounds so
tier-1 stays fast.  The ILS runs k = 1, 2, 3 on a fresh sample each round,
as perfbench's mink-target does, so the sample's index and mask table are
built inside the timed call.  The GA runs a fixed number of generations at
k = 5, so each round scores the same number of individuals.  Compare runs
with ``pytest tests/test_splitopt_bench.py --benchmark-only``.
"""

from nfasat.cli import random_sample
from nfasat.splitopt import GaParams, IlsParams, ga_optimize, ils_optimize

SAMPLE_ARGS = (2, 80, 14, 0.5)


def test_ga_optimize(benchmark):
    sample = random_sample(*SAMPLE_ARGS, seed=7)
    params = GaParams(max_gen=20, max_gen_without_improv=20, rng_seed=1)
    result = benchmark.pedantic(ga_optimize, args=(sample, 5, params), rounds=3, iterations=1)
    assert len(result.trace) == 21
    assert result.best_fitness <= result.initial_fitness


def _fresh_sample():
    return (random_sample(*SAMPLE_ARGS, seed=7),), {}


def _ils_sweep(sample):
    return [ils_optimize(sample, k, IlsParams(rng_seed=1)) for k in (1, 2, 3)]


def test_ils_optimize(benchmark):
    results = benchmark.pedantic(_ils_sweep, setup=_fresh_sample, rounds=3, iterations=1)
    assert all(result.best_fitness <= result.initial_fitness for result in results)
