"""Per-layer microbenchmark of the split optimizers: one ILS run and one short GA run.

One seeded random sample at k=5, timed with pytest-benchmark over a few
rounds so tier-1 stays fast.  The GA runs a fixed number of generations, so
each round scores the same number of individuals.  Compare runs with
``pytest tests/test_splitopt_bench.py --benchmark-only``.
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


def test_ils_optimize(benchmark):
    sample = random_sample(*SAMPLE_ARGS, seed=7)
    params = IlsParams(rng_seed=1)
    result = benchmark.pedantic(ils_optimize, args=(sample, 5, params), rounds=3, iterations=1)
    assert result.best_fitness <= result.initial_fitness
