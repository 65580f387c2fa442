"""Per-layer microbenchmark of the sample layer: build one sample's fooling set.

One seeded random sample (the size of an unsat-random corpus sample), timed
with pytest-benchmark over a few rounds so tier-1 stays fast.  Each round
builds a fresh copy of the sample, so it is timed cold, index build included.
Compare runs with ``pytest tests/test_sample_bench.py --benchmark-only``.
"""

from nfasat.cli import random_sample
from nfasat.sample import Sample
from nfasat.solver import is_fooling_set


def test_fooling_set(benchmark):
    sample = random_sample(2, 50, 7, 0.5, seed=3)

    def cold():  # a new Sample per round, so no round reads a cached index or set
        return (Sample(sample.alphabet_size, sample.positives, sample.negatives),), {}

    pairs = benchmark.pedantic(lambda fresh: fresh.fooling_set, setup=cold, rounds=3, iterations=1)
    assert len(pairs) == 4 and is_fooling_set(sample, pairs)
