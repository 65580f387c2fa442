"""Per-layer microbenchmark of the encoders: encode one sample under pm, sm and hm,
and a smaller one under dm.

One seeded random sample at k=3 (hm with ILS cuts found beforehand), timed
with pytest-benchmark over a few rounds so tier-1 stays fast.  dm, whose
instance grows as k^|w|, encodes a sample of 30 words of at most 6 letters
at k=3 (19,231 clauses); no perfbench workload runs dm.  Each round
encodes a fresh copy of the sample, so it is timed cold, index build included.  Compare runs
with ``pytest tests/test_encode_bench.py --benchmark-only``.
"""

import pytest

from nfasat.cli import random_sample
from nfasat.encoders import ModelKind, encode
from nfasat.sample import Sample
from nfasat.splitopt import IlsParams, ils_optimize


@pytest.mark.parametrize("kind", [ModelKind.PREFIX, ModelKind.SUFFIX, ModelKind.HYBRID])
def test_encode(benchmark, kind):
    sample = random_sample(3, 60, 10, 0.5, seed=7)
    cuts = ils_optimize(sample, 3, IlsParams(rng_seed=1)).cuts if kind == ModelKind.HYBRID else None

    def cold():  # a new Sample per round, so every round builds the sample's index too
        return (kind, Sample(sample.alphabet_size, sample.positives, sample.negatives), 3, cuts), {}

    instance = benchmark.pedantic(encode, setup=cold, rounds=3, iterations=1)
    assert instance.clause_count() > 0


def test_encode_direct(benchmark):
    sample = random_sample(2, 30, 6, 0.5, seed=7)

    def cold():
        return (ModelKind.DIRECT, Sample(sample.alphabet_size, sample.positives, sample.negatives), 3), {}

    instance = benchmark.pedantic(encode, setup=cold, rounds=3, iterations=1)
    assert instance.clause_count() == 19_231
