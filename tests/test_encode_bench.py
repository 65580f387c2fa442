"""Per-layer microbenchmark of the encoders: encode one sample under pm, sm and hm.

One seeded random sample at k=3 (hm with ILS cuts found beforehand), timed
with pytest-benchmark over a few rounds so tier-1 stays fast.  Each round
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
