"""Per-layer microbenchmark of NFA verification: check one automaton against a sample.

A seeded random 5-state NFA labels 400 random words of length up to 16, so
the automaton is consistent with its sample and every word is checked.
Timed with pytest-benchmark over a few rounds so tier-1 stays fast.  Compare
runs with ``pytest tests/test_nfa_bench.py --benchmark-only``.
"""

import random

from nfasat.nfa import Nfa, accepts, verify
from nfasat.sample import Sample


def _labelled_sample(seed: int = 7) -> tuple[Nfa, Sample]:
    rng = random.Random(seed)
    k, n = 5, 2
    transitions = frozenset(
        (i, a, j)
        for i in range(1, k + 1)
        for a in range(n)
        for j in range(1, k + 1)
        if rng.random() < 0.3
    )
    nfa = Nfa(k=k, n=n, transitions=transitions, finals=frozenset({2, 4}))
    words = {tuple(rng.randrange(n) for _ in range(rng.randint(0, 16))) for _ in range(400)}
    positives = [w for w in words if accepts(nfa, w)]
    return nfa, Sample.build(n, positives, words.difference(positives))


def test_verify(benchmark):
    nfa, sample = _labelled_sample()
    assert sample.positives and sample.negatives
    report = benchmark.pedantic(verify, args=(nfa, sample), rounds=3, iterations=1)
    assert report.ok
