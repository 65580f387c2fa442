"""Per-layer microbenchmarks of the DIMACS layer: write one instance, and parse it back.

One fixed instance (the suffix encoding of a seeded random sample at k=4,
about 250 kB of DIMACS, so the parser reads several blocks), timed with
pytest-benchmark over a few rounds so tier-1 stays fast.  Compare runs with
``pytest tests/test_cnf_bench.py --benchmark-only``.
"""

from io import StringIO

from nfasat.cli import random_sample
from nfasat.cnf import dimacs_text, parse_dimacs, write_dimacs
from nfasat.encoders import ModelKind, encode


def _instance():
    return encode(ModelKind.SUFFIX, random_sample(2, 60, 10, 0.5, seed=7), 4)


def test_write_dimacs(benchmark):
    instance = _instance()

    def write():
        sink = StringIO()
        write_dimacs(instance, sink)
        return sink.getvalue()

    text = benchmark.pedantic(write, rounds=3, iterations=1)
    assert text.count("\n") == instance.clause_count() + 1


def test_parse_dimacs(benchmark):
    instance = _instance()
    text = dimacs_text(instance)
    parsed = benchmark.pedantic(parse_dimacs, args=(text,), rounds=3, iterations=1)
    assert parsed == (instance.var_count, instance.clauses)
