"""Per-layer microbenchmarks of the bundled CDCL core: load plus solve, and load
alone, with the load's own range check and with ``checked=True`` (how
``solve_in_process`` loads a clause store's clauses and ``nfasat solve`` a
parsed file's).

One fixed UNSAT instance (the prefix encoding of a seeded random sample at
k=4), timed with pytest-benchmark over a few rounds so tier-1 stays fast.
Compare runs with ``pytest tests/test_cdcl_bench.py --benchmark-only``.
"""

from nfasat.cdcl import UNSAT, CdclSolver
from nfasat.cli import random_sample
from nfasat.encoders import ModelKind, encode


def test_cdcl_load_and_solve(benchmark):
    instance = encode(ModelKind.PREFIX, random_sample(2, 40, 7, 0.5, seed=7), 4)

    def load_and_solve():
        return CdclSolver(instance.var_count, instance.clauses).solve()[0]

    status = benchmark.pedantic(load_and_solve, rounds=3, iterations=1)
    assert status == UNSAT


def test_cdcl_load(benchmark):
    instance = encode(ModelKind.PREFIX, random_sample(2, 40, 7, 0.5, seed=7), 4)

    def load():
        return CdclSolver(instance.var_count, instance.clauses)

    solver = benchmark.pedantic(load, rounds=3, iterations=1)
    assert solver.decisions == 0 and not solver.unsat_at_load


def test_cdcl_load_of_checked_clauses(benchmark):
    instance = encode(ModelKind.PREFIX, random_sample(2, 40, 7, 0.5, seed=7), 4)

    def load():
        return CdclSolver(instance.var_count, instance.clauses, checked=True)

    solver = benchmark.pedantic(load, rounds=3, iterations=1)
    assert solver.decisions == 0 and not solver.unsat_at_load
