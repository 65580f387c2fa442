"""Per-layer microbenchmarks of the bundled CDCL core: load plus solve, and load
alone, through ``CdclSolver(var_count, clauses)`` with its range check and
through the unchecked ``CdclSolver.from_flat`` on the store's flat literals
and arities (the route ``solve_in_process`` and ``nfasat solve`` take), and
``solve_in_process`` searching an encoded instance, which loads the store's
flat literals and arities with its lex-leader clauses.

One fixed UNSAT instance (the prefix encoding of a seeded random sample at
k=4), timed with pytest-benchmark over a few rounds so tier-1 stays fast.
A wide-layout SAT solve (two words over 10,000 symbols at k=2) shows a
return to per-decision rescans, which make its time quadratic in the layout.
Compare runs with ``pytest tests/test_cdcl_bench.py --benchmark-only``.
"""

from nfasat.cdcl import SAT, UNSAT, CdclSolver
from nfasat.cli import random_sample
from nfasat.encoders import ModelKind, encode
from nfasat.sample import Sample
from nfasat.solver import solve_in_process

from _helpers import search_in_process


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
    """The store's clauses, which ``add_flat`` checked, loaded flat and unchecked."""
    instance = encode(ModelKind.PREFIX, random_sample(2, 40, 7, 0.5, seed=7), 4)

    def load():
        return CdclSolver.from_flat(instance.var_count, instance.literals, instance.arities)

    solver = benchmark.pedantic(load, rounds=3, iterations=1)
    assert solver.decisions == 0 and not solver.unsat_at_load


def test_solve_in_process_search_of_the_flat_store(benchmark):
    instance = encode(ModelKind.PREFIX, random_sample(2, 40, 7, 0.5, seed=7), 4)
    outcome = benchmark.pedantic(search_in_process, args=(instance,), rounds=3, iterations=1)
    assert outcome.status == UNSAT and outcome.certificate is None and outcome.conflicts > 0


def test_cdcl_wide_layout_solve(benchmark):
    instance = encode(ModelKind.PREFIX, Sample.build(10_000, [(0, 1)], [(1, 0)]), 2)
    outcome = benchmark.pedantic(solve_in_process, args=(instance,), rounds=3, iterations=1)
    assert outcome.status == SAT
