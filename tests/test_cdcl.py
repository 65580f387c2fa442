import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from nfasat.cdcl import SAT, UNKNOWN, UNSAT, CdclSolver
from nfasat.cnf import dimacs_text, parse_dimacs
from nfasat.cli import random_sample
from nfasat.encoders import ModelKind, encode
from nfasat.sample import Sample
from nfasat.solver import solve_in_process
from nfasat.splitopt import IlsParams, ils_optimize

from _helpers import brute_force_sat


def clauses_strategy(max_vars=8, max_clauses=30):
    literal = st.integers(1, max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literal, min_size=1, max_size=4).map(tuple)
    return st.lists(clause, max_size=max_clauses)


def test_empty_formula_sat():
    status, model, _ = CdclSolver(3, []).solve()
    assert status == SAT
    assert model is not None


def test_unit_clause():
    status, model, _ = CdclSolver(1, [(1,)]).solve()
    assert status == SAT and model[1] is True


def test_contradicting_units():
    status, _, _ = CdclSolver(1, [(1,), (-1,)]).solve()
    assert status == UNSAT


def test_empty_clause_unsat():
    status, _, _ = CdclSolver(2, [()]).solve()
    assert status == UNSAT


def test_deadline_zero_unknown():
    import time

    status, _, _ = CdclSolver(1, [(1,)]).solve(deadline=time.perf_counter())
    assert status == UNKNOWN


def test_pigeonhole_3_into_2_unsat():
    # variables p_{i,j}: pigeon i in hole j; i in 0..2, j in 0..1
    def var(i, j):
        return i * 2 + j + 1

    clauses = [(var(i, 0), var(i, 1)) for i in range(3)]
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                clauses.append((-var(i1, j), -var(i2, j)))
    status, _, _ = CdclSolver(6, clauses).solve()
    assert status == UNSAT


@given(clauses_strategy())
@settings(max_examples=300, deadline=None)
def test_matches_truth_table(clauses):
    status, model, decisions = CdclSolver(8, clauses).solve()
    expected = brute_force_sat(8, [tuple(c) for c in clauses])
    assert (status == SAT) == expected
    assert decisions >= 0
    if status == SAT:
        for clause in clauses:
            filtered = {}
            for lit in clause:
                prev = filtered.setdefault(abs(lit), lit)
                if prev != lit:
                    break  # tautology, satisfied by definition
            else:
                assert any((lit > 0) == model[abs(lit)] for lit in clause)


def test_deterministic_across_runs():
    rng = random.Random(5)
    clauses = [
        tuple(
            rng.choice([-1, 1]) * rng.randint(1, 10)
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(40)
    ]
    first = CdclSolver(10, clauses).solve()
    second = CdclSolver(10, clauses).solve()
    assert first == second


def encoder_like_formula(var_count, seed):
    """Random clauses with the generated instances' mix: about 70% binary.

    One to six clauses per variable keeps many formulas near the SAT/UNSAT
    boundary, where the solver has to learn clauses.
    """
    rng = random.Random(seed)
    clauses = []
    for _ in range(rng.randint(var_count, 6 * var_count)):
        size = rng.choice((1, 2, 2, 2, 2, 2, 2, 2, 3, 5))
        clauses.append(tuple(rng.choice((-1, 1)) * rng.randint(1, var_count) for _ in range(size)))
    return clauses


@given(st.integers(1, 12), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_matches_brute_force_on_binary_heavy_formulas(var_count, seed):
    clauses = encoder_like_formula(var_count, seed)
    status, model, _ = CdclSolver(var_count, clauses).solve()
    assert (status == SAT) == brute_force_sat(var_count, clauses)
    if status == SAT:
        assert all(any((lit > 0) == model[abs(lit)] for lit in c) for c in clauses)


def test_parsed_dimacs_with_duplicates_tautologies_and_repeated_units():
    text = (
        "p cnf 4 8\n"
        "1 1 2 0\n"  # duplicate literal
        "3 -3 4 0\n"  # tautology
        "-1 0\n"
        "-1 0\n"  # repeated unit
        "2 -4 2 -4 0\n"  # duplicates in a binary clause
        "4 4 4 0\n"  # a unit written three times
        "-2 3 1 3 0\n"
        "1 -3 -3 2 0\n"
    )
    var_count, clauses = parse_dimacs(text)
    status, model, _ = CdclSolver(var_count, clauses).solve()
    assert status == SAT
    assert model[1] is False and model[2] is True and model[3] is True and model[4] is True
    status, _, _ = CdclSolver(var_count, clauses + [(-3, -4, -3)]).solve()
    assert status == UNSAT


def test_solving_leaves_the_instance_untouched():
    sample = Sample.build(2, [(0, 1), (1, 1, 0), ()], [(1,), (0, 0), (1, 0, 1)])
    for k in (1, 2, 3):
        inst = encode(ModelKind.PREFIX, sample, k)
        before = dimacs_text(inst)
        solve_in_process(inst)
        assert dimacs_text(inst) == before


def test_pigeonhole_4_into_3_unsat_through_learnt_units_and_binaries():
    def var(i, j):
        return i * 3 + j + 1

    clauses = [tuple(var(i, j) for j in range(3)) for i in range(4)]
    for j in range(3):
        for i1 in range(4):
            for i2 in range(i1 + 1, 4):
                clauses.append((-var(i1, j), -var(i2, j)))
    binaries = sum(len(c) == 2 for c in clauses)
    solver = CdclSolver(12, clauses)
    status, _, _ = solver.solve()
    assert status == UNSAT
    # The proof needs learnt binary clauses, which join the implication lists,
    # and learnt units: the input has none, yet level 0 ends with assignments.
    assert sum(map(len, solver.bins)) > 2 * binaries
    assert not solver.trail_lim and solver.trail
    assert solver.conflicts > 0 and solver.propagations > 0


def test_decided_by_stops_once_the_block_is_set():
    # x1 is forced; x2 and x3 are free, so a full search decides both
    clauses = [(1,), (2, 3), (-2, -3)]
    full = CdclSolver(3, clauses)
    assert full.solve()[0] == SAT and full.decisions == 1
    early = CdclSolver(3, clauses)
    status, model, decisions = early.solve(decided_by=1)
    assert (status, decisions) == (SAT, 0)
    assert model == [False, True, False, False]  # unassigned reads as false


def test_decided_by_still_finds_conflicts_below_the_block():
    status, _, _ = CdclSolver(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)]).solve(decided_by=1)
    assert status == UNSAT


def test_decided_by_out_of_range_raises():
    with pytest.raises(ValueError):
        CdclSolver(2, []).solve(decided_by=3)


@pytest.mark.parametrize("collecting", [True, False])
def test_load_leaves_the_collector_as_it_found_it(collecting):
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        CdclSolver(3, [(1, 2, 3), (-1, 2), (3,)])
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()


def test_failed_load_restores_the_collector():
    was = gc.isenabled()
    try:
        gc.enable()
        with pytest.raises(ValueError, match="literal 4 out of range"):
            CdclSolver(3, [(1, 2, 4)])
        assert gc.isenabled()
    finally:
        gc.enable() if was else gc.disable()


def test_a_load_that_raises_while_the_collector_is_paused_restores_it():
    """from_flat checks nothing, so arities past the literals raise inside the paused load."""
    was = gc.isenabled()
    try:
        gc.enable()
        with pytest.raises(IndexError):
            CdclSolver.from_flat(3, [1], [2])
        assert gc.isenabled()
    finally:
        gc.enable() if was else gc.disable()


# (status, decisions, conflicts, propagations) under the stop rule; a load
# that attached clauses in another order would take another search path.
PINNED_SEARCHES = {
    "pm": (UNSAT, 34, 20, 6795),
    "sm": (UNSAT, 63, 33, 29503),
    "hm-ils": (UNSAT, 34, 20, 6795),  # the ILS keeps its all-prefix start: pm's instance
}


def test_pinned_search_counters():
    sample = random_sample(3, 60, 10, 0.5, seed=7)
    cuts = ils_optimize(sample, 3, IlsParams(rng_seed=1)).cuts
    instances = {
        "pm": encode(ModelKind.PREFIX, sample, 3),
        "sm": encode(ModelKind.SUFFIX, sample, 3),
        "hm-ils": encode(ModelKind.HYBRID, sample, 3, cuts),
    }
    for label, inst in instances.items():
        solver = CdclSolver(inst.var_count, inst.clauses)
        status, _, decisions = solver.solve(decided_by=inst.decision_block)
        found = (status, decisions, solver.conflicts, solver.propagations)
        assert found == PINNED_SEARCHES[label], label
