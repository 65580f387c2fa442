import math
import random
import shlex
import sys
import tempfile
from itertools import combinations, repeat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nfasat.cdcl import CdclSolver
from nfasat.cnf import CnfInstance, dimacs_text, final_var, trans_var
from nfasat.cli import random_sample
from nfasat.encoders import ModelKind, encode
from nfasat.nfa import Nfa, accepts, verify
from nfasat.sample import Sample
from nfasat.solver import (
    SolverError,
    decode_nfa,
    is_fooling_set,
    lex_leader,
    solve_dimacs_file,
    solve_external,
    solve_in_process,
    _parse_solver_output,
)
from nfasat.splitopt import IlsParams, ils_optimize

from _helpers import BUNDLED_SOLVER, brute_force_sat, search_in_process
from oracle import oracle_exists


def unit_instance(*units: int) -> CnfInstance:
    inst = CnfInstance(1)
    for lit in units:
        inst.add_clauses([(lit,)], ["other"])
    return inst


class TestInProcess:
    def test_single_unit_sat(self):
        out = solve_in_process(unit_instance(1))
        assert out.status == "SAT"
        assert out.assignment == {1: True}

    def test_contradiction_unsat(self):
        out = solve_in_process(unit_instance(1, -1))
        assert out.status == "UNSAT"
        assert out.assignment is None

    def test_timeout_zero_unknown(self):
        out = solve_in_process(unit_instance(1), timeout_seconds=0)
        assert out.status == "UNKNOWN"

    @pytest.mark.parametrize("timeout", [math.nan, -1])
    def test_bad_timeout_raises(self, timeout):
        with pytest.raises(ValueError, match="timeout must be a number of seconds >= 0"):
            solve_in_process(unit_instance(1), timeout)

    def test_assignment_covers_all_variables(self):
        inst = CnfInstance(2)  # variable 2 is never mentioned in a clause
        inst.add_clauses([(1,)], ["other"])
        out = solve_in_process(inst)
        assert set(out.assignment) == {1, 2}


class TestExternal:
    def test_bundled_solver_round_trip_sat(self):
        out = solve_external(unit_instance(1), BUNDLED_SOLVER, timeout_seconds=60)
        assert out.status == "SAT"
        assert out.assignment == {1: True}
        assert out.decisions is not None

    def test_default_command_without_pythonpath(self, monkeypatch, tmp_path):
        # nfasat is importable here only through sys.path, as from a checkout;
        # the solver process still imports it, through the PYTHONPATH it is given
        monkeypatch.delenv("PYTHONPATH", raising=False)
        monkeypatch.chdir(tmp_path)
        out = solve_external(unit_instance(1), BUNDLED_SOLVER, timeout_seconds=60)
        assert out.status == "SAT"
        assert out.assignment == {1: True}

    def test_counters_match_a_full_search(self):
        inst = encode(ModelKind.PREFIX, Sample.build(2, [(0, 1), (1, 1)], [(1,), (0,)]), 2)
        solver = CdclSolver(inst.var_count, inst.clauses)
        _, _, decisions = solver.solve()
        external = solve_external(inst, BUNDLED_SOLVER, timeout_seconds=60)
        counters = (external.decisions, external.conflicts, external.propagations)
        assert counters == (decisions, solver.conflicts, solver.propagations)
        assert solver.propagations > 0

    def test_cnf_only_template_without_a_timeout_runs_unlimited(self, tmp_path):
        path = tmp_path / "unit.cnf"
        path.write_text(dimacs_text(unit_instance(1)))
        command = f"{shlex.quote(sys.executable)} -m nfasat.dimacs_solver {{cnf}}"
        out = solve_dimacs_file(path, command, None)
        assert out.status == "SAT"
        assert out.assignment == {1: True}

    @pytest.mark.parametrize("timeout", [math.inf, 3e6])
    def test_timeout_longer_than_a_process_wait_runs_unlimited(self, tmp_path, timeout):
        # subprocess cannot wait that long; the solver still gets the value
        path = tmp_path / "unit.cnf"
        path.write_text(dimacs_text(unit_instance(1)))
        out = solve_dimacs_file(path, BUNDLED_SOLVER, timeout)
        assert out.status == "SAT"
        assert out.assignment == {1: True}

    @pytest.mark.parametrize("timeout", [math.nan, -1.0])
    def test_bad_timeout_raises_before_a_process_starts(self, tmp_path, timeout):
        # a process that started would end in SolverError: the command does not exist
        path = tmp_path / "unit.cnf"
        path.write_text(dimacs_text(unit_instance(1)))
        with pytest.raises(ValueError, match="timeout must be a number of seconds >= 0"):
            solve_dimacs_file(path, "/nonexistent/solver {cnf} {timeout}", timeout)

    def test_timeout_template_without_a_timeout_raises(self, tmp_path):
        path = tmp_path / "unit.cnf"
        path.write_text(dimacs_text(unit_instance(1)))
        with pytest.raises(ValueError, match=r"\{timeout\} in .* needs a timeout, got None"):
            solve_dimacs_file(path, BUNDLED_SOLVER, None)

    def test_bundled_solver_unsat(self):
        out = solve_external(unit_instance(1, -1), BUNDLED_SOLVER, timeout_seconds=60)
        assert out.status == "UNSAT"

    def test_timeout_zero_unknown(self):
        out = solve_external(unit_instance(1), BUNDLED_SOLVER, timeout_seconds=0)
        assert out.status == "UNKNOWN"

    def test_crash_raises(self):
        with pytest.raises(SolverError):
            solve_external(unit_instance(1), solver_cmd="/nonexistent/solver {cnf}")

    def test_garbage_output_raises(self):
        with pytest.raises(SolverError):
            solve_external(unit_instance(1), solver_cmd="echo hello")

    def test_agrees_with_in_process_on_encodings(self):
        sample = Sample.build(2, [(0, 1), (0,)], [(1,), (1, 1)])
        inst = encode(ModelKind.PREFIX, sample, 2)
        external = solve_external(inst, BUNDLED_SOLVER, timeout_seconds=60)
        assert external.status == solve_in_process(inst).status

    def test_verdict_stable_under_clause_shuffle(self):
        sample = Sample.build(2, [(0, 1)], [(1, 0)])
        base = encode(ModelKind.PREFIX, sample, 2)
        reference = solve_in_process(base).status
        rng = random.Random(0)
        for _ in range(5):
            shuffled = CnfInstance()
            shuffled.fresh_aux("other", base.var_count)
            order = list(base.clauses)
            rng.shuffle(order)
            for clause in order:
                shuffled.add_clauses([clause], ["other"])
            assert solve_in_process(shuffled).status == reference


class TestOutputParsing:
    def test_parse_sat_with_model(self):
        status, lits, counters = _parse_solver_output(
            "c comment\ns SATISFIABLE\nv 1 -2 0\nc decisions 17\nc Conflicts 4\n"
        )
        assert status == "SAT"
        assert lits == [1, -2]
        assert counters == {"decisions": 17, "conflicts": 4, "propagations": None}

    def test_parse_unsat(self):
        status, lits, counters = _parse_solver_output("s UNSATISFIABLE\n")
        assert status == "UNSAT" and lits == []
        assert counters == {"decisions": None, "conflicts": None, "propagations": None}

    def test_parse_glucose_style_stats(self):
        text = (
            "c conflicts             : 1204           (2410 /sec)\n"
            "c decisions             : 3735           (0.00 % random) (7480 /sec)\n"
            "c propagations          : 68021          (136216 /sec)\n"
            "c conflict literals     : 9330           (21.28 % deleted)\n"
            "s UNSATISFIABLE\n"
        )
        _, _, counters = _parse_solver_output(text)
        assert counters == {"decisions": 3735, "conflicts": 1204, "propagations": 68021}

    def test_missing_status_raises(self):
        with pytest.raises(SolverError):
            _parse_solver_output("v 1 0\n")

    def test_non_integer_literal_raises(self):
        with pytest.raises(SolverError, match="bad literal 'x'"):
            _parse_solver_output("s SATISFIABLE\nv 1 x 0\n")


class TestDecode:
    def test_decode_simple_loop(self):
        inst, f1, d = CnfInstance(1, 1), 1, 2
        nfa = decode_nfa({f1: True, d: True}, inst, 1, 1)
        assert nfa.finals == frozenset({1})
        assert nfa.transitions == frozenset({(1, 0, 1)})

    def test_decode_nothing_final(self):
        nfa = decode_nfa({}, CnfInstance(1, 1), 1, 1)
        assert nfa.finals == frozenset()
        assert not verify(nfa, Sample.build(1, [()], [])).ok

    def test_decode_every_sat_outcome_verifies(self):
        rng = random.Random(1)
        for _ in range(10):
            words = [tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))) for _ in range(3)]
            pos = set(words[:2])
            neg = set(words[2:]) - pos
            sample = Sample.build(2, pos, neg)
            inst = encode(ModelKind.PREFIX, sample, 3)
            out = solve_in_process(inst)
            if out.status == "SAT":
                nfa = decode_nfa(out.assignment, inst, 3, 2)
                assert verify(nfa, sample).ok


# (n, k) pairs inside the oracle's vectorized range, n * k^2 <= 20.
_ORACLE_SIZES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3) if n * k * k <= 20]
_WIDE_SIZES = [(n, k) for n in (3, 4, 5) for k in (1, 2, 3) if n * k * k <= 20]


@st.composite
def _sized_samples(draw, sizes=_ORACLE_SIZES):
    n, k = draw(st.sampled_from(sizes))
    word = st.lists(st.integers(0, n - 1), max_size=4).map(tuple)
    words = draw(st.lists(word, min_size=1, max_size=7, unique=True))
    split = draw(st.integers(0, len(words)))
    sample = Sample.build(n, words[:split], words[split:])
    cuts = {w: draw(st.integers(0, len(w))) for w in sample.sorted_nonempty_words()}
    return sample, k, cuts


# Plus k = 4, where the lex-leader predicate orders two adjacent pairs of
# states; past the oracle's range the full search alone is the reference.
_EARLY_STOP_SIZES = _ORACLE_SIZES + [(1, 4), (2, 4)]


@settings(max_examples=300, deadline=None)
@given(_sized_samples(_EARLY_STOP_SIZES))
def test_early_stop_matches_full_search_and_oracle(case):
    """Stopping once the finals and transitions are set, with the lex-leader
    predicate, keeps every verdict of a full search without it and of the
    oracle, and every early SAT decodes to an NFA that verifies."""
    sample, k, cuts = case
    n = sample.alphabet_size
    truth = None
    if n * k * k <= 20:
        truth = "SAT" if oracle_exists(sample, k)[0] else "UNSAT"
    for kind in ModelKind:
        inst = encode(kind, sample, k, cuts if kind == ModelKind.HYBRID else None)
        assert inst.decision_block == k + n * k * k
        full_status, _, _ = CdclSolver(inst.var_count, inst.clauses).solve(decided_by=0)
        early = solve_in_process(inst)
        assert early.status == full_status == (truth or full_status), kind
        if early.status == "SAT":
            assert verify(decode_nfa(early.assignment, inst, k, n), sample).ok, kind


@settings(max_examples=300, deadline=None)
@given(_sized_samples(_WIDE_SIZES))
def test_wide_alphabet_verdicts_match_oracle(case):
    """pm, sm and hm at drawn cuts agree with the oracle over 3 to 5 symbols."""
    sample, k, cuts = case
    truth = "SAT" if oracle_exists(sample, k)[0] else "UNSAT"
    for kind in (ModelKind.PREFIX, ModelKind.SUFFIX, ModelKind.HYBRID):
        inst = encode(kind, sample, k, cuts if kind == ModelKind.HYBRID else None)
        out = solve_in_process(inst)
        assert out.status == truth, kind
        if out.status == "SAT":
            nfa = decode_nfa(out.assignment, inst, k, sample.alphabet_size)
            assert verify(nfa, sample).ok, kind


def test_a_wide_layout_solves_in_linear_time():
    """pm of two words over 10,000 symbols at k = 2 is a 40,002-variable
    layout decided one variable at a time.  A solver that rescans the
    decision block or the trail per decision is quadratic here: 14 s or more
    on a 2-core host, against about 0.1 s."""
    sample = Sample.build(10_000, [(0, 1)], [(1, 0)])
    inst = encode(ModelKind.PREFIX, sample, 2)
    out = solve_in_process(inst)
    assert out.status == "SAT"
    assert verify(decode_nfa(out.assignment, inst, 2, 10_000), sample).ok
    assert out.solve_seconds < 5.0


def _column_ordered(nfa: Nfa) -> Nfa:
    """nfa with states 2..k renumbered so their columns (final, then the
    transition from state 1 per symbol) rise in lex order."""
    def column(j):
        return (j in nfa.finals, *((1, a, j) in nfa.transitions for a in range(nfa.n)))

    order = [1, *sorted(range(2, nfa.k + 1), key=column)]
    new = {old: i for i, old in enumerate(order, 1)}
    return Nfa(
        nfa.k, nfa.n,
        frozenset((new[i], a, new[j]) for i, a, j in nfa.transitions),
        frozenset(map(new.get, nfa.finals)),
    )


def _layout_units(inst: CnfInstance, nfa: Nfa) -> list[tuple[int]]:
    """Unit clauses that fix the instance's finals and transitions to nfa's."""
    states = range(1, nfa.k + 1)
    units = []
    for i in states:
        f = inst.lookup(final_var(i))
        units.append((f if i in nfa.finals else -f,))
        for a in range(nfa.n):
            for j in states:
                t = inst.lookup(trans_var(a, i, j))
                units.append((t if (i, a, j) in nfa.transitions else -t,))
    return units


@st.composite
def _planted_cases(draw, ks=(3, 4)):
    n, k = draw(st.sampled_from([(n, k) for n in (1, 2) for k in ks]))
    states = range(1, k + 1)
    edges = [(i, a, j) for i in states for a in range(n) for j in states]
    target = Nfa(
        k, n,
        frozenset(e for e in edges if draw(st.booleans())),
        frozenset(i for i in states if draw(st.booleans())),
    )
    word = st.lists(st.integers(0, n - 1), max_size=5).map(tuple)
    words = draw(st.lists(word, min_size=1, max_size=8, unique=True))
    cuts = {w: draw(st.integers(0, len(w))) for w in words if w}
    return target, words, cuts


@settings(max_examples=100, deadline=None)
@given(_planted_cases())
def test_column_ordered_target_satisfies_clauses_and_predicate(case):
    """A target NFA, renumbered into column order and fixed as units,
    satisfies every encoding of the words it labels plus the predicate."""
    target, words, cuts = case
    planted = _column_ordered(target)
    positives = {w for w in words if accepts(target, w)}
    assert positives == {w for w in words if accepts(planted, w)}
    sample = Sample.build(target.n, positives, set(words) - positives)
    k, n = target.k, target.n
    for kind in ModelKind:
        inst = encode(kind, sample, k, cuts if kind == ModelKind.HYBRID else None)
        var_count, predicate = lex_leader(inst)
        assert len(predicate) == (k - 2) * (3 * n + 1), kind
        units = _layout_units(inst, planted)
        status, _, _ = CdclSolver(var_count, inst.clauses + predicate + units).solve()
        assert status == "SAT", kind


@settings(max_examples=100, deadline=None)
@given(_planted_cases(ks=range(1, 5)), st.data())
def test_layout_units_after_encoding_drop_the_predicate_and_the_early_stop(case, data):
    """Units that fix the layout to the target, one of them perhaps flipped,
    withdraw the decision block: no predicate, the verdict of a full search
    (SAT exactly when the fixed NFA is consistent), and a complete model."""
    target, words, cuts = case
    positives = {w for w in words if accepts(target, w)}
    sample = Sample.build(target.n, positives, set(words) - positives)
    k, n = target.k, target.n
    flip = data.draw(st.integers(0, k + n * k * k))  # 0 flips nothing
    for kind in ModelKind:
        inst = encode(kind, sample, k, cuts if kind == ModelKind.HYBRID else None)
        units = _layout_units(inst, target)
        if flip:
            units[flip - 1] = (-units[flip - 1][0],)
        fixed = decode_nfa({abs(lit): lit > 0 for (lit,) in units}, inst, k, n)
        inst.add_clauses(units, repeat("planted_unit"))
        assert inst.decision_block == 0 and lex_leader(inst) == (inst.var_count, []), kind
        full_status, _, _ = CdclSolver(inst.var_count, inst.clauses).solve()
        out = solve_in_process(inst)
        assert out.status == full_status == ("SAT" if verify(fixed, sample).ok else "UNSAT"), kind
        if out.status == "SAT":
            model = out.assignment
            assert all(any(model[abs(lit)] == (lit > 0) for lit in c) for c in inst.clauses), kind


@pytest.mark.parametrize("kind", [ModelKind.PREFIX, ModelKind.SUFFIX])
def test_lex_leader_cuts_decisions_on_an_unsat_proof(kind):
    inst = encode(kind, random_sample(2, 50, 12, 0.5, seed=7), 4)
    plain = CdclSolver(inst.var_count, inst.clauses)
    assert plain.solve(decided_by=inst.decision_block)[0] == "UNSAT"
    out = solve_in_process(inst)
    assert out.status == "UNSAT"
    assert out.decisions < plain.decisions


@st.composite
def _any_size_samples(draw):
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    word = st.lists(st.integers(0, n - 1), max_size=4).map(tuple)
    words = draw(st.lists(word, min_size=1, max_size=7, unique=True).filter(any))  # ILS needs a cut
    split = draw(st.integers(0, len(words)))
    return Sample.build(n, words[:split], words[split:]), k, draw(st.integers(0, 1000))


@settings(max_examples=100, deadline=None)
@given(_any_size_samples())
def test_in_process_route_searches_as_the_checking_route_does(case):
    """solve_in_process files the store's clauses and the predicate unchecked;
    the search is the one a checked load of the same clauses takes.  Where
    the sample's fooling set settles k, that search is UNSAT too, the
    in-process route does not search, and it searches as the checking route
    does once the sample is detached."""
    sample, k, seed = case
    cuts = ils_optimize(sample, k, IlsParams(rng_seed=seed)).cuts
    settled = len(sample.fooling_set) > k
    for kind in ModelKind:
        inst = encode(kind, sample, k, cuts if kind == ModelKind.HYBRID else None)
        solver_vars, predicate = lex_leader(inst)
        checking = CdclSolver(solver_vars, inst.clauses + predicate)
        status, model, decisions = checking.solve(decided_by=inst.decision_block)
        out = solve_in_process(inst)
        if settled:
            assert status == "UNSAT", kind
            assert (out.status, out.decisions, out.conflicts, out.propagations) == ("UNSAT", 0, 0, 0), kind
            assert out.certificate == sample.fooling_set, kind
            out = search_in_process(inst)
        found = (out.status, out.decisions, out.conflicts, out.propagations)
        assert found == (status, decisions, checking.conflicts, checking.propagations), kind
        assert out.certificate is None, kind
        if status == "SAT":
            assert out.assignment == {v: model[v] for v in range(1, inst.var_count + 1)}, kind
        else:
            assert out.assignment is None, kind


def _fools(sample: Sample, pairs) -> bool:
    """The fooling-set conditions, pair by pair, apart from ``is_fooling_set``."""
    return all(x + y in sample.positives for x, y in pairs) and all(
        pairs[i][0] + pairs[j][1] in sample.negatives or pairs[j][0] + pairs[i][1] in sample.negatives
        for i in range(len(pairs))
        for j in range(i)
    )


def _largest_fooling_set_size(sample: Sample) -> int:
    """Brute force over every subset of the positive words' splits."""
    splits = [(w[:i], w[i:]) for w in sample.positives for i in range(len(w) + 1)]
    return next(
        size
        for size in range(len(splits), -1, -1)
        if any(_fools(sample, pairs) for pairs in combinations(splits, size))
    )


@settings(max_examples=300, deadline=None)
@given(_sized_samples(_ORACLE_SIZES + [(1, 4)]))
def test_a_fooling_set_larger_than_k_proves_unsat(case):
    """Whenever the fooling set outnumbers k, no k-state NFA is consistent
    (the oracle), every model's full search is UNSAT, and the pairs pass
    both checks; on at most 12 splits no larger fooling set exists."""
    sample, k, cuts = case
    pairs = sample.fooling_set
    assert is_fooling_set(sample, pairs) and _fools(sample, pairs)
    if sum(len(w) + 1 for w in sample.positives) <= 12:
        assert len(pairs) == _largest_fooling_set_size(sample)
    if len(pairs) <= k:
        return
    assert not oracle_exists(sample, k)[0]
    for kind in ModelKind:
        inst = encode(kind, sample, k, cuts if kind == ModelKind.HYBRID else None)
        assert CdclSolver(inst.var_count, inst.clauses).solve()[0] == "UNSAT", kind
        out = solve_in_process(inst)
        assert (out.status, out.decisions, out.certificate) == ("UNSAT", 0, pairs), kind


def test_a_corrupted_fooling_set_is_rejected_and_the_solver_searches():
    sample = random_sample(2, 30, 8, 0.5, seed=7)
    pairs, k = sample.fooling_set, 2
    assert len(pairs) == 3 and is_fooling_set(sample, pairs)
    negative = min(sample.negatives)
    corrupted = {
        "a pair splits a negative word": ((negative, ()), *pairs[1:]),
        "a cross word is positive": (pairs[0], *pairs[:2]),  # a pair twice: x·y is positive
    }
    for why, bad in corrupted.items():
        assert not is_fooling_set(sample, bad), why
        for kind in (ModelKind.PREFIX, ModelKind.SUFFIX):
            inst = encode(kind, sample, k)
            solver_vars, predicate = lex_leader(inst)
            checking = CdclSolver(solver_vars, inst.clauses + predicate)
            status, _, decisions = checking.solve(decided_by=inst.decision_block)
            sample.__dict__["fooling_set"] = bad  # what the cached property would return
            out = solve_in_process(inst)
            del sample.__dict__["fooling_set"]
            assert status == out.status == "UNSAT", why
            assert (out.decisions, out.certificate) == (decisions, None), why
            assert solve_in_process(inst).certificate == pairs, why


@st.composite
def _clause_lists(draw):
    """Up to 8 variables and clauses over them, repeated and clashing literals allowed."""
    var_count = draw(st.integers(1, 8))
    literal = st.integers(-var_count, var_count).filter(bool)
    return var_count, draw(st.lists(st.lists(literal, max_size=4).map(tuple), max_size=12))


@settings(max_examples=200, deadline=None)
@given(_clause_lists())
def test_store_keeps_repeats_and_the_routes_agree(case):
    """The store keeps a clause as given; the loader merges repeats and drops
    tautologies, for the store's clauses and a parsed file's alike."""
    var_count, clauses = case
    inst = CnfInstance()
    inst.fresh_aux("other", var_count)
    inst.add_clauses(list(clauses), repeat("other"))
    assert inst.clauses == clauses
    in_process = solve_in_process(inst)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.cnf"
        path.write_text(dimacs_text(inst))
        from_file = solve_dimacs_file(path, None, None)
    expected = "SAT" if brute_force_sat(var_count, clauses) else "UNSAT"
    assert in_process.status == from_file.status == expected
    for out in (in_process, from_file):
        if expected == "SAT":
            assert all(any(out.assignment[abs(lit)] == (lit > 0) for lit in c) for c in clauses)
