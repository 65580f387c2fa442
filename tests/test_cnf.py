import pytest
from hypothesis import given, strategies as st

from nfasat.cnf import (
    CnfError,
    CnfInstance,
    dimacs_text,
    final_var,
    parse_dimacs,
    trans_var,
)
from nfasat.nfa import Nfa
from nfasat.solver import decode_nfa, solve_in_process


def _in_layout(name: tuple, k: int, n: int) -> bool:
    """The layout's names, stated without its arithmetic."""
    if name[0] == "final":
        return len(name) == 2 and 1 <= name[1] <= k
    if name[0] == "trans":
        return len(name) == 4 and 0 <= name[1] < n and 1 <= name[2] <= k and 1 <= name[3] <= k
    return False


@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.lists(
        st.tuples(
            st.sampled_from(["final", "trans", "reach"]), st.lists(st.integers(-1, 5), max_size=4)
        ).map(lambda parts: (parts[0], *parts[1])),
        max_size=20,
    ),
    st.randoms(use_true_random=False),
)
def test_layout_numbers_finals_then_transitions(k, n, names, rng):
    inst = CnfInstance(k, n)
    states = range(1, k + 1)
    layout = [final_var(i) for i in states] + [
        trans_var(a, i, j) for a in range(n) for i in states for j in states
    ]
    m = k + n * k * k
    assert [inst.lookup(name) for name in layout] == list(range(1, m + 1))
    assert inst.var_count == inst.layout_size == m
    assert inst.var_family_counts == {"final": k, "transition": n * k * k}
    for name in names:
        if _in_layout(name, k, n):
            assert layout[inst.lookup(name) - 1] == name
        else:
            with pytest.raises(CnfError):
                inst.lookup(name)
    nfa = Nfa(
        k=k,
        n=n,
        transitions=frozenset(
            (i, a, j) for a in range(n) for i in states for j in states if rng.random() < 0.5
        ),
        finals=frozenset(i for i in states if rng.random() < 0.5),
    )
    assignment = {inst.lookup(final_var(i)): i in nfa.finals for i in states}
    assignment.update(
        (inst.lookup(trans_var(a, i, j)), (i, a, j) in nfa.transitions)
        for a in range(n)
        for i in states
        for j in states
    )
    assert decode_nfa(assignment, inst, k, n) == nfa


def test_duplicate_literals_merged():
    inst, x = CnfInstance(1), 1
    inst.add_clause([x, x])
    assert inst.clauses == [(x,)]


def test_tautology_dropped():
    inst, x = CnfInstance(1), 1
    inst.add_clause([x, -x])
    assert inst.clauses == []


def test_empty_clause_marks_unsat():
    inst = CnfInstance()
    inst.add_clause([])
    assert solve_in_process(inst).status == "UNSAT"
    assert inst.clauses == [()]


def test_zero_literal_rejected():
    inst = CnfInstance()
    with pytest.raises(CnfError):
        inst.add_clause([0])


def test_unregistered_variable_rejected():
    inst = CnfInstance()
    with pytest.raises(CnfError):
        inst.add_clause([1])


def test_dimacs_single_unit():
    inst, x = CnfInstance(1), 1
    inst.add_clause([x])
    assert dimacs_text(inst) == "p cnf 1 1\n1 0\n"


def test_dimacs_empty_instance():
    assert dimacs_text(CnfInstance()) == "p cnf 0 0\n"


def test_dimacs_negative_literal_line():
    inst = CnfInstance(2)
    inst.add_clause([-2, 1])
    assert "-2 1 0" in dimacs_text(inst)


def test_stats_histogram_sums_to_clause_count():
    inst, x, y = CnfInstance(2), 1, 2
    inst.add_clause([x], family="a")
    inst.add_clause([x, y], family="b")
    inst.add_clause([-x, -y], family="b")
    assert sum(inst.arity_hist.values()) == inst.clause_count() == 3
    assert inst.family_clause_counts() == {"a": 1, "b": 2}


@given(
    st.lists(
        st.lists(st.integers(-6, 6).filter(lambda v: v != 0), min_size=1, max_size=4),
        max_size=15,
    )
)
def test_dimacs_round_trip(clause_lists):
    inst = CnfInstance(6)
    for lits in clause_lists:
        inst.add_clause(lits)
    var_count, clauses = parse_dimacs(dimacs_text(inst))
    assert var_count == inst.var_count
    assert sorted(clauses) == sorted(inst.clauses)


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 2 1\n1 5 0\n",
        "p cnf 2 1\n-3 0\n",
        "p cnf 2 1\n1 x 0\n",
        "p cnf two 1\n1 0\n",
    ],
)
def test_parse_dimacs_rejects_malformed_input(text):
    with pytest.raises(CnfError):
        parse_dimacs(text)


def _two_vars() -> CnfInstance:
    return CnfInstance(2)


@pytest.mark.parametrize(
    "batch",
    [
        [(1, 2), (0, 2)],  # literal 0
        [(1, 2), (-3,)],  # variable beyond var_count
        [(1, 2), (2, -2)],  # clashing pair
        [(1, 2), (1, 1)],  # repeated variable
    ],
)
def test_bulk_store_rejects_bad_batch_and_stores_nothing(batch):
    inst = _two_vars()
    with pytest.raises(CnfError):
        inst.add_clauses(batch, ["a", "b"])
    assert inst.clauses == [] and inst.family_hist == {}


def test_bulk_store_tallies_families_in_order():
    inst = _two_vars()
    inst.add_clauses([(1, 2), (-1,), (-2, 1)], ["a", "b", "a"])
    assert inst.clauses == [(1, 2), (-1,), (-2, 1)]
    assert inst.family_hist == {"a": {2: 2}, "b": {1: 1}}
    assert inst.arity_hist == {2: 2, 1: 1}


def test_auxiliary_ranges_are_anonymous_and_named_by_family():
    inst = CnfInstance(1)
    first = inst.fresh_aux("prefix_rec_aux", 3)
    reach = inst.fresh_aux("prefix_path", 1)
    second = inst.fresh_aux("accept_aux", 2)
    assert (first, reach, second, inst.var_count) == (2, 5, 6, 7)
    assert inst.var_family_counts == {
        "final": 1, "prefix_rec_aux": 3, "prefix_path": 1, "accept_aux": 2
    }
    assert inst.lookup(final_var(1)) == 1
    with pytest.raises(CnfError):
        inst.lookup(trans_var(0, 1, 1))


def test_decision_block_survives_clauses_inside_it_and_clears_beyond():
    inst = _two_vars()
    aux = inst.fresh_aux("accept_aux", 1)
    inst.decision_block = 2
    inst.add_clause([1, -2])  # a planted unit or any clause over the block keeps it
    assert inst.decision_block == 2
    inst.add_clause([aux, 1])
    assert inst.decision_block == 0
