import gc
import random
import tracemalloc
from collections import Counter
from io import StringIO
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from nfasat import cnf
from nfasat.cnf import (
    CnfError,
    CnfInstance,
    dimacs_text,
    final_var,
    parse_dimacs,
    trans_var,
)
from nfasat.encoders import ModelKind, encode
from nfasat.nfa import Nfa
from nfasat.sample import Sample
from nfasat.solver import decode_nfa, lex_leader, solve_in_process

from oracle import parse_dimacs_by_token, write_dimacs_by_clause, write_dimacs_by_format


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


def test_empty_clause_marks_unsat():
    inst = CnfInstance()
    inst.add_clauses([()], ["other"])
    assert solve_in_process(inst).status == "UNSAT"
    assert inst.clauses == [()]


def test_zero_literal_rejected():
    inst = CnfInstance()
    with pytest.raises(CnfError):
        inst.add_clauses([(0,)], ["other"])


def test_unregistered_variable_rejected():
    inst = CnfInstance()
    with pytest.raises(CnfError):
        inst.add_clauses([(1,)], ["other"])


def test_dimacs_single_unit():
    inst, x = CnfInstance(1), 1
    inst.add_clauses([(x,)], ["other"])
    assert dimacs_text(inst) == "p cnf 1 1\n1 0\n"


def test_dimacs_empty_instance():
    assert dimacs_text(CnfInstance()) == "p cnf 0 0\n"


def test_dimacs_negative_literal_line():
    inst = CnfInstance(2)
    inst.add_clauses([(-2, 1)], ["other"])
    assert "-2 1 0" in dimacs_text(inst)


def test_stats_histogram_sums_to_clause_count():
    inst, x, y = CnfInstance(2), 1, 2
    inst.add_clauses([(x,)], ["a"])
    inst.add_clauses([(x, y)], ["b"])
    inst.add_clauses([(-x, -y)], ["b"])
    assert sum(inst.arity_hist.values()) == inst.clause_count() == 3
    assert inst.family_clause_counts() == {"a": 1, "b": 2}


@given(
    st.lists(
        st.lists(
            st.integers(-6, 6).filter(lambda v: v != 0), min_size=1, max_size=4, unique_by=abs
        ),
        max_size=15,
    )
)
def test_dimacs_round_trip(clause_lists):
    inst = CnfInstance(6)
    for lits in clause_lists:
        inst.add_clauses([tuple(lits)], ["other"])
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
        "p cnf 2 x\n1 0\n",
        "p cnf 1 1\np cnf 5 1\n5 0\n",
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


def test_bulk_store_rejects_a_batch_that_runs_out_of_families_and_stores_nothing():
    inst = CnfInstance()
    inst.fresh_aux("other", 3)
    with pytest.raises(CnfError, match="families ran out after 1 of 3 clauses"):
        inst.add_clauses([(1, 2), (2, 3), (1, 3)], ["a"])
    assert inst.clauses == [] and inst.family_hist == {}
    inst.add_clauses([(1, 2), (2, 3), (1, 3)], repeat("a"))  # an endless family is enough
    assert inst.stats_dict()["clauses"] == sum(inst.arity_hist.values()) == 3
    assert inst.family_clause_counts() == {"a": 3}


_REJECTED = [  # batches that raise CnfError, each under a family name no other batch uses
    ([(1, 0)], ["rejected"]),  # literal 0
    ([(5,)], ["rejected"]),  # a variable beyond var_count
    ([(1,), (2,)], ["rejected"]),  # the families run out
]


_CLAUSE_WITH_FAMILY = st.tuples(st.lists(st.integers(-4, 4).filter(bool), max_size=4).map(tuple), st.sampled_from("abcd"))


@given(
    st.lists(st.lists(_CLAUSE_WITH_FAMILY, max_size=6), min_size=1, max_size=5),
    st.integers(0, 5),
    st.sampled_from(_REJECTED),
    st.booleans(),
)
def test_counts_read_from_the_codes_equal_a_recount_of_the_stored_batches(batches, where, rejected, endless):
    inst = CnfInstance()
    inst.fresh_aux("other", 4)
    stored: list[tuple[tuple[int, ...], str]] = []
    at = where % (len(batches) + 1)
    for batch in batches[:at] + [rejected] + batches[at:]:
        if batch is rejected:
            with pytest.raises(CnfError):
                inst.add_clauses(*rejected)
            continue
        clauses, families = [c for c, _ in batch], [f for _, f in batch]
        if endless and len(set(families)) == 1:
            inst.add_clauses(clauses, repeat(families[0]))
        else:
            inst.add_clauses(clauses, families)
        stored += batch
    family_hist: dict[str, Counter] = {}
    for clause, family in stored:
        family_hist.setdefault(family, Counter())[len(clause)] += 1
    arity_hist = Counter(len(clause) for clause, _ in stored)
    assert inst.clauses == [clause for clause, _ in stored]
    assert inst.family_hist == family_hist and list(inst.family_hist) == list(family_hist)
    assert inst.arity_hist == arity_hist
    assert inst.literal_count() == sum(len(clause) for clause, _ in stored)
    assert inst.family_clause_counts() == {family: sum(hist.values()) for family, hist in family_hist.items()}
    assert inst.stats_dict() == {
        "vars": 4,
        "clauses": len(stored),
        "arity_histogram": {str(a): count for a, count in sorted(arity_hist.items())},
        "family_clause_counts": {family: sum(family_hist[family].values()) for family in sorted(family_hist)},
        "var_family_counts": {"other": 4},
    }


def test_a_batch_past_256_family_names_raises_once_and_stores_nothing():
    inst = CnfInstance()
    inst.fresh_aux("other", 1)
    inst.add_clauses([(1,)] * 200, [f"f{i}" for i in range(200)])
    with pytest.raises(CnfError, match="at most 256"):
        inst.add_clauses([(-1,)] * 57, [f"g{i}" for i in range(57)])  # the 257th name
    assert inst.clause_count() == 200 and list(inst.family_clause_counts()) == [f"f{i}" for i in range(200)]
    inst.add_clauses([(-1,)] * 56, [f"g{i}" for i in range(56)])  # the rejected names left no code behind
    counts = inst.family_clause_counts()
    assert len(counts) == 256 and set(counts.values()) == {1}
    assert inst.family_hist["f0"] == {1: 1} and inst.family_hist["g55"] == {1: 1}  # no code wrapped round
    with pytest.raises(CnfError, match="at most 256"):
        inst.add_clauses([(1,)], ["h"])
    assert inst.clause_count() == 256 and "h" not in inst.family_hist


def test_a_dropped_store_is_freed_without_the_cycle_collector():
    gc.collect()
    inst = CnfInstance()
    inst.fresh_aux("other", 2)
    inst.add_clauses([(1, 2), (-1,)], ["a", "b"])
    inst.add_clauses([(2,)], repeat("c"))
    del inst
    assert gc.collect() == 0  # the family table made no reference cycle


def test_the_clauses_view_is_a_copy():
    inst = _two_vars()
    inst.add_clauses([(1, 2), (-1,)], ["a", "b"])
    text = dimacs_text(inst)
    view = inst.clauses
    view[0] = (2,)
    view.append((-2,))
    assert inst.clauses == [(1, 2), (-1,)] and inst.clauses is not inst.clauses
    assert dimacs_text(inst) == text and inst.clause_count() == 2


@pytest.mark.parametrize(
    "batch",
    [
        ([1, 0], [2], ["new"]),  # literal 0
        ([1, 3], [2], ["new"]),  # variable beyond var_count
        ([1, -2], [2, 1], ["new"]),  # the families run out
        ([1, -2, 1], [2], ["new"]),  # the arities cover two literals of three
    ],
)
def test_a_rejected_batch_leaves_the_flat_store_unchanged(batch):
    inst = _two_vars()
    inst.add_flat([1, 2, -1], [2, 1], ["a", "b"])
    inst.decision_block = 2

    def state():
        return (
            list(inst.literals), inst.arities.tolist(), list(inst._codes), dict(inst._family_codes),
            inst.decision_block,
        )

    before = state()
    with pytest.raises(CnfError):
        inst.add_flat(*batch)
    assert state() == before
    inst.add_flat([-2], [1], ["new"])  # the rejected batch's name took no code
    assert inst.family_hist == {"a": {2: 1}, "b": {1: 1}, "new": {1: 1}}


def test_a_clause_of_arity_300_round_trips():
    inst = CnfInstance()
    inst.fresh_aux("other", 300)
    wide = tuple(v if v % 3 else -v for v in range(1, 301))
    inst.add_clauses([wide, (-1,)], ["wide", "unit"])
    assert inst.arity_hist == {300: 1, 1: 1}
    assert parse_dimacs(dimacs_text(inst)) == (300, [wide, (-1,)]) == (inst.var_count, inst.clauses)


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


def test_every_batch_clears_the_decision_block():
    """A batch inside the layout (a planted unit, say) and an empty one both clear it."""
    for batch in ([(1, -2)], []):
        inst = _two_vars()
        inst.decision_block = 2
        inst.add_clauses(batch, ["other"] * len(batch))
        assert inst.decision_block == 0, batch


def test_encoder_vouches_for_the_symmetry_and_a_later_batch_withdraws_it():
    sample = Sample.build(2, [(0, 1), (1,)], [(0,)])
    for batch in ([(1,)], []):
        inst = encode(ModelKind.PREFIX, sample, 4)
        var_count, predicate = lex_leader(inst)
        assert (var_count, len(predicate)) == (inst.var_count + 2 * 2, 2 * (3 * 2 + 1))
        inst.add_clauses(batch, ["other"] * len(batch))
        assert lex_leader(inst) == (inst.var_count, [])


def test_lex_leader_orders_the_columns_of_states_2_to_k():
    inst = CnfInstance(3, 1)
    inst.decision_block = inst.layout_size
    f2, f3 = inst.lookup(final_var(2)), inst.lookup(final_var(3))
    t2, t3 = inst.lookup(trans_var(0, 1, 2)), inst.lookup(trans_var(0, 1, 3))
    e = inst.var_count + 1
    assert lex_leader(inst) == (
        inst.var_count + 1,
        [(-f2, f3), (-f2, e), (f3, e), (-e, -t2, t3)],
    )


@pytest.mark.parametrize("k", range(3, 7))
@pytest.mark.parametrize("n", range(1, 4))
def test_lex_leader_clauses_meet_the_store_invariants(k, n):
    """The in-process solver files these clauses unchecked, as it does the store's."""
    inst = CnfInstance(k, n)
    inst.fresh_aux("other", 2)
    inst.decision_block = inst.layout_size
    var_count, predicate = lex_leader(inst)
    assert len(predicate) == (k - 2) * (3 * n + 1)
    for clause in predicate:
        assert 0 not in clause, clause
        assert max(map(abs, clause)) <= var_count, clause
        assert len(set(map(abs, clause))) == len(clause), clause


def test_no_lex_leader_below_three_states_or_without_a_layout():
    sample = Sample.build(2, [(0, 1), (1,)], [(0,)])
    for k in (1, 2):
        assert lex_leader(encode(ModelKind.PREFIX, sample, k))[1] == []
    hand_built = CnfInstance()
    hand_built.decision_block = hand_built.layout_size  # no layout, so no states to order
    assert lex_leader(hand_built) == (0, [])
    assert lex_leader(CnfInstance(3, 2)) == (3 + 2 * 9, [])  # never vouched for


# Tokens that int() reads differently from a plain literal, or not at all.
_ODD_TOKENS = ["-0", "+2", "007", "1_0", "_1", "--1", "1.5", "x", "c", "p", "\u0663"]
_EXTRA_LINES = ["c comment", "c", "cp 1 0", "c p cnf 1 1", "", "   ", "p cnf 9 1"]  # a header too, so maybe a second
_BAD_HEADERS = ["p", "p cnf 3", "p dnf 3 1", "p cnf 3 1 0", "p cnf two 1", "p cnf -1 1", "p cnf 3 x"]


@st.composite
def _dimacs_like_texts(draw) -> str:
    """DIMACS-like text: clauses cut into lines at random, comments, blank
    lines and headers anywhere, CRLF, odd tokens, a missing final zero."""
    clauses = draw(st.lists(st.lists(st.integers(-9, 9).filter(bool), max_size=4), max_size=12))
    tokens = []
    for clause in clauses:
        tokens += map(str, clause)
        tokens.append(draw(st.sampled_from(["0", "0", "-0"])))
    if tokens and draw(st.integers(0, 4)) == 0:
        tokens.pop()
    if tokens and draw(st.integers(0, 3)) == 0:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    lines, done = [], 0
    while done < len(tokens):
        width = draw(st.integers(1, 6))
        lines.append(draw(st.sampled_from([" ", "  ", "\t"])).join(tokens[done : done + width]))
        done += width
    if draw(st.integers(0, 5)):
        count = draw(st.sampled_from(["9", "9", "4", "0", "\u0663"]))
        lines.insert(draw(st.integers(0, len(lines))), f"p cnf {count} {len(clauses)}")
    extras = draw(st.lists(st.sampled_from(_EXTRA_LINES), max_size=4))
    if not draw(st.integers(0, 5)):
        extras.append(draw(st.sampled_from(_BAD_HEADERS)))
    for extra in extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(draw(st.sampled_from(["", " ", "\t"])) + line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip()


def _parsed(parse, text):
    """What a parser returns, or its CnfError message."""
    try:
        return parse(text)
    except CnfError as err:
        return f"CnfError: {err}"


@given(_dimacs_like_texts(), st.integers(1, 40))
def test_parse_dimacs_matches_token_parser(text, block):
    with mock.patch.object(cnf, "_READ_BLOCK", block):
        assert _parsed(parse_dimacs, text) == _parsed(parse_dimacs_by_token, text)


def test_parse_dimacs_matches_token_parser_over_full_blocks():
    rng = random.Random(5)
    lines, tokens = ["c generated", "p cnf 50 30000"], []
    for _ in range(30000):
        tokens += [str(rng.choice((-1, 1)) * rng.randint(1, 50)) for _ in range(rng.randint(0, 4))]
        tokens.append("0")
    while tokens:
        cut = rng.randint(1, 7)
        lines.append(" ".join(tokens[:cut]))
        del tokens[:cut]
        if rng.random() < 0.001:
            lines.append("c between clauses")
    text = "\n".join(lines) + "\n"
    first_cut = text.find("\n", cnf._READ_BLOCK) + 1
    assert len(text) > 2 * cnf._READ_BLOCK and text[:first_cut].split()[-1] != "0"
    parsed = parse_dimacs(text)
    assert parsed == parse_dimacs_by_token(text) and len(parsed[1]) == 30000


def test_parse_dimacs_carries_one_clause_over_many_blocks():
    text = "p cnf 9 2\n" + "1 -2 3 " * 30000 + "0\n-9 0\n"
    assert len(text) > 3 * cnf._READ_BLOCK
    assert parse_dimacs(text) == parse_dimacs_by_token(text) == (9, [(1, -2, 3) * 30000, (-9,)])


@pytest.mark.parametrize("block", [1, 6, 25])
def test_parse_dimacs_reads_a_stream_as_it_reads_text(block):
    rng = random.Random(block)
    lines, tokens = ["c generated", "p cnf 9 300"], []
    for _ in range(300):
        tokens += [str(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(rng.randint(0, 4))] + ["0"]
    while tokens:
        cut = rng.randint(1, 5)
        lines.append(" ".join(tokens[:cut]))
        del tokens[:cut]
    text = "\n".join(lines) + "\n"
    with mock.patch.object(cnf, "_READ_BLOCK", block):
        blocks = list(cnf._blocks(StringIO(text)))
        assert blocks == list(cnf._blocks(text)) and "".join(blocks) == text
        assert any(b.split()[-1] != "0" for b in blocks[2:-1])  # a clause spans blocks
        assert parse_dimacs(StringIO(text)) == parse_dimacs(text) == parse_dimacs_by_token(text)


def test_parse_dimacs_rejects_a_header_count_that_int_cannot_read():
    with pytest.raises(CnfError, match="bad DIMACS header"):
        parse_dimacs("p cnf \u00b2 1\n1 0\n")


@given(
    st.lists(st.lists(st.integers(-21, 21).filter(bool), max_size=5, unique_by=abs), max_size=25),
    st.integers(1, 6),
)
def test_write_dimacs_matches_per_clause_writer(clause_lists, block):
    inst = CnfInstance(3, 2)  # 21 variables, so literals of one and two digits
    inst.add_clauses(list(map(tuple, clause_lists)), repeat("other"))
    expected = StringIO()
    write_dimacs_by_clause(inst, expected)
    with mock.patch.object(cnf, "_WRITE_BLOCK", block):
        assert dimacs_text(inst) == expected.getvalue()


@given(
    st.lists(st.lists(st.integers(-21, 21).filter(bool), max_size=6, unique_by=abs), max_size=40),
    st.integers(-21, 21).filter(bool),
    st.sampled_from([1, 2, 3, 4096]),
    st.randoms(use_true_random=False),
)
def test_write_dimacs_by_block_matches_one_format_call_per_clause(clause_lists, unit, block, rng):
    clauses = [*map(tuple, clause_lists), (), (unit,)]  # mixed arities, an empty and a unit clause among them
    rng.shuffle(clauses)
    inst = CnfInstance(3, 2)  # 21 variables, so literals of one and two digits
    inst.add_clauses(clauses, repeat("other"))
    expected = StringIO()
    write_dimacs_by_format(inst, expected)
    with mock.patch.object(cnf, "_WRITE_BLOCK", block):
        assert dimacs_text(inst) == expected.getvalue()


def test_write_dimacs_memory_grows_with_the_clauses_only():
    # one format per arity present, not one per arity up to the widest clause
    inst = CnfInstance(1)
    inst.fresh_aux("other", 5000)
    inst.add_clauses([tuple(range(1, 5002)), (-1,)], ["wide", "unit"])
    tracemalloc.start()
    try:
        text = dimacs_text(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith(" 5001 0\n-1 0\n") and peak < 1_000_000
