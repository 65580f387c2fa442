import hashlib
import json
import random

import pytest
from hypothesis import given

from nfasat import encoders
from nfasat.cli import random_sample
from nfasat.cnf import CnfError, CnfInstance, dimacs_text, final_var, trans_var
from nfasat.encoders import (
    _ACCEPT_FAMILIES,
    _LINK_FAMILIES,
    _PREFIX_FAMILIES,
    _SUFFIX_FAMILIES,
    BudgetExceededError,
    _define,
    _direct_families,
    _part_uses,
    ModelKind,
    encode,
    estimate_size,
)
from nfasat.nfa import Nfa, accepts, verify
from nfasat.sample import Sample, SampleError, all_prefix_cuts, all_suffix_cuts
from nfasat.solver import decode_nfa
from nfasat.splitopt import IlsParams, fitness, ils_optimize

from _helpers import (
    instance_sat_by_enumeration,
    random_cut_assignment,
    random_tiny_sample,
    samples_with_cuts,
    search_in_process,
)
from oracle import oracle_exists

A, B = (0,), (1,)
AB = (0, 1)


def solve_status(inst) -> str:
    return search_in_process(inst).status


class TestDirect:
    def test_single_positive_exact_instance(self):
        sample = Sample.build(1, [A], [])
        inst = encode(ModelKind.DIRECT, sample, 1)
        f1 = inst.lookup(final_var(1))
        d = inst.lookup(trans_var(0, 1, 1))
        assert inst.var_count == 3  # final, transition, one path aux
        aux = 3
        # an accepted path only needs "aux => path": no reverse clause
        assert sorted(inst.clauses) == sorted([(-aux, d), (-aux, f1), (aux,)])
        assert instance_sat_by_enumeration(inst)  # all 2^3 assignments checked
        assert solve_status(inst) == "SAT"

    def test_empty_word_contradiction(self):
        sample = Sample.build(1, [()], [()])
        for k in (1, 2):
            inst = encode(ModelKind.DIRECT, sample, k)
            f1 = inst.lookup(final_var(1))
            assert (f1,) in inst.clauses and (-f1,) in inst.clauses
            assert solve_status(inst) == "UNSAT"

    def test_path_aux_count_is_k_to_the_length(self):
        sample = Sample.build(2, [AB], [])
        inst = encode(ModelKind.DIRECT, sample, 2)
        assert inst.var_family_counts["direct_path_aux"] == 4

    def test_arities_match_family_shapes(self):
        # words with distinct symbols so no literal dedup shrinks clauses
        sample = Sample.build(2, [AB], [(1, 0)])
        k = 2
        inst = encode(ModelKind.DIRECT, sample, k)
        # the positive word's paths are an asserted OR: no reverse clauses
        assert set(inst.family_hist) == {"direct_bin", "direct_choice", "direct_reject"}
        assert inst.family_hist["direct_bin"] == {2: k**2 * (2 + 1)}
        assert inst.family_hist["direct_choice"] == {k**2: 1}
        assert inst.family_hist["direct_reject"] == {2 + 1: k**2}

    def test_budget_refuses_long_word(self):
        word = tuple(0 for _ in range(30))
        sample = Sample.build(1, [word], [])
        with pytest.raises(BudgetExceededError):
            encode(ModelKind.DIRECT, sample, 5)

    def test_budget_threshold_is_pinned(self):
        # the literal count the budget checks for the first pinned sample at k = 2
        sample, k, literals = random_sample(2, 30, 6, 0.5, 3), 2, 7580
        with pytest.raises(BudgetExceededError):
            encode(ModelKind.DIRECT, sample, k, literal_budget=literals - 1)
        assert encode(ModelKind.DIRECT, sample, k, literal_budget=literals).clauses


class TestPrefix:
    def test_single_symbol_prefixes_alias_transitions(self):
        sample = Sample.build(2, [AB], [B])
        inst = encode(ModelKind.PREFIX, sample, 2)
        # b, the one negative word, is rejected last, through its transition row out of state 1
        assert inst.family_hist["reject_bin"] == {2: 2}
        assert inst.clauses[-2:] == [
            (-inst.lookup(trans_var(1, 1, i)), -inst.lookup(final_var(i))) for i in (1, 2)
        ]

    def test_example_sat_and_decodes_correctly(self):
        sample = Sample.build(2, [AB], [B])
        inst = encode(ModelKind.PREFIX, sample, 2)
        out = search_in_process(inst)
        assert out.status == "SAT"
        nfa = decode_nfa(out.assignment, inst, 2, 2)
        assert accepts(nfa, AB) and not accepts(nfa, B)
        assert oracle_exists(sample, 2)[0]  # brute force over all 2^10 candidates

    def test_accept_machinery_counts(self):
        sample = Sample.build(2, [AB, A], [])
        k = 3
        inst = encode(ModelKind.PREFIX, sample, k)
        assert inst.var_family_counts["accept_aux"] == 2 * k
        hist = inst.family_hist["accept_choice"]
        assert sum(hist.values()) == 2 and set(hist) == {k}

    def test_aliased_conjuncts_merge_in_the_reverse_clause(self):
        # (0, 0) at k=1: parent (0,) reaches state 1 through trans(0,1,1) itself.
        # It is a prefix of a positive and of a negative word, so it keeps its
        # reverse clause, merged to arity 2; the negative-only (0, 0, 0) gets one
        # reverse clause of arity 3 and nothing else.
        inst = encode(ModelKind.PREFIX, Sample.build(1, [(0, 0)], [(0, 0, 0)]), 1)
        assert inst.family_hist["prefix_rec_ternary"] == {2: 1, 3: 1}
        assert inst.family_hist["prefix_rec_bin_prev"] == {2: 1}
        assert inst.family_hist["prefix_rec_bin_trans"] == {2: 1}
        assert solve_status(inst) == "UNSAT"  # one state accepts all of a* or none

    def test_same_word_both_polarities_unsat(self):
        sample = Sample.build(1, [A], [A])
        assert solve_status(encode(ModelKind.PREFIX, sample, 2)) == "UNSAT"

    def test_recursion_family_counts(self):
        sample = Sample.build(2, [AB], [])
        k = 2
        inst = encode(ModelKind.PREFIX, sample, k)
        assert inst.var_family_counts["prefix_path"] == k  # only the length-2 prefix
        assert inst.var_family_counts["prefix_rec_aux"] == k * k
        assert sum(inst.family_hist["prefix_rec_choice"].values()) == k
        assert set(inst.family_hist["prefix_rec_choice"]) == {k + 1}


class TestSuffix:
    def test_example_alias_and_prune_counts(self):
        sample = Sample.build(2, [AB], [])
        inst = encode(ModelKind.SUFFIX, sample, 2)
        assert inst.var_family_counts["suffix_path"] == 2  # start state 1 only
        assert inst.var_family_counts["suffix_rec_aux"] == 4
        assert solve_status(inst) == "SAT"

    def test_one_state_decode(self):
        sample = Sample.build(2, [A], [B])
        inst = encode(ModelKind.SUFFIX, sample, 1)
        out = search_in_process(inst)
        assert out.status == "SAT"
        nfa = decode_nfa(out.assignment, inst, 1, 2)
        assert nfa.finals == frozenset({1})
        assert (1, 0, 1) in nfa.transitions
        assert (1, 1, 1) not in nfa.transitions

    def test_inner_suffix_costs_k_cubed(self):
        sample = Sample.build(2, [(0, 0, 1)], [])
        k = 2
        inst = encode(ModelKind.SUFFIX, sample, k)
        # suffix (0,1) sits inside (0,0,1): all starts, so k^3 auxiliaries;
        # the full word itself is pruned to start state 1, so k^2 more
        assert inst.var_family_counts["suffix_rec_aux"] == k**3 + k**2

    def test_shared_full_word_not_pruned(self):
        sample = Sample.build(2, [(0, 0, 1)], [AB])
        inst = encode(ModelKind.SUFFIX, sample, 2)
        # ab is a sample word but also a proper suffix of aab: all k^2 (start,
        # end) pairs; aab itself is pruned to start state 1, so k more
        assert inst.var_family_counts["suffix_path"] == 4 + 2
        sample2 = Sample.build(2, [(0, 0, 1)], [(1, 1)])
        inst2 = encode(ModelKind.SUFFIX, sample2, 2)
        # bb is pruned too: k more on top of ab's k^2 and aab's k
        assert inst2.var_family_counts["suffix_path"] == 4 + 2 + 2


class TestHybrid:
    def test_all_prefix_cuts_match_prefix_model_structure(self):
        sample = Sample.build(2, [AB, (1, 0)], [B, (0, 0)])
        pm = encode(ModelKind.PREFIX, sample, 2)
        hm = encode(ModelKind.HYBRID, sample, 2, all_prefix_cuts(sample))
        assert hm.var_count == pm.var_count
        assert hm.family_hist == pm.family_hist
        assert solve_status(hm) == solve_status(pm)

    def test_all_suffix_cuts_match_suffix_model_structure(self):
        sample = Sample.build(2, [AB, (1, 0)], [B, (0, 0)])
        sm = encode(ModelKind.SUFFIX, sample, 2)
        hm = encode(ModelKind.HYBRID, sample, 2, all_suffix_cuts(sample))
        assert hm.var_count == sm.var_count
        assert hm.family_hist == sm.family_hist
        assert solve_status(hm) == solve_status(sm)

    def test_mixed_cut_example(self):
        sample = Sample.build(2, [AB], [B])
        cuts = {AB: 1, B: 0}
        inst = encode(ModelKind.HYBRID, sample, 2, cuts)
        out = search_in_process(inst)
        assert out.status == "SAT"
        nfa = decode_nfa(out.assignment, inst, 2, 2)
        assert accepts(nfa, AB) and not accepts(nfa, B)
        for kind in (ModelKind.DIRECT, ModelKind.PREFIX, ModelKind.SUFFIX):
            assert solve_status(encode(kind, sample, 2)) == "SAT"

    def test_requires_cuts(self):
        with pytest.raises(ValueError):
            encode(ModelKind.HYBRID, Sample.build(1, [A], []), 1)

    @pytest.mark.parametrize("kind", [ModelKind.DIRECT, ModelKind.PREFIX, ModelKind.SUFFIX])
    @pytest.mark.parametrize("size", [encode, estimate_size])
    def test_cuts_with_another_model_raise(self, kind, size):
        sample = Sample.build(2, [AB], [B])
        with pytest.raises(ValueError, match=f"only the hybrid model takes a split assignment, not {kind.value}"):
            size(kind, sample, 2, {AB: 0, B: 1})

    @given(samples_with_cuts())
    def test_proxy_counts_the_encoder_closures(self, drawn):
        """The paper's fitness counts the prefix and suffix closures that the encoder defines."""
        sample, cuts = drawn
        _, prefix_uses, suffix_uses = _part_uses(sample, cuts)
        for k in (1, 3):
            assert fitness(sample, k, cuts) == sum(map(bool, prefix_uses)) + k * sum(map(bool, suffix_uses))

    def test_word_in_both_polarities_unsat(self):
        sample = Sample.build(2, [AB], [AB])
        for cut in (0, 1, 2):
            inst = encode(ModelKind.HYBRID, sample, 2, {AB: cut})
            assert solve_status(inst) == "UNSAT"

    def test_link_families_present_for_interior_cut(self):
        sample = Sample.build(2, [(0, 1, 0)], [(1, 1, 0)])
        cuts = {(0, 1, 0): 1, (1, 1, 0): 2}
        k = 2
        inst = encode(ModelKind.HYBRID, sample, k, cuts)
        assert inst.var_family_counts["link_aux"] == k * k
        assert sum(inst.family_hist["link_choice"].values()) == 1
        assert set(inst.family_hist["link_choice"]) == {k * k}
        # the positive link is an asserted OR: binaries and choice, no reverse clauses
        assert inst.family_hist["link_bin"] == {2: 3 * k * k}
        assert {f for f in inst.family_hist if f.startswith("link")} == {
            "link_bin", "link_choice", "link_reject_ternary"
        }
        assert sum(inst.family_hist["link_reject_ternary"].values()) == k * k


class TestPolarity:
    """Each definition emits only the halves its closure word's labels use."""

    def test_negative_only_prefix_has_no_aux(self):
        k = 2
        inst = encode(ModelKind.PREFIX, Sample.build(2, [], [AB]), k)
        assert "prefix_rec_aux" not in inst.var_family_counts
        # one [y, -parent, -trans] per term and nothing else
        assert {f for f in inst.family_hist if f.startswith("prefix")} == {"prefix_rec_ternary"}
        assert inst.family_hist["prefix_rec_ternary"] == {3: k * k}

    def test_positive_only_prefix_has_no_reverse_or_output_clauses(self):
        k = 2
        inst = encode(ModelKind.PREFIX, Sample.build(2, [AB], []), k)
        assert inst.var_family_counts["prefix_rec_aux"] == k * k
        assert "prefix_rec_ternary" not in inst.family_hist
        assert "prefix_rec_bin_out" not in inst.family_hist
        assert inst.family_hist["prefix_rec_choice"] == {k + 1: k}

    def test_prefix_shared_by_both_polarities_keeps_all_five_families(self):
        # (0, 1) is a prefix of the positive (0, 1, 0) and of the negative (0, 1, 1)
        k = 2
        inst = encode(ModelKind.PREFIX, Sample.build(2, [(0, 1, 0)], [(0, 1, 1)]), k)
        counts = inst.family_clause_counts()
        assert counts["prefix_rec_bin_prev"] == counts["prefix_rec_bin_trans"] == 2 * k * k
        assert counts["prefix_rec_ternary"] == 2 * k * k  # (0, 1), then the negative-only word
        assert counts["prefix_rec_choice"] == 2 * k
        assert counts["prefix_rec_bin_out"] == k * k  # (0, 1) only
        assert inst.var_family_counts["prefix_rec_aux"] == 2 * k * k

    def test_suffix_chain_inherits_from_left_extensions(self):
        # (1, 1) is a suffix of the negative (0, 1, 1) only; (0, 1) of the positive only
        k = 2
        inst = encode(ModelKind.SUFFIX, Sample.build(2, [(1, 0, 1)], [(0, 1, 1)]), k)
        counts = inst.family_clause_counts()
        # (0, 1) is inside (1, 0, 1): all starts, k^3 terms; (1, 0, 1) is pruned: k^2
        assert inst.var_family_counts["suffix_rec_aux"] == k**3 + k * k
        assert counts["suffix_rec_ternary"] == k**3 + k * k  # (1, 1), then (0, 1, 1)
        assert "suffix_rec_bin_out" not in counts

    def test_hybrid_head_and_tail_inherit_the_word_mark(self):
        k = 2
        sample = Sample.build(2, [(0, 1, 1, 0)], [(1, 0, 0, 1)])
        inst = encode(ModelKind.HYBRID, sample, k, {(0, 1, 1, 0): 2, (1, 0, 0, 1): 2})
        # the positive word's head (0, 1) and tail (1, 0) get aux variables, the
        # negative word's head (1, 0) and tail (0, 1) reverse clauses only
        assert inst.var_family_counts["prefix_rec_aux"] == k * k
        assert inst.family_clause_counts()["prefix_rec_ternary"] == k * k
        assert inst.var_family_counts["suffix_rec_aux"] == k**3  # linked tails: all starts
        assert inst.family_clause_counts()["suffix_rec_ternary"] == k**3
        assert not {"prefix_rec_bin_out", "suffix_rec_bin_out"} & set(inst.family_hist)


def _random_target(rng: random.Random, n: int, k: int) -> Nfa:
    transitions = frozenset(
        (i, a, j)
        for i in range(1, k + 1)
        for a in range(n)
        for j in range(1, k + 1)
        if rng.random() < 0.4
    )
    finals = frozenset(i for i in range(1, k + 1) if rng.random() < 0.5)
    return Nfa(k, n, transitions, finals)


def test_planted_target_satisfies_every_model():
    """A target NFA fixed as units satisfies every encoding of the words it labels.

    The reach and auxiliary variables are left free, so this checks that the
    halves each definition drops are never needed by a consistent NFA.
    """
    rng = random.Random(2024)
    for _ in range(24):
        n, k = rng.choice((2, 3)), rng.choice((2, 3))
        target = _random_target(rng, n, k)
        words = {
            tuple(rng.randrange(n) for _ in range(rng.randint(0, 7))) for _ in range(16)
        }
        positives = {w for w in words if accepts(target, w)}
        sample = Sample.build(n, positives, words - positives)
        instances = {
            "pm": encode(ModelKind.PREFIX, sample, k),
            "sm": encode(ModelKind.SUFFIX, sample, k),
            "hm-prefix": encode(ModelKind.HYBRID, sample, k, all_prefix_cuts(sample)),
            "hm-suffix": encode(ModelKind.HYBRID, sample, k, all_suffix_cuts(sample)),
            "hm-random": encode(ModelKind.HYBRID, sample, k, random_cut_assignment(rng, sample)),
        }
        if sum(k ** len(w) for w in words) <= 3000:
            instances["dm"] = encode(ModelKind.DIRECT, sample, k)
        for label, inst in instances.items():
            for i in range(1, k + 1):
                f = inst.lookup(final_var(i))
                inst.add_clauses([(f if i in target.finals else -f,)], ["other"])
                for a in range(n):
                    for j in range(1, k + 1):
                        t = inst.lookup(trans_var(a, i, j))
                        inst.add_clauses([(t if (i, a, j) in target.transitions else -t,)], ["other"])
            assert solve_status(inst) == "SAT", (label, target, sample)


class TestSizeEstimates:
    def test_prefix_estimate_families(self):
        sample = Sample.build(2, [AB], [])
        est = estimate_size(ModelKind.PREFIX, sample, 2)
        assert est.variable_bounds == {
            "final": 2,
            "transition": 8,
            "accept_aux": 2,
            "prefix_path": 2,
            "prefix_rec_aux": 4,
        }
        assert est.total_variables() == 18

    def test_suffix_estimate_families(self):
        sample = Sample.build(2, [AB], [])
        est = estimate_size(ModelKind.SUFFIX, sample, 2)
        assert est.variable_bounds["suffix_path"] == 4
        assert est.variable_bounds["suffix_rec_aux"] == 8
        assert est.total_variables() == 24

    def test_hybrid_estimate_of_every_family(self):
        # (0, 1, 1) and (0, 0, 1) are linked, one positive and one negative;
        # the prefix (0, 0) is a positive verdict and the negative link's head,
        # and the suffix (1, 1) a positive link's tail and a negative verdict
        positives = [(), (0, 1, 1), (0, 0), (1, 0, 1)]
        negatives = [(0, 0, 1), (1, 1), (1, 0)]
        cuts = {(0, 1, 1): 1, (0, 0): 2, (1, 0, 1): 0, (0, 0, 1): 2, (1, 1): 0, (1, 0): 2}
        est = estimate_size(ModelKind.HYBRID, Sample.build(2, positives, negatives), 2, cuts)
        assert est.variable_bounds == {
            "final": 2,
            "transition": 8,
            "accept_aux": 4,
            "prefix_path": 4,
            "prefix_rec_aux": 4,
            "suffix_path": 12,
            "suffix_rec_aux": 24,
            "link_aux": 4,
        }
        assert est.clause_bounds == {
            "empty_word_unit": (1, 1),
            "accept_bin": (8, 2),
            "accept_choice": (2, 2),
            "reject_bin": (4, 2),
            "prefix_rec_bin_prev": (4, 2),
            "prefix_rec_bin_trans": (4, 2),
            "prefix_rec_ternary": (8, 3),
            "prefix_rec_choice": (2, 3),
            "prefix_rec_bin_out": (4, 2),
            "suffix_rec_bin_tail": (24, 2),
            "suffix_rec_bin_trans": (24, 2),
            "suffix_rec_ternary": (8, 3),
            "suffix_rec_choice": (12, 3),
            "suffix_rec_bin_out": (8, 2),
            "link_bin": (12, 2),
            "link_choice": (1, 4),
            "link_reject_ternary": (4, 3),
        }

    def test_generated_counts_within_bounds(self):
        rng = random.Random(0)
        for _ in range(30):
            sample = random_tiny_sample(rng, n=2, max_len=4, max_each=3)
            k = rng.randint(1, 3)
            cuts = random_cut_assignment(rng, sample)
            for kind in ModelKind:
                inst = encode(kind, sample, k, cuts if kind == ModelKind.HYBRID else None)
                est = estimate_size(
                    kind, sample, k, cuts if kind == ModelKind.HYBRID else None
                )
                for family, count in inst.var_family_counts.items():
                    assert count <= est.variable_bounds[family], (kind, family)
                for family, hist in inst.family_hist.items():
                    bound_count, bound_arity = est.clause_bounds[family]
                    assert sum(hist.values()) <= bound_count, (kind, family)
                    assert max(hist) <= bound_arity, (kind, family)


@pytest.mark.parametrize("args, k", [((2, 150, 16, 0.5, 3), 5), ((3, 60, 10, 0.5, 7), 4)])
@pytest.mark.parametrize("kind", [ModelKind.PREFIX, ModelKind.SUFFIX])
def test_literal_estimate_within_a_fifth_of_the_instance(args, k, kind):
    """Polarity-aware bounds keep the literal budget check close to the real size."""
    sample = random_sample(*args)
    literals = encode(kind, sample, k).literal_count()
    assert literals <= estimate_size(kind, sample, k).total_literals() <= 1.2 * literals


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("size", [encode, estimate_size])
def test_state_count_below_one_raises(kind, size):
    sample = Sample.build(2, [AB], [B])
    with pytest.raises(SampleError, match="state count k must be >= 1, got 0"):
        size(kind, sample, 0, all_prefix_cuts(sample))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_budget_refuses_a_layout_before_building_it(monkeypatch, kind):
    def build(*_):
        raise AssertionError("the layout's tables were built")

    monkeypatch.setattr(encoders, "_base_instance", build)
    sample = Sample.build(10**8, [AB], [B])  # 2 + 10**8 * 4 layout variables at k = 2
    cuts = {AB: 1, B: 0} if kind == ModelKind.HYBRID else None
    with pytest.raises(BudgetExceededError, match="400000002 layout variables"):
        encode(kind, sample, 2, cuts)


def test_every_family_is_named_by_a_family_table():
    """Every clause but the empty-word units comes from _define, so its family
    is in a table; every variable is in the layout, a chain's reach
    variables or a table's aux family."""
    tables = [_PREFIX_FAMILIES, _SUFFIX_FAMILIES, _LINK_FAMILIES, _ACCEPT_FAMILIES]
    tables.append(_direct_families(1))
    clause_families = {"empty_word_unit"}
    for _, bins, reverse, choice, out in tables:
        clause_families |= {*bins, reverse, choice, out} - {None}
    var_families = {"final", "transition", "prefix_path", "suffix_path", *(t[0] for t in tables)}
    seen_clauses, seen_vars = set(), set()
    rng = random.Random(13)
    for _ in range(40):
        sample = random_tiny_sample(rng, n=2, max_len=4, max_each=4)
        k = rng.randint(1, 3)
        cuts = random_cut_assignment(rng, sample)
        for kind in ModelKind:
            inst = encode(kind, sample, k, cuts if kind == ModelKind.HYBRID else None)
            assert set(inst.family_clause_counts()) <= clause_families, kind
            assert set(inst.var_family_counts) <= var_families, kind
            seen_clauses |= set(inst.family_clause_counts())
            seen_vars |= set(inst.var_family_counts)
    # and every table family is in use
    assert (seen_clauses, seen_vars) == (clause_families, var_families)


def test_every_encoder_records_the_finals_and_transitions_as_decision_block():
    sample = Sample.build(2, [AB, A], [B])
    cuts = {AB: 1, A: 0, B: 1}
    for kind in ModelKind:
        inst = encode(kind, sample, 3, cuts if kind == ModelKind.HYBRID else None)
        assert inst.decision_block == 3 + 2 * 3 * 3, kind
        assert [inst.lookup(final_var(i)) for i in (1, 2, 3)] == [1, 2, 3]
        assert inst.lookup(trans_var(1, 3, 3)) == inst.decision_block


class TestCrossModel:
    def test_equisatisfiable_and_sound_on_random_corpus(self):
        rng = random.Random(123)
        for _ in range(60):
            sample = random_tiny_sample(rng)
            k = rng.randint(1, 3)
            truth = oracle_exists(sample, k)[0]
            instances = [
                encode(ModelKind.DIRECT, sample, k),
                encode(ModelKind.PREFIX, sample, k),
                encode(ModelKind.SUFFIX, sample, k),
            ]
            for _ in range(3):
                instances.append(
                    encode(ModelKind.HYBRID, sample, k, random_cut_assignment(rng, sample))
                )
            for inst in instances:
                out = search_in_process(inst)
                assert (out.status == "SAT") == truth
                if out.status == "SAT":
                    nfa = decode_nfa(out.assignment, inst, k, sample.alphabet_size)
                    assert verify(nfa, sample).ok

    def test_byte_identical_dimacs(self):
        sample = Sample.build(2, [AB, A], [B, (1, 1)])
        cuts = {AB: 1, A: 1, B: 0, (1, 1): 2}
        for build in (
            lambda: encode(ModelKind.DIRECT, sample, 2),
            lambda: encode(ModelKind.PREFIX, sample, 2),
            lambda: encode(ModelKind.SUFFIX, sample, 2),
            lambda: encode(ModelKind.HYBRID, sample, 2, cuts),
        ):
            assert dimacs_text(build()) == dimacs_text(build())


def _stats_text(inst) -> str:
    """Canonical text of the per-family clause and variable accounting."""
    return json.dumps(
        [
            sorted((family, sorted(hist.items())) for family, hist in inst.family_hist.items()),
            sorted(inst.var_family_counts.items()),
        ]
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (random_sample arguments, k) -> model -> (sha256 of the DIMACS text, sha256
# of _stats_text).  All-prefix and all-suffix cuts must reproduce pm and sm
# byte for byte.  The hm-ils row also depends on the ILS optimizer, so a
# declared change to the optimizer re-pins that row only.  On both samples
# the ILS starts from the all-prefix cuts and finds no improving move, so its
# row is pm's.
PINNED_CASES = {
    ((2, 30, 6, 0.5, 3), 2): {
        "dm": (
            "83ed7e5e20c6586e8203f4779ce17135fc509df0d93e3836316b68cf019d7cc6",
            "0b613da3e3e6c524",
        ),
        "pm": (
            "b2136fca3396ecf56196cdbab422d14b37f8c4ab5aebc87370839b11a0abb5e5",
            "085b7b85da90a441",
        ),
        "sm": (
            "1830e681760a0351225228e6932e07cd1bc8251322a7edda4c75d138302a8317",
            "6f927bc9c688e7b9",
        ),
        "hm-ils": (
            "b2136fca3396ecf56196cdbab422d14b37f8c4ab5aebc87370839b11a0abb5e5",
            "085b7b85da90a441",
        ),
    },
    ((3, 40, 8, 0.5, 5), 3): {
        "pm": (
            "5b37a8bacc868ec632a9815aa0f830a38a49778ace88f1760b2542ef8c2dcf07",
            "914e33bd4db11b68",
        ),
        "sm": (
            "62462e476b7e4c91fce59c76075d174427497f905b15118d4e1331b77f23068a",
            "38c382ad05279160",
        ),
        "hm-ils": (
            "5b37a8bacc868ec632a9815aa0f830a38a49778ace88f1760b2542ef8c2dcf07",
            "914e33bd4db11b68",
        ),
    },
}


@pytest.mark.parametrize(
    "case", list(PINNED_CASES), ids=lambda case: f"n{case[0][0]}-seed{case[0][4]}-k{case[1]}"
)
def test_pinned_dimacs_and_family_stats(case):
    args, k = case
    sample = random_sample(*args)
    builds = {
        "dm": lambda: encode(ModelKind.DIRECT, sample, k),
        "pm": lambda: encode(ModelKind.PREFIX, sample, k),
        "sm": lambda: encode(ModelKind.SUFFIX, sample, k),
        "hm-prefix": lambda: encode(ModelKind.HYBRID, sample, k, all_prefix_cuts(sample)),
        "hm-suffix": lambda: encode(ModelKind.HYBRID, sample, k, all_suffix_cuts(sample)),
        "hm-ils": lambda: encode(ModelKind.HYBRID, 
            sample, k, ils_optimize(sample, k, IlsParams(rng_seed=1)).cuts
        ),
    }
    pins = PINNED_CASES[case]
    same_as = {"hm-prefix": "pm", "hm-suffix": "sm"}
    for label, build in builds.items():
        pinned = pins.get(same_as.get(label, label))
        if pinned is None:
            continue
        inst = build()
        stats = _stats_text(inst)
        assert _sha(dimacs_text(inst)) == pinned[0], label
        assert _sha(stats)[:16] == pinned[1], (label, stats)


# (random_sample arguments, k) -> model -> sha256 of _estimate_text, for the
# PINNED_CASES samples; hm-ils is scored at the cuts of IlsParams(rng_seed=1).
PINNED_ESTIMATES = {
    ((2, 30, 6, 0.5, 3), 2): {
        "dm": "6dc6e4331bb541b08f1c346a232e5650b45463cc52934adcdeec99069343994c",
        "pm": "5df8cde4fc9166b1eb1a0bbce63191ad16c020cf14516d67c01b10d3525ea791",
        "sm": "cef2f02939312df3e36a669243b0c949b6eb3a0687f399611d14d66023876aa7",
        "hm-ils": "5df8cde4fc9166b1eb1a0bbce63191ad16c020cf14516d67c01b10d3525ea791",
    },
    ((3, 40, 8, 0.5, 5), 3): {
        "dm": "df47221308cc830af6085713c21a675009fbdfc6905e83bae4ee7399eb209e71",
        "pm": "53678045450bf2fb1a46abc8bdfb33caffbcf35ec3fa13c6b36934a760551c19",
        "sm": "7e68bc5deb371b9d19710905ac6d6acec94fb4b7fa220eacad814a1b117247a7",
        "hm-ils": "53678045450bf2fb1a46abc8bdfb33caffbcf35ec3fa13c6b36934a760551c19",
    },
}


def _estimate_text(est) -> str:
    """Canonical text of an estimate's variable and clause bounds."""
    return json.dumps(
        [
            sorted(est.variable_bounds.items()),
            sorted((family, list(bound)) for family, bound in est.clause_bounds.items()),
        ]
    )


@pytest.mark.parametrize(
    "case", list(PINNED_ESTIMATES), ids=lambda case: f"n{case[0][0]}-seed{case[0][4]}-k{case[1]}"
)
def test_pinned_size_estimates(case):
    args, k = case
    sample = random_sample(*args)
    cuts = ils_optimize(sample, k, IlsParams(rng_seed=1)).cuts
    for label, pinned in PINNED_ESTIMATES[case].items():
        kind = ModelKind(label[:2])
        est = estimate_size(kind, sample, k, cuts if kind == ModelKind.HYBRID else None)
        assert _sha(_estimate_text(est)) == pinned, label


class TestDefineChecks:
    @pytest.mark.parametrize("lits", [(1, 0), (1, 99)])
    def test_bad_conjunct_raises_and_stores_nothing(self, lits):
        inst, y, batch = CnfInstance(1), 1, ([], [])
        _define(inst, batch, [y], [(0, lits)], _PREFIX_FAMILIES)
        with pytest.raises(CnfError):
            inst.add_clauses(*batch)
        assert inst.clauses == []
