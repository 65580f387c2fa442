"""Four CNF encodings of the k-state NFA inference problem, plus size bounds.

Shared by all encodings: k final-state variables, n*k^2 transition variables,
and unit clauses fixing state 1 when the empty word is labeled.  They differ
in how word acceptance is expressed:

* direct: one auxiliary variable per explicit state path of each positive
  word (k^|w| of them) and one blocking clause per state path of each
  negative word.  Exponential; only small instances are tractable.
* prefix: one variable per (non-empty prefix, end state) meaning "some run
  for the prefix reaches this state from the start".  Single-symbol prefixes
  share the transition variable outright, longer ones are defined from their
  parent prefix through auxiliary conjunction variables over k^2 state pairs.
* suffix: one variable per (non-empty suffix, start state, end state); the
  chain grows leftwards and costs k^3 auxiliaries per suffix.  Runs that can
  only ever start in state 1 (full sample words not shared as suffixes of
  longer words) are pruned to start state 1.
* hybrid: each word is cut into a prefix part and a suffix part; the prefix
  machinery covers the prefix parts, the suffix machinery the suffix parts,
  and per-word linking clauses tie the two halves together at the cut state.
  Cut 0 or cut |w| collapse to the pure suffix/prefix forms.

Every acceptance/definition equivalence is converted to CNF with one
auxiliary variable per conjunction (Tseitin style), so instance sizes stay
polynomial in the closure sizes for all but the direct encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .cnf import (
    CnfInstance,
    accept_aux_var,
    direct_path_aux_var,
    final_var,
    link_aux_var,
    prefix_path_var,
    prefix_rec_aux_var,
    suffix_path_var,
    suffix_rec_aux_var,
    trans_var,
)
from .sample import (
    Sample,
    SampleError,
    SplitAssignment,
    Word,
    intern_word,
    prefixes,
    split_word,
    suffixes,
    validate_cuts,
    word_key,
)

DEFAULT_LITERAL_BUDGET = 50_000_000


class ModelKind(str, Enum):
    DIRECT = "dm"
    PREFIX = "pm"
    SUFFIX = "sm"
    HYBRID = "hm"

    @staticmethod
    def parse(text: str) -> "ModelKind":
        try:
            return ModelKind(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown model {text!r}; expected one of "
                + ", ".join(m.value for m in ModelKind)
            ) from None


class BudgetExceededError(RuntimeError):
    """Instance too large for the configured literal budget."""


# ---------------------------------------------------------------------------
# Shared pieces.
# ---------------------------------------------------------------------------


def _base_instance(sample: Sample, k: int) -> CnfInstance:
    """Finals, transitions, and the empty-word unit clauses."""
    inst = CnfInstance()
    for i in range(1, k + 1):
        inst.fresh_var(final_var(i))
    for a in range(sample.alphabet_size):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                inst.fresh_var(trans_var(a, i, j))
    if () in sample.positives:
        inst.add_clause([inst.lookup(final_var(1))], family="empty_word_unit")
    if () in sample.negatives:
        inst.add_clause([-inst.lookup(final_var(1))], family="empty_word_unit")
    return inst


def _emit_prefix_chain(inst: CnfInstance, prefix_set: set[Word], k: int) -> None:
    """Define reach-from-start variables for every prefix in the closure."""
    for word in sorted(prefix_set, key=word_key):
        if len(word) == 1:
            for i in range(1, k + 1):
                inst.alias_var(prefix_path_var(word, i), trans_var(word[0], 1, i))
            continue
        parent = intern_word(word[:-1])
        a = word[-1]
        word_vars = [inst.fresh_var(prefix_path_var(word, i)) for i in range(1, k + 1)]
        parent_vars = [inst.lookup(prefix_path_var(parent, j)) for j in range(1, k + 1)]
        aux = {
            (j, i): inst.fresh_var(prefix_rec_aux_var(parent, a, j, i))
            for j in range(1, k + 1)
            for i in range(1, k + 1)
        }
        for j in range(1, k + 1):
            for i in range(1, k + 1):
                x = aux[(j, i)]
                step = inst.lookup(trans_var(a, j, i))
                inst.add_clause([-x, parent_vars[j - 1]], family="prefix_rec_bin_prev")
                inst.add_clause([-x, step], family="prefix_rec_bin_trans")
                inst.add_clause(
                    [x, -parent_vars[j - 1], -step], family="prefix_rec_ternary"
                )
        for i in range(1, k + 1):
            inst.add_clause(
                [-word_vars[i - 1]] + [aux[(j, i)] for j in range(1, k + 1)],
                family="prefix_rec_choice",
            )
        for j in range(1, k + 1):
            for i in range(1, k + 1):
                inst.add_clause([word_vars[i - 1], -aux[(j, i)]], family="prefix_rec_bin_out")


def _suffix_all_start_words(suffix_set: set[Word], linked: set[Word]) -> set[Word]:
    """Suffixes whose runs must exist from every start state.

    A suffix referenced inside a longer suffix's definition, or linked behind
    a non-empty prefix part, can begin anywhere; everything else only ever
    runs from the initial state and is pruned to start state 1.
    """
    needs_all = set(linked)
    for word in suffix_set:
        for i in range(1, len(word)):
            needs_all.add(intern_word(word[i:]))
    return needs_all & suffix_set


def _emit_suffix_chain(
    inst: CnfInstance, suffix_set: set[Word], all_start_words: set[Word], k: int
) -> None:
    """Define segment-run variables for every suffix in the closure."""
    for word in sorted(suffix_set, key=word_key):
        starts = range(1, k + 1) if word in all_start_words else (1,)
        if len(word) == 1:
            for i in starts:
                for j in range(1, k + 1):
                    inst.alias_var(suffix_path_var(word, i, j), trans_var(word[0], i, j))
            continue
        tail = intern_word(word[1:])
        a = word[0]
        word_vars = {
            (i, j): inst.fresh_var(suffix_path_var(word, i, j))
            for i in starts
            for j in range(1, k + 1)
        }
        aux = {
            (i, mid, j): inst.fresh_var(suffix_rec_aux_var(tail, a, i, mid, j))
            for i in starts
            for mid in range(1, k + 1)
            for j in range(1, k + 1)
        }
        for i in starts:
            for mid in range(1, k + 1):
                step = inst.lookup(trans_var(a, i, mid))
                for j in range(1, k + 1):
                    x = aux[(i, mid, j)]
                    rest = inst.lookup(suffix_path_var(tail, mid, j))
                    inst.add_clause([-x, rest], family="suffix_rec_bin_tail")
                    inst.add_clause([-x, step], family="suffix_rec_bin_trans")
                    inst.add_clause([x, -rest, -step], family="suffix_rec_ternary")
        for i in starts:
            for j in range(1, k + 1):
                inst.add_clause(
                    [-word_vars[(i, j)]] + [aux[(i, mid, j)] for mid in range(1, k + 1)],
                    family="suffix_rec_choice",
                )
        for i in starts:
            for mid in range(1, k + 1):
                for j in range(1, k + 1):
                    inst.add_clause(
                        [word_vars[(i, j)], -aux[(i, mid, j)]], family="suffix_rec_bin_out"
                    )


def _emit_accept(inst: CnfInstance, word: Word, k: int, reach_index) -> None:
    """Some end state is both reached by the word and final."""
    aux_vars = []
    for i in range(1, k + 1):
        x = inst.fresh_var(accept_aux_var(word, i))
        aux_vars.append(x)
        inst.add_clause([-x, reach_index(i)], family="accept_bin")
        inst.add_clause([-x, inst.lookup(final_var(i))], family="accept_bin")
    for i in range(1, k + 1):
        inst.add_clause(
            [aux_vars[i - 1], -reach_index(i), -inst.lookup(final_var(i))],
            family="accept_ternary",
        )
    inst.add_clause(aux_vars, family="accept_choice")


def _emit_reject(inst: CnfInstance, word: Word, k: int, reach_index) -> None:
    """No reached end state may be final."""
    for i in range(1, k + 1):
        inst.add_clause(
            [-reach_index(i), -inst.lookup(final_var(i))], family="reject_bin"
        )


# ---------------------------------------------------------------------------
# The four encoders.
# ---------------------------------------------------------------------------


def encode_direct(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Explicit state-path encoding; blows up as k^|word|."""
    _check_budget(_direct_literals(sample, k), literal_budget)
    inst = _base_instance(sample, k)
    for word in sample.sorted_positives():
        if not word:
            continue
        aux_vars = []
        for states in itertools.product(range(1, k + 1), repeat=len(word)):
            end = states[-1]
            path_lits = _path_literals(inst, word, states)
            x = inst.fresh_var(direct_path_aux_var(word, states))
            aux_vars.append(x)
            for lit in path_lits:
                inst.add_clause([-x, lit], family="direct_bin")
            inst.add_clause([-x, inst.lookup(final_var(end))], family="direct_bin")
            inst.add_clause(
                [x] + [-lit for lit in path_lits] + [-inst.lookup(final_var(end))],
                family="direct_reverse",
            )
        inst.add_clause(aux_vars, family="direct_choice")
    for word in sample.sorted_negatives():
        if not word:
            continue
        for states in itertools.product(range(1, k + 1), repeat=len(word)):
            end = states[-1]
            path_lits = _path_literals(inst, word, states)
            inst.add_clause(
                [-lit for lit in path_lits] + [-inst.lookup(final_var(end))],
                family="direct_reject",
            )
    return inst


def _path_literals(inst: CnfInstance, word: Word, states: tuple[int, ...]) -> list[int]:
    lits = []
    prev = 1
    for a, state in zip(word, states):
        lits.append(inst.lookup(trans_var(a, prev, state)))
        prev = state
    return lits


def encode_prefix(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Prefix-closure encoding: one reach variable per prefix and end state."""
    _check_budget(estimate_size(ModelKind.PREFIX, sample, k).total_literals(), literal_budget)
    inst = _base_instance(sample, k)
    closure = prefixes(set(sample.words()))
    _emit_prefix_chain(inst, closure, k)
    for word in sample.sorted_positives():
        if word:
            _emit_accept(inst, word, k, lambda i, w=word: inst.lookup(prefix_path_var(w, i)))
    for word in sample.sorted_negatives():
        if word:
            _emit_reject(inst, word, k, lambda i, w=word: inst.lookup(prefix_path_var(w, i)))
    return inst


def encode_suffix(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Suffix-closure encoding with start-state pruning for top-level words."""
    _check_budget(estimate_size(ModelKind.SUFFIX, sample, k).total_literals(), literal_budget)
    inst = _base_instance(sample, k)
    words = set(sample.words())
    closure = suffixes(words)
    _emit_suffix_chain(inst, closure, _suffix_all_start_words(closure, set()), k)
    for word in sample.sorted_positives():
        if word:
            _emit_accept(
                inst, word, k, lambda i, w=word: inst.lookup(suffix_path_var(w, 1, i))
            )
    for word in sample.sorted_negatives():
        if word:
            _emit_reject(
                inst, word, k, lambda i, w=word: inst.lookup(suffix_path_var(w, 1, i))
            )
    return inst


def encode_hybrid(
    sample: Sample,
    k: int,
    cuts: SplitAssignment,
    literal_budget: int = DEFAULT_LITERAL_BUDGET,
) -> CnfInstance:
    """Split-word encoding: prefix machinery feeds suffix machinery per word."""
    validate_cuts(sample, cuts)
    _check_budget(
        estimate_size(ModelKind.HYBRID, sample, k, cuts).total_literals(), literal_budget
    )
    inst = _base_instance(sample, k)

    prefix_parts: set[Word] = set()
    suffix_parts: set[Word] = set()
    linked_suffix_parts: set[Word] = set()
    for word, cut in cuts.items():
        head, tail = split_word(word, cut)
        if head:
            prefix_parts.add(head)
        if tail:
            suffix_parts.add(tail)
            if head:
                linked_suffix_parts.add(tail)

    _emit_prefix_chain(inst, prefixes(prefix_parts), k)
    suffix_closure = suffixes(suffix_parts)
    _emit_suffix_chain(
        inst, suffix_closure, _suffix_all_start_words(suffix_closure, linked_suffix_parts), k
    )

    def emit_word(word: Word, positive: bool) -> None:
        head, tail = split_word(word, cuts[word])
        if not tail:  # cut at |word|: behaves like the pure prefix encoding
            reach = lambda i: inst.lookup(prefix_path_var(word, i))
            (_emit_accept if positive else _emit_reject)(inst, word, k, reach)
            return
        if not head:  # cut at 0: behaves like the pure suffix encoding
            reach = lambda i: inst.lookup(suffix_path_var(word, 1, i))
            (_emit_accept if positive else _emit_reject)(inst, word, k, reach)
            return
        head_vars = [inst.lookup(prefix_path_var(head, j)) for j in range(1, k + 1)]
        if positive:
            aux_vars = []
            for j in range(1, k + 1):
                for end in range(1, k + 1):
                    tail_var = inst.lookup(suffix_path_var(tail, j, end))
                    fin = inst.lookup(final_var(end))
                    x = inst.fresh_var(link_aux_var(word, j, end))
                    aux_vars.append(x)
                    inst.add_clause([-x, head_vars[j - 1]], family="link_bin")
                    inst.add_clause([-x, tail_var], family="link_bin")
                    inst.add_clause([-x, fin], family="link_bin")
                    inst.add_clause(
                        [x, -head_vars[j - 1], -tail_var, -fin], family="link_reverse"
                    )
            inst.add_clause(aux_vars, family="link_choice")
        else:
            for j in range(1, k + 1):
                for end in range(1, k + 1):
                    tail_var = inst.lookup(suffix_path_var(tail, j, end))
                    fin = inst.lookup(final_var(end))
                    inst.add_clause(
                        [-head_vars[j - 1], -tail_var, -fin], family="link_reject_ternary"
                    )

    for word in sample.sorted_positives():
        if word:
            emit_word(word, positive=True)
    for word in sample.sorted_negatives():
        if word:
            emit_word(word, positive=False)
    return inst


def encode(
    kind: ModelKind,
    sample: Sample,
    k: int,
    cuts: SplitAssignment | None = None,
    literal_budget: int = DEFAULT_LITERAL_BUDGET,
) -> CnfInstance:
    if k < 1:
        raise SampleError(f"state count k must be >= 1, got {k}")
    if kind == ModelKind.DIRECT:
        return encode_direct(sample, k, literal_budget)
    if kind == ModelKind.PREFIX:
        return encode_prefix(sample, k, literal_budget)
    if kind == ModelKind.SUFFIX:
        return encode_suffix(sample, k, literal_budget)
    if kind == ModelKind.HYBRID:
        if cuts is None:
            raise ValueError("the hybrid encoding requires a split assignment")
        return encode_hybrid(sample, k, cuts, literal_budget)
    raise ValueError(f"unknown model kind {kind!r}")


def _check_budget(projected_literals: int, literal_budget: int) -> None:
    if projected_literals > literal_budget:
        raise BudgetExceededError(
            f"instance too large: about {projected_literals} literals exceeds "
            f"the budget of {literal_budget}"
        )


def _direct_literals(sample: Sample, k: int) -> int:
    total = 0
    for word in sample.positives:
        m = len(word)
        if m:
            paths = k**m
            total += paths * (m + 1) * 2 + paths * (m + 2) + paths
    for word in sample.negatives:
        m = len(word)
        if m:
            total += k**m * (m + 1)
    return total


# ---------------------------------------------------------------------------
# Closed-form size bounds per constraint family.
# ---------------------------------------------------------------------------


@dataclass
class SizeEstimate:
    """Upper bounds on generated variables and clauses, per family.

    clause_bounds maps family name to (clause count bound, arity bound).
    Bounds dominate what the encoders actually generate; arity bounds are
    the widest clause the family can contain.
    """

    variable_bounds: dict[str, int]
    clause_bounds: dict[str, tuple[int, int]]

    def total_variables(self) -> int:
        return sum(self.variable_bounds.values())

    def total_clauses(self) -> int:
        return sum(count for count, _ in self.clause_bounds.values())

    def total_literals(self) -> int:
        return sum(count * arity for count, arity in self.clause_bounds.values())


def _long_closure_count(closure: set[Word]) -> int:
    return sum(1 for w in closure if len(w) >= 2)


def estimate_size(
    kind: ModelKind,
    sample: Sample,
    k: int,
    cuts: SplitAssignment | None = None,
) -> SizeEstimate:
    n = sample.alphabet_size
    pos = len(sample.positives)
    neg = len(sample.negatives)
    lam = int(() in sample.positives) + int(() in sample.negatives)

    variables = {"final": k, "transition": n * k * k}
    clauses: dict[str, tuple[int, int]] = {}
    if lam:
        clauses["empty_word_unit"] = (lam, 1)

    if kind == ModelKind.DIRECT:
        wplus = max((len(w) for w in sample.positives), default=0)
        wminus = max((len(w) for w in sample.negatives), default=0)
        paths_plus = k**wplus
        variables["direct_path_aux"] = pos * paths_plus
        clauses["direct_bin"] = (pos * (wplus + 1) * paths_plus, 2)
        clauses["direct_reverse"] = (pos * paths_plus, wplus + 2)
        clauses["direct_choice"] = (pos, paths_plus)
        clauses["direct_reject"] = (neg * k**wminus, wminus + 1)
        return SizeEstimate(variables, clauses)

    def accept_reject_bounds(n_pos: int, n_neg: int) -> None:
        clauses["accept_bin"] = (2 * k * n_pos, 2)
        clauses["accept_ternary"] = (k * n_pos, 3)
        clauses["accept_choice"] = (n_pos, k)
        clauses["reject_bin"] = (k * n_neg, 2)
        variables["accept_aux"] = n_pos * k

    def prefix_bounds(closure: set[Word]) -> None:
        long = _long_closure_count(closure)
        variables["prefix_path"] = long * k
        variables["prefix_rec_aux"] = long * k * k
        clauses["prefix_rec_bin_prev"] = (long * k * k, 2)
        clauses["prefix_rec_bin_trans"] = (long * k * k, 2)
        clauses["prefix_rec_ternary"] = (long * k * k, 3)
        clauses["prefix_rec_choice"] = (long * k, k + 1)
        clauses["prefix_rec_bin_out"] = (long * k * k, 2)

    def suffix_bounds(closure: set[Word]) -> None:
        long = _long_closure_count(closure)
        variables["suffix_path"] = long * k * k
        variables["suffix_rec_aux"] = long * k * k * k
        clauses["suffix_rec_bin_tail"] = (long * k**3, 2)
        clauses["suffix_rec_bin_trans"] = (long * k**3, 2)
        clauses["suffix_rec_ternary"] = (long * k**3, 3)
        clauses["suffix_rec_choice"] = (long * k * k, k + 1)
        clauses["suffix_rec_bin_out"] = (long * k**3, 2)

    if kind == ModelKind.PREFIX:
        accept_reject_bounds(pos, neg)
        prefix_bounds(prefixes(set(sample.words())))
        return SizeEstimate(variables, clauses)

    if kind == ModelKind.SUFFIX:
        accept_reject_bounds(pos, neg)
        suffix_bounds(suffixes(set(sample.words())))
        return SizeEstimate(variables, clauses)

    if kind == ModelKind.HYBRID:
        if cuts is None:
            raise ValueError("the hybrid estimate requires a split assignment")
        validate_cuts(sample, cuts)
        prefix_parts = {split_word(w, c)[0] for w, c in cuts.items() if c > 0}
        suffix_parts = {split_word(w, c)[1] for w, c in cuts.items() if c < len(w)}
        pure_prefix_pos = sum(1 for w in sample.positives if w and cuts[w] == len(w))
        pure_prefix_neg = sum(1 for w in sample.negatives if w and cuts[w] == len(w))
        pure_suffix_pos = sum(1 for w in sample.positives if w and cuts[w] == 0)
        pure_suffix_neg = sum(1 for w in sample.negatives if w and cuts[w] == 0)
        linked_pos = sum(1 for w in sample.positives if w and 0 < cuts[w] < len(w))
        linked_neg = sum(1 for w in sample.negatives if w and 0 < cuts[w] < len(w))
        accept_reject_bounds(pure_prefix_pos + pure_suffix_pos, pure_prefix_neg + pure_suffix_neg)
        prefix_bounds(prefixes(prefix_parts))
        suffix_bounds(suffixes(suffix_parts))
        variables["link_aux"] = linked_pos * k * k
        clauses["link_bin"] = (3 * k * k * linked_pos, 2)
        clauses["link_reverse"] = (k * k * linked_pos, 4)
        clauses["link_choice"] = (linked_pos, k * k)
        clauses["link_reject_ternary"] = (k * k * linked_neg, 3)
        return SizeEstimate(variables, clauses)

    raise ValueError(f"unknown model kind {kind!r}")
