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

Every prefix, suffix, link and direct-path definition goes through one
helper, ``_define``: each output is the OR of AND terms, with one anonymous
auxiliary variable per term (Tseitin style).  It emits, per term, one
[-x, lit] per conjunct and [x, -lits...]; then one choice clause per output
([-y, aux...], or a single [aux...] when the OR is asserted outright); then
[y, -x] per term, all as one checked batch.  Accepting a word through its
reach variables keeps its own order (all binaries, then all ternaries).
Instance sizes stay polynomial in the closure sizes for all but the direct
encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product, repeat
from operator import neg
from typing import Sequence

from .cnf import CnfInstance, final_var, prefix_path_var, suffix_path_var, trans_var
from .sample import (
    Sample,
    SampleError,
    SplitAssignment,
    Word,
    intern_word,
    prefixes,
    split_sets,
    split_word,
    suffixes,
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


# Per definition: aux family, (binary family per conjunct), reverse, choice, output.
_PREFIX_FAMILIES = ("prefix_rec_aux", ("prefix_rec_bin_prev", "prefix_rec_bin_trans"),
                    "prefix_rec_ternary", "prefix_rec_choice", "prefix_rec_bin_out")
_SUFFIX_FAMILIES = ("suffix_rec_aux", ("suffix_rec_bin_tail", "suffix_rec_bin_trans"),
                    "suffix_rec_ternary", "suffix_rec_choice", "suffix_rec_bin_out")
_LINK_FAMILIES = ("link_aux", ("link_bin",) * 3, "link_reverse", "link_choice", None)


def _define(
    inst: CnfInstance,
    outputs: list[int] | None,
    terms: list[tuple[int | None, Sequence[int]]],
    families: tuple[str, tuple[str, ...], str, str, str | None],
) -> None:
    """Define each output as the OR of its AND terms, in the module docstring's order.

    A term is (output index, conjunct literals), all terms with as many
    conjuncts.  families: aux variable family, one binary family per
    conjunct, then the reverse, choice and output families.  The aux
    variables are one index range.  Aliasing can repeat a conjunct; the
    reverse clause names it once.
    """
    aux_family, bin_families, reverse_family, choice_family, out_family = families
    first = inst.fresh_aux(aux_family, len(terms))
    aux = range(first, first + len(terms))
    clauses: list[tuple[int, ...]] = []
    for x, (_, lits) in zip(aux, terms):
        clauses += zip(repeat(-x), lits)
        clauses.append((x, *map(neg, dict.fromkeys(lits))))
    clause_families = [*bin_families, reverse_family] * len(terms)
    if outputs is None:
        clauses.append(tuple(aux))
        inst.add_clauses(clauses, clause_families + [choice_family])
        return
    choices = [[-y] for y in outputs]
    for x, (out, _) in zip(aux, terms):
        choices[out].append(x)
    clauses += map(tuple, choices)
    clauses += [(outputs[out], -x) for x, (out, _) in zip(aux, terms)]
    clause_families += [choice_family] * len(outputs) + [out_family] * len(terms)
    inst.add_clauses(clauses, clause_families)


def _emit_prefix_chain(inst: CnfInstance, prefix_set: set[Word], k: int) -> None:
    """Define reach-from-start variables for every prefix in the closure."""
    states = range(1, k + 1)
    for word in sorted(prefix_set, key=word_key):
        if len(word) == 1:
            for i in states:
                inst.alias_var(prefix_path_var(word, i), trans_var(word[0], 1, i))
            continue
        parent = intern_word(word[:-1])
        a = word[-1]
        outputs = [inst.fresh_var(prefix_path_var(word, i)) for i in states]
        parent_vars = _prefix_reach(inst, parent, k)
        terms = [
            (i - 1, (parent_vars[j - 1], inst.lookup(trans_var(a, j, i))))
            for j in states
            for i in states
        ]
        _define(inst, outputs, terms, _PREFIX_FAMILIES)


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
    states = range(1, k + 1)
    for word in sorted(suffix_set, key=word_key):
        starts = states if word in all_start_words else (1,)
        if len(word) == 1:
            for i in starts:
                for j in states:
                    inst.alias_var(suffix_path_var(word, i, j), trans_var(word[0], i, j))
            continue
        tail = intern_word(word[1:])
        a = word[0]
        outputs = [inst.fresh_var(suffix_path_var(word, i, j)) for i in starts for j in states]
        rests = [[inst.lookup(suffix_path_var(tail, mid, j)) for j in states] for mid in states]
        steps = [[inst.lookup(trans_var(a, i, mid)) for mid in states] for i in starts]
        terms = [
            ((i - 1) * k + j - 1, (rests[mid - 1][j - 1], steps[i - 1][mid - 1]))
            for i in starts
            for mid in states
            for j in states
        ]
        _define(inst, outputs, terms, _SUFFIX_FAMILIES)


def _prefix_reach(inst: CnfInstance, word: Word, k: int) -> list[int]:
    """Per end state, the variable "a run for word reaches it from state 1"."""
    return [inst.lookup(prefix_path_var(word, i)) for i in range(1, k + 1)]


def _suffix_reach(inst: CnfInstance, word: Word, k: int) -> list[int]:
    """The same through the suffix machinery, from start state 1."""
    return [inst.lookup(suffix_path_var(word, 1, i)) for i in range(1, k + 1)]


def _emit_accept(inst: CnfInstance, reach: list[int], finals: list[int]) -> None:
    """Some end state is both reached by the word and final."""
    k = len(reach)
    first = inst.fresh_aux("accept_aux", k)
    aux = range(first, first + k)
    clauses = []
    for x, lit, fin in zip(aux, reach, finals):
        clauses += ((-x, lit), (-x, fin))
    clauses += zip(aux, map(neg, reach), map(neg, finals))
    clauses.append(tuple(aux))
    inst.add_clauses(clauses, ["accept_bin"] * (2 * k) + ["accept_ternary"] * k + ["accept_choice"])


def _emit_reject(inst: CnfInstance, reach: list[int], finals: list[int]) -> None:
    """No reached end state may be final."""
    inst.add_clauses(list(zip(map(neg, reach), map(neg, finals))), repeat("reject_bin"))


def _final_vars(inst: CnfInstance, k: int) -> list[int]:
    return [inst.lookup(final_var(i)) for i in range(1, k + 1)]


def _emit_verdicts(inst: CnfInstance, sample: Sample, k: int, reach_of) -> None:
    """Accept the non-empty positive words and reject the non-empty negative ones."""
    finals = _final_vars(inst, k)
    for word in sample.sorted_positives():
        if word:
            _emit_accept(inst, reach_of(inst, word, k), finals)
    for word in sample.sorted_negatives():
        if word:
            _emit_reject(inst, reach_of(inst, word, k), finals)


# ---------------------------------------------------------------------------
# The four encoders.
# ---------------------------------------------------------------------------


def encode_direct(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Explicit state-path encoding; blows up as k^|word|."""
    _check_budget(_direct_literals(sample, k), literal_budget)
    inst = _base_instance(sample, k)
    states = range(1, k + 1)
    for word in sample.sorted_positives():
        if word:
            terms = [
                (None, _path_conjuncts(inst, word, path))
                for path in product(states, repeat=len(word))
            ]
            bin_families = ("direct_bin",) * (len(word) + 1)
            families = ("direct_path_aux", bin_families, "direct_reverse", "direct_choice", None)
            _define(inst, None, terms, families)
    for word in sample.sorted_negatives():
        if word:
            paths = product(states, repeat=len(word))
            blocked = [_negated(_path_conjuncts(inst, word, path)) for path in paths]
            inst.add_clauses(blocked, repeat("direct_reject"))
    return inst


def _negated(lits: Sequence[int]) -> tuple[int, ...]:
    """The clause forbidding a conjunction; aliasing can repeat a conjunct."""
    return tuple(map(neg, dict.fromkeys(lits)))


def _path_conjuncts(inst: CnfInstance, word: Word, path: tuple[int, ...]) -> list[int]:
    """Transitions along the state path (1, *path), then its end state's final."""
    lits = []
    prev = 1
    for a, state in zip(word, path):
        lits.append(inst.lookup(trans_var(a, prev, state)))
        prev = state
    lits.append(inst.lookup(final_var(prev)))
    return lits


def encode_prefix(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Prefix-closure encoding: one reach variable per prefix and end state."""
    _check_budget(estimate_size(ModelKind.PREFIX, sample, k).total_literals(), literal_budget)
    inst = _base_instance(sample, k)
    _emit_prefix_chain(inst, prefixes(set(sample.words())), k)
    _emit_verdicts(inst, sample, k, _prefix_reach)
    return inst


def encode_suffix(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Suffix-closure encoding with start-state pruning for top-level words."""
    _check_budget(estimate_size(ModelKind.SUFFIX, sample, k).total_literals(), literal_budget)
    inst = _base_instance(sample, k)
    closure = suffixes(set(sample.words()))
    _emit_suffix_chain(inst, closure, _suffix_all_start_words(closure, set()), k)
    _emit_verdicts(inst, sample, k, _suffix_reach)
    return inst


def encode_hybrid(
    sample: Sample,
    k: int,
    cuts: SplitAssignment,
    literal_budget: int = DEFAULT_LITERAL_BUDGET,
) -> CnfInstance:
    """Split-word encoding: prefix machinery feeds suffix machinery per word."""
    prefix_parts, suffix_parts = split_sets(sample, cuts)
    _check_budget(
        estimate_size(ModelKind.HYBRID, sample, k, cuts).total_literals(), literal_budget
    )
    inst = _base_instance(sample, k)
    linked = {split_word(w, cut)[1] for w, cut in cuts.items() if 0 < cut < len(w)}
    _emit_prefix_chain(inst, prefixes(prefix_parts), k)
    suffix_closure = suffixes(suffix_parts)
    _emit_suffix_chain(inst, suffix_closure, _suffix_all_start_words(suffix_closure, linked), k)

    states = range(1, k + 1)
    finals = _final_vars(inst, k)

    def emit_word(word: Word, positive: bool) -> None:
        head, tail = split_word(word, cuts[word])
        if not head or not tail:  # cut 0 or |word|: the pure suffix or prefix form
            reach = (_prefix_reach if head else _suffix_reach)(inst, word, k)
            (_emit_accept if positive else _emit_reject)(inst, reach, finals)
            return
        head_vars = _prefix_reach(inst, head, k)
        conjuncts = [
            (head_vars[j - 1], inst.lookup(suffix_path_var(tail, j, end)), finals[end - 1])
            for j in states
            for end in states
        ]
        if positive:
            _define(inst, None, [(None, lits) for lits in conjuncts], _LINK_FAMILIES)
        else:
            inst.add_clauses(list(map(_negated, conjuncts)), repeat("link_reject_ternary"))

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
        prefix_parts, suffix_parts = split_sets(sample, cuts)
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
