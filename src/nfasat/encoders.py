"""Four CNF encodings of the k-state NFA inference problem, plus size bounds.

Shared by all encodings: k final-state variables, n*k^2 transition variables,
and unit clauses fixing state 1 when the empty word is labeled.  They differ
in how word acceptance is expressed:

* direct: one auxiliary variable per explicit state path of each positive
  word (k^|w| of them) and one blocking clause per state path of each
  negative word.  Exponential; only small instances are tractable.
* prefix: one variable per (non-empty prefix, end state) meaning "some run
  for the prefix reaches this state from the start".  A one-letter prefix
  is its transition row out of state 1; longer ones are defined from their
  parent prefix through auxiliary conjunction variables over k^2 state pairs.
* suffix: one variable per (non-empty suffix, start state, end state); the
  chain grows leftwards and costs k^3 auxiliaries per suffix.  A one-letter
  suffix is its transition table.  Runs that can only ever start in state 1
  (full sample words not shared as suffixes of longer words) are pruned to
  start state 1.
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

Only the final and transition variables are named in the instance.  The
encoders index them through the tables ``_base_instance`` returns, and keep
the reach variables of each closure word in a dict keyed by the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product, repeat
from operator import neg
from typing import Callable, Sequence

from .cnf import CnfInstance, final_var, trans_var
from .sample import (
    Sample,
    SampleError,
    SplitAssignment,
    Word,
    prefixes,
    split_sets,
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


Table = list[list[int]]  # [start state - 1][end state - 1]


def _base_instance(sample: Sample, k: int) -> tuple[CnfInstance, list[int], list[Table]]:
    """Finals, transitions, and the empty-word unit clauses.

    Returns the instance, the final variable per state (finals[i - 1]) and
    the transition variables per symbol (trans[a][i - 1][j - 1]).
    """
    inst = CnfInstance()
    states = range(1, k + 1)
    finals = [inst.fresh_var(final_var(i)) for i in states]
    trans = [
        [[inst.fresh_var(trans_var(a, i, j)) for j in states] for i in states]
        for a in range(sample.alphabet_size)
    ]
    if () in sample.positives:
        inst.add_clause([finals[0]], family="empty_word_unit")
    if () in sample.negatives:
        inst.add_clause([-finals[0]], family="empty_word_unit")
    return inst, finals, trans


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
    variables are one index range.  A one-letter word's reach variables are
    transition variables, so a conjunct can repeat; the reverse clause names
    it once.
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


def _emit_prefix_chain(
    inst: CnfInstance, prefix_set: set[Word], trans: list[Table], k: int
) -> dict[Word, list[int]]:
    """Define reach-from-start variables for every prefix in the closure.

    Returns per prefix the variables "a run for it reaches state i from
    state 1", at index i - 1.
    """
    states = range(k)
    reach: dict[Word, list[int]] = {}
    for word in sorted(prefix_set, key=word_key):
        if len(word) == 1:
            reach[word] = trans[word[0]][0]
            continue
        first = inst.fresh_aux("prefix_path", k)
        outputs = reach[word] = list(range(first, first + k))
        parent = reach[word[:-1]]
        step = trans[word[-1]]
        terms = [(i, (parent[j], step[j][i])) for j in states for i in states]
        _define(inst, outputs, terms, _PREFIX_FAMILIES)
    return reach


def _suffix_all_start_words(suffix_set: set[Word], linked: set[Word]) -> set[Word]:
    """Suffixes whose runs must exist from every start state.

    A suffix referenced inside a longer suffix's definition, or linked behind
    a non-empty prefix part, can begin anywhere; everything else only ever
    runs from the initial state and is pruned to start state 1.
    """
    needs_all = set(linked)
    for word in suffix_set:
        for i in range(1, len(word)):
            needs_all.add(word[i:])
    return needs_all & suffix_set


def _emit_suffix_chain(
    inst: CnfInstance, suffix_set: set[Word], all_start_words: set[Word], trans: list[Table], k: int
) -> dict[Word, Table]:
    """Define segment-run variables for every suffix in the closure.

    Returns per suffix the variables "a run for it leads from state i to
    state j", at [i - 1][j - 1]; a suffix pruned to start state 1 has that
    row only.
    """
    states = range(k)
    reach: dict[Word, Table] = {}
    for word in sorted(suffix_set, key=word_key):
        if len(word) == 1:
            reach[word] = trans[word[0]]
            continue
        starts = states if word in all_start_words else range(1)
        first = inst.fresh_aux("suffix_path", len(starts) * k)
        outputs = list(range(first, first + len(starts) * k))
        reach[word] = [outputs[i * k : i * k + k] for i in starts]
        rests = reach[word[1:]]
        steps = trans[word[0]]
        terms = [
            (i * k + j, (rests[mid][j], steps[i][mid]))
            for i in starts
            for mid in states
            for j in states
        ]
        _define(inst, outputs, terms, _SUFFIX_FAMILIES)
    return reach


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


def _emit_verdicts(
    inst: CnfInstance, sample: Sample, finals: list[int], reach: Callable[[Word], list[int]]
) -> None:
    """Accept the non-empty positive words and reject the non-empty negative ones."""
    for word in sample.sorted_positives():
        if word:
            _emit_accept(inst, reach(word), finals)
    for word in sample.sorted_negatives():
        if word:
            _emit_reject(inst, reach(word), finals)


# ---------------------------------------------------------------------------
# The four encoders.
# ---------------------------------------------------------------------------


def encode_direct(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Explicit state-path encoding; blows up as k^|word|."""
    _check_budget(_direct_literals(sample, k), literal_budget)
    inst, finals, trans = _base_instance(sample, k)
    states = range(k)
    for word in sample.sorted_positives():
        if word:
            terms = [
                (None, _path_conjuncts(trans, finals, word, path))
                for path in product(states, repeat=len(word))
            ]
            bin_families = ("direct_bin",) * (len(word) + 1)
            families = ("direct_path_aux", bin_families, "direct_reverse", "direct_choice", None)
            _define(inst, None, terms, families)
    for word in sample.sorted_negatives():
        if word:
            paths = product(states, repeat=len(word))
            blocked = [_negated(_path_conjuncts(trans, finals, word, path)) for path in paths]
            inst.add_clauses(blocked, repeat("direct_reject"))
    return inst


def _negated(lits: Sequence[int]) -> tuple[int, ...]:
    """The clause forbidding a conjunction; a conjunct can repeat."""
    return tuple(map(neg, dict.fromkeys(lits)))


def _path_conjuncts(
    trans: list[Table], finals: list[int], word: Word, path: tuple[int, ...]
) -> list[int]:
    """Transitions along the 0-based state path (0, *path), then its end state's final."""
    lits = []
    prev = 0
    for a, state in zip(word, path):
        lits.append(trans[a][prev][state])
        prev = state
    lits.append(finals[prev])
    return lits


def encode_prefix(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Prefix-closure encoding: one reach variable per prefix and end state."""
    _check_budget(estimate_size(ModelKind.PREFIX, sample, k).total_literals(), literal_budget)
    inst, finals, trans = _base_instance(sample, k)
    reach = _emit_prefix_chain(inst, prefixes(set(sample.words())), trans, k)
    _emit_verdicts(inst, sample, finals, reach.__getitem__)
    return inst


def encode_suffix(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Suffix-closure encoding with start-state pruning for top-level words."""
    _check_budget(estimate_size(ModelKind.SUFFIX, sample, k).total_literals(), literal_budget)
    inst, finals, trans = _base_instance(sample, k)
    closure = suffixes(set(sample.words()))
    rows = _emit_suffix_chain(inst, closure, _suffix_all_start_words(closure, set()), trans, k)
    _emit_verdicts(inst, sample, finals, lambda word: rows[word][0])
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
    inst, finals, trans = _base_instance(sample, k)
    linked = {w[cut:] for w, cut in cuts.items() if 0 < cut < len(w)}
    prefix_reach = _emit_prefix_chain(inst, prefixes(prefix_parts), trans, k)
    suffix_closure = suffixes(suffix_parts)
    all_starts = _suffix_all_start_words(suffix_closure, linked)
    suffix_rows = _emit_suffix_chain(inst, suffix_closure, all_starts, trans, k)

    states = range(k)

    def emit_word(word: Word, positive: bool) -> None:
        cut = cuts[word]
        head, tail = word[:cut], word[cut:]
        if not head or not tail:  # cut 0 or |word|: the pure suffix or prefix form
            reach = prefix_reach[word] if head else suffix_rows[word][0]
            (_emit_accept if positive else _emit_reject)(inst, reach, finals)
            return
        head_vars = prefix_reach[head]
        tail_rows = suffix_rows[tail]
        conjuncts = [
            (head_vars[j], tail_rows[j][end], finals[end])
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
