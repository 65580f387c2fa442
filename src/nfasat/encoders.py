"""Four CNF encodings of the k-state NFA inference problem, plus size bounds.

Shared by all encodings: k final-state variables, n*k^2 transition variables,
and unit clauses fixing state 1 when the empty word is labeled.  They differ
in how word acceptance is expressed:

* direct: one auxiliary variable per explicit state path of each positive
  word (k^|w| of them) and one blocking clause per state path of each
  negative word.  Exponential; only small instances are tractable.
* hybrid: each word is cut into a prefix part and a suffix part.  A prefix
  part gets one variable per end state, "some run for it reaches this state
  from the start"; a one-letter prefix is its transition row out of state 1,
  a longer one is defined from its parent prefix over k^2 state pairs.  A
  suffix part gets one variable per start and end state; a one-letter suffix
  is its transition table, a longer one is defined leftwards over k^3
  triples.  A suffix that is never linked behind a prefix part nor shared
  inside a longer suffix only runs from state 1 and keeps that row only.
  A word cut inside is linked at the cut state; a word cut at an end takes
  the verdict of its one part.
* prefix: the hybrid with every word cut at |w|.
* suffix: the hybrid with every word cut at 0.

Every prefix, suffix, link, direct-path and accept definition goes through
one helper, ``_define``: each output is the OR of AND terms, with one
anonymous auxiliary variable per term (Tseitin style).  It emits only the
halves the sample uses (Plaisted & Greenbaum, J. Symb. Comp. 1986).  A word
that is accepted needs "reach => some path" of its reach variables, a word
that is rejected needs "some path => reach".  So each closure word carries
polarity bits: a positive sample word marks its closure word positive and a
negative one marks it negative; a prefix (suffix) takes the union of the
marks of the words one letter longer on the right (left); a word's prefix
part and suffix part both take the word's mark.  Per definition:

* positive use only: per term one [-x, lit] per conjunct; then one choice
  clause per output ([-y, aux...], or a single [aux...] when the OR is
  asserted outright, as accepting a word, a hybrid positive link and a
  direct positive word are);
* negative use only: no auxiliary variables, one [y, -lits...] per term;
* both: per term one [-x, lit] per conjunct and [x, -lits...]; then the
  choice clauses; then [y, -x] per term.

Each definition is one checked batch.  Sound and complete: only final and
transition variables are decoded, the surviving clauses still force every
accepted word to have an accepting run and every rejected word to have
none, and any NFA consistent with the sample extends to a model by setting
each reach and auxiliary variable to its true value.  Instance sizes stay
polynomial in the closure sizes for all but the direct encoding.

Only the final and transition variables are named in the instance.  The
encoders index them through the tables ``_base_instance`` returns, and keep
the reach variables of each closure word in a dict keyed by the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product, repeat
from operator import neg
from typing import Callable, Iterable, Sequence

from .cnf import CnfInstance, final_var, trans_var
from .sample import (
    Sample,
    SampleError,
    SplitAssignment,
    Word,
    all_prefix_cuts,
    all_suffix_cuts,
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


# Polarity bits: how the sample uses a closure word's reach variables.
_POSITIVE, _NEGATIVE = 1, 2
_BOTH = _POSITIVE | _NEGATIVE

# Per definition: aux family, (binary family per conjunct), reverse, choice, output.
# Asserted ORs are positive uses only, so they have no reverse or output family.
_PREFIX_FAMILIES = ("prefix_rec_aux", ("prefix_rec_bin_prev", "prefix_rec_bin_trans"),
                    "prefix_rec_ternary", "prefix_rec_choice", "prefix_rec_bin_out")
_SUFFIX_FAMILIES = ("suffix_rec_aux", ("suffix_rec_bin_tail", "suffix_rec_bin_trans"),
                    "suffix_rec_ternary", "suffix_rec_choice", "suffix_rec_bin_out")
_LINK_FAMILIES = ("link_aux", ("link_bin",) * 3, None, "link_choice", None)
_ACCEPT_FAMILIES = ("accept_aux", ("accept_bin",) * 2, None, "accept_choice", None)


def _define(
    inst: CnfInstance,
    outputs: list[int] | None,
    terms: list[tuple[int | None, Sequence[int]]],
    families: tuple[str, tuple[str, ...], str | None, str, str | None],
    uses: int = _POSITIVE,
) -> None:
    """Define each output as the OR of its AND terms, in the module docstring's order.

    A term is (output index, conjunct literals), all terms with as many
    conjuncts.  families: aux variable family, one binary family per
    conjunct, then the reverse, choice and output families.  uses: the
    polarity bits of the outputs; an asserted OR (outputs None) is a
    positive use.  The aux variables are one index range.  A one-letter
    word's reach variables are transition variables, so a conjunct can
    repeat; a reverse clause names it once.
    """
    aux_family, bin_families, reverse_family, choice_family, out_family = families
    if uses == _NEGATIVE:
        clauses = [(outputs[out], *_negated(lits)) for out, lits in terms]
        inst.add_clauses(clauses, repeat(reverse_family))
        return
    both = uses == _BOTH
    first = inst.fresh_aux(aux_family, len(terms))
    aux = range(first, first + len(terms))
    clauses: list[tuple[int, ...]] = []
    for x, (_, lits) in zip(aux, terms):
        clauses += zip(repeat(-x), lits)
        if both:
            clauses.append((x, *_negated(lits)))
    clause_families = [*bin_families, reverse_family] if both else list(bin_families)
    clause_families *= len(terms)
    if outputs is None:
        clauses.append(tuple(aux))
        inst.add_clauses(clauses, clause_families + [choice_family])
        return
    choices = [[-y] for y in outputs]
    for x, (out, _) in zip(aux, terms):
        choices[out].append(x)
    clauses += map(tuple, choices)
    clause_families += [choice_family] * len(outputs)
    if both:
        clauses += [(outputs[out], -x) for x, (out, _) in zip(aux, terms)]
        clause_families += [out_family] * len(terms)
    inst.add_clauses(clauses, clause_families)


def _negated(lits: Sequence[int]) -> tuple[int, ...]:
    """The negated literals of a conjunction, each once; a conjunct can repeat."""
    return tuple(map(neg, dict.fromkeys(lits)))


def _marks(sample: Sample) -> list[tuple[Word, int]]:
    """Each sample word with the polarity bit of its label."""
    return [(w, _POSITIVE) for w in sample.positives] + [(w, _NEGATIVE) for w in sample.negatives]


def _closure_uses(
    marked: Iterable[tuple[Word, int]], parent: Callable[[Word], Word]
) -> dict[Word, int]:
    """Polarity bits of every non-empty word of a closure; the keys are the closure.

    Each marked word passes its bits on to parent(word), the word its chain
    defines it from, down to the one-letter words.  A word that already has
    the bits has passed them on before, so the walk stops there.
    """
    uses: dict[Word, int] = {}
    for word, bits in marked:
        while word and bits & ~uses.get(word, 0):
            uses[word] = uses.get(word, 0) | bits
            word = parent(word)
    return uses


def _emit_prefix_chain(
    inst: CnfInstance, marked: Iterable[tuple[Word, int]], trans: list[Table], k: int
) -> dict[Word, list[int]]:
    """Define reach-from-start variables for every prefix of the marked words.

    Returns per prefix the variables "a run for it reaches state i from
    state 1", at index i - 1.
    """
    states = range(k)
    uses = _closure_uses(marked, lambda word: word[:-1])
    reach: dict[Word, list[int]] = {}
    for word in sorted(uses, key=word_key):
        if len(word) == 1:
            reach[word] = trans[word[0]][0]
            continue
        first = inst.fresh_aux("prefix_path", k)
        outputs = reach[word] = list(range(first, first + k))
        parent = reach[word[:-1]]
        step = trans[word[-1]]
        terms = [(i, (parent[j], step[j][i])) for j in states for i in states]
        _define(inst, outputs, terms, _PREFIX_FAMILIES, uses[word])
    return reach


def _suffix_all_start_words(suffix_set: Iterable[Word], linked: set[Word]) -> set[Word]:
    """Suffixes whose runs must exist from every start state.

    A suffix referenced inside a longer suffix's definition, or linked behind
    a non-empty prefix part, can begin anywhere; everything else only ever
    runs from the initial state and is pruned to start state 1.
    """
    needs_all = set(linked)
    for word in suffix_set:
        for i in range(1, len(word)):
            needs_all.add(word[i:])
    return needs_all.intersection(suffix_set)


def _emit_suffix_chain(
    inst: CnfInstance,
    marked: Iterable[tuple[Word, int]],
    linked: set[Word],
    trans: list[Table],
    k: int,
) -> dict[Word, Table]:
    """Define segment-run variables for every suffix of the marked words.

    linked: the suffix parts that follow a non-empty prefix part.  Returns
    per suffix the variables "a run for it leads from state i to state j",
    at [i - 1][j - 1]; a suffix pruned to start state 1 has that row only.
    """
    states = range(k)
    uses = _closure_uses(marked, lambda word: word[1:])
    all_start_words = _suffix_all_start_words(uses, linked)
    reach: dict[Word, Table] = {}
    for word in sorted(uses, key=word_key):
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
        _define(inst, outputs, terms, _SUFFIX_FAMILIES, uses[word])
    return reach


def _emit_verdict(inst: CnfInstance, reach: list[int], finals: list[int], positive: bool) -> None:
    """Accept: some end state is both reached and final.  Reject: none is."""
    if positive:
        _define(inst, None, [(None, pair) for pair in zip(reach, finals)], _ACCEPT_FAMILIES)
    else:
        inst.add_clauses(list(zip(map(neg, reach), map(neg, finals))), repeat("reject_bin"))


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
            families = ("direct_path_aux", bin_families, None, "direct_choice", None)
            _define(inst, None, terms, families)
    for word in sample.sorted_negatives():
        if word:
            paths = product(states, repeat=len(word))
            blocked = [_negated(_path_conjuncts(trans, finals, word, path)) for path in paths]
            inst.add_clauses(blocked, repeat("direct_reject"))
    return inst


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
    """Prefix-closure encoding: the hybrid with every word cut at its end."""
    return encode_hybrid(sample, k, all_prefix_cuts(sample), literal_budget)


def encode_suffix(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Suffix-closure encoding: the hybrid with every word cut at its start."""
    return encode_hybrid(sample, k, all_suffix_cuts(sample), literal_budget)


def encode_hybrid(
    sample: Sample,
    k: int,
    cuts: SplitAssignment,
    literal_budget: int = DEFAULT_LITERAL_BUDGET,
) -> CnfInstance:
    """Split-word encoding: prefix machinery feeds suffix machinery per word."""
    _check_budget(
        estimate_size(ModelKind.HYBRID, sample, k, cuts).total_literals(), literal_budget
    )
    inst, finals, trans = _base_instance(sample, k)
    marked = [(word, bits) for word, bits in _marks(sample) if word]
    heads = [(w[: cuts[w]], bits) for w, bits in marked]
    tails = [(w[cuts[w] :], bits) for w, bits in marked]
    linked = {w[cut:] for w, cut in cuts.items() if 0 < cut < len(w)}
    prefix_reach = _emit_prefix_chain(inst, heads, trans, k)
    suffix_rows = _emit_suffix_chain(inst, tails, linked, trans, k)

    states = range(k)

    def emit_word(word: Word, positive: bool) -> None:
        cut = cuts[word]
        head, tail = word[:cut], word[cut:]
        if not head or not tail:  # cut 0 or |word|: the pure suffix or prefix form
            reach = prefix_reach[word] if head else suffix_rows[word][0]
            _emit_verdict(inst, reach, finals, positive)
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
            total += paths * (m + 1) * 2 + paths
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
    lam = int(() in sample.positives) + int(() in sample.negatives)

    variables = {"final": k, "transition": n * k * k}
    clauses: dict[str, tuple[int, int]] = {}
    if lam:
        clauses["empty_word_unit"] = (lam, 1)

    if kind == ModelKind.DIRECT:
        pos, neg = len(sample.positives), len(sample.negatives)
        wplus = max((len(w) for w in sample.positives), default=0)
        wminus = max((len(w) for w in sample.negatives), default=0)
        paths_plus = k**wplus
        variables["direct_path_aux"] = pos * paths_plus
        clauses["direct_bin"] = (pos * (wplus + 1) * paths_plus, 2)
        clauses["direct_choice"] = (pos, paths_plus)
        clauses["direct_reject"] = (neg * k**wminus, wminus + 1)
        return SizeEstimate(variables, clauses)

    # pm and sm are the hybrid with every word cut at its end or at its start.
    if kind == ModelKind.PREFIX:
        cuts = all_prefix_cuts(sample)
    elif kind == ModelKind.SUFFIX:
        cuts = all_suffix_cuts(sample)
    elif kind != ModelKind.HYBRID:
        raise ValueError(f"unknown model kind {kind!r}")
    elif cuts is None:
        raise ValueError("the hybrid estimate requires a split assignment")
    prefix_parts, suffix_parts = split_sets(sample, cuts)
    # a word cut inside is linked; every other non-empty word gets a verdict
    linked_pos = linked_neg = 0
    for word, cut in cuts.items():
        if 0 < cut < len(word):
            linked_pos += word in sample.positives
            linked_neg += word in sample.negatives
    accepted = len(sample.positives) - (() in sample.positives) - linked_pos
    rejected = len(sample.negatives) - (() in sample.negatives) - linked_neg
    long_prefixes = _long_closure_count(prefixes(prefix_parts))
    long_suffixes = _long_closure_count(suffixes(suffix_parts))
    variables.update(
        accept_aux=accepted * k,
        prefix_path=long_prefixes * k,
        prefix_rec_aux=long_prefixes * k * k,
        suffix_path=long_suffixes * k * k,
        suffix_rec_aux=long_suffixes * k**3,
        link_aux=linked_pos * k * k,
    )
    clauses.update(
        accept_bin=(2 * k * accepted, 2),
        accept_choice=(accepted, k),
        reject_bin=(k * rejected, 2),
        prefix_rec_bin_prev=(long_prefixes * k * k, 2),
        prefix_rec_bin_trans=(long_prefixes * k * k, 2),
        prefix_rec_ternary=(long_prefixes * k * k, 3),
        prefix_rec_choice=(long_prefixes * k, k + 1),
        prefix_rec_bin_out=(long_prefixes * k * k, 2),
        suffix_rec_bin_tail=(long_suffixes * k**3, 2),
        suffix_rec_bin_trans=(long_suffixes * k**3, 2),
        suffix_rec_ternary=(long_suffixes * k**3, 3),
        suffix_rec_choice=(long_suffixes * k * k, k + 1),
        suffix_rec_bin_out=(long_suffixes * k**3, 2),
        link_bin=(3 * k * k * linked_pos, 2),
        link_choice=(linked_pos, k * k),
        link_reject_ternary=(k * k * linked_neg, 3),
    )
    return SizeEstimate(
        {family: bound for family, bound in variables.items() if bound},
        {family: bound for family, bound in clauses.items() if bound[0]},
    )
