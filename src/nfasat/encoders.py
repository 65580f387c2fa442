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

Every clause except the empty-word units goes through one helper, ``_define``:
each output is the OR of AND terms, with one anonymous auxiliary variable
per term (Tseitin style).  It emits only the halves the sample uses
(Plaisted & Greenbaum, J. Symb. Comp. 1986).  A word that is accepted needs
"reach => some path" of its reach variables, a word that is rejected needs
"some path => reach".  So each closure word carries polarity bits: a
positive sample word marks its closure word positive and a negative one
marks it negative; a prefix (suffix) takes the union of the marks of the
words one letter longer on the right (left); a word's prefix part and
suffix part both take the word's mark.  Per definition:

* positive use only: per term one [-x, lit] per conjunct; then one choice
  clause per output ([-y, aux...], or a single [aux...] when the OR is
  asserted outright, as accepting a word, a hybrid positive link and a
  direct positive word are);
* negative use only: no auxiliary variables, one [y, -lits...] per term,
  or [-lits...] when the OR is asserted false, as rejecting a word, a
  hybrid negative link and a direct negative word are;
* both: per term one [-x, lit] per conjunct and [x, -lits...]; then the
  choice clauses; then [y, -x] per term.

The size bounds count these clauses from the same family tables
(``_add_definitions``).  Each chain, and each pass of verdicts and links, is
one checked batch of flat literals (``CnfInstance.add_flat``).

Templates serve all four models.  Definitions come in few shapes, so one
encode call runs ``_define``, a pure function of slot numbers, once per
shape: slots 1..N stand for a definition's outputs and the rows and tables
it reads, and its aux variables take the slots after.  ``_emit``, the one
way a definition reaches a batch, fills them with a definition's own
variables by one getter over [0, *vars, *negated vars reversed], where slot
-s picks the negation of slot s.  A hybrid shape is its form (prefix or
suffix chain, verdict, link), its polarity bits, for a suffix whether it
keeps every start row, and aliasing: in a two-letter word aa, the prefix
chain's parent row, the suffix chain's rest table and, cut at 1, the link's
head row are the step's own transitions, so two conjuncts of a term name
one variable, which ``_negated`` names once; without the alias in the key,
their DIMACS would repeat it.  A dm shape is the word's letters numbered by
first use (aba: (0, 1, 0)) and its bits, over the tables of its distinct
letters, then the finals: two conjuncts share a slot exactly when they
share a variable, so the merge stays.

Sound and complete: only final and transition
variables are decoded, the surviving clauses still force every accepted
word to have an accepting run and every rejected word to have none, and any
NFA consistent with the sample extends to a model by setting each reach and
auxiliary variable to its true value.  Instance sizes stay polynomial in
the closure sizes for all but the direct encoding.

The finals and transitions are the instance's fixed layout, variables
1..m (``cnf``); every encoder records m as the instance's
``decision_block``.  The encoders index them through the tables
``_base_instance`` reads from the layout, and keep the reach variables of
each closure word in a table keyed by its id in ``Sample.index``.

Why m decides the instance.  Take a point where unit propagation is at a
fixpoint without conflict and every final and transition variable is set;
read the automaton off them.  Then:

* a positive-use reach variable that is not false has a real run.  A
  one-letter word's variable is a transition, so it is true and the run is
  that transition.  A longer word's choice clause [-y, aux...] would make y
  false if every aux were false, so some aux x is not false; its [-x, lit]
  binaries would make x false if a conjunct were false, so every conjunct
  is not false: the transition is true and, by induction on the length,
  the shorter reach variable has a real run that the transition extends;
* a negative-use reach variable that has a real run is true.  The run
  splits into a shorter real run (whose variable is negative-use too, as
  marks pass down the chain, so true by induction, or a true transition)
  and a true transition; the term's reverse clause, [y, -lits...] or
  [x, -lits...] with [y, -x], then forces y true.

So every accepted word has an accepting run: its asserted OR (the accept
clause, a hybrid positive link, a direct positive word) keeps some aux not
false, whose binaries keep every conjunct not false: real runs into a final
state.  Every rejected word has none: a run to a final state would make its
reject or link-reject clause (over true reach variables and a true final),
or its direct blocking clause, all false, which is a conflict.  The empty
word's units name only finals.  The automaton is therefore consistent with
the sample, and by completeness the instance is satisfiable; the solver can
stop there (``cdcl``'s stop rule).

The decision block also vouches that states 2..k are interchangeable;
``solver.lex_leader`` breaks that symmetry and argues why m still decides.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, neg
from typing import Callable, Sequence

from .cnf import CnfInstance, final_var, trans_var
from .sample import (
    Sample,
    SplitAssignment,
    Word,
    all_prefix_cuts,
    all_suffix_cuts,
    check_state_count,
    validate_cuts,
)

DEFAULT_LITERAL_BUDGET = 50_000_000


class ModelKind(str, Enum):
    DIRECT = "dm"
    PREFIX = "pm"
    SUFFIX = "sm"
    HYBRID = "hm"


class BudgetExceededError(RuntimeError):
    """Instance too large for the configured literal budget."""


# ---------------------------------------------------------------------------
# Shared pieces.
# ---------------------------------------------------------------------------


Batch = tuple[list[int], list[int], list[str]]  # flat literals, the arity and the family of each clause


def _base_instance(sample: Sample, k: int) -> tuple[CnfInstance, list[int], list[list[int]]]:
    """Finals, transitions, and the empty-word unit clauses.

    Returns the instance, the final variable per state (finals[i - 1]) and
    the transition variables per symbol, flat (trans[a][(i - 1) * k + j - 1]).
    """
    inst = CnfInstance(k, sample.alphabet_size)
    inst.sample = sample
    states = range(1, k + 1)
    finals = [inst.lookup(final_var(i)) for i in states]
    trans = [
        [inst.lookup(trans_var(a, i, j)) for i in states for j in states]
        for a in range(sample.alphabet_size)
    ]
    units = [(finals[0],)] * (() in sample.positives) + [(-finals[0],)] * (() in sample.negatives)
    inst.add_clauses(units, repeat("empty_word_unit"))
    return inst, finals, trans


# Polarity bits: how the sample uses a closure word's reach variables.
_POSITIVE, _NEGATIVE = 1, 2
_BOTH = _POSITIVE | _NEGATIVE

# Per definition: aux family, (binary family per conjunct), reverse, choice, output.
# An asserted OR has no output family; its reverse family asserts it false.
Families = tuple[str, tuple[str, ...], str, str, str | None]
Terms = list[tuple[int | None, Sequence[int]]]  # per term: its output's index (None: asserted), its conjuncts
_PREFIX_FAMILIES = ("prefix_rec_aux", ("prefix_rec_bin_prev", "prefix_rec_bin_trans"),
                    "prefix_rec_ternary", "prefix_rec_choice", "prefix_rec_bin_out")
_SUFFIX_FAMILIES = ("suffix_rec_aux", ("suffix_rec_bin_tail", "suffix_rec_bin_trans"),
                    "suffix_rec_ternary", "suffix_rec_choice", "suffix_rec_bin_out")
_LINK_FAMILIES = ("link_aux", ("link_bin",) * 3, "link_reject_ternary", "link_choice", None)
_ACCEPT_FAMILIES = ("accept_aux", ("accept_bin",) * 2, "reject_bin", "accept_choice", None)


def _direct_families(length: int) -> Families:
    """dm's table for a word of the given length: a path's transitions and final."""
    bins = ("direct_bin",) * (length + 1)
    return ("direct_path_aux", bins, "direct_reject", "direct_choice", None)


def _define(
    slot_count: int, outputs: list[int] | None, terms: Terms, families: Families, uses: int
) -> tuple[list[int], list[int], list[str], int]:
    """Define each output as the OR of its AND terms, in the module docstring's order.

    Returns the flat literals, the arity and family of each clause, and the
    aux variable count; the aux variables are slot_count + 1 onwards.  A term
    is (output index, conjunct literals), all with as many conjuncts.
    families: aux family, one binary family per conjunct, then the reverse,
    choice and output families; uses: the outputs' polarity bits.  With
    outputs None the OR itself is asserted, true for a positive use (one
    choice clause over the aux variables) and false for a negative one (one
    [-lits...] reverse clause per term).  A conjunct named twice in a term
    (an aliased shape) is named once in its reverse clause.
    """
    _, bin_families, reverse_family, choice_family, out_family = families
    aux = range(slot_count + 1, slot_count + 1 + len(terms) * (uses != _NEGATIVE))
    if uses == _NEGATIVE:
        if outputs is None:
            clauses = [_negated(conjuncts) for _, conjuncts in terms]
        else:
            clauses = [(outputs[out], *_negated(conjuncts)) for out, conjuncts in terms]
        clause_families = [reverse_family] * len(terms)
    else:
        both = uses == _BOTH
        clauses = []
        for x, (_, conjuncts) in zip(aux, terms):
            clauses += zip(repeat(-x), conjuncts)
            if both:
                clauses.append((x, *_negated(conjuncts)))
        per_term = [*bin_families, reverse_family] if both else [*bin_families]
        clause_families = per_term * len(terms)
        if outputs is None:
            clauses.append(tuple(aux))
            clause_families.append(choice_family)
        else:
            choices = [[-y] for y in outputs]
            for x, (out, _) in zip(aux, terms):
                choices[out].append(x)
            clauses += map(tuple, choices)
            clause_families += [choice_family] * len(outputs)
            if both:
                clauses += [(outputs[out], -x) for x, (out, _) in zip(aux, terms)]
                clause_families += [out_family] * len(terms)
    return list(chain.from_iterable(clauses)), list(map(len, clauses)), clause_families, len(aux)


def _negated(lits: Sequence[int]) -> tuple[int, ...]:
    """The negated literals of a conjunction, each once, so the DIMACS repeats none."""
    return tuple(map(neg, dict.fromkeys(lits)))


# A definition shape's clauses over slot numbers: a getter of the flat
# literals from [0, *vars, *negated vars reversed], the arities and families
# of its clauses, its aux family and its aux variable count.
Template = tuple[Callable[[list[int]], tuple[int, ...]], list[int], list[str], str, int]


def _slots(*sizes: int) -> list[list[int]]:
    """Consecutive runs of slot numbers from 1, one of each size."""
    ends = list(accumulate(sizes, initial=1))
    return [list(range(start, end)) for start, end in zip(ends, ends[1:])]


def _template(
    slot_count: int, outputs: list[int] | None, terms: Terms, families: Families, uses: int
) -> Template:
    """``_define`` on slots 1..slot_count, its literals read by one getter."""
    literals, arities, clause_families, aux = _define(slot_count, outputs, terms, families, uses)
    return itemgetter(*literals), arities, clause_families, families[0], aux


def _emit(inst: CnfInstance, batch: Batch, template: Template, slots: list[int]) -> None:
    """One definition of a template's shape over its variables in slot order, then its new aux variables."""
    pick, arities, families, aux_family, aux = template
    if aux:
        first = inst.fresh_aux(aux_family, aux)
        slots += range(first, first + aux)
    literals, clause_arities, clause_families = batch
    literals += pick([0, *slots, *map(neg, reversed(slots))])
    clause_arities += arities
    clause_families += families


def _prefix_template(k: int, uses: int, alias: bool) -> Template:
    """A prefix from its parent's reach row and its last letter's transitions."""
    outputs, parent, step = _slots(k, k, k * k)
    if alias:  # aa: the parent's row is the step's row of state 1
        parent = step[:k]
    terms = [(i, (parent[j], step[j * k + i])) for j in range(k) for i in range(k)]
    return _template(2 * k + k * k, outputs, terms, _PREFIX_FAMILIES, uses)


def _suffix_template(k: int, uses: int, all_starts: bool, alias: bool) -> Template:
    """A suffix from its first letter's transitions and its rest's table."""
    starts = k if all_starts else 1
    outputs, rests, steps = _slots(starts * k, k * k, k * k)
    if alias:  # aa: the rest's table is the step's own
        rests = steps
    states = range(k)
    terms = [
        (i * k + j, (rests[mid * k + j], steps[i * k + mid]))
        for i in range(starts)
        for mid in states
        for j in states
    ]
    return _template(starts * k + 2 * k * k, outputs, terms, _SUFFIX_FAMILIES, uses)


def _verdict_template(k: int, bits: int) -> Template:
    """A word's one part: a run from state 1 into a final state."""
    reach, finals = _slots(k, k)
    return _template(2 * k, None, [(None, lits) for lits in zip(reach, finals)], _ACCEPT_FAMILIES, bits)


def _link_template(k: int, bits: int, alias: bool) -> Template:
    """A word cut inside: its head's reach row linked to its tail's table at the cut state."""
    heads, rows, finals = _slots(k, k * k, k)
    if alias:  # aa cut at 1: the head's row is the tail's row of state 1
        heads = rows[:k]
    states = range(k)
    terms = [(None, (heads[mid], rows[mid * k + end], finals[end])) for mid in states for end in states]
    return _template(2 * k + k * k, None, terms, _LINK_FAMILIES, bits)


def _direct_template(k: int, pattern: tuple[int, ...], bits: int) -> Template:
    """A word's state paths from state 1 into a final state, over the tables of
    its distinct letters (pattern: its letters numbered by first use), then the finals."""
    *tables, finals = _slots(*[k * k] * (max(pattern) + 1), k)
    runs = [((), 0)]  # per state path so far, in lexicographic order: its transitions, its end state
    for a in pattern:
        runs = [(steps + (tables[a][i * k + j],), j) for steps, i in runs for j in range(k)]
    terms = [(None, (*steps, finals[i])) for steps, i in runs]
    return _template(finals[-1], None, terms, _direct_families(len(pattern)), bits)


def _marks(sample: Sample) -> list[tuple[Word, int]]:
    """Each non-empty sample word with the polarity bit of its label: the
    positives, then the negatives, each in ``word_key`` order."""
    positives = [(w, _POSITIVE) for w in sample.sorted_positives() if w]
    return positives + [(w, _NEGATIVE) for w in sample.sorted_negatives() if w]


def _part_uses(
    sample: Sample, cuts: SplitAssignment
) -> tuple[list[tuple[Word, int]], list[int], list[int]]:
    """The sample's marks, then the polarity bits per prefix id of the words'
    heads and per suffix id of their tails, after checking the cuts; an id
    with no bits is not in the closure."""
    validate_cuts(sample, cuts)
    index = sample.index
    marks = _marks(sample)
    prefix_uses = [0] * len(index.prefixes)
    suffix_uses = [0] * len(index.suffixes)
    for word, bits in marks:
        cut = cuts[word]
        for p in index.heads[word][:cut]:
            prefix_uses[p] |= bits
        for s in index.tails[word][cut:]:
            suffix_uses[s] |= bits
    return marks, prefix_uses, suffix_uses


def _doubled(word: Word) -> bool:
    """A two-letter word aa: its definitions alias (module docstring)."""
    return len(word) == 2 and word[0] == word[1]


def _emit_prefix_chain(
    inst: CnfInstance, sample: Sample, uses: list[int], trans: list[list[int]], k: int
) -> dict[int, list[int]]:
    """Define reach-from-start variables for every prefix of the closure, in id order.

    uses: the polarity bits per prefix id, 0 off the closure.  Returns per
    prefix id the variables "a run for it reaches state i from state 1", at
    index i - 1.
    """
    index = sample.index
    templates = cache(partial(_prefix_template, k))
    reach: dict[int, list[int]] = {}
    batch: Batch = ([], [], [])
    for p in compress(range(len(uses)), uses):
        word = index.prefixes[p]
        if len(word) == 1:
            reach[p] = trans[word[0]][:k]
            continue
        first = inst.fresh_aux("prefix_path", k)
        outputs = reach[p] = list(range(first, first + k))
        template = templates(uses[p], _doubled(word))
        _emit(inst, batch, template, [*outputs, *reach[index.parent[p]], *trans[word[-1]]])
    inst.add_flat(*batch)
    return reach


def _emit_suffix_chain(
    inst: CnfInstance,
    sample: Sample,
    uses: list[int],
    linked: set[int],
    trans: list[list[int]],
    k: int,
) -> dict[int, list[int]]:
    """Define segment-run variables for every suffix of the closure, in id order.

    uses: the polarity bits per suffix id, 0 off the closure.  linked: the
    ids of the suffix parts that follow a non-empty prefix part.  Returns
    per suffix id the variables "a run for it leads from state i to state
    j", at (i - 1) * k + j - 1.  A suffix linked behind a prefix part, or
    the rest of a longer one, can begin anywhere; any other only ever runs
    from state 1 and keeps that row only.
    """
    index = sample.index
    used = list(compress(range(len(uses)), uses))
    # the closure is suffix-closed, so each rest covers every deeper tail
    all_starts = linked | {index.rest[s] for s in used}
    templates = cache(partial(_suffix_template, k))
    reach: dict[int, list[int]] = {}
    batch: Batch = ([], [], [])
    for s in used:
        word = index.suffixes[s]
        if len(word) == 1:
            reach[s] = trans[word[0]]
            continue
        full = s in all_starts
        count = k * k if full else k
        first = inst.fresh_aux("suffix_path", count)
        outputs = reach[s] = list(range(first, first + count))
        template = templates(uses[s], full, _doubled(word))
        _emit(inst, batch, template, [*outputs, *reach[index.rest[s]], *trans[word[0]]])
    inst.add_flat(*batch)
    return reach


# ---------------------------------------------------------------------------
# The encoders: dm, and the hybrid that pm, sm and hm share (``encode``).
# ---------------------------------------------------------------------------


def _encode_direct(
    sample: Sample, k: int, literal_budget: int = DEFAULT_LITERAL_BUDGET
) -> CnfInstance:
    """Explicit state-path encoding; blows up as k^|word|.  Each word's paths
    into a final state are one asserted OR, so the budget sums them per word."""
    marks = _marks(sample)
    sizes = [
        _add_definitions(SizeEstimate({}, {}), _direct_families(len(w)), {bits: 1}, k ** len(w))
        for w, bits in marks
    ]
    _check_budget(sum(size.total_literals() for size in sizes), literal_budget)
    inst, finals, trans = _base_instance(sample, k)
    templates = cache(partial(_direct_template, k))
    batch: Batch = ([], [], [])
    for word, bits in marks:
        letters = list(dict.fromkeys(word))
        tables = chain.from_iterable(trans[a] for a in letters)
        _emit(inst, batch, templates(tuple(map(letters.index, word)), bits), [*tables, *finals])
    inst.add_flat(*batch)
    inst.decision_block = inst.layout_size
    return inst


def _encode_hybrid(
    sample: Sample,
    k: int,
    cuts: SplitAssignment,
    literal_budget: int = DEFAULT_LITERAL_BUDGET,
) -> CnfInstance:
    """Split-word encoding: prefix machinery feeds suffix machinery per word."""
    marks, prefix_uses, suffix_uses = _part_uses(sample, cuts)
    literals = _hybrid_estimate(sample, k, cuts, marks, prefix_uses, suffix_uses).total_literals()
    _check_budget(literals, literal_budget)
    inst, finals, trans = _base_instance(sample, k)
    heads, tails = sample.index.heads, sample.index.tails
    linked = {tails[w][cut] for w, cut in cuts.items() if 0 < cut < len(w)}
    prefix_reach = _emit_prefix_chain(inst, sample, prefix_uses, trans, k)
    suffix_reach = _emit_suffix_chain(inst, sample, suffix_uses, linked, trans, k)

    verdicts, links = cache(partial(_verdict_template, k)), cache(partial(_link_template, k))
    batch: Batch = ([], [], [])
    for word, bits in marks:  # the OR of runs into a final state, asserted by the label
        cut = cuts[word]
        if cut in (0, len(word)):  # the pure suffix or prefix form
            reach = prefix_reach[heads[word][-1]] if cut else suffix_reach[tails[word][0]][:k]
            _emit(inst, batch, verdicts(bits), [*reach, *finals])
        else:  # linked at the cut state; a row per cut state
            head, tail = prefix_reach[heads[word][cut - 1]], suffix_reach[tails[word][cut]]
            _emit(inst, batch, links(bits, _doubled(word)), [*head, *tail, *finals])
    inst.add_flat(*batch)
    inst.decision_block = inst.layout_size
    return inst


def encode(
    kind: ModelKind,
    sample: Sample,
    k: int,
    cuts: SplitAssignment | None = None,
    literal_budget: int = DEFAULT_LITERAL_BUDGET,
) -> CnfInstance:
    """The sample's instance at k states under kind; hm encodes the given cuts."""
    _check_request(kind, k, cuts)
    # unused symbols' transitions have no clauses, so the literal count misses a huge layout
    _check_budget(k + sample.alphabet_size * k * k, literal_budget, "layout variables")
    if kind == ModelKind.DIRECT:
        return _encode_direct(sample, k, literal_budget)
    return _encode_hybrid(sample, k, _hybrid_cuts(kind, sample, cuts), literal_budget)


def _check_request(kind: ModelKind, k: int, cuts: SplitAssignment | None) -> None:
    """At least one state, and a split assignment only with the hybrid model."""
    check_state_count(k)
    if cuts is not None and kind != ModelKind.HYBRID:
        raise ValueError(f"only the hybrid model takes a split assignment, not {ModelKind(kind).value}")


def _hybrid_cuts(
    kind: ModelKind, sample: Sample, cuts: SplitAssignment | None
) -> SplitAssignment:
    """The cuts pm, sm or hm encodes as the hybrid: every word cut at its end,
    at its start, or as the caller's split assignment says."""
    if kind == ModelKind.PREFIX:
        return all_prefix_cuts(sample)
    if kind == ModelKind.SUFFIX:
        return all_suffix_cuts(sample)
    if kind != ModelKind.HYBRID:
        raise ValueError(f"unknown model kind {kind!r}")
    if cuts is None:
        raise ValueError("the hybrid model requires a split assignment")
    return cuts


def _check_budget(projected: int, literal_budget: int, what: str = "literals") -> None:
    if projected > literal_budget:
        raise BudgetExceededError(
            f"instance too large: about {projected} {what} exceeds the budget of {literal_budget}"
        )


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

    def total_literals(self) -> int:
        return sum(count * arity for count, arity in self.clause_bounds.values())


def estimate_size(
    kind: ModelKind, sample: Sample, k: int, cuts: SplitAssignment | None = None
) -> SizeEstimate:
    _check_request(kind, k, cuts)
    if kind == ModelKind.DIRECT:  # every word of a polarity as long as its longest
        estimate = _base_estimate(sample, k)
        for words, bits in ((sample.positives, _POSITIVE), (sample.negatives, _NEGATIVE)):
            longest = max(map(len, words), default=0)
            _add_definitions(estimate, _direct_families(longest), {bits: len(words)}, k**longest)
        return estimate
    cuts = _hybrid_cuts(kind, sample, cuts)
    return _hybrid_estimate(sample, k, cuts, *_part_uses(sample, cuts))


def _base_estimate(sample: Sample, k: int) -> SizeEstimate:
    """Finals, transitions and the empty-word units."""
    lam = int(() in sample.positives) + int(() in sample.negatives)
    clauses = {"empty_word_unit": (lam, 1)} if lam else {}
    return SizeEstimate(dict(CnfInstance(k, sample.alphabet_size).var_family_counts), clauses)


def _add_definitions(
    estimate: SizeEstimate, families: Families, counts: dict[int, int], terms: int,
    outputs: int | None = None,
) -> SizeEstimate:
    """Add what ``_define`` emits for counts[uses] definitions per polarity
    class, each of terms terms over outputs outputs (None: an asserted OR),
    and return the estimate.  A positive use has aux variables, binaries and
    choice clauses, a negative use only reverse clauses, a shared one all of
    these and output binaries; a class in counts adds its families at 0 too.
    """
    aux_family, bin_families, reverse_family, choice_family, out_family = families
    forward = counts.get(_POSITIVE, 0) + counts.get(_BOTH, 0)
    clauses = estimate.clause_bounds
    if _POSITIVE in counts or _BOTH in counts:
        estimate.variable_bounds[aux_family] = forward * terms
        for family in bin_families:  # the conjuncts may share a family
            clauses[family] = (clauses.get(family, (0,))[0] + forward * terms, 2)
        if outputs is None:  # one clause over all the aux variables
            clauses[choice_family] = (forward, terms)
        else:
            clauses[choice_family] = (forward * outputs, terms // outputs + 1)
    if _NEGATIVE in counts or _BOTH in counts:
        reverse = counts.get(_NEGATIVE, 0) + counts.get(_BOTH, 0)
        clauses[reverse_family] = (reverse * terms, len(bin_families) + (outputs is not None))
    if _BOTH in counts:
        clauses[out_family] = (counts[_BOTH] * terms, 2)
    return estimate


def _hybrid_estimate(
    sample: Sample, k: int, cuts: SplitAssignment, marks: list[tuple[Word, int]],
    prefix_uses: list[int], suffix_uses: list[int],
) -> SizeEstimate:
    """Bounds for validated cuts: each verdict, link and chain definition by
    its polarity class.  One-letter words are transitions, and every suffix
    counts all k start states."""
    linked = Counter(bits for word, bits in marks if 0 < cuts[word] < len(word))
    verdicts = Counter(bits for _, bits in marks) - linked
    index = sample.index  # a part of length >= 2 has a parent or rest id
    pre = Counter(bits for bits, parent in zip(prefix_uses, index.parent) if bits and parent >= 0)
    suf = Counter(bits for bits, rest in zip(suffix_uses, index.rest) if bits and rest >= 0)
    estimate = _base_estimate(sample, k)
    estimate.variable_bounds.update(prefix_path=pre.total() * k, suffix_path=suf.total() * k * k)
    _add_definitions(estimate, _ACCEPT_FAMILIES, verdicts, k)
    _add_definitions(estimate, _PREFIX_FAMILIES, pre, k * k, k)
    _add_definitions(estimate, _SUFFIX_FAMILIES, suf, k**3, k * k)
    _add_definitions(estimate, _LINK_FAMILIES, linked, k * k)
    return SizeEstimate(
        {family: bound for family, bound in estimate.variable_bounds.items() if bound},
        {family: bound for family, bound in estimate.clause_bounds.items() if bound[0]},
    )
