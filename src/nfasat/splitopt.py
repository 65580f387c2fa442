"""Split-point optimization for the hybrid encoding.

A split assignment is scored by the number of distinct non-empty prefixes of
the prefix parts plus k times the number of distinct non-empty suffixes of
the suffix parts, the paper's proxy (suffix machinery costs k times more
variables).  It ignores polarity, linking and start-state pruning, so it
does not track the instance size (ROADMAP item 2).

Two seeded optimizers search the cut space (one cut in 0..|w| per word):
an iterated local search that re-cuts one roulette-picked word per step to
its best position, and a steady-state GA: per-word uniform crossover by
random bytes, and uniform re-draw mutation of genes found by geometric gaps.

The ILS starts from the best of its seeded random cuts, the all-prefix cuts
and the all-suffix cuts, so it never ends worse than either corner: from a
random start alone it often ends above them (README, ROADMAP item 2).

Both score through the sample's index (``Sample.index``): the ids of each
word's prefixes by length and of its suffixes by start.  The ILS and
``fitness`` count, per id, how many words contribute it (``_SplitScore``).
The GA turns each word's ids into one cumulative int bitmask per cut, prefix
bits below suffix bits, so a score is one OR per word and two popcounts.
Bits are given out in first use along the words, not by id: a word's longest
parts have high ids, so masks by id would OR at full width from the start.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import accumulate
from operator import getitem, or_
from typing import IO, Callable, Iterable, Iterator

from .sample import (
    Sample,
    SampleError,
    SplitAssignment,
    Word,
    all_prefix_cuts,
    all_suffix_cuts,
    check_state_count,
    validate_cuts,
)


def _check_types(params: IlsParams | GaParams) -> None:
    """Each field must have its default's type; an int is also a valid float."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, bool) or not isinstance(value, (int, type(f.default))):
            raise ValueError(f"{f.name} must be of type {type(f.default).__name__}, got {value!r}")


@dataclass
class IlsParams:
    max_iter: int = 10_000
    max_iter_without_improv: int = 100
    rng_seed: int = 0

    def validate(self) -> None:
        _check_types(self)
        if self.max_iter < 1 or self.max_iter_without_improv < 1:
            raise ValueError("ILS iteration limits must be positive")


@dataclass
class GaParams:
    population_size: int = 100
    max_gen: int = 3_000
    max_gen_without_improv: int = 100
    p_mut: float = 0.05
    p_parents: float = 0.03
    rng_seed: int = 0

    def validate(self) -> None:
        _check_types(self)
        if self.population_size < 2:
            raise ValueError("population size must be at least 2")
        if self.max_gen < 1 or self.max_gen_without_improv < 1:
            raise ValueError("GA generation limits must be positive")
        if not 0 < self.p_mut < 1:
            raise ValueError("p_mut must be in (0, 1)")
        if not 0 < self.p_parents < 1:
            raise ValueError("p_parents must be in (0, 1)")


@dataclass
class TracePoint:
    step: int
    best_fitness: int
    elapsed_seconds: float


@dataclass
class OptResult:
    cuts: SplitAssignment
    best_fitness: int
    initial_fitness: int
    trace: list[TracePoint] = field(default_factory=list)
    seed: int = 0


def fitness(sample: Sample, k: int, cuts: SplitAssignment) -> int:
    """Distinct prefixes of the prefix parts plus k times distinct suffixes."""
    check_state_count(k)
    validate_cuts(sample, cuts)
    return _SplitScore(sample, cuts, k).fitness()


def word_weights(sample: Sample) -> dict[Word, float]:
    """Roulette weights: 75% spread evenly, 25% proportional to word length.

    Only non-empty words are weighted; the empty word has no cut to move.
    """
    words = sample.sorted_nonempty_words()
    if not words:
        raise ValueError("sample has no non-empty words")
    total_len = sum(len(w) for w in words)
    even_share = 0.75 / len(words)
    return {w: even_share + 0.25 * len(w) / total_len for w in words}


def _add_counts(counts: list[int], ids: list[int], step: int) -> int:
    """Add step (1 or -1) to counts[i] per id; return the change in ids present."""
    edge = 1 if step < 0 else 0  # an id appears or vanishes when its count was this
    crossed = 0
    for i in ids:
        c = counts[i]
        counts[i] = c + step
        crossed += c == edge
    return step * crossed


class _SplitScore:
    """Incremental fitness bookkeeping over per-word cut moves.

    Keeps, per prefix and suffix id, how many words contribute it, so that
    removing one word's contribution and scanning all its candidate cuts
    costs O(|w|).
    """

    def __init__(self, sample: Sample, cuts: SplitAssignment, k: int) -> None:
        index = sample.index
        self.k = k
        self.cuts = dict(cuts)
        self.head_runs, self.tail_runs = index.heads, index.tails
        self._pref_count = [0] * len(index.prefixes)
        self._suf_count = [0] * len(index.suffixes)
        self.distinct_pref = self.distinct_suf = 0
        for w in index.words:
            self._shift(w, self.cuts[w], 1)

    def _shift(self, word: Word, cut: int, step: int) -> None:
        """Add (step 1) or take back (step -1) one word's parts at a cut."""
        self.distinct_pref += _add_counts(self._pref_count, self.head_runs[word][:cut], step)
        self.distinct_suf += _add_counts(self._suf_count, self.tail_runs[word][cut:], step)

    def fitness(self) -> int:
        return self.distinct_pref + self.k * self.distinct_suf

    def rescore_word(self, word: Word) -> tuple[int, int]:
        """Move word to its best cut (smallest index on ties).

        Returns (cut, resulting fitness).  Never worse than the current cut,
        which is among the candidates.
        """
        self._shift(word, self.cuts[word], -1)
        pref_count, suf_count, k = self._pref_count, self._suf_count, self.k
        tails = self.tail_runs[word]
        # cost of cut c: the parts it adds that no other word has, suffixes times k
        cost = k * [suf_count[s] for s in tails].count(0)
        best_cut, best_cost = 0, cost
        for cut, (p, s) in enumerate(zip(self.head_runs[word], tails), 1):
            cost += (pref_count[p] == 0) - k * (suf_count[s] == 0)
            if cost < best_cost:
                best_cut, best_cost = cut, cost
        self._shift(word, best_cut, 1)
        self.cuts[word] = best_cut
        return best_cut, self.fitness()


def ils_optimize(sample: Sample, k: int, params: IlsParams) -> OptResult:
    """Iterated local search: repeatedly re-cut one roulette-picked word.

    The search starts from the best of the seeded random cuts, the all-prefix
    cuts and the all-suffix cuts, the first of them on a tie.
    """
    check_state_count(k)
    params.validate()
    words = sample.sorted_nonempty_words()
    if not words:
        raise SampleError("sample has no non-empty words to split")
    rng = random.Random(params.rng_seed)
    start = time.perf_counter()

    drawn = {w: rng.randint(0, len(w)) for w in words}
    score = _SplitScore(sample, drawn, k)
    # all-prefix cuts make every prefix a prefix part, all-suffix cuts every suffix a suffix part
    best_fit, best_cuts = min(
        (score.fitness(), drawn),
        (len(sample.index.prefixes), all_prefix_cuts(sample)),
        (k * len(sample.index.suffixes), all_suffix_cuts(sample)),
        key=lambda candidate: candidate[0],
    )
    if best_cuts is not drawn:
        score = _SplitScore(sample, best_cuts, k)
    initial_fit = best_fit
    trace = [TracePoint(0, best_fit, 0.0)]

    weights = word_weights(sample)
    cumulative = list(accumulate(weights[w] for w in words))
    acc = cumulative[-1]

    iteration = 0
    stagnant = 0
    while iteration < params.max_iter and stagnant < params.max_iter_without_improv:
        iteration += 1
        word = words[min(bisect_right(cumulative, rng.random() * acc), len(words) - 1)]
        _, fit = score.rescore_word(word)
        if fit < best_fit:
            best_fit = fit
            best_cuts = dict(score.cuts)
            stagnant = 0
        else:
            stagnant += 1
        trace.append(TracePoint(iteration, best_fit, time.perf_counter() - start))
    return OptResult(best_cuts, best_fit, initial_fit, trace, params.rng_seed)


def _uniform_crossover(rng: random.Random, first: list[int], second: list[int]) -> list[int]:
    """Per-word fair coin between the parents' cuts, as before: the low bit of one ``randbytes`` byte each."""
    return list(map(getitem, zip(second, first), rng.randbytes(len(first)).translate(bytes(range(2)) * 128)))


def _first_use_masks(runs: Iterable[list[int]]) -> Iterator[list[int]]:
    """Cumulative bitmasks along each run of ids; an id's bit is its rank in first use."""
    bit: dict[int, int] = {}
    return (list(accumulate((1 << bit.setdefault(i, len(bit)) for i in ids), or_, initial=0)) for ids in runs)


def _ga_scorer(sample: Sample, words: list[Word], k: int) -> Callable[[list[int]], int]:
    """``fitness`` of an individual (a cut per word) by one OR of per-cut masks per word."""
    width = len(sample.index.prefixes)  # every prefix is some word's, so its bit lies below width
    heads = _first_use_masks(sample.index.heads[w] for w in words)
    tails = _first_use_masks(sample.index.tails[w][::-1] for w in words)
    masks = [[p | s << width for p, s in zip(pm, reversed(sm))] for pm, sm in zip(heads, tails)]

    def score(ind: list[int]) -> int:
        acc = reduce(or_, map(getitem, masks, ind), 0)
        return acc.bit_count() + (k - 1) * (acc >> width).bit_count()  # prefixes + k * suffixes

    return score


def ga_optimize(sample: Sample, k: int, params: GaParams) -> OptResult:
    """Steady-state GA: truncation parents, uniform crossover, uniform re-draw of each gene
    with probability p_mut as before, but one draw per mutated gene (the geometric gap to it)."""
    check_state_count(k)
    params.validate()
    words = sample.sorted_nonempty_words()
    if not words:
        raise SampleError("sample has no non-empty words to split")
    rng = random.Random(params.rng_seed)
    start = time.perf_counter()
    lengths = [len(w) for w in words]
    score = _ga_scorer(sample, words, k)

    size = params.population_size
    population = [[rng.randint(0, length) for length in lengths] for _ in range(size)]
    fits = [score(ind) for ind in population]

    def rank(i: int) -> tuple[int, list[int]]:
        return fits[i], population[i]

    idx = min(range(size), key=rank)
    best, best_fit, initial_fit = list(population[idx]), fits[idx], fits[idx]
    trace = [TracePoint(0, best_fit, 0.0)]

    parent_count = min(size, max(2, math.ceil(params.p_parents * size)))
    draw, genes, log_keep = rng.random, size * len(words), math.log1p(-params.p_mut)  # < 0 for p_mut > 0
    generation = stagnant = 0
    while generation < params.max_gen and stagnant < params.max_gen_without_improv:
        generation += 1
        order = sorted(range(size), key=rank)
        parents = [list(population[i]) for i in order[:parent_count]]
        children: list[list[int]] = []
        for _ in range(size - parent_count):
            first = rng.randrange(parent_count)
            second = rng.randrange(parent_count - 1)
            second += second >= first
            children.append(_uniform_crossover(rng, parents[first], parents[second]))
        population = parents + children
        gene = -1  # floor(log(1 - U) / log(1 - p_mut)) genes pass unmutated; an endless gap is capped
        while (gene := gene + 1 + int(min(math.log(1.0 - draw()) / log_keep, genes))) < genes:
            i, t = divmod(gene, len(words))
            population[i][t] = rng.randint(0, lengths[t])
        fits = [score(ind) for ind in population]
        idx = min(range(size), key=rank)
        if fits[idx] < best_fit:
            best, best_fit, stagnant = list(population[idx]), fits[idx], 0
        else:
            stagnant += 1
        trace.append(TracePoint(generation, best_fit, time.perf_counter() - start))
    return OptResult(dict(zip(words, best)), best_fit, initial_fit, trace, params.rng_seed)


def write_trace_csv(trace: list[TracePoint], sink: IO[str]) -> None:
    sink.write("step,best_fitness,elapsed_seconds\n")
    for point in trace:
        sink.write(f"{point.step},{point.best_fitness},{point.elapsed_seconds:.6f}\n")


def spearman_rho(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    mean_x = sum(rx) / len(rx)
    mean_y = sum(ry) / len(ry)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def _average_ranks(values: list[float]) -> list[float]:
    # a run of equal values at sorted positions i..j-1 shares the rank (i + j + 1) / 2
    order = sorted(values)
    return [(bisect_left(order, v) + bisect_right(order, v) + 1) / 2 for v in values]
