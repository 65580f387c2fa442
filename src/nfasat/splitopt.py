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

Both score through the sample's index: ``SampleIndex.masks`` holds, per word
and cut, its prefix and suffix parts as one bitset, prefix ids below suffix
ids, so a score is one OR per word and two popcounts (``_score``).  The ILS
and ``fitness`` go through ``_SplitScore``, the GA through ``_ga_scorer``.
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
from typing import IO, Callable

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


def _score(acc: int, width: int, k: int) -> int:
    """Distinct prefixes plus k times distinct suffixes of an OR of masks."""
    return acc.bit_count() + (k - 1) * (acc >> width).bit_count()


class _SplitScore:
    """Incremental fitness bookkeeping over per-word cut moves.

    Keeps each word's chosen mask as a leaf of a binary tree of ORs, so the
    OR of the other words' masks is the siblings' on the leaf's way up: a
    move costs log W ORs, one OR and two popcounts per candidate cut.
    """

    def __init__(self, sample: Sample, cuts: SplitAssignment, k: int) -> None:
        index, size = sample.index, len(sample.index.words)
        self.k, self.width, self.cuts = k, len(index.prefixes), dict(cuts)
        self._rows = {w: (size + i, masks) for i, (w, masks) in enumerate(zip(index.words, index.masks))}
        # node size + i holds word i's chosen mask, node n < size the OR of nodes 2n and 2n + 1
        tree = self._tree = [0] * size + [masks[self.cuts[w]] for w, masks in zip(index.words, index.masks)]
        for n in range(size - 1, 0, -1):
            tree[n] = tree[2 * n] | tree[2 * n + 1]

    def fitness(self) -> int:
        return _score(self._tree[1] if self._rows else 0, self.width, self.k)  # the root ORs every leaf

    def rescore_word(self, word: Word) -> tuple[int, int]:
        """Move word to its best cut (smallest index on ties).

        Returns (cut, resulting fitness).  Never worse than the current cut,
        which is among the candidates.
        """
        tree, (leaf, masks) = self._tree, self._rows[word]
        others, n = 0, leaf
        while n > 1:
            others, n = others | tree[n ^ 1], n >> 1
        width, k = self.width, self.k
        costs = [_score(others | mask, width, k) for mask in masks]
        best_fit = min(costs)
        best_cut = costs.index(best_fit)
        if best_cut != self.cuts[word]:
            self.cuts[word], tree[leaf] = best_cut, masks[best_cut]
            while leaf > 1:
                tree[leaf >> 1], leaf = tree[leaf] | tree[leaf ^ 1], leaf >> 1
        return best_cut, best_fit


def ils_optimize(sample: Sample, k: int, params: IlsParams) -> OptResult:
    """Iterated local search: repeatedly re-cut one roulette-picked word.

    The search starts from the best of the seeded random cuts, the all-prefix
    cuts and the all-suffix cuts, the first of them on a tie.
    """
    check_state_count(k)
    params.validate()
    words = sample.index.words
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
    """Per-word fair coin between the parents' cuts: the low bit of one ``randbytes`` byte each."""
    return list(map(getitem, zip(second, first), rng.randbytes(len(first)).translate(bytes(range(2)) * 128)))


def _ga_scorer(sample: Sample, k: int) -> Callable[[list[int]], int]:
    """``fitness`` of an individual, a cut per word of ``sample.index.words``: one OR of its masks."""
    masks, width = sample.index.masks, len(sample.index.prefixes)

    def score(ind: list[int]) -> int:
        return _score(reduce(or_, map(getitem, masks, ind), 0), width, k)

    return score


def ga_optimize(sample: Sample, k: int, params: GaParams) -> OptResult:
    """Steady-state GA: truncation parents, uniform crossover, uniform re-draw of each gene
    with probability p_mut, one draw per mutated gene (the geometric gap to it)."""
    check_state_count(k)
    params.validate()
    words = sample.index.words
    if not words:
        raise SampleError("sample has no non-empty words to split")
    rng = random.Random(params.rng_seed)
    start = time.perf_counter()
    lengths = [len(w) for w in words]
    score = _ga_scorer(sample, k)

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
