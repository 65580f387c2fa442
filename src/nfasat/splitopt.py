"""Split-point optimization for the hybrid encoding.

A split assignment is scored by the number of distinct non-empty prefixes of
the prefix parts plus k times the number of distinct non-empty suffixes of
the suffix parts.  Suffix machinery costs a factor k more variables than
prefix machinery, hence the weighting; the score tracks the variable count
of the hybrid instance without generating it.

Two seeded optimizers search the cut space (one cut in 0..|w| per word):
an iterated local search that re-cuts one roulette-picked word per step to
its best position, and a steady-state genetic algorithm with per-word
uniform crossover and uniform re-draw mutation.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import IO

from .sample import (
    Sample,
    SampleError,
    SplitAssignment,
    Word,
    intern_word,
    prefixes,
    split_sets,
    suffixes,
)


@dataclass
class IlsParams:
    max_iter: int = 10_000
    max_iter_without_improv: int = 100
    rng_seed: int = 0

    def validate(self) -> None:
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
    prefix_parts, suffix_parts = split_sets(sample, cuts)
    return len(prefixes(prefix_parts)) + k * len(suffixes(suffix_parts))


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


def random_cuts(sample: Sample, rng: random.Random) -> SplitAssignment:
    return {w: rng.randint(0, len(w)) for w in sample.sorted_nonempty_words()}


class _SplitScore:
    """Incremental fitness bookkeeping over per-word cut moves.

    Keeps multiplicities of every contributed prefix/suffix so that removing
    one word's contribution and scanning all its candidate cuts costs O(|w|).
    """

    def __init__(self, words: list[Word], cuts: SplitAssignment, k: int) -> None:
        self.k = k
        self.words = words
        self.cuts = dict(cuts)
        self.head_runs = {
            w: [intern_word(w[:i]) for i in range(1, len(w) + 1)] for w in words
        }
        self.tail_runs = {w: [intern_word(w[i:]) for i in range(len(w))] for w in words}
        self._pref_count: dict[Word, int] = {}
        self._suf_count: dict[Word, int] = {}
        self.distinct_pref = 0
        self.distinct_suf = 0
        for w in words:
            self._insert(w, self.cuts[w])

    def _insert(self, word: Word, cut: int) -> None:
        for p in self.head_runs[word][:cut]:
            c = self._pref_count.get(p, 0)
            self._pref_count[p] = c + 1
            if c == 0:
                self.distinct_pref += 1
        for s in self.tail_runs[word][cut:]:
            c = self._suf_count.get(s, 0)
            self._suf_count[s] = c + 1
            if c == 0:
                self.distinct_suf += 1

    def _remove(self, word: Word, cut: int) -> None:
        for p in self.head_runs[word][:cut]:
            c = self._pref_count[p] - 1
            self._pref_count[p] = c
            if c == 0:
                self.distinct_pref -= 1
        for s in self.tail_runs[word][cut:]:
            c = self._suf_count[s] - 1
            self._suf_count[s] = c
            if c == 0:
                self.distinct_suf -= 1

    def fitness(self) -> int:
        return self.distinct_pref + self.k * self.distinct_suf

    def rescore_word(self, word: Word) -> tuple[int, int]:
        """Move word to its best cut (smallest index on ties).

        Returns (cut, resulting fitness).  Never worse than the current cut,
        which is among the candidates.
        """
        self._remove(word, self.cuts[word])
        base = self.fitness()
        length = len(word)
        heads = self.head_runs[word]
        tails = self.tail_runs[word]
        new_pref = [0] * (length + 1)
        run = 0
        for i in range(1, length + 1):
            if self._pref_count.get(heads[i - 1], 0) == 0:
                run += 1
            new_pref[i] = run
        new_suf = [0] * (length + 1)
        run = 0
        for j in range(length - 1, -1, -1):
            if self._suf_count.get(tails[j], 0) == 0:
                run += 1
            new_suf[j] = run
        best_cut = 0
        best_fit = base + new_pref[0] + self.k * new_suf[0]
        for cut in range(1, length + 1):
            candidate = base + new_pref[cut] + self.k * new_suf[cut]
            if candidate < best_fit:
                best_fit = candidate
                best_cut = cut
        self._insert(word, best_cut)
        self.cuts[word] = best_cut
        return best_cut, best_fit


def ils_optimize(sample: Sample, k: int, params: IlsParams) -> OptResult:
    """Iterated local search: repeatedly re-cut one roulette-picked word."""
    params.validate()
    words = sample.sorted_nonempty_words()
    if not words:
        raise SampleError("sample has no non-empty words to split")
    rng = random.Random(params.rng_seed)
    start = time.perf_counter()

    cuts = {w: rng.randint(0, len(w)) for w in words}
    score = _SplitScore(words, cuts, k)
    best_fit = score.fitness()
    best_cuts = dict(score.cuts)
    initial_fit = best_fit
    trace = [TracePoint(0, best_fit, 0.0)]

    weights = word_weights(sample)
    cumulative: list[float] = []
    acc = 0.0
    for w in words:
        acc += weights[w]
        cumulative.append(acc)

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
    """Per-word coin flip between the two parents' cuts."""
    return [a if rng.random() < 0.5 else b for a, b in zip(first, second)]


def ga_optimize(sample: Sample, k: int, params: GaParams) -> OptResult:
    """Steady-state GA: truncation parents, uniform crossover, uniform re-draw."""
    params.validate()
    words = sample.sorted_nonempty_words()
    if not words:
        raise SampleError("sample has no non-empty words to split")
    rng = random.Random(params.rng_seed)
    start = time.perf_counter()
    lengths = [len(w) for w in words]
    width = len(words)
    head_runs = [[intern_word(w[:i]) for i in range(1, len(w) + 1)] for w in words]
    tail_runs = [[intern_word(w[i:]) for i in range(len(w))] for w in words]

    def score(ind: list[int]) -> int:
        pref: set[Word] = set()
        suf: set[Word] = set()
        for t, cut in enumerate(ind):
            pref.update(head_runs[t][:cut])
            suf.update(tail_runs[t][cut:])
        return len(pref) + k * len(suf)

    size = params.population_size
    population = [[rng.randint(0, lengths[t]) for t in range(width)] for _ in range(size)]
    fits = [score(ind) for ind in population]

    def best_index() -> int:
        return min(range(size), key=lambda i: (fits[i], tuple(population[i])))

    idx = best_index()
    best = list(population[idx])
    best_fit = fits[idx]
    initial_fit = best_fit
    trace = [TracePoint(0, best_fit, 0.0)]

    parent_count = min(size, max(2, math.ceil(params.p_parents * size)))
    generation = 0
    stagnant = 0
    while generation < params.max_gen and stagnant < params.max_gen_without_improv:
        generation += 1
        order = sorted(range(size), key=lambda i: (fits[i], tuple(population[i])))
        parents = [list(population[i]) for i in order[:parent_count]]
        children: list[list[int]] = []
        for _ in range(size - parent_count):
            first = rng.randrange(parent_count)
            second = rng.randrange(parent_count - 1)
            if second >= first:
                second += 1
            children.append(_uniform_crossover(rng, parents[first], parents[second]))
        population = parents + children
        for ind in population:
            for t in range(width):
                if rng.random() < params.p_mut:
                    ind[t] = rng.randint(0, lengths[t])
        fits = [score(ind) for ind in population]
        idx = best_index()
        if fits[idx] < best_fit:
            best_fit = fits[idx]
            best = list(population[idx])
            stagnant = 0
        else:
            stagnant += 1
        trace.append(TracePoint(generation, best_fit, time.perf_counter() - start))
    cuts = {words[t]: best[t] for t in range(width)}
    return OptResult(cuts, best_fit, initial_fit, trace, params.rng_seed)


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
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = rank
        i = j + 1
    return ranks
