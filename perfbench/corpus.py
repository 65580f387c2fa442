"""Seeded sample corpus owned by the benchmark.

Samples are drawn here rather than with ``nfasat.cli.random_sample``, so a
change to the program cannot change the inputs it is measured on.  Target
automata are simulated with this module's own subset simulation, which is
also the independent check applied to every automaton the program decodes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Word = tuple[int, ...]
POSITIVE_SHARE = (0.3, 0.7)  # a target-labelled sample's share of positive words


@dataclass(frozen=True)
class Target:
    """An NFA over states 1..k with state 1 initial, kept as bitmasks."""

    n: int
    k: int
    rows: tuple[tuple[int, ...], ...]  # rows[a][i-1]: successors of state i on a
    finals: int  # bit i-1 set when state i is final


def reach(rows, k: int, word: Word) -> int:
    """Subset simulation from state 1; rows[a][i] is a successor bitmask.

    Returns the bitmask of the states the word leads to.
    """
    current = 1
    for a in word:
        row = rows[a]
        nxt = 0
        for i in range(k):
            if current >> i & 1:
                nxt |= row[i]
        current = nxt
        if not current:
            return 0
    return current


def accepts(rows, finals: int, k: int, word: Word) -> bool:
    return bool(reach(rows, k, word) & finals)


def random_target(rng: random.Random, n: int, k: int, density: float) -> Target:
    rows = tuple(
        tuple(sum(1 << j for j in range(k) if rng.random() < density) for _ in range(k))
        for _ in range(n)
    )
    finals = sum(1 << i for i in range(k) if rng.random() < 0.5)
    return Target(n, k, rows, finals)


def random_words(
    rng: random.Random,
    n: int,
    count: int,
    max_len: int,
    words: list[Word] | None = None,
    min_len: int | None = None,
) -> list[Word]:
    """Extend words (default: none) to count distinct words of length up to max_len.

    Lengths are drawn uniformly from 0..max_len, or, with min_len, spread
    evenly over min_len..max_len so that every seed gives the same total
    length and the instance sizes vary only with the words' letters.
    """
    if count > sum(n**length for length in range(max_len + 1)):
        raise ValueError(f"fewer than {count} distinct words exist with n={n}, max_len={max_len}")
    words = list(words or [])
    seen = set(words)
    while len(words) < count:
        if min_len is None:
            length = rng.randint(0, max_len)
        else:
            length = min_len + len(words) % (max_len - min_len + 1)
        word = tuple(rng.randrange(n) for _ in range(length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


@dataclass(frozen=True)
class GeneratedSample:
    name: str
    n: int
    positives: tuple[Word, ...]
    negatives: tuple[Word, ...]
    target: Target | None  # None for random labels

    def plain_text(self) -> str:
        """The sample in nfasat's plain format: header, then one word per line."""
        lines = [f"n={self.n}"]
        lines += ["".join(chr(97 + a) for a in w) + "+" for w in self.positives]
        lines += ["".join(chr(97 + a) for a in w) + "-" for w in self.negatives]
        return "\n".join(lines) + "\n"


def fooling_set(rng: random.Random, target: Target, max_len: int = 2, width: int = 6):
    """k pairs (x, y) that prove every NFA agreeing with the target on them needs k states.

    Each x + y is accepted, and for every two pairs at least one of the cross
    words x_i + y_j, x_j + y_i is rejected.  In an NFA that agrees on these
    words, the states that accepting runs of x_i + y_i reach after x_i must
    all differ, since two runs meeting in one state would also accept both
    cross words.  Returns None when the search over words of length
    <= max_len finds no such set.
    """
    memo: dict[Word, bool] = {}

    def member(word: Word) -> bool:
        if word not in memo:
            memo[word] = accepts(target.rows, target.finals, target.k, word)
        return memo[word]

    short = [w for length in range(max_len + 1) for w in itertools.product(range(target.n), repeat=length)]
    pairs = [(x, y) for x in short for y in short if member(x + y)]
    rng.shuffle(pairs)

    def extend(chosen, candidates):
        if len(chosen) == target.k:
            return chosen
        for index, (x, y) in enumerate(candidates[:width]):
            rest = [(u, v) for u, v in candidates[index + 1 :] if not (member(x + v) and member(u + y))]
            found = extend(chosen + [(x, y)], rest)
            if found:
                return found
        return None

    return extend([], pairs)


def minimal_target_sample(
    rng: random.Random, name: str, n: int, k: int, count: int, max_len: int, density: float
) -> GeneratedSample:
    """Words labelled by a random k-state target whose smallest consistent NFA has k states.

    The sample holds the words of a fooling set of size k (see fooling_set).
    Target, fooling set and words are redrawn together until 30-70% of the
    words are positive.
    """
    while True:
        target = random_target(rng, n, k, density)
        pairs = fooling_set(rng, target)
        if pairs is None:
            continue
        forced = sorted({x + v for x, _ in pairs for _, v in pairs})
        words = random_words(rng, n, count, max_len, forced)
        labels = [accepts(target.rows, target.finals, k, w) for w in words]
        if POSITIVE_SHARE[0] <= sum(labels) / count <= POSITIVE_SHARE[1]:
            return _labelled(name, target, words, labels)


def target_sample(
    rng: random.Random, name: str, n: int, k: int, count: int, min_len: int, max_len: int, density: float
) -> GeneratedSample:
    """Words with lengths spread over min_len..max_len, labelled by a random k-state target.

    The words are drawn once.  For each drawn set of transitions the final
    states are chosen among all subsets, in random order, until 30-70% of the
    words are positive; transitions are redrawn only when no subset does.
    Redrawing the whole target instead made the time to build a sample vary
    by a factor of five from seed to seed.
    """
    words = random_words(rng, n, count, max_len, min_len=min_len)
    while True:
        rows = random_target(rng, n, k, density).rows
        reached = [reach(rows, k, w) for w in words]
        candidates = list(range(1, 1 << k))
        rng.shuffle(candidates)
        for finals in candidates:
            labels = [bool(r & finals) for r in reached]
            if POSITIVE_SHARE[0] <= sum(labels) / count <= POSITIVE_SHARE[1]:
                return _labelled(name, Target(n, k, rows, finals), words, labels)


def _labelled(name: str, target: Target, words: list[Word], labels: list[bool]) -> GeneratedSample:
    positives = tuple(w for w, pos in zip(words, labels) if pos)
    negatives = tuple(w for w, pos in zip(words, labels) if not pos)
    return GeneratedSample(name, target.n, positives, negatives, target)


def random_labelled_sample(
    rng: random.Random, name: str, n: int, count: int, max_len: int
) -> GeneratedSample:
    """Distinct words, the first half of a shuffled order labelled positive."""
    words = random_words(rng, n, count, max_len)
    rng.shuffle(words)
    half = count // 2
    return GeneratedSample(name, n, tuple(words[:half]), tuple(words[half:]), None)
