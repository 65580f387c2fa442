"""Word samples: parsing, text formats, and split assignments.

A word is a tuple of symbol ids (small non-negative ints below the alphabet
size); the empty tuple is the empty word.  A sample holds the alphabet size
together with the positive and negative word sets.  Split assignments map
each non-empty word to a cut index that decomposes it into a prefix part and
a suffix part for the hybrid encoding.

A sample builds two things on first use and keeps them: ``index`` numbers
its prefixes and suffixes for the optimizers and the encoders, and
``fooling_set`` bounds the state count of a consistent NFA from below
(``solver`` says why, and checks the set before it trusts it).  The set is
a maximum clique, by branch and bound, of the graph on the splits of the
positive words that joins two splits when a cross word is negative; past
its caps, the largest clique found, which is still a fooling set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator

Word = tuple[int, ...]
SplitAssignment = dict[Word, int]

EMPTY_WORD: Word = ()


class SampleError(ValueError):
    """Malformed sample input or inconsistent sample data."""


def word_key(word: Word) -> tuple[int, Word]:
    """Sort key ordering words by length, then lexicographically."""
    return (len(word), word)


@dataclass(frozen=True)
class Sample:
    """Alphabet size plus positive and negative word sets.

    Overlapping positive/negative sets are representable (the encoders turn
    them into unsatisfiable instances); file parsing rejects them as a data
    error via :meth:`check_consistent`.
    """

    alphabet_size: int
    positives: frozenset[Word]
    negatives: frozenset[Word]

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise SampleError(f"alphabet size must be >= 1, got {self.alphabet_size}")
        for word in self.words():
            for sym in word:
                if not 0 <= sym < self.alphabet_size:
                    raise SampleError(
                        f"symbol id {sym} out of range for alphabet size {self.alphabet_size}"
                    )

    @staticmethod
    def build(
        alphabet_size: int,
        positives: Iterable[Iterable[int]],
        negatives: Iterable[Iterable[int]],
    ) -> "Sample":
        return Sample(
            alphabet_size,
            frozenset(map(tuple, positives)),
            frozenset(map(tuple, negatives)),
        )

    def words(self) -> Iterator[Word]:
        yield from self.positives
        yield from self.negatives

    def sorted_positives(self) -> list[Word]:
        return sorted(self.positives, key=word_key)

    def sorted_negatives(self) -> list[Word]:
        return sorted(self.negatives, key=word_key)

    def sorted_nonempty_words(self) -> list[Word]:
        return sorted({w for w in self.words() if w}, key=word_key)

    @cached_property
    def index(self) -> SampleIndex:
        """The index of the non-empty words, built on first use."""
        return SampleIndex(self.sorted_nonempty_words())

    @cached_property
    def fooling_set(self) -> tuple[tuple[Word, Word], ...]:
        """The largest fooling set found among the splits (x, y) of the positive
        words, built on first use: every two pairs have a negative cross word.
        The graph's vertices are the first _CLIQUE_VERTICES splits, shortest
        words first."""
        splits = [(w[:i], w[i:]) for w in self.sorted_positives() for i in range(len(w) + 1)]
        del splits[_CLIQUE_VERTICES:]
        heads: dict[Word, int] = {}  # the splits per head x, and per tail y, as bitsets
        tails: dict[Word, int] = {}
        for bit, (x, y) in enumerate(splits):
            heads[x] = heads.get(x, 0) | 1 << bit
            tails[y] = tails.get(y, 0) | 1 << bit
        adjacent = [0] * len(splits)
        for word in self.negatives:  # x·y negative joins every split headed x to every one tailed y
            for i in range(len(word) + 1):
                xs, ys = heads.get(word[:i], 0), tails.get(word[i:], 0)
                if xs and ys:
                    for v in _bits(xs):
                        adjacent[v] |= ys
                    for v in _bits(ys):
                        adjacent[v] |= xs
        for v in range(len(splits)):  # x·y both positive and negative: no self loop
            adjacent[v] &= ~(1 << v)
        return tuple(splits[v] for v in _max_clique(adjacent))

    def total_symbol_count(self) -> int:
        return sum(len(w) for w in set(self.words()))

    def check_consistent(self) -> None:
        overlap = self.positives & self.negatives
        if overlap:
            shown = ", ".join(word_to_text(w, self.alphabet_size) or "<empty>" for w in sorted(overlap, key=word_key))
            raise SampleError(f"words listed as both positive and negative: {shown}")


class SampleIndex:
    """Dense ids of the distinct non-empty prefixes and, apart, suffixes of words.

    words: non-empty, in ``word_key`` order, and the ids follow that order.
    heads[w][i] is the id of w[:i+1], tails[w][i] the id of w[i:]; parent[p]
    is the id of prefix p less its last letter, rest[s] that of suffix s
    less its first, -1 for a one-letter part.
    """

    def __init__(self, words: list[Word]) -> None:
        self.words = words
        # sorted order, then a stable sort by length: word_key order
        self.prefixes = sorted(sorted({w[:i] for w in words for i in range(1, len(w) + 1)}), key=len)
        self.suffixes = sorted(sorted({w[i:] for w in words for i in range(len(w))}), key=len)
        prefix_id = {p: i for i, p in enumerate(self.prefixes)}
        suffix_id = {s: i for i, s in enumerate(self.suffixes)}
        self.heads = {w: [prefix_id[w[:i]] for i in range(1, len(w) + 1)] for w in words}
        self.tails = {w: [suffix_id[w[i:]] for i in range(len(w))] for w in words}
        self.parent = [prefix_id.get(p[:-1], -1) for p in self.prefixes]
        self.rest = [suffix_id.get(s[1:], -1) for s in self.suffixes]


# Any clique is a fooling set, so both caps keep the bound sound: a fooling-set
# graph has at most _CLIQUE_VERTICES vertices (2 MB of bitsets), and past
# _CLIQUE_NODES branch-and-bound nodes the best clique found so far stands.
# Measured on a 2-core Xeon, Python 3.11: the benchmark corpora finish in at
# most 147 nodes; random_sample(2, 600, 24, 0.5, seed) for seeds 7-9 (4,096
# vertices after the cut) finish in 644-1,514 nodes, 0.55-0.78 s, against
# 34.8 s for infer's pm solve at k = 6, the bound, of seed 7.
_CLIQUE_VERTICES, _CLIQUE_NODES = 4_096, 2_000


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _max_clique(adjacent: list[int]) -> list[int]:
    """A maximum clique of the graph with neighbour bitsets adjacent[v], by
    branch and bound with a greedy-colouring bound (Tomita & Seki, DMTCS
    2003), or the largest found in _CLIQUE_NODES nodes."""
    best: list[int] = []
    clique: list[int] = []
    nodes = 0

    def expand(candidates: int) -> None:
        nonlocal best, nodes
        nodes += 1
        order: list[tuple[int, int]] = []  # (vertex, its colour), colours rising
        uncoloured, colour = candidates, 0
        while uncoloured:  # each colour class is independent: one more vertex at most
            colour += 1
            free = uncoloured
            while free:
                v = (free & -free).bit_length() - 1
                free &= ~adjacent[v] & ~(1 << v)
                uncoloured &= ~(1 << v)
                order.append((v, colour))
        for v, colour in reversed(order):
            if len(clique) + colour <= len(best) or nodes > _CLIQUE_NODES:
                return
            clique.append(v)
            if candidates & adjacent[v]:
                expand(candidates & adjacent[v])
            elif len(clique) > len(best):
                best = clique[:]
            clique.pop()
            candidates &= ~(1 << v)

    expand((1 << len(adjacent)) - 1)
    return best


def check_state_count(k: int) -> None:
    if k < 1:
        raise SampleError(f"state count k must be >= 1, got {k}")


def validate_cuts(sample: Sample, cuts: SplitAssignment) -> None:
    """Check that cuts cover exactly the non-empty sample words, in range."""
    expected = {w for w in sample.words() if w}
    if cuts.keys() != expected:
        missing = expected - cuts.keys()
        extra = cuts.keys() - expected
        parts = []
        if missing:
            parts.append(f"{len(missing)} word(s) missing a cut")
        if extra:
            parts.append(f"{len(extra)} cut(s) for words not in the sample")
        raise SampleError("invalid split assignment: " + ", ".join(parts))
    for word, cut in cuts.items():
        if type(cut) is not int or not 0 <= cut <= len(word):  # a bool is an int subclass
            raise SampleError(f"cut {cut!r} is not an integer in 0..{len(word)}")


def all_prefix_cuts(sample: Sample) -> SplitAssignment:
    return {w: len(w) for w in sample.sorted_nonempty_words()}


def all_suffix_cuts(sample: Sample) -> SplitAssignment:
    return {w: 0 for w in sample.sorted_nonempty_words()}


# ---------------------------------------------------------------------------
# Text formats.
#
# plain:      header "n=<alphabet size>", then one word per line followed by a
#             '+' or '-' sentinel.  Symbols are single letters ('a' = 0) or
#             digits, or comma-separated integer ids.  Above n=10 a run of
#             digits is ambiguous and rejected: write 1,1 (a lone id takes a
#             trailing comma, 11,) or letters.  An empty word is an empty
#             string before the sentinel.
# abbadingo:  header "<word count> <alphabet size>", then lines
#             "<label 0|1> <length> <symbol ids...>".
# ---------------------------------------------------------------------------

FORMATS = ("plain", "abbadingo")


def word_from_text(text: str, alphabet_size: int = 0) -> Word:
    """Read one word; above ten symbols a run of several digits is an error."""
    text = text.strip()
    if not text:
        return EMPTY_WORD
    if "," in text:
        try:
            return tuple(int(part) for part in text.removesuffix(",").split(","))
        except ValueError as exc:
            raise SampleError(f"bad comma-separated word {text!r}") from exc
    if text.isdigit():
        if alphabet_size > 10 and len(text) > 1:
            raise SampleError(
                f"word {text!r} is ambiguous with n={alphabet_size}: symbol ids need "
                "commas (1,1 for two symbols, 11, for one) or letters"
            )
        return tuple(int(ch) for ch in text)
    if text.isalpha() and text.islower():
        return tuple(ord(ch) - ord("a") for ch in text)
    raise SampleError(f"cannot parse word {text!r}")


def word_to_text(word: Word, alphabet_size: int) -> str:
    if alphabet_size <= 26:
        return "".join(chr(ord("a") + s) for s in word)
    return ",".join(str(s) for s in word)


def _parse_plain(lines: list[str]) -> Sample:
    header = None
    entries: list[tuple[Word, bool]] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            if not line.startswith("n="):
                raise SampleError(f"expected header 'n=<alphabet size>', got {line!r}")
            try:
                header = int(line[2:])
            except ValueError as exc:
                raise SampleError(f"bad alphabet size in header {line!r}") from exc
            continue
        sentinel = line[-1]
        if sentinel == "+":
            positive = True
        elif sentinel in ("-", "−"):
            positive = False
        else:
            raise SampleError(f"line {line!r} does not end in '+' or '-'")
        entries.append((word_from_text(line[:-1], header), positive))
    if header is None:
        raise SampleError("missing 'n=' header line")
    positives = {w for w, pos in entries if pos}
    negatives = {w for w, pos in entries if not pos}
    sample = Sample.build(header, positives, negatives)
    sample.check_consistent()
    return sample


def _parse_abbadingo(lines: list[str]) -> Sample:
    rows = [line.split() for line in lines if line.strip()]
    if not rows:
        raise SampleError("empty abbadingo input")
    try:
        declared_count, alphabet_size = (int(x) for x in rows[0])
    except ValueError as exc:
        raise SampleError(f"bad abbadingo header {' '.join(rows[0])!r}") from exc
    positives: set[Word] = set()
    negatives: set[Word] = set()
    for row in rows[1:]:
        try:
            label, length = int(row[0]), int(row[1])
            symbols = [int(x) for x in row[2:]]
        except (ValueError, IndexError) as exc:
            raise SampleError(f"bad abbadingo line {' '.join(row)!r}") from exc
        if label not in (0, 1):
            raise SampleError(f"abbadingo label must be 0 or 1, got {label}")
        if len(symbols) != length:
            raise SampleError(
                f"abbadingo line declares length {length} but has {len(symbols)} symbols"
            )
        word = tuple(symbols)
        (positives if label == 1 else negatives).add(word)
    if declared_count != len(rows) - 1:
        raise SampleError(
            f"abbadingo header declares {declared_count} words, file has {len(rows) - 1}"
        )
    sample = Sample.build(alphabet_size, positives, negatives)
    sample.check_consistent()
    return sample


def parse_sample(stream: IO[str] | str, fmt: str = "plain") -> Sample:
    """Parse a sample from a text stream or string in the given format."""
    text = stream if isinstance(stream, str) else stream.read()
    lines = text.splitlines()
    if fmt == "plain":
        return _parse_plain(lines)
    if fmt == "abbadingo":
        return _parse_abbadingo(lines)
    raise SampleError(f"unknown sample format {fmt!r} (expected one of {FORMATS})")


def format_sample(sample: Sample, fmt: str = "plain") -> str:
    """Serialize a sample so that parse_sample round-trips it."""
    if fmt == "plain":
        n = sample.alphabet_size
        lines = [f"n={n}"]
        for words, sign in ((sample.sorted_positives(), "+"), (sample.sorted_negatives(), "-")):
            for word in words:
                # above the letters, a lone id takes a trailing comma or it reads as digits
                lone = "," if n > 26 and len(word) == 1 else ""
                lines.append(word_to_text(word, n) + lone + sign)
        return "\n".join(lines) + "\n"
    if fmt == "abbadingo":
        words = sample.sorted_positives() + sample.sorted_negatives()
        lines = [f"{len(words)} {sample.alphabet_size}"]
        for word in sample.sorted_positives():
            lines.append(" ".join(["1", str(len(word))] + [str(s) for s in word]))
        for word in sample.sorted_negatives():
            lines.append(" ".join(["0", str(len(word))] + [str(s) for s in word]))
        return "\n".join(lines) + "\n"
    raise SampleError(f"unknown sample format {fmt!r} (expected one of {FORMATS})")
