"""Word samples: parsing, prefix/suffix closures, and split assignments.

A word is a tuple of symbol ids (small non-negative ints below the alphabet
size); the empty tuple is the empty word.  A sample holds the alphabet size
together with the positive and negative word sets.  Split assignments map
each non-empty word to a cut index that decomposes it into a prefix part and
a suffix part for the hybrid encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

Word = tuple[int, ...]
SplitAssignment = dict[Word, int]

EMPTY_WORD: Word = ()


class SampleError(ValueError):
    """Malformed sample input or inconsistent sample data."""


_WORD_CACHE: dict[Word, Word] = {}


def intern_word(symbols: Iterable[int]) -> Word:
    """Return a canonical shared tuple for the given symbol sequence.

    Closure computations produce the same prefixes and suffixes over and
    over; sharing one tuple object per distinct word keeps the sets compact
    and lets equality checks short-circuit on identity.
    """
    word = tuple(symbols)
    return _WORD_CACHE.setdefault(word, word)


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
            frozenset(intern_word(w) for w in positives),
            frozenset(intern_word(w) for w in negatives),
        )

    def words(self) -> Iterator[Word]:
        yield from self.positives
        yield from self.negatives

    def sorted_positives(self) -> list[Word]:
        return sorted(self.positives, key=word_key)

    def sorted_negatives(self) -> list[Word]:
        return sorted(self.negatives, key=word_key)

    def sorted_words(self) -> list[Word]:
        return sorted(set(self.words()), key=word_key)

    def sorted_nonempty_words(self) -> list[Word]:
        return [w for w in self.sorted_words() if w]

    def total_symbol_count(self) -> int:
        return sum(len(w) for w in set(self.words()))

    def check_consistent(self) -> None:
        overlap = self.positives & self.negatives
        if overlap:
            shown = ", ".join(word_to_text(w, self.alphabet_size) or "<empty>" for w in sorted(overlap, key=word_key))
            raise SampleError(f"words listed as both positive and negative: {shown}")


def prefixes(words: Iterable[Word]) -> set[Word]:
    """All non-empty prefixes of the given words, deduplicated."""
    out: set[Word] = set()
    for word in words:
        for i in range(1, len(word) + 1):
            out.add(intern_word(word[:i]))
    return out


def suffixes(words: Iterable[Word]) -> set[Word]:
    """All non-empty suffixes of the given words, deduplicated."""
    out: set[Word] = set()
    for word in words:
        for i in range(len(word)):
            out.add(intern_word(word[i:]))
    return out


def validate_cuts(sample: Sample, cuts: SplitAssignment) -> None:
    """Check that cuts cover exactly the non-empty sample words, in range."""
    expected = set(sample.sorted_nonempty_words())
    given = set(cuts)
    if given != expected:
        missing = expected - given
        extra = given - expected
        parts = []
        if missing:
            parts.append(f"{len(missing)} word(s) missing a cut")
        if extra:
            parts.append(f"{len(extra)} cut(s) for words not in the sample")
        raise SampleError("invalid split assignment: " + ", ".join(parts))
    for word, cut in cuts.items():
        if not 0 <= cut <= len(word):
            raise SampleError(f"cut {cut} out of range 0..{len(word)}")


def split_word(word: Word, cut: int) -> tuple[Word, Word]:
    return intern_word(word[:cut]), intern_word(word[cut:])


def split_sets(sample: Sample, cuts: SplitAssignment) -> tuple[set[Word], set[Word]]:
    """Prefix parts and suffix parts induced by a split assignment.

    Empty parts are excluded from the returned sets; the per-word
    decomposition itself stays available through the cuts mapping.
    """
    validate_cuts(sample, cuts)
    prefix_parts: set[Word] = set()
    suffix_parts: set[Word] = set()
    for word, cut in cuts.items():
        head, tail = split_word(word, cut)
        if head:
            prefix_parts.add(head)
        if tail:
            suffix_parts.add(tail)
    return prefix_parts, suffix_parts


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


def word_from_text(text: str) -> Word:
    text = text.strip()
    if not text:
        return EMPTY_WORD
    if "," in text:
        try:
            return intern_word(int(part) for part in text.removesuffix(",").split(","))
        except ValueError as exc:
            raise SampleError(f"bad comma-separated word {text!r}") from exc
    if text.isdigit():
        return intern_word(int(ch) for ch in text)
    if text.isalpha() and text.islower():
        return intern_word(ord(ch) - ord("a") for ch in text)
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
        text = line[:-1].strip()
        if header > 10 and len(text) > 1 and text.isdigit():
            raise SampleError(
                f"word {text!r} is ambiguous with n={header}: symbol ids need "
                "commas (1,1 for two symbols, 11, for one) or letters"
            )
        entries.append((word_from_text(text), positive))
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
        word = intern_word(symbols)
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
