"""NFA values: membership, sample verification, and serialization.

States are numbered 1..k and state 1 is always initial.  Membership uses
subset propagation (linear in word length times k^2) rather than path
enumeration, which would blow up as k^|word|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .sample import Sample, Word, word_key, word_to_text


@dataclass(frozen=True)
class Nfa:
    k: int
    n: int
    transitions: frozenset[tuple[int, int, int]]  # (state, symbol, state)
    finals: frozenset[int]

    def __post_init__(self) -> None:
        for i, a, j in self.transitions:
            if not (1 <= i <= self.k and 1 <= j <= self.k and 0 <= a < self.n):
                raise ValueError(f"transition {(i, a, j)} out of range for k={self.k}, n={self.n}")
        for i in self.finals:
            if not 1 <= i <= self.k:
                raise ValueError(f"final state {i} out of range for k={self.k}")


def _successor_masks(nfa: Nfa) -> list[list[int]]:
    """masks[a][i-1] = bitmask of successors of state i on symbol a."""
    masks = [[0] * nfa.k for _ in range(nfa.n)]
    for i, a, j in nfa.transitions:
        masks[a][i - 1] |= 1 << (j - 1)
    return masks


def _finals_mask(nfa: Nfa) -> int:
    mask = 0
    for i in nfa.finals:
        mask |= 1 << (i - 1)
    return mask


def accepts(nfa: Nfa, word: Word) -> bool:
    """True iff some run from state 1 over word ends in a final state."""
    masks = _successor_masks(nfa)
    return _accepts_with_masks(masks, _finals_mask(nfa), nfa.k, word)


def _accepts_with_masks(masks: list[list[int]], finals: int, k: int, word: Word) -> bool:
    current = 1
    for a in word:
        rows = masks[a]
        nxt = 0
        for i in range(k):
            if current & (1 << i):
                nxt |= rows[i]
        current = nxt
        if not current:
            return False
    return bool(current & finals)


@dataclass
class VerifyReport:
    ok: bool
    counterexamples: list[tuple[Word, str]] = field(default_factory=list)


def verify(nfa: Nfa, sample: Sample) -> VerifyReport:
    """Check that every positive word is accepted and every negative rejected."""
    masks = _successor_masks(nfa)
    finals = _finals_mask(nfa)
    bad: list[tuple[Word, str]] = []
    for word in sorted(sample.positives, key=word_key):
        if not _accepts_with_masks(masks, finals, nfa.k, word):
            bad.append((word, "positive"))
    for word in sorted(sample.negatives, key=word_key):
        if _accepts_with_masks(masks, finals, nfa.k, word):
            bad.append((word, "negative"))
    return VerifyReport(ok=not bad, counterexamples=bad)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def nfa_to_json(nfa: Nfa) -> str:
    payload = {
        "k": nfa.k,
        "n": nfa.n,
        "finals": sorted(nfa.finals),
        "transitions": [
            [i, word_to_text((a,), nfa.n), j]
            for i, a, j in sorted(nfa.transitions)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def nfa_to_dot(nfa: Nfa) -> str:
    lines = [
        "digraph nfa {",
        "  rankdir=LR;",
        "  __start__ [shape=point];",
        "  __start__ -> q1;",
    ]
    for i in range(1, nfa.k + 1):
        shape = "doublecircle" if i in nfa.finals else "circle"
        lines.append(f"  q{i} [shape={shape}];")
    grouped: dict[tuple[int, int], list[str]] = {}
    for i, a, j in sorted(nfa.transitions):
        grouped.setdefault((i, j), []).append(word_to_text((a,), nfa.n))
    for (i, j), symbols in sorted(grouped.items()):
        label = ",".join(symbols)
        lines.append(f'  q{i} -> q{j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
