"""Exhaustive inference oracle, an independent membership check and word
closures, for tests only.

The oracle enumerates every transition relation / final set combination in a
fixed order and is the ground truth the SAT encodings are tested against; it
never touches the encoder or solver code paths.  accepts_by_path_search is a
depth-first membership routine, deliberately independent of nfasat.nfa.accepts.
prefixes and suffixes count closures by brute force, independent of the
split index that the optimizers score with.  parse_dimacs_by_token,
write_dimacs_by_clause and write_dimacs_by_format are DIMACS reading and
writing one token and one clause at a time, the reference for the
block-wise ``nfasat.cnf`` routines.
fooling_graph_by_words builds the fooling-set graph from word slices keyed
by word, the reference for the id-built ``nfasat.sample._fooling_graph``.
encode_per_definition is the encoder of all four models that calls
``encoders._define`` once per definition on its real variables, the
reference for the encoder's per-shape templates.
"""

from __future__ import annotations

from itertools import chain, compress, product, repeat
from typing import IO, Iterable, Iterator

import numpy as np

from nfasat import sample as sample_module
from nfasat.cnf import CnfError, CnfInstance, final_var, trans_var
from nfasat.encoders import (
    _ACCEPT_FAMILIES,
    _LINK_FAMILIES,
    _PREFIX_FAMILIES,
    _SUFFIX_FAMILIES,
    ModelKind,
    _define,
    _direct_families,
    _hybrid_cuts,
    _marks,
    _part_uses,
)
from nfasat.nfa import Nfa
from nfasat.sample import Sample, Word, word_key

_EXACT_TABLE_MAX_BITS = 20  # vectorized reach tables up to 2^20 relations
_REACH_CACHE_LIMIT = 64


class OracleBoundError(ValueError):
    """The requested (alphabet size, k) search space is too large."""


def accepts_by_path_search(nfa: Nfa, word: Word) -> bool:
    """Depth-first path search; independent cross-check for accepts()."""
    succ: dict[tuple[int, int], list[int]] = {}
    for i, a, j in nfa.transitions:
        succ.setdefault((i, a), []).append(j)

    def walk(state: int, pos: int) -> bool:
        if pos == len(word):
            return state in nfa.finals
        return any(walk(t, pos + 1) for t in succ.get((state, word[pos]), ()))

    return walk(1, 0)


def prefixes(words: Iterable[Word]) -> set[Word]:
    """All non-empty prefixes of the given words, deduplicated."""
    return {word[:i] for word in words for i in range(1, len(word) + 1)}


def suffixes(words: Iterable[Word]) -> set[Word]:
    """All non-empty suffixes of the given words, deduplicated."""
    return {word[i:] for word in words for i in range(len(word))}


# ---------------------------------------------------------------------------
# Exhaustive inference oracle.
# ---------------------------------------------------------------------------


class _ReachTable:
    """Per-relation reach sets over every transition relation for (n, k).

    Relation r (an integer bitmask) has the transition i --a--> j iff bit
    a*k*k + (i-1)*k + (j-1) of r is set.  reach(word)[r] is the bitmask of
    states reachable from state 1 reading word under relation r.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k
        self.bits = n * k * k
        count = 1 << self.bits
        idx = np.arange(count, dtype=np.uint64)
        mask = (1 << k) - 1
        self.rows = [
            [((idx >> np.uint64(a * k * k + i * k)) & np.uint64(mask)).astype(np.uint8) for i in range(k)]
            for a in range(n)
        ]
        self._reach: dict[Word, np.ndarray] = {}

    def reach(self, word: Word) -> np.ndarray:
        cached = self._reach.get(word)
        if cached is not None:
            return cached
        if not word:
            arr = np.ones(1 << self.bits, dtype=np.uint8)
        else:
            prev = self.reach(word[:-1])
            rows = self.rows[word[-1]]
            arr = np.zeros(1 << self.bits, dtype=np.uint8)
            for i in range(self.k):
                np.bitwise_or(arr, np.where(prev & (1 << i), rows[i], 0), out=arr)
        if len(self._reach) >= _REACH_CACHE_LIMIT:
            self._reach.pop(next(iter(self._reach)))
        self._reach[word] = arr
        return arr


_TABLES: dict[tuple[int, int], _ReachTable] = {}


def _get_table(n: int, k: int) -> _ReachTable:
    table = _TABLES.get((n, k))
    if table is None:
        table = _ReachTable(n, k)
        _TABLES[(n, k)] = table
    return table


def _relation_to_transitions(relation: int, n: int, k: int) -> frozenset[tuple[int, int, int]]:
    out = []
    for a in range(n):
        for i in range(k):
            for j in range(k):
                if relation >> (a * k * k + i * k + j) & 1:
                    out.append((i + 1, a, j + 1))
    return frozenset(out)


def _first_final_set(k: int, avoid: int, positive_reach: list[int]) -> int | None:
    """Smallest final-set bitmask avoiding avoid and hitting every reach set."""
    for finals in range(1 << k):
        if finals & avoid:
            continue
        if all(r & finals for r in positive_reach):
            return finals
    return None


def oracle_exists(sample: Sample, k: int) -> tuple[bool, Nfa | None]:
    """Exhaustively search for a k-state NFA consistent with the sample.

    Enumerates transition relations in ascending bitmask order and, for the
    first relation admitting a consistent final set, the smallest such set.
    Bounded to n*k^2 + k <= 26; beyond the vectorized range (n*k^2 <= 20)
    it falls back to a plain loop, which is exponential and slow.
    """
    n = sample.alphabet_size
    bits = n * k * k
    if bits + k > 26:
        raise OracleBoundError(
            f"search space 2^{bits + k} exceeds the 2^26 oracle bound (n={n}, k={k})"
        )
    positives = sorted(sample.positives, key=word_key)
    negatives = sorted(sample.negatives, key=word_key)

    if bits <= _EXACT_TABLE_MAX_BITS:
        table = _get_table(n, k)
        avoid = np.zeros(1 << bits, dtype=np.uint8)
        for word in negatives:
            np.bitwise_or(avoid, table.reach(word), out=avoid)
        feasible = np.ones(1 << bits, dtype=bool)
        for word in positives:
            feasible &= (table.reach(word) & ~avoid) != 0
        relation = int(np.argmax(feasible))
        if not feasible[relation]:
            return False, None
        reach_at = [int(table.reach(w)[relation]) for w in positives]
        finals = _first_final_set(k, int(avoid[relation]), reach_at)
        assert finals is not None
    else:
        relation_finals = _slow_scan(n, k, positives, negatives)
        if relation_finals is None:
            return False, None
        relation, finals = relation_finals

    nfa = Nfa(
        k=k,
        n=n,
        transitions=_relation_to_transitions(relation, n, k),
        finals=frozenset(i + 1 for i in range(k) if finals >> i & 1),
    )
    return True, nfa


def _slow_scan(
    n: int, k: int, positives: list[Word], negatives: list[Word]
) -> tuple[int, int] | None:
    bits = n * k * k
    kmask = (1 << k) - 1
    for relation in range(1 << bits):
        rows = [
            [relation >> (a * k * k + i * k) & kmask for i in range(k)] for a in range(n)
        ]

        def reach(word: Word) -> int:
            cur = 1
            for a in word:
                nxt = 0
                row = rows[a]
                for i in range(k):
                    if cur >> i & 1:
                        nxt |= row[i]
                cur = nxt
                if not cur:
                    break
            return cur

        avoid = 0
        for word in negatives:
            avoid |= reach(word)
        positive_reach = [reach(w) for w in positives]
        if any(r & ~avoid == 0 for r in positive_reach):
            continue
        finals = _first_final_set(k, avoid, positive_reach)
        if finals is not None:
            return relation, finals
    return None


# ---------------------------------------------------------------------------
# DIMACS one token and one clause at a time.
# ---------------------------------------------------------------------------


def write_dimacs_by_clause(instance: CnfInstance, sink: IO[str]) -> None:
    """Header, then one zero-terminated clause per line, one write per part."""
    sink.write(f"p cnf {instance.var_count} {len(instance.clauses)}\n")
    for clause in instance.clauses:
        if clause:
            sink.write(" ".join(str(lit) for lit in clause))
            sink.write(" 0\n")
        else:
            sink.write("0\n")


def write_dimacs_by_format(instance: CnfInstance, sink: IO[str]) -> None:
    """Header, then each clause by its own ``%`` call on its arity's format."""
    clauses = instance.clauses
    sink.write(f"p cnf {instance.var_count} {len(clauses)}\n")
    formats = {arity: "%d " * arity + "0\n" for arity in set(map(len, clauses))}
    sink.write("".join(map(str.__mod__, map(formats.__getitem__, map(len, clauses)), clauses)))


def parse_dimacs_by_token(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """(var_count, clauses) of DIMACS text, read line by line and token by
    token, with ``nfasat.cnf.parse_dimacs``'s CnfError messages."""
    var_count = 0
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    saw_header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf" or not (parts[2].isdecimal() and parts[3].isdecimal()):
                raise CnfError(f"bad DIMACS header {line!r}")
            if saw_header:
                raise CnfError(f"a second DIMACS header {line!r}")
            var_count = int(parts[2])
            saw_header = True
            continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfError(f"bad DIMACS token {tok!r} in line {line!r}") from None
            if lit == 0:
                clauses.append(tuple(pending))
                pending.clear()
            else:
                pending.append(lit)
    if pending:
        raise CnfError("last clause is not zero-terminated")
    if not saw_header:
        raise CnfError("missing DIMACS header")
    top = max(map(abs, chain.from_iterable(clauses)), default=0)
    if top > var_count:
        number = next(i for i, clause in enumerate(clauses, 1) if top in clause or -top in clause)
        raise CnfError(
            f"variable {top} in clause {number} exceeds the header's {var_count} variables"
        )
    return var_count, clauses


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def fooling_graph_by_words(sample: Sample) -> tuple[list[tuple[Word, Word]], list[int]]:
    """The splits (x, y) that are the fooling-set graph's vertices, and their
    neighbour bitsets, from word slices: the first
    ``nfasat.sample._CLIQUE_VERTICES`` splits of the positive words, shortest
    words first, and an edge where a cross word is negative."""
    splits = [(w[:i], w[i:]) for w in sample.sorted_positives() for i in range(len(w) + 1)]
    del splits[sample_module._CLIQUE_VERTICES :]
    heads: dict[Word, int] = {}  # the splits per head x, and per tail y, as bitsets
    tails: dict[Word, int] = {}
    for bit, (x, y) in enumerate(splits):
        heads[x] = heads.get(x, 0) | 1 << bit
        tails[y] = tails.get(y, 0) | 1 << bit
    adjacent = [0] * len(splits)
    for word in sample.negatives:  # x·y negative joins every split headed x to every one tailed y
        for i in range(len(word) + 1):
            xs, ys = heads.get(word[:i], 0), tails.get(word[i:], 0)
            if xs and ys:
                for v in _bits(xs):
                    adjacent[v] |= ys
                for v in _bits(ys):
                    adjacent[v] |= xs
    for v in range(len(splits)):  # x·y both positive and negative: no self loop
        adjacent[v] &= ~(1 << v)
    return splits, adjacent


# ---------------------------------------------------------------------------
# The encoders one definition at a time.
# ---------------------------------------------------------------------------


def _define_on(inst: CnfInstance, batch: tuple, outputs, terms, families, uses: int) -> None:
    """``_define`` on inst's real variables, its aux variables taken from
    inst; the clauses go on batch."""
    literals, arities, clause_families, aux = _define(inst.var_count, outputs, terms, families, uses)
    if aux:
        inst.fresh_aux(families[0], aux)
    for store, part in zip(batch, (literals, arities, clause_families)):
        store += part


def encode_per_definition(
    kind: ModelKind, sample: Sample, k: int, cuts: dict | None = None
) -> CnfInstance:
    """``encoders.encode`` with no templates: dm's loop over each word's
    explicit state paths, and the hybrid's chain, verdict and link loops,
    build every definition's terms on its real variables and call
    ``_define``; one ``add_flat`` per pass.  No budget."""
    inst = CnfInstance(k, sample.alphabet_size)
    inst.sample = sample
    states = range(k)
    finals = [inst.lookup(final_var(i + 1)) for i in states]
    trans = [
        [[inst.lookup(trans_var(a, i + 1, j + 1)) for j in states] for i in states]
        for a in range(sample.alphabet_size)
    ]
    units = [(finals[0],)] * (() in sample.positives) + [(-finals[0],)] * (() in sample.negatives)
    inst.add_clauses(units, repeat("empty_word_unit"))
    if kind == ModelKind.DIRECT:
        batch: tuple[list[int], list[int], list[str]] = ([], [], [])
        for word, bits in _marks(sample):
            terms = []
            for path in product(states, repeat=len(word)):
                lits, prev = [], 0
                for a, state in zip(word, path):
                    lits.append(trans[a][prev][state])
                    prev = state
                terms.append((None, [*lits, finals[prev]]))
            _define_on(inst, batch, None, terms, _direct_families(len(word)), bits)
        inst.add_flat(*batch)
        inst.decision_block = inst.layout_size
        return inst
    cuts = _hybrid_cuts(kind, sample, cuts)
    marks, prefix_uses, suffix_uses = _part_uses(sample, cuts)
    index = sample.index

    prefix_reach: dict[int, list[int]] = {}
    batch = ([], [], [])
    for p in compress(range(len(prefix_uses)), prefix_uses):
        word = index.prefixes[p]
        if len(word) == 1:
            prefix_reach[p] = trans[word[0]][0]
            continue
        first = inst.fresh_aux("prefix_path", k)
        outputs = prefix_reach[p] = list(range(first, first + k))
        parent, step = prefix_reach[index.parent[p]], trans[word[-1]]
        terms = [(i, (parent[j], step[j][i])) for j in states for i in states]
        _define_on(inst, batch, outputs, terms, _PREFIX_FAMILIES, prefix_uses[p])
    inst.add_flat(*batch)

    used = list(compress(range(len(suffix_uses)), suffix_uses))
    linked = {index.tails[w][cut] for w, cut in cuts.items() if 0 < cut < len(w)}
    all_starts = linked | {index.rest[s] for s in used}
    suffix_rows: dict[int, list[list[int]]] = {}
    batch = ([], [], [])
    for s in used:
        word = index.suffixes[s]
        if len(word) == 1:
            suffix_rows[s] = trans[word[0]]
            continue
        starts = states if s in all_starts else range(1)
        first = inst.fresh_aux("suffix_path", len(starts) * k)
        outputs = list(range(first, first + len(starts) * k))
        suffix_rows[s] = [outputs[i * k : i * k + k] for i in starts]
        rests, steps = suffix_rows[index.rest[s]], trans[word[0]]
        terms = [(i * k + j, (rests[mid][j], steps[i][mid])) for i in starts for mid in states for j in states]
        _define_on(inst, batch, outputs, terms, _SUFFIX_FAMILIES, suffix_uses[s])
    inst.add_flat(*batch)

    batch = ([], [], [])
    for word, bits in marks:
        cut = cuts[word]
        if cut in (0, len(word)):
            reach = prefix_reach[index.heads[word][-1]] if cut else suffix_rows[index.tails[word][0]][0]
            terms = [(None, lits) for lits in zip(reach, finals)]
            families = _ACCEPT_FAMILIES
        else:
            rows = zip(prefix_reach[index.heads[word][cut - 1]], suffix_rows[index.tails[word][cut]])
            terms = [(None, (x, row[end], finals[end])) for x, row in rows for end in states]
            families = _LINK_FAMILIES
        _define_on(inst, batch, None, terms, families, bits)
    inst.add_flat(*batch)
    inst.decision_block = inst.layout_size
    return inst
