"""CNF construction substrate: named variables, clause store, DIMACS output.

Solver variables are dense 1-based indices.  Every variable carries a
semantic name (a tagged tuple) registered in a bidirectional map, so models
can be decoded back into automaton components.  Names may alias an existing
index, which is how single-symbol path variables share the underlying
transition variable without emitting any clause.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import IO, Iterable

from .sample import Word

VarName = tuple

# Tag constants for the variable name union.
FINAL = "final"
TRANS = "trans"
PREFIX_PATH = "pref"
SUFFIX_PATH = "suf"
ACCEPT_AUX = "acc"
DIRECT_PATH_AUX = "dpath"
PREFIX_REC_AUX = "prec"
SUFFIX_REC_AUX = "srec"
LINK_AUX = "link"

# Stats family per tag, for variable-count accounting.
_VAR_FAMILY = {
    FINAL: "final",
    TRANS: "transition",
    PREFIX_PATH: "prefix_path",
    SUFFIX_PATH: "suffix_path",
    ACCEPT_AUX: "accept_aux",
    DIRECT_PATH_AUX: "direct_path_aux",
    PREFIX_REC_AUX: "prefix_rec_aux",
    SUFFIX_REC_AUX: "suffix_rec_aux",
    LINK_AUX: "link_aux",
}


def final_var(i: int) -> VarName:
    """State i is final."""
    return (FINAL, i)


def trans_var(a: int, i: int, j: int) -> VarName:
    """Transition from state i to state j on symbol a."""
    return (TRANS, a, i, j)


def prefix_path_var(word: Word, i: int) -> VarName:
    """Some state path for word exists from the initial state to state i."""
    return (PREFIX_PATH, word, i)


def suffix_path_var(word: Word, i: int, j: int) -> VarName:
    """Some state path for word exists from state i to state j."""
    return (SUFFIX_PATH, word, i, j)


def accept_aux_var(word: Word, i: int) -> VarName:
    """Word reaches state i and i is final."""
    return (ACCEPT_AUX, word, i)


def direct_path_aux_var(word: Word, states: tuple[int, ...]) -> VarName:
    """The specific state path (1, *states) for word ends in a final state."""
    return (DIRECT_PATH_AUX, word, states)


def prefix_rec_aux_var(prev: Word, a: int, j: int, i: int) -> VarName:
    """prev reaches j and the j->i transition on a extends it."""
    return (PREFIX_REC_AUX, prev, a, j, i)


def suffix_rec_aux_var(tail: Word, a: int, i: int, mid: int, j: int) -> VarName:
    """The i->mid transition on a prepends to a tail path from mid to j."""
    return (SUFFIX_REC_AUX, tail, a, i, mid, j)


def link_aux_var(word: Word, j: int, k: int) -> VarName:
    """Word's prefix part reaches j, its suffix part runs j->k, k is final."""
    return (LINK_AUX, word, j, k)


class CnfError(ValueError):
    """Inconsistent use of the variable registry."""


class CnfInstance:
    """A clause store with a semantic variable registry and stats.

    Single writer while under construction; treat as immutable afterwards.
    """

    def __init__(self) -> None:
        self.var_count = 0
        self.clauses: list[tuple[int, ...]] = []
        self.trivially_unsat = False
        self.arity_hist: Counter[int] = Counter()
        self.family_hist: dict[str, Counter[int]] = {}
        self.var_family_counts: Counter[str] = Counter()
        self._index: dict[VarName, int] = {}
        self._canonical: dict[int, VarName] = {}
        self._alias_count = 0

    # -- registry ----------------------------------------------------------

    def fresh_var(self, name: VarName) -> int:
        """Index for name, registering a new variable on first use."""
        idx = self._index.get(name)
        if idx is not None:
            return idx
        self.var_count += 1
        idx = self.var_count
        self._index[name] = idx
        self._canonical[idx] = name
        self.var_family_counts[_VAR_FAMILY.get(name[0], "other")] += 1
        return idx

    def alias_var(self, name: VarName, existing: VarName) -> int:
        """Make name resolve to the index of an already registered name."""
        target = self._index.get(existing)
        if target is None:
            raise CnfError(f"alias target {existing!r} is not registered")
        current = self._index.get(name)
        if current is not None:
            if current != target:
                raise CnfError(
                    f"{name!r} already bound to index {current}, cannot alias to {target}"
                )
            return current
        self._index[name] = target
        self._alias_count += 1
        return target

    def lookup(self, name: VarName) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CnfError(f"variable {name!r} is not registered") from None

    def has_var(self, name: VarName) -> bool:
        return name in self._index

    def name_of(self, index: int) -> VarName:
        """Canonical name of an index (the alias target, for aliased names)."""
        try:
            return self._canonical[index]
        except KeyError:
            raise CnfError(f"index {index} is not registered") from None

    def alias_count(self) -> int:
        return self._alias_count

    # -- clauses -----------------------------------------------------------

    def add_clause(self, literals: Iterable[int], family: str = "other") -> None:
        """Store a clause after merging duplicates and dropping tautologies.

        An empty clause is stored and flags the instance trivially UNSAT.
        """
        seen: dict[int, int] = {}
        kept: list[int] = []
        for lit in literals:
            if lit == 0:
                raise CnfError("literal 0 is not allowed")
            var = abs(lit)
            if var > self.var_count:
                raise CnfError(f"literal {lit} references unregistered variable {var}")
            prev = seen.get(var)
            if prev is None:
                seen[var] = lit
                kept.append(lit)
            elif prev != lit:
                return  # complementary pair: tautology
        clause = tuple(kept)
        if not clause:
            self.trivially_unsat = True
        self.clauses.append(clause)
        arity = len(clause)
        self.arity_hist[arity] += 1
        self.family_hist.setdefault(family, Counter())[arity] += 1

    def clause_count(self) -> int:
        return len(self.clauses)

    def literal_count(self) -> int:
        return sum(len(c) for c in self.clauses)

    def family_clause_counts(self) -> dict[str, int]:
        return {family: sum(hist.values()) for family, hist in self.family_hist.items()}

    def stats_dict(self) -> dict:
        return {
            "vars": self.var_count,
            "clauses": self.clause_count(),
            "arity_histogram": {str(a): c for a, c in sorted(self.arity_hist.items())},
        }


def write_dimacs(instance: CnfInstance, sink: IO[str]) -> None:
    """Emit DIMACS CNF: header, then one zero-terminated clause per line."""
    sink.write(f"p cnf {instance.var_count} {len(instance.clauses)}\n")
    for clause in instance.clauses:
        if clause:
            sink.write(" ".join(str(lit) for lit in clause))
            sink.write(" 0\n")
        else:
            sink.write("0\n")


def dimacs_text(instance: CnfInstance) -> str:
    from io import StringIO

    buf = StringIO()
    write_dimacs(instance, buf)
    return buf.getvalue()


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Read DIMACS CNF text back into (var_count, clauses).

    Raises CnfError for a missing or malformed header, a token that is not an
    integer, an unterminated last clause, or a literal whose variable exceeds
    the header's variable count.
    """
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
            if len(parts) != 4 or parts[1] != "cnf" or not parts[2].isdigit():
                raise CnfError(f"bad DIMACS header {line!r}")
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
