"""CNF construction substrate: variables, a range-checked clause store, DIMACS output.

Solver variables are dense 1-based indices.  An instance for k states over
n symbols starts with its fixed layout: final i is variable i, and the
transition from state i to state j on symbol a is variable
k + (a*k + i - 1)*k + j, so the finals and transitions are variables 1..m,
m = k + n*k^2.  Only they are decoded back into automaton components;
``lookup`` maps their names to the layout.  Every other variable, reach
variables included, is allocated after them as an anonymous contiguous
range known only by its stats family; the encoders keep those indices in
their own tables.

An encoder records one guarantee as the instance's decision block m:
setting variables 1..m decides the instance by unit propagation, and
states 2..k are interchangeable (see ``encoders``).  Every later clause
batch clears it to 0, as a clause over the layout can tell states apart.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import IO, TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .sample import Sample


def final_var(i: int) -> tuple:
    """Name of "state i is final", for ``CnfInstance.lookup``."""
    return ("final", i)


def trans_var(a: int, i: int, j: int) -> tuple:
    """Name of the transition from state i to state j on symbol a."""
    return ("trans", a, i, j)


class CnfError(ValueError):
    """A name outside the variable layout, or a bad clause for the store."""


class CnfInstance:
    """A clause store over the layout of k states and n symbols, with a
    (family, arity) clause tally.

    The finals and transitions are variables 1..layout_size, under the
    stats families "final" and "transition"; every other variable is an
    anonymous index range.  The default (0, 0) has no layout, for
    instances built by hand.  decision_block is m while setting 1..m
    decides the instance and states 2..k are interchangeable, else 0: an
    encoder sets it, and every batch of ``add_clauses``, the only writer of
    clauses, clears it.  sample is the sample an encoder encoded, None for
    an instance built by hand; later clauses only remove models, so no
    batch clears it.  ``solve_in_process`` relies on that writer's range
    checks; treat the instance as immutable once built.
    """

    def __init__(self, k: int = 0, n: int = 0) -> None:
        self.k = k
        self.n = n
        self.layout_size = self.var_count = k + n * k * k
        self.clauses: list[tuple[int, ...]] = []
        self.decision_block = 0
        self.sample: Sample | None = None
        # unary + drops the families a small layout leaves at zero
        self.var_family_counts: Counter[str] = +Counter(final=k, transition=self.var_count - k)
        self._tally: Counter[tuple[str, int]] = Counter()

    # -- variables ---------------------------------------------------------

    def fresh_aux(self, family: str, count: int) -> int:
        """First index of count new anonymous variables of one stats family."""
        first = self.var_count + 1
        self.var_count += count
        self.var_family_counts[family] += count
        return first

    def lookup(self, name: tuple) -> int:
        """Variable of final_var(i) or trans_var(a, i, j) in the layout."""
        k = self.k
        match name:
            case ("final", i) if 1 <= i <= k:
                return i
            case ("trans", a, i, j) if 0 <= a < self.n and 1 <= i <= k and 1 <= j <= k:
                return k + (a * k + i - 1) * k + j
        raise CnfError(f"variable {name!r} is not in the layout of {k} states and {self.n} symbols")

    # -- clauses -----------------------------------------------------------

    def add_clauses(self, clauses: list[tuple[int, ...]], families: Iterable[str]) -> None:
        """Store clauses, the i-th under the i-th family, after checking the batch.

        Fewer families than clauses, literal 0 or a variable beyond
        var_count raises CnfError and stores nothing; the checks make no
        flat copy of the batch.  A repeated variable is stored as given, as
        DIMACS allows.  Every batch, an empty one too, clears the decision block.
        """
        self.decision_block = 0
        batch = Counter(zip(families, map(len, clauses)))
        if batch.total() != len(clauses):
            raise CnfError(f"the families ran out after {batch.total()} of {len(clauses)} clauses")
        if any(clauses):
            top = max(max(chain.from_iterable(clauses)), -min(chain.from_iterable(clauses)))
            if top > self.var_count:
                raise CnfError(f"a literal references variable {top} beyond the {self.var_count} allocated")
            if not all(map(all, clauses)):
                raise CnfError("literal 0 is not allowed")
        self.clauses += clauses
        self._tally.update(batch)

    @property
    def arity_hist(self) -> Counter[int]:
        return sum(self.family_hist.values(), Counter())

    @property
    def family_hist(self) -> dict[str, Counter[int]]:
        hist: dict[str, Counter[int]] = {}
        for (family, arity), count in self._tally.items():
            hist.setdefault(family, Counter())[arity] = count
        return hist

    def clause_count(self) -> int:
        return len(self.clauses)

    def literal_count(self) -> int:
        return sum(arity * count for (_, arity), count in self._tally.items())

    def family_clause_counts(self) -> dict[str, int]:
        return {family: sum(hist.values()) for family, hist in self.family_hist.items()}

    def stats_dict(self) -> dict:
        return {
            "vars": self.var_count,
            "clauses": self.clause_count(),
            "arity_histogram": {str(a): c for a, c in sorted(self.arity_hist.items())},
            "family_clause_counts": dict(sorted(self.family_clause_counts().items())),
            "var_family_counts": dict(sorted(self.var_family_counts.items())),
        }


_WRITE_BLOCK, _READ_BLOCK = 4096, 1 << 16  # clauses per write, characters per read


def write_dimacs(instance: CnfInstance, sink: IO[str]) -> None:
    """Emit DIMACS CNF: header, then one zero-terminated clause (a tuple) per line."""
    clauses = instance.clauses
    sink.write(f"p cnf {instance.var_count} {len(clauses)}\n")
    formats = {arity: "%d " * arity + "0\n" for arity in set(map(len, clauses))}
    for start in range(0, len(clauses), _WRITE_BLOCK):
        block = clauses[start : start + _WRITE_BLOCK]
        sink.write("".join(map(str.__mod__, map(formats.__getitem__, map(len, block)), block)))


def dimacs_text(instance: CnfInstance) -> str:
    from io import StringIO

    buf = StringIO()
    write_dimacs(instance, buf)
    return buf.getvalue()


def _blocks(source: str | IO[str]) -> Iterator[str]:
    """Blocks of whole lines, each but the last longer than _READ_BLOCK
    characters: slices of a string, or reads of a stream."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            end = source.find("\n", start + _READ_BLOCK) + 1 or len(source)
            yield source[start:end]
            start = end
    else:
        while block := source.read(_READ_BLOCK) + source.readline():
            yield block


def parse_dimacs(source: str | IO[str]) -> tuple[int, list[tuple[int, ...]]]:
    """Read DIMACS CNF text, or an open text stream, into (var_count, clauses),
    a block of whole lines at a time.

    Only a block with a comment, a header or a bad token goes line by line,
    and a clause may span blocks.  Raises CnfError for a missing or malformed
    header, a non-integer token, an unterminated last clause, or a literal
    whose variable exceeds the header's variable count.
    """
    var_count, top = None, 0
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for block in _blocks(source):
        try:
            lits = list(map(int, block.split()))
        except ValueError:  # a comment, a header or a bad token: go line by line
            lits = []
            for line in map(str.strip, block.splitlines()):
                if line.startswith("p"):
                    parts = line.split()
                    if len(parts) != 4 or parts[1] != "cnf" or not parts[2].isdecimal():
                        raise CnfError(f"bad DIMACS header {line!r}") from None
                    var_count = int(parts[2])
                elif line and not line.startswith("c"):
                    for tok in line.split():
                        try:
                            lits.append(int(tok))
                        except ValueError:
                            raise CnfError(f"bad DIMACS token {tok!r} in line {line!r}") from None
        pending += lits
        top = max(top, max(lits, default=0), -min(lits, default=0))
        if 0 in lits:  # else the clause runs on, and the carry is not scanned again
            ready, at = tuple(pending), 0
            for _ in range(ready.count(0)):
                zero = ready.index(0, at)
                clauses.append(ready[at:zero])
                at = zero + 1
            pending = list(ready[at:])
    if pending:
        raise CnfError("last clause is not zero-terminated")
    if var_count is None:
        raise CnfError("missing DIMACS header")
    if top > var_count:
        number = next(i for i, clause in enumerate(clauses, 1) if top in clause or -top in clause)
        raise CnfError(
            f"variable {top} in clause {number} exceeds the header's {var_count} variables"
        )
    return var_count, clauses
