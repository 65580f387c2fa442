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

The clauses are stored flat: one list of every literal, one arity per
clause in an ``array('I')``, and each clause's stats family as a one-byte
code, one bytes object per batch.  Every batch goes through one checked
append (``add_flat``; ``add_clauses`` flattens a list of tuples into it).
``clauses`` is a view, a fresh list of tuples built on each read; the
counts and the DIMACS writer read the flat arrays.

An encoder records one guarantee as the instance's decision block m:
setting variables 1..m decides the instance by unit propagation, and
states 2..k are interchangeable (see ``encoders``).  Every accepted later
batch clears it to 0, as a clause over the layout can tell states apart.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from io import StringIO
from itertools import chain, count, islice
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
    """A flat clause store over the layout of k states and n symbols.

    literals holds every clause's literals in order, arities[i] is the
    length of clause i, and each clause's stats family is a one-byte code;
    the counts are made when read.  ``add_flat`` is the one writer, and
    ``clauses`` a read-only view of tuples.  The finals and transitions are
    variables 1..layout_size, under the stats families "final" and
    "transition"; every other variable is an anonymous index range.  The
    default (0, 0) has no layout, for instances built by hand.
    decision_block is m while setting 1..m decides the instance and states
    2..k are interchangeable, else 0: an encoder sets it, and every accepted
    batch clears it.  sample is the sample an encoder encoded, None for an
    instance built by hand; later clauses only remove models, so no batch
    clears it.  ``solve_in_process`` relies on the writer's range checks;
    treat the instance as immutable once built.
    """

    def __init__(self, k: int = 0, n: int = 0) -> None:
        self.k = k
        self.n = n
        self.layout_size = self.var_count = k + n * k * k
        self.literals: list[int] = []
        self.arities = array("I")
        self.decision_block = 0
        self.sample: Sample | None = None
        # unary + drops the families a small layout leaves at zero
        self.var_family_counts: Counter[str] = +Counter(final=k, transition=self.var_count - k)
        # the codes, one bytes per batch (a bytearray grown per batch fragments the heap); name -> code
        self._codes, self._family_codes = list[bytes](), defaultdict(count().__next__)  # a factory with no cycle

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
        """Store clauses, the i-th under the i-th family's code, through ``add_flat``."""
        self.add_flat(list(chain.from_iterable(clauses)), list(map(len, clauses)), families)

    def add_flat(self, literals: list[int], arities: list[int], families: Iterable[str]) -> None:
        """Store a batch given flat: clause i is the next arities[i] literals,
        under the i-th family's code.

        Fewer families than clauses, a 257th family name, arities that do not
        sum to the literal count, literal 0 or a variable beyond var_count
        raises CnfError and stores nothing.  A repeated variable is stored as
        given, as DIMACS allows.  Every accepted batch, an empty one too,
        clears the decision block.
        """
        names, known = self._family_codes, len(self._family_codes)  # a new name takes the next code
        try:
            codes = bytes(map(names.__getitem__, islice(families, len(arities))))
            if len(codes) != len(arities):
                raise CnfError(f"the families ran out after {len(codes)} of {len(arities)} clauses")
            if sum(arities) != len(literals):
                raise CnfError(f"the arities cover {sum(arities)} literals, the batch has {len(literals)}")
            if literals:
                top = max(max(literals), -min(literals))
                if top > self.var_count:
                    raise CnfError(f"a literal references variable {top} beyond the {self.var_count} allocated")
                if 0 in literals:
                    raise CnfError("literal 0 is not allowed")
        except ValueError as err:  # one of those, or bytes() past code 255: the batch's new names go
            self._family_codes = defaultdict(count(known).__next__, islice(names.items(), known))
            raise err if isinstance(err, CnfError) else CnfError("a store holds at most 256 family names") from None
        self.decision_block = 0
        self.literals += literals
        self.arities.extend(arities)
        self._codes.append(codes)

    @property
    def clauses(self) -> list[tuple[int, ...]]:
        """A fresh list of the clauses as tuples; changing it changes nothing here."""
        literals = iter(self.literals)
        return [tuple(islice(literals, arity)) for arity in self.arities]

    @property
    def arity_hist(self) -> Counter[int]:
        return Counter(self.arities)

    @property
    def family_hist(self) -> dict[str, Counter[int]]:
        hists: list[Counter[int]] = [Counter() for _ in self._family_codes]  # by code
        for (code, arity), number in Counter(zip(chain.from_iterable(self._codes), self.arities)).items():
            hists[code][arity] = number
        return dict(zip(self._family_codes, hists))

    def clause_count(self) -> int:
        return len(self.arities)

    def literal_count(self) -> int:
        return len(self.literals)

    def family_clause_counts(self) -> dict[str, int]:
        return {name: sum(chunk.count(code) for chunk in self._codes) for name, code in self._family_codes.items()}

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
    """Emit DIMACS CNF: header, then one zero-terminated clause per line, a block per ``%``."""
    literals, arities = instance.literals, instance.arities
    sink.write(f"p cnf {instance.var_count} {len(arities)}\n")
    formats = {arity: "%d " * arity + "0\n" for arity in set(arities)}
    at = 0
    for start in range(0, len(arities), _WRITE_BLOCK):
        block = arities[start : start + _WRITE_BLOCK]
        end = at + sum(block)
        sink.write("".join(map(formats.__getitem__, block)) % tuple(literals[at:end]))
        at = end


def dimacs_text(instance: CnfInstance) -> str:
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
    and a clause may span blocks.  Raises CnfError for a missing, malformed
    or second header, a non-integer token, an unterminated last clause, or a
    literal whose variable exceeds the header's variable count.  The header's
    clause count must be a number but need not match, as solvers allow.
    """
    var_count, _, clauses = _read_dimacs(source)
    return var_count, clauses


def _read_dimacs(source: str | IO[str]) -> tuple[int, int, list[tuple[int, ...]]]:
    """``parse_dimacs``, with the largest variable the clauses name (0 if none)."""
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
                    if len(parts) != 4 or parts[1] != "cnf" or not all(map(str.isdecimal, parts[2:])):
                        raise CnfError(f"bad DIMACS header {line!r}") from None
                    if var_count is not None:
                        raise CnfError(f"a second DIMACS header {line!r}") from None
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
    return var_count, top, clauses
