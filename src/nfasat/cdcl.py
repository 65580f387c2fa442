"""Compact deterministic CDCL SAT solver on MiniSat-style data structures.

The layout follows MiniSat (Eén & Sörensson, SAT 2003), adapted to Python
lists:

- Every per-literal array (values, binary implication lists, watch lists,
  seen flags, levels, reasons) has length 2n+1 and is indexed by the signed
  literal itself: Python's negative indexing puts -v at slot 2n+1-v, so no
  literal is ever converted to an index.  A literal's implication and watch
  lists are created when the first entry arrives.
- Binary clauses live only in implication lists of plain ints: ``bins[l]``
  holds every q with a clause (l or q), visited when l becomes false.  The
  reason of a binary implication is the other literal, stored as an int.
- Longer clauses are watched by their first two literals in flat watch lists
  ``[clause, blocker, clause, blocker, ...]``; a true blocker skips the
  clause without touching it, and each list is compacted in place.
- Decisions come from a lazy binary heap of (-activity, var) entries with an
  in-heap flag, which picks the unassigned variable of highest activity,
  lowest index on ties.  Assignments are undone by truncating the trail at a
  decision boundary kept in ``trail_lim``; propagation resumes at ``qhead``.
- Loading walks the clauses flat, one list of literals and one arity per
  clause, by index.  ``CdclSolver(var_count, clauses)`` takes outside input,
  so it checks every literal's range before it flattens the clauses;
  ``CdclSolver.from_flat`` takes them flat, as a ``CnfInstance`` stores
  them, and checks nothing, as its callers vouch for them.  Loading pauses
  the cyclic garbage collector, as every object it makes stays alive, then
  restores the caller's state.  As MiniSat's, it is the one place that
  merges repeated literals and drops tautologies, for every caller.

Search is first-UIP clause learning with non-chronological backjumping,
local learnt-clause minimization, VSIDS-style activity and phase saving.  The
solver is deterministic: no restarts and no randomness, so identical inputs
always take the identical search path, which keeps run reports reproducible.

Stop rule.  ``solve(decided_by=m)`` returns SAT at the first decision point
(propagation at fixpoint, no conflict) where variables 1..m are all
assigned, reading every unassigned variable as false.  It tests 1..m only
when the variable picked next lies above m, as a pick inside shows them
unset.  That is sound only for a formula in which any such fixpoint extends
to a model and the caller reads no variable above m; the encoders'
instances are built that way (``CnfInstance.decision_block``), and stay so
with the lex-leader clauses that ``solve_in_process`` adds
(``solver.lex_leader`` says why).  m = 0 (the default) finds a full model.

Built for the instances this package generates; for heavy lifting point the
solver bridge at an external solver instead.
"""

from __future__ import annotations

import gc
import time
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, Sequence

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_ACTIVITY_RESCALE = 1e100
_ACTIVITY_DECAY = 0.95
_DEADLINE_CHECK_PERIOD = 256


def flat(clauses: Iterable[Sequence[int]]) -> tuple[list[int], list[int]]:
    """The literals of clauses in one list, and the arity of each clause."""
    clauses = clauses if isinstance(clauses, list) else list(clauses)
    return list(chain.from_iterable(clauses)), list(map(len, clauses))


def _extend(table: list, lit: int, items: tuple) -> None:
    """Append items to table[lit], creating the list on first use."""
    entries = table[lit] = table[lit] or []
    entries += items


class CdclSolver:
    def __init__(self, var_count: int, clauses: Iterable[Sequence[int]]) -> None:
        """A solver over outside clauses: a literal 0 or beyond var_count raises ValueError."""
        literals, arities = flat(clauses)
        if literals and (0 in literals or max(literals) > var_count or min(literals) < -var_count):
            bad = next(lit for lit in sorted(set(literals)) if lit == 0 or abs(lit) > var_count)
            raise ValueError(f"literal {bad} out of range for {var_count} variables")
        self._start(var_count, literals, arities)

    @classmethod
    def from_flat(cls, var_count: int, literals: list[int], arities: Sequence[int]) -> CdclSolver:
        """A solver over clauses given flat, clause i the next arities[i] literals, unchecked:
        the caller vouches for them, as ``CnfInstance.add_flat`` and the DIMACS reader do."""
        solver = cls.__new__(cls)
        solver._start(var_count, literals, arities)
        return solver

    def _start(self, var_count: int, literals: list[int], arities: Sequence[int]) -> None:
        n = var_count
        size = 2 * n + 1
        self.var_count = n
        self.val = [0] * size  # by literal: 1 true / -1 false / 0 unassigned
        self.level = [0] * size  # by false literal: level of its assignment
        self.reason: list[list[int] | int | None] = [None] * size  # by true literal
        self.seen = bytearray(size)  # by false literal, during analysis
        # A literal's list is created on first use; () stands in until then.
        self.bins: list[list[int] | tuple] = [()] * size
        self.watches: list[list | tuple] = [()] * size
        self.activity = [0.0] * (n + 1)
        self.phase = list(range(0, -n - 1, -1))  # last literal assigned per var
        self.in_heap = bytearray(b"\x01" * (n + 1))
        self.heap = [(0.0, v) for v in range(1, n + 1)]  # already heap-ordered
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.var_inc = 1.0
        self.unsat_at_load = False
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._load(literals, arities)
        finally:
            if collecting:
                gc.enable()

    # -- loading -----------------------------------------------------------

    def _load(self, literals: list[int], arities: Sequence[int]) -> None:
        """File each clause by size, walking the literals by index.

        A clause with distinct variables (all the encoders emit) passes one
        set test; only the others take the dedupe and tautology path.  A long
        clause is a fresh slice, so the caller's list is never mutated.
        """
        bins = self.bins
        watches = self.watches
        at = 0
        for size in arities:
            if size == 2:
                a = literals[at]
                b = literals[at + 1]
                at += 2
                if a != b and a != -b:
                    implied = bins[a] = bins[a] or []
                    implied.append(b)
                    implied = bins[b] = bins[b] or []
                    implied.append(a)
                    continue
                self._add_unusual((a, b))
                continue
            lits = literals[at : at + size]
            at += size
            if size > 2 and len(set(map(abs, lits))) == size:
                a, b = lits[0], lits[1]
                watching = watches[a] = watches[a] or []
                watching += (lits, b)
                watching = watches[b] = watches[b] or []
                watching += (lits, a)
                continue
            self._add_unusual(lits)

    def _add_unusual(self, raw: Sequence[int]) -> None:
        """Units, empty clauses, and clauses with repeated or clashing variables."""
        lits: list[int] = []
        for lit in raw:
            if -lit in lits:
                return  # tautology
            if lit not in lits:
                lits.append(lit)
        if not lits:
            self.unsat_at_load = True
        elif len(lits) > 1:
            self._attach(lits)
        elif self.val[lits[0]] == 0:
            self._assign(lits[0], None)
        elif self.val[lits[0]] < 0:
            self.unsat_at_load = True

    def _attach(self, lits: list[int]) -> None:
        """Store a clause of at least two distinct, non-clashing literals."""
        first, second = lits[0], lits[1]
        if len(lits) == 2:
            _extend(self.bins, first, (second,))
            _extend(self.bins, second, (first,))
        else:
            _extend(self.watches, first, (lits, second))
            _extend(self.watches, second, (lits, first))

    # -- assignment --------------------------------------------------------

    def _assign(self, lit: int, reason: list[int] | int | None) -> None:
        self.val[lit] = 1
        self.val[-lit] = -1
        self.level[-lit] = len(self.trail_lim)
        self.reason[lit] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation over the trail; returns a falsified clause or None."""
        trail = self.trail
        val = self.val
        level = self.level
        reason = self.reason
        bins = self.bins
        watches = self.watches
        dl = len(self.trail_lim)
        start = qhead = self.qhead
        conflict = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            for q in bins[false_lit]:
                value = val[q]
                if value == 0:
                    val[q] = 1
                    nq = -q
                    val[nq] = -1
                    level[nq] = dl
                    reason[q] = false_lit
                    trail.append(q)
                elif value < 0:
                    conflict = [q, false_lit]
                    break
            if conflict is not None:
                break
            ws = watches[false_lit]
            i = j = 0
            end = len(ws)
            while i < end:
                clause = ws[i]
                blocker = ws[i + 1]
                i += 2
                if val[blocker] == 1:
                    ws[j] = clause
                    ws[j + 1] = blocker
                    j += 2
                    continue
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if val[first] == 1:
                    ws[j] = clause
                    ws[j + 1] = first
                    j += 2
                    continue
                k = 2
                lit = clause[2]
                if val[lit] < 0:
                    k = 3
                    size = len(clause)
                    while k < size:
                        lit = clause[k]
                        if val[lit] >= 0:
                            break
                        k += 1
                    else:
                        ws[j] = clause
                        ws[j + 1] = first
                        j += 2
                        if val[first] < 0:
                            conflict = clause
                            break
                        val[first] = 1
                        nq = -first
                        val[nq] = -1
                        level[nq] = dl
                        reason[first] = clause
                        trail.append(first)
                        continue
                clause[1] = lit
                clause[k] = false_lit
                moved = watches[lit]
                if moved:
                    moved.append(clause)
                    moved.append(first)
                else:
                    watches[lit] = [clause, first]
            if j < i:
                del ws[j:i]
            if conflict is not None:
                break
        self.propagations += qhead - start
        self.qhead = qhead
        return conflict

    # -- conflict analysis -------------------------------------------------

    def _rescale_activity(self) -> None:
        scale = 1.0 / _ACTIVITY_RESCALE
        self.activity = [a * scale for a in self.activity]
        self.var_inc *= scale
        self._rebuild_heap()

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learnt clause (asserting literal first) and its backjump level."""
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        in_heap = self.in_heap
        dl = len(self.trail_lim)
        inc = self.var_inc
        learnt = [0]
        counter = 0
        index = len(trail) - 1
        lits: Sequence[int] = conflict
        while True:
            for q in lits:
                if not seen[q]:
                    lv = level[q]
                    if lv > 0:
                        seen[q] = 1
                        var = q if q > 0 else -q
                        act = activity[var] + inc
                        activity[var] = act
                        in_heap[var] = 0  # assigned now; re-queued with the new key on undo
                        if act > _ACTIVITY_RESCALE:
                            self._rescale_activity()
                            activity = self.activity
                            inc = self.var_inc
                        if lv >= dl:
                            counter += 1
                        else:
                            learnt.append(q)
            while not seen[-trail[index]]:
                index -= 1
            p = trail[index]
            index -= 1
            seen[-p] = 0
            counter -= 1
            if counter == 0:
                break
            why = reason[p]
            lits = (why,) if why.__class__ is int else why[1:]
        learnt[0] = -p

        # Local minimization: q is redundant when every other literal of the
        # reason of -q is in the clause already or fixed at level 0.
        kept = [-p]
        for q in learnt[1:]:
            why = reason[-q]
            if why is None:
                kept.append(q)
            elif why.__class__ is int:
                if not (seen[why] or level[why] == 0):
                    kept.append(q)
            else:
                for r in why[1:]:
                    if not (seen[r] or level[r] == 0):
                        kept.append(q)
                        break
        for q in learnt[1:]:
            seen[q] = 0

        bt_level = 0
        if len(kept) > 1:
            best = 1
            for idx in range(2, len(kept)):
                if level[kept[idx]] > level[kept[best]]:
                    best = idx
            kept[1], kept[best] = kept[best], kept[1]
            bt_level = level[kept[1]]
        return kept, bt_level

    def _cancel_until(self, target_level: int) -> None:
        """Undo every assignment above target_level, saving its phase."""
        lim = self.trail_lim[target_level]
        val = self.val
        phase = self.phase
        in_heap = self.in_heap
        activity = self.activity
        heap = self.heap
        for lit in self.trail[lim:]:
            val[lit] = 0
            val[-lit] = 0
            var = lit if lit > 0 else -lit
            phase[var] = lit
            if not in_heap[var]:
                in_heap[var] = 1
                heappush(heap, (-activity[var], var))
        del self.trail[lim:]
        del self.trail_lim[target_level:]
        self.qhead = lim
        if len(heap) > 2 * self.var_count + 64:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Drop stale heap entries: keep one per unassigned variable."""
        val = self.val
        activity = self.activity
        in_heap = self.in_heap
        heap = []
        for var in range(1, self.var_count + 1):
            if val[var] == 0:
                in_heap[var] = 1
                heap.append((-activity[var], var))
            else:
                in_heap[var] = 0
        heapify(heap)
        self.heap = heap

    def _record(self, learnt: list[int]) -> None:
        """Store a learnt clause and assert its first literal."""
        if len(learnt) == 1:
            self._assign(learnt[0], None)
            return
        self._attach(learnt)
        self._assign(learnt[0], learnt[1] if len(learnt) == 2 else learnt)

    def _pick_variable(self) -> int:
        """Unassigned variable of highest activity, lowest index on ties; 0 if none.

        Every unassigned variable has a current entry (in_heap set, key equal
        to its activity).  Entries left behind by a bump or an assignment are
        stale and are dropped as they surface.
        """
        heap = self.heap
        val = self.val
        in_heap = self.in_heap
        activity = self.activity
        while heap:
            neg_act, var = heappop(heap)
            if not in_heap[var] or -neg_act != activity[var]:
                continue
            in_heap[var] = 0
            if val[var] == 0:
                return var
        return 0

    def solve(
        self, deadline: float | None = None, decided_by: int = 0
    ) -> tuple[str, list[bool] | None, int]:
        """Returns (status, model, decisions); model is indexed by variable.

        model[0] is unused padding so model[v] is the value of variable v.
        decided_by: the stop rule's m (module docstring); 0 for a full search.
        """
        if not 0 <= decided_by <= self.var_count:
            raise ValueError(f"decided_by {decided_by} is outside 0..{self.var_count}")
        if self.unsat_at_load:
            return UNSAT, None, self.decisions
        if deadline is not None and time.perf_counter() >= deadline:
            return UNKNOWN, None, self.decisions
        since_check = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    return UNSAT, None, self.decisions
                learnt, bt_level = self._analyze(conflict)
                self._cancel_until(bt_level)
                self._record(learnt)
                self.var_inc /= _ACTIVITY_DECAY
            else:
                var = self._pick_variable()
                if var == 0 or decided_by and var > decided_by and 0 not in self.val[1 : decided_by + 1]:
                    model = [value == 1 for value in self.val[: self.var_count + 1]]
                    return SAT, model, self.decisions
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._assign(self.phase[var], None)
            since_check += 1
            if since_check >= _DEADLINE_CHECK_PERIOD:
                since_check = 0
                if deadline is not None and time.perf_counter() >= deadline:
                    return UNKNOWN, None, self.decisions
