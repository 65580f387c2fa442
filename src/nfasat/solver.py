"""Bridge CNF instances to SAT solvers and decode models into NFAs.

The bundled CDCL solver always runs in-process, on an encoded instance
(``solve_in_process``) or on a DIMACS file (``solve_dimacs_file`` without a
command).  A solver process starts only for a command template the caller
names; its competition-format output is parsed, search counters included.

An encoded instance may be settled without a search.  A fooling set of m
pairs (x_i, y_i), each x_i·y_i a positive word and, for i != j, x_i·y_j or
x_j·y_i a negative one, proves that a consistent NFA has at least m states
(Birget, IPL 1992; Glaister & Shallit, IPL 1996): the states that accepting
runs of x_i·y_i reach after x_i all differ, since two runs meeting in one
state would accept both cross words.  So when the sample's
``Sample.fooling_set`` has more than k pairs and ``is_fooling_set`` checks
them against the sample, the instance at k states is UNSAT, and clauses
added after encoding only remove models.  ``solve_in_process`` answers
that with zero counters and the pairs as its certificate.  The DIMACS and
external routes always search: they are how a user checks the bundled
solver, and a DIMACS file carries no sample.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from itertools import chain, combinations
from pathlib import Path
from typing import Iterable, Sequence

from . import cdcl
from .cnf import CnfError, CnfInstance, final_var, trans_var, parse_dimacs, write_dimacs
from .nfa import Nfa
from .sample import Sample, Word

SAT = cdcl.SAT
UNSAT = cdcl.UNSAT
UNKNOWN = cdcl.UNKNOWN

DEFAULT_TIMEOUT_SECONDS = 600.0
# the longest wait subprocess takes: poll counts milliseconds in a C int
_LONGEST_WAIT_SECONDS = 2_147_483.0
COUNTERS = ("decisions", "conflicts", "propagations")
# "c decisions 17" as nfasat-solve prints it, "decisions : 17" as MiniSat does
COUNTER_PATTERN = re.compile(r"(decisions|conflicts|propagations)\s*[:=]?\s*(\d+)", re.IGNORECASE)


class SolverError(RuntimeError):
    """Solver process crashed or produced unparseable output."""


@dataclass
class SolveOutcome:
    """A solver's verdict; a counter is None when a solver process does not print it.

    certificate is the fooling set that settled an UNSAT without a search.
    """

    status: str
    assignment: dict[int, bool] | None
    decisions: int | None
    solve_seconds: float
    conflicts: int | None = None
    propagations: int | None = None
    certificate: tuple[tuple[Word, Word], ...] | None = None


def _child_env() -> dict[str, str]:
    """PYTHONPATH led by the directory nfasat came from, so ``-m nfasat...`` works
    from a source checkout too."""
    path = [str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def _render_command(template: str, cnf_path: str, timeout_seconds: float | None) -> list[str]:
    """argv of a solver template; a None timeout (no limit) cannot fill ``{timeout}``."""
    try:
        argv = shlex.split(template)
    except ValueError as err:  # an unbalanced quote or a trailing backslash
        raise SolverError(f"solver template {template!r}: {err}") from err
    rendered = []
    for part in argv:
        if "{timeout}" in part:
            if timeout_seconds is None:
                raise ValueError(f"{{timeout}} in {template!r} needs a timeout, got None")
            part = part.replace("{timeout}", repr(float(timeout_seconds)))
        rendered.append(part.replace("{cnf}", cnf_path))
    if not any("{cnf}" in part for part in argv):
        rendered.append(cnf_path)
    return rendered


def _parse_solver_output(text: str) -> tuple[str, list[int], dict[str, int | None]]:
    status = None
    literals: list[int] = []
    for line in text.splitlines():
        if line.startswith("s "):
            verdict = line[2:].strip().upper()
            if verdict == "SATISFIABLE":
                status = SAT
            elif verdict == "UNSATISFIABLE":
                status = UNSAT
            else:
                status = UNKNOWN
        elif line.startswith("v "):
            for tok in line[2:].split():
                try:
                    lit = int(tok)
                except ValueError:
                    raise SolverError(f"bad literal {tok!r} on a solver 'v' line") from None
                if lit != 0:
                    literals.append(lit)
    counters: dict[str, int | None] = dict.fromkeys(COUNTERS)
    for match in COUNTER_PATTERN.finditer(text):
        name = match.group(1).lower()
        if counters[name] is None:
            counters[name] = int(match.group(2))
    if status is None:
        last = next((line.strip() for line in reversed(text.splitlines()) if line.strip()), "")
        raise SolverError(
            "no 's' status line in solver output" + (f"; it ended with: {last}" if last else "")
        )
    if status == SAT and not literals:
        raise SolverError("solver reported SATISFIABLE without any 'v' model lines")
    return status, literals, counters


def _check_timeout(timeout_seconds: float | None) -> None:
    if timeout_seconds is not None and not timeout_seconds >= 0:  # also catches nan
        raise ValueError(f"timeout must be a number of seconds >= 0, got {timeout_seconds}")


def _solve_clauses(
    var_count: int, clauses: Iterable, timeout_seconds: float | None, start: float,
    decided_by: int = 0, solver_vars: int = 0,
) -> SolveOutcome:
    """Run the bundled CDCL core; a SAT assignment covers 1..var_count.

    start is the perf_counter time the solve began, for its time and
    deadline.  decided_by is the solver's stop rule (0 searches until every
    variable is set); solver_vars, if above var_count, also counts the
    clauses' own variables above it.  The caller vouches for every literal's
    range.
    """
    deadline = start + timeout_seconds if timeout_seconds is not None else None
    solver = cdcl.CdclSolver(max(var_count, solver_vars), clauses, checked=True)
    status, model, decisions = solver.solve(deadline, decided_by)
    elapsed = time.perf_counter() - start
    assignment = {v: model[v] for v in range(1, var_count + 1)} if status == SAT else None
    return SolveOutcome(status, assignment, decisions, elapsed, solver.conflicts, solver.propagations)


def solve_dimacs_file(
    cnf_path: str | Path,
    solver_cmd: str | None = None,
    timeout_seconds: float | None = DEFAULT_TIMEOUT_SECONDS,
) -> SolveOutcome:
    """Solve a DIMACS file: in-process by default, or by running solver_cmd.

    A None timeout means no limit (``{timeout}`` in solver_cmd then raises
    ValueError), and a negative or nan one raises ValueError; past
    ``_LONGEST_WAIT_SECONDS`` (inf too) a process runs unlimited, with the
    value in ``{timeout}``.  In-process, a bad file raises OSError or CnfError,
    and a SAT assignment stops at the largest variable the clauses name.
    """
    _check_timeout(timeout_seconds)
    if solver_cmd is None:
        try:
            with open(cnf_path) as stream:
                clauses = parse_dimacs(stream)[1]
        except UnicodeDecodeError as err:
            raise CnfError(f"{cnf_path} is not UTF-8 text: {err}") from err
        top = max(map(abs, chain.from_iterable(clauses)), default=0)
        return _solve_clauses(top, clauses, timeout_seconds, time.perf_counter())
    argv = _render_command(solver_cmd, str(cnf_path), timeout_seconds)
    if timeout_seconds is not None and timeout_seconds > _LONGEST_WAIT_SECONDS:
        timeout_seconds = None
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=_child_env(), timeout=timeout_seconds
        )
    except subprocess.TimeoutExpired:
        return SolveOutcome(UNKNOWN, None, None, time.perf_counter() - start)
    except OSError as exc:
        raise SolverError(f"failed to run solver {argv!r}: {exc}") from exc
    elapsed = time.perf_counter() - start
    output = proc.stdout + "\n" + proc.stderr
    status, literals, counters = _parse_solver_output(output)
    assignment = None
    if status == SAT:
        assignment = {abs(lit): lit > 0 for lit in literals}
    return SolveOutcome(status, assignment, solve_seconds=elapsed, **counters)


def solve_external(
    instance: CnfInstance,
    solver_cmd: str,
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS,
) -> SolveOutcome:
    """Write the instance to DIMACS, run the solver_cmd process, parse the result.

    Variables the solver leaves unmentioned default to false, so the returned
    assignment always covers variables 1..var_count.
    """
    with tempfile.TemporaryDirectory(prefix="nfasat-") as tmp:
        cnf_path = Path(tmp) / "instance.cnf"
        with open(cnf_path, "w") as sink:
            write_dimacs(instance, sink)
        outcome = solve_dimacs_file(cnf_path, solver_cmd, timeout_seconds)
    if outcome.assignment is not None:
        for var in range(1, instance.var_count + 1):
            outcome.assignment.setdefault(var, False)
    return outcome


def lex_leader(instance: CnfInstance) -> tuple[int, list[tuple[int, ...]]]:
    """Solver variable count and clauses of a lex-leader predicate
    (Crawford, Ginsberg, Luks & Roy, KR 1996); none unless the instance has
    a decision block and k >= 3.

    Renumbering states 2..k only reorders their columns (final j,
    trans(0, 1, j), ..., trans(n-1, 1, j)).  Each adjacent pair (x, y)
    gets x <= y in lex order: (-e[t-1], -x[t], y[t]) per position t, and
    for t <= n a fresh "equal up to t" e[t] with (-e[t-1], -x[t], e[t])
    and (-e[t-1], y[t], e[t]); e[0] is true and dropped.  Renumbering keeps
    an NFA consistent, so the verdict stays.  The block still decides: each
    e[t] lies above it, is true where a fixpoint forces it, and read as
    false where unassigned satisfies each clause it is in (one not yet true
    also holds an unassigned -e[t-1]).
    """
    k, n, top = instance.k, instance.n, instance.var_count
    if not instance.decision_block or k < 3:
        return top, []
    columns = [
        [j, *(instance.lookup(trans_var(a, 1, j)) for a in range(n))] for j in range(2, k + 1)
    ]
    clauses: list[tuple[int, ...]] = []
    for x, y in zip(columns, columns[1:]):
        equal: tuple[int, ...] = ()
        for t in range(n + 1):
            clauses.append((*equal, -x[t], y[t]))
            if t < n:
                top += 1
                clauses += [(*equal, -x[t], top), (*equal, y[t], top)]
                equal = (-top,)
    return top, clauses


def solve_in_process(
    instance: CnfInstance, timeout_seconds: float | None = None
) -> SolveOutcome:
    """Solve with the bundled CDCL core without leaving the process.

    First, for an encoded instance, comes the sample's fooling set: with
    more than k pairs that pass ``is_fooling_set``, it proves UNSAT (see
    the module docstring) and no solver is built.  That outcome has 0
    decisions, conflicts and propagations and the pairs as its certificate.
    Building the set counts in solve_seconds, with or without a search, and
    happens once per sample.  A set that fails the check is not trusted,
    and one ready only at the deadline is not used: the solver then
    searches, or answers as its deadline rule says, so a timeout of 0 is
    UNKNOWN unless the clauses are UNSAT at load.

    The search stops once the instance's decision block (its finals and
    transitions) is set and propagation is at a conflict-free fixpoint.  So
    a SAT assignment is exact only on finals and transitions, which are all
    that ``decode_nfa`` reads; it still covers every variable, with the
    unassigned ones read as false, as ``solve_external`` does.  The solver
    also gets the instance's ``lex_leader`` clauses, which keep the verdict
    but not the search path, so a SAT answer may be a different consistent
    NFA; neither they nor their variables reach the instance or the
    assignment.  Without a decision block there are neither, and the search
    returns a complete model.  The solver loads both without a range
    check: ``add_clauses``, the only writer of ``instance.clauses``, checked
    their ranges, and ``lex_leader`` builds its own in range.  A negative or
    nan timeout raises ValueError.
    """
    _check_timeout(timeout_seconds)
    start = time.perf_counter()
    sample = instance.sample
    if sample is not None and len(sample.fooling_set) > instance.k and is_fooling_set(sample, sample.fooling_set):
        elapsed = time.perf_counter() - start
        if timeout_seconds is None or elapsed < timeout_seconds:
            return SolveOutcome(UNSAT, None, 0, elapsed, 0, 0, sample.fooling_set)
    solver_vars, predicate = lex_leader(instance)
    return _solve_clauses(
        instance.var_count, chain(instance.clauses, predicate), timeout_seconds, start,
        instance.decision_block, solver_vars,
    )


def is_fooling_set(sample: Sample, pairs: Sequence[tuple[Word, Word]]) -> bool:
    """Each pair splits a positive word, and each two have a negative cross word.

    O(m^2) lookups in the sample, apart from the search that found the pairs.
    """
    return all(x + y in sample.positives for x, y in pairs) and all(
        x + v in sample.negatives or u + y in sample.negatives for (x, y), (u, v) in combinations(pairs, 2)
    )


def decode_nfa(assignment: dict[int, bool], instance: CnfInstance, k: int, n: int) -> Nfa:
    """Read the final-state and transition variables out of a model.

    Auxiliary variables are ignored; missing entries count as false.
    """
    finals = frozenset(
        i for i in range(1, k + 1) if assignment.get(instance.lookup(final_var(i)), False)
    )
    transitions = frozenset(
        (i, a, j)
        for a in range(n)
        for i in range(1, k + 1)
        for j in range(1, k + 1)
        if assignment.get(instance.lookup(trans_var(a, i, j)), False)
    )
    return Nfa(k=k, n=n, transitions=transitions, finals=finals)
