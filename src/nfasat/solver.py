"""Bridge CNF instances to SAT solvers and decode models into NFAs.

The default route shells out to a DIMACS-consuming solver process and parses
competition-format output; the bundled CDCL solver doubles as that process
when no real solver is installed.  An in-process route runs the same CDCL
core without the subprocess round trip, which matters when solving many
thousands of small instances.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from . import cdcl
from .cnf import CnfInstance, final_var, trans_var, write_dimacs
from .nfa import Nfa

SAT = cdcl.SAT
UNSAT = cdcl.UNSAT
UNKNOWN = cdcl.UNKNOWN

DEFAULT_TIMEOUT_SECONDS = 600.0
DECISION_PATTERN = r"decisions\s*[:=]?\s*(\d+)"


class SolverError(RuntimeError):
    """Solver process crashed or produced unparseable output."""


@dataclass
class SolveOutcome:
    """A solver's verdict; conflicts and propagations are None on the external route."""

    status: str
    assignment: dict[int, bool] | None
    decisions: int | None
    solve_seconds: float
    conflicts: int | None = None
    propagations: int | None = None


def default_solver_command() -> str:
    """Command template for the bundled solver process."""
    return f"{shlex.quote(sys.executable)} -m nfasat.dimacs_solver {{cnf}} --timeout {{timeout}}"


def _child_env() -> dict[str, str]:
    """PYTHONPATH led by the directory nfasat came from, so ``-m nfasat...`` works
    from a source checkout too."""
    path = [str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def _render_command(template: str, cnf_path: str, timeout_seconds: float) -> list[str]:
    argv = shlex.split(template)
    rendered = []
    used_path = False
    for part in argv:
        if "{cnf}" in part or "{timeout}" in part:
            part = part.replace("{cnf}", cnf_path).replace(
                "{timeout}", repr(float(timeout_seconds))
            )
            used_path = used_path or cnf_path in part
        rendered.append(part)
    if not used_path:
        rendered.append(cnf_path)
    return rendered


def _parse_solver_output(text: str) -> tuple[str, list[int], int | None]:
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
    decisions = None
    match = re.search(DECISION_PATTERN, text, re.IGNORECASE)
    if match:
        decisions = int(match.group(1))
    if status is None:
        last = next((line.strip() for line in reversed(text.splitlines()) if line.strip()), "")
        raise SolverError(
            "no 's' status line in solver output" + (f"; it ended with: {last}" if last else "")
        )
    if status == SAT and not literals:
        raise SolverError("solver reported SATISFIABLE without any 'v' model lines")
    return status, literals, decisions


def solve_dimacs_file(
    cnf_path: str | Path,
    solver_cmd: str | None = None,
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS,
) -> SolveOutcome:
    """Run a solver process on a DIMACS file and parse its output."""
    template = solver_cmd or default_solver_command()
    argv = _render_command(template, str(cnf_path), timeout_seconds)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=timeout_seconds if timeout_seconds is not None else None,
        )
    except subprocess.TimeoutExpired:
        return SolveOutcome(UNKNOWN, None, None, time.perf_counter() - start)
    except OSError as exc:
        raise SolverError(f"failed to run solver {argv!r}: {exc}") from exc
    elapsed = time.perf_counter() - start
    output = proc.stdout + "\n" + proc.stderr
    status, literals, decisions = _parse_solver_output(output)
    assignment = None
    if status == SAT:
        assignment = {abs(lit): lit > 0 for lit in literals}
    return SolveOutcome(status, assignment, decisions, elapsed)


def solve_external(
    instance: CnfInstance,
    solver_cmd: str | None = None,
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS,
) -> SolveOutcome:
    """Write the instance to DIMACS, run a solver process, parse the result.

    Variables the solver leaves unmentioned default to false, so the returned
    assignment always covers every registered variable.
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


def solve_in_process(
    instance: CnfInstance, timeout_seconds: float | None = None
) -> SolveOutcome:
    """Solve with the bundled CDCL core without leaving the process.

    The search stops once the instance's decision block (its finals and
    transitions) is set and propagation is at a conflict-free fixpoint.  So
    a SAT assignment is exact only on finals and transitions, which are all
    that ``decode_nfa`` reads; it still covers every variable, with the
    unassigned ones read as false, as ``solve_external`` does.
    """
    start = time.perf_counter()
    deadline = start + max(timeout_seconds, 0.0) if timeout_seconds is not None else None
    solver = cdcl.CdclSolver(instance.var_count, instance.clauses)
    status, model, decisions = solver.solve(deadline, instance.decision_block)
    elapsed = time.perf_counter() - start
    assignment = None
    if status == SAT:
        assert model is not None
        assignment = {v: model[v] for v in range(1, instance.var_count + 1)}
    return SolveOutcome(
        status, assignment, decisions, elapsed, solver.conflicts, solver.propagations
    )


def decode_nfa(assignment: dict[int, bool], registry: CnfInstance, k: int, n: int) -> Nfa:
    """Read the final-state and transition variables out of a model.

    Auxiliary variables are ignored; missing entries count as false.
    """
    finals = frozenset(
        i for i in range(1, k + 1) if assignment.get(registry.lookup(final_var(i)), False)
    )
    transitions = frozenset(
        (i, a, j)
        for a in range(n)
        for i in range(1, k + 1)
        for j in range(1, k + 1)
        if assignment.get(registry.lookup(trans_var(a, i, j)), False)
    )
    return Nfa(k=k, n=n, transitions=transitions, finals=finals)
