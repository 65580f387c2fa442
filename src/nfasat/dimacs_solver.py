"""Command-line DIMACS CNF solver built on the bundled CDCL core.

Prints SAT-competition style output ("s ..." verdict, "v ..." model lines,
"c decisions N", "c conflicts N", "c propagations N") so the external-solver
bridge can drive it like any other solver.  Exit codes follow convention:
10 satisfiable, 20 unsatisfiable, 0 otherwise; an unreadable or malformed
input file or a timeout that is negative or not a number prints one
"nfasat-solve: error: ..." line and exits 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .cdcl import SAT, UNSAT, CdclSolver
from .cnf import CnfError, parse_dimacs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nfasat-solve", description=__doc__)
    parser.add_argument("cnf", help="input file in DIMACS CNF format")
    parser.add_argument(
        "--timeout", type=float, default=None, help="wall-clock limit in seconds"
    )
    args = parser.parse_args(argv)

    if args.timeout is not None and not args.timeout >= 0:  # also catches nan
        message = f"--timeout must be a number of seconds >= 0, got {args.timeout}"
        print(f"nfasat-solve: error: {message}", file=sys.stderr)
        return 1
    try:
        var_count, clauses = parse_dimacs(Path(args.cnf).read_text())
    except (CnfError, OSError) as err:
        print(f"nfasat-solve: error: {err}", file=sys.stderr)
        return 1
    deadline = None
    if args.timeout is not None:
        deadline = time.perf_counter() + max(args.timeout, 0.0)
    solver = CdclSolver(var_count, clauses)
    status, model, decisions = solver.solve(deadline=deadline)

    print("c nfasat bundled CDCL solver")
    print(f"c decisions {decisions}")
    print(f"c conflicts {solver.conflicts}")
    print(f"c propagations {solver.propagations}")
    if status == SAT:
        print("s SATISFIABLE")
        assert model is not None
        lits = [v if model[v] else -v for v in range(1, var_count + 1)]
        for start in range(0, len(lits), 32):
            chunk = lits[start : start + 32]
            tail = " 0" if start + 32 >= len(lits) else ""
            print("v " + " ".join(str(lit) for lit in chunk) + tail)
        if not lits:
            print("v 0")
        return 10
    if status == UNSAT:
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
