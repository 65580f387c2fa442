"""Command-line DIMACS CNF solver: prints what ``solve_dimacs_file`` finds.

Prints SAT-competition style output ("s ..." verdict, "v ..." model lines,
"c decisions N", "c conflicts N", "c propagations N") so the external-solver
bridge can drive it like any other solver.  Exit codes follow convention:
10 satisfiable, 20 unsatisfiable, 0 otherwise; an unreadable, non-UTF-8 or
malformed input file or a timeout that is negative or not a number prints one
"nfasat-solve: error: ..." line and exits 1.
"""

from __future__ import annotations

import argparse
import sys

from .cnf import CnfError
from .solver import SAT, UNSAT, solve_dimacs_file


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
        outcome = solve_dimacs_file(args.cnf, None, args.timeout)
    except (CnfError, OSError) as err:
        print(f"nfasat-solve: error: {err}", file=sys.stderr)
        return 1

    print("c nfasat bundled CDCL solver")
    print(f"c decisions {outcome.decisions}")
    print(f"c conflicts {outcome.conflicts}")
    print(f"c propagations {outcome.propagations}")
    if outcome.status == SAT:
        print("s SATISFIABLE")
        assert outcome.assignment is not None
        lits = [v if value else -v for v, value in outcome.assignment.items()]
        for start in range(0, len(lits), 32):
            chunk = lits[start : start + 32]
            tail = " 0" if start + 32 >= len(lits) else ""
            print("v " + " ".join(str(lit) for lit in chunk) + tail)
        if not lits:
            print("v 0")
        return 10
    if outcome.status == UNSAT:
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
