"""Steadiness check: run the benchmark twice over a set of seeds and compare.

    python3 perfbench/steady.py [--seeds 0-9]

For each workload, two sets of runs are made, one after the other; each set
runs ``run.py`` once per seed, one run at a time.  For every end-to-end
metric it prints each set's median and its spread (the distance between the
first and third quartile as a share of the median), and how far the second
set's median moved from the first.  The benchmark is steady when every run
reports ``correct`` with no failed task and, for every metric, both spreads
and the size of the move are within the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = range(first, last + 1)
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for index in range(SETS):
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, bench["run_seconds"])
                steady &= result["correct"] and result["failed"] == 0
                runs.append(result)
                print(f"{workload} set {index + 1} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                columns.append((statistics.median(values), spread(values)))
                steady &= columns[-1][1] <= bound
            drift = columns[1][0] / columns[0][0] - 1.0
            steady &= abs(drift) <= bound
            print(f"{workload:15} {name:12} bound {bound:.2f} | "
                  + " | ".join(f"median {m:.4g} spread {s:.3f}" for m, s in columns)
                  + f" | drift {drift:+.3f}", flush=True)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
