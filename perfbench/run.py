"""Seeded end-to-end and per-layer benchmark for nfasat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up generates the workload's corpus from the seed and writes it
as plain-format sample files, which are all the program receives.

Every pass over the task list starts with a fresh import of the program, so
it runs cold, as a command-line user's call does, and only whole passes are
measured.  With ``--trace 0`` the run makes passes while the next one is
expected to end within ``S`` seconds (at least one) and reports the
end-to-end metrics.  With ``--trace 1`` it makes an untraced pass, one traced
pass, in which every layer call is a span, and one more untraced pass, and
reports the per-layer metrics of the traced pass, the self time of each layer
and the tracing overhead.  Every task's verdict is checked in both modes.
The last line of standard output is the result as one JSON object; the line
before it is a report with the environment and the figures that are not
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import kernel_seconds, scaled
from spans import ORCHESTRATION, Tracer
from workloads import WORKLOADS, planted_problems, run_task, task_problems, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_REPEATS = 15

LAYERS = ("sample", "splitopt", "encoders", "cnf", "cdcl", "solver", "nfa")
CLAUSE_FAMILIES = (
    "empty_word_unit",
    "prefix_rec_bin_prev", "prefix_rec_bin_trans", "prefix_rec_ternary", "prefix_rec_choice", "prefix_rec_bin_out",
    "suffix_rec_bin_tail", "suffix_rec_bin_trans", "suffix_rec_ternary", "suffix_rec_choice", "suffix_rec_bin_out",
    "accept_bin", "accept_ternary", "accept_choice", "reject_bin",
    "link_bin", "link_reverse", "link_choice", "link_reject_ternary",
    "other",
)
VAR_FAMILIES = (
    "final", "transition", "prefix_path", "suffix_path",
    "accept_aux", "prefix_rec_aux", "suffix_rec_aux", "link_aux",
    "other",
)
OPT_MODELS = ("hm-ils", "hm-ga")
ENCODE_MODELS = ("pm", "sm", "hm-ils", "hm-ga")
SOLVE_MODELS = ("pm", "sm", "hm-ils")


END_TO_END_UNITS = {"wall_s": "s", "task_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    units = {"sample.parse_s": "s"}
    for m in OPT_MODELS:
        units |= {f"splitopt.optimize_s.{m}": "s", f"splitopt.steps.{m}": "count",
                  f"splitopt.fitness.{m}": "count", f"splitopt.improve_ratio.{m}": "ratio"}
    for m in ENCODE_MODELS:
        units |= {f"encoders.encode_s.{m}": "s", f"encoders.vars.{m}": "count",
                  f"encoders.clauses.{m}": "count", f"encoders.literals.{m}": "count"}
    units |= {f"encoders.clauses.{f}": "count" for f in CLAUSE_FAMILIES}
    units |= {f"encoders.vars.{f}": "count" for f in VAR_FAMILIES}
    units |= {"cnf.write_s": "s", "cnf.parse_s": "s", "cnf.dimacs_bytes": "bytes"}
    for m in SOLVE_MODELS:
        units |= {f"cdcl.solve_s.{m}": "s", f"cdcl.decisions.{m}": "count"}
    units |= {"cdcl.sat_s": "s", "cdcl.unsat_s": "s", "cdcl.calls": "count", "cdcl.unknown": "count"}
    units |= {"solver.decode_s": "s", "nfa.verify_s": "s"}
    units |= {f"trace.self_s.{layer}": "s" for layer in LAYERS + (ORCHESTRATION,)}
    units |= {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_frac": "ratio", "trace.spans": "count"}
    return units


def import_program():
    """Import nfasat afresh from the checkout's src/, never from elsewhere."""
    if not (SRC / "nfasat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: error: no program source under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "nfasat" or m.startswith("nfasat.")]:
        del sys.modules[name]
    return importlib.import_module("nfasat")


def setup(spec, seed: int, corpus_dir: Path):
    """Import plus corpus generation and file writing, repeated.

    Returns the median scaled and the median measured time of a repetition.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = kernel_seconds()
        start = time.perf_counter()
        import_program()
        corpus = spec.corpus(seed)
        corpus_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for sample in corpus:
            path = corpus_dir / f"{sample.name}.txt"
            path.write_text(sample.plain_text())
            paths.append(path)
        elapsed = time.perf_counter() - start
        times.append((scaled(elapsed, before, kernel_seconds()), elapsed))
    return corpus, paths, *(statistics.median(t) for t in zip(*times))


class LayerStats:
    """Per-layer counts and traced times, summed over one pass."""

    def __init__(self) -> None:
        self.values = {name: 0 for name in per_layer_units()}
        self.improving = dict.fromkeys(OPT_MODELS, 0)

    def add(self, result) -> None:
        v, m = self.values, result.model
        v["sample.parse_s"] += result.parse_s
        for step in result.steps:
            if step.opt is not None:
                trace = step.opt.trace
                v[f"splitopt.optimize_s.{m}"] += step.seconds["splitopt"]
                v[f"splitopt.steps.{m}"] += len(trace) - 1
                v[f"splitopt.fitness.{m}"] += step.opt.best_fitness
                self.improving[m] += sum(b.best_fitness < a.best_fitness for a, b in zip(trace, trace[1:]))
            inst = step.instance
            v[f"encoders.encode_s.{m}"] += step.seconds["encoders"]
            v[f"encoders.vars.{m}"] += inst.var_count
            v[f"encoders.clauses.{m}"] += inst.clause_count()
            v[f"encoders.literals.{m}"] += inst.literal_count()
            for family, count in inst.family_clause_counts().items():
                v[f"encoders.clauses.{family if family in CLAUSE_FAMILIES else 'other'}"] += count
            for family, count in inst.var_family_counts.items():
                v[f"encoders.vars.{family if family in VAR_FAMILIES else 'other'}"] += count
            if step.parsed is not None:
                v["cnf.write_s"] += step.seconds["cnf.write"]
                v["cnf.parse_s"] += step.seconds["cnf.parse"]
                v["cnf.dimacs_bytes"] += step.dimacs_bytes
            if step.outcome is not None:
                status = step.outcome.status
                v[f"cdcl.solve_s.{m}"] += step.seconds["cdcl"]
                v[f"cdcl.decisions.{m}"] += step.outcome.decisions or 0
                v["cdcl.calls"] += 1
                v["cdcl.unknown"] += status == "UNKNOWN"
                if status in ("SAT", "UNSAT"):
                    v[f"cdcl.{status.lower()}_s"] += step.seconds["cdcl"]
            if step.nfa is not None:
                v["solver.decode_s"] += step.seconds["solver"]
                v["nfa.verify_s"] += step.seconds["nfa"]

    def finish(self) -> dict:
        for m in OPT_MODELS:
            steps = self.values[f"splitopt.steps.{m}"]
            self.values[f"splitopt.improve_ratio.{m}"] = self.improving[m] / steps if steps else 0.0
        return self.values


class Runner:
    def __init__(self, spec, corpus, paths, scratch: Path) -> None:
        self.api, self.spec, self.scratch = None, spec, scratch
        self.groups = list(zip(corpus, paths))
        self.times = {(s.name, m): [] for s in corpus for m in spec.models}  # (scaled, measured)
        self.kernels: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer: Tracer, stats: LayerStats | None = None) -> tuple[float, float]:
        """One cold pass over the task list; returns the summed measured and scaled task time.

        The program is imported afresh first, outside the timers, so no state
        of an earlier pass (such as ``sample._WORD_CACHE``) carries over.
        Verdicts are checked after each sample's models have run, outside the
        task timers.
        """
        self.api = import_program()
        total = total_scaled = 0.0
        for sample, path in self.groups:
            results = []
            for model in self.spec.models:
                before = kernel_seconds()
                start = time.perf_counter()
                with tracer.span("task", task=f"{sample.name}/{model}"):
                    try:
                        result = run_task(self.api, tracer, self.spec, sample, path, model, self.scratch)
                    except Exception as exc:  # a crash in the program is a failed task
                        result = f"{sample.name}/{model}: {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                after = kernel_seconds()
                total += elapsed
                total_scaled += scaled(elapsed, before, after)
                self.kernels += [before, after]
                self.times[(sample.name, model)].append((scaled(elapsed, before, after), elapsed))
                results.append(result)
                if stats is not None and not isinstance(result, str):
                    stats.add(result)
            self._check(results, tracer.enabled)
        return total, total_scaled

    def _check(self, results, planted: bool) -> None:
        ran = [r for r in results if not isinstance(r, str)]
        bad = [r for r in results if isinstance(r, str)]
        failed_tasks = len(bad)
        verdicts = {verdict(r) for r in ran}
        for result in ran:
            found = task_problems(result, self.spec)
            if planted and result.sample.target is not None:
                found += planted_problems(self.api, result)
            if len(verdicts) > 1:
                found.append(f"models disagree: {sorted(map(str, verdicts))}")
            if found:
                failed_tasks += 1
                bad += [f"{result.sample.name}/{result.model}: {p}" for p in found]
        self.attempted += len(results)
        self.failed += failed_tasks
        self.problems += bad

    def task_medians(self, column: int) -> list[float]:
        """Each task's median over the passes: column 0 scaled, 1 measured."""
        return [statistics.median(t[column] for t in runs) for runs in self.times.values() if runs]


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced cold passes while the next is expected to end in time; end-to-end figures."""
    tracer = Tracer(enabled=False)
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        runner.run_pass(tracer)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    medians, measured = runner.task_medians(0), runner.task_medians(1)
    metrics = {"wall_s": sum(medians), "task_p50_s": statistics.median(medians)}
    info = {
        "passes": passes,
        "passes_run": "cold, whole",
        "tasks": len(medians),
        "measured_wall_s": sum(measured),
        "measured_task_p50_s": statistics.median(measured),
        "kernel_ms": 1000 * statistics.median(runner.kernels),
    }
    if len(medians) >= 100:  # at least ten tasks lie beyond the 90th percentile
        info["task_p90_s"] = statistics.quantiles(medians, n=10)[-1]
    return metrics, info


def measure_traced(runner: Runner, trace_path: Path) -> tuple[dict, dict]:
    """An untraced pass, a traced pass, then an untraced pass, all cold.

    The first pass takes the process's own first-time costs, so the ratio of
    the scaled times of the last two passes is the tracing overhead.
    """
    runner.run_pass(Tracer(enabled=False))
    tracer = Tracer(enabled=True)
    stats = LayerStats()
    traced_wall, traced_scaled = runner.run_pass(tracer, stats=stats)
    untraced_wall, untraced_scaled = runner.run_pass(Tracer(enabled=False))
    metrics = stats.finish()
    self_times = tracer.self_times()
    for layer in LAYERS + (ORCHESTRATION,):
        metrics[f"trace.self_s.{layer}"] = self_times.get(layer, 0.0)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = traced_scaled / untraced_scaled - 1.0
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write(trace_path)
    info = {"passes": 3, "passes_run": "cold, whole; the first untraced", "tasks": len(runner.times),
            "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    run_dir = WORK / f"{spec.name}-s{args.seed}-{os.getpid()}"
    try:
        corpus, paths, setup_s, measured_setup_s = setup(spec, args.seed, run_dir / "samples")
        runner = Runner(spec, corpus, paths, run_dir)
        if args.trace:
            trace_path = WORK / f"trace-{spec.name}-s{args.seed}.json"
            values, info = measure_traced(runner, trace_path)
            units = per_layer_units()
        else:
            values, info = measure(runner, args.seconds)
            values["setup_s"] = setup_s
            info["measured_setup_s"] = measured_setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = runner.problems
    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    import numpy

    report = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(corpus),
        "models": list(spec.models),
        "failed_frac": runner.failed / runner.attempted,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **info,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
