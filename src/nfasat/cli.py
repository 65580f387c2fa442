"""Command-line pipeline: generate, solve, infer, bench, random-sample.

Everything routes through in-memory helpers that tests drive directly; the
argparse layer only handles files and flags.  Reports are JSON on stdout,
benchmark output is a CSV with one row per (instance, model) plus cumulative
rows per model.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .cnf import CnfError, CnfInstance, dimacs_text
from .encoders import BudgetExceededError, DEFAULT_LITERAL_BUDGET, ModelKind, encode
from .nfa import nfa_to_dot, nfa_to_json, verify
from .sample import (
    Sample,
    SampleError,
    SplitAssignment,
    all_prefix_cuts,
    all_suffix_cuts,
    format_sample,
    parse_sample,
    word_from_text,
    word_to_text,
)
from .solver import (
    DEFAULT_TIMEOUT_SECONDS,
    SAT,
    SolverError,
    decode_nfa,
    solve_dimacs_file,
    solve_external,
    solve_in_process,
)
from .splitopt import (
    GaParams,
    IlsParams,
    OptResult,
    fitness,
    ga_optimize,
    ils_optimize,
    spearman_rho,
    write_trace_csv,
)

CSV_FIELDS = [
    "instance",
    "model",
    "k",
    "seed",
    "runs_completed",
    "vars",
    "clauses",
    "t_m_seconds",
    "status",
    "decisions",
    "t_s_seconds",
    "t_t_seconds",
]


class InferenceError(RuntimeError):
    """A decoded NFA failed verification against its sample; encoder bug."""


@dataclass
class RunReport:
    instance: str
    model: str
    k: int
    seed: int | None = None
    vars: int | None = None
    clauses: int | None = None
    t_m_seconds: float | None = None
    status: str | None = None
    decisions: int | None = None
    t_s_seconds: float | None = None
    fitness: int | None = None
    runs_completed: int = 1

    @property
    def t_t_seconds(self) -> float | None:
        if self.t_m_seconds is None and self.t_s_seconds is None:
            return None
        return (self.t_m_seconds or 0.0) + (self.t_s_seconds or 0.0)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["t_t_seconds"] = self.t_t_seconds
        return data

    def comparable_dict(self) -> dict:
        """Report content with timing fields removed, for determinism checks."""
        data = self.to_dict()
        for key in ("t_m_seconds", "t_s_seconds", "t_t_seconds"):
            data.pop(key)
        return data


def load_optimizer_config(path: str | None) -> tuple[IlsParams | None, GaParams | None]:
    """Optional JSON config overriding optimizer defaults.

    Shape: {"ils": {"max_iter": ..., "max_iter_without_improv": ...},
            "ga": {"population_size": ..., "max_gen": ..., "p_mut": ..., ...}}
    """
    if path is None:
        return None, None
    raw = json.loads(Path(path).read_text())
    ils = IlsParams(**raw["ils"]) if "ils" in raw else None
    ga = GaParams(**raw["ga"]) if "ga" in raw else None
    return ils, ga


def resolve_cuts(
    sample: Sample,
    source: str,
    k: int,
    seed: int,
    ils_params: IlsParams | None = None,
    ga_params: GaParams | None = None,
) -> tuple[SplitAssignment, int, OptResult | None]:
    """Build a split assignment from a cuts source string.

    Sources: 'prefix', 'suffix', 'ils', 'ga', or 'file:<path>' with a JSON
    object mapping word text to cut index.  Returns (cuts, fitness, optimizer
    result when one ran).
    """
    if source == "prefix":
        cuts = all_prefix_cuts(sample)
    elif source == "suffix":
        cuts = all_suffix_cuts(sample)
    elif source == "ils":
        result = ils_optimize(sample, k, replace(ils_params or IlsParams(), rng_seed=seed))
        return result.cuts, result.best_fitness, result
    elif source == "ga":
        result = ga_optimize(sample, k, replace(ga_params or GaParams(), rng_seed=seed))
        return result.cuts, result.best_fitness, result
    elif source.startswith("file:"):
        path = source[len("file:") :]
        raw = json.loads(Path(path).read_text())
        cuts = {word_from_text(text): cut for text, cut in raw.items()}
    else:
        raise SampleError(
            f"unknown cuts source {source!r}; expected prefix, suffix, ils, ga, or file:<path>"
        )
    return cuts, fitness(sample, k, cuts), None


def generate_instance(
    sample: Sample,
    model: ModelKind,
    k: int,
    cuts_source: str = "prefix",
    seed: int = 0,
    literal_budget: int = DEFAULT_LITERAL_BUDGET,
    instance_name: str = "sample",
    ils_params: IlsParams | None = None,
    ga_params: GaParams | None = None,
) -> tuple[CnfInstance, RunReport, OptResult | None]:
    """Encode a sample, timing split optimization as part of generation."""
    start = time.perf_counter()
    cuts = None
    fitness_val = None
    opt_result = None
    if model == ModelKind.HYBRID:
        cuts, fitness_val, opt_result = resolve_cuts(
            sample, cuts_source, k, seed, ils_params, ga_params
        )
    instance = encode(model, sample, k, cuts, literal_budget)
    elapsed = time.perf_counter() - start
    report = RunReport(
        instance=instance_name,
        model=model.value,
        k=k,
        seed=seed,
        vars=instance.var_count,
        clauses=instance.clause_count(),
        t_m_seconds=elapsed,
        fitness=fitness_val,
    )
    return instance, report, opt_result


def infer(
    sample: Sample,
    model: ModelKind,
    k: int,
    cuts_source: str = "prefix",
    seed: int = 0,
    solver_cmd: str | None = None,
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS,
    literal_budget: int = DEFAULT_LITERAL_BUDGET,
    instance_name: str = "sample",
    use_external: bool = False,
    ils_params: IlsParams | None = None,
    ga_params: GaParams | None = None,
):
    """generate -> solve -> decode -> verify; returns (report, nfa or None)."""
    instance, report, _ = generate_instance(
        sample, model, k, cuts_source, seed, literal_budget, instance_name,
        ils_params, ga_params,
    )
    if use_external or solver_cmd is not None:
        outcome = solve_external(instance, solver_cmd, timeout_seconds)
    else:
        outcome = solve_in_process(instance, timeout_seconds)
    report.status = outcome.status
    report.decisions = outcome.decisions
    report.t_s_seconds = outcome.solve_seconds
    nfa = None
    if outcome.status == SAT:
        assert outcome.assignment is not None
        nfa = decode_nfa(outcome.assignment, instance, k, sample.alphabet_size)
        check = verify(nfa, sample)
        if not check.ok:
            bad = ", ".join(
                f"{word_to_text(w, sample.alphabet_size) or '<empty>'} ({polarity})"
                for w, polarity in check.counterexamples
            )
            raise InferenceError(
                f"decoded NFA contradicts the sample on: {bad}; "
                "this indicates an encoding bug"
            )
    return report, nfa


# ---------------------------------------------------------------------------
# Benchmark harness.
# ---------------------------------------------------------------------------

BENCH_MODELS = ("dm", "pm", "sm", "hm-prefix", "hm-suffix", "hm-ils", "hm-ga")
STOCHASTIC_MODELS = ("hm-ils", "hm-ga")
GENERATION_CREDIT_SECONDS = 600.0


def _bench_model_parts(label: str) -> tuple[ModelKind, str]:
    if label.startswith("hm-"):
        return ModelKind.HYBRID, label[len("hm-") :]
    return ModelKind.parse(label), "prefix"


def bench_one(
    sample: Sample,
    label: str,
    k: int,
    run_index: int,
    base_seed: int,
    solver_cmd: str | None,
    timeout_seconds: float,
    literal_budget: int,
    instance_name: str,
    use_external: bool,
    ils_params: IlsParams | None = None,
    ga_params: GaParams | None = None,
) -> RunReport:
    model, cuts_source = _bench_model_parts(label)
    seed = base_seed + run_index
    try:
        report, _ = infer(
            sample, model, k, cuts_source, seed, solver_cmd, timeout_seconds,
            literal_budget, instance_name, use_external, ils_params, ga_params,
        )
    except BudgetExceededError:
        return RunReport(
            instance=instance_name, model=label, k=k, seed=seed, status="GENFAIL"
        )
    report.model = label
    return report


def _mean(values: list[float]) -> float | None:
    values = [v for v in values if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


def aggregate_runs(reports: list[RunReport]) -> RunReport:
    """Average a run series into one row; means skip failed runs."""
    first = reports[0]
    statuses = {r.status for r in reports}
    status = statuses.pop() if len(statuses) == 1 else "MIXED"
    completed = sum(1 for r in reports if r.status not in ("GENFAIL", "UNKNOWN"))
    agg = RunReport(
        instance=first.instance,
        model=first.model,
        k=first.k,
        seed=first.seed,
        runs_completed=completed,
        status=status,
    )
    agg.vars = _mean([r.vars for r in reports])
    agg.clauses = _mean([r.clauses for r in reports])
    agg.t_m_seconds = _mean([r.t_m_seconds for r in reports])
    agg.decisions = _mean([r.decisions for r in reports])
    agg.t_s_seconds = _mean([r.t_s_seconds for r in reports])
    agg.fitness = _mean([r.fitness for r in reports])
    return agg


def cumulative_rows(rows: list[RunReport], models: list[str]) -> list[RunReport]:
    """Per-model totals with the standard substitution rules.

    Failed generation earns a 600 s generation-time credit; any other missing
    column value is replaced by the maximum the remaining models needed on
    that instance.
    """
    by_instance: dict[str, list[RunReport]] = {}
    for row in rows:
        by_instance.setdefault(row.instance, []).append(row)

    def substituted(row: RunReport, attr: str) -> float:
        value = getattr(row, attr)
        if value is not None:
            return value
        if attr == "t_m_seconds":
            return GENERATION_CREDIT_SECONDS
        peers = [
            getattr(peer, attr)
            for peer in by_instance[row.instance]
            if getattr(peer, attr) is not None
        ]
        return max(peers) if peers else 0.0

    out = []
    for model in models:
        model_rows = [r for r in rows if r.model == model]
        if not model_rows:
            continue
        total = RunReport(instance="CUMULATIVE", model=model, k=0, status="-")
        total.vars = sum(substituted(r, "vars") for r in model_rows)
        total.clauses = sum(substituted(r, "clauses") for r in model_rows)
        total.t_m_seconds = sum(substituted(r, "t_m_seconds") for r in model_rows)
        total.decisions = sum(substituted(r, "decisions") for r in model_rows)
        total.t_s_seconds = sum(substituted(r, "t_s_seconds") for r in model_rows)
        total.runs_completed = sum(r.runs_completed for r in model_rows)
        out.append(total)
    return out


def run_bench(
    samples: list[tuple[str, Sample]],
    models: list[str],
    k_of,
    runs: int,
    solver_cmd: str | None,
    timeout_seconds: float,
    literal_budget: int,
    base_seed: int,
    use_external: bool,
    log=print,
    ils_params: IlsParams | None = None,
    ga_params: GaParams | None = None,
) -> list[RunReport]:
    rows: list[RunReport] = []
    for name, sample in samples:
        k = k_of(name)
        for label in models:
            series = runs if label in STOCHASTIC_MODELS else 1
            reports = [
                bench_one(
                    sample,
                    label,
                    k,
                    run_index,
                    base_seed,
                    solver_cmd,
                    timeout_seconds,
                    literal_budget,
                    name,
                    use_external,
                    ils_params,
                    ga_params,
                )
                for run_index in range(series)
            ]
            if series >= 3:
                pairs = [
                    (r.fitness, r.vars)
                    for r in reports
                    if r.fitness is not None and r.vars is not None
                ]
                if len(pairs) >= 3:
                    rho = spearman_rho([p[0] for p in pairs], [p[1] for p in pairs])
                    log(
                        f"# spearman fitness-vs-vars {name} {label}: rho={rho:.3f} "
                        f"over {len(pairs)} runs"
                    )
            rows.append(aggregate_runs(reports) if series > 1 else reports[0])
    rows.extend(cumulative_rows(rows, models))
    return rows


def write_bench_csv(rows: list[RunReport], sink) -> None:
    writer = csv.DictWriter(sink, fieldnames=CSV_FIELDS, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.to_dict())


# ---------------------------------------------------------------------------
# Random sample generation.
# ---------------------------------------------------------------------------


def random_sample(
    n: int,
    word_count: int,
    max_len: int,
    positive_fraction: float,
    seed: int,
    attempts_per_word: int = 200,
) -> Sample:
    """Seeded random sample with disjoint positive/negative sets.

    Collisions redraw; when the word space is exhausted the sample simply
    ends up smaller than requested.  Raises only if nothing can be generated.
    """
    import random as _random

    if n < 1 or word_count < 1 or max_len < 0:
        raise ValueError("n and word_count must be positive, max_len non-negative")
    if not 0.0 <= positive_fraction <= 1.0:
        raise ValueError("positive_fraction must be in [0, 1]")
    rng = _random.Random(seed)
    target_pos = round(word_count * positive_fraction)
    positives: set = set()
    negatives: set = set()
    for index in range(word_count):
        want_positive = index < target_pos
        bucket = positives if want_positive else negatives
        other = negatives if want_positive else positives
        for _ in range(attempts_per_word):
            length = rng.randint(0, max_len)
            word = tuple(rng.randrange(n) for _ in range(length))
            if word not in bucket and word not in other:
                bucket.add(word)
                break
    if not positives and not negatives:
        raise SampleError("could not generate any words within the attempt budget")
    return Sample.build(n, positives, negatives)


# ---------------------------------------------------------------------------
# argparse wiring.
# ---------------------------------------------------------------------------


def load_sample(path: str, fmt: str) -> Sample:
    return parse_sample(Path(path).read_text(), fmt)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("plain", "abbadingo"), default="plain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-literals", type=int, default=DEFAULT_LITERAL_BUDGET)
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_SECONDS)
    p.add_argument(
        "--solver",
        default=None,
        help="external solver command template with {cnf} and {timeout} placeholders; "
        "omit to solve with the bundled solver in-process",
    )
    p.add_argument(
        "--config",
        default=None,
        help="JSON file overriding ILS/GA optimizer parameters",
    )


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(argv)
    except (
        SampleError,
        BudgetExceededError,
        InferenceError,
        SolverError,
        CnfError,
        OSError,
    ) as err:
        raise SystemExit(f"nfasat: error: {err}") from err


def _run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nfasat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="encode a sample into DIMACS CNF")
    p_gen.add_argument("sample")
    p_gen.add_argument("--model", required=True, choices=[m.value for m in ModelKind])
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--cuts", default="prefix", help="prefix|suffix|ils|ga|file:<path>")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--stats-out", default=None)
    p_gen.add_argument("--trace-out", default=None)
    _add_common_flags(p_gen)

    p_solve = sub.add_parser("solve", help="run a SAT solver on a DIMACS file")
    p_solve.add_argument("cnf")
    p_solve.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_SECONDS)
    p_solve.add_argument("--solver", default=None)

    p_infer = sub.add_parser("infer", help="generate, solve, decode, and verify")
    p_infer.add_argument("sample")
    p_infer.add_argument("--model", required=True, choices=[m.value for m in ModelKind])
    p_infer.add_argument("--k", type=int, required=True)
    p_infer.add_argument(
        "--k-max",
        type=int,
        default=None,
        help="try k, k+1, ... up to this bound and keep the first satisfiable size",
    )
    p_infer.add_argument("--cuts", default="prefix")
    p_infer.add_argument("--nfa-out", default=None)
    p_infer.add_argument("--dot-out", default=None)
    _add_common_flags(p_infer)

    p_bench = sub.add_parser("bench", help="compare models over a sample directory")
    p_bench.add_argument("sample_dir")
    p_bench.add_argument("--models", default="pm,sm,hm-ils")
    p_bench.add_argument("--k", type=int, default=None, help="state count for every instance")
    p_bench.add_argument(
        "--k-map", default=None, help="JSON file mapping instance name to state count"
    )
    p_bench.add_argument("--runs", type=int, default=30)
    p_bench.add_argument("--glob", default="*.txt")
    p_bench.add_argument("--out-csv", required=True)
    _add_common_flags(p_bench)

    p_rand = sub.add_parser("random-sample", help="emit a reproducible random sample")
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--words", type=int, required=True)
    p_rand.add_argument("--max-len", type=int, required=True)
    p_rand.add_argument("--positive-fraction", type=float, default=0.5)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    if args.command == "generate":
        sample = load_sample(args.sample, args.format)
        model = ModelKind.parse(args.model)
        ils_params, ga_params = load_optimizer_config(args.config)
        instance, report, opt_result = generate_instance(
            sample,
            model,
            args.k,
            args.cuts,
            args.seed,
            args.budget_literals,
            instance_name=Path(args.sample).stem,
            ils_params=ils_params,
            ga_params=ga_params,
        )
        Path(args.out).write_text(dimacs_text(instance))
        stats_path = args.stats_out or args.out + ".stats.json"
        stats = instance.stats_dict()
        stats["generation_seconds"] = report.t_m_seconds
        Path(stats_path).write_text(json.dumps(stats, indent=2) + "\n")
        if args.trace_out and opt_result is not None:
            with open(args.trace_out, "w") as sink:
                write_trace_csv(opt_result.trace, sink)
        print(json.dumps(report.to_dict(), indent=2))
        return 0

    if args.command == "solve":
        outcome = solve_dimacs_file(args.cnf, args.solver, args.timeout)
        report = RunReport(
            instance=Path(args.cnf).stem,
            model="-",
            k=0,
            status=outcome.status,
            decisions=outcome.decisions,
            t_s_seconds=outcome.solve_seconds,
        )
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if outcome.status != "UNKNOWN" else 1

    if args.command == "infer":
        sample = load_sample(args.sample, args.format)
        model = ModelKind.parse(args.model)
        ils_params, ga_params = load_optimizer_config(args.config)
        k_values = range(args.k, (args.k_max or args.k) + 1)
        report = nfa = None
        for k in k_values:
            report, nfa = infer(
                sample,
                model,
                k,
                args.cuts,
                args.seed,
                args.solver,
                args.timeout,
                args.budget_literals,
                instance_name=Path(args.sample).stem,
                ils_params=ils_params,
                ga_params=ga_params,
            )
            if report.status == "SAT":
                break
        print(json.dumps(report.to_dict(), indent=2))
        if nfa is not None:
            payload = nfa_to_json(nfa)
            if args.nfa_out:
                Path(args.nfa_out).write_text(payload)
            else:
                print(payload, end="")
            if args.dot_out:
                Path(args.dot_out).write_text(nfa_to_dot(nfa))
        return 0

    if args.command == "bench":
        sample_paths = sorted(Path(args.sample_dir).glob(args.glob))
        if not sample_paths:
            parser.error(f"no samples matching {args.glob!r} in {args.sample_dir}")
        samples = [(p.stem, load_sample(str(p), args.format)) for p in sample_paths]
        ils_params, ga_params = load_optimizer_config(args.config)
        models = [m.strip() for m in args.models.split(",") if m.strip()]
        for label in models:
            if label not in BENCH_MODELS:
                parser.error(f"unknown bench model {label!r}; choose from {BENCH_MODELS}")
        if args.k_map:
            k_table = json.loads(Path(args.k_map).read_text())
            k_of = lambda name: int(k_table[name])
        elif args.k:
            k_of = lambda name: args.k
        else:
            parser.error("bench requires --k or --k-map")
        rows = run_bench(
            samples,
            models,
            k_of,
            args.runs,
            args.solver,
            args.timeout,
            args.budget_literals,
            args.seed,
            use_external=args.solver is not None,
            ils_params=ils_params,
            ga_params=ga_params,
        )
        with open(args.out_csv, "w", newline="") as sink:
            write_bench_csv(rows, sink)
        print(f"wrote {len(rows)} rows to {args.out_csv}")
        return 0

    if args.command == "random-sample":
        sample = random_sample(
            args.n, args.words, args.max_len, args.positive_fraction, args.seed
        )
        Path(args.out).write_text(format_sample(sample))
        print(f"wrote {len(sample.positives)}+{len(sample.negatives)} words to {args.out}")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
