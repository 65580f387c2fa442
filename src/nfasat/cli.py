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

from .cnf import CnfError, CnfInstance, write_dimacs
from .encoders import BudgetExceededError, DEFAULT_LITERAL_BUDGET, ModelKind, encode
from .nfa import nfa_to_dot, nfa_to_json, verify
from .sample import (
    Sample,
    SampleError,
    SplitAssignment,
    all_prefix_cuts,
    all_suffix_cuts,
    check_state_count,
    format_sample,
    parse_sample,
    word_from_text,
    word_to_text,
)
from .solver import (
    DEFAULT_TIMEOUT_SECONDS,
    SAT,
    UNKNOWN,
    UNSAT,
    SolveOutcome,
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
    conflicts: int | None = None  # None when a solver process does not print it
    propagations: int | None = None
    t_s_seconds: float | None = None
    fitness: int | None = None
    runs_completed: int = 1

    @property
    def t_t_seconds(self) -> float | None:
        if self.t_m_seconds is None and self.t_s_seconds is None:
            return None
        return (self.t_m_seconds or 0.0) + (self.t_s_seconds or 0.0)

    def record(self, outcome: SolveOutcome) -> None:
        """Take the verdict, search counters and solve time of a solve."""
        self.status = outcome.status
        self.decisions = outcome.decisions
        self.conflicts = outcome.conflicts
        self.propagations = outcome.propagations
        self.t_s_seconds = outcome.solve_seconds

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


class ConfigError(ValueError):
    """Malformed optimizer config, cuts file, k map or command-line bound."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key written twice raises ConfigError."""
    raw: dict = {}
    for key, value in pairs:
        if key in raw:
            raise ConfigError(f"writes the key {key!r} twice")
        raw[key] = value
    return raw


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in a file; a repeated key at any depth is an error."""
    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except ConfigError as err:
        raise ConfigError(f"{what} {path} {err}") from err
    except ValueError as err:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object, not {type(raw).__name__}")
    return raw


def load_optimizer_config(path: str | None) -> tuple[IlsParams | None, GaParams | None]:
    """Optional JSON config overriding optimizer defaults, checked on load.

    Shape: {"ils": {"max_iter": ..., "max_iter_without_improv": ...},
            "ga": {"population_size": ..., "max_gen": ..., "p_mut": ..., ...}}
    Neither section takes rng_seed: --seed sets the optimizer seed.
    """
    if path is None:
        return None, None
    raw = _read_json_object(path, "optimizer config")
    if set(raw) - {"ils", "ga"}:
        raise ConfigError(f"optimizer config {path}: sections must be 'ils' and/or 'ga'")
    loaded = []
    for section, cls in (("ils", IlsParams), ("ga", GaParams)):
        params = None
        if section in raw:
            try:
                params = cls(**raw[section])
                if "rng_seed" in raw[section]:
                    raise ValueError("rng_seed is not a config key; --seed sets the optimizer seed")
                params.validate()
            except (TypeError, ValueError) as err:
                raise ConfigError(f"optimizer config {path}, {section!r}: {err}") from err
        loaded.append(params)
    return loaded[0], loaded[1]


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
        cuts = {}
        for text, cut in _read_json_object(path, "cuts file").items():
            word = word_from_text(text, sample.alphabet_size)
            if word in cuts:
                again = word_to_text(word, sample.alphabet_size)
                raise ConfigError(f"cuts file {path} names the word {again!r} twice (again as {text!r})")
            cuts[word] = cut
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
    ils_params: IlsParams | None = None,
    ga_params: GaParams | None = None,
    k_max: int | None = None,
):
    """generate -> solve -> decode -> verify; returns (report, nfa or None).

    Tries k, k+1, ... up to k_max (only k without one) and stops at the first
    size that is not UNSAT: a SAT after an UNKNOWN would not be minimal.  A
    solver_cmd runs that solver process; without one the bundled solver runs
    in-process.
    """
    if k_max is not None and k_max < k:
        raise ConfigError(f"--k-max {k_max} is below --k {k}")
    for size in range(k, (k if k_max is None else k_max) + 1):
        instance, report, _ = generate_instance(
            sample, model, size, cuts_source, seed, literal_budget, instance_name,
            ils_params, ga_params,
        )
        if solver_cmd is not None:
            outcome = solve_external(instance, solver_cmd, timeout_seconds)
        else:
            outcome = solve_in_process(instance, timeout_seconds)
        report.record(outcome)
        if outcome.status != UNSAT:
            break
    nfa = None
    if outcome.status == SAT:
        assert outcome.assignment is not None
        nfa = decode_nfa(outcome.assignment, instance, size, sample.alphabet_size)
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
    return ModelKind(label), "prefix"


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
    for attr in ("vars", "clauses", "t_m_seconds", "decisions", "t_s_seconds", "fitness"):
        setattr(agg, attr, _mean([getattr(r, attr) for r in reports]))
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
        for attr in ("vars", "clauses", "t_m_seconds", "decisions", "t_s_seconds"):
            setattr(total, attr, sum(substituted(r, attr) for r in model_rows))
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
    log=print,
    ils_params: IlsParams | None = None,
    ga_params: GaParams | None = None,
) -> list[RunReport]:
    rows: list[RunReport] = []
    for name, sample in samples:
        k = k_of(name)
        if solver_cmd is None:  # built before the models, so that none of their t_s pays for it
            start = time.perf_counter()
            bound = len(sample.fooling_set)
            log(f"# fooling set {name}: {bound} pairs in {time.perf_counter() - start:.3f}s")
        for label in models:
            model, cuts_source = _bench_model_parts(label)
            series = runs if label in STOCHASTIC_MODELS else 1
            reports = []
            for seed in range(base_seed, base_seed + series):
                try:
                    report, _ = infer(
                        sample, model, k, cuts_source, seed, solver_cmd, timeout_seconds,
                        literal_budget, name, ils_params, ga_params,
                    )
                except BudgetExceededError:
                    report = RunReport(instance=name, model=label, k=k, seed=seed, status="GENFAIL")
                report.model = label
                reports.append(report)
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
) -> Sample:
    """Seeded random sample with disjoint positive/negative sets.

    Collisions redraw, up to 200 draws per word; when the word space is
    exhausted the sample simply ends up smaller than requested.  Raises
    SampleError for an argument out of range or if nothing can be generated.
    """
    import random as _random

    if n < 1 or word_count < 1 or max_len < 0:
        raise SampleError(
            f"alphabet size n ({n}) and word count ({word_count}) must be >= 1 "
            f"and max length ({max_len}) >= 0"
        )
    if not 0.0 <= positive_fraction <= 1.0:
        raise SampleError(f"positive fraction must be in [0, 1], got {positive_fraction}")
    rng = _random.Random(seed)
    target_pos = round(word_count * positive_fraction)
    positives: set = set()
    negatives: set = set()
    for index in range(word_count):
        want_positive = index < target_pos
        bucket = positives if want_positive else negatives
        other = negatives if want_positive else positives
        for _ in range(200):
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
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as err:
        raise SampleError(f"sample {path} is not UTF-8 text: {err}") from err
    return parse_sample(text, fmt)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("plain", "abbadingo"), default="plain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-literals", type=int, default=DEFAULT_LITERAL_BUDGET)
    p.add_argument("--config", help="JSON file overriding ILS/GA optimizer parameters")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_SECONDS)
    p.add_argument(
        "--solver",
        default=None,
        help="external solver command template with {cnf} and {timeout} placeholders; "
        "omit to solve with the bundled solver in-process",
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
        ConfigError,
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
    p_gen.add_argument("--cuts", help="prefix (default)|suffix|ils|ga|file:<path>; --model hm only")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--stats-out", default=None)
    p_gen.add_argument(
        "--trace-out",
        default=None,
        help="write the optimizer's best-fitness trace as CSV (--model hm --cuts ils|ga only)",
    )
    _add_common_flags(p_gen)

    p_solve = sub.add_parser("solve", help="run a SAT solver on a DIMACS file")
    p_solve.add_argument("cnf")
    _add_solver_flags(p_solve)

    p_infer = sub.add_parser("infer", help="generate, solve, decode, and verify")
    p_infer.add_argument("sample")
    p_infer.add_argument("--model", required=True, choices=[m.value for m in ModelKind])
    p_infer.add_argument("--k", type=int, required=True)
    p_infer.add_argument(
        "--k-max",
        type=int,
        default=None,
        help="try k, k+1, ... up to this bound and stop at the first size that is not UNSAT",
    )
    p_infer.add_argument("--cuts", help="as for generate; --model hm only")
    p_infer.add_argument("--nfa-out", default=None)
    p_infer.add_argument("--dot-out", default=None)
    _add_common_flags(p_infer)
    _add_solver_flags(p_infer)

    p_bench = sub.add_parser("bench", help="compare models over a sample directory")
    p_bench.add_argument("sample_dir")
    p_bench.add_argument("--models", default="pm,sm,hm-ils")
    k_flags = p_bench.add_mutually_exclusive_group(required=True)
    k_flags.add_argument("--k", type=int, help="state count for every instance")
    k_flags.add_argument("--k-map", help="JSON file mapping instance name to state count")
    p_bench.add_argument("--runs", type=int, default=30)
    p_bench.add_argument("--glob", default="*.txt")
    p_bench.add_argument("--out-csv", required=True)
    _add_common_flags(p_bench)
    _add_solver_flags(p_bench)

    p_rand = sub.add_parser("random-sample", help="emit a reproducible random sample")
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--words", type=int, required=True)
    p_rand.add_argument("--max-len", type=int, required=True)
    p_rand.add_argument("--positive-fraction", type=float, default=0.5)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    timeout = getattr(args, "timeout", 0.0)
    if not timeout >= 0:  # also catches nan
        raise ConfigError(f"--timeout must be a number of seconds >= 0, got {timeout}")
    ils_params, ga_params = load_optimizer_config(getattr(args, "config", None))
    if args.command in ("generate", "infer"):
        model = ModelKind(args.model)
        if args.cuts is not None and model != ModelKind.HYBRID:
            raise ConfigError(f"--cuts applies to --model hm only, not --model {model.value}")
        cuts_source = args.cuts or "prefix"

    if args.command == "generate":
        if args.trace_out and not (model == ModelKind.HYBRID and cuts_source in ("ils", "ga")):
            raise ConfigError("--trace-out needs an optimizer run: --model hm --cuts ils or ga")
        sample = load_sample(args.sample, args.format)
        instance, report, opt_result = generate_instance(
            sample,
            model,
            args.k,
            cuts_source,
            args.seed,
            args.budget_literals,
            instance_name=Path(args.sample).stem,
            ils_params=ils_params,
            ga_params=ga_params,
        )
        with open(args.out, "w") as sink:
            write_dimacs(instance, sink)
        stats_path = args.stats_out or args.out + ".stats.json"
        stats = instance.stats_dict()
        stats["generation_seconds"] = report.t_m_seconds
        Path(stats_path).write_text(json.dumps(stats, indent=2) + "\n")
        if args.trace_out:
            with open(args.trace_out, "w") as sink:
                write_trace_csv(opt_result.trace, sink)
        print(json.dumps(report.to_dict(), indent=2))
        return 0

    if args.command == "solve":
        outcome = solve_dimacs_file(args.cnf, args.solver, args.timeout)
        report = RunReport(instance=Path(args.cnf).stem, model="-", k=0)
        report.record(outcome)
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if outcome.status != UNKNOWN else 1

    if args.command == "infer":
        sample = load_sample(args.sample, args.format)
        report, nfa = infer(
            sample, model, args.k, cuts_source, args.seed, args.solver, args.timeout,
            args.budget_literals, Path(args.sample).stem, ils_params, ga_params, k_max=args.k_max,
        )
        print(json.dumps(report.to_dict(), indent=2))
        if nfa is not None:
            payload = nfa_to_json(nfa)
            if args.nfa_out:
                Path(args.nfa_out).write_text(payload)
            else:
                print(payload, end="")
            if args.dot_out:
                Path(args.dot_out).write_text(nfa_to_dot(nfa))
        return 0 if report.status != UNKNOWN else 1

    if args.command == "bench":
        if args.runs < 1:
            raise ConfigError(f"--runs must be >= 1, got {args.runs}")
        try:
            sample_paths = sorted(Path(args.sample_dir).glob(args.glob))
        except (ValueError, NotImplementedError) as err:  # empty or absolute pattern
            raise ConfigError(f"--glob {args.glob!r} must be a non-empty relative pattern") from err
        if not sample_paths:
            raise ConfigError(f"no samples matching {args.glob!r} in {args.sample_dir}")
        models = [m.strip() for m in args.models.split(",") if m.strip()]
        if not models:
            raise ConfigError(f"--models {args.models!r} names no model")
        for i, label in enumerate(models):
            if label not in BENCH_MODELS:
                raise ConfigError(f"unknown bench model {label!r}; choose from {BENCH_MODELS}")
            if label in models[:i]:
                raise ConfigError(f"--models {args.models!r} names {label!r} twice")
        samples = [(p.stem, load_sample(str(p), args.format)) for p in sample_paths]
        if args.k_map is not None:
            k_table = _read_json_object(args.k_map, "k map")
            for name, _ in samples:
                if name not in k_table:
                    raise ConfigError(f"k map {args.k_map} has no entry for sample {name!r}")
                k = k_table[name]
                if type(k) is not int or k < 1:
                    raise ConfigError(f"k map {args.k_map} maps {name!r} to {k!r}, not a positive int")
            k_of = k_table.__getitem__
        else:
            check_state_count(args.k)
            k_of = lambda name: args.k
        rows = run_bench(
            samples,
            models,
            k_of,
            args.runs,
            args.solver,
            args.timeout,
            args.budget_literals,
            args.seed,
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
