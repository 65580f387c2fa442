"""Workload definitions, the per-task pipeline and the verdict checks.

A task is one (sample, model) pair.  It calls the program's exported API in
the order ``nfasat infer --k 1 --k-max K`` (mink-target, unsat-random) or
``nfasat generate`` followed by the DIMACS read of ``nfasat solve``
(generate-large) would, and every call goes through the tracer so the traced
run can attribute time to the program's modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from corpus import GeneratedSample, accepts, minimal_target_sample, random_labelled_sample, target_sample

SOLVE_TIMEOUT_S = 60.0
# The GA stops on stagnation by default, which makes its run time a random
# variable of the sample; a fixed generation count keeps its work per sample
# steady while still exercising the same scoring code.
GA_GENERATIONS = 100


@dataclass(frozen=True)
class Spec:
    name: str
    models: tuple[str, ...]
    corpus: Callable[[int], list[GeneratedSample]]
    k_values: Callable[[GeneratedSample], range]
    solve: bool  # False: write and re-read DIMACS instead of solving


def _mink_corpus(seed: int) -> list[GeneratedSample]:
    rng = random.Random(f"mink-target/{seed}")
    return [
        minimal_target_sample(rng, f"mink{i:03d}", 2 + i % 2, 3, rng.randint(60, 80), 9, 0.4)
        for i in range(56)
    ]


def _unsat_corpus(seed: int) -> list[GeneratedSample]:
    rng = random.Random(f"unsat-random/{seed}")
    return [random_labelled_sample(rng, f"unsat{i:03d}", 2, 50, 7) for i in range(45)]


def _generate_corpus(seed: int) -> list[GeneratedSample]:
    rng = random.Random(f"generate-large/{seed}")
    return [
        target_sample(rng, "large0", 2, 5, 150, 5, 16, 0.3),
        target_sample(rng, "large1", 4, 5, 150, 3, 14, 0.3),
    ]


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("mink-target", ("pm", "sm", "hm-ils"), _mink_corpus, lambda g: range(1, g.target.k + 1), True),
        Spec("unsat-random", ("pm", "sm", "hm-ils"), _unsat_corpus, lambda g: range(4, 5), True),
        Spec("generate-large", ("pm", "sm", "hm-ils", "hm-ga"), _generate_corpus, lambda g: range(5, 6), False),
    )
}


@dataclass
class Step:
    """One k of one task: what each layer returned, and its traced time."""

    k: int
    opt: object = None
    instance: object = None
    outcome: object = None
    nfa: object = None
    verified: bool | None = None
    parsed: tuple | None = None
    dimacs_bytes: int = 0
    seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class TaskResult:
    sample: GeneratedSample
    model: str
    steps: list[Step]
    parse_s: float


def _write_file(write_dimacs, instance, path: Path) -> None:
    with open(path, "w") as sink:
        write_dimacs(instance, sink)


def run_task(api, tracer, spec: Spec, sample: GeneratedSample, path: Path, model: str, scratch: Path) -> TaskResult:
    """From sample file to verdict (or to a re-read DIMACS file) for one model."""
    parsed = tracer.call("sample.parse", api.parse_sample, path.read_text())
    result = TaskResult(sample, model, [], tracer.last)
    kind = api.ModelKind.HYBRID if model.startswith("hm-") else api.ModelKind(model)
    for k in spec.k_values(sample):
        step = Step(k)
        result.steps.append(step)
        if model == "hm-ils":
            step.opt = tracer.call("splitopt.optimize", api.ils_optimize, parsed, k, api.IlsParams())
        elif model == "hm-ga":
            params = api.GaParams(max_gen=GA_GENERATIONS, max_gen_without_improv=GA_GENERATIONS)
            step.opt = tracer.call("splitopt.optimize", api.ga_optimize, parsed, k, params)
        step.seconds["splitopt"] = tracer.last if step.opt else 0.0
        cuts = step.opt.cuts if step.opt else None
        step.instance = tracer.call("encoders.encode", api.encode, kind, parsed, k, cuts)
        step.seconds["encoders"] = tracer.last
        if not spec.solve:
            cnf_path = scratch / f"{sample.name}-{model}.cnf"
            tracer.call("cnf.write", _write_file, api.write_dimacs, step.instance, cnf_path)
            step.seconds["cnf.write"] = tracer.last
            text = cnf_path.read_text()
            step.dimacs_bytes = len(text)
            step.parsed = tracer.call("cnf.parse", api.parse_dimacs, text)
            step.seconds["cnf.parse"] = tracer.last
            cnf_path.unlink()
            break
        step.outcome = tracer.call("cdcl.solve", api.solve_in_process, step.instance, SOLVE_TIMEOUT_S)
        step.seconds["cdcl"] = tracer.last
        if step.outcome.status == "SAT":
            step.nfa = tracer.call("solver.decode", api.decode_nfa, step.outcome.assignment, step.instance, k, parsed.alphabet_size)
            step.seconds["solver"] = tracer.last
            step.verified = tracer.call("nfa.verify", api.verify, step.nfa, parsed).ok
            step.seconds["nfa"] = tracer.last
        if step.outcome.status != "UNSAT":
            break
    return result


# ---------------------------------------------------------------------------
# Verdict checks.  They run after a task's timer stops.
# ---------------------------------------------------------------------------


def simulates_sample(nfa, sample: GeneratedSample) -> bool:
    """The benchmark's own subset simulation of a decoded NFA on its sample."""
    rows = [[0] * nfa.k for _ in range(nfa.n)]
    for i, a, j in nfa.transitions:
        rows[a][i - 1] |= 1 << (j - 1)
    finals = sum(1 << (i - 1) for i in nfa.finals)
    return all(accepts(rows, finals, nfa.k, w) for w in sample.positives) and not any(
        accepts(rows, finals, nfa.k, w) for w in sample.negatives
    )


def verdict(result: TaskResult) -> tuple[int, str] | None:
    """What the models of one sample must agree on: the last k tried and its status."""
    last = result.steps[-1]
    return None if last.outcome is None else (last.k, last.outcome.status)


def task_problems(result: TaskResult, spec: Spec) -> list[str]:
    """Everything wrong with one task's outputs, judged on its own."""
    problems = []
    for step in result.steps:
        if step.outcome is not None and step.outcome.status not in ("SAT", "UNSAT"):
            problems.append(f"k={step.k}: solver returned {step.outcome.status}")
        if step.nfa is not None:
            if not step.verified:
                problems.append(f"k={step.k}: nfa.verify rejected the decoded NFA")
            if not simulates_sample(step.nfa, result.sample):
                problems.append(f"k={step.k}: decoded NFA fails the independent simulation")
        if step.parsed is not None and step.parsed != (step.instance.var_count, step.instance.clauses):
            problems.append(f"k={step.k}: DIMACS round trip differs from the instance")
    if spec.name == "mink-target":  # the sample's fooling set makes the target's size minimal
        last = result.steps[-1]
        if last.outcome.status != "SAT" or last.k != result.sample.target.k:
            problems.append(f"minimal k is not the target's size {result.sample.target.k}")
    return problems


def planted_problems(api, result: TaskResult) -> list[str]:
    """The CNF with the target's transitions and finals fixed must be SAT."""
    target = result.sample.target
    problems = []
    for step in result.steps:
        if step.k != target.k or step.parsed is None:
            continue
        var_count, clauses = step.parsed
        units = []
        for i in range(1, target.k + 1):
            var = step.instance.lookup(api.cnf.final_var(i))
            units.append((var if target.finals >> (i - 1) & 1 else -var,))
            for a in range(target.n):
                for j in range(1, target.k + 1):
                    var = step.instance.lookup(api.cnf.trans_var(a, i, j))
                    units.append((var if target.rows[a][i - 1] >> (j - 1) & 1 else -var,))
        status, _, _ = api.cdcl.CdclSolver(var_count, clauses + units).solve()
        if status != "SAT":
            problems.append(f"k={step.k}: CNF with the planted target fixed is {status}")
    return problems
