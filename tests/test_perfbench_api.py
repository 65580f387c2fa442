"""The program API that the benchmark reads, driven through the benchmark's own code.

perfbench's task pipeline and verdict checks call ``encode``,
``write_dimacs``, ``parse_dimacs``, ``solve_in_process``, ``decode_nfa``,
``CnfInstance.lookup`` with ``cnf.final_var`` and ``cnf.trans_var``, and
``cdcl.CdclSolver``.  This test imports ``perfbench/workloads.py``,
``corpus.py`` and ``spans.py`` as they are and runs them on one small
sample, so a change that breaks that API fails here.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import nfasat

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from corpus import target_sample  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Spec, planted_problems, run_task, task_problems, verdict  # noqa: E402


def test_benchmark_tasks_find_no_problems(tmp_path):
    sample = target_sample(random.Random(3), "guard", 2, 3, 40, 3, 8, 0.3)
    path = tmp_path / "guard.txt"
    path.write_text(sample.plain_text())
    specs = [
        # generate and re-read at the target's k, where the planted-target check runs
        Spec("guard-generate", ("pm", "sm", "hm-ils", "hm-ga"), None, lambda g: range(3, 4), False),
        # solve from k=1 up to the first SAT, then decode and verify
        Spec("guard-solve", ("pm", "sm", "hm-ils"), None, lambda g: range(1, 4), True),
    ]
    for spec in specs:
        results = [
            run_task(nfasat, Tracer(True), spec, sample, path, model, tmp_path)
            for model in spec.models
        ]
        for result in results:
            last = result.steps[-1]
            assert (last.parsed if not spec.solve else last.nfa) is not None, result.model
            problems = task_problems(result, spec) + planted_problems(nfasat, result)
            assert problems == [], (spec.name, result.model)
        assert len({verdict(result) for result in results}) == 1, spec.name
