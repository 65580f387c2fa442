"""Acceptance suite: one test per criterion, printing a pass line each.

The heavyweight piece is an exhaustive sweep over every two-symbol sample
with words of length at most three and up to two words per polarity, at
k in {1, 2, 3}: all four encodings (five random splits for the hybrid) must
agree with the brute-force oracle on every single case, and every model must
decode to a verified automaton.  The encodings are searched, never settled by
the sample's fooling set; the set is checked on its own: it must never
outnumber k where the oracle finds a k-state NFA.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import statistics
import time
from pathlib import Path

import pytest

from nfasat.cli import generate_instance, random_sample
from nfasat.cnf import dimacs_text
from nfasat.encoders import (
    BudgetExceededError,
    ModelKind,
    encode,
    estimate_size,
)
from nfasat.nfa import verify
from nfasat.sample import Sample, all_prefix_cuts, parse_sample
from nfasat.solver import decode_nfa, solve_external
from nfasat.splitopt import (
    GaParams,
    IlsParams,
    _SplitScore,
    fitness,
    ga_optimize,
    ils_optimize,
    word_weights,
)

from _helpers import BUNDLED_SOLVER, search_in_process
from oracle import oracle_exists

MAX_SWEEP_SECONDS = 900.0  # hard budget for the oracle sweep


def _sweep_words() -> list[tuple[int, ...]]:
    return [
        tuple(w)
        for length in range(4)
        for w in itertools.product(range(2), repeat=length)
    ]


def _sweep_cases():
    """Every (S+, S-) pair with at most two words per side, disjoint."""
    words = _sweep_words()
    for pos_size in range(3):
        for pos in itertools.combinations(words, pos_size):
            rest = [w for w in words if w not in pos]
            for neg_size in range(3):
                for neg in itertools.combinations(rest, neg_size):
                    yield pos, neg


class SweepOutcome:
    def __init__(self) -> None:
        self.cases = 0
        self.solves = 0
        self.sat_decodes = 0
        self.mismatches: list[str] = []
        self.decode_failures: list[str] = []
        self.elapsed = 0.0
        self.external_checked = 0
        self.external_mismatches = 0


@pytest.fixture(scope="session")
def sweep() -> SweepOutcome:
    outcome = SweepOutcome()
    start = time.perf_counter()
    external_probe = []  # every Nth instance re-solved through the solver process
    case_index = 0
    for pos, neg in _sweep_cases():
        sample = Sample.build(2, pos, neg)
        nonempty = sample.sorted_nonempty_words()
        for k in (1, 2, 3):
            case_index += 1
            truth = oracle_exists(sample, k)[0]
            instances = [
                ("dm", encode(ModelKind.DIRECT, sample, k)),
                ("pm", encode(ModelKind.PREFIX, sample, k)),
                ("sm", encode(ModelKind.SUFFIX, sample, k)),
            ]
            for split_index in range(5):
                rng = random.Random(case_index * 5 + split_index)
                cuts = {w: rng.randint(0, len(w)) for w in nonempty}
                instances.append((f"hm{split_index}", encode(ModelKind.HYBRID, sample, k, cuts)))
            if len(sample.fooling_set) > k and truth:  # the set would settle k as UNSAT
                outcome.mismatches.append(f"fooling set k={k} pos={pos} neg={neg}: {sample.fooling_set}")
            for label, inst in instances:
                result = search_in_process(inst)
                outcome.solves += 1
                verdict = result.status == "SAT"
                if verdict != truth:
                    outcome.mismatches.append(
                        f"{label} k={k} pos={pos} neg={neg}: solver={result.status} oracle={truth}"
                    )
                elif verdict:
                    outcome.sat_decodes += 1
                    nfa = decode_nfa(result.assignment, inst, k, 2)
                    report = verify(nfa, sample)
                    if not report.ok:
                        outcome.decode_failures.append(
                            f"{label} k={k} pos={pos} neg={neg}: {report.counterexamples}"
                        )
            if case_index % 4500 == 0:
                external_probe.append((sample, k, truth))
            outcome.cases += 1
    for sample, k, truth in external_probe:
        instance = encode(ModelKind.PREFIX, sample, k)
        result = solve_external(instance, BUNDLED_SOLVER, timeout_seconds=60)
        outcome.external_checked += 1
        if (result.status == "SAT") != truth:
            outcome.external_mismatches += 1
    outcome.elapsed = time.perf_counter() - start
    return outcome


def test_criterion_1_oracle_equisatisfiability(sweep: SweepOutcome):
    assert sweep.cases > 3000  # the corpus is several thousand cases strong
    assert sweep.mismatches == [], sweep.mismatches[:10]
    assert sweep.external_checked > 0 and sweep.external_mismatches == 0
    assert sweep.elapsed < MAX_SWEEP_SECONDS
    print(
        f"\nACCEPTANCE 1 PASS: {sweep.cases} cases / {sweep.solves} solves agree with "
        f"the oracle (0 mismatches; {sweep.external_checked} re-checked through the "
        f"solver process) in {sweep.elapsed:.0f}s"
    )


def test_criterion_2_end_to_end_soundness(sweep: SweepOutcome):
    assert sweep.decode_failures == [], sweep.decode_failures[:10]
    assert sweep.sat_decodes > 0
    print(
        f"\nACCEPTANCE 2 PASS: {sweep.sat_decodes} SAT verdicts decoded and verified "
        "with zero counterexamples"
    )


def _regression_slope(xs: list[float], ys: list[float]) -> float:
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def test_criterion_3_size_bounds_and_growth():
    rng = random.Random(7)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        word_count = rng.randint(2, 8)
        words = set()
        budget = 60
        for _ in range(word_count):
            length = rng.randint(0, min(8, budget))
            words.add(tuple(rng.randrange(n) for _ in range(length)))
            budget -= length
            if budget <= 0:
                break
        words = list(words)
        split = rng.randint(0, len(words))
        sample = Sample.build(n, words[:split], words[split:])
        assert sample.total_symbol_count() <= 60
        k = rng.randint(1, 5)
        cuts = {w: rng.randint(0, len(w)) for w in sample.sorted_nonempty_words()}
        for kind in ModelKind:
            hybrid_cuts = cuts if kind == ModelKind.HYBRID else None
            estimate = estimate_size(kind, sample, k, hybrid_cuts)
            try:
                inst = encode(kind, sample, k, hybrid_cuts)
            except BudgetExceededError:
                assert kind == ModelKind.DIRECT  # only the path encoding blows up
                continue
            for family, count in inst.var_family_counts.items():
                assert count <= estimate.variable_bounds[family], (kind, family)
            for family, hist in inst.family_hist.items():
                bound_count, bound_arity = estimate.clause_bounds[family]
                assert sum(hist.values()) <= bound_count, (kind, family)
                assert max(hist) <= bound_arity, (kind, family)
            checked += 1
    assert checked >= 300

    # dominant-family growth: quadratic in k for prefix, cubic for suffix
    slope_rng = random.Random(0)
    pm_slopes, sm_slopes = [], []
    for _ in range(8):
        n = slope_rng.randint(2, 5)
        words = {
            tuple(slope_rng.randrange(n) for _ in range(slope_rng.randint(6, 10)))
            for _ in range(6)
        }
        words = list(words)
        sample = Sample.build(n, words[:3], words[3:])
        ks = [1, 2, 3, 4, 5]
        log_k = [math.log(k) for k in ks]
        pm_counts = [
            encode(ModelKind.PREFIX, sample, k).var_family_counts["prefix_rec_aux"] for k in ks
        ]
        sm_counts = [
            encode(ModelKind.SUFFIX, sample, k).var_family_counts["suffix_rec_aux"] for k in ks
        ]
        pm_slopes.append(_regression_slope(log_k, [math.log(c) for c in pm_counts]))
        sm_slopes.append(_regression_slope(log_k, [math.log(c) for c in sm_counts]))
    for slope in pm_slopes:
        assert 1.7 <= slope <= 2.3, pm_slopes
    for slope in sm_slopes:
        assert 2.7 <= slope <= 3.3, sm_slopes
    print(
        f"\nACCEPTANCE 3 PASS: {checked} generated instances within per-family bounds; "
        f"prefix slope ~{statistics.mean(pm_slopes):.2f}, "
        f"suffix slope ~{statistics.mean(sm_slopes):.2f}"
    )


def test_criterion_4_fitness_formula_and_weights():
    sample = Sample.build(2, [(0, 1), (0, 1, 1)], [])
    assert fitness(sample, 3, {(0, 1): 1, (0, 1, 1): 2}) == 5

    pair = Sample.build(2, [(0, 1)], [(1,)])
    weights = word_weights(pair)
    assert weights[(0, 1)] == pytest.approx(0.75 / 2 + 0.25 * 2 / 3, abs=1e-12)
    assert weights[(1,)] == pytest.approx(0.75 / 2 + 0.25 * 1 / 3, abs=1e-12)

    rng = random.Random(123)
    for _ in range(50):
        count = rng.randint(1, 12)
        words = {
            tuple(rng.randrange(3) for _ in range(rng.randint(1, 9)))
            for _ in range(count)
        }
        sample = Sample.build(3, words, [])
        total = sum(word_weights(sample).values())
        assert total == pytest.approx(1.0, abs=1e-9)
    print("\nACCEPTANCE 4 PASS: fitness and roulette weights match hand-computed values")


def test_criterion_5_optimizer_behavior():
    sample = random_sample(2, 50, 12, 0.5, seed=2026)
    k = 4
    baseline = fitness(sample, k, all_prefix_cuts(sample))
    runs = 30

    ils_results = [ils_optimize(sample, k, IlsParams(rng_seed=seed)) for seed in range(runs)]
    ga_results = [
        ga_optimize(sample, k, GaParams(rng_seed=seed)) for seed in range(runs)
    ]

    for result in ils_results + ga_results:
        assert result.best_fitness <= result.initial_fitness
    for result in ils_results:
        values = [p.best_fitness for p in result.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))

    log_lines = []
    for name, results in (("ILS", ils_results), ("GA", ga_results)):
        mean_best = statistics.mean(r.best_fitness for r in results)
        if mean_best < baseline:
            log_lines.append(
                f"{name}: mean best fitness {mean_best:.1f} beats the all-prefix "
                f"baseline {baseline}"
            )
            continue
        # The strict branch failed; that is acceptable only when the all-prefix
        # corner is a verified local optimum of the optimizer's move structure.
        words = sample.sorted_nonempty_words()
        score = _SplitScore(sample, all_prefix_cuts(sample), k)
        improving = 0
        for word in words:
            before = score.fitness()
            _, after = score.rescore_word(word)
            if after < before:
                improving += 1
        assert improving == 0, (
            f"{name} mean best {mean_best:.1f} did not beat the baseline {baseline} "
            f"even though {improving} single-word moves improve on it"
        )
        log_lines.append(
            f"{name}: mean best fitness {mean_best:.1f} >= baseline {baseline}; "
            "explained: the all-prefix split is single-word-move optimal for this "
            "corpus (exhaustive per-word scan found no improving cut), so moves "
            "over one word at a time cannot descend below it"
        )
    print("\nACCEPTANCE 5 PASS: " + "; ".join(log_lines))


def test_criterion_6_degenerate_split_isomorphism():
    rng = random.Random(99)
    agreements = 0
    for _ in range(20):
        words = [
            tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        split = rng.randint(0, len(words))
        sample = Sample.build(2, set(words[:split]), set(words[split:]) - set(words[:split]))
        k = rng.randint(1, 3)
        nonempty = sample.sorted_nonempty_words()
        pm_status = search_in_process(encode(ModelKind.PREFIX, sample, k)).status
        hm_prefix = search_in_process(
            encode(ModelKind.HYBRID, sample, k, {w: len(w) for w in nonempty})
        ).status
        sm_status = search_in_process(encode(ModelKind.SUFFIX, sample, k)).status
        hm_suffix = search_in_process(
            encode(ModelKind.HYBRID, sample, k, {w: 0 for w in nonempty})
        ).status
        assert hm_prefix == pm_status
        assert hm_suffix == sm_status
        agreements += 1
    assert agreements == 20
    print("\nACCEPTANCE 6 PASS: degenerate hybrid splits equisatisfiable 20/20")


def test_criterion_7_determinism():
    samples = {
        "s1": "n=2\nab+\na+\nb-\nbb-\n",
        "s2": "n=2\n+\naba+\nbb-\n",
        "s3": "n=3\nabc+\ncab+\nbc-\nc-\n",
    }
    configurations = [
        ("s1", ModelKind.DIRECT, 2, "prefix", 0),
        ("s1", ModelKind.PREFIX, 2, "prefix", 0),
        ("s1", ModelKind.SUFFIX, 2, "prefix", 0),
        ("s1", ModelKind.HYBRID, 2, "ils", 3),
        ("s2", ModelKind.PREFIX, 3, "prefix", 1),
        ("s2", ModelKind.HYBRID, 3, "suffix", 1),
        ("s2", ModelKind.HYBRID, 2, "ga", 5),
        ("s3", ModelKind.SUFFIX, 2, "prefix", 2),
        ("s3", ModelKind.HYBRID, 2, "ils", 8),
        ("s3", ModelKind.HYBRID, 3, "prefix", 4),
    ]
    assert len(configurations) == 10
    for name, model, k, cuts_source, seed in configurations:
        sample = parse_sample(samples[name])
        first, report_one, _ = generate_instance(sample, model, k, cuts_source, seed)
        second, report_two, _ = generate_instance(sample, model, k, cuts_source, seed)
        assert dimacs_text(first) == dimacs_text(second), (name, model, cuts_source)
        assert report_one.comparable_dict() == report_two.comparable_dict()
    print("\nACCEPTANCE 7 PASS: 10 configurations produced byte-identical DIMACS twice")


def _find_stamina_file() -> Path | None:
    root = os.environ.get("NFASAT_STAMINA_DIR", str(Path(__file__).parent / "data" / "stamina"))
    directory = Path(root)
    if not directory.is_dir():
        return None
    for pattern in ("st-2-10*", "*st-2-10*"):
        matches = sorted(directory.glob(pattern))
        if matches:
            return matches[0]
    return None


def test_criterion_8_reference_instance_scale():
    path = _find_stamina_file()
    if path is None:
        pytest.skip("StaMinA training files not available (set NFASAT_STAMINA_DIR)")
    sample = parse_sample(path.read_text(), fmt="abbadingo")
    k = 4
    pm = encode(ModelKind.PREFIX, sample, k)
    assert abs(pm.var_count - 1276) <= 0.25 * 1276
    assert abs(pm.clause_count() - 4250) <= 0.25 * 4250
    hm_vars = []
    for seed in range(30):
        params = IlsParams(rng_seed=seed)
        result = ils_optimize(sample, k, params)
        hm_vars.append(encode(ModelKind.HYBRID, sample, k, result.cuts).var_count)
    assert statistics.mean(hm_vars) <= pm.var_count
    print(
        f"\nACCEPTANCE 8 PASS: reference instance sizes within tolerance "
        f"(pm vars={pm.var_count}, hybrid mean={statistics.mean(hm_vars):.0f})"
    )
