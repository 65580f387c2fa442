import csv
import json
import subprocess
import sys

import pytest

from nfasat.cli import (
    InferenceError,
    RunReport,
    aggregate_runs,
    cumulative_rows,
    generate_instance,
    infer,
    main,
    random_sample,
    resolve_cuts,
    run_bench,
)
from nfasat.cnf import dimacs_text
from nfasat.encoders import ModelKind
from nfasat.nfa import oracle_exists, verify
from nfasat.sample import Sample, format_sample, parse_sample
from nfasat.splitopt import GaParams, IlsParams

A, B, AB = (0,), (1,), (0, 1)


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text("n=2\nab+\na+\nb-\nbb-\n")
    return path


class TestGenerateCommand:
    def test_dimacs_header_matches_stats(self, tmp_path, sample_file):
        out = tmp_path / "demo.cnf"
        code = main(
            [
                "generate",
                str(sample_file),
                "--model",
                "pm",
                "--k",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split()
        stats = json.loads((tmp_path / "demo.cnf.stats.json").read_text())
        assert int(header[2]) == stats["vars"]
        assert int(header[3]) == stats["clauses"]
        assert stats["generation_seconds"] >= 0

    def test_hybrid_ils_deterministic_bytes(self, tmp_path, sample_file):
        outs = []
        for name in ("one.cnf", "two.cnf"):
            out = tmp_path / name
            main(
                [
                    "generate",
                    str(sample_file),
                    "--model",
                    "hm",
                    "--cuts",
                    "ils",
                    "--seed",
                    "7",
                    "--k",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_direct_model_budget_error(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("n=1\n" + "a" * 30 + "+\n")
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "generate",
                    str(path),
                    "--model",
                    "dm",
                    "--k",
                    "5",
                    "--out",
                    str(tmp_path / "x.cnf"),
                ]
            )
        assert "too large" in str(err.value)

    def test_trace_export(self, tmp_path, sample_file):
        trace = tmp_path / "trace.csv"
        main(
            [
                "generate",
                str(sample_file),
                "--model",
                "hm",
                "--cuts",
                "ils",
                "--k",
                "2",
                "--out",
                str(tmp_path / "t.cnf"),
                "--trace-out",
                str(trace),
            ]
        )
        rows = trace.read_text().splitlines()
        assert rows[0] == "step,best_fitness,elapsed_seconds"
        assert len(rows) >= 2

    @pytest.mark.parametrize("cuts", ["ils", "ga"])
    def test_optimizer_on_empty_word_only_sample_is_one_line_error(self, tmp_path, cuts):
        path = tmp_path / "empty.txt"
        path.write_text("n=2\n+\n")
        argv = ["generate", str(path), "--model", "hm", "--k", "2", "--cuts", cuts]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "x.cnf")])
        assert str(err.value) == "nfasat: error: sample has no non-empty words to split"


class TestSolveCommand:
    def test_unit_sat(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        assert main(["solve", str(cnf)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "SAT"

    def test_contradiction_unsat(self, tmp_path, capsys):
        cnf = tmp_path / "two.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        main(["solve", str(cnf)])
        assert json.loads(capsys.readouterr().out)["status"] == "UNSAT"

    def test_timeout_zero_unknown(self, tmp_path, capsys):
        cnf = tmp_path / "three.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        code = main(["solve", str(cnf), "--timeout", "0"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["status"] == "UNKNOWN"

    def test_literal_beyond_header_is_one_line_error(self, tmp_path):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 2 1\n1 5 0\n")
        with pytest.raises(SystemExit) as err:
            main(["solve", str(cnf)])
        message = str(err.value)
        assert message.startswith("nfasat: error: ") and "\n" not in message
        assert "variable 5 in clause 1 exceeds the header's 2 variables" in message


class TestInferCommand:
    def test_simple_sat_verified(self):
        sample = Sample.build(2, [A], [B])
        for model in ModelKind:
            report, nfa = infer(sample, model, 1, cuts_source="prefix")
            assert report.status == "SAT"
            assert nfa is not None and verify(nfa, sample).ok

    def test_lambda_contradiction_unsat_all_models(self):
        sample = Sample.build(1, [()], [()])
        for model in ModelKind:
            report, nfa = infer(sample, model, 2)
            assert report.status == "UNSAT" and nfa is None

    def test_matches_oracle_over_k_sweep(self):
        sample = Sample.build(2, [AB, (1, 1)], [A, B])
        for k in (1, 2, 3):
            truth = oracle_exists(sample, k)[0]
            report, _ = infer(sample, ModelKind.PREFIX, k)
            assert (report.status == "SAT") == truth

    def test_external_solver_path(self, tmp_path, sample_file, capsys):
        code = main(
            [
                "infer",
                str(sample_file),
                "--model",
                "pm",
                "--k",
                "2",
                "--nfa-out",
                str(tmp_path / "out.json"),
                "--solver",
                f"{sys.executable} -m nfasat.dimacs_solver {{cnf}}",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["k"] == 2

    def test_report_total_is_sum(self):
        sample = Sample.build(2, [AB], [B])
        report, _ = infer(sample, ModelKind.PREFIX, 2)
        assert report.t_t_seconds == pytest.approx(
            report.t_m_seconds + report.t_s_seconds
        )

    def test_zero_states_is_one_line_error(self, sample_file):
        with pytest.raises(SystemExit) as err:
            main(["infer", str(sample_file), "--model", "pm", "--k", "0"])
        assert str(err.value) == "nfasat: error: state count k must be >= 1, got 0"

    def test_ambiguous_digit_word_is_one_line_error(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("n=12\n11+\n3-\n")
        with pytest.raises(SystemExit) as err:
            main(["infer", str(path), "--model", "pm", "--k", "1"])
        message = str(err.value)
        assert message.startswith("nfasat: error: word '11' is ambiguous with n=12")
        assert "\n" not in message

    def test_k_sweep_stops_at_first_satisfiable_size(self, tmp_path, capsys):
        path = tmp_path / "needs2.txt"
        path.write_text("n=1\na+\naa-\n")  # impossible with one state
        assert oracle_exists(parse_sample(path.read_text()), 1) == (False, None)
        main(
            [
                "infer",
                str(path),
                "--model",
                "pm",
                "--k",
                "1",
                "--k-max",
                "3",
                "--nfa-out",
                str(tmp_path / "n.json"),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "SAT"
        assert report["k"] == 2


class TestResolveCuts:
    def test_prefix_and_suffix_sources(self):
        sample = Sample.build(2, [AB], [B])
        cuts, fit, _ = resolve_cuts(sample, "prefix", 2, 0)
        assert cuts == {AB: 2, B: 1} and fit == 3
        cuts, fit, _ = resolve_cuts(sample, "suffix", 2, 0)
        assert cuts == {AB: 0, B: 0}

    def test_file_source(self, tmp_path):
        sample = Sample.build(2, [AB], [B])
        path = tmp_path / "cuts.json"
        path.write_text(json.dumps({"ab": 1, "b": 0}))
        cuts, _, _ = resolve_cuts(sample, f"file:{path}", 2, 0)
        assert cuts == {AB: 1, B: 0}

    def test_optimizer_params_not_mutated(self):
        sample = Sample.build(2, [AB, (1, 1, 0)], [B, (0, 0)])
        ils = IlsParams(rng_seed=5)
        ga = GaParams(population_size=4, max_gen=2, rng_seed=5)
        resolve_cuts(sample, "ils", 2, 9, ils_params=ils)
        resolve_cuts(sample, "ga", 2, 9, ga_params=ga)
        assert ils == IlsParams(rng_seed=5)
        assert ga == GaParams(population_size=4, max_gen=2, rng_seed=5)

    def test_unknown_source_rejected(self):
        with pytest.raises(Exception):
            resolve_cuts(Sample.build(2, [A], []), "sideways", 2, 0)

    def test_optimizer_config_file(self, tmp_path, sample_file):
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"ils": {"max_iter": 5, "max_iter_without_improv": 2}}))
        out = tmp_path / "cfg.cnf"
        trace = tmp_path / "cfg-trace.csv"
        main(
            [
                "generate",
                str(sample_file),
                "--model",
                "hm",
                "--cuts",
                "ils",
                "--k",
                "2",
                "--config",
                str(config),
                "--out",
                str(out),
                "--trace-out",
                str(trace),
            ]
        )
        # 5-iteration cap means the trace holds at most 6 rows plus a header
        assert len(trace.read_text().splitlines()) <= 7


class TestBench:
    def test_csv_row_count_and_cumulative(self, tmp_path):
        samples = [
            ("s1", Sample.build(2, [A, AB], [B])),
            ("s2", Sample.build(2, [B], [A])),
        ]
        models = ["pm", "sm", "hm-ils"]
        rows = run_bench(
            samples,
            models,
            k_of=lambda name: 2,
            runs=3,
            solver_cmd=None,
            timeout_seconds=60,
            literal_budget=10**8,
            base_seed=0,
            use_external=False,
            log=lambda *_: None,
        )
        plain = [r for r in rows if r.instance != "CUMULATIVE"]
        totals = [r for r in rows if r.instance == "CUMULATIVE"]
        assert len(plain) == len(samples) * len(models)
        assert len(totals) == len(models)
        for total in totals:
            model_rows = [r for r in plain if r.model == total.model]
            assert total.vars == pytest.approx(sum(r.vars for r in model_rows))

    def test_ils_params_reach_the_optimizer(self):
        sample = random_sample(2, 12, 6, 0.5, seed=2)
        capped = IlsParams(max_iter=1, max_iter_without_improv=1)
        rows = run_bench(
            [("s", sample)],
            ["hm-ils"],
            k_of=lambda name: 2,
            runs=1,
            solver_cmd=None,
            timeout_seconds=60,
            literal_budget=10**8,
            base_seed=0,
            use_external=False,
            log=lambda *_: None,
            ils_params=capped,
        )
        _, expected, _ = resolve_cuts(sample, "ils", 2, 0, ils_params=capped)
        assert rows[0].fitness == expected
        assert expected != resolve_cuts(sample, "ils", 2, 0)[1]  # the cap matters here

    def test_cli_bench_reads_config(self, tmp_path):
        sdir = tmp_path / "samples"
        sdir.mkdir()
        sample = random_sample(2, 12, 6, 0.5, seed=2)
        (sdir / "s.txt").write_text(format_sample(sample))
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"ils": {"max_iter": 1, "max_iter_without_improv": 1}}))
        out_csv = tmp_path / "bench.csv"
        args = ["bench", str(sdir), "--models", "hm-ils", "--k", "2", "--runs", "1"]
        main(args + ["--config", str(config), "--out-csv", str(out_csv)])
        with open(out_csv) as fh:
            row = next(csv.DictReader(fh))
        capped = IlsParams(max_iter=1, max_iter_without_improv=1)
        _, report, _ = generate_instance(sample, ModelKind.HYBRID, 2, "ils", 0, ils_params=capped)
        _, default, _ = generate_instance(sample, ModelKind.HYBRID, 2, "ils", 0)
        assert int(row["vars"]) == report.vars != default.vars

    def test_deterministic_model_identical_across_runs(self):
        sample = Sample.build(2, [AB], [B])
        from nfasat.cli import bench_one

        first = bench_one(sample, "pm", 2, 0, 0, None, 60, 10**8, "x", False)
        second = bench_one(sample, "pm", 2, 0, 0, None, 60, 10**8, "x", False)
        assert first.comparable_dict() == second.comparable_dict()

    def test_generation_failure_gets_600s_credit(self):
        rows = [
            RunReport(instance="i", model="dm", k=4, status="GENFAIL"),
            RunReport(
                instance="i",
                model="pm",
                k=4,
                vars=10,
                clauses=20,
                t_m_seconds=1.0,
                status="SAT",
                decisions=5,
                t_s_seconds=0.5,
            ),
        ]
        totals = cumulative_rows(rows, ["dm", "pm"])
        dm_total = next(r for r in totals if r.model == "dm")
        assert dm_total.t_m_seconds == pytest.approx(600.0)
        # missing vars/clauses/decisions/solve time borrow the peer maximum
        assert dm_total.vars == 10
        assert dm_total.t_s_seconds == pytest.approx(0.5)

    def test_unsolved_substitutes_peer_maximum(self):
        rows = [
            RunReport(
                instance="i",
                model="pm",
                k=3,
                vars=10,
                clauses=20,
                t_m_seconds=1.0,
                status="UNKNOWN",
            ),
            RunReport(
                instance="i",
                model="sm",
                k=3,
                vars=40,
                clauses=80,
                t_m_seconds=2.0,
                status="SAT",
                decisions=7,
                t_s_seconds=3.0,
            ),
        ]
        totals = cumulative_rows(rows, ["pm", "sm"])
        pm_total = next(r for r in totals if r.model == "pm")
        assert pm_total.t_s_seconds == pytest.approx(3.0)
        assert pm_total.decisions == 7

    def test_aggregate_skips_failed_runs(self):
        rows = [
            RunReport(instance="i", model="hm-ils", k=2, vars=10, t_m_seconds=1.0, status="SAT", t_s_seconds=1.0),
            RunReport(instance="i", model="hm-ils", k=2, status="GENFAIL"),
        ]
        agg = aggregate_runs(rows)
        assert agg.runs_completed == 1
        assert agg.vars == 10
        assert agg.status == "MIXED"

    def test_cli_end_to_end_csv(self, tmp_path):
        sdir = tmp_path / "samples"
        sdir.mkdir()
        (sdir / "a.txt").write_text("n=2\nab+\nb-\n")
        (sdir / "b.txt").write_text("n=2\na+\nbb-\n")
        out_csv = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                str(sdir),
                "--models",
                "pm,hm-ils",
                "--k",
                "2",
                "--runs",
                "3",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 + 2
        assert {r["instance"] for r in rows} == {"a", "b", "CUMULATIVE"}


class TestRandomSample:
    def test_seed_reproducible(self):
        first = random_sample(2, 10, 5, 0.5, seed=3)
        second = random_sample(2, 10, 5, 0.5, seed=3)
        assert first == second

    def test_all_positive(self):
        sample = random_sample(2, 8, 5, 1.0, seed=0)
        assert sample.negatives == frozenset()

    def test_max_len_zero_single_word(self):
        sample = random_sample(2, 5, 0, 0.5, seed=0)
        assert len(sample.positives) + len(sample.negatives) == 1

    def test_disjoint_sets(self):
        sample = random_sample(2, 30, 4, 0.5, seed=1)
        sample.check_consistent()

    def test_cli_writes_parseable_file(self, tmp_path):
        out = tmp_path / "rand.txt"
        main(
            [
                "random-sample",
                "--n",
                "3",
                "--words",
                "12",
                "--max-len",
                "6",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        sample = parse_sample(out.read_text())
        assert sample.alphabet_size == 3


class TestDimacsSolverCli:
    def test_subprocess_sat_output(self, tmp_path):
        cnf = tmp_path / "t.cnf"
        cnf.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nfasat.dimacs_solver", str(cnf)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 10
        assert "s SATISFIABLE" in proc.stdout
        assert any(line.startswith("v ") for line in proc.stdout.splitlines())

    def test_subprocess_unsat_exit_code(self, tmp_path):
        cnf = tmp_path / "u.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nfasat.dimacs_solver", str(cnf)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 20
        assert "s UNSATISFIABLE" in proc.stdout

    def test_subprocess_prints_search_counters(self, tmp_path):
        cnf = tmp_path / "c.cnf"
        cnf.write_text("p cnf 3 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 3 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nfasat.dimacs_solver", str(cnf)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 10
        counters = {}
        for line in proc.stdout.splitlines():
            parts = line.split()
            if parts[0] == "c" and len(parts) == 3:
                counters[parts[1]] = int(parts[2])
        assert set(counters) == {"decisions", "conflicts", "propagations"}
        assert counters["propagations"] >= 3

    def test_subprocess_malformed_input_one_line_error(self, tmp_path):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 2 1\n1 5 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nfasat.dimacs_solver", str(cnf)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "nfasat-solve: error: variable 5 in clause 1 exceeds the header's 2 variables\n"
        )


class TestVerificationGate:
    def test_broken_decode_raises_hard_error(self, monkeypatch):
        import nfasat.cli as cli_mod
        from nfasat.nfa import Nfa

        def broken_decode(assignment, registry, k, n):
            return Nfa(k=k, n=n, transitions=frozenset(), finals=frozenset())

        monkeypatch.setattr(cli_mod, "decode_nfa", broken_decode)
        sample = Sample.build(2, [A], [])
        with pytest.raises(InferenceError):
            infer(sample, ModelKind.PREFIX, 1)
