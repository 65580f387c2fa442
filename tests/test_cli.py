import csv
import io
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from nfasat.cli import (
    ConfigError,
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
from nfasat import encoders, sample as sample_module
from nfasat.cnf import dimacs_text, write_dimacs
from nfasat.dimacs_solver import main as dimacs_solver_main
from nfasat.encoders import ModelKind
from nfasat.nfa import verify
from nfasat.sample import Sample, format_sample, parse_sample
from nfasat.splitopt import GaParams, IlsParams

from oracle import oracle_exists

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

    def test_dimacs_file_holds_the_instance_text(self, tmp_path, sample_file):
        out = tmp_path / "demo.cnf"
        assert main(["generate", str(sample_file), "--model", "sm", "--k", "2",
                     "--out", str(out)]) == 0
        instance, _, _ = generate_instance(parse_sample(sample_file.read_text()), ModelKind.SUFFIX, 2)
        assert out.read_bytes() == dimacs_text(instance).encode()

    def test_stats_sidecar_carries_family_counts(self, tmp_path, sample_file):
        out = tmp_path / "demo.cnf"
        assert main(["generate", str(sample_file), "--model", "hm", "--k", "2",
                     "--out", str(out)]) == 0
        stats = json.loads((tmp_path / "demo.cnf.stats.json").read_text())
        instance, _, _ = generate_instance(parse_sample(sample_file.read_text()), ModelKind.HYBRID, 2)
        assert stats["family_clause_counts"] == instance.family_clause_counts()
        assert stats["var_family_counts"] == dict(instance.var_family_counts)
        assert sum(stats["family_clause_counts"].values()) == stats["clauses"]
        assert sum(stats["var_family_counts"].values()) == stats["vars"]
        assert stats["var_family_counts"]["accept_aux"] > 0

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

    @pytest.mark.parametrize("model", ["dm", "pm", "sm", "hm"])
    def test_model_budget_error(self, tmp_path, model):
        path = tmp_path / "long.txt"
        path.write_text("n=1\n" + "a" * 30 + "+\n")
        out = tmp_path / "x.cnf"
        with pytest.raises(SystemExit) as err:
            main(["generate", str(path), "--model", model, "--k", "5",
                  "--budget-literals", "1000", "--out", str(out)])
        message = str(err.value)
        assert message.startswith("nfasat: error: instance too large") and "\n" not in message
        assert not out.exists()

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

    @pytest.mark.parametrize("model", [["--model", "pm"], ["--model", "hm", "--cuts", "prefix"]])
    def test_trace_out_without_optimizer_is_one_line_error(self, tmp_path, sample_file, model):
        out = tmp_path / "x.cnf"
        with pytest.raises(SystemExit) as err:
            main(["generate", str(sample_file), *model, "--k", "2", "--out", str(out),
                  "--trace-out", str(tmp_path / "trace.csv")])
        assert str(err.value) == (
            "nfasat: error: --trace-out needs an optimizer run: --model hm --cuts ils or ga"
        )
        assert not out.exists() and not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("cuts", ["ils", "ga"])
    def test_optimizer_on_empty_word_only_sample_is_one_line_error(self, tmp_path, cuts):
        path = tmp_path / "empty.txt"
        path.write_text("n=2\n+\n")
        argv = ["generate", str(path), "--model", "hm", "--k", "2", "--cuts", cuts]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "x.cnf")])
        assert str(err.value) == "nfasat: error: sample has no non-empty words to split"

    @pytest.mark.parametrize("flag", [["--solver", "x"], ["--timeout", "5"]])
    def test_solver_flags_are_not_accepted(self, tmp_path, sample_file, flag):
        with pytest.raises(SystemExit) as err:
            main(["generate", str(sample_file), "--model", "pm", "--k", "1",
                  "--out", str(tmp_path / "x.cnf"), *flag])
        assert err.value.code == 2  # argparse's usage error
        assert not (tmp_path / "x.cnf").exists()


class TestSolveCommand:
    def test_unit_sat(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        assert main(["solve", str(cnf)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "SAT"

    def test_report_carries_search_counters(self, tmp_path, capsys):
        cnf = tmp_path / "pairs.cnf"
        cnf.write_text("p cnf 3 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 3 0\n")
        assert main(["solve", str(cnf)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "SAT"
        assert report["conflicts"] >= 1 and report["propagations"] >= 3

    def test_bundled_solver_starts_no_process(self, tmp_path, capsys, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a solver process was started")

        monkeypatch.setattr(subprocess, "run", no_process)
        cnf = tmp_path / "two.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["solve", str(cnf)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "UNSAT"

    def test_not_utf8_is_one_line_error(self, tmp_path):
        cnf = tmp_path / "utf16.cnf"
        cnf.write_bytes(b"\xff\xfep\x00 \x00c\x00n\x00f\x00")
        with pytest.raises(SystemExit) as err:
            main(["solve", str(cnf)])
        message = str(err.value)
        assert message.startswith(f"nfasat: error: {cnf} is not UTF-8 text") and "\n" not in message

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

    def test_alphabet_beyond_the_budget_is_one_error_line(self, tmp_path, monkeypatch):
        def build(*_):
            raise AssertionError("the layout's tables were built")

        monkeypatch.setattr(encoders, "_base_instance", build)
        path = tmp_path / "wide.txt"
        path.write_text("n=100000000\nab+\nb-\n")
        with pytest.raises(SystemExit) as err:
            main(["infer", str(path), "--model", "pm", "--k", "2"])
        message = str(err.value)
        assert message.startswith("nfasat: error: instance too large") and "\n" not in message
        assert "layout variables" in message

    def test_sweep_builds_one_sample_index(self, monkeypatch):
        built = []

        class CountedIndex(sample_module.SampleIndex):
            def __init__(self, words):
                built.append(words)
                super().__init__(words)

        monkeypatch.setattr(sample_module, "SampleIndex", CountedIndex)
        a3 = (0, 0, 0)  # a unary sample whose minimal NFA counts modulo 3
        sample = Sample.build(1, [(), a3, a3 * 2], [A, A * 2, A * 4, A * 5])
        report, nfa = infer(sample, ModelKind.HYBRID, 1, "ils", k_max=3)
        assert report.k == 3 and nfa is not None  # ILS and encode at k = 1, 2 and 3
        assert len(built) == 1

    def test_only_solving_builds_the_fooling_set_once_per_sweep(self, monkeypatch):
        built = []

        def counted(adjacent):
            built.append(len(adjacent))
            return max_clique(adjacent)

        max_clique = sample_module._max_clique
        monkeypatch.setattr(sample_module, "_max_clique", counted)
        a3 = (0, 0, 0)  # a unary sample whose minimal NFA counts modulo 3
        sample = Sample.build(1, [(), a3, a3 * 2], [A, A * 2, A * 4, A * 5])
        for model in ModelKind:
            instance, _, _ = generate_instance(sample, model, 2, "ils")
            write_dimacs(instance, io.StringIO())
        assert "fooling_set" not in sample.__dict__ and built == []
        report, nfa = infer(sample, ModelKind.PREFIX, 1, k_max=3)
        assert report.k == 3 and nfa is not None  # k = 1 and 2 settled by the set's 3 pairs
        assert len(sample.fooling_set) == 3 and len(built) == 1

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

    def test_malformed_solver_output_is_one_line_error(self, tmp_path, sample_file):
        script = tmp_path / "badsolver.py"
        script.write_text("print('s SATISFIABLE')\nprint('v 1 x 0')\n")
        with pytest.raises(SystemExit) as err:
            main(["infer", str(sample_file), "--model", "pm", "--k", "2",
                  "--solver", f"{sys.executable} {script} {{cnf}}"])
        message = str(err.value)
        assert message.startswith("nfasat: error: bad literal 'x'") and "\n" not in message

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

    def test_sample_not_utf8_is_one_line_error(self, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfen\x00=\x002\x00")
        with pytest.raises(SystemExit) as err:
            main(["generate", str(path), "--model", "pm", "--k", "1", "--out", str(tmp_path / "x.cnf")])
        message = str(err.value)
        assert message.startswith(f"nfasat: error: sample {path} is not UTF-8 text")
        assert "\n" not in message

    def test_ambiguous_digit_word_is_one_line_error(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("n=12\n11+\n3-\n")
        with pytest.raises(SystemExit) as err:
            main(["infer", str(path), "--model", "pm", "--k", "1"])
        message = str(err.value)
        assert message.startswith("nfasat: error: word '11' is ambiguous with n=12")
        assert "\n" not in message

    def test_k_max_below_k_is_one_line_error(self, sample_file):
        with pytest.raises(SystemExit) as err:
            main(["infer", str(sample_file), "--model", "pm", "--k", "3", "--k-max", "2"])
        assert str(err.value) == "nfasat: error: --k-max 2 is below --k 3"

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

    def test_k_sweep_stops_at_first_size_that_is_not_unsat(self, tmp_path, sample_file, capsys):
        code = main(["infer", str(sample_file), "--model", "pm", "--k", "1", "--k-max", "3",
                     "--timeout", "0", "--nfa-out", str(tmp_path / "n.json")])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert (report["k"], report["status"]) == (1, "UNKNOWN")
        assert not (tmp_path / "n.json").exists()

    def test_sweep_stops_at_first_sat_in_memory(self):
        sample = parse_sample("n=1\na+\naa-\n")
        report, nfa = infer(sample, ModelKind.PREFIX, 1, k_max=3)
        assert (report.k, report.status) == (2, "SAT")
        assert nfa is not None and nfa.k == 2 and verify(nfa, sample).ok

    def test_sweep_stops_at_unknown_in_memory(self):
        sample = parse_sample("n=1\na+\naa-\n")
        report, nfa = infer(sample, ModelKind.PREFIX, 1, timeout_seconds=0, k_max=3)
        assert (report.k, report.status, nfa) == (1, "UNKNOWN", None)

    def test_sweep_k_max_below_k_in_memory(self):
        with pytest.raises(ConfigError, match=r"^--k-max 2 is below --k 3$"):
            infer(Sample.build(2, [AB], [B]), ModelKind.PREFIX, 3, k_max=2)

    def test_report_shows_solver_counters(self, tmp_path, sample_file, capsys):
        assert main(["infer", str(sample_file), "--model", "pm", "--k", "2",
                     "--nfa-out", str(tmp_path / "n.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conflicts"] >= 0 and report["propagations"] > 0


@pytest.mark.parametrize("timeout", ["inf", "3e6"])
@pytest.mark.parametrize("command", ["infer", "solve"])
def test_long_timeout_with_a_solver_command_runs_unlimited(
    tmp_path, sample_file, capsys, command, timeout
):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    solver = f"{sys.executable} -m nfasat.dimacs_solver {{cnf}} --timeout {{timeout}}"
    target = str(sample_file) if command == "infer" else str(cnf)
    extra = ["--model", "pm", "--k", "2", "--nfa-out", str(tmp_path / "n.json")]
    code = main([command, target, *(extra if command == "infer" else []),
                 "--timeout", timeout, "--solver", solver])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "SAT"


@pytest.mark.parametrize("command", ["infer", "solve"])
def test_solver_template_with_an_unbalanced_quote_is_one_line_error(tmp_path, sample_file, command):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    target = str(sample_file) if command == "infer" else str(cnf)
    extra = ["--model", "pm", "--k", "2"] if command == "infer" else []
    with pytest.raises(SystemExit) as err:
        main([command, target, *extra, "--solver", '"x {cnf}'])
    assert str(err.value) == "nfasat: error: solver template '\"x {cnf}': No closing quotation"


@pytest.mark.parametrize("timeout", ["nan", "-1", "-0.5"])
@pytest.mark.parametrize("command", ["infer", "solve", "nfasat-solve"])
def test_bad_timeout_is_one_line_error(tmp_path, sample_file, capsys, command, timeout):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    expected = f"error: --timeout must be a number of seconds >= 0, got {float(timeout)}"
    if command == "nfasat-solve":
        assert dimacs_solver_main([str(cnf), "--timeout", timeout]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"nfasat-solve: {expected}\n")
        return
    target = str(sample_file) if command == "infer" else str(cnf)
    extra = ["--model", "pm", "--k", "1"] if command == "infer" else []
    with pytest.raises(SystemExit) as err:
        main([command, target, *extra, "--timeout", timeout])
    assert str(err.value) == f"nfasat: {expected}"


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

    @pytest.mark.parametrize("again", ["0,1", "01"])
    def test_file_source_naming_a_word_twice_is_one_line_error(self, tmp_path, again):
        path = tmp_path / "s.txt"
        path.write_text("n=2\nab+\na+\nb-\n")
        cuts = tmp_path / "cuts.json"
        cuts.write_text(f'{{"ab": 1, "{again}": 2, "a": 1, "b": 0}}')
        with pytest.raises(SystemExit) as err:
            main(["generate", str(path), "--model", "hm", "--k", "2", "--cuts",
                  f"file:{cuts}", "--out", str(tmp_path / "x.cnf")])
        assert str(err.value) == (
            f"nfasat: error: cuts file {cuts} names the word 'ab' twice (again as '{again}')"
        )
        assert not (tmp_path / "x.cnf").exists()

    def test_file_source_ambiguous_digit_key_is_one_line_error(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("n=12\n11,+\n1,1-\n")
        cuts = tmp_path / "cuts.json"
        cuts.write_text(json.dumps({"11": 0, "1,1": 1}))
        with pytest.raises(SystemExit) as err:
            main(["generate", str(path), "--model", "hm", "--k", "1", "--cuts",
                  f"file:{cuts}", "--out", str(tmp_path / "wide.cnf")])
        message = str(err.value)
        assert message.startswith("nfasat: error: word '11' is ambiguous with n=12")
        assert "\n" not in message

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

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"ils": {"bogus": 1}}', "unexpected keyword argument 'bogus'"),
            ('{"ga": {"population_size": 1}}', "population size must be at least 2"),
            ('{"ga": {"population_size": 10.5}}', "population_size must be of type int"),
            ('{"ils": {"max_iter": "5"}}', "max_iter must be of type int"),
            ('{"ils": [1]}', "must be a mapping"),
            ('{"GA": {}}', "sections must be 'ils' and/or 'ga'"),
            ('{"ils": ', "is not valid JSON"),
            (b'{"ils": {"max_iter": "\xff"}}', "is not valid JSON"),
            ('["ils"]', "must hold a JSON object, not list"),
            ('{"ils": {"rng_seed": 5}}', "rng_seed is not a config key; --seed sets the optimizer seed"),
            ('{"ils": {"max_iter": 0}, "ils": {"max_iter": 5}}', "writes the key 'ils' twice"),
            ('{"ils": {"max_iter": 0, "max_iter": 5}}', "writes the key 'max_iter' twice"),
        ],
        ids=["unknown-key", "invalid-value", "float-count", "string-value", "section-not-object",
             "unknown-section", "malformed-json", "not-utf8", "not-an-object", "rng-seed",
             "repeated-section", "repeated-nested-key"],
    )
    def test_bad_optimizer_config_is_one_line_error(self, tmp_path, sample_file, text, expected):
        config = tmp_path / "params.json"
        config.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(SystemExit) as err:
            main(["generate", str(sample_file), "--model", "hm", "--cuts", "ils", "--k", "2",
                  "--config", str(config), "--out", str(tmp_path / "x.cnf")])
        message = str(err.value)
        assert message.startswith(f"nfasat: error: optimizer config {config}")
        assert expected in message and "\n" not in message
        assert not (tmp_path / "x.cnf").exists()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"ab": 1, ', "cuts file {path} is not valid JSON"),
            ('["ab"]', "cuts file {path} must hold a JSON object, not list"),
            ('{"ab": "1", "a": 0, "b": 0, "bb": 1}', "cut '1' is not an integer in 0..2"),
            ('{"ab": true, "a": 0, "b": 0, "bb": 1}', "cut True is not an integer in 0..2"),
            ('{"ab": 1, "a": 0, "b": 0, "bb": 1, "ab": 2}',
             "cuts file {path} writes the key 'ab' twice"),
        ],
        ids=["malformed-json", "not-an-object", "string-cut", "bool-cut", "repeated-word"],
    )
    def test_bad_cuts_file_is_one_line_error(self, tmp_path, sample_file, text, expected):
        cuts = tmp_path / "cuts.json"
        cuts.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["generate", str(sample_file), "--model", "hm", "--k", "2", "--cuts",
                  f"file:{cuts}", "--out", str(tmp_path / "x.cnf")])
        message = str(err.value)
        assert message.startswith("nfasat: error: ") and "\n" not in message
        assert expected.format(path=cuts) in message

    @pytest.mark.parametrize(
        "command, model, cuts",
        [("generate", "dm", "prefix"), ("generate", "sm", "file:missing.json"), ("infer", "pm", "ga")],
    )
    def test_cuts_without_hybrid_model_is_one_line_error(
        self, tmp_path, sample_file, command, model, cuts
    ):
        out = tmp_path / "x.cnf"
        extra = ["--out", str(out)] if command == "generate" else ["--nfa-out", str(out)]
        with pytest.raises(SystemExit) as err:
            main([command, str(sample_file), "--model", model, "--k", "2", "--cuts", cuts, *extra])
        assert str(err.value) == f"nfasat: error: --cuts applies to --model hm only, not --model {model}"
        assert not out.exists()


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
        # a sample on which the default ILS improves on its start, so the cap shows
        sample = random_sample(2, 12, 6, 0.5, seed=31)
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
            log=lambda *_: None,
            ils_params=capped,
        )
        _, expected, _ = resolve_cuts(sample, "ils", 2, 0, ils_params=capped)
        assert rows[0].fitness == expected
        assert expected != resolve_cuts(sample, "ils", 2, 0)[1]  # the cap matters here

    def test_cli_bench_reads_config(self, tmp_path):
        sdir = tmp_path / "samples"
        sdir.mkdir()
        sample = random_sample(2, 12, 6, 0.5, seed=31)  # the default ILS improves on its start here
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

    def test_the_fooling_set_is_built_before_the_models_and_timed_apart(self, monkeypatch):
        built = []

        def slow(adjacent):
            built.append(len(adjacent))
            time.sleep(0.2)
            return max_clique(adjacent)

        max_clique = sample_module._max_clique
        monkeypatch.setattr(sample_module, "_max_clique", slow)
        a3 = (0, 0, 0)  # a unary sample whose minimal NFA counts modulo 3
        sample = Sample.build(1, [(), a3, a3 * 2], [A, A * 2, A * 4, A * 5])
        lines = []
        rows = run_bench([("x", sample)], ["pm", "sm"], lambda _: 2, 1, None, 60, 10**8, 0, log=lines.append)
        assert lines[0].startswith("# fooling set x: 3 pairs in ") and len(built) == 1
        plain = [r for r in rows if r.instance != "CUMULATIVE"]
        assert [(r.status, r.decisions) for r in plain] == [("UNSAT", 0)] * 2
        assert all(r.t_s_seconds < 0.2 for r in plain)  # the 0.2 s build is in no model's row

    def test_deterministic_model_identical_across_runs(self):
        sample = Sample.build(2, [AB], [B])
        first, second = (
            run_bench([("x", sample)], ["pm"], lambda _: 2, 1, None, 60, 10**8, 0)[0]
            for _ in range(2)
        )
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

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"a": 2, ', "k map {path} is not valid JSON"),
            ('{"a": 2}', "k map {path} has no entry for sample 'b'"),
            ('{"a": 2, "b": "2"}', "k map {path} maps 'b' to '2', not a positive int"),
            ('{"a": 0, "b": 2}', "k map {path} maps 'a' to 0, not a positive int"),
            ('{"a": 1, "b": 2, "a": 2}', "k map {path} writes the key 'a' twice"),
        ],
        ids=["malformed-json", "missing-sample", "string-value", "zero", "repeated-name"],
    )
    def test_bad_k_map_is_one_line_error(self, tmp_path, text, expected):
        sdir = tmp_path / "samples"
        sdir.mkdir()
        (sdir / "a.txt").write_text("n=2\nab+\nb-\n")
        (sdir / "b.txt").write_text("n=2\na+\nbb-\n")
        k_map = tmp_path / "k.json"
        k_map.write_text(text)
        out_csv = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as err:
            main(["bench", str(sdir), "--models", "pm", "--k-map", str(k_map), "--out-csv", str(out_csv)])
        message = str(err.value)
        assert message.startswith("nfasat: error: ") and "\n" not in message
        assert expected.format(path=k_map) in message
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--k", "2", "--runs", "0"], "--runs must be >= 1, got 0"),
            (["--k", "0"], "state count k must be >= 1, got 0"),
            (["--k", "2", "--glob", ""], "--glob '' must be a non-empty relative pattern"),
            (["--k", "2", "--glob", "/abs*.txt"],
             "--glob '/abs*.txt' must be a non-empty relative pattern"),
            (["--k", "2", "--models", ","], "--models ',' names no model"),
            (["--k", "2", "--models", ""], "--models '' names no model"),
        ],
        ids=["zero-runs", "zero-k", "empty-glob", "absolute-glob", "comma-models", "empty-models"],
    )
    def test_bad_bound_is_one_line_error(self, tmp_path, flags, expected):
        sdir = tmp_path / "samples"
        sdir.mkdir()
        (sdir / "a.txt").write_text("n=2\nab+\nb-\n")
        out_csv = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as err:
            main(["bench", str(sdir), "--models", "hm-ils", *flags, "--out-csv", str(out_csv)])
        assert str(err.value) == f"nfasat: error: {expected}"
        assert not out_csv.exists()

    def test_k_with_k_map_is_a_usage_error(self, tmp_path, capsys):
        sdir = tmp_path / "samples"
        sdir.mkdir()
        (sdir / "a.txt").write_text("n=2\nab+\nb-\n")
        k_map = tmp_path / "k.json"
        k_map.write_text('{"a": 2}')
        out_csv = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as err:
            main(["bench", str(sdir), "--models", "pm", "--k", "1", "--k-map", str(k_map),
                  "--out-csv", str(out_csv)])
        assert err.value.code == 2  # argparse's usage error
        assert "argument --k-map: not allowed with argument --k" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_k_map_sets_each_sample_k(self, tmp_path):
        sdir = tmp_path / "samples"
        sdir.mkdir()
        (sdir / "a.txt").write_text("n=2\nab+\nb-\n")
        (sdir / "b.txt").write_text("n=2\na+\nbb-\n")
        k_map = tmp_path / "k.json"
        k_map.write_text('{"a": 1, "b": 2, "unused": 3}')
        out_csv = tmp_path / "bench.csv"
        main(["bench", str(sdir), "--models", "pm", "--k-map", str(k_map), "--out-csv", str(out_csv)])
        with open(out_csv) as fh:
            ks = {row["instance"]: row["k"] for row in csv.DictReader(fh)}
        assert ks == {"a": "1", "b": "2", "CUMULATIVE": "0"}

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

    @pytest.mark.parametrize(
        "flag, value, expected",
        [
            ("--n", "0", "alphabet size n (0) and word count (10) must be >= 1"),
            ("--words", "0", "alphabet size n (2) and word count (0) must be >= 1"),
            ("--max-len", "-1", "and max length (-1) >= 0"),
            ("--positive-fraction", "2", "positive fraction must be in [0, 1], got 2.0"),
        ],
        ids=["zero-n", "zero-words", "negative-max-len", "fraction-above-1"],
    )
    def test_bad_argument_is_one_line_error(self, tmp_path, flag, value, expected):
        out = tmp_path / "rand.txt"
        argv = ["random-sample", "--out", str(out)]
        for item in {"--n": "2", "--words": "10", "--max-len": "4", flag: value}.items():
            argv += item
        with pytest.raises(SystemExit) as err:
            main(argv)
        message = str(err.value)
        assert message.startswith("nfasat: error: ") and "\n" not in message
        assert expected in message
        assert not out.exists()

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

    def test_zero_timeout_is_unknown(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        assert dimacs_solver_main([str(cnf), "--timeout", "0"]) == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    def test_a_wide_header_does_not_size_the_solver(self, tmp_path, capsys):
        # the solver is sized by the largest variable the clauses name
        cnf = tmp_path / "wide.cnf"
        cnf.write_text("p cnf 100000 1\n1 0\n")
        tracemalloc.start()
        try:
            code = dimacs_solver_main([str(cnf)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 10 and peak < 1_000_000
        assert capsys.readouterr().out.splitlines()[-1] == "v 1 0"

    def test_not_utf8_is_one_line_error(self, tmp_path, capsys):
        cnf = tmp_path / "utf16.cnf"
        cnf.write_bytes(b"\xff\xfep\x00 \x00c\x00n\x00f\x00")
        assert dimacs_solver_main([str(cnf)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"nfasat-solve: error: {cnf} is not UTF-8 text")
        assert captured.err.count("\n") == 1

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


class TestImport:
    def test_package_does_not_import_numpy(self):
        code = "import sys, nfasat, nfasat.cli, nfasat.dimacs_solver; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestVerificationGate:
    def test_broken_decode_raises_hard_error(self, monkeypatch):
        import nfasat.cli as cli_mod
        from nfasat.nfa import Nfa

        def broken_decode(assignment, instance, k, n):
            return Nfa(k=k, n=n, transitions=frozenset(), finals=frozenset())

        monkeypatch.setattr(cli_mod, "decode_nfa", broken_decode)
        sample = Sample.build(2, [A], [])
        with pytest.raises(InferenceError):
            infer(sample, ModelKind.PREFIX, 1)
