import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator

from svyest import horvitz_thompson, load_population, montecarlo, read_report
from svyest.cli import main
from svyest.errors import SvyestError


def _scenario_config(tmp_path, levels=(0, 2), reps=4):
    config = {
        "population": {
            "generator": {"units": 50, "columns": 6, "rho": 0.2, "seed": 3}
        },
        "model": {"variant": "Y1", "noise_scale": 200.0, "seed": 4},
        "design": {"kind": "srswor", "n": 10},
        "estimators": [{"method": "greg"}],
        "d_noise_levels": list(levels),
        "replicates": reps,
        "master_seed": 11,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return path


@dataclass(frozen=True)
class _FailsFirst:
    """Horvitz-Thompson that fails on its first call."""

    calls: Iterator[int] = field(default_factory=itertools.count, init=False, compare=False)

    def __call__(self, sample, xs, ys, working, rng):
        if next(self.calls) == 0:
            raise SvyestError("synthetic failure")
        return horvitz_thompson(sample, ys).t_hat


class TestSimulate:
    def test_repeat_runs_byte_identical(self, tmp_path):
        scenario = _scenario_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out_a), "--seed", "7"]) == 0
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out_b), "--seed", "7"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        scenario = _scenario_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["simulate", "--scenario", str(scenario), "--out", str(out_a), "--seed", "7"])
        main(["simulate", "--scenario", str(scenario), "--out", str(out_b), "--seed", "8"])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_missing_scenario_is_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "gone.json" in capsys.readouterr().err

    def test_invalid_config_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "svyest" in err and "bad.json" in err


    def test_wrong_case_penalty_is_runtime_error(self, tmp_path, capsys):
        config = json.loads(_scenario_config(tmp_path).read_text())
        config["estimators"] = [{"method": "lasso", "lam": "CV"}]
        bad = tmp_path / "wrong_case.json"
        bad.write_text(json.dumps(config))
        code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'lam'" in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_bad_forest_rule_is_runtime_error(self, tmp_path, capsys):
        config = json.loads(_scenario_config(tmp_path).read_text())
        config["estimators"] = [{"method": "forest", "n_trees": 2, "n_split_features": "Sqrt"}]
        bad = tmp_path / "wrong_case.json"
        bad.write_text(json.dumps(config))
        code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'forest'" in err and "'n_split_features'" in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()


    def test_failures_summarised_on_stderr(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(montecarlo.METHODS, "stub_fails_first", _FailsFirst)
        config = json.loads(_scenario_config(tmp_path, reps=101).read_text())
        config["estimators"].append({"method": "stub_fails_first", "name": "flaky"})
        path = tmp_path / "flaky.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        # serial: each level parses its own stub, so each level fails once
        assert main(["simulate", "--scenario", str(path), "--out", str(out), "--threads", "1"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"svyest: 'flaky' at d_noise {level} failed 1 of 101 replicates, "
            "first: replicate 1: synthetic failure"
            for level in (0, 2)
        ]
        rows = read_report(out).rows
        assert {(row.method, row.r) for row in rows} == {("flaky", 100), ("greg", 101), ("ht", 101)}

    def test_clean_run_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["simulate", "--scenario", str(_scenario_config(tmp_path)), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""


class TestReport:
    def test_pivot_by_dnoise_shape(self, tmp_path):
        scenario = _scenario_config(tmp_path, levels=(0, 2))
        report_path = tmp_path / "report.csv"
        main(["simulate", "--scenario", str(scenario), "--out", str(report_path)])
        table = tmp_path / "pivot.csv"
        assert main(["report", "--in", str(report_path), "--pivot", "by_dnoise", "--out", str(table)]) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "method,re_0,re_2"
        assert len(lines) == 1 + 2  # header + one row per method (greg, ht)

    def test_pivot_by_method_shape(self, tmp_path):
        scenario = _scenario_config(tmp_path, levels=(0, 2))
        report_path = tmp_path / "report.csv"
        main(["simulate", "--scenario", str(scenario), "--out", str(report_path)])
        table = tmp_path / "pivot.csv"
        main(["report", "--in", str(report_path), "--pivot", "by_method", "--out", str(table)])
        lines = table.read_text().splitlines()
        assert lines[0] == "d_noise,re_greg,re_ht"
        assert len(lines) == 1 + 2  # header + one row per level

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "no.csv"), "--out", str(tmp_path / "t.csv")]) == 1


class TestGenerate:
    def test_generate_then_load(self, tmp_path):
        out = tmp_path / "pop.csv"
        code = main(
            [
                "generate",
                "--out", str(out),
                "--units", "40",
                "--columns", "5",
                "--rho", "0.4",
                "--seed", "9",
                "--model", "Y1",
                "--strata", "2",
            ]
        )
        assert code == 0
        pop = load_population(out)
        assert pop.n_units == 40
        assert pop.n_aux == 5
        assert pop.y is not None
        assert pop.n_strata == 2

    def test_generate_deterministic(self, tmp_path):
        args = ["generate", "--units", "20", "--columns", "3", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["simulate", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["generate", "--units", "5"]) == 1

    def test_report_headers_survive_round_trip(self, tmp_path):
        scenario = _scenario_config(tmp_path, levels=(0,), reps=2)
        report_path = tmp_path / "r.csv"
        main(["simulate", "--scenario", str(scenario), "--out", str(report_path)])
        report = read_report(report_path)
        assert {row.method for row in report.rows} == {"ht", "greg"}


class TestFileSourcedScenario:
    def test_generate_then_simulate_from_file(self, tmp_path):
        pop_path = tmp_path / "pop.csv"
        assert main(
            [
                "generate", "--out", str(pop_path),
                "--units", "60", "--columns", "6", "--rho", "0.3", "--seed", "2",
                "--model", "Y1", "--strata", "2",
            ]
        ) == 0
        config = {
            "population": {"file": {"path": "pop.csv"}},
            "design": {"kind": "stratified", "n": 12, "allocation": "proportional"},
            "estimators": [{"method": "greg"}],
            "structural_columns": [0, 1, 2],
            "d_noise_levels": [0, 2],
            "replicates": 3,
            "master_seed": 5,
        }
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(config))
        out = tmp_path / "r.csv"
        assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        report = read_report(out)
        assert {row.method for row in report.rows} == {"ht", "greg"}
        assert {row.d_noise for row in report.rows} == {0, 2}
