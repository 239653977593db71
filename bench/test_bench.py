"""Tests of the benchmark itself: tiny workloads, and checks that catch wrong values.

    python3 -m pytest bench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from svyest import (
    DgpModel,
    PenaltySpec,
    Srswor,
    draw,
    fit_elastic_net,
    fit_greg,
    generate_auxiliary,
    generate_survey_variable,
    model_assisted,
    substream,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def tiny_scenario(name: str, tmp_path: Path) -> Path:
    """The workload's scenario at a size that runs in about a second."""
    config = json.loads((BENCH / "scenarios" / f"{name}.json").read_text())
    generator = config["population"]["generator"]
    generator["units"], generator["columns"] = 400, 24
    config["design"]["n"] = 80
    config["d_noise_levels"] = [0, 5, 12, 21] if name == "stratified_knn" else [2, 12]
    config["replicates"] = 3
    for entry in config["estimators"]:
        if entry["method"] == "forest":
            entry["n_trees"] = 3
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_runs_and_passes_its_checks(name, tmp_path):
    result = run.run(tiny_scenario(name, tmp_path), 5, 0.0, False, tmp_path)
    assert result["problems"] == [] and result["correct"]
    assert result["failed"] == 0
    roster = {"linear_cv": 6, "stratified_knn": 4}[name]
    levels = 4 if name == "stratified_knn" else 2
    assert result["attempted"] == 3 * levels * roster
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_counts_repeat(name, tmp_path):
    path = tiny_scenario(name, tmp_path)
    first = run.run(path, 5, 0.0, True, tmp_path)
    second = run.run(path, 5, 0.0, True, tmp_path)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.per_layer_units())
    counts = [name for name, metric in first["metrics"].items() if metric["unit"] == "count"]
    assert counts
    assert all(first["metrics"][c]["value"] == second["metrics"][c]["value"] for c in counts)
    assert first["metrics"]["sampling.draw.calls"]["value"] == 3 * (4 if name == "stratified_knn" else 2)


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stratified_knn", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture(scope="module")
def population():
    pop = generate_auxiliary(500, 8, rho=0.5, seed=11)
    return generate_survey_variable(pop, DgpModel("Y1", seed=12))


def test_greg_check_rejects_a_total_off_by_1e6_relative(population):
    sample = draw(Srswor(60), population, substream(13, 1))
    y_s = population.y[sample.indices]
    svyest_total = model_assisted(sample, population, fit_greg(sample, population.x[sample.indices], y_s)).t_hat
    own = checks.greg_total(population.x, sample.indices, y_s, sample.pi)
    checks.check_totals("greg", [svyest_total], [own])
    with pytest.raises(checks.CheckError):
        checks.check_totals("greg", [svyest_total * (1 + 1e-6)], [own])


def test_ht_mse_check_rejects_the_mse_of_another_design(population):
    y = np.asarray(population.y)
    reps = 400

    def ht_mse(n):
        deviations = []
        for r in range(1, reps + 1):
            sample = draw(Srswor(n), population, substream(14, r))
            deviations.append(checks.ht_total(y[sample.indices], sample.pi) - y.sum())
        return float(np.mean(np.square(deviations)))

    checks.check_ht_mse(ht_mse(100), checks.srswor_variance(y, 100), reps)
    with pytest.raises(checks.CheckError):
        checks.check_ht_mse(ht_mse(50), checks.srswor_variance(y, 100), reps)


def test_kkt_check_rejects_a_coefficient_vector_off_the_optimum(population):
    sample = draw(Srswor(80), population, substream(15, 1))
    x_s, y_s = population.x[sample.indices], population.y[sample.indices]
    fitted = fit_elastic_net(sample, x_s, y_s, PenaltySpec(lam=2000.0, alpha=0.5))
    coef, intercept = fitted.params["coef"], fitted.params["intercept"]
    assert 0 < np.count_nonzero(coef) < coef.size

    def violation(c):
        return checks.kkt_violation(x_s, y_s, sample.pi, c, intercept, 2000.0, 0.5)

    checks.check_kkt("en", violation(coef), coef.size)
    for j in (np.flatnonzero(coef)[0], np.flatnonzero(coef == 0)[0]):
        moved = coef.copy()
        moved[j] += 0.01 / x_s[:, j].std()
        with pytest.raises(checks.CheckError):
            checks.check_kkt("en", violation(moved), coef.size)
