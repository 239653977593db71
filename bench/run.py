"""svyest benchmark: the calls of ``svyest simulate``, timed on one workload.

    python3 bench/run.py --workload linear_cv --seed 1 --seconds 20 --trace 0

Run from a checkout: svyest is imported from the ``src`` directory next to
this one, and nothing is installed.  One round is what ``svyest simulate``
does after loading its scenario: ``sweep_dnoise`` over the process pool
(``threads`` = cores) and ``write_report``.  Rounds repeat until
``--seconds`` have passed; every round runs the same fits.  ``--seed``
becomes the scenario's ``master_seed``; the population is fixed per workload.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each round
three times, through the pool, serially, and serially with layer spans
(``spans.py``), and prints the per-layer metrics.  Either way the outputs of
the first round are checked (``checks.py``) and the last line of standard
output is one JSON object; a result file with the environment facts goes to
``bench/results/``.
"""
import time

STARTED = time.perf_counter()  # set-up is timed from the first statement

import argparse
import contextlib
import ctypes
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import svyest  # noqa: E402
from svyest import montecarlo  # noqa: E402

import checks  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402

WORKLOADS = ("linear_cv", "stratified_knn")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {"setup.load_scenario.wall_s": "s"}
    for span in SPANS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
    units["penalized.fit_elastic_net.sweeps"] = "count"
    units.update(
        {
            "montecarlo.harness.self_s": "s",
            "montecarlo.level_low.wall_s": "s",
            "montecarlo.level_high.wall_s": "s",
            "montecarlo.serial.wall_s": "s",
            "montecarlo.pool.speedup": "ratio",
            "trace.overhead_s": "s",
        }
    )
    return units


def _blas_runtime_threads():
    """Threads the loaded OpenBLAS will use, when numpy bundles one."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": _blas_runtime_threads(),
        "pool_size": threads,
        "pool_start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest reaped child.
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def sweep(scenario, threads: int, report_path: Path):
    """One round: ``sweep_dnoise`` then ``write_report``; returns (report, wall, cpu)."""
    cpu = _cpu_seconds()
    start = time.perf_counter()
    report = montecarlo.sweep_dnoise(scenario, threads=threads, log_estimates=True)
    montecarlo.write_report(report, report_path)
    return report, time.perf_counter() - start, _cpu_seconds() - cpu


def roster_labels(scenario) -> list[str]:
    labels = [spec.label for spec in scenario.estimators]
    if not any(spec.method == montecarlo.HT_METHOD for spec in scenario.estimators):
        labels.insert(0, montecarlo.HT_METHOD)
    return labels


def failed_fits(scenario, report) -> int:
    """Fits missing from the rows' ``r``, which must match ``McReport.failures``."""
    failed = sum(scenario.replicates - row.r for row in report.rows)
    logged = sum(len(messages) for messages in report.failures.values())
    if logged != failed:
        raise checks.CheckError(f"{failed} failed fits in the rows but {logged} in McReport.failures")
    return failed


def same_estimates(a, b) -> bool:
    return a.estimates.keys() == b.estimates.keys() and all(
        np.array_equal(a.estimates[key], b.estimates[key], equal_nan=True) for key in a.estimates
    )


def verify(scenario, report) -> None:
    """Check a sweep's outputs; raises ``checks.CheckError``."""
    pop = scenario.population
    y = np.asarray(pop.y)
    t_y = float(y.sum())
    design = scenario.design
    levels = scenario.d_noise_levels
    specs = {spec.label: spec for spec in scenario.estimators}
    est = report.estimates

    alloc = None
    if isinstance(design, svyest.StratifiedSrs):
        if design.allocation != "optimal":
            raise checks.CheckError("only SRSWOR and Neyman-allocated designs are checked")
        sizes, sds = checks.stratum_sizes_and_sds(pop.strata, pop.x[:, design.aux_column])
        alloc = checks.neyman_allocation(sizes, sds, design.n)
        variance = checks.stratified_variance(y, pop.strata, alloc)
    else:
        variance = checks.srswor_variance(y, design.n)

    samples = []
    for r in range(1, scenario.replicates + 1):
        sample = svyest.draw(design, pop, svyest.substream(scenario.master_seed, r))
        checks.check_sample(sample.indices, sample.pi, pop.n_units, pop.strata, alloc)
        samples.append((sample.indices, sample.pi))

    ht = [checks.ht_total(y[idx], pi) for idx, pi in samples]
    checks.check_paired([est[("ht", level)] for level in levels])
    for level in levels:
        checks.check_totals(f"ht@{level}", est[("ht", level)], ht)
        x_pop = pop.x[:, list(scenario.working_columns(level))]
        for label in (label for label, spec in specs.items() if spec.method == "greg"):
            greg = [checks.greg_total(x_pop, idx, y[idx], pi) for idx, pi in samples]
            checks.check_totals(f"{label}@{level}", est[(label, level)], greg)

    mse_ht = {row.d_noise: row.mse for row in report.rows if row.method == "ht"}
    for row in report.rows:
        checks.check_row(row, est[(row.method, row.d_noise)], t_y, mse_ht[row.d_noise])
        checks.check_rb(row, t_y)
    checks.check_ht_mse(mse_ht[levels[0]], variance, scenario.replicates)

    idx, pi = samples[0]
    for level in (levels[0], levels[-1]):
        verify_refit(scenario, level, est, pop.x[:, list(scenario.working_columns(level))], y, idx, pi, level == levels[-1])


def verify_refit(scenario, level, est, x_pop, y, idx, pi, brute_knn: bool) -> None:
    """Refit replicate 1 with the fitted objects captured, and certify them."""
    one = replace(scenario, d_noise_levels=(level,), replicates=1)
    with Tracer(capture=True) as tracer:
        refit = montecarlo.run_scenario(one, threads=1, log_estimates=True)
    for key, column in refit.estimates.items():
        if column[0] != est[key][0]:
            raise checks.CheckError(f"{key}: refit of replicate 1 gives {column[0]!r}, the sweep {est[key][0]!r}")

    y_s, x_s = y[idx], x_pop[idx]
    # Captured fits pair with the roster entries of their methods, in roster order.
    fits = {"penalized.fit_elastic_net": ("lasso", "en"), "trees.fit_forest": ("forest",), "baselines.fit_knn": ("knn",)}
    labels = {span: iter([s.label for s in scenario.estimators if s.method in methods]) for span, methods in fits.items()}
    for name, _, _, fitted, _ in tracer.captured:
        if name not in labels:
            continue
        label = next(labels[name])
        if name == "penalized.fit_elastic_net":
            coef, intercept = fitted.params["coef"], fitted.params["intercept"]
            total = checks.linear_total(x_pop, idx, y_s, pi, coef, intercept)
            checks.check_totals(f"{label}@{level} from its coefficients", [est[(label, level)][0]], [total])
            violation = checks.kkt_violation(
                x_s, y_s, pi, coef, intercept, fitted.diagnostics["lam"], fitted.diagnostics["alpha"]
            )
            checks.check_kkt(f"{label}@{level}", violation, x_s.shape[1])
        elif name == "trees.fit_forest":
            per_tree = checks.forest_tree_totals(fitted.params["trees"], x_pop, idx, y_s, pi)
            checks.check_totals(f"{label}@{level} as mean of tree totals", [est[(label, level)][0]], [per_tree.mean()], 1e-12)
        elif brute_knn:
            total = checks.knn_total(x_pop, idx, y_s, pi, int(fitted.params["k"]))
            checks.check_totals(f"{label}@{level} brute force", [est[(label, level)][0]], [total])


def run(scenario_path: Path, seed: int, seconds: float, trace: bool, results_dir: Path) -> dict:
    """Set up, run whole rounds for ``seconds``, check, and return the result."""
    threads = os.cpu_count() or 1
    with Tracer() if trace else contextlib.nullcontext() as load_tracer:
        start = time.perf_counter()
        scenario = montecarlo.load_scenario(scenario_path)
        load_s = time.perf_counter() - start
        setup_s = time.perf_counter() - STARTED
    scenario = replace(scenario, master_seed=seed)
    report_path = results_dir / f"{scenario_path.stem}-seed{seed}.csv"

    rounds, reports = [], []
    began = time.perf_counter()
    while True:
        if trace:
            entry, swept = traced_round(scenario, threads, report_path)
        else:
            report, wall, cpu = sweep(scenario, threads, report_path)
            entry, swept = {"wall_s": wall, "cpu_s": cpu}, [report]
        rounds.append(entry)
        reports.extend(swept)
        if time.perf_counter() - began >= seconds:
            break
    peak_rss_mb = _peak_rss_mb()

    attempted = len(reports) * scenario.replicates * len(scenario.d_noise_levels) * len(roster_labels(scenario))
    failed = 0
    problems = []
    try:
        failed = sum(failed_fits(scenario, report) for report in reports)
        if not all(same_estimates(reports[0], report) for report in reports[1:]):
            raise checks.CheckError("a sweep's estimates differ from the first sweep's")
        if any((r["calls"], r["counts"]) != (rounds[0]["calls"], rounds[0]["counts"]) for r in rounds if trace):
            raise checks.CheckError("span counts differ between rounds of one seed")
        verify(scenario, reports[0])
    except checks.CheckError as exc:
        problems.append(str(exc))

    if trace:
        metrics = trace_metrics(rounds, load_s, load_tracer)
        units = per_layer_units()
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": setup_s,
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "problems": problems,
        "rounds": rounds,
        "environment": environment(threads),
        "workload": scenario_path.stem,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def traced_round(scenario, threads: int, report_path: Path):
    """Pool sweep (with level walls), plain serial sweep, traced serial sweep."""
    levels = Tracer((("montecarlo", "run_scenario", "montecarlo.level", None, None),), capture=True)
    with levels:
        pooled, pool_wall, _ = sweep(scenario, threads, report_path)
    serial, serial_wall, _ = sweep(scenario, 1, report_path)
    with Tracer() as tracer:
        traced, traced_wall, _ = sweep(scenario, 1, report_path)
    level_walls = [elapsed for *_, elapsed in levels.captured]
    entry = {
        "pool_wall_s": pool_wall,
        "serial_wall_s": serial_wall,
        "traced_wall_s": traced_wall,
        "level_walls_s": level_walls,
        "harness_self_s": traced_wall - tracer.top_s,
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
    }
    return entry, [pooled, serial, traced]


def trace_metrics(rounds, load_s: float, load_tracer: Tracer) -> dict:
    def median(key):
        return statistics.median(key(r) for r in rounds)

    metrics = {"setup.load_scenario.wall_s": load_s}
    for span in SPANS:
        metrics[f"{span}.self_s"] = median(lambda r: r["self_s"].get(span, 0.0))
        metrics[f"{span}.calls"] = rounds[0]["calls"].get(span, 0)
    metrics["population.generate.self_s"] = load_tracer.self_s.get("population.generate", 0.0)
    metrics["population.generate.calls"] = load_tracer.calls.get("population.generate", 0)
    metrics["penalized.fit_elastic_net.sweeps"] = int(rounds[0]["counts"].get("penalized.fit_elastic_net.sweeps", 0))
    metrics["montecarlo.harness.self_s"] = median(lambda r: r["harness_self_s"])
    metrics["montecarlo.level_low.wall_s"] = median(lambda r: r["level_walls_s"][0])
    metrics["montecarlo.level_high.wall_s"] = median(lambda r: r["level_walls_s"][-1])
    metrics["montecarlo.serial.wall_s"] = median(lambda r: r["serial_wall_s"])
    metrics["montecarlo.pool.speedup"] = median(lambda r: r["serial_wall_s"] / r["pool_wall_s"])
    metrics["trace.overhead_s"] = median(lambda r: r["traced_wall_s"] - r["serial_wall_s"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="master_seed of the scenario")
    parser.add_argument("--seconds", type=float, required=True, help="run whole rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)

    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    result = run(BENCH / "scenarios" / f"{args.workload}.json", args.seed, args.seconds, bool(args.trace), results_dir)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"fits attempted {result['attempted']}, failed {result['failed']}, rounds {len(result['rounds'])}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
