import concurrent.futures
import ctypes
import json

import numpy as np
import pytest

from svyest import (
    DgpModel,
    EstimatorSpec,
    LoadError,
    McReport,
    McRow,
    McScenario,
    ParameterError,
    RunError,
    Srswor,
    StratifiedSrs,
    assign_strata_by_quantile,
    generate_auxiliary,
    generate_survey_variable,
    load_scenario,
    read_report,
    register_method,
    run_scenario,
    sweep_dnoise,
    write_report,
)
from svyest.errors import SvyestError
from svyest import montecarlo
from svyest.montecarlo import REPORT_HEADER


def _make_population(seed=5, n=60, p=6):
    pop = generate_auxiliary(n, p, rho=0.3, seed=seed)
    return generate_survey_variable(pop, DgpModel("Y1", noise_scale=100.0, seed=seed + 1))


def _scenario(pop, roster, levels=(0,), reps=6, seed=2024, design=None):
    return McScenario(
        population=pop,
        design=design or Srswor(12),
        estimators=tuple(roster),
        d_noise_levels=tuple(levels),
        replicates=reps,
        master_seed=seed,
        model=DgpModel("Y1", seed=1),
    )


def _register_stubs():
    def oracle_builder(params):
        def fit(sample, xs, ys, pop_xw, rng):
            return float(params["t_y"])

        return fit

    def sequence_builder(params):
        values = iter(params["values"])

        def fit(sample, xs, ys, pop_xw, rng):
            return float(next(values))

        return fit

    def flaky_builder(params):
        state = {"count": 0}

        def fit(sample, xs, ys, pop_xw, rng):
            state["count"] += 1
            if state["count"] % int(params.get("every", 2)) == 0:
                raise SvyestError("synthetic failure")
            return float(np.sum(ys * sample.weights))

        return fit

    for name, builder in (
        ("stub_oracle", oracle_builder),
        ("stub_sequence", sequence_builder),
        ("stub_flaky", flaky_builder),
    ):
        try:
            register_method(name, builder)
        except ParameterError:
            pass


_register_stubs()


def _row(report, method, level=None):
    for row in report.rows:
        if row.method == method and (level is None or row.d_noise == level):
            return row
    raise AssertionError(f"no row for {method}")


class TestRunScenario:
    def test_ht_only_roster_re_is_100(self):
        pop = _make_population()
        report = run_scenario(_scenario(pop, [EstimatorSpec("ht")]))
        row = _row(report, "ht")
        assert row.re_percent == 100.0
        assert row.r == 6

    def test_oracle_method_is_perfect(self):
        pop = _make_population()
        roster = [EstimatorSpec("stub_oracle", params={"t_y": pop.total()})]
        report = run_scenario(_scenario(pop, roster))
        row = _row(report, "stub_oracle")
        assert row.rb_percent == 0.0
        assert row.mse == 0.0
        assert row.re_percent == 0.0

    def test_two_replicate_arithmetic(self):
        # hand-built estimates t_y + 10 and t_y - 10 with t_y scaled to 100
        pop = _make_population()
        scale = 100.0 / pop.total()
        from svyest import FinitePopulation

        pop100 = FinitePopulation(ids=pop.ids, x=pop.x, y=pop.y * scale)
        roster = [EstimatorSpec("stub_sequence", params={"values": [110.0, 90.0]})]
        report = run_scenario(_scenario(pop100, roster, reps=2))
        row = _row(report, "stub_sequence")
        assert row.rb_percent == pytest.approx(0.0, abs=1e-12)
        assert row.mse == pytest.approx(100.0, rel=1e-12)

    def test_ht_row_always_present(self):
        pop = _make_population()
        report = run_scenario(_scenario(pop, [EstimatorSpec("greg")]))
        assert {row.method for row in report.rows} == {"ht", "greg"}

    def test_frequent_failures_abort(self):
        pop = _make_population()
        roster = [EstimatorSpec("stub_flaky", params={"every": 2})]
        with pytest.raises(RunError, match="failed"):
            run_scenario(_scenario(pop, roster, reps=10))

    def test_rare_failures_excluded_with_count(self):
        pop = _make_population()
        roster = [EstimatorSpec("stub_flaky", params={"every": 150})]
        report = run_scenario(_scenario(pop, roster, reps=199))
        row = _row(report, "stub_flaky")
        assert row.r == 198
        assert len(report.failures[("stub_flaky", 0)]) == 1
        # the ht row keeps the full replicate count
        assert _row(report, "ht").r == 199

    def test_estimate_log_shape(self):
        pop = _make_population()
        report = run_scenario(_scenario(pop, [EstimatorSpec("greg")], reps=5))
        assert report.estimates[("greg", 0)].shape == (5,)

    def test_multi_level_scenario_rejected(self):
        pop = _make_population()
        scenario = _scenario(pop, [EstimatorSpec("greg")], levels=(0, 2))
        with pytest.raises(ParameterError, match="sweep_dnoise"):
            run_scenario(scenario)

    def test_unknown_method_rejected(self):
        pop = _make_population()
        with pytest.raises(ParameterError, match="no such method"):
            _scenario(pop, [EstimatorSpec("nope")])

    def test_level_budget_validated(self):
        pop = _make_population(p=5)
        with pytest.raises(ParameterError, match="d_noise"):
            _scenario(pop, [EstimatorSpec("greg")], levels=(3,))


class TestParameterChecks:
    def _write(self, tmp_path, entry):
        config = {
            "population": {"generator": {"units": 60, "columns": 6, "rho": 0.3, "seed": 5}},
            "model": {"variant": "Y1", "noise_scale": 100.0, "seed": 6},
            "design": {"kind": "srswor", "n": 12},
            "estimators": [entry],
            "d_noise_levels": [0],
            "replicates": 3,
            "master_seed": 1,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        return path

    def test_unknown_key_rejected_on_construction(self):
        pop = _make_population()
        with pytest.raises(ParameterError, match="'forest'.*'ntrees'"):
            _scenario(pop, [EstimatorSpec("forest", params={"ntrees": 3})])

    def test_unknown_key_rejected_on_load(self, tmp_path):
        path = self._write(tmp_path, {"method": "forest", "ntrees": 3})
        with pytest.raises(ParameterError, match="'forest'.*'ntrees'"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "method, key",
        [("ht", "lam"), ("greg", "alpha"), ("lasso", "n_trees"), ("tree", "k"), ("knn", "n"), ("pcr", "k")],
    )
    def test_every_builtin_checks_its_keys(self, method, key):
        pop = _make_population()
        with pytest.raises(ParameterError, match=f"'{method}'.*'{key}'"):
            _scenario(pop, [EstimatorSpec(method, params={key: 1})])

    def test_registered_methods_not_checked(self):
        _register_stubs()
        pop = _make_population()
        _scenario(pop, [EstimatorSpec("stub_oracle", params={"t_y": 1.0, "anything": 2})])

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"lam": "CV"}, "lam"),
            ({"lam": -1.0}, "lam"),
            ({"lam": float("nan")}, "lam"),
            ({"lam": float("inf")}, "lam"),
            ({"lam": True}, "lam"),
            ({"lam": "0.5"}, "lam"),
            ({"alpha": "CV"}, "alpha"),
            ({"alpha": 1.5}, "alpha"),
            ({"alpha": -0.1}, "alpha"),
            ({"alpha": None}, "alpha"),
            ({"lam": 0.5, "alpha": "cv"}, "alpha"),
        ],
    )
    def test_bad_penalty_rejected(self, params, key):
        pop = _make_population()
        with pytest.raises(ParameterError, match=f"'{key}'"):
            _scenario(pop, [EstimatorSpec("en", params=params)])

    @pytest.mark.parametrize(
        "params",
        [{}, {"lam": "cv"}, {"lam": 0}, {"lam": 2.5}, {"lam": "cv", "alpha": "cv"}, {"lam": 1, "alpha": 0}, {"alpha": 1}],
    )
    def test_good_penalty_accepted(self, params):
        pop = _make_population()
        _scenario(pop, [EstimatorSpec("lasso", params=params)])

    def test_wrong_case_lam_fails_before_any_replicate(self, tmp_path):
        path = self._write(tmp_path, {"method": "lasso", "lam": "CV"})
        with pytest.raises(ParameterError, match="'lam'"):
            load_scenario(path)


def _blas_threads():
    get_threads = montecarlo._openblas_function("get_num_threads", ctypes.c_int, [])
    return None if get_threads is None else get_threads()


class TestBlasThreads:
    def test_pool_workers_run_one_blas_thread(self):
        before = _blas_threads()
        if before is None:
            pytest.skip("numpy's OpenBLAS is not loaded")
        scenario = _scenario(_make_population(), [EstimatorSpec("greg")])
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, initializer=montecarlo._worker_init, initargs=(scenario, 0)
        ) as pool:
            in_worker = pool.submit(_blas_threads).result(timeout=60)
        assert in_worker == 1
        assert _blas_threads() == before

    def test_serial_run_restores_blas_threads(self):
        before = _blas_threads()
        if before is None:
            pytest.skip("numpy's OpenBLAS is not loaded")
        run_scenario(_scenario(_make_population(), [EstimatorSpec("greg")]), threads=1)
        assert _blas_threads() == before


class TestSweep:
    def test_paired_seeds_make_ht_rows_identical(self):
        pop = _make_population(p=8)
        report = sweep_dnoise(_scenario(pop, [EstimatorSpec("greg")], levels=(0, 3)))
        ht0 = _row(report, "ht", 0)
        ht3 = _row(report, "ht", 3)
        assert ht0.rb_percent == ht3.rb_percent
        assert ht0.mse == ht3.mse
        assert np.array_equal(report.estimates[("ht", 0)], report.estimates[("ht", 3)])

    def test_row_count_is_roster_times_levels(self):
        pop = _make_population(p=8)
        roster = [EstimatorSpec("greg"), EstimatorSpec("tree", params={"min_leaf": 4})]
        report = sweep_dnoise(_scenario(pop, roster, levels=(1, 3)))
        assert len(report.rows) == 3 * 2  # ht + greg + tree, two levels

    def test_level_zero_uses_structural_columns_only(self):
        pop = _make_population(p=8)
        report = sweep_dnoise(_scenario(pop, [EstimatorSpec("greg")], levels=(0,)))
        # Y1 is exactly linear in its structural columns, so the GREG at
        # level zero must essentially interpolate
        assert _row(report, "greg", 0).re_percent < _row(report, "ht", 0).re_percent

    def test_unsorted_levels_rejected(self):
        pop = _make_population(p=8)
        scenario = _scenario(pop, [EstimatorSpec("greg")], levels=(0, 3))
        with pytest.raises(ParameterError, match="sorted"):
            sweep_dnoise(scenario, levels=(3, 0))

    def test_stratified_design_scenario(self):
        pop = _make_population(n=80, p=6)
        pop = assign_strata_by_quantile(pop, 0, 4)
        scenario = _scenario(
            pop, [EstimatorSpec("greg")], design=StratifiedSrs(n=16), reps=4
        )
        report = run_scenario(scenario)
        assert _row(report, "ht").r == 4

    def test_forest_leaf_rule_variant(self):
        # min_leaf = ceil(n^(13/20)): n=12 draws give leaves of at least 6
        pop = _make_population()
        roster = [EstimatorSpec("forest", params={"n_trees": 2, "min_leaf": "n_13_20"})]
        report = run_scenario(_scenario(pop, roster, reps=2))
        assert _row(report, "forest").r == 2

    def test_mse_dominates_squared_mean_error(self):
        pop = _make_population(p=8)
        report = run_scenario(_scenario(pop, [EstimatorSpec("greg")], reps=15))
        t_y = pop.total()
        for row in report.rows:
            mean_error = row.rb_percent / 100.0 * t_y
            assert row.mse >= mean_error**2 - 1e-6 * row.mse
            assert row.re_percent >= 0.0


class TestDeterminism:
    def test_same_seed_same_report(self):
        pop = _make_population(p=8)
        roster = [
            EstimatorSpec("greg"),
            EstimatorSpec("ridge", params={"lam": "cv", "cv_folds": 3, "cv_lambdas": 8}),
            EstimatorSpec("forest", params={"n_trees": 3, "min_leaf": 4}),
        ]
        a = sweep_dnoise(_scenario(pop, roster, levels=(0, 2), reps=4))
        b = sweep_dnoise(_scenario(pop, roster, levels=(0, 2), reps=4))
        assert a.rows == b.rows

    def test_parallel_equals_serial(self):
        pop = _make_population(p=8)
        roster = [EstimatorSpec("greg"), EstimatorSpec("tree", params={"min_leaf": 4})]
        serial = run_scenario(_scenario(pop, roster, reps=8), threads=1)
        parallel = run_scenario(_scenario(pop, roster, reps=8), threads=2)
        assert serial.rows == parallel.rows

    def test_sample_stream_ignores_roster(self):
        pop = _make_population(p=8)
        lone = run_scenario(_scenario(pop, [EstimatorSpec("ht")], reps=5))
        crowd = run_scenario(
            _scenario(pop, [EstimatorSpec("ht"), EstimatorSpec("greg")], reps=5)
        )
        assert np.array_equal(lone.estimates[("ht", 0)], crowd.estimates[("ht", 0)])


class TestReportIo:
    def _report(self):
        return McReport(
            rows=(
                McRow("greg", 5, -0.031415926535897931, 12.5, 1234.5678901234567, 500, 7),
                McRow("ht", 5, 0.1, 100.0, 9876.0, 500, 7),
            )
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        report = self._report()
        write_report(report, path)
        back = read_report(path)
        assert back.rows == tuple(sorted(report.rows, key=lambda r: (r.method, r.d_noise)))

    def test_fixed_header(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(self._report(), path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(REPORT_HEADER)

    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(McReport(rows=()), path)
        assert path.read_text().splitlines() == [",".join(REPORT_HEADER)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="not found"):
            read_report(tmp_path / "none.csv")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("a,b\n")
        with pytest.raises(LoadError, match="header"):
            read_report(path)
