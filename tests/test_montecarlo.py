import concurrent.futures
import ctypes
import itertools
import json
import multiprocessing
import pickle
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator

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
    Standardization,
    StratifiedSrs,
    assign_strata_by_quantile,
    draw,
    generate_auxiliary,
    generate_survey_variable,
    horvitz_thompson,
    load_scenario,
    read_report,
    run_scenario,
    substream,
    sweep_dnoise,
    write_report,
)
from svyest.errors import SvyestError
from svyest import montecarlo
from svyest.baselines import PcrSpec
from svyest.estimators import LinearPredictor
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


@dataclass(frozen=True)
class _Oracle:
    """Returns the total it is given."""

    t_y: float = 0.0

    def __call__(self, sample, xs, ys, working, rng):
        return float(self.t_y)


@dataclass(frozen=True)
class _Sequence:
    """Returns the given values in turn, one per replicate."""

    values: tuple = ()
    calls: Iterator[int] = field(default_factory=itertools.count, init=False, compare=False)

    def __call__(self, sample, xs, ys, working, rng):
        return float(self.values[next(self.calls)])


@dataclass(frozen=True)
class _Flaky:
    """Horvitz-Thompson that fails on every ``every``-th call."""

    every: int = 2
    calls: Iterator[int] = field(default_factory=lambda: itertools.count(1), init=False, compare=False)

    def __call__(self, sample, xs, ys, working, rng):
        if next(self.calls) % self.every == 0:
            raise SvyestError("synthetic failure")
        return horvitz_thompson(sample, ys).t_hat


@dataclass(frozen=True)
class _FailsAtWidth:
    """Horvitz-Thompson that fails whenever the working matrix has ``width`` columns."""

    width: int = 0

    def __call__(self, sample, xs, ys, working, rng):
        if xs.shape[1] == self.width:
            raise SvyestError("synthetic failure")
        return horvitz_thompson(sample, ys).t_hat


_STUBS = {
    "stub_oracle": _Oracle,
    "stub_sequence": _Sequence,
    "stub_flaky": _Flaky,
    "stub_fails_at_width": _FailsAtWidth,
}


@pytest.fixture(autouse=True)
def _stub_methods(monkeypatch):
    for name, settings in _STUBS.items():
        monkeypatch.setitem(montecarlo.METHODS, name, settings)


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

    def test_empty_working_matrix_rejected(self):
        pop = _make_population()
        with pytest.raises(ParameterError, match="working matrix empty"):
            McScenario(pop, Srswor(12), (EstimatorSpec("ht"),), (0, 2), 3, 1, structural_columns=())


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

    def test_added_methods_are_checked(self):
        pop = _make_population()
        _scenario(pop, [EstimatorSpec("stub_oracle", params={"t_y": 1.0})])
        with pytest.raises(ParameterError, match="'stub_oracle'.*'anything'"):
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

    @pytest.mark.parametrize(
        "method, params, key",
        [
            ("forest", {"n_split_features": "Sqrt"}, "n_split_features"),
            ("forest", {"min_leaf": "n13_20"}, "min_leaf"),
            ("knn", {"k": "five"}, "k"),
            ("forest", {"bootstrap": "false"}, "bootstrap"),
            ("knn", {"weighted": "false"}, "weighted"),
            ("greg", {"intercept": "false"}, "intercept"),
            ("forest", {"n_trees": 2.7}, "n_trees"),
            ("lasso", {"cv_folds": 3.5}, "cv_folds"),
            ("pcr", {"rule": "P24", "n_components": 2}, "n_components"),
            ("ridge", {"cv_folds": 1}, "cv_folds"),
            ("tree", {"min_leaf": 0}, "min_leaf"),
            ("forest", {"min_leaf": 0}, "min_leaf"),
            ("forest", {"n_trees": True}, "n_trees"),
            ("forest", {"weighted_bootstrap": 1}, "weighted_bootstrap"),
            ("forest", {"forced_features": [-1]}, "forced_features"),
            ("forest", {"forced_features": 0}, "forced_features"),
            ("en", {"cv_weighted_loss": "true"}, "cv_weighted_loss"),
            ("en", {"cv_patience": 0}, "cv_patience"),
            ("en", {"cv_lambdas": 0}, "cv_lambdas"),
            ("en", {"max_iter": 10.0}, "max_iter"),
            ("en", {"tol": 0}, "tol"),
            ("en", {"cv_tol": "1e-3"}, "cv_tol"),
            ("en", {"lambda_min_ratio": 0.0}, "lambda_min_ratio"),
            ("pcr", {"n_components": 0}, "n_components"),
            ("pcr", {"n_components": 2.5}, "n_components"),
            ("pcr", {"rule": "p24"}, "rule"),
        ],
    )
    def test_bad_value_fails_when_built(self, tmp_path, method, params, key):
        path = self._write(tmp_path, {"method": method, "name": "mine", **params})
        with pytest.raises(ParameterError, match=f"estimator 'mine': .*'{key}'"):
            load_scenario(path)

    def test_forced_feature_must_fit_the_narrowest_level(self):
        pop = _make_population(p=6)  # Y1 has 3 structural columns
        for forced, ok in (([999], False), ([5], False), ([4], True)):
            roster = [EstimatorSpec("forest", params={"n_trees": 2, "forced_features": forced})]
            if ok:
                assert _row(run_scenario(_scenario(pop, roster, levels=(2,), reps=2)), "forest").r == 2
                continue
            with pytest.raises(ParameterError, match="'forest'.*'forced_features'.*below 5"):
                _scenario(pop, roster, levels=(2, 3))


#: Every key of every built-in method with its default.
_PENALIZED_DEFAULTS = {
    "lam": "cv",
    "alpha": 1.0,
    "cv_folds": 10,
    "cv_lambdas": 100,
    "lambda_min_ratio": 1e-4,
    "cv_weighted_loss": True,
    "tol": 1e-7,
    "cv_tol": 1e-4,
    "cv_patience": None,
    "max_iter": 10_000,
}
_BUILTIN_DEFAULTS = {
    "ht": {},
    "greg": {"intercept": True},
    "ridge": {**_PENALIZED_DEFAULTS, "alpha": 0.0},
    "lasso": _PENALIZED_DEFAULTS,
    "en": {**_PENALIZED_DEFAULTS, "alpha": 0.5},
    "tree": {"min_leaf": 5},
    "forest": {
        "n_trees": 1000,
        "min_leaf": 5,
        "n_split_features": "sqrt",
        "bootstrap": True,
        "forced_features": (),
        "weighted_bootstrap": False,
    },
    "knn": {"k": 5, "weighted": False},
    "pcr": {"n_components": None, "rule": None},
}


class TestBuiltinMethods:
    def test_roster_names(self):
        assert set(montecarlo.METHODS) - set(_STUBS) == set(_BUILTIN_DEFAULTS)

    @pytest.mark.parametrize("method", sorted(_BUILTIN_DEFAULTS))
    def test_keys_and_defaults(self, method):
        settings = montecarlo.METHODS[method]()
        keys = {f.name: getattr(settings, f.name) for f in fields(settings) if f.init}
        assert keys == _BUILTIN_DEFAULTS[method]

    def test_pcr_defaults_to_one_component(self):
        assert montecarlo.METHODS["pcr"]().spec == PcrSpec(n_components=1)

    def test_readme_scenario_builds(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("### Scenario files") :]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "scenario.json"
        path.write_text(block)
        scenario = load_scenario(path)
        documented = {entry["method"] for entry in json.loads(block)["estimators"]}
        assert documented == set(_BUILTIN_DEFAULTS)
        assert len(scenario.methods) == len(scenario.estimators)


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
            max_workers=1, initializer=montecarlo._worker_init, initargs=(scenario,)
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


class TestSweepPool:
    roster = [
        EstimatorSpec("greg"),
        EstimatorSpec("knn", params={"k": 3}),
        EstimatorSpec("pcr", params={"rule": "P24"}),
        EstimatorSpec("lasso", params={"cv_folds": 3, "cv_lambdas": 6}),
    ]

    @pytest.fixture
    def pools(self, monkeypatch):
        started = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo.concurrent.futures, "ProcessPoolExecutor", Counted)
        return started

    def test_one_pool_equals_serial(self, pools):
        scenario = _scenario(_make_population(p=8), self.roster, levels=(0, 1, 3), reps=7)
        serial = sweep_dnoise(scenario, threads=1)
        assert not pools
        pooled = sweep_dnoise(scenario, threads=2)
        assert len(pools) == 1
        assert pooled.rows == serial.rows
        assert not serial.failures and not pooled.failures
        assert pooled.estimates.keys() == serial.estimates.keys()
        for key, column in serial.estimates.items():
            assert column.tobytes() == pooled.estimates[key].tobytes()
        assert not multiprocessing.active_children()

    def test_one_replicate_opens_no_pool(self, pools):
        sweep_dnoise(_scenario(_make_population(p=8), self.roster, levels=(0, 1), reps=1), threads=2)
        assert not pools

    def test_levels_are_run_in_ascending_order(self, monkeypatch):
        seen = []
        run_level = montecarlo.run_scenario

        def spy(scenario, **kwargs):
            seen.append(scenario.d_noise_levels)
            return run_level(scenario, **kwargs)

        monkeypatch.setattr(montecarlo, "run_scenario", spy)
        scenario = _scenario(_make_population(p=8), [EstimatorSpec("greg")], levels=(0, 1, 3), reps=3)
        sweep_dnoise(scenario, threads=2)
        assert seen == [(0,), (1,), (3,)]

    def test_no_worker_outlives_a_failed_level(self, pools):
        pop = _make_population(p=8)
        middle = len(_scenario(pop, [EstimatorSpec("greg")]).working_columns(1))
        roster = [EstimatorSpec("stub_fails_at_width", params={"width": middle})]
        with pytest.raises(RunError, match="stub_fails_at_width"):
            sweep_dnoise(_scenario(pop, roster, levels=(0, 1, 3), reps=4), threads=2)
        assert len(pools) == 1
        assert not multiprocessing.active_children()


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
        # workers get the parsed settings by pickle and must give the serial rows
        pop = _make_population(p=8)
        cv = {"cv_folds": 3, "cv_lambdas": 6}
        roster = [
            EstimatorSpec("greg"),
            EstimatorSpec("tree", params={"min_leaf": 4}),
            EstimatorSpec("lasso", params=cv),
            EstimatorSpec("en", params={**cv, "cv_patience": 2}),
            EstimatorSpec("forest", params={"n_trees": 2, "min_leaf": "n_13_20", "n_split_features": "third"}),
            EstimatorSpec("knn", params={"k": 3, "weighted": True}),
            EstimatorSpec("pcr", params={"rule": "P24"}),
        ]
        serial = run_scenario(_scenario(pop, roster, levels=(2,), reps=8), threads=1)
        parallel = run_scenario(_scenario(pop, roster, levels=(2,), reps=8), threads=2)
        assert serial.rows == parallel.rows
        assert not serial.failures
        for key, column in serial.estimates.items():
            assert column.tobytes() == parallel.estimates[key].tobytes()

    def test_sample_stream_ignores_roster(self):
        pop = _make_population(p=8)
        lone = run_scenario(_scenario(pop, [EstimatorSpec("ht")], reps=5))
        crowd = run_scenario(
            _scenario(pop, [EstimatorSpec("ht"), EstimatorSpec("greg")], reps=5)
        )
        assert np.array_equal(lone.estimates[("ht", 0)], crowd.estimates[("ht", 0)])


class TestEquality:
    def test_pickle_round_trip_compares_equal(self):
        pop = _make_population()
        scenario = _scenario(pop, [EstimatorSpec("greg")])
        sample = draw(scenario.design, pop, substream(1))
        std = Standardization.fit(pop.x, 1.0 / np.arange(1.0, pop.n_units + 1))
        linear = LinearPredictor(np.arange(3.0), 2.5)
        for obj in (pop, scenario, sample, std, linear):
            clone = pickle.loads(pickle.dumps(obj))
            assert clone == obj
            assert not clone != obj

    def test_report_with_a_failed_fit_round_trips(self):
        pop = _make_population()
        roster = [EstimatorSpec("greg"), EstimatorSpec("stub_flaky", params={"every": 101})]
        report = run_scenario(_scenario(pop, roster, reps=101))
        assert np.isnan(report.estimates[("stub_flaky", 0)]).sum() == 1
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert not clone != report
        changed = dict(report.estimates)
        changed[("greg", 0)] = changed[("greg", 0)] + 1.0
        assert replace(report, estimates=changed) != report
        assert replace(report, estimates=None) != report
        assert replace(report, failures={}) != report
        assert replace(report, rows=report.rows[:1]) != report
        assert report != report.rows

    def test_array_fields_are_compared(self):
        pop = _make_population()
        sample = draw(Srswor(12), pop, substream(1))
        assert replace(pop, y=pop.y + 1.0) != pop
        assert replace(pop, y=None) != pop
        roster = [EstimatorSpec("greg")]
        assert _scenario(replace(pop, y=pop.y * 2.0), roster) != _scenario(pop, roster)
        assert replace(sample, pi=sample.pi / 2.0) != sample
        assert LinearPredictor(np.arange(3.0), 2.5) != LinearPredictor(np.arange(3.0) + 1.0, 2.5)
        assert LinearPredictor(np.arange(3.0), 2.5) != LinearPredictor(np.arange(3.0), 0.0)
        assert pop != "population"


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
