"""Acceptance suite: every criterion asserted at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with ``-s`` to see them on
success; failures always show the captured line).  The two Monte Carlo
regime tests are the heavy ones; their wall-clock budgets are asserted.
"""
import os
import time

import numpy as np

from svyest import (
    DgpModel,
    DrawnSample,
    EstimatorSpec,
    McScenario,
    PenaltySpec,
    Srswor,
    StratifiedSrs,
    assign_strata_by_quantile,
    draw,
    enumerate_srswor,
    fit_elastic_net,
    fit_forest,
    fit_greg,
    fit_ridge,
    FinitePopulation,
    generate_auxiliary,
    generate_survey_variable,
    greg_weights,
    grow_tree,
    horvitz_thompson,
    leaves,
    model_assisted,
    proportional_allocation,
    read_report,
    ridge_weights,
    soft_threshold,
    substream,
    sweep_dnoise,
    tree_ma_estimate,
    tree_predictor,
    write_report,
)

THREADS = min(8, os.cpu_count() or 1)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_exhaustive_design_unbiasedness():
    started = time.perf_counter()
    rng = substream(1001)
    y = rng.normal(50.0, 12.0, 6)
    worst_ht = 0.0
    for n in (2, 3):
        enum = enumerate_srswor(6, n)
        mean = sum(
            enum.probability * horvitz_thompson(s, y[s.indices]).t_hat for s in enum.samples()
        )
        worst_ht = max(worst_ht, abs(mean - y.sum()) / abs(y.sum()))

    # noiseless linear population: the GREG interpolates every sample exactly
    x = np.linspace(1.0, 6.0, 6).reshape(-1, 1)
    y_lin = 3.0 + 2.0 * x[:, 0]
    pop = FinitePopulation(ids=np.arange(1, 7), x=x, y=y_lin)
    worst_greg_bias = 0.0
    for n in (2, 3):
        enum = enumerate_srswor(6, n)
        mean = 0.0
        for s in enum.samples():
            fit = fit_greg(s, x[s.indices], y_lin[s.indices], intercept=True)
            mean += enum.probability * model_assisted(s, pop, fit).t_hat
        worst_greg_bias = max(worst_greg_bias, abs(mean - pop.total()) / pop.total())
    elapsed = time.perf_counter() - started
    ok = worst_ht < 1e-10 and worst_greg_bias < 0.02 and elapsed < 1.0
    _report(
        "criterion 1 (exhaustive unbiasedness)",
        ok,
        f"HT rel dev {worst_ht:.2e}, GREG bias {100 * worst_greg_bias:.4f}%, {elapsed:.2f}s",
    )


def test_criterion_2_calibration_identities():
    started = time.perf_counter()
    worst_cal = 0.0
    worst_dual = 0.0
    shrinkage_ok = True
    lasso_ok = True
    for trial in range(200):
        rng = substream(2002, trial)
        n = int(rng.integers(15, 40))
        p = int(rng.integers(2, 7))
        x = rng.normal(0.0, 1.0, (n, p))
        y = x @ rng.normal(0.0, 2.0, p) + rng.normal(0.0, 0.5, n)
        pi = rng.uniform(0.2, 0.95, n)
        s = DrawnSample(indices=np.arange(n), pi=pi)
        tx = x.sum(axis=0) * rng.uniform(1.2, 3.0) + rng.normal(0.0, 1.0, p)

        w = greg_weights(s, x, tx)
        cal = np.max(np.abs(w @ x - tx) / np.maximum(np.abs(tx), 1.0))
        worst_cal = max(worst_cal, cal)

        lam = float(rng.uniform(0.5, 10.0))
        wr = ridge_weights(s, x, tx, lam)
        fit = fit_ridge(s, x, y, lam, standardize=False, intercept=False)
        coef = fit.params["coef"]
        t_ma = float(tx @ coef + np.sum((y - x @ coef) * s.weights))
        dual = abs(float(wr @ y) - t_ma) / max(abs(t_ma), 1.0)
        worst_dual = max(worst_dual, dual)

        norms = [
            fit_ridge(s, x, y, lam_k).diagnostics["penalized_norm2"]
            for lam_k in (0.1, 1.0, 10.0, 100.0)
        ]
        shrinkage_ok = shrinkage_ok and all(a > b for a, b in zip(norms, norms[1:]))

        ols = fit_elastic_net(s, x, y, PenaltySpec(lam=0.0, alpha=1.0))
        lasso = fit_elastic_net(s, x, y, PenaltySpec(lam=float(rng.uniform(0.5, 20.0)), alpha=1.0))
        lasso_ok = lasso_ok and (
            lasso.diagnostics["penalized_norm1"] <= ols.diagnostics["penalized_norm1"] + 1e-10
        )
    elapsed = time.perf_counter() - started
    ok = worst_cal < 1e-8 and worst_dual < 1e-8 and shrinkage_ok and lasso_ok and elapsed < 30.0
    _report(
        "criterion 2 (calibration identities)",
        ok,
        f"calibration {worst_cal:.2e}, duality {worst_dual:.2e}, "
        f"shrinkage {shrinkage_ok}, lasso bound {lasso_ok}, {elapsed:.1f}s",
    )


def test_criterion_3_orthogonal_design_oracle():
    started = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        rng = substream(3003, trial)
        n = int(rng.integers(20, 45))
        p = int(rng.integers(3, 9))
        pi = rng.uniform(0.2, 0.95, n)
        q, _ = np.linalg.qr(rng.normal(0.0, 1.0, (n, p)))
        x = q * np.sqrt(pi)[:, None] * float(rng.uniform(0.5, 4.0))
        y = rng.normal(0.0, 2.0, n)
        s = DrawnSample(indices=np.arange(n), pi=pi)
        lam = float(rng.uniform(0.1, 2.0))
        alpha = float(rng.choice([1.0, 0.75, 0.5, 0.25]))
        fit = fit_elastic_net(
            s, x, y, PenaltySpec(lam=lam, alpha=alpha), standardize=False, intercept=False
        )
        xt = x / np.sqrt(pi)[:, None]
        yt = y / np.sqrt(pi)
        closed = soft_threshold(xt.T @ yt, lam * alpha) / ((xt**2).sum(axis=0) + lam * (1 - alpha))
        worst = max(worst, float(np.max(np.abs(fit.params["coef"] - closed))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 30.0
    _report(
        "criterion 3 (orthogonal-design oracle)", ok, f"max abs dev {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_4_tree_discipline_and_identities():
    started = time.perf_counter()
    leaf_ok = True
    worst_corr = 0.0
    worst_bag = 0.0
    for trial in range(100):
        rng = substream(4004, trial)
        n_pop = 900
        x = rng.normal(0.0, 1.0, (n_pop, 4))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 + rng.normal(0.0, 0.4, n_pop)
        strata = np.sort(np.where(np.arange(n_pop) < 300, 1, 2))
        pop = FinitePopulation(ids=np.arange(1, n_pop + 1), x=x, y=y, strata=strata)
        if trial % 2 == 0:
            sample = draw(Srswor(300), pop, substream(4004, trial, 1))
        else:
            sample = draw(StratifiedSrs(n=300), pop, substream(4004, trial, 1))
        xs, ys = pop.x[sample.indices], pop.y[sample.indices]

        tree = grow_tree(sample, xs, ys, min_leaf=5)
        counts = [leaf.count for leaf in leaves(tree)]
        leaf_ok = leaf_ok and all(5 <= c <= 9 for c in counts) and sum(counts) == 300
        est = tree_ma_estimate(pop, sample, tree)
        worst_corr = max(
            worst_corr, abs(est.diagnostics["sample_correction"]) / abs(est.t_hat)
        )

        if trial < 30:
            forest = fit_forest(sample, xs, ys, substream(4004, trial, 2), n_trees=5, min_leaf=5, n_split_features=2)
            whole = model_assisted(sample, pop, forest).t_hat
            bagged = np.mean(
                [model_assisted(sample, pop, tree_predictor(t)).t_hat for t in forest.params["trees"]]
            )
            worst_bag = max(worst_bag, abs(whole - bagged) / abs(whole))
    elapsed = time.perf_counter() - started
    ok = leaf_ok and worst_corr <= 1e-10 and worst_bag <= 1e-10 and elapsed < 60.0
    _report(
        "criterion 4 (tree discipline)",
        ok,
        f"leaves in [5,9] {leaf_ok}, correction {worst_corr:.2e}, "
        f"bagged dev {worst_bag:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_linear_high_dimension_regimes():
    # collinear columns (the regime the penalized methods are built for) with
    # a moderate signal-to-noise ratio; N, n, R, and the noise levels are
    # fixed by the criterion
    started = time.perf_counter()
    pop = generate_auxiliary(2000, 160, rho=0.7, seed=101, scale=30.0)
    pop = generate_survey_variable(pop, DgpModel("Y1", noise_scale=2500.0, seed=202))
    deep_cv = {"cv_folds": 5, "cv_lambdas": 25, "lambda_min_ratio": 1e-6, "cv_patience": 3}
    roster = (
        EstimatorSpec("greg"),
        EstimatorSpec("ridge", params={**deep_cv, "lambda_min_ratio": 1e-9}),
        EstimatorSpec("lasso", params={**deep_cv, "cv_folds": 4, "cv_tol": 1e-3}),
        EstimatorSpec(
            "en",
            params={**deep_cv, "alpha": 0.5, "cv_folds": 4, "cv_tol": 1e-3, "cv_patience": 2},
        ),
    )
    scenario = McScenario(
        population=pop,
        design=Srswor(200),
        estimators=roster,
        d_noise_levels=(5, 150),
        replicates=500,
        master_seed=31415,
        model=DgpModel("Y1", seed=202),
    )
    report = sweep_dnoise(scenario, threads=THREADS, log_estimates=False)
    elapsed = time.perf_counter() - started
    re = {(row.method, row.d_noise): row.re_percent for row in report.rows}
    rb = {(row.method, row.d_noise): row.rb_percent for row in report.rows}

    cond_a = re[("greg", 5)] < 30.0
    cond_b = re[("greg", 150)] >= 3.0 * re[("greg", 5)]
    cond_c = all(
        re[(m, 150)] < 2.0 * re[(m, 5)] and re[(m, 5)] < 2.0 * re[(m, 150)] + 1e-9
        for m in ("ridge", "lasso", "en")
    )
    cond_d = all(
        abs(rb[(m, lvl)]) < 2.0
        for m in ("ht", "greg", "ridge", "lasso", "en")
        for lvl in (5, 150)
    )
    budget = elapsed < 900.0
    ok = cond_a and cond_b and cond_c and cond_d and budget
    detail = (
        f"greg RE {re[('greg', 5)]:.1f}->{re[('greg', 150)]:.1f}, "
        f"ridge {re[('ridge', 5)]:.1f}->{re[('ridge', 150)]:.1f}, "
        f"lasso {re[('lasso', 5)]:.1f}->{re[('lasso', 150)]:.1f}, "
        f"en {re[('en', 5)]:.1f}->{re[('en', 150)]:.1f}, "
        f"max|RB| {max(abs(v) for v in rb.values()):.3f}%, {elapsed:.0f}s"
    )
    _report("criterion 5 (linear regimes)", ok, detail)


def test_criterion_6_nonlinear_regime():
    started = time.perf_counter()
    pop = generate_auxiliary(2000, 110, rho=0.5, seed=303, loc=1.2566, scale=0.23)
    pop = generate_survey_variable(pop, DgpModel("Y3", seed=404))
    roster = (
        EstimatorSpec("greg"),
        EstimatorSpec(
            "forest", params={"n_trees": 64, "min_leaf": 5, "n_split_features": "third"}
        ),
    )
    scenario = McScenario(
        population=pop,
        design=Srswor(200),
        estimators=roster,
        d_noise_levels=(5, 100),
        replicates=300,
        master_seed=27182,
        model=DgpModel("Y3", seed=404),
    )
    report = sweep_dnoise(scenario, threads=THREADS, log_estimates=False)
    elapsed = time.perf_counter() - started
    re = {(row.method, row.d_noise): row.re_percent for row in report.rows}
    forest_ok = re[("forest", 5)] < 100.0 and re[("forest", 100)] < 100.0
    greg_ok = re[("greg", 100)] > 100.0
    budget = elapsed < 1200.0
    ok = forest_ok and greg_ok and budget
    _report(
        "criterion 6 (nonlinear regime)",
        ok,
        f"forest RE {re[('forest', 5)]:.1f}/{re[('forest', 100)]:.1f}, "
        f"greg RE(100) {re[('greg', 100)]:.1f}, {elapsed:.0f}s",
    )


def test_criterion_7_stratified_designs():
    pop = generate_auxiliary(800, 8, rho=0.4, seed=505)
    pop = generate_survey_variable(pop, DgpModel("Y1", seed=506))
    pop = assign_strata_by_quantile(pop, column=0, n_strata=4)
    sizes = pop.stratum_sizes()
    alloc = proportional_allocation(sizes, 80)
    alloc_ok = int(alloc.sum()) == 80

    sample = draw(StratifiedSrs(n=80), pop, substream(507, 1))
    pi_ok = True
    for h in range(1, 5):
        members = np.flatnonzero(pop.strata == h)
        chosen = np.intersect1d(sample.indices, members)
        expected = alloc[h - 1] / sizes[h - 1]
        got = sample.pi[np.isin(sample.indices, members)]
        pi_ok = pi_ok and chosen.size == alloc[h - 1] and np.all(got == expected)

    scenario = McScenario(
        population=pop,
        design=StratifiedSrs(n=80),
        estimators=(EstimatorSpec("greg"),),
        d_noise_levels=(0, 3),
        replicates=40,
        master_seed=508,
        model=DgpModel("Y1", seed=506),
    )
    report = sweep_dnoise(scenario)
    ht_rows = [row for row in report.rows if row.method == "ht"]
    paired_ok = (
        len(ht_rows) == 2
        and ht_rows[0].rb_percent == ht_rows[1].rb_percent
        and ht_rows[0].mse == ht_rows[1].mse
        and np.array_equal(report.estimates[("ht", 0)], report.estimates[("ht", 3)])
    )
    ok = alloc_ok and pi_ok and paired_ok
    _report(
        "criterion 7 (stratified designs)",
        ok,
        f"allocation sums {alloc_ok}, pi exact {pi_ok}, paired HT {paired_ok}",
    )


def test_criterion_8_byte_identical_reports(tmp_path):
    pop = generate_auxiliary(300, 10, rho=0.3, seed=606)
    pop = generate_survey_variable(pop, DgpModel("Y1", seed=607))
    scenario = McScenario(
        population=pop,
        design=Srswor(40),
        estimators=(
            EstimatorSpec("greg"),
            EstimatorSpec("lasso", params={"cv_folds": 3, "cv_lambdas": 6, "cv_patience": 2}),
            EstimatorSpec("forest", params={"n_trees": 4, "min_leaf": 4}),
        ),
        d_noise_levels=(2, 5),
        replicates=12,
        master_seed=608,
        model=DgpModel("Y1", seed=607),
    )
    paths = []
    for name in ("first.csv", "second.csv"):
        report = sweep_dnoise(scenario, log_estimates=False)
        path = tmp_path / name
        write_report(report, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    round_trip = read_report(paths[0]).rows == read_report(paths[1]).rows
    ok = identical and round_trip
    _report("criterion 8 (determinism)", ok, f"byte-identical {identical}")
