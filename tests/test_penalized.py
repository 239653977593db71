import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svyest import (
    ConvergenceError,
    DgpModel,
    DrawnSample,
    EstimatorSpec,
    McScenario,
    ParameterError,
    PenaltySpec,
    Standardization,
    Srswor,
    cross_validate,
    draw,
    fit_elastic_net,
    fit_greg,
    fit_ridge,
    generate_auxiliary,
    generate_survey_variable,
    greg_weights,
    ridge_weights,
    soft_threshold,
    substream,
)
from svyest.penalized import DEFAULT_MAX_SWEEPS, DEFAULT_TOL, _cd_core, _certificate, _Problem, lambda_path


def _instance(seed, n=30, p=5, sparse=True):
    rng = substream(seed)
    x = rng.normal(0.0, 1.0, (n, p))
    beta = np.zeros(p)
    beta[: max(1, p // 2)] = rng.normal(0.0, 2.0, max(1, p // 2)) if sparse else 0.0
    y = 1.0 + x @ beta + rng.normal(0.0, 0.4, n)
    pi = rng.uniform(0.2, 0.9, n)
    return DrawnSample(indices=np.arange(n), pi=pi), x, y


def _orthogonal_instance(seed, n=30, p=6):
    """Columns of the root-weight transformed design are exactly orthogonal."""
    rng = substream(seed)
    pi = rng.uniform(0.2, 0.9, n)
    q, _ = np.linalg.qr(rng.normal(0.0, 1.0, (n, p)))
    x = q * np.sqrt(pi)[:, None] * rng.uniform(1.0, 3.0)
    y = rng.normal(0.0, 2.0, n)
    return DrawnSample(indices=np.arange(n), pi=pi), x, y


class TestSoftThreshold:
    def test_basic_values(self):
        assert soft_threshold(5.0, 2.0) == 3.0
        assert soft_threshold(-1.0, 2.0) == 0.0

    def test_grid_matches_definition(self):
        zs = np.arange(-10.0, 10.01, 0.1)
        for lam in (0.0, 1.0, 3.0):
            expected = np.sign(zs) * np.clip(np.abs(zs) - lam, 0.0, None)
            assert np.array_equal(soft_threshold(zs, lam), expected)

    @given(z=st.floats(-1e6, 1e6), lam=st.floats(0.0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_shrinks_toward_zero(self, z, lam):
        out = float(soft_threshold(z, lam))
        assert abs(out) <= abs(z)
        assert out * z >= 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            soft_threshold(1.0, -0.5)


class TestStandardization:
    def test_weighted_moments(self):
        s, x, _ = _instance(1)
        std = Standardization.fit(x, s.weights)
        u = std.transform(x)
        w = s.weights / s.weights.sum()
        assert np.allclose(w @ u, 0.0, atol=1e-12)
        assert np.allclose((u**2).T @ w, 1.0, rtol=1e-12)

    def test_constant_column_dropped(self):
        s, x, _ = _instance(2)
        x = np.column_stack([x, np.full(x.shape[0], 7.0)])
        std = Standardization.fit(x, s.weights)
        assert not std.kept[-1]
        assert std.transform(x).shape[1] == x.shape[1] - 1


class TestFitRidge:
    def test_zero_penalty_equals_greg(self):
        s, x, y = _instance(3)
        ridge = fit_ridge(s, x, y, 0.0)
        greg = fit_greg(s, x, y, intercept=True)
        assert np.allclose(ridge.params["coef"], greg.params["coef"], atol=1e-8)
        assert ridge.params["intercept"] == pytest.approx(greg.params["intercept"], abs=1e-8)

    def test_huge_penalty_kills_slopes(self):
        s, x, y = _instance(4)
        ridge = fit_ridge(s, x, y, 1e12)
        assert np.linalg.norm(ridge.params["coef"]) < 1e-6

    def test_norm_strictly_decreasing_in_lambda(self):
        s, x, y = _instance(5)
        norms = [fit_ridge(s, x, y, lam).diagnostics["penalized_norm2"] for lam in (0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_raw_machine_shrinks_below_ols(self):
        s, x, y = _instance(6)
        ols = fit_ridge(s, x, y, 0.0, standardize=False, intercept=False)
        for lam in (0.5, 5.0):
            ridge = fit_ridge(s, x, y, lam, standardize=False, intercept=False)
            assert np.linalg.norm(ridge.params["coef"]) < np.linalg.norm(ols.params["coef"])

    def test_negative_lambda_rejected(self):
        s, x, y = _instance(7)
        with pytest.raises(ParameterError):
            fit_ridge(s, x, y, -1.0)

    @pytest.mark.parametrize(
        "seed, n, p, lam", [(60, 30, 5, 0.3), (61, 40, 8, 5.0), (62, 12, 30, 0.7), (63, 20, 60, 40.0)]
    )
    def test_augmented_least_squares_oracle(self, seed, n, p, lam):
        # Standardized ridge with an unpenalized intercept is ordinary least
        # squares on [sqrt(d) [1, u]; [0, sqrt(lam) I]], solved here by lstsq.
        s, x, y = _instance(seed, n=n, p=p)
        x = x * np.linspace(0.5, 40.0, p) + np.linspace(-100.0, 100.0, p)
        d = s.weights
        w = d / d.sum()
        mean = x.T @ w
        sd = np.sqrt(((x - mean) ** 2).T @ w)
        sw = np.sqrt(d)
        design = np.vstack([
            np.column_stack([sw, (x - mean) / sd * sw[:, None]]),
            np.column_stack([np.zeros(p), np.sqrt(lam) * np.eye(p)]),
        ])
        solution = np.linalg.lstsq(design, np.concatenate([sw * y, np.zeros(p)]), rcond=None)[0]
        coef = solution[1:] / sd
        fit = fit_ridge(s, x, y, lam)
        np.testing.assert_allclose(fit.params["coef"], coef, rtol=1e-9, atol=1e-9 * np.abs(coef).max())
        assert fit.params["intercept"] == pytest.approx(solution[0] - mean @ coef, rel=1e-9)


class TestRidgeWeights:
    def test_zero_penalty_equals_greg_weights(self):
        s, x, _ = _instance(8)
        tx = x.sum(axis=0) * 1.5
        assert np.allclose(ridge_weights(s, x, tx, 0.0), greg_weights(s, x, tx), rtol=1e-10)

    def test_balanced_sample_keeps_design_weights(self):
        s, x, _ = _instance(9)
        tx = (x / s.pi[:, None]).sum(axis=0)
        for lam in (0.0, 2.0, 50.0):
            assert np.allclose(ridge_weights(s, x, tx, lam), s.weights, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_weight_predictor_duality(self, seed):
        s, x, y = _instance(seed + 10)
        rng = substream(seed, 123)
        tx = x.sum(axis=0) + rng.normal(0.0, 3.0, x.shape[1])
        lam = 4.0
        w = ridge_weights(s, x, tx, lam)
        fit = fit_ridge(s, x, y, lam, standardize=False, intercept=False)
        coef = fit.params["coef"]
        t_ma = float(tx @ coef + np.sum((y - x @ coef) * s.weights))
        assert float(w @ y) == pytest.approx(t_ma, rel=1e-8)


class TestElasticNet:
    def test_zero_penalty_equals_greg(self):
        s, x, y = _instance(20)
        fit = fit_elastic_net(s, x, y, PenaltySpec(lam=0.0, alpha=1.0))
        greg = fit_greg(s, x, y, intercept=True)
        assert np.allclose(fit.params["coef"], greg.params["coef"], atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("alpha", [1.0, 0.6])
    def test_orthogonal_design_closed_form(self, seed, alpha):
        s, x, y = _orthogonal_instance(seed)
        lam = 0.7
        fit = fit_elastic_net(
            s, x, y, PenaltySpec(lam=lam, alpha=alpha), standardize=False, intercept=False
        )
        xt = x / np.sqrt(s.pi)[:, None]
        yt = y / np.sqrt(s.pi)
        closed = soft_threshold(xt.T @ yt, lam * alpha) / (
            (xt**2).sum(axis=0) + lam * (1.0 - alpha)
        )
        assert np.max(np.abs(fit.params["coef"] - closed)) < 1e-8

    def test_lambda_max_zeroes_every_slope(self):
        s, x, y = _instance(21)
        d = s.weights
        std = Standardization.fit(x, d)
        sw = np.sqrt(d)
        ybar = float((d / d.sum()) @ y)
        xt = std.transform(x) * sw[:, None]
        yt = (y - ybar) * sw
        lam_max = float(np.max(np.abs(xt.T @ yt)))
        fit = fit_elastic_net(s, x, y, PenaltySpec(lam=lam_max * 1.0001, alpha=1.0))
        assert np.all(fit.params["coef"] == 0.0)
        fit_below = fit_elastic_net(s, x, y, PenaltySpec(lam=lam_max * 0.9, alpha=1.0))
        assert np.any(fit_below.params["coef"] != 0.0)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    def test_objective_non_increasing(self, alpha):
        s, x, y = _instance(22, n=40, p=8)
        fit = fit_elastic_net(s, x, y, PenaltySpec(lam=1.5, alpha=alpha))
        trace = np.asarray(fit.params["objective_trace"])
        assert np.all(np.diff(trace) <= 1e-9)

    def test_lasso_l1_never_exceeds_ols(self):
        for seed in range(8):
            s, x, y = _instance(seed + 30)
            ols = fit_elastic_net(s, x, y, PenaltySpec(lam=0.0, alpha=1.0))
            lasso = fit_elastic_net(s, x, y, PenaltySpec(lam=3.0, alpha=1.0))
            assert (
                lasso.diagnostics["penalized_norm1"]
                <= ols.diagnostics["penalized_norm1"] + 1e-10
            )

    def test_elastic_net_norm_bound(self):
        # with multipliers (2*lam*alpha, lam*(1-alpha)) on the plain weighted
        # loss, the argmin comparison gives the quadratic-norm bound below
        for seed in range(6):
            s, x, y = _instance(seed + 40)
            lam, alpha = 2.0, 0.5
            ols = fit_elastic_net(s, x, y, PenaltySpec(lam=0.0, alpha=1.0))
            en = fit_elastic_net(s, x, y, PenaltySpec(lam=lam, alpha=alpha))
            l1_ols = ols.diagnostics["penalized_norm1"]
            l2_en = en.diagnostics["penalized_norm2"]
            bound = 2.0 * lam * alpha * l1_ols + lam * (1 - alpha) * l1_ols**2
            assert lam * (1 - alpha) * l2_en**2 <= bound + 1e-9

    def test_zero_variance_column_gets_zero_coef(self):
        s, x, y = _instance(23)
        x = np.column_stack([x, np.full(x.shape[0], 3.0)])
        fit = fit_elastic_net(s, x, y, PenaltySpec(lam=1.0, alpha=1.0))
        assert fit.params["coef"][-1] == 0.0

    def test_non_convergence_carries_state(self):
        s, x, y = _instance(24, n=50, p=10)
        with pytest.raises(ConvergenceError) as exc_info:
            fit_elastic_net(s, x, y, PenaltySpec(lam=0.0, alpha=1.0), tol=1e-14, max_iter=2)
        err = exc_info.value
        assert err.coef is not None and err.coef.shape == (10,)
        assert len(err.objective_trace) >= 2

    def test_penalized_intercept_path(self):
        s, x, y = _instance(25)
        free = fit_elastic_net(s, x, y, PenaltySpec(lam=5.0, alpha=1.0))
        pinned = fit_elastic_net(
            s, x, y, PenaltySpec(lam=5.0, alpha=1.0, penalize_intercept=True)
        )
        # penalising the intercept can only pull the fitted level toward zero
        assert abs(pinned.params["intercept"]) <= abs(free.params["intercept"]) + 1e-9


def _root_weighted(sample, x, y, std, penalize_intercept=False):
    """The root-weighted standardized design and response, built from the data.

    The design's columns are the solver's: the standardized slopes, led by
    the root weights when the intercept is penalized.
    """
    d = sample.weights
    sw = np.sqrt(d)
    u = std.transform(x)
    if penalize_intercept:
        return np.column_stack([sw, u * sw[:, None]]), y * sw
    ybar = float((d / d.sum()) @ y)
    return u * sw[:, None], (y - ybar) * sw


def _solver_coef(fit, spec):
    """The coefficients of an elastic-net fit on the solver's columns."""
    if not spec.penalize_intercept:
        return fit.params["coef_std"]
    b0 = fit.params["intercept"] + float(fit.params["standardization"].center @ fit.params["coef"])
    return np.concatenate([[b0], fit.params["coef_std"]])


def _kkt_violation(sample, x, y, fit, spec):
    """Per-coordinate KKT violations of an elastic-net fit, and their bounds.

    Rebuilds the root-weighted standardized problem from the data, apart from
    the solver.  For an active j the violation is
    ``|x_j'r - lam(1-alpha) b_j - lam alpha sign(b_j)|``; for an inactive j it
    is ``max(|x_j'r| - lam alpha, 0)``.  Descent stops once no coordinate
    lies ``tol`` or more from its exact minimiser, after an exact Newton step
    or a full sweep; the bound ``tol * sum_k |G_jk|`` is the one a cyclic
    sweep that moved no coordinate by ``tol`` would give.
    """
    beta = _solver_coef(fit, spec)
    xt, yt = _root_weighted(sample, x, y, fit.params["standardization"], spec.penalize_intercept)
    correlation = xt.T @ (yt - xt @ beta)
    active = beta != 0
    violation = np.where(
        active,
        np.abs(correlation - spec.lam * (1 - spec.alpha) * beta - spec.lam * spec.alpha * np.sign(beta)),
        np.maximum(np.abs(correlation) - spec.lam * spec.alpha, 0.0),
    )
    gram = xt.T @ xt
    bound = DEFAULT_TOL * np.abs(gram).sum(axis=1) + 1e-9 * np.abs(xt.T @ yt).max()
    return violation, bound


def _n_space_gap(xt, yt, beta, spec):
    """Duality gap of ``beta``, built in sample space.

    The elastic net is a lasso on the augmented design ``[xt; sqrt(ridge) I]``
    with response ``[yt; 0]``; its residual, scaled so that no augmented
    column correlates with it by more than ``lam * alpha``, is a feasible
    dual point with value ``|y|^2/2 - |y - theta|^2/2``.
    """
    ridge, thresh = spec.lam * (1 - spec.alpha), spec.lam * spec.alpha
    xa = np.vstack([xt, np.sqrt(ridge) * np.eye(beta.size)])
    ya = np.concatenate([yt, np.zeros(beta.size)])
    r = ya - xa @ beta
    theta = min(1.0, thresh / np.abs(xa.T @ r).max()) * r
    primal = 0.5 * r @ r + thresh * np.abs(beta).sum()
    dual = 0.5 * ya @ ya - 0.5 * (ya - theta) @ (ya - theta)
    return primal - dual


def _lam_max(sample, x, y, alpha):
    d = sample.weights
    std = Standardization.fit(x, d)
    sw = np.sqrt(d)
    yt = (y - float((d / d.sum()) @ y)) * sw
    return float(np.max(np.abs((std.transform(x) * sw[:, None]).T @ yt))) / alpha


def _certified_fit(sample, x, y, spec, gap=True):
    """Fit, and check the KKT conditions, the trace and, with ``gap``, the duality gap.

    A descent that ends on an exact Newton step leaves a gap below
    ``1e-9 * yt'yt``; one that ends on cyclic sweeps is only as close as
    its ``tol`` makes it.
    """
    fit = fit_elastic_net(sample, x, y, spec)
    violation, bound = _kkt_violation(sample, x, y, fit, spec)
    assert np.all(violation <= bound)
    if gap:
        _, yt = _root_weighted(sample, x, y, fit.params["standardization"], spec.penalize_intercept)
        assert fit.diagnostics["dual_gap"] <= 1e-9 * float(yt @ yt)
    trace = np.asarray(fit.params["objective_trace"])
    assert np.all(np.diff(trace) <= 1e-10 * (abs(trace[0]) + 1.0))
    return fit


class TestKktCertificate:
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("ratio", [0.5, 0.1, 0.01, 1e-4])
    def test_correlated_design(self, alpha, ratio):
        s, x, y = _instance(60, n=60, p=12)
        x = x + 0.8 * x[:, [0]]
        lam = ratio * _lam_max(s, x, y, alpha)
        _certified_fit(s, x, y, PenaltySpec(lam=lam, alpha=alpha))

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("ratio", [0.3, 0.03, 1e-3])
    def test_more_columns_than_rows(self, alpha, ratio):
        s, x, y = _instance(61, n=30, p=50)
        lam = ratio * _lam_max(s, x, y, alpha)
        fit = _certified_fit(s, x, y, PenaltySpec(lam=lam, alpha=alpha))
        assert np.count_nonzero(fit.params["coef"]) > 0

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    def test_penalized_intercept(self, alpha):
        s, x, y = _instance(62, n=40, p=8)
        for lam in (5.0, 0.5):
            _certified_fit(s, x, y, PenaltySpec(lam=lam, alpha=alpha, penalize_intercept=True))

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("ratio", [0.2, 0.01])
    def test_duplicated_column(self, alpha, ratio):
        # the lasso's active sub-Gram is singular once both copies enter
        s, x, y = _instance(63, n=40, p=6)
        x = np.column_stack([x, x[:, 0]])
        lam = ratio * _lam_max(s, x, y, alpha)
        _certified_fit(s, x, y, PenaltySpec(lam=lam, alpha=alpha))


class TestDualityGap:
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("penalize_intercept", [False, True])
    def test_diagnostics_match_sample_space_oracles(self, alpha, penalize_intercept):
        # A loose tolerance stops the descent short of the optimum, so the
        # gap and the violation are far from zero.
        s, x, y = _instance(64, n=40, p=12)
        x = x + 0.8 * x[:, [0]]
        spec = PenaltySpec(lam=2.0, alpha=alpha, penalize_intercept=penalize_intercept)
        fit = fit_elastic_net(s, x, y, spec, tol=1.0)
        xt, yt = _root_weighted(s, x, y, fit.params["standardization"], penalize_intercept)
        gap = _n_space_gap(xt, yt, _solver_coef(fit, spec), spec)
        assert gap > 1e-6 * float(yt @ yt)
        assert fit.diagnostics["dual_gap"] == pytest.approx(gap, rel=1e-8)
        violation, _ = _kkt_violation(s, x, y, fit, spec)
        assert fit.diagnostics["kkt_violation"] == pytest.approx(violation.max(), rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_convergence_error_carries_the_gap(self, alpha):
        s, x, y = _instance(64, n=40, p=12)
        x = x + 0.8 * x[:, [0]]
        spec = PenaltySpec(lam=2.0, alpha=alpha)
        with pytest.raises(ConvergenceError) as exc_info:
            fit_elastic_net(s, x, y, spec, max_iter=1)
        err = exc_info.value
        xt, yt = _root_weighted(s, x, y, Standardization.fit(x, s.weights))
        gap = _n_space_gap(xt, yt, err.coef, spec)
        assert gap > 1e-6 * float(yt @ yt)
        assert err.dual_gap == pytest.approx(gap, rel=1e-8)


def _path_instance():
    """Criterion 5's population at d_noise 150: 200 sampled units, 153 columns."""
    pop = generate_auxiliary(2000, 160, rho=0.7, seed=101, scale=30.0)
    pop = generate_survey_variable(pop, DgpModel("Y1", noise_scale=2500.0, seed=202))
    scenario = McScenario(
        population=pop,
        design=Srswor(200),
        estimators=(EstimatorSpec("greg"),),
        d_noise_levels=(150,),
        replicates=1,
        master_seed=0,
        model=DgpModel("Y1", seed=202),
    )
    sample = draw(Srswor(200), pop, substream(0))
    x = pop.x[sample.indices][:, list(scenario.working_columns(150))]
    return sample, x, pop.y[sample.indices]


class TestActiveSetEngine:
    def test_columns_enter_from_a_warm_start(self):
        s, x, y = _instance(65, n=60, p=20)
        x = x + 0.8 * x[:, [0]]
        problem = _Problem(x, y, s.weights, standardize=True, intercept=True)
        lam_max = float(np.abs(problem.xty).max())

        def descend(lam, beta0=None):
            return _cd_core(problem.gram, problem.xty, problem.yty, lam, 1.0, DEFAULT_TOL, DEFAULT_MAX_SWEEPS, beta0)[0]

        start = descend(0.5 * lam_max)
        warm = descend(0.01 * lam_max, start)
        cold = descend(0.01 * lam_max)
        assert np.count_nonzero(warm) > np.count_nonzero(start) > 0
        assert np.allclose(warm, cold, rtol=0.0, atol=1e-9 * np.abs(cold).max())
        gap, kkt = _certificate(problem.gram, problem.xty, problem.yty, 0.01 * lam_max, 1.0, warm)
        assert gap <= 1e-9 * problem.yty and kkt <= 1e-9 * lam_max

    @pytest.mark.parametrize("failure", ["singular", "no progress"])
    def test_sweeps_alone_converge_when_every_solve_fails(self, failure, monkeypatch):
        def singular(matrix, rhs):
            raise np.linalg.LinAlgError("singular matrix")

        def no_progress(matrix, rhs):
            # Every target crosses zero, so a round from zero takes only
            # zero-length steps and must hand over to a sweep.
            return np.zeros_like(rhs)

        monkeypatch.setattr(np.linalg, "solve", singular if failure == "singular" else no_progress)
        s, x, y = _instance(66, n=40, p=8)
        for spec in (PenaltySpec(lam=1.0, alpha=1.0), PenaltySpec(lam=1.0, alpha=0.5)):
            fit = _certified_fit(s, x, y, spec, gap=False)
            assert fit.diagnostics["sweeps"] > 2

    @pytest.mark.parametrize("case", ["duplicated column", "more columns than rows"])
    def test_singular_active_gram_still_converges(self, case, monkeypatch):
        if case == "duplicated column":
            s, x, y = _instance(63, n=40, p=6)
            x = np.column_stack([x, x[:, 0]])
            ratio = 0.01
        else:
            s, x, y = _instance(61, n=30, p=50)
            ratio = 1e-3
        conditions = []
        solve = np.linalg.solve

        def recorded(matrix, rhs):
            conditions.append(np.linalg.cond(matrix))
            return solve(matrix, rhs)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        _certified_fit(s, x, y, PenaltySpec(lam=ratio * _lam_max(s, x, y, 1.0), alpha=1.0))
        assert max(conditions) > 1e12

    def test_path_takes_at_most_half_the_cyclic_engines_sweeps(self):
        # The engine that opened every round with a scalar cyclic sweep over
        # all columns took 1,261 sweeps on this path.  A return to
        # per-coordinate sweeps shows here as a count, without timing.
        cyclic_sweeps = 1261
        s, x, y = _path_instance()
        d = s.weights
        grid = lambda_path(_Problem(x, y, d, standardize=True, intercept=True).xty, 0.5, 25, 1e-6)
        fold_of = np.arange(s.n) % 4
        total = 0
        for f in range(4):
            train = fold_of != f
            problem = _Problem(x[train], y[train], d[train], standardize=True, intercept=True)
            beta = None
            for lam in grid:
                beta, sweeps, _ = _cd_core(
                    problem.gram, problem.xty, problem.yty, lam, 0.5, 1e-3, DEFAULT_MAX_SWEEPS, beta
                )
                total += sweeps
        assert total <= cyclic_sweeps // 2


class TestCrossValidate:
    def test_singleton_grids_pass_through(self):
        s, x, y = _instance(50)
        spec = cross_validate(s, x, y, lambda_grid=[0.8], alpha_grid=[0.5], folds=3)
        assert spec == PenaltySpec(lam=0.8, alpha=0.5)

    def test_picks_lower_exhaustive_cv_error(self):
        s, x, y = _instance(51, n=40)
        lams = [0.05, 2000.0]
        rng_seed = 7
        spec = cross_validate(
            s, x, y, lambda_grid=lams, alpha_grid=[1.0], folds=4, rng=substream(rng_seed)
        )
        # recompute the held-out loss outside the operation
        losses = {}
        fold_rng = substream(rng_seed)
        perm = fold_rng.permutation(s.n)
        fold_of = np.empty(s.n, dtype=int)
        fold_of[perm] = np.arange(s.n) % 4
        for lam in lams:
            total = 0.0
            for f in range(4):
                train = fold_of != f
                sub = DrawnSample(indices=np.flatnonzero(train), pi=s.pi[train])
                fit = fit_elastic_net(sub, x[train], y[train], PenaltySpec(lam=lam, alpha=1.0))
                resid = y[~train] - fit.predict(x[~train])
                total += float((resid**2 / s.pi[~train]).sum())
            losses[lam] = total
        best = min(lams, key=lambda lam: losses[lam])
        assert losses[0.05] < losses[2000.0]
        assert spec.lam == best

    def test_deterministic_given_stream(self):
        s, x, y = _instance(52)
        a = cross_validate(s, x, y, folds=4, rng=substream(3), n_lambdas=12, alpha_grid=(0.0, 1.0))
        b = cross_validate(s, x, y, folds=4, rng=substream(3), n_lambdas=12, alpha_grid=(0.0, 1.0))
        assert a == b

    @pytest.mark.parametrize("seed", range(60, 66))
    def test_alpha_grid_choice_equals_its_lone_alpha(self, seed):
        # Fold problems are shared across alphas.  A grid starting below the
        # all-zero threshold and a loose tolerance make each fit depend on its
        # start, so a warm start carried from one alpha into the next shows.
        s, x, y = _instance(seed, n=40, p=12)
        kwargs = dict(lambda_grid=np.geomspace(3.0, 0.01, 12), folds=4, tol=1.0)
        spec = cross_validate(s, x, y, alpha_grid=(1.0, 0.5, 0.0), rng=substream(seed), **kwargs)
        alone = cross_validate(s, x, y, alpha_grid=(spec.alpha,), rng=substream(seed), **kwargs)
        assert alone == spec

    def test_degenerate_folds_rejected(self):
        s, x, y = _instance(53, n=5)
        with pytest.raises(ParameterError):
            cross_validate(s, x, y, folds=9)
        with pytest.raises(ParameterError):
            cross_validate(s, x, y, folds=1)


def test_pickled_fits_predict_the_same_bytes():
    s, x, y = _instance(70, p=6)
    fits = (
        fit_greg(s, x, y),
        fit_ridge(s, x, y, 0.5),
        fit_elastic_net(s, x, y, PenaltySpec(lam=0.5, alpha=0.5)),
        fit_elastic_net(s, x, y, PenaltySpec(lam=0.5, penalize_intercept=True)),
    )
    for fit in fits:
        clone = pickle.loads(pickle.dumps(fit))
        assert clone.predict == fit.predict
        assert clone.predict(x).tobytes() == fit.predict(x).tobytes()
