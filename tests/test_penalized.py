import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svyest import (
    ConvergenceError,
    DrawnSample,
    ParameterError,
    PenaltySpec,
    Standardization,
    cross_validate,
    fit_elastic_net,
    fit_greg,
    fit_ridge,
    greg_weights,
    ridge_weights,
    soft_threshold,
    substream,
)
from svyest.penalized import DEFAULT_TOL


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


def _kkt_violation(sample, x, y, fit, spec):
    """Per-coordinate KKT violations of an elastic-net fit, and their bounds.

    Rebuilds the root-weighted standardized problem from the data, apart from
    the solver.  For an active j the violation is
    ``|x_j'r - lam(1-alpha) b_j - lam alpha sign(b_j)|``; for an inactive j it
    is ``max(|x_j'r| - lam alpha, 0)``.  Descent stops after a full sweep
    moves no coordinate by ``tol``; each coordinate met its own condition
    when visited, so the violation is at most ``tol * sum_k |G_jk|``.
    """
    d = sample.weights
    sw = np.sqrt(d)
    std = fit.params["standardization"]
    u = std.transform(x)
    if spec.penalize_intercept:
        xt = np.column_stack([sw, u * sw[:, None]])
        yt = y * sw
        b0 = fit.params["intercept"] + float(std.center @ fit.params["coef"])
        beta = np.concatenate([[b0], fit.params["coef_std"]])
    else:
        ybar = float((d / d.sum()) @ y)
        xt = u * sw[:, None]
        yt = (y - ybar) * sw
        beta = fit.params["coef_std"]
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


class TestKktCertificate:
    def _lam_max(self, sample, x, y, alpha):
        d = sample.weights
        std = Standardization.fit(x, d)
        sw = np.sqrt(d)
        yt = (y - float((d / d.sum()) @ y)) * sw
        return float(np.max(np.abs((std.transform(x) * sw[:, None]).T @ yt))) / alpha

    def _check(self, sample, x, y, spec):
        fit = fit_elastic_net(sample, x, y, spec)
        violation, bound = _kkt_violation(sample, x, y, fit, spec)
        assert np.all(violation <= bound)
        trace = np.asarray(fit.params["objective_trace"])
        assert np.all(np.diff(trace) <= 1e-10 * (abs(trace[0]) + 1.0))
        return fit

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("ratio", [0.5, 0.1, 0.01, 1e-4])
    def test_correlated_design(self, alpha, ratio):
        s, x, y = _instance(60, n=60, p=12)
        x = x + 0.8 * x[:, [0]]
        lam = ratio * self._lam_max(s, x, y, alpha)
        self._check(s, x, y, PenaltySpec(lam=lam, alpha=alpha))

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("ratio", [0.3, 0.03, 1e-3])
    def test_more_columns_than_rows(self, alpha, ratio):
        s, x, y = _instance(61, n=30, p=50)
        lam = ratio * self._lam_max(s, x, y, alpha)
        fit = self._check(s, x, y, PenaltySpec(lam=lam, alpha=alpha))
        assert np.count_nonzero(fit.params["coef"]) > 0

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    def test_penalized_intercept(self, alpha):
        s, x, y = _instance(62, n=40, p=8)
        for lam in (5.0, 0.5):
            self._check(s, x, y, PenaltySpec(lam=lam, alpha=alpha, penalize_intercept=True))

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("ratio", [0.2, 0.01])
    def test_duplicated_column(self, alpha, ratio):
        # the lasso's active sub-Gram is singular once both copies enter
        s, x, y = _instance(63, n=40, p=6)
        x = np.column_stack([x, x[:, 0]])
        lam = ratio * self._lam_max(s, x, y, alpha)
        self._check(s, x, y, PenaltySpec(lam=lam, alpha=alpha))


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

    def test_degenerate_folds_rejected(self):
        s, x, y = _instance(53, n=5)
        with pytest.raises(ParameterError):
            cross_validate(s, x, y, folds=9)
        with pytest.raises(ParameterError):
            cross_validate(s, x, y, folds=1)
