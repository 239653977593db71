"""Design-weighted penalized least squares: ridge, lasso, and elastic net.

All criteria weight squared residuals by 1 / pi.  Ridge has a closed form;
lasso and elastic net are solved by cyclic coordinate descent with
soft-thresholding on the root-weight transformed design, where each
coordinate update has the closed form

    beta_j = S(sum_i r_ij * xt_ij, lam * alpha) / (sum_i xt_ij^2 + lam * (1 - alpha))

with ``xt_i = x_i / sqrt(pi_i)`` and partial residuals r.  Between full
sweeps, exact Newton steps on the active set with its signs held fixed (the
feature-sign search of Lee, Battle, Raina & Ng, 2007) replace the slow
sweeps over the active set.  The tracked objective is
``0.5 * sum_S (y - x'b)^2 / pi + lam * alpha * |b|_1 +
0.5 * lam * (1 - alpha) * |b|_2^2``, whose exact coordinate minimiser is the
update above; it is non-increasing across sweeps and steps and checked on
every fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, ParameterError
from .estimators import FittedPredictor, _guard_condition, _weighted_gram
from .sampling import DrawnSample

DEFAULT_ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_TOL = 1e-7
DEFAULT_MAX_SWEEPS = 10_000

#: Floor applied to alpha when sizing the lambda path, so ridge-like mixes
#: still get a finite largest penalty.
_ALPHA_FLOOR = 1e-3


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty strength and elastic-net mixing.

    ``alpha=1`` is the lasso, ``alpha=0`` a pure quadratic penalty.  The
    intercept is left unpenalized unless ``penalize_intercept`` is set.
    """

    lam: float
    alpha: float = 1.0
    penalize_intercept: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ParameterError("lam must be a nonnegative real")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class Standardization:
    """Design-weighted column centring and scaling for a sample matrix.

    Zero-variance columns are flagged out of ``kept`` and excluded from
    penalized paths; their coefficients stay at zero.
    """

    center: np.ndarray
    scale: np.ndarray
    kept: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray, weights: np.ndarray, *, center: bool = True, scale: bool = True):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        p = x.shape[1]
        mean = x.T @ w if center else np.zeros(p)
        deviations = x - mean
        sd = np.sqrt(np.maximum((deviations**2).T @ w, 0.0))
        if scale:
            kept = sd > 1e-13 * np.maximum(np.abs(mean), 1.0)
            scale_vec = np.where(kept, sd, 1.0)
        else:
            kept = np.ones(p, dtype=bool)
            scale_vec = np.ones(p)
        return cls(center=mean, scale=scale_vec, kept=kept)

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return ((x - self.center) / self.scale)[:, self.kept]

    def expand(self, slopes_kept: np.ndarray) -> np.ndarray:
        """Map coefficients on kept standardized columns back to raw columns."""
        coef = np.zeros(self.kept.size)
        coef[self.kept] = slopes_kept / self.scale[self.kept]
        return coef


def soft_threshold(z, lam):
    """Shrink toward zero: sign(z) * max(|z| - lam, 0)."""
    if lam < 0:
        raise ParameterError("lam must be nonnegative")
    return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)


def _check_sample_xy(sample: DrawnSample, x: np.ndarray, y: np.ndarray):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] != sample.n or y.shape != (sample.n,):
        raise ParameterError("x and y must be aligned with the sample")
    return x, y


def fit_ridge(
    sample: DrawnSample,
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    *,
    standardize: bool = True,
    intercept: bool = True,
) -> FittedPredictor:
    """Closed-form design-weighted ridge regression.

    By default the penalty applies to standardized slopes and the intercept is
    unpenalized; coefficients are back-transformed to raw coordinates for
    prediction.  With ``standardize=False, intercept=False`` this is the plain
    penalized normal-equation solve on raw columns, the machine whose weight
    representation ``ridge_weights`` mirrors.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ParameterError("lam must be a nonnegative real")
    x, y = _check_sample_xy(sample, x, y)
    d = sample.weights
    std = Standardization.fit(x, d, center=intercept, scale=standardize)
    u = std.transform(x)
    ybar = float((d / d.sum()) @ y) if intercept else 0.0
    gram = _weighted_gram(u, d)
    cond = float("nan")
    if lam == 0 and u.shape[1] > 0:
        cond = _guard_condition(gram, "fit_ridge(lam=0)")
    beta_std = np.linalg.solve(gram + lam * np.eye(u.shape[1]), u.T @ (d * (y - ybar)))
    coef = std.expand(beta_std)
    b0 = ybar - float(std.center @ coef)
    if not np.all(np.isfinite(coef)):
        raise ParameterError("ridge solve produced non-finite coefficients")

    def predict(xnew: np.ndarray) -> np.ndarray:
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        return b0 + xnew @ coef

    return FittedPredictor(
        method="ridge",
        predict=predict,
        params={
            "coef": coef,
            "intercept": b0 if intercept else None,
            "coef_std": beta_std,
            "standardization": std,
        },
        diagnostics={
            "lam": float(lam),
            "penalized_norm2": float(np.linalg.norm(beta_std)),
            "cond": cond,
        },
    )


def ridge_weights(sample: DrawnSample, x: np.ndarray, tx: np.ndarray, lam: float) -> np.ndarray:
    """Penalized calibration weights on raw (un-standardized) columns.

    The weighted y-sum under these weights equals the model-assisted total
    built from ``fit_ridge(..., standardize=False, intercept=False)`` at the
    same penalty; at ``lam=0`` they reduce to the GREG calibration weights.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ParameterError("lam must be a nonnegative real")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    tx = np.asarray(tx, dtype=float)
    if x.shape[0] != sample.n:
        raise ParameterError("x must be aligned with the sample")
    if tx.shape != (x.shape[1],):
        raise ParameterError("tx must hold one total per column of x")
    d = sample.weights
    gram = _weighted_gram(x, d)
    if lam == 0:
        _guard_condition(gram, "ridge_weights(lam=0)")
    adjustment = np.linalg.solve(gram + lam * np.eye(x.shape[1]), tx - x.T @ d)
    return d * (1.0 + x @ adjustment)


def _coordinate_descent(xt, yt, lam, alpha, tol, max_iter, beta0=None):
    """Cyclic soft-threshold descent; returns (beta, sweeps, objective trace).

    Works off the cached Gram matrix: the gradient entry a coordinate needs
    is the cached cross product minus one entry of ``gram @ beta``, which is
    maintained incrementally, so a sweep that moves nothing costs O(k).
    After every full sweep that has not converged, Newton steps solve the
    problem restricted to the active set with its signs fixed, stopping at
    the first coordinate that reaches zero and dropping it.  Each step counts
    as a sweep toward ``max_iter``.  A singular or non-finite solve, or a
    step that would raise the objective, is undone, and sweeps over the
    active set run instead.  Convergence is only declared after a full sweep
    moves no coefficient by ``tol`` or more; that sweep also brings in every
    inactive coordinate that violates its optimality condition.
    """
    gram = xt.T @ xt
    xty = xt.T @ yt
    yty = float(yt @ yt)
    return _cd_core(gram, xty, yty, lam, alpha, tol, max_iter, beta0)


def _cd_core(gram, xty, yty, lam, alpha, tol, max_iter, beta0=None):
    k = xty.size
    col_ss = np.diag(gram).copy()
    ridge = lam * (1.0 - alpha)
    denom = col_ss + ridge
    thresh = lam * alpha
    l2_half = 0.5 * ridge
    beta = np.zeros(k) if beta0 is None else np.array(beta0, dtype=float)
    grad_cache = gram @ beta
    rss = yty - 2.0 * float(beta @ xty) + float(beta @ grad_cache)
    # Python floats: numpy scalar arithmetic would dominate the sweep loop.
    xty_l, col_ss_l, denom_l = xty.tolist(), col_ss.tolist(), denom.tolist()

    def objective() -> float:
        return 0.5 * rss + thresh * float(np.abs(beta).sum()) + l2_half * float(beta @ beta)

    def sweep(coords) -> float:
        nonlocal rss, grad_cache
        largest = 0.0
        beta_at, grad_cache_at = beta.item, grad_cache.item
        for j in coords:
            old = beta_at(j)
            gradient = xty_l[j] - grad_cache_at(j)
            z = gradient + col_ss_l[j] * old
            # soft_threshold(z, thresh) / denom[j], in scalar arithmetic
            if z > thresh:
                new = (z - thresh) / denom_l[j]
            elif z < -thresh:
                new = (z + thresh) / denom_l[j]
            else:
                new = 0.0
            if new != old:
                move = new - old
                rss += move * (move * col_ss_l[j] - 2.0 * gradient)
                grad_cache += gram[j] * move
                beta[j] = new
                if abs(move) > largest:
                    largest = abs(move)
        return largest

    def newton_steps() -> bool:
        """Exact steps on the active set with its signs held fixed.

        Solves ``(G_AA + ridge I) b = xty_A - thresh * s``.  When b keeps the
        signs s it is the optimum over A and is taken whole; otherwise the
        step stops where the first coordinate reaches zero, drops it, and
        solves again.  Every step counts as a sweep.  Returns False, with the
        step undone, when the solve fails or the objective would rise.
        """
        nonlocal rss, grad_cache, sweeps
        active = np.flatnonzero(beta)
        while active.size and sweeps < max_iter:
            current = beta[active]
            signs = np.sign(current)
            rows = gram[active]
            system = rows[:, active]
            system.flat[:: active.size + 1] += ridge
            try:
                target = np.linalg.solve(system, xty[active] - thresh * signs)
            except np.linalg.LinAlgError:
                return False
            if not np.all(np.isfinite(target)):
                return False
            crossing = np.flatnonzero(target * signs <= 0.0)
            if crossing.size:
                ratios = current[crossing] / (current[crossing] - target[crossing])
                first = int(np.argmin(ratios))
                target = current + ratios[first] * (target - current)
                target[crossing[first]] = 0.0
            move = target - current
            gram_move = move @ rows
            saved = rss, grad_cache.copy()
            rss -= float(move @ (2.0 * (xty[active] - grad_cache[active]) - gram_move[active]))
            grad_cache += gram_move
            beta[active] = target
            if objective() > trace[-1] + slack:
                rss, grad_cache = saved
                beta[active] = current
                return False
            sweeps += 1
            record()
            if not crossing.size:
                return True
            active = active[target != 0.0]
        return True

    all_coords = np.flatnonzero(col_ss > 0)
    trace = [objective()]
    # The incremental residual tracking drifts by tiny float amounts, so the
    # monotonicity guard is slack relative to the starting objective.
    slack = 1e-10 * (abs(trace[0]) + 1.0)

    def record():
        obj = objective()
        if obj > trace[-1] + slack:
            raise ConvergenceError(
                f"objective increased during a sweep ({trace[-1]!r} -> {obj!r})",
                coef=beta.copy(),
                objective_trace=tuple(trace),
            )
        trace.append(obj)

    sweeps = 0
    while sweeps < max_iter:
        delta = sweep(all_coords)
        sweeps += 1
        record()
        if delta < tol:
            return beta, sweeps, trace
        if newton_steps():
            continue
        active = np.flatnonzero(beta != 0)
        while active.size < all_coords.size and sweeps < max_iter:
            delta = sweep(active)
            sweeps += 1
            record()
            if delta < tol:
                break
    raise ConvergenceError(
        f"no convergence after {max_iter} sweeps (last move >= {tol:g})",
        coef=beta.copy(),
        objective_trace=tuple(trace),
    )


def fit_elastic_net(
    sample: DrawnSample,
    x: np.ndarray,
    y: np.ndarray,
    spec: PenaltySpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_SWEEPS,
    *,
    standardize: bool = True,
    intercept: bool = True,
) -> FittedPredictor:
    """Design-weighted elastic net by cyclic coordinate descent.

    ``spec.alpha=1`` gives the lasso.  The unpenalized intercept is profiled
    out through weighted centring, which keeps it at its optimum after every
    sweep; set ``standardize=False, intercept=False`` to run on raw columns
    (the configuration whose orthogonal-design solution has a closed form).
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    if max_iter < 1:
        raise ParameterError("max_iter must be at least 1")
    x, y = _check_sample_xy(sample, x, y)
    d = sample.weights
    sw = np.sqrt(d)
    std = Standardization.fit(x, d, center=intercept, scale=standardize)
    u = std.transform(x)

    if spec.penalize_intercept and intercept:
        # The intercept joins the penalty: model it as an explicit unscaled
        # coordinate instead of profiling it out.
        xt = np.column_stack([sw, u * sw[:, None]])
        yt = y * sw
        beta_all, sweeps, trace = _coordinate_descent(xt, yt, spec.lam, spec.alpha, tol, max_iter)
        b0_std, beta_std = float(beta_all[0]), beta_all[1:]
        coef = std.expand(beta_std)
        b0 = b0_std - float(std.center @ coef)
        penalized = beta_all
    else:
        ybar = float((d / d.sum()) @ y) if intercept else 0.0
        xt = u * sw[:, None]
        yt = (y - ybar) * sw
        beta_std, sweeps, trace = _coordinate_descent(xt, yt, spec.lam, spec.alpha, tol, max_iter)
        coef = std.expand(beta_std)
        b0 = ybar - float(std.center @ coef)
        penalized = beta_std

    def predict(xnew: np.ndarray) -> np.ndarray:
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        return b0 + xnew @ coef

    return FittedPredictor(
        method="lasso" if spec.alpha == 1.0 else "en",
        predict=predict,
        params={
            "coef": coef,
            "intercept": b0 if intercept else None,
            "coef_std": beta_std,
            "standardization": std,
            "objective_trace": tuple(trace),
        },
        diagnostics={
            "lam": float(spec.lam),
            "alpha": float(spec.alpha),
            "sweeps": float(sweeps),
            "objective": trace[-1],
            "penalized_norm1": float(np.abs(penalized).sum()),
            "penalized_norm2": float(np.linalg.norm(penalized)),
        },
    )


def lambda_path(xt: np.ndarray, yt: np.ndarray, alpha: float, n_lambdas: int, min_ratio: float) -> np.ndarray:
    """Log-spaced penalties from the all-zero threshold downward.

    ``lambda_max = max_j |sum_i xt_ij yt_i| / max(alpha, 1e-3)`` is the
    smallest penalty at which every slope is zero (for alpha > 0).
    """
    lam_max = float(np.max(np.abs(xt.T @ yt))) / max(alpha, _ALPHA_FLOOR)
    if lam_max <= 0:
        lam_max = 1.0
    return np.geomspace(lam_max, lam_max * min_ratio, n_lambdas)


class _FoldPath:
    """Warm-started descending-penalty fits on one training fold.

    Caches the transformed design and its Gram once; ``step(lam)`` returns the
    raw-coordinate (coef, intercept) at that penalty.  For a pure quadratic
    penalty one eigendecomposition serves the whole path.
    """

    def __init__(self, x, y, d, alpha, standardize, intercept, tol, max_iter):
        self.alpha = alpha
        self.tol = tol
        self.max_iter = max_iter
        self.std = Standardization.fit(x, d, center=intercept, scale=standardize)
        sw = np.sqrt(d)
        self.ybar = float((d / d.sum()) @ y) if intercept else 0.0
        xt = self.std.transform(x) * sw[:, None]
        yt = (y - self.ybar) * sw
        self.gram = xt.T @ xt
        self.xty = xt.T @ yt
        self.yty = float(yt @ yt)
        self.beta = None
        if alpha == 0.0:
            self.evals, self.evecs = np.linalg.eigh(self.gram)
            self.projected = self.evecs.T @ self.xty

    def step(self, lam):
        if self.alpha == 0.0:
            beta_std = self.evecs @ (self.projected / (self.evals + lam))
        else:
            beta_std, _, _ = _cd_core(
                self.gram, self.xty, self.yty, lam, self.alpha, self.tol, self.max_iter, self.beta
            )
            self.beta = beta_std
        coef = self.std.expand(beta_std)
        return coef, self.ybar - float(self.std.center @ coef)


def cross_validate(
    sample: DrawnSample,
    x: np.ndarray,
    y: np.ndarray,
    lambda_grid: Sequence[float] | None = None,
    alpha_grid: Sequence[float] | None = None,
    folds: int = 10,
    rng: np.random.Generator | None = None,
    *,
    weighted_loss: bool = True,
    standardize: bool = True,
    intercept: bool = True,
    n_lambdas: int = 100,
    lambda_min_ratio: float = 1e-4,
    patience: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_SWEEPS,
) -> PenaltySpec:
    """Pick the (lam, alpha) minimising K-fold held-out weighted squared error.

    Folds partition the sample uniformly at random, ignoring the design; the
    held-out loss weights residuals by 1 / pi unless ``weighted_loss`` is
    off.  Deterministic given ``rng``; ties go to the earlier alpha and the
    larger penalty.  When ``lambda_grid`` is omitted, each alpha gets its own
    log-spaced path from its all-zero threshold.  With ``patience`` set, the
    descent down a path stops after that many grid points without improving
    the held-out loss, which skips the expensive near-saturated tail.
    """
    x, y = _check_sample_xy(sample, x, y)
    if folds < 2:
        raise ParameterError("need at least 2 folds")
    if folds > sample.n:
        raise ParameterError(f"{folds} folds over {sample.n} units leaves empty folds")
    if alpha_grid is None:
        alpha_grid = DEFAULT_ALPHA_GRID
    alpha_grid = tuple(float(a) for a in alpha_grid)
    if len(alpha_grid) == 0:
        raise ParameterError("alpha_grid is empty")
    if lambda_grid is not None:
        lambda_grid = np.sort(np.asarray(lambda_grid, dtype=float))[::-1]
        if lambda_grid.size == 0:
            raise ParameterError("lambda_grid is empty")
    if patience is not None and patience < 1:
        raise ParameterError("patience must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)

    d = sample.weights
    perm = rng.permutation(sample.n)
    fold_of = np.empty(sample.n, dtype=int)
    fold_of[perm] = np.arange(sample.n) % folds

    best_loss = math.inf
    best = None
    for alpha in alpha_grid:
        if lambda_grid is None:
            sw = np.sqrt(d)
            std = Standardization.fit(x, d, center=intercept, scale=standardize)
            ybar = float((d / d.sum()) @ y) if intercept else 0.0
            grid = lambda_path(std.transform(x) * sw[:, None], (y - ybar) * sw, alpha, n_lambdas, lambda_min_ratio)
        else:
            grid = lambda_grid
        paths = []
        held_sets = []
        for f in range(folds):
            train = fold_of != f
            held = np.flatnonzero(~train)
            paths.append(
                _FoldPath(x[train], y[train], d[train], alpha, standardize, intercept, tol, max_iter)
            )
            held_sets.append((held, d[held] if weighted_loss else np.ones(held.size)))
        alpha_best = math.inf
        alpha_best_idx = 0
        for i, lam in enumerate(grid):
            total = 0.0
            for path, (held, loss_w) in zip(paths, held_sets):
                coef, icpt = path.step(lam)
                residuals = y[held] - (x[held] @ coef + icpt)
                total += float(loss_w @ residuals**2)
            if total < alpha_best:
                alpha_best = total
                alpha_best_idx = i
            elif patience is not None and i - alpha_best_idx >= patience:
                break
        if alpha_best < best_loss:
            best_loss = alpha_best
            best = (float(grid[alpha_best_idx]), alpha)
    return PenaltySpec(lam=best[0], alpha=best[1])
