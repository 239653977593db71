"""Design-weighted penalized least squares: ridge, lasso, and elastic net.

All criteria weight squared residuals by 1 / pi.  Ridge has a closed form;
lasso and elastic net are solved by an active-set descent on the root-weight
transformed design, ``xt_i = x_i / sqrt(pi_i)``, where each coordinate's
exact minimiser, the others held fixed, is

    beta_j = S(z_j, lam * alpha) / (sum_i xt_ij^2 + lam * (1 - alpha))

with z_j the j-th column's cross product with the partial residual.  Each
iteration computes every z_j at once.  When no coefficient lies ``tol`` or
more from its minimiser the descent has converged; otherwise the
coordinates with a nonzero minimiser join the active set, and exact Newton
steps on the active set with its signs held fixed (the feature-sign search
of Lee, Battle, Raina & Ng, 2007) move the coefficients.  Cyclic
soft-threshold sweeps run only when a Newton round fails.  The tracked
objective is ``0.5 * sum_S (y - x'b)^2 / pi + lam * alpha * |b|_1 +
0.5 * lam * (1 - alpha) * |b|_2^2``; it is non-increasing across steps and
sweeps and checked on every fit, and every fit reports its duality gap.

One ``_Problem`` per sample and per cross-validation training fold holds the
standardized, root-weighted Gram ``xt'xt`` with ``xt'yt`` and ``yt'yt``; the
ridge solve, the descent, the penalty path and cross-validation all work
from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, ParameterError
from .estimators import FittedPredictor, LinearPredictor, _calibration_weights, _check_sample_xy, _guard_condition
from .population import array_eq
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

    __eq__ = array_eq

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


class _Problem:
    """Design-weighted least squares on standardized, root-weighted columns.

    Holds ``gram = xt'xt``, ``xty = xt'yt`` and ``yty = yt'yt`` for
    ``xt = sqrt(d) * u`` with u the standardized columns and
    ``yt = sqrt(d) * (y - ybar)``.  With ``intercept_column`` the intercept
    joins the penalty as an explicit leading ``sqrt(d)`` column, and y is not
    centred.
    """

    def __init__(self, x, y, d, *, standardize: bool, intercept: bool, intercept_column: bool = False):
        self.std = Standardization.fit(x, d, center=intercept, scale=standardize)
        self.intercept_column = intercept_column
        self.ybar = float((d / d.sum()) @ y) if intercept and not intercept_column else 0.0
        sw = np.sqrt(d)
        xt = self.std.transform(x) * sw[:, None]
        if intercept_column:
            xt = np.column_stack([sw, xt])
        yt = (y - self.ybar) * sw
        self.gram = xt.T @ xt
        self.xty = xt.T @ yt
        self.yty = float(yt @ yt)

    @cached_property
    def spectrum(self):
        """``eigh`` of the Gram and ``xty`` in its eigenbasis: ridge at any penalty."""
        evals, evecs = np.linalg.eigh(self.gram)
        return evals, evecs, evecs.T @ self.xty

    def raw(self, beta: np.ndarray) -> tuple[np.ndarray, float]:
        """Raw-coordinate (coef, intercept) of a solution on the problem's columns."""
        b0 = self.ybar
        if self.intercept_column:
            b0, beta = float(beta[0]), beta[1:]
        coef = self.std.expand(beta)
        return coef, b0 - float(self.std.center @ coef)


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
    problem = _Problem(x, y, sample.weights, standardize=standardize, intercept=intercept)
    k = problem.xty.size
    cond = float("nan")
    if lam == 0 and k > 0:
        cond = _guard_condition(problem.gram, "fit_ridge(lam=0)")
    beta_std = np.linalg.solve(problem.gram + lam * np.eye(k), problem.xty)
    coef, b0 = problem.raw(beta_std)
    if not np.all(np.isfinite(coef)):
        raise ParameterError("ridge solve produced non-finite coefficients")

    return FittedPredictor(
        method="ridge",
        predict=LinearPredictor(coef, b0),
        params={
            "coef": coef,
            "intercept": b0 if intercept else None,
            "coef_std": beta_std,
            "standardization": problem.std,
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
    return _calibration_weights(sample, x, tx, lam, "ridge_weights(lam=0)")


def _certificate(gram, xty, yty, lam, alpha, beta) -> tuple[float, float]:
    """Duality gap and largest KKT violation of ``beta``, from the Gram alone.

    The elastic net is a lasso on the augmented design ``[xt; sqrt(ridge) I]``
    with response ``[yt; 0]``, whose correlations with the residual are
    ``u = xty - G b - ridge b``.  The residual scaled by
    ``s = min(1, lam*alpha / max|u|)`` is dual feasible, so the gap between
    the primal and that dual value bounds the distance to the optimal
    objective whatever the solver did (Fercoq, Gramfort & Salmon, 2015).
    """
    ridge, thresh = lam * (1.0 - alpha), lam * alpha
    gram_beta = gram @ beta
    u = xty - gram_beta - ridge * beta
    largest = float(np.max(np.abs(u), initial=0.0))
    s = 1.0 if largest <= thresh else thresh / largest
    fit_xy = float(beta @ xty)
    rss = yty - 2.0 * fit_xy + float(beta @ gram_beta)
    norm2 = float(beta @ beta)
    primal = 0.5 * rss + thresh * float(np.abs(beta).sum()) + 0.5 * ridge * norm2
    dual = s * (yty - fit_xy) - 0.5 * s * s * (rss + ridge * norm2)
    kkt = np.where(beta != 0, np.abs(u - thresh * np.sign(beta)), np.maximum(np.abs(u) - thresh, 0.0))
    return primal - dual, float(np.max(kkt, initial=0.0))


def _cd_core(gram, xty, yty, lam, alpha, tol, max_iter, beta0=None):
    """Active-set descent; returns (beta, sweeps, objective trace).

    Works off the cached Gram matrix, with ``gram @ beta`` and the residual
    sum of squares kept up to date as coefficients move.  Each iteration
    opens with one vectorised optimality check: every coordinate's exact
    minimiser ``S(z_j, lam*alpha) / (G_jj + lam*(1-alpha))`` at the current
    beta, with ``z_j`` the gradient entry plus ``G_jj * beta_j``.  When no
    coefficient is ``tol`` or more from its minimiser, the descent has
    converged; this is the test a cyclic sweep makes at its fixed point.
    Otherwise every inactive coordinate with a nonzero minimiser enters the
    active set with the sign of its ``z_j``, and Newton steps solve the
    problem restricted to the active set with its signs fixed (the
    feature-sign search of Lee, Battle, Raina & Ng, 2007).  A singular or
    non-finite solve, a step the objective guard rejects, or a round of
    steps that does not lower the objective falls back to one cyclic
    soft-threshold sweep over every coordinate.  Newton steps, fallback
    sweeps and the check that ends the descent each count as a sweep toward
    ``max_iter``; a check that lets coordinates enter does not, since a
    counted step or sweep always follows it.
    """
    col_ss = np.diag(gram).copy()
    ridge = lam * (1.0 - alpha)
    # Zero columns never enter: their minimiser is 0 / inf.
    denom = np.where(col_ss > 0, col_ss + ridge, np.inf)
    thresh = lam * alpha
    l2_half = 0.5 * ridge
    beta = np.zeros(xty.size) if beta0 is None else np.array(beta0, dtype=float)
    grad_cache = gram @ beta
    rss = yty - 2.0 * float(beta @ xty) + float(beta @ grad_cache)
    # Python floats: numpy scalar arithmetic would dominate the sweep loop.
    all_coords = np.flatnonzero(col_ss > 0).tolist()
    xty_l, col_ss_l, denom_l = xty.tolist(), col_ss.tolist(), denom.tolist()

    def objective() -> float:
        return 0.5 * rss + thresh * float(np.abs(beta).sum()) + l2_half * float(beta @ beta)

    def sweep():
        nonlocal rss, grad_cache
        beta_at, grad_cache_at = beta.item, grad_cache.item
        for j in all_coords:
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

    def step(active, rows, current, target, limit) -> bool:
        """Move ``beta[active]`` to target unless the objective would exceed limit."""
        nonlocal rss, grad_cache, sweeps
        move = target - current
        gram_move = move @ rows
        new_rss = rss - float(move @ (2.0 * (xty[active] - grad_cache[active]) - gram_move[active]))
        # Every coordinate outside the active set is zero.
        obj = 0.5 * new_rss + thresh * float(np.abs(target).sum()) + l2_half * float(target @ target)
        if obj > limit:
            return False
        rss = new_rss
        grad_cache += gram_move
        beta[active] = target
        sweeps += 1
        trace.append(obj)
        return True

    def newton_steps(active, signs) -> bool:
        """Exact steps on the active set with its signs held fixed.

        Solves ``(G_AA + ridge I) b = xty_A - thresh * s``.  When b keeps the
        signs s it is the optimum over A and is taken whole.  Otherwise every
        coordinate whose sign b contradicts is set to zero and dropped in one
        step, if that step does not raise the objective.  If it would, the
        step goes to the best of the points on the segment toward b where a
        coordinate reaches zero (the feature-sign line search), drops the
        coordinates that are zero there and takes the signs of the others.
        Then the reduced set is solved again.  Returns True when the steps
        lowered the objective.
        """
        start = trace[-1]
        while active.size and sweeps < max_iter:
            current = beta[active]
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
            if not crossing.size:
                return step(active, rows, current, target, trace[-1] + slack) and trace[-1] < start
            dropped = target.copy()
            dropped[crossing] = 0.0
            if step(active, rows, current, dropped, trace[-1]):
                keep = target * signs > 0.0
            else:
                # Feature-sign line search: the best of the points where a
                # coordinate reaches zero on the segment toward b.  An
                # entering coordinate starts at zero, so its ratio is 0.
                gap = current[crossing] - target[crossing]
                ratios = np.divide(current[crossing], gap, out=np.zeros(crossing.size), where=gap != 0.0)
                points = current + ratios[:, None] * (target - current)
                points[np.arange(crossing.size), crossing] = 0.0
                moves = points - current
                # move' G_AA move, with the ridge taken back out of the system
                quad = np.einsum("ij,ij->i", moves @ system, moves) - ridge * np.einsum("ij,ij->i", moves, moves)
                rss_at = rss - moves @ (2.0 * (xty[active] - grad_cache[active])) + quad
                l1, l2 = np.abs(points).sum(axis=1), np.einsum("ij,ij->i", points, points)
                best = points[int(np.argmin(0.5 * rss_at + thresh * l1 + l2_half * l2))]
                if not step(active, rows, current, best, trace[-1] + slack):
                    return False
                keep = (best != 0.0) | (target * signs > 0.0)
                signs = np.where(best != 0.0, np.sign(best), signs)
            active, signs = active[keep], signs[keep]
        return trace[-1] < start

    trace = [objective()]
    # The incremental residual tracking drifts by tiny float amounts, so the
    # monotonicity guard is slack relative to the starting objective.
    slack = 1e-10 * (abs(trace[0]) + 1.0)

    sweeps = 0
    while sweeps < max_iter:
        z = xty - grad_cache + col_ss * beta
        minimiser = np.copysign(np.maximum(np.abs(z) - thresh, 0.0) / denom, z)
        if float(np.max(np.abs(minimiser - beta), initial=0.0)) < tol:
            return beta, sweeps + 1, trace
        active = np.flatnonzero((beta != 0.0) | (minimiser != 0.0))
        if newton_steps(active, np.sign(np.where(beta[active] != 0.0, beta[active], z[active]))):
            continue
        sweep()
        sweeps += 1
        obj = objective()
        if obj > trace[-1] + slack:
            raise ConvergenceError(
                f"objective increased during a sweep ({trace[-1]!r} -> {obj!r})",
                coef=beta.copy(),
                objective_trace=tuple(trace),
            )
        trace.append(obj)
    raise ConvergenceError(
        f"no convergence after {max_iter} sweeps (last move >= {tol:g})",
        coef=beta.copy(),
        objective_trace=tuple(trace),
        dual_gap=_certificate(gram, xty, yty, lam, alpha, beta)[0],
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
    """Design-weighted elastic net by active-set descent.

    ``spec.alpha=1`` gives the lasso.  The unpenalized intercept is profiled
    out through weighted centring, which keeps it at its optimum at every
    iterate; set ``standardize=False, intercept=False`` to run on raw columns
    (the configuration whose orthogonal-design solution has a closed form).
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    if max_iter < 1:
        raise ParameterError("max_iter must be at least 1")
    x, y = _check_sample_xy(sample, x, y)
    problem = _Problem(
        x, y, sample.weights, standardize=standardize, intercept=intercept,
        intercept_column=spec.penalize_intercept and intercept,
    )
    penalized, sweeps, trace = _cd_core(problem.gram, problem.xty, problem.yty, spec.lam, spec.alpha, tol, max_iter)
    dual_gap, kkt = _certificate(problem.gram, problem.xty, problem.yty, spec.lam, spec.alpha, penalized)
    beta_std = penalized[1:] if problem.intercept_column else penalized
    coef, b0 = problem.raw(penalized)

    return FittedPredictor(
        method="lasso" if spec.alpha == 1.0 else "en",
        predict=LinearPredictor(coef, b0),
        params={
            "coef": coef,
            "intercept": b0 if intercept else None,
            "coef_std": beta_std,
            "standardization": problem.std,
            "objective_trace": tuple(trace),
        },
        diagnostics={
            "lam": float(spec.lam),
            "alpha": float(spec.alpha),
            "sweeps": float(sweeps),
            "objective": trace[-1],
            "dual_gap": dual_gap,
            "kkt_violation": kkt,
            "penalized_norm1": float(np.abs(penalized).sum()),
            "penalized_norm2": float(np.linalg.norm(penalized)),
        },
    )


def lambda_path(xty: np.ndarray, alpha: float, n_lambdas: int, min_ratio: float) -> np.ndarray:
    """Log-spaced penalties from the all-zero threshold downward.

    ``lambda_max = max_j |xty_j| / max(alpha, 1e-3)``, with ``xty = xt'yt``
    on the root-weighted design, is the smallest penalty at which every slope
    is zero (for alpha > 0).
    """
    lam_max = float(np.max(np.abs(xty))) / max(alpha, _ALPHA_FLOOR)
    if lam_max <= 0:
        lam_max = 1.0
    return np.geomspace(lam_max, lam_max * min_ratio, n_lambdas)


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
    problems, held_sets = [], []
    for f in range(folds):
        train = fold_of != f
        held = np.flatnonzero(~train)
        problems.append(_Problem(x[train], y[train], d[train], standardize=standardize, intercept=intercept))
        held_sets.append((held, d[held] if weighted_loss else np.ones(held.size)))
    if lambda_grid is None:
        full = _Problem(x, y, d, standardize=standardize, intercept=intercept)

    best_loss = math.inf
    best = None
    for alpha in alpha_grid:
        grid = lambda_grid if lambda_grid is not None else lambda_path(full.xty, alpha, n_lambdas, lambda_min_ratio)
        # Warm starts run down one alpha's path only.
        warm = [None] * folds
        alpha_best = math.inf
        alpha_best_idx = 0
        for i, lam in enumerate(grid):
            total = 0.0
            for f, (problem, (held, loss_w)) in enumerate(zip(problems, held_sets)):
                if alpha == 0.0:
                    evals, evecs, projected = problem.spectrum
                    beta_std = evecs @ (projected / (evals + lam))
                else:
                    beta_std, _, _ = _cd_core(
                        problem.gram, problem.xty, problem.yty, lam, alpha, tol, max_iter, warm[f]
                    )
                    warm[f] = beta_std
                coef, icpt = problem.raw(beta_std)
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
