"""Output checks for the benchmark, computed with numpy alone.

Every function takes plain arrays and raises ``CheckError`` naming what is
wrong; none calls into svyest.  ``run.py`` feeds them the per-replicate
estimate log of a timed sweep, the samples of that sweep, and a few refitted
predictors.
"""
from __future__ import annotations

import math

import numpy as np

#: Monte Carlo band half-width, in standard errors.  At 5 the chance that a
#: correct row falls outside is below 1e-4 per row, so the checks are quiet
#: over the hundreds of rows that many benchmark runs check.
Z = 5.0

#: Relative tolerance for totals recomputed by another route than svyest's.
#: A normal-equation solve and a least-squares solve agree to ~1e-12 on these
#: designs; an error of 1e-6 is far outside.
TOTAL_RTOL = 1e-9

#: Coordinate descent stops once a full sweep moves no standardized
#: coefficient by this much (svyest's default ``tol``).
CD_TOL = 1e-7


class CheckError(AssertionError):
    """A benchmark output check found a wrong value."""


def _close(got: float, want: float, rtol: float, what: str) -> None:
    if not abs(got - want) <= rtol * max(abs(want), 1.0):
        raise CheckError(f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g})")


def neyman_allocation(sizes: np.ndarray, sds: np.ndarray, n: int) -> np.ndarray:
    """n_h proportional to N_h S_h, largest-remainder rounding, ties to the lower stratum.

    Only the unclamped case is reproduced: a stratum below 2 units or above
    N_h raises, since the workloads are built so that none occurs.
    """
    quotas = n * sizes * sds / float(np.sum(sizes * sds))
    alloc = np.floor(quotas).astype(int)
    short = n - int(alloc.sum())
    alloc[np.argsort(-(quotas - alloc), kind="stable")[:short]] += 1
    if np.any(alloc < 2) or np.any(alloc > sizes):
        raise CheckError(f"Neyman allocation {alloc.tolist()} needs clamping; not reproduced")
    return alloc


def stratum_sizes_and_sds(strata: np.ndarray, aux: np.ndarray):
    labels = np.arange(1, int(strata.max()) + 1)
    sizes = np.array([np.count_nonzero(strata == h) for h in labels])
    sds = np.array([aux[strata == h].std(ddof=1) for h in labels])
    return sizes, sds


def check_sample(indices, pi, n_pop: int, strata=None, alloc=None) -> None:
    """Distinct sorted units, and pi = n/N (or n_h/N_h with the given allocation)."""
    indices = np.asarray(indices)
    if np.any(np.diff(indices) <= 0) or indices[0] < 0 or indices[-1] >= n_pop:
        raise CheckError("sample indices are not distinct sorted unit positions")
    if strata is None:
        want = np.full(indices.size, indices.size / n_pop)
    else:
        sizes = np.bincount(strata)[1:]
        taken = np.bincount(strata[indices], minlength=sizes.size + 1)[1:]
        if not np.array_equal(taken, alloc):
            raise CheckError(f"stratum sample sizes {taken.tolist()} differ from {alloc.tolist()}")
        h = strata[indices] - 1
        want = alloc[h] / sizes[h]
    if not np.array_equal(np.asarray(pi), want):
        raise CheckError("inclusion probabilities differ from the design's")


def ht_total(y_s, pi) -> float:
    return float(np.sum(np.asarray(y_s) / np.asarray(pi)))


def greg_total(x_pop, idx, y_s, pi) -> float:
    """GREG total with intercept by weighted least squares (lstsq on root weights)."""
    x_pop = np.asarray(x_pop, dtype=float)
    w = 1.0 / np.asarray(pi)
    root = np.sqrt(w)
    design = np.column_stack([np.ones(len(idx)), x_pop[idx]])
    beta = np.linalg.lstsq(design * root[:, None], y_s * root, rcond=None)[0]
    fitted = beta[0] + x_pop @ beta[1:]
    return float(fitted.sum() + np.sum(w * (y_s - fitted[idx])))


def linear_total(x_pop, idx, y_s, pi, coef, intercept) -> float:
    fitted = intercept + np.asarray(x_pop) @ np.asarray(coef)
    return float(fitted.sum() + np.sum((y_s - fitted[idx]) / pi))


def check_totals(name: str, got, want, rtol: float = TOTAL_RTOL) -> None:
    """Each logged replicate total against its recomputation."""
    for r, (g, w) in enumerate(zip(got, want), start=1):
        _close(float(g), float(w), rtol, f"{name} replicate {r}")


def check_paired(columns) -> None:
    """HT estimates are bit-identical across noise levels (samples are paired)."""
    first = columns[0]
    for other in columns[1:]:
        if not np.array_equal(first, other):
            raise CheckError("HT estimates differ across d_noise levels")


def check_row(row, estimates, t_y: float, mse_ht: float) -> None:
    """RB, MSE and RE of one report row from its own replicate estimates."""
    ok = estimates[np.isfinite(estimates)]
    if ok.size != row.r:
        raise CheckError(f"{row.method}@{row.d_noise}: r={row.r} but {ok.size} finite estimates")
    dev = ok - t_y
    _close(row.rb_percent, 100.0 * math.fsum(dev) / ok.size / t_y, 1e-9, f"{row.method}@{row.d_noise} RB")
    _close(row.mse, math.fsum(dev * dev) / ok.size, 1e-9, f"{row.method}@{row.d_noise} MSE")
    _close(row.re_percent, 100.0 * row.mse / mse_ht, 1e-9, f"{row.method}@{row.d_noise} RE")


def srswor_variance(y, n: int) -> float:
    n_pop = len(y)
    return n_pop**2 * (1.0 - n / n_pop) * float(np.var(y, ddof=1)) / n


def stratified_variance(y, strata, alloc) -> float:
    total = 0.0
    for h, n_h in enumerate(alloc, start=1):
        y_h = y[strata == h]
        total += y_h.size**2 * (1.0 - n_h / y_h.size) * float(np.var(y_h, ddof=1)) / n_h
    return total


def check_ht_mse(mse: float, variance: float, r: int) -> None:
    """HT is unbiased, so its Monte Carlo MSE estimates the design variance.

    For near-normal totals the MSE of R replicates has standard error
    ``V * sqrt(2 / R)``.
    """
    half = Z * variance * math.sqrt(2.0 / r)
    if abs(mse - variance) > half:
        raise CheckError(f"HT MSE {mse:.6g} outside {variance:.6g} +- {half:.6g} (R={r})")


def check_rb(row, t_y: float) -> None:
    """|RB| within Z Monte Carlo standard errors, bounded by sqrt(MSE / r)."""
    bound = 100.0 * Z * math.sqrt(row.mse / row.r) / abs(t_y)
    if abs(row.rb_percent) > bound:
        raise CheckError(f"{row.method}@{row.d_noise}: |RB| {abs(row.rb_percent):.4g}% > {bound:.4g}%")


def kkt_violation(x_s, y_s, pi, coef, intercept, lam: float, alpha: float) -> float:
    """Largest KKT violation of a design-weighted elastic net, per unit of weight.

    The problem is ``0.5 sum d (y - b0 - u b)^2 + lam alpha |b|_1 +
    0.5 lam (1 - alpha) |b|^2`` over columns u standardized with
    design-weighted moments; ``coef`` is on raw columns.  For an active j the
    stationarity residual is ``g_j - lam (1 - alpha) b_j - lam alpha sign(b_j)``
    and for an inactive j ``max(|g_j| - lam alpha, 0)``, with ``g = u' d r``.
    """
    d = 1.0 / np.asarray(pi)
    x_s = np.asarray(x_s, dtype=float)
    w = d / d.sum()
    mean = x_s.T @ w
    sd = np.sqrt(((x_s - mean) ** 2).T @ w)
    kept = sd > 1e-13 * np.maximum(np.abs(mean), 1.0)
    coef = np.asarray(coef, dtype=float)
    if np.any(coef[~kept] != 0):
        raise CheckError("constant column has a nonzero coefficient")
    u = (x_s[:, kept] - mean[kept]) / sd[kept]
    b = coef[kept] * sd[kept]
    resid = y_s - intercept - x_s @ coef
    g = u.T @ (d * resid)
    active = b != 0
    viol = np.where(
        active,
        np.abs(g - lam * (1 - alpha) * b - lam * alpha * np.sign(b)),
        np.maximum(np.abs(g) - lam * alpha, 0.0),
    )
    # The unpenalized intercept is optimal when the weighted residuals sum to 0.
    return max(float(viol.max(initial=0.0)), abs(float(d @ resid))) / float(d.sum())


def check_kkt(name: str, violation: float, n_features: int) -> None:
    """A converged descent leaves each gradient entry off by at most p * tol per unit weight."""
    limit = n_features * CD_TOL
    if violation > limit:
        raise CheckError(f"{name}: KKT violation {violation:.3g} > {limit:.3g}")


def tree_predict(tree, x) -> np.ndarray:
    """Leaf value per row, walking ``feature``/``threshold``/``left``/``right`` nodes."""
    out = np.empty(x.shape[0])
    stack = [(tree, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if hasattr(node, "beta"):
            out[rows] = node.beta
        else:
            left = x[rows, node.feature] < node.threshold
            stack.append((node.left, rows[left]))
            stack.append((node.right, rows[~left]))
    return out


def forest_tree_totals(trees, x_pop, idx, y_s, pi) -> np.ndarray:
    """Model-assisted total of each tree on its own."""
    totals = []
    for tree in trees:
        fitted = tree_predict(tree, x_pop)
        totals.append(fitted.sum() + np.sum((y_s - fitted[idx]) / pi))
    return np.array(totals)


def knn_total(x_pop, idx, y_s, pi, k: int) -> float:
    """Brute-force kNN model-assisted total: explicit differences, stable ties."""
    x_pop = np.asarray(x_pop, dtype=float)
    d = 1.0 / np.asarray(pi)
    w = d / d.sum()
    x_s = x_pop[idx]
    mean = x_s.T @ w
    sd = np.sqrt(((x_s - mean) ** 2).T @ w)
    kept = sd > 1e-13 * np.maximum(np.abs(mean), 1.0)
    train = (x_s[:, kept] - mean[kept]) / sd[kept]
    queries = (x_pop[:, kept] - mean[kept]) / sd[kept]
    fitted = np.empty(x_pop.shape[0])
    for i, q in enumerate(queries):
        dist = ((train - q) ** 2).sum(axis=1)
        fitted[i] = y_s[np.argsort(dist, kind="stable")[:k]].mean()
    return float(fitted.sum() + np.sum(d * (y_s - fitted[idx])))
