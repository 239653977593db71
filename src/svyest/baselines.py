"""Comparison predictors: k-nearest neighbours and principal-component regression."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .estimators import FittedPredictor, _check_sample_xy, fit_greg
from .penalized import Standardization
from .sampling import DrawnSample

#: Component-count rules: floor of p to the named power.
PCR_RULES = {"P14": 0.25, "P24": 0.5, "P34": 0.75}


@dataclass(frozen=True)
class PcrSpec:
    """How many principal components to keep: a count, or a power rule."""

    n_components: int | None = None
    rule: str | None = None

    def __post_init__(self):
        if (self.n_components is None) == (self.rule is None):
            raise ParameterError("give exactly one of n_components or rule")
        if self.n_components is not None and self.n_components < 1:
            raise ParameterError("n_components must be at least 1")
        if self.rule is not None and self.rule not in PCR_RULES:
            raise ParameterError(f"'rule' must be one of {', '.join(PCR_RULES)}, not {self.rule!r}")

    def resolve(self, n_features: int) -> int:
        if self.n_components is not None:
            return self.n_components
        return max(1, math.floor(n_features ** PCR_RULES[self.rule]))


def fit_knn(
    sample: DrawnSample,
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    *,
    weighted: bool = False,
) -> FittedPredictor:
    """Nearest-neighbour mean on design-weighted standardized columns.

    Distances are Euclidean; ties break to the lower sample index.  The
    neighbours of a query are its k smallest squared distances in
    (distance, index) order, exactly the first k columns of a stable
    argsort, which is also the order their mean is summed in.  They are
    found by partial selection; only a query with distances tied at the
    k-th boundary is fully sorted.  The neighbour mean is unweighted unless
    ``weighted`` switches it to the design-weighted mean.
    """
    x, y = _check_sample_xy(sample, x, y)
    if not 1 <= k <= sample.n:
        raise ParameterError(f"need 1 <= k <= {sample.n}, got {k}")
    std = Standardization.fit(x, sample.weights)
    train = std.transform(x)
    train_sq = np.einsum("ij,ij->i", train, train)
    d = sample.weights

    def predict(xnew: np.ndarray) -> np.ndarray:
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        queries = std.transform(xnew)
        # |q|^2 - 2 q.t + |t|^2 in place; each step rounds as the plain
        # expression does.
        sq_dist = queries @ train.T
        sq_dist *= -2.0
        sq_dist += np.einsum("ij,ij->i", queries, queries)[:, None]
        sq_dist += train_sq
        # The k nearest in (distance, index) order, as a stable argsort's
        # first k columns: partial selection, then a sort of the k picked.
        # A row whose count of distances at or below its k-th is not k (a
        # tie at the boundary, or NaN) takes the stable argsort itself.
        picked = np.argpartition(sq_dist, k - 1, axis=1)[:, :k]
        picked_dist = np.take_along_axis(sq_dist, picked, axis=1)
        order = np.lexsort((picked, picked_dist), axis=1)
        nearest = np.take_along_axis(picked, order, axis=1)
        tied = np.count_nonzero(sq_dist <= picked_dist.max(axis=1)[:, None], axis=1) != k
        if tied.any():
            nearest[tied] = np.argsort(sq_dist[tied], axis=1, kind="stable")[:, :k]
        if weighted:
            w = d[nearest]
            return np.einsum("ij,ij->i", w, y[nearest]) / w.sum(axis=1)
        return y[nearest].mean(axis=1)

    return FittedPredictor(
        method="knn",
        predict=predict,
        params={"k": k, "standardization": std},
        diagnostics={"k": float(k)},
    )


def fit_pcr(sample: DrawnSample, x: np.ndarray, y: np.ndarray, spec: PcrSpec) -> FittedPredictor:
    """Regression on leading principal components of the weighted second moment.

    Columns are standardized with design weights; directions come from the
    eigendecomposition of the weighted second-moment matrix of the sample in
    descending eigenvalue order, each direction's largest-magnitude entry made
    positive.  Scores plus an intercept go through the weighted least-squares
    fit, and queries pass through the identical transform.
    """
    x, y = _check_sample_xy(sample, x, y)
    d = sample.weights
    std = Standardization.fit(x, d)
    u = std.transform(x)
    moment = u.T @ (u * d[:, None])
    evals, evecs = np.linalg.eigh(moment)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    rank = int(np.count_nonzero(evals > max(evals[0], 0.0) * 1e-12)) if evals.size else 0
    n_comp = spec.resolve(x.shape[1])
    if n_comp > rank:
        raise ParameterError(f"requested {n_comp} components but numeric rank is {rank}")
    directions = evecs[:, :n_comp].copy()
    for j in range(n_comp):
        lead = np.argmax(np.abs(directions[:, j]))
        if directions[lead, j] < 0:
            directions[:, j] = -directions[:, j]
    scores = u @ directions
    inner = fit_greg(sample, scores, y, intercept=True)

    def predict(xnew: np.ndarray) -> np.ndarray:
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        return inner.predict(std.transform(xnew) @ directions)

    return FittedPredictor(
        method="pcr",
        predict=predict,
        params={
            "directions": directions,
            "standardization": std,
            "regression": inner,
            "eigenvalues": evals[:n_comp].copy(),
        },
        diagnostics={"n_components": float(n_comp), "rank": float(rank)},
    )
