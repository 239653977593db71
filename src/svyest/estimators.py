"""Horvitz-Thompson, the generic model-assisted wrapper, and the GREG estimator."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import ParameterError, PredictorError, SingularMatrixError
from .population import FinitePopulation, array_eq
from .sampling import DrawnSample

#: Relative condition number above which weighted Gram matrices are rejected.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FittedPredictor:
    """A fitted regression surface with a uniform prediction interface.

    ``predict`` maps an m x p matrix to an m-vector of predictions; ``params``
    holds the method-specific fitted payload and ``diagnostics`` scalar fit
    facts (condition numbers, sweep counts, effective penalties, ...).
    """

    method: str
    predict: Callable[[np.ndarray], np.ndarray]
    params: Mapping[str, Any] = field(default_factory=dict)
    diagnostics: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class LinearPredictor:
    """The linear surface ``intercept + x @ coef``; plain values, so it pickles."""

    coef: np.ndarray
    intercept: float = 0.0

    __eq__ = array_eq

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + np.atleast_2d(np.asarray(x, dtype=float)) @ self.coef


@dataclass(frozen=True)
class MAEstimate:
    """A point estimate of the population total with fit diagnostics."""

    t_hat: float
    method: str
    n_used: int
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.t_hat):
            raise ParameterError(f"estimate for {self.method!r} is not finite")


def horvitz_thompson(sample: DrawnSample, y: np.ndarray) -> MAEstimate:
    """Expansion estimator: the design-weighted sample sum of y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (sample.n,):
        raise ParameterError("y must hold one value per sampled unit")
    t_hat = float(np.sum(y * sample.weights))
    return MAEstimate(t_hat=t_hat, method="ht", n_used=sample.n)


def model_assisted(
    sample: DrawnSample,
    pop: FinitePopulation,
    predictor: FittedPredictor,
    columns: Sequence[int] | None = None,
) -> MAEstimate:
    """Population sum of predictions plus the design-weighted residual sum.

    With a zero predictor this reduces to Horvitz-Thompson; with a perfect
    predictor the correction vanishes and the estimate equals the true total.
    ``columns`` restricts the auxiliary matrix to the view the predictor was
    fitted on.
    """
    if pop.y is None:
        raise ParameterError("population has no survey variable")
    xw = pop.x if columns is None else pop.x[:, list(columns)]
    fitted = np.asarray(predictor.predict(xw), dtype=float)
    if fitted.shape != (pop.n_units,):
        raise PredictorError(
            f"{predictor.method!r} returned {fitted.shape} predictions for {pop.n_units} units"
        )
    bad = np.flatnonzero(~np.isfinite(fitted))
    if bad.size:
        raise PredictorError(f"{predictor.method!r} prediction for unit {bad[0]} is not finite")
    fit_total = float(fitted.sum())
    correction = float(np.sum((pop.y[sample.indices] - fitted[sample.indices]) * sample.weights))
    return MAEstimate(
        t_hat=fit_total + correction,
        method=predictor.method,
        n_used=sample.n,
        diagnostics={"fit_total": fit_total, "sample_correction": correction},
    )


def _check_sample_xy(sample: DrawnSample, x: np.ndarray, y: np.ndarray):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] != sample.n or y.shape != (sample.n,):
        raise ParameterError("x and y must be aligned with the sample")
    return x, y


def _weighted_gram(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    return x.T @ (x * d[:, None])


def _guard_condition(gram: np.ndarray, context: str) -> float:
    eigenvalues = np.linalg.eigvalsh(gram)
    smallest, largest = float(eigenvalues[0]), float(eigenvalues[-1])
    if largest <= 0 or smallest <= largest / CONDITION_LIMIT:
        raise SingularMatrixError(
            f"{context}: weighted Gram matrix is rank deficient "
            f"(relative condition beyond {CONDITION_LIMIT:g}); consider a ridge penalty"
        )
    return largest / smallest


def fit_greg(
    sample: DrawnSample,
    x: np.ndarray,
    y: np.ndarray,
    intercept: bool = True,
) -> FittedPredictor:
    """Design-weighted least squares for a linear working model.

    Solves the weighted normal equations with weights 1 / pi; an intercept
    column is prepended when flagged and is never standardised.
    """
    x, y = _check_sample_xy(sample, x, y)
    design = np.column_stack([np.ones(sample.n), x]) if intercept else x
    d = sample.weights
    gram = _weighted_gram(design, d)
    cond = _guard_condition(gram, "fit_greg")
    beta = np.linalg.solve(gram, design.T @ (d * y))

    if intercept:
        intercept_term, slopes = float(beta[0]), beta[1:]
    else:
        intercept_term, slopes = 0.0, beta

    return FittedPredictor(
        method="greg",
        predict=LinearPredictor(slopes, intercept_term),
        params={"beta": beta, "coef": slopes, "intercept": intercept_term if intercept else None},
        diagnostics={"cond": cond, "n_features": float(x.shape[1])},
    )


def greg_weights(sample: DrawnSample, x: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Calibration weights reproducing the GREG total as a weighted y-sum.

    The weights satisfy the calibration constraints: their x-weighted sum over
    the sample equals the population column totals ``tx`` exactly.  Intercept
    handling is the caller's: prepend a ones column to x and the population
    size to tx.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    tx = np.asarray(tx, dtype=float)
    if x.shape[0] != sample.n:
        raise ParameterError("x must be aligned with the sample")
    if tx.shape != (x.shape[1],):
        raise ParameterError("tx must hold one total per column of x")
    d = sample.weights
    gram = _weighted_gram(x, d)
    _guard_condition(gram, "greg_weights")
    gap = tx - x.T @ d
    adjustment = np.linalg.solve(gram, gap)
    return d * (1.0 + x @ adjustment)
