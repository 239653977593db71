"""Design-weighted regression trees and random forests.

Splits maximise the unweighted variance-reduction criterion over candidate
features and midpoints of consecutive distinct values; ties break to the
lowest feature, then the smallest threshold.  A node's split search is one
stable sort of its unit x feature block along the unit axis, one cumulative
sum of y in that order and one argmax over the (cut x feature) gains.  Leaf
coefficients are design-weighted means.  Every leaf holds between
``min_leaf`` and ``2 * min_leaf - 1`` units unless a node admits no
positive-gain split, which is logged as a discipline exception rather than
raised.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ParameterError
from .estimators import FittedPredictor, MAEstimate
from .population import FinitePopulation
from .sampling import DrawnSample

logger = logging.getLogger(__name__)

#: Relative floor under which a split gain is treated as zero (guards
#: against accepting rounding noise on constant-y nodes).
_GAIN_FLOOR = 1e-12


@dataclass(frozen=True)
class Leaf:
    """A terminal region: its id, design-weighted mean, and unit count."""

    region: int
    beta: float
    count: int


@dataclass(frozen=True)
class Split:
    """An internal node: units go left when ``x[feature] < threshold``."""

    feature: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class ForestSpec:
    """Random-forest controls.

    ``n_split_features=None`` means floor(sqrt(p)) at fit time;
    ``forced_features`` are always added to each split's candidate set.
    ``weighted_bootstrap`` resamples with probability proportional to the
    design weights instead of uniformly.
    """

    n_trees: int = 1000
    min_leaf: int = 5
    n_split_features: int | None = None
    bootstrap: bool = True
    forced_features: tuple[int, ...] = ()
    weighted_bootstrap: bool = False

    def __post_init__(self):
        if self.n_trees < 1:
            raise ParameterError("need at least 1 tree")
        if self.min_leaf < 1:
            raise ParameterError("min_leaf must be at least 1")
        if self.n_split_features is not None and self.n_split_features < 1:
            raise ParameterError("n_split_features must be at least 1")


def best_split(
    node_units: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    candidate_features: Sequence[int],
    min_leaf: int = 1,
) -> tuple[int, float] | None:
    """Best (feature, threshold) by variance reduction, or None.

    Thresholds are midpoints of consecutive distinct sorted values; a split is
    admissible only when both children keep at least ``min_leaf`` units.  Ties
    break to the lowest feature index, then the smallest threshold.  Returns
    None when no admissible split has positive gain.
    """
    if min_leaf < 1:
        raise ParameterError("min_leaf must be at least 1")
    units = np.asarray(node_units, dtype=int)
    m = units.size
    features = np.unique(np.asarray(candidate_features, dtype=int))
    if m < 2 * min_leaf or features.size == 0:
        return None
    node_y = y[units]
    total = float(node_y.sum())
    gain_floor = _GAIN_FLOOR * float(node_y @ node_y) / m
    # one stable column sort orders each feature exactly as a 1-D sort would,
    # and cumsum adds in the same sequence, so every gain is the same float
    block = x[np.ix_(units, features)]
    order = np.argsort(block, axis=0, kind="stable")
    v_sorted = np.take_along_axis(block, order, axis=0)
    cum = np.cumsum(node_y[order], axis=0)
    # row c of the (cut x feature) arrays puts the first min_leaf + c units left
    lo, hi = min_leaf - 1, m - min_leaf
    left_n = np.arange(min_leaf, m - min_leaf + 1, dtype=float)[:, None]
    left_sum = cum[lo:hi]
    gains = (left_sum**2 / left_n + (total - left_sum) ** 2 / (m - left_n) - total**2 / m) / m
    # a cut must fall between distinct values; not-less (not >=) also drops NaN
    gains[~(v_sorted[lo:hi] < v_sorted[lo + 1 : hi + 1])] = -np.inf
    # feature-major flat argmax: lowest feature first, then smallest threshold
    column, row = divmod(int(np.argmax(gains.T)), gains.shape[0])
    gain = float(gains[row, column])
    if not (gain > 0.0 and gain > gain_floor):
        return None
    cut = min_leaf + row
    return int(features[column]), float(0.5 * (v_sorted[cut - 1, column] + v_sorted[cut, column]))


def _check_forced(forced, p):
    if not all(isinstance(f, (int, np.integer)) and 0 <= f < p for f in forced):
        raise ParameterError(f"forced_features {tuple(forced)} must be integers in [0, {p})")


def _draw_candidates(p, n_split_features, forced, rng):
    if n_split_features is None or n_split_features >= p:
        return range(p)
    drawn = rng.choice(p, size=n_split_features, replace=False)
    if forced:
        return np.union1d(drawn, np.asarray(forced, dtype=int))
    return drawn


def _grow(x, y, pi, min_leaf, rng, n_split_features, forced):
    p = x.shape[1]
    d = 1.0 / pi
    counter = [0]
    oversized = [0]

    def build(units: np.ndarray) -> TreeNode:
        m = units.size
        if m >= 2 * min_leaf:
            candidates = _draw_candidates(p, n_split_features, forced, rng)
            found = best_split(units, x, y, candidates, min_leaf)
            if found is not None:
                feature, threshold = found
                goes_left = x[units, feature] < threshold
                return Split(
                    feature=feature,
                    threshold=threshold,
                    left=build(units[goes_left]),
                    right=build(units[~goes_left]),
                )
            oversized[0] += 1
        dw = d[units]
        beta = float((dw @ y[units]) / dw.sum())
        leaf = Leaf(region=counter[0], beta=beta, count=m)
        counter[0] += 1
        return leaf

    root = build(np.arange(x.shape[0]))
    if oversized[0]:
        logger.debug(
            "leaf-size discipline exception: %d node(s) of >= %d units admitted no positive-gain split",
            oversized[0],
            2 * min_leaf,
        )
    return root


def grow_tree(
    sample: DrawnSample,
    x: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    n_split_features: int | None = None,
    forced_features: Sequence[int] = (),
) -> TreeNode:
    """Grow a design-weighted regression tree on the sample data.

    Nodes with at least ``2 * min_leaf`` units are split while an admissible
    positive-gain split exists; with ``n_split_features`` set, each split
    searches a fresh random feature subset (plus ``forced_features``).
    Deterministic when all features are candidates.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] != sample.n or y.shape != (sample.n,):
        raise ParameterError("x and y must be aligned with the sample")
    if min_leaf < 1:
        raise ParameterError("min_leaf must be at least 1")
    if sample.n < min_leaf:
        raise ParameterError(f"sample of {sample.n} units cannot fill a leaf of {min_leaf}")
    if n_split_features is not None and rng is None:
        raise ParameterError("feature subsampling needs an rng")
    _check_forced(forced_features, x.shape[1])
    return _grow(x, y, sample.pi, min_leaf, rng, n_split_features, tuple(forced_features))


def predict_tree(tree: TreeNode, x: np.ndarray) -> np.ndarray:
    """Leaf coefficient reached by each row (thresholds extend over all reals)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(x.shape[0])
    stack = [(tree, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            out[idx] = node.beta
        else:
            goes_left = x[idx, node.feature] < node.threshold
            stack.append((node.left, idx[goes_left]))
            stack.append((node.right, idx[~goes_left]))
    return out


def leaves(tree: TreeNode) -> list[Leaf]:
    """All terminal nodes in region-id order."""
    found: list[Leaf] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            found.append(node)
        else:
            stack.extend((node.right, node.left))
    return sorted(found, key=lambda leaf: leaf.region)


def tree_predictor(tree: TreeNode) -> FittedPredictor:
    return FittedPredictor(
        method="tree",
        predict=lambda xnew: predict_tree(tree, xnew),
        params={"tree": tree},
        diagnostics={"n_leaves": float(len(leaves(tree)))},
    )


def tree_ma_estimate(
    pop: FinitePopulation,
    sample: DrawnSample,
    tree: TreeNode,
    columns: Sequence[int] | None = None,
) -> MAEstimate:
    """Projection-form total: the population sum of leaf coefficients.

    For a tree grown on the full design-weighted sample the residual
    correction is identically zero, so this equals the generic model-assisted
    estimate; the realised correction is reported as a diagnostic.
    """
    if pop.y is None:
        raise ParameterError("population has no survey variable")
    xw = pop.x if columns is None else pop.x[:, list(columns)]
    fitted = predict_tree(tree, xw)
    correction = float(np.sum((pop.y[sample.indices] - fitted[sample.indices]) * sample.weights))
    return MAEstimate(
        t_hat=float(fitted.sum()),
        method="tree",
        n_used=sample.n,
        diagnostics={"n_leaves": float(len(leaves(tree))), "sample_correction": correction},
    )


def fit_forest(
    sample: DrawnSample,
    x: np.ndarray,
    y: np.ndarray,
    spec: ForestSpec,
    rng: np.random.Generator,
) -> FittedPredictor:
    """Random forest: trees on bootstrap resamples, predictions averaged.

    Each resampled unit keeps its inclusion probability (duplicates contribute
    multiply to leaf means), and each split searches ``n_split_features``
    freshly drawn features plus any forced ones.  Tree b is built from spawned
    substream b, so the forest is reproducible given the stream.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] != sample.n or y.shape != (sample.n,):
        raise ParameterError("x and y must be aligned with the sample")
    p = x.shape[1]
    k = spec.n_split_features
    if k is None:
        k = max(1, int(np.floor(np.sqrt(p))))
    if k > p:
        raise ParameterError(f"cannot sample {k} features from {p}")
    _check_forced(spec.forced_features, p)
    n = sample.n
    d = sample.weights
    boot_p = d / d.sum() if spec.weighted_bootstrap else None
    trees = []
    for tree_rng in rng.spawn(spec.n_trees):
        if spec.bootstrap:
            take = tree_rng.choice(n, size=n, replace=True, p=boot_p)
            xb, yb, pib = x[take], y[take], sample.pi[take]
        else:
            xb, yb, pib = x, y, sample.pi
        trees.append(_grow(xb, yb, pib, spec.min_leaf, tree_rng, k if k < p else None, spec.forced_features))
    trees = tuple(trees)

    def predict(xnew: np.ndarray) -> np.ndarray:
        xnew = np.atleast_2d(np.asarray(xnew, dtype=float))
        acc = np.zeros(xnew.shape[0])
        for tree in trees:
            acc += predict_tree(tree, xnew)
        return acc / len(trees)

    return FittedPredictor(
        method="forest",
        predict=predict,
        params={"trees": trees, "spec": spec},
        diagnostics={"n_trees": float(spec.n_trees), "n_split_features": float(k)},
    )
