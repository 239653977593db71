import numpy as np
import pytest

from svyest import (
    DrawnSample,
    FinitePopulation,
    Leaf,
    ParameterError,
    Split,
    StratifiedSrs,
    best_split,
    draw,
    fit_forest,
    grow_tree,
    leaves,
    model_assisted,
    predict_tree,
    substream,
    tree_ma_estimate,
    tree_predictor,
)
from svyest import trees


def _brute_force_split(units, x, y, features, min_leaf):
    """Independent oracle: evaluate the criterion at every feasible (l, z)."""
    best = None
    best_gain = 0.0
    node_y = y[units]
    m = len(units)
    mean_all = node_y.mean()
    base = float(((node_y - mean_all) ** 2).sum())
    for feature in sorted(features):
        values = np.unique(x[units, feature])
        for lo, hi in zip(values[:-1], values[1:]):
            z = 0.5 * (lo + hi)
            left = x[units, feature] < z
            if left.sum() < min_leaf or (~left).sum() < min_leaf:
                continue
            fit = np.where(left, node_y[left].mean() if left.any() else 0.0, node_y[~left].mean())
            gain = (base - float(((node_y - fit) ** 2).sum())) / m
            if gain > best_gain + 1e-12:
                best = (feature, z)
                best_gain = gain
    return best, best_gain


def _loop_split(node_units, x, y, candidate_features, min_leaf=1):
    """Reference: the per-feature loop ``best_split`` replaced, one sort per feature."""
    units = np.asarray(node_units, dtype=int)
    m = units.size
    if m < 2 * min_leaf:
        return None
    node_y = y[units]
    total = float(node_y.sum())
    gain_floor = 1e-12 * float(node_y @ node_y) / m
    sizes = np.arange(min_leaf, m - min_leaf + 1, dtype=float)
    best = None
    best_gain = 0.0
    for feature in sorted(int(f) for f in candidate_features):
        values = x[units, feature]
        order = np.argsort(values, kind="stable")
        v_sorted = values[order]
        cum = np.cumsum(node_y[order])
        left_at = np.arange(min_leaf, m - min_leaf + 1)
        distinct = v_sorted[left_at - 1] < v_sorted[left_at]
        if not distinct.any():
            continue
        left_n = sizes[distinct]
        left_sum = cum[left_at[distinct] - 1]
        gains = (left_sum**2 / left_n + (total - left_sum) ** 2 / (m - left_n) - total**2 / m) / m
        pick = int(np.argmax(gains))
        gain = float(gains[pick])
        if gain > best_gain and gain > gain_floor:
            cut = left_at[distinct][pick]
            best = (feature, float(0.5 * (v_sorted[cut - 1] + v_sorted[cut])))
            best_gain = gain
    return best


def _random_node(rng):
    """A node with the ties, degenerate columns and candidate lists trees meet."""
    n = int(rng.integers(2, 60))
    p = int(rng.integers(1, 9))
    x = rng.normal(0.0, 1.0, (n, p))
    if rng.random() < 0.4:
        x = np.round(x * rng.integers(1, 4))  # few distinct values: tied x
    y = x[:, 0] + rng.normal(0.0, 1.0, n)
    if rng.random() < 0.2:
        y = np.round(y)
    if rng.random() < 0.5:
        take = rng.choice(n, size=n, replace=True)  # bootstrap duplicates
        x, y = x[take], y[take]
    if p > 1 and rng.random() < 0.4:
        x[:, rng.integers(1, p)] = x[:, 0]  # identical columns: tied gains
    if rng.random() < 0.3:
        x[:, rng.integers(0, p)] = 2.5  # constant column
    if p > 1 and rng.random() < 0.3:
        # column 1 ranks column 0 with ties broken by row, so the two tie
        # exactly only if column 0's tied units are summed in row order
        x[:, 0] = rng.integers(0, 3, n)
        x[:, 1] = np.argsort(np.argsort(x[:, 0], kind="stable"), kind="stable")
        y = 10.0 * x[:, 0] + rng.choice([0.1, 0.2, 0.3, 0.7], n)
    min_leaf = int(rng.integers(1, 6))
    m = int(rng.choice([2 * min_leaf - 1, 2 * min_leaf, rng.integers(0, n + 1)]))
    units = rng.choice(n, size=min(m, n), replace=False)
    if rng.random() < 0.7:
        units = np.sort(units)
    kind = rng.integers(0, 5)
    if kind == 0:
        candidates = range(p)
    elif kind == 1:
        candidates = list(rng.permutation(p)[: rng.integers(1, p + 1)])
    elif kind == 2:
        candidates = [int(f) for f in rng.integers(0, p, size=rng.integers(1, 2 * p + 1))]
    elif kind == 3:
        candidates = []
    else:
        candidates = np.sort(rng.choice(p, size=rng.integers(1, p + 1), replace=False))
    return units, x, y, candidates, min_leaf


def _sample(n, seed, lo=0.2, hi=0.9):
    pi = substream(seed, 77).uniform(lo, hi, n)
    return DrawnSample(indices=np.arange(n), pi=pi)


class TestBestSplit:
    def test_pure_threshold_split(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = (x[:, 0] >= 0).astype(float)
        found = best_split(np.arange(4), x, y, [0], min_leaf=1)
        assert found == (0, 0.0)

    def test_constant_y_gives_none(self):
        x = np.arange(10.0).reshape(-1, 1)
        y = np.full(10, 3.3)
        assert best_split(np.arange(10), x, y, [0], min_leaf=1) is None

    def test_picks_the_informative_feature(self):
        rng = substream(5)
        x = rng.normal(0.0, 1.0, (40, 2))
        y = 2.0 * (x[:, 1] > 0.3)
        found = best_split(np.arange(40), x, y, [0, 1], min_leaf=2)
        assert found is not None
        assert found[0] == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = substream(seed, 13)
        n = rng.integers(12, 40)
        x = rng.normal(0.0, 1.0, (n, 3))
        y = x[:, 0] * 1.5 + np.sin(x[:, 2]) + rng.normal(0.0, 0.5, n)
        units = np.arange(n)
        got = best_split(units, x, y, [0, 1, 2], min_leaf=3)
        expected, gain = _brute_force_split(units, x, y, [0, 1, 2], 3)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == expected[0]
            assert got[1] == pytest.approx(expected[1], rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_feature_loop_exactly(self, seed):
        rng = substream(seed, 17)
        found = 0
        for _ in range(100):
            units, x, y, candidates, min_leaf = _random_node(rng)
            got = best_split(units, x, y, candidates, min_leaf)
            expected = _loop_split(units, x, y, candidates, min_leaf)
            assert got == expected
            if got is not None:
                assert type(got[0]) is int and type(got[1]) is float
                found += 1
        assert found >= 25

    def test_infeasible_node_gives_none(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0])
        assert best_split(np.arange(3), x, y, [0], min_leaf=2) is None

    def test_tie_breaks_to_lowest_feature(self):
        # identical columns: both features split equally well
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        found = best_split(np.arange(4), x, y, [1, 0], min_leaf=1)
        assert found == (0, 1.5)


class TestGrowTree:
    def test_single_leaf_is_weighted_mean(self):
        rng = substream(6)
        n = 9
        y = rng.normal(0.0, 1.0, n)
        s = _sample(n, seed=6)
        tree = grow_tree(s, rng.normal(0.0, 1.0, (n, 2)), y, min_leaf=n)
        assert isinstance(tree, Leaf)
        hajek = float(np.sum(y / s.pi) / np.sum(1.0 / s.pi))
        assert tree.beta == pytest.approx(hajek, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_leaf_counts_within_discipline(self, seed):
        rng = substream(seed, 21)
        n = 120
        x = rng.normal(0.0, 1.0, (n, 3))
        y = x[:, 0] + rng.normal(0.0, 0.3, n)
        tree = grow_tree(_sample(n, seed), x, y, min_leaf=5)
        counts = [leaf.count for leaf in leaves(tree)]
        assert sum(counts) == n
        assert all(5 <= c <= 9 for c in counts)

    def test_deterministic_without_feature_sampling(self):
        rng = substream(7)
        x = rng.normal(0.0, 1.0, (60, 3))
        y = rng.normal(0.0, 1.0, 60)
        s = _sample(60, seed=7)
        assert grow_tree(s, x, y, 5) == grow_tree(s, x, y, 5)

    def test_partition_covers_all_reals(self):
        rng = substream(8)
        x = rng.normal(0.0, 1.0, (80, 2))
        y = x[:, 0] * x[:, 1] + rng.normal(0.0, 0.2, 80)
        tree = grow_tree(_sample(80, seed=8), x, y, 4)
        probes = np.array([[1e9, -1e9], [-1e9, 1e9], [0.0, 0.0], [np.pi, -np.e]])
        predictions = predict_tree(tree, probes)
        betas = {leaf.beta for leaf in leaves(tree)}
        assert np.all(np.isfinite(predictions))
        assert all(p in betas for p in predictions)

    def test_empty_sample_rejected(self):
        s = _sample(4, seed=9)
        with pytest.raises(ParameterError):
            grow_tree(s, np.empty((4, 1)), np.zeros(4), min_leaf=5)


class TestTreeMaEstimate:
    def _population(self, seed, n_pop=240):
        rng = substream(seed, 31)
        x = rng.normal(0.0, 1.5, (n_pop, 3))
        y = np.abs(x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0.0, 0.4, n_pop)
        strata = np.where(np.arange(n_pop) < n_pop // 3, 1, 2)
        return FinitePopulation(ids=np.arange(1, n_pop + 1), x=x, y=y, strata=np.sort(strata))

    def test_single_leaf_is_expansion_estimator(self):
        pop = self._population(1)
        s = draw(StratifiedSrs(n=60), pop, substream(1, 2))
        tree = grow_tree(s, pop.x[s.indices], pop.y[s.indices], min_leaf=60)
        est = tree_ma_estimate(pop, s, tree)
        ys = pop.y[s.indices]
        hajek = float(np.sum(ys / s.pi) / np.sum(1.0 / s.pi))
        assert est.t_hat == pytest.approx(pop.n_units * hajek, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_projection_identity(self, seed):
        pop = self._population(seed + 2)
        s = draw(StratifiedSrs(n=72), pop, substream(seed, 3))
        tree = grow_tree(s, pop.x[s.indices], pop.y[s.indices], min_leaf=5)
        projection = tree_ma_estimate(pop, s, tree)
        generic = model_assisted(s, pop, tree_predictor(tree))
        assert projection.t_hat == pytest.approx(generic.t_hat, rel=1e-10)
        assert abs(projection.diagnostics["sample_correction"]) <= 1e-10 * abs(projection.t_hat)

    def test_post_stratified_estimator(self):
        # a tree whose leaves are exactly the strata reproduces the classical
        # post-stratified total: sum over strata of N_h times the Hajek mean
        rng = substream(40)
        n_pop = 200
        stratum = np.sort(np.where(np.arange(n_pop) < 80, 1, 2))
        # the stratum label is the only predictor, so no split below stratum
        # level is possible and the leaves are exactly the strata
        x = stratum.astype(float).reshape(-1, 1)
        y = np.where(stratum == 1, 10.0, 30.0) + rng.normal(0.0, 1.0, n_pop)
        pop = FinitePopulation(ids=np.arange(1, n_pop + 1), x=x, y=y, strata=stratum)
        s = draw(StratifiedSrs(n=50), pop, substream(41, 1))
        xs, ys = pop.x[s.indices], pop.y[s.indices]
        tree = grow_tree(s, xs, ys, min_leaf=10)
        assert isinstance(tree, Split)
        assert tree.feature == 0
        assert all(isinstance(child, Leaf) for child in (tree.left, tree.right))
        expected = 0.0
        for h in (1, 2):
            members = pop.strata == h
            in_h = pop.strata[s.indices] == h
            hajek = float(np.sum(ys[in_h] / s.pi[in_h]) / np.sum(1.0 / s.pi[in_h]))
            expected += members.sum() * hajek
        assert tree_ma_estimate(pop, s, tree).t_hat == pytest.approx(expected, rel=1e-10)


class TestForest:
    def _data(self, seed, n=90):
        rng = substream(seed, 51)
        x = rng.normal(0.0, 1.0, (n, 4))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2 + rng.normal(0.0, 0.3, n)
        return _sample(n, seed), x, y

    def test_degenerate_forest_equals_tree(self):
        s, x, y = self._data(1)
        forest = fit_forest(s, x, y, substream(1, 9), n_trees=1, min_leaf=5, n_split_features=4, bootstrap=False)
        tree = grow_tree(s, x, y, min_leaf=5)
        grid = substream(2, 9).normal(0.0, 1.0, (50, 4))
        assert np.array_equal(forest.predict(grid), predict_tree(tree, grid))

    def test_prediction_is_mean_of_trees(self):
        s, x, y = self._data(2)
        forest = fit_forest(s, x, y, substream(2, 11), n_trees=7, min_leaf=5)
        grid = substream(3, 11).normal(0.0, 1.0, (25, 4))
        stacked = np.vstack([predict_tree(t, grid) for t in forest.params["trees"]])
        assert np.allclose(forest.predict(grid), stacked.mean(axis=0), rtol=1e-12)
        assert np.all(forest.predict(grid) >= stacked.min(axis=0) - 1e-12)
        assert np.all(forest.predict(grid) <= stacked.max(axis=0) + 1e-12)

    def test_same_stream_same_forest(self):
        s, x, y = self._data(3)
        settings = dict(n_trees=4, min_leaf=6, n_split_features=2)
        a = fit_forest(s, x, y, substream(5, 1), **settings)
        b = fit_forest(s, x, y, substream(5, 1), **settings)
        grid = substream(6, 1).normal(0.0, 1.0, (30, 4))
        assert np.array_equal(a.predict(grid), b.predict(grid))

    @pytest.mark.parametrize("seed", range(3))
    def test_bagged_identity(self, seed):
        rng = substream(seed, 61)
        n_pop = 150
        x = rng.normal(0.0, 1.0, (n_pop, 3))
        y = x[:, 0] ** 2 + rng.normal(0.0, 0.5, n_pop)
        pop = FinitePopulation(ids=np.arange(1, n_pop + 1), x=x, y=y)
        s = DrawnSample(indices=np.arange(0, n_pop, 3), pi=np.full(50, 1 / 3))
        forest = fit_forest(
            s, pop.x[s.indices], pop.y[s.indices], substream(seed, 8), n_trees=5, min_leaf=5, n_split_features=2
        )
        whole = model_assisted(s, pop, forest)
        per_tree = [
            model_assisted(s, pop, tree_predictor(tree)).t_hat for tree in forest.params["trees"]
        ]
        assert whole.t_hat == pytest.approx(np.mean(per_tree), rel=1e-10)

    def test_constant_y_gives_exact_total(self):
        rng = substream(9)
        n_pop = 60
        x = rng.normal(0.0, 1.0, (n_pop, 2))
        y = np.full(n_pop, 4.2)
        pop = FinitePopulation(ids=np.arange(1, n_pop + 1), x=x, y=y)
        s = DrawnSample(indices=np.arange(0, 60, 2), pi=np.full(30, 0.5))
        forest = fit_forest(s, pop.x[s.indices], pop.y[s.indices], substream(9, 2), n_trees=3, min_leaf=4)
        assert model_assisted(s, pop, forest).t_hat == pytest.approx(n_pop * 4.2, rel=1e-12)

    def test_forced_features_always_candidates(self):
        # y depends only on the last feature; with one random candidate per
        # split, forcing it guarantees the root splits on it
        rng = substream(10)
        n = 80
        x = rng.normal(0.0, 1.0, (n, 6))
        y = 5.0 * (x[:, 5] > 0)
        s = _sample(n, seed=10)
        forest = fit_forest(
            s, x, y, substream(10, 3), n_trees=10, min_leaf=5, n_split_features=1, forced_features=(5,), bootstrap=False
        )
        for tree in forest.params["trees"]:
            assert isinstance(tree, Split)
            assert tree.feature == 5

    def test_bagged_forest_equals_per_feature_loop(self, monkeypatch):
        rng = substream(12, 51)
        n = 90
        x = np.round(rng.normal(0.0, 1.0, (n, 7)) * 2.0)
        x[:, 6] = x[:, 1]
        y = np.abs(x[:, 0]) + x[:, 1] + rng.normal(0.0, 0.5, n)
        s = _sample(n, seed=12)
        settings = dict(n_trees=6, min_leaf=3, n_split_features=2, forced_features=(4,), weighted_bootstrap=True)
        vectorised = fit_forest(s, x, y, substream(12, 3), **settings).params["trees"]
        monkeypatch.setattr(trees, "best_split", _loop_split)
        looped = fit_forest(s, x, y, substream(12, 3), **settings).params["trees"]
        assert vectorised == looped
        assert any(isinstance(tree, Split) for tree in looped)

    @pytest.mark.parametrize("forced", [(9,), (-1,), (2, 6), (2.5,), ("5",)])
    def test_forced_features_out_of_range_rejected(self, forced):
        s, x, y = self._data(5)
        x = np.hstack([x, x[:, :2]])
        with pytest.raises(ParameterError, match=r"forced_features.*\[0, 6\)"):
            fit_forest(s, x, y, substream(5, 1), n_trees=2, min_leaf=5, n_split_features=2, forced_features=forced)
        with pytest.raises(ParameterError, match="forced_features"):
            grow_tree(s, x, y, 5, substream(5, 1), 2, forced)

    def test_keyword_validation(self):
        s, x, y = self._data(4)
        for settings, key in (
            ({"n_trees": 0}, "n_trees"),
            ({"n_trees": True}, "n_trees"),
            ({"min_leaf": 0}, "min_leaf"),
            ({"min_leaf": "n13_20"}, "min_leaf"),
            ({"n_split_features": 99}, "cannot sample 99"),
            ({"n_split_features": 0}, "n_split_features"),
            ({"n_split_features": None}, "n_split_features"),
            ({"n_split_features": "Sqrt"}, "n_split_features"),
        ):
            with pytest.raises(ParameterError, match=key):
                fit_forest(s, x, y, substream(1), **settings)

    @pytest.mark.parametrize(
        "key, name, count",
        [
            ("n_split_features", "third", 2),
            ("n_split_features", "all", 7),
            ("n_split_features", "sqrt", 2),
            ("min_leaf", "n_13_20", 19),
        ],
    )
    def test_named_values_equal_their_counts(self, key, name, count):
        # 90 units and 7 features: p // 3 = 2, floor(sqrt(7)) = 2, ceil(90^(13/20)) = 19
        s, x, y = self._data(6)
        x = np.hstack([x, x[:, :3] ** 2])
        base = {"n_trees": 3, "min_leaf": 4, "n_split_features": 3}
        by_name = fit_forest(s, x, y, substream(6, 2), **{**base, key: name})
        by_count = fit_forest(s, x, y, substream(6, 2), **{**base, key: count})
        assert by_name.params["trees"] == by_count.params["trees"]
        assert by_name.diagnostics == by_count.diagnostics
        assert any(isinstance(tree, Split) for tree in by_name.params["trees"])
