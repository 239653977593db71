import numpy as np
import pytest

from svyest import (
    DrawnSample,
    ParameterError,
    Standardization,
    fit_greg,
    fit_knn,
    fit_pcr,
    substream,
)


def _instance(seed, n=30, p=4):
    rng = substream(seed, 3)
    x = rng.normal(0.0, 1.0, (n, p))
    y = x @ rng.normal(0.0, 1.5, p) + rng.normal(0.0, 0.3, n)
    pi = rng.uniform(0.3, 0.9, n)
    return DrawnSample(indices=np.arange(n), pi=pi), x, y


class TestKnn:
    def test_one_neighbour_at_a_sample_point(self):
        s, x, y = _instance(1)
        fit = fit_knn(s, x, y, k=1)
        assert np.allclose(fit.predict(x), y)

    def test_k_equals_n_is_global_mean(self):
        s, x, y = _instance(2)
        fit = fit_knn(s, x, y, k=s.n)
        queries = substream(2, 9).normal(0.0, 5.0, (7, x.shape[1]))
        assert np.allclose(fit.predict(queries), y.mean())

    def test_tie_breaks_to_lower_index(self):
        # two training points equidistant from the origin query
        x = np.array([[1.0], [-1.0], [4.0], [-4.0]])
        y = np.array([10.0, 20.0, 30.0, 40.0])
        s = DrawnSample(indices=np.arange(4), pi=np.full(4, 0.5))
        fit = fit_knn(s, x, y, k=1)
        # exhaustive distance sort confirms rows 0 and 1 tie at the origin
        std = Standardization.fit(x, s.weights)
        u = std.transform(x).ravel()
        q = std.transform(np.array([[0.0]])).ravel()[0]
        dists = np.abs(u - q)
        assert dists[0] == dists[1] < dists[2]
        assert fit.predict(np.array([[0.0]]))[0] == 10.0

    def test_convex_combination_bounds(self):
        s, x, y = _instance(3)
        fit = fit_knn(s, x, y, k=4)
        queries = substream(3, 9).normal(0.0, 3.0, (40, x.shape[1]))
        predictions = fit.predict(queries)
        assert np.all(predictions >= y.min()) and np.all(predictions <= y.max())

    def test_weighted_mean_toggle(self):
        x = np.array([[0.0], [0.1]])
        y = np.array([0.0, 10.0])
        s = DrawnSample(indices=[0, 1], pi=[0.2, 0.8])
        fit = fit_knn(s, x, y, k=2, weighted=True)
        expected = (0.0 / 0.2 + 10.0 / 0.8) / (1 / 0.2 + 1 / 0.8)
        assert fit.predict(np.array([[0.05]]))[0] == pytest.approx(expected)

    @staticmethod
    def _argsort_reference(s, x, y, k, weighted, queries):
        """The predictor as a full stable argsort of every distance row, and
        the number of rows with distances tied at the k-th."""
        std = Standardization.fit(x, s.weights)
        train = std.transform(x)
        q = std.transform(queries)
        sq_dist = (
            np.einsum("ij,ij->i", q, q)[:, None]
            - 2.0 * q @ train.T
            + np.einsum("ij,ij->i", train, train)[None, :]
        )
        order = np.argsort(sq_dist, axis=1, kind="stable")
        kth = np.take_along_axis(sq_dist, order[:, k - 1 : k], axis=1)
        tied = int(np.count_nonzero((sq_dist <= kth).sum(axis=1) > k))
        nearest = order[:, :k]
        if weighted:
            w = s.weights[nearest]
            return np.einsum("ij,ij->i", w, y[nearest]) / w.sum(axis=1), tied
        return y[nearest].mean(axis=1), tied

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_partial_selection_equals_stable_argsort(self, seed, weighted):
        # integer-valued columns make many distances tie, at the k-th
        # boundary too; the neighbours and their summation order must be
        # the stable argsort's, so predictions agree to the byte
        rng = substream(seed, 11)
        n, p = 12 + 5 * seed, 1 + seed % 3
        x = rng.integers(0, 3, (n, p)).astype(float)
        y = rng.normal(0.0, 1.0, n)
        s = DrawnSample(indices=np.arange(n), pi=rng.uniform(0.2, 0.9, n))
        queries = rng.integers(-1, 4, (60, p)).astype(float)
        tied_rows = 0
        for k in (1, 5, n):
            expected, tied = self._argsort_reference(s, x, y, k, weighted, queries)
            got = fit_knn(s, x, y, k, weighted=weighted).predict(queries)
            assert got.tobytes() == expected.tobytes()
            tied_rows += tied
        assert tied_rows > 0

    @pytest.mark.parametrize("k", [0, 31])
    def test_k_out_of_range(self, k):
        s, x, y = _instance(4)
        with pytest.raises(ParameterError):
            fit_knn(s, x, y, k=k)


class TestFitPcr:
    def test_rules_resolve_by_power(self):
        s, x, y = _instance(4, n=150, p=672)
        for rule, count in (("P14", 5), ("P24", 25), ("P34", 131)):
            assert fit_pcr(s, x, y, rule=rule).diagnostics["n_components"] == count

    def test_neither_setting_keeps_one_component(self):
        s, x, y = _instance(3)
        default = fit_pcr(s, x, y)
        one = fit_pcr(s, x, y, n_components=1)
        assert default.diagnostics["n_components"] == 1
        assert np.array_equal(default.params["directions"], one.params["directions"])
        assert np.array_equal(default.predict(x), one.predict(x))

    def test_settings_checked(self):
        s, x, y = _instance(2)
        for settings, message in (
            ({"n_components": 2, "rule": "P14"}, "exclude"),
            ({"rule": "P44"}, "'rule'"),
            ({"n_components": 0}, "at least 1"),
        ):
            with pytest.raises(ParameterError, match=message):
                fit_pcr(s, x, y, **settings)

    def test_full_rank_equals_greg(self):
        s, x, y = _instance(5)
        pcr = fit_pcr(s, x, y, n_components=x.shape[1])
        greg = fit_greg(s, x, y, intercept=True)
        queries = substream(5, 9).normal(0.0, 1.0, (25, x.shape[1]))
        assert np.allclose(pcr.predict(queries), greg.predict(queries), atol=1e-6)

    def test_rank_one_matrix_single_component(self):
        rng = substream(6, 3)
        n = 24
        factor = rng.normal(0.0, 1.0, n)
        x = np.outer(factor, np.array([1.0, -2.0, 0.5]))
        y = 2.0 + 3.0 * factor + rng.normal(0.0, 0.1, n)
        s = DrawnSample(indices=np.arange(n), pi=rng.uniform(0.4, 0.9, n))
        pcr = fit_pcr(s, x, y, n_components=1)
        direct = fit_greg(s, factor.reshape(-1, 1), y, intercept=True)
        probe_factor = rng.normal(0.0, 1.0, 10)
        probes = np.outer(probe_factor, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(pcr.predict(probes), direct.predict(probe_factor.reshape(-1, 1)), atol=1e-8)

    def test_components_beyond_rank_rejected(self):
        rng = substream(7, 3)
        factor = rng.normal(0.0, 1.0, 20)
        x = np.outer(factor, np.array([1.0, 2.0]))
        s = DrawnSample(indices=np.arange(20), pi=np.full(20, 0.5))
        with pytest.raises(ParameterError, match="rank"):
            fit_pcr(s, x, rng.normal(0.0, 1.0, 20), n_components=2)

    def test_eigenvalues_descend_and_scores_uncorrelated(self):
        s, x, y = _instance(8, n=40, p=5)
        pcr = fit_pcr(s, x, y, n_components=5)
        evals = pcr.params["eigenvalues"]
        assert np.all(np.diff(evals) <= 1e-9)
        std = pcr.params["standardization"]
        directions = pcr.params["directions"]
        scores = std.transform(x) @ directions
        gram = scores.T @ (scores * s.weights[:, None])
        normalized = gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
        off = normalized[~np.eye(5, dtype=bool)]
        assert np.max(np.abs(off)) < 1e-8

    def test_sign_convention_deterministic(self):
        s, x, y = _instance(9)
        a = fit_pcr(s, x, y, n_components=3).params["directions"]
        b = fit_pcr(s, x, y, n_components=3).params["directions"]
        assert np.array_equal(a, b)
        for j in range(a.shape[1]):
            assert a[np.argmax(np.abs(a[:, j])), j] > 0
