"""Tests for the from-scratch learners: OLS, trees, bagging, MLP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import EstimationError
from repro.common.rng import RngStream
from repro.ml import (
    BaggingRegressor,
    Dataset,
    MLPRegressor,
    MultipleLinearRegression,
    RegressionTree,
    minimum_observations,
)

#: The paper's Table 2 dataset, digitised verbatim (cost, x1, x2).
PAPER_TABLE2_DATA = [
    (20.640, 0.4916, 0.2977),
    (15.557, 0.6313, 0.0482),
    (20.971, 0.9481, 0.8232),
    (24.878, 0.4855, 2.7056),
    (23.274, 0.0125, 2.7268),
    (30.216, 0.9029, 2.6456),
    (29.978, 0.7233, 3.0640),
    (31.702, 0.8749, 4.2847),
    (20.860, 0.3354, 2.1082),
    (32.836, 0.8521, 4.8217),
]
PAPER_TABLE2_R2 = {4: 0.7571, 5: 0.7705, 6: 0.8371, 7: 0.8788, 8: 0.8876, 9: 0.8751, 10: 0.8945}


def linear_data(n=40, noise=0.0, seed=3):
    rng = RngStream(seed, "lineardata")
    X = rng.uniform(0, 10, size=(n, 2))
    y = 3.0 + 2.0 * X[:, 0] - 1.5 * X[:, 1]
    if noise:
        y = y + rng.normal(0, noise, size=n)
    return X, y


class TestMinimumObservations:
    def test_is_l_plus_2(self):
        assert minimum_observations(4) == 6
        assert minimum_observations(2) == 4


class TestOLS:
    def test_recovers_exact_coefficients(self):
        X, y = linear_data(noise=0.0)
        model = MultipleLinearRegression().fit(X, y)
        assert model.intercept_ == pytest.approx(3.0, abs=1e-8)
        assert model.slopes_[0] == pytest.approx(2.0, abs=1e-8)
        assert model.slopes_[1] == pytest.approx(-1.5, abs=1e-8)
        assert model.r_squared_ == pytest.approx(1.0)

    def test_reproduces_paper_table2_r2_column(self):
        """The R^2 column of the paper's Table 2, to 3 decimal places."""
        X = np.array([[r[1], r[2]] for r in PAPER_TABLE2_DATA])
        y = np.array([r[0] for r in PAPER_TABLE2_DATA])
        for m, expected in PAPER_TABLE2_R2.items():
            model = MultipleLinearRegression().fit(X[:m], y[:m])
            assert model.r_squared_ == pytest.approx(expected, abs=2e-4), m

    def test_residuals_orthogonal_to_design(self):
        """OLS normal equations: X^T (y - y_hat) = 0."""
        X, y = linear_data(noise=2.0)
        model = MultipleLinearRegression().fit(X, y)
        residuals = y - model.predict(X)
        design = np.hstack([np.ones((X.shape[0], 1)), X])
        assert np.allclose(design.T @ residuals, 0.0, atol=1e-6)

    def test_singular_design_uses_pinv(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        model = MultipleLinearRegression().fit(X, y)  # must not raise
        assert np.isfinite(model.predict(np.array([1.0, 2.0])))

    @pytest.mark.parametrize(
        "constants",
        [
            {2: 0.337},  # one window-constant size column
            # medical-lab-followup: both size columns constant
            {0: 0.02288818359375, 1: 0.01393890380859375},
        ],
    )
    def test_rank_deficient_window_is_pinv_minimum_norm(self, constants):
        """A column constant over the window duplicates the intercept
        direction.  The fit must be pinv's minimum-norm solution, not an
        arbitrary one of the exact-fit family (LU returns coefficients
        of order 1e6+ there), including at a probe whose constant-column
        value differs from the window's."""
        rng = RngStream(17, "constant-columns")
        n, dimension = 30, 5
        X = np.column_stack(
            [
                rng.uniform(0.005, 0.025, size=n),
                rng.uniform(0.005, 0.025, size=n),
                rng.integers(1, 9, size=n).astype(float),
                rng.integers(1, 5, size=n).astype(float),
                (rng.random(n) < 0.5).astype(float),
            ]
        )
        for column, value in constants.items():
            X[:, column] = value
        y = 2.0 + 40.0 * X[:, 0] + 0.3 * X[:, 2] + rng.normal(0.0, 0.05, size=n)
        model = MultipleLinearRegression().fit(X, y)
        design = np.hstack([np.ones((n, 1)), X])
        expected = np.linalg.pinv(design) @ y
        assert np.allclose(model.coefficients_, expected, rtol=1e-9, atol=0.0)
        probe = X[0].copy()
        for column, value in constants.items():
            probe[column] = 2.0 * value + 0.5
        assert model.predict_one(probe) == pytest.approx(
            float(np.concatenate(([1.0], probe)) @ expected), rel=1e-9
        )

    def test_predict_before_fit(self):
        with pytest.raises(EstimationError):
            MultipleLinearRegression().predict([1.0, 2.0])

    def test_wrong_dimension_rejected(self):
        X, y = linear_data()
        model = MultipleLinearRegression().fit(X, y)
        with pytest.raises(EstimationError):
            model.predict([1.0, 2.0, 3.0])

    def test_summary_contains_r2(self):
        X, y = linear_data()
        model = MultipleLinearRegression().fit(X, y)
        assert "R^2" in model.summary(("size_a", "size_b"))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_training_r2_in_unit_interval(self, seed):
        rng = RngStream(seed, "prop")
        X = rng.uniform(0, 1, size=(8, 2))
        y = rng.uniform(0, 1, size=8)
        model = MultipleLinearRegression().fit(X, y)
        assert -1e-9 <= model.r_squared_ <= 1.0 + 1e-9

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_more_features_never_lower_training_r2(self, seed):
        """Adding a column cannot reduce the OLS training fit."""
        rng = RngStream(seed, "prop2")
        X = rng.uniform(0, 1, size=(12, 3))
        y = rng.uniform(0, 1, size=12)
        small = MultipleLinearRegression().fit(X[:, :2], y)
        large = MultipleLinearRegression().fit(X, y)
        assert large.r_squared_ >= small.r_squared_ - 1e-9


class TestRegressionTree:
    def test_fits_step_function(self):
        X = np.array([[i] for i in range(20)], dtype=float)
        y = np.array([0.0] * 10 + [10.0] * 10)
        tree = RegressionTree(max_depth=2).fit(X, y)
        assert tree.predict(np.array([3.0])) == pytest.approx(0.0)
        assert tree.predict(np.array([15.0])) == pytest.approx(10.0)

    def test_depth_zero_is_mean(self):
        X, y = linear_data(n=10)
        tree = RegressionTree(max_depth=0).fit(X, y)
        assert tree.predict(X[0]) == pytest.approx(y.mean())

    def test_respects_max_depth(self):
        X, y = linear_data(n=60, noise=1.0)
        tree = RegressionTree(max_depth=3, min_samples_leaf=1).fit(X, y)
        assert tree.depth() <= 3

    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        tree = RegressionTree().fit(X, np.ones(10))
        assert tree.depth() == 0

    def test_deterministic(self):
        X, y = linear_data(n=30, noise=1.0)
        a = RegressionTree().fit(X, y).predict(X)
        b = RegressionTree().fit(X, y).predict(X)
        assert np.array_equal(a, b)


class TestBagging:
    def test_reduces_tree_variance_on_noise(self):
        X, y = linear_data(n=60, noise=4.0, seed=5)
        X_test, y_test = linear_data(n=60, noise=0.0, seed=6)
        tree_error = np.mean(
            (RegressionTree(max_depth=6, min_samples_leaf=1).fit(X, y).predict(X_test) - y_test) ** 2
        )
        bag_error = np.mean(
            (BaggingRegressor(n_estimators=25).fit(X, y).predict(X_test) - y_test) ** 2
        )
        assert bag_error < tree_error

    def test_deterministic_under_seed(self):
        X, y = linear_data(n=30, noise=2.0)
        a = BaggingRegressor(seed=9).fit(X, y).predict(X)
        b = BaggingRegressor(seed=9).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_member_count(self):
        X, y = linear_data(n=20)
        bag = BaggingRegressor(n_estimators=7).fit(X, y)
        assert len(bag.members_) == 7


class TestMLP:
    def test_learns_linear_function(self):
        X, y = linear_data(n=80, noise=0.0)
        model = MLPRegressor(hidden=(16,), epochs=400, seed=1).fit(X, y)
        predictions = model.predict(X)
        relative = np.abs(predictions - y) / (np.abs(y) + 1.0)
        assert float(np.mean(relative)) < 0.1

    def test_deterministic_under_seed(self):
        X, y = linear_data(n=30, noise=1.0)
        a = MLPRegressor(epochs=50, seed=2).fit(X, y).predict(X)
        b = MLPRegressor(epochs=50, seed=2).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_handles_constant_feature(self):
        X = np.hstack([np.ones((20, 1)), np.arange(20, dtype=float).reshape(-1, 1)])
        y = X[:, 1] * 2
        model = MLPRegressor(epochs=100).fit(X, y)  # std=0 column must not crash
        assert np.all(np.isfinite(model.predict(X)))

    def test_two_hidden_layers(self):
        X, y = linear_data(n=40)
        model = MLPRegressor(hidden=(8, 8), epochs=100).fit(X, y)
        assert np.all(np.isfinite(model.predict(X)))


class TestDataset:
    def test_window_takes_most_recent(self):
        data = Dataset(np.arange(10, dtype=float).reshape(-1, 1), np.arange(10, dtype=float), ("x",))
        window = data.last_window(3)
        assert list(window.targets) == [7.0, 8.0, 9.0]

    def test_window_larger_than_data(self):
        data = Dataset(np.ones((2, 1)), np.ones(2), ("x",))
        assert data.last_window(10).size == 2

    def test_split_at(self):
        data = Dataset(np.arange(6, dtype=float).reshape(-1, 1), np.arange(6, dtype=float), ("x",))
        past, future = data.split_at(4)
        assert past.size == 4 and future.size == 2
        assert list(future.targets) == [4.0, 5.0]

    def test_append_preserves_order(self):
        data = Dataset(np.ones((1, 2)), np.array([1.0]), ("a", "b"))
        grown = data.append(np.array([2.0, 2.0]), 5.0)
        assert grown.size == 2
        assert grown.targets[-1] == 5.0

    def test_shape_validation(self):
        with pytest.raises(EstimationError):
            Dataset(np.ones((3, 2)), np.ones(2), ("a", "b"))
        with pytest.raises(EstimationError):
            Dataset(np.ones((3, 2)), np.ones(3), ("a",))

    def test_from_rows(self):
        data = Dataset.from_rows([((1.0, 2.0), 3.0), ((4.0, 5.0), 6.0)], ("a", "b"))
        assert data.size == 2 and data.dimension == 2
