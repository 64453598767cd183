"""Tests for the incremental DREAM engine.

Three layers of guarantees:

1. :class:`RecursiveLeastSquares` reproduces batch OLS — coefficients,
   training R^2 and PRESS R^2 — to 1e-8 across random growing windows
   (property test).
2. :class:`OnlineDreamEstimator` chooses the *same window* as the batch
   :class:`DreamEstimator` and predicts within 1e-6 on the
   ``default_federation_load`` drift scenario and on the MIDAS warm-up
   histories, whose windows hold constant columns (equivalence tests),
   and the widening steps there run on the rank-one carry.
3. The batched prediction path (``DreamResult.predict_batch``,
   ``MultiCostModel.predict_batch``) matches the per-row path exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.variability import default_federation_load
from repro.common.errors import EstimationError
from repro.common.rng import RngStream
from repro.core import DreamEstimator, ExecutionHistory, OnlineDreamEstimator
from repro.federation import FederationConfig
from repro.ires.modelling import DreamStrategy
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.ml import MultipleLinearRegression, RecursiveLeastSquares
from tests.test_linear_press_incremental import PRESS_TOLERANCE

#: Rows each MIDAS template history holds for the replay tests.
MIDAS_ROWS = 130


def random_regression(seed: int, n: int, dimension: int):
    rng = np.random.default_rng(seed)
    features = rng.uniform(-5.0, 5.0, size=(n, dimension))
    slopes = rng.uniform(-2.0, 2.0, size=dimension)
    targets = 1.5 + features @ slopes + rng.normal(0.0, 0.5, size=n)
    return features, targets


def drift_history(
    ticks: int, seed: int = 5, metrics: tuple[str, ...] = ("time", "money")
) -> ExecutionHistory:
    """A federation-shaped stream under the paper's drift scenario."""
    rng = RngStream(seed, "equivalence")
    load = default_federation_load(rng.child("load"))
    history = ExecutionHistory(("size", "nodes"), metrics)
    for tick in range(ticks):
        size = float(rng.uniform(10, 100))
        nodes = float(rng.integers(2, 9))
        factor = load.factor(tick)
        time = factor * (5 + 0.4 * size / nodes) * (1 + float(rng.normal(0, 0.03)))
        money = factor * (0.01 * size + 0.002 * nodes * time)
        history.append(tick, {"size": size, "nodes": nodes}, {"time": time, "money": money})
    return history


class TestRecursiveLeastSquares:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        dimension=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_batch_across_growing_windows(self, seed, dimension, extra):
        n = dimension + 2 + extra
        features, targets = random_regression(seed, n, dimension)
        rls = RecursiveLeastSquares(dimension, track_press=True)
        for i in range(n):
            rls.update(features[i], targets[i])
            if i + 1 < dimension + 2:
                continue
            window_x, window_y = features[: i + 1], targets[: i + 1]
            batch = MultipleLinearRegression().fit(window_x, window_y)
            assert np.allclose(
                rls.coefficients, batch.coefficients_, rtol=1e-8, atol=1e-8
            )
            assert rls.r_squared == pytest.approx(batch.r_squared_, abs=1e-8)
            assert rls.press_r_squared_tracked() == pytest.approx(
                batch.press_r_squared_, abs=1e-8
            )

    def test_dimension_and_empty_guards(self):
        with pytest.raises(EstimationError):
            RecursiveLeastSquares(0)
        rls = RecursiveLeastSquares(2)
        with pytest.raises(EstimationError):
            rls.update([1.0], 2.0)
        with pytest.raises(EstimationError):
            _ = rls.coefficients

    def test_singular_window_matches_batch_pinv(self):
        """A constant feature keeps the normal matrix singular; both
        implementations fall back to the same pseudo-inverse solution."""
        features = np.column_stack([np.ones(6), np.arange(6, dtype=float)])
        targets = 2.0 * np.arange(6, dtype=float) + 1.0
        rls = RecursiveLeastSquares(2)
        for i in range(6):
            rls.update(features[i], targets[i])
        batch = MultipleLinearRegression().fit(features, targets)
        assert np.allclose(
            rls.coefficients @ [1.0, 1.0, 3.0],
            batch.coefficients_ @ [1.0, 1.0, 3.0],
            rtol=1e-8,
        )


class TestOnlineDreamEquivalence:
    def test_same_windows_and_predictions_under_drift(self):
        """Batch and incremental Algorithm 1 agree on every tick of the
        default_federation_load scenario (windows exactly, predictions
        to 1e-6)."""
        history = drift_history(90)
        full = history.observations
        replay = ExecutionHistory(history.feature_names, history.metric_names)
        batch = DreamEstimator(r2_required=0.8, max_window=30)
        online = OnlineDreamEstimator(r2_required=0.8, max_window=30)
        probe = np.array([55.0, 4.0])
        checked = 0
        for obs in full:
            replay.append(obs.tick, obs.features, obs.costs)
            if replay.size < 6:
                continue
            reference = batch.fit(replay.datasets())
            incremental = online.fit(replay)
            assert incremental.window_size == reference.window_size
            assert incremental.window_sizes == reference.window_sizes
            assert incremental.converged == reference.converged
            for metric in reference.models:
                expected = reference.predict_metric(metric, probe)
                actual = incremental.predict_metric(metric, probe)
                assert actual == pytest.approx(expected, rel=1e-6, abs=1e-9)
            checked += 1
        assert checked > 50

    def test_rank_deficient_windows_match_batch(self):
        """Regression: near-constant indicator features make early
        windows rank-deficient; the incremental engine must fall back to
        the oracle's exact path there rather than diverge (this bit the
        MIDAS medical workload: money R^2 read -1.0 instead of 0.99)."""
        rng = RngStream(11, "rankdef")
        metrics = ("time", "money")
        history = ExecutionHistory(("size", "nodes", "indicator"), metrics)
        for tick in range(40):
            size = float(rng.uniform(10, 100))
            nodes = float(rng.integers(1, 4))
            indicator = 1.0 if rng.random() < 0.1 else 0.0  # mostly constant
            time = 3.0 + 0.5 * size / nodes + 10.0 * indicator
            money = 0.01 * size + 0.001 * nodes  # exactly linear
            history.append(
                tick,
                {"size": size, "nodes": nodes, "indicator": indicator},
                {"time": time, "money": money},
            )
        replay = ExecutionHistory(history.feature_names, metrics)
        batch = DreamEstimator(r2_required=0.8, max_window=20)
        online = OnlineDreamEstimator(r2_required=0.8, max_window=20)
        probe = np.array([50.0, 2.0, 0.0])
        for obs in history.observations:
            replay.append(obs.tick, obs.features, obs.costs)
            if replay.size < 5:
                continue
            reference = batch.fit(replay.datasets())
            incremental = online.fit(replay)
            assert incremental.window_size == reference.window_size
            assert incremental.window_sizes == reference.window_sizes
            for metric in metrics:
                assert incremental.predict_metric(metric, probe) == pytest.approx(
                    reference.predict_metric(metric, probe), rel=1e-6, abs=1e-9
                )

    def test_version_cache_and_incremental_fold(self):
        history = drift_history(30)
        online = OnlineDreamEstimator(r2_required=0.8)
        first = online.fit(history)
        assert online.fit(history) is first  # version unchanged -> cache hit
        last = history.observations[-1]
        history.append(last.tick + 1, last.features, last.costs)
        second = online.fit(history)
        assert second is not first

    def test_rebinding_to_another_history_resets(self):
        online = OnlineDreamEstimator(r2_required=0.8)
        online.fit(drift_history(20, seed=1))
        other = drift_history(25, seed=2)
        result = online.fit(other)
        reference = DreamEstimator(r2_required=0.8).fit(other.datasets())
        assert result.window_size == reference.window_size

    def test_estimate_cost_values_signature(self):
        history = drift_history(20)
        values = OnlineDreamEstimator().estimate_cost_values(history, [50.0, 4.0])
        assert set(values) == {"time", "money"}


@pytest.fixture(scope="module")
def midas_histories():
    """Warm-up histories of the three MEDICAL_QUERIES templates under the
    gateway defaults (``max_window=None``), each with one candidate
    feature matrix of its QEP space."""
    midas = MidasSystem(patient_count=300, seed=7, config=FederationConfig())
    rng = RngStream(3, "midas-replay")
    out = {}
    for key, template in MEDICAL_QUERIES.items():
        midas.warm_up(key, runs=MIDAS_ROWS)
        history = midas.gateway.history(key)
        space = midas.gateway.candidates(key, template.sample_params(rng))
        matrix = np.array(
            [[c.features[name] for name in history.feature_names] for c in space]
        )
        out[key] = (history, matrix)
    return out


def count_carry_steps(monkeypatch) -> list[int]:
    """Wrap ``RecursiveLeastSquares.well_conditioned`` on the class (as the
    federation benchmark's tracer does); returns [exact, carry] counts."""
    counts = [0, 0]
    original = RecursiveLeastSquares.__dict__["well_conditioned"]

    def counted(self):
        result = original(self)
        counts[bool(result)] += 1
        return result

    monkeypatch.setattr(RecursiveLeastSquares, "well_conditioned", counted)
    return counts


class TestMidasEquivalence:
    """Replays of the MIDAS warm-up histories, tick by tick: their windows
    hold columns constant over the window (a table size, both sizes on
    medical-lab-followup), the rank-deficient case of the real workload."""

    def test_same_windows_predictions_and_press(self, midas_histories, monkeypatch):
        counts = count_carry_steps(monkeypatch)
        for key, (history, matrix) in midas_histories.items():
            replay = ExecutionHistory(history.feature_names, history.metric_names)
            batch = DreamEstimator(r2_required=0.8)
            online = OnlineDreamEstimator(r2_required=0.8)
            checked = 0
            for obs in history.observations:
                replay.append(obs.tick, obs.features, obs.costs)
                if replay.size < len(history.feature_names) + 2:
                    continue
                reference = batch.fit(replay.datasets())
                incremental = online.fit(replay)
                assert incremental.window_sizes == reference.window_sizes, key
                assert incremental.converged == reference.converged, key
                for metric in history.metric_names:
                    assert incremental.r_squared[metric] == pytest.approx(
                        reference.r_squared[metric], abs=PRESS_TOLERANCE
                    )
                    assert np.allclose(
                        incremental.predict_metric_batch(metric, matrix),
                        reference.predict_metric_batch(metric, matrix),
                        rtol=1e-6,
                        atol=1e-9,
                    ), (key, metric, replay.size)
                checked += 1
            assert checked >= 120
        exact, carried = counts
        assert carried / (exact + carried) >= 0.95


def degenerate_design(data, n: int):
    """A random design whose columns include the degenerate kinds: a
    constant, one that turns active late in the widening, an exact
    duplicate and an exact linear combination of other columns."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    base = rng.uniform(-3.0, 3.0, size=(n, 2))
    kinds = data.draw(
        st.lists(
            st.sampled_from(["constant", "late", "duplicate", "combination"]),
            min_size=1,
            max_size=3,
        ),
        label="kinds",
    )
    columns = [base[:, 0], base[:, 1]]
    for kind in kinds:
        if kind == "constant":
            columns.append(np.full(n, float(rng.choice([0.0, 0.337, 4.0]))))
        elif kind == "late":  # widening runs backwards: varies only early
            late = np.full(n, 1.0)
            late[: n // 3] = rng.integers(0, 3, size=n // 3)
            columns.append(late)
        elif kind == "duplicate":
            columns.append(columns[int(rng.integers(0, len(columns)))].copy())
        else:
            columns.append(2.0 * base[:, 0] - base[:, 1])
    features = np.column_stack(columns)
    slopes = rng.uniform(-2.0, 2.0, size=features.shape[1])
    targets = 1.5 + features @ slopes + rng.normal(0.0, 0.5, size=n)
    return features, targets


class TestRankRevealingCarry:
    @given(data=st.data(), extra=st.integers(min_value=1, max_value=30))
    @settings(max_examples=40)
    def test_degenerate_designs_match_batch(self, data, extra):
        """Growing the window backwards (as Algorithm 1 does), the tracked
        PRESS, training R^2 and predictions — at a probe off the window's
        constant values — match the batch oracle at every size."""
        n = 8 + extra
        features, targets = degenerate_design(data, n)
        dimension = features.shape[1]
        probe = features[-1] + 1.5
        rls = RecursiveLeastSquares(dimension, track_press=True)
        for i in range(n - 1, -1, -1):
            rls.update(features[i], targets[i])
            if n - i < dimension + 2:
                continue
            batch = MultipleLinearRegression().fit(features[i:], targets[i:])
            assert rls.press_r_squared_tracked() == pytest.approx(
                batch.press_r_squared_, abs=PRESS_TOLERANCE
            )
            assert rls.r_squared == pytest.approx(batch.r_squared_, abs=1e-8)
            assert rls.as_model().predict_one(probe) == pytest.approx(
                batch.predict_one(probe), rel=1e-6, abs=1e-9
            )

class TestBatchedPrediction:
    def test_predict_batch_matches_per_row(self):
        history = drift_history(40)
        result = DreamEstimator(r2_required=0.8).fit(history.datasets())
        rng = np.random.default_rng(9)
        matrix = rng.uniform(0.0, 200.0, size=(64, 2))  # beyond the hull: clamps
        batched = result.predict_batch(matrix)
        assert set(batched) == set(result.models)
        for metric, vector in batched.items():
            assert vector.shape == (64,)
            expected = [result.predict_metric(metric, row) for row in matrix]
            assert np.allclose(vector, expected, rtol=1e-12, atol=1e-12)

    def test_predict_batch_validates_shape(self):
        history = drift_history(20)
        result = DreamEstimator().fit(history.datasets())
        with pytest.raises(EstimationError, match="expected"):
            result.predict_batch(np.zeros((4, 5)))

    def test_fitted_cost_model_batch_matches_per_row(self):
        history = drift_history(40)
        fitted = DreamStrategy(r2_required=0.8).fit(history)
        rng = np.random.default_rng(3)
        matrix = rng.uniform(5.0, 120.0, size=(32, 2))
        batched = fitted.predict_batch(matrix)
        for i, row in enumerate(matrix):
            per_row = fitted.predict(row)
            for metric, value in per_row.items():
                assert batched[metric][i] == pytest.approx(value, rel=1e-12)

    def test_strategy_incremental_matches_batch_reference(self):
        history = drift_history(50)
        incremental = DreamStrategy(r2_required=0.8, incremental=True).fit(history)
        reference = DreamStrategy(r2_required=0.8, incremental=False).fit(history)
        assert incremental.training_size == reference.training_size
        x = np.array([60.0, 3.0])
        a, b = incremental.predict(x), reference.predict(x)
        for metric in b:
            assert a[metric] == pytest.approx(b[metric], rel=1e-6)
