"""Property tests for the rank-one incremental PRESS statistic.

The satellite guarantee: ``RecursiveLeastSquares(track_press=True)``
reproduces ``MultipleLinearRegression.press_r_squared_`` to 1e-9 at
every window size — through rank-one carries on the window's active
columns (constant columns such as the MIDAS engine indicator dropped)
and through the batch oracle on windows whose reduced design is still
ill-conditioned.  Seeds are derived
with :func:`repro.common.rng.derive_seed`, so Hypothesis explores a
stable, process-independent space of regression problems.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import EstimationError
from repro.common.rng import RngStream, derive_seed
from repro.ml import MultipleLinearRegression, RecursiveLeastSquares

PRESS_TOLERANCE = 1e-9


def regression_stream(seed: int, n: int, dimension: int, indicator: bool):
    """A random regression problem; optionally the last feature is a
    near-constant engine indicator (MIDAS: one engine almost always
    wins), which makes small windows rank-deficient."""
    rng = RngStream(derive_seed(seed, "press-property"), "data")
    features = rng.uniform(-5.0, 5.0, size=(n, dimension))
    if indicator and dimension >= 1:
        features[:, -1] = (rng.random(n) < 0.08).astype(float)
    slopes = rng.uniform(-2.0, 2.0, size=dimension)
    targets = 1.5 + features @ slopes + rng.normal(0.0, 0.5, size=n)
    return features, targets


class TestIncrementalPressEqualsBatch:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        dimension=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=1, max_value=25),
        indicator=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_press_matches_batch_across_growing_windows(
        self, seed, dimension, extra, indicator
    ):
        n = dimension + 2 + extra
        features, targets = regression_stream(seed, n, dimension, indicator)
        rls = RecursiveLeastSquares(dimension, track_press=True)
        for i in range(n):
            rls.update(features[i], targets[i])
            if i + 1 < dimension + 2:
                continue
            batch = MultipleLinearRegression().fit(features[: i + 1], targets[: i + 1])
            assert rls.press_r_squared_tracked() == pytest.approx(
                batch.press_r_squared_, abs=PRESS_TOLERANCE
            )

    def test_constant_indicator_window_takes_exact_path(self):
        """A fully constant indicator column keeps the full normal matrix
        singular: the carry drops the column (it lies in the intercept's
        span) and the tracked statistic must still equal the batch fit's
        minimum-norm one."""
        rng = RngStream(7, "constant-indicator")
        n, dimension = 12, 3
        features = rng.uniform(0.0, 10.0, size=(n, dimension))
        features[:, -1] = 1.0  # the MIDAS constant engine indicator
        targets = 2.0 + features[:, 0] * 0.5 + rng.normal(0.0, 0.1, size=n)
        rls = RecursiveLeastSquares(dimension, track_press=True)
        for i in range(n):
            rls.update(features[i], targets[i])
            if i + 1 < dimension + 2:
                continue
            batch = MultipleLinearRegression().fit(features[: i + 1], targets[: i + 1])
            assert rls.press_r_squared_tracked() == pytest.approx(
                batch.press_r_squared_, abs=PRESS_TOLERANCE
            )

    def test_carry_actually_engages(self, monkeypatch):
        """Guard against silently recomputing every step: on a well-
        conditioned stream, once anchored, an update is carried by the
        rank-one step rather than by a fresh exact anchor."""
        features, targets = regression_stream(3, 20, 2, indicator=False)
        rls = RecursiveLeastSquares(2, track_press=True)
        for i in range(6):
            rls.update(features[i], targets[i])
        rls.press_r_squared_tracked()  # anchors the carry
        anchors = []
        anchor = rls._anchor
        monkeypatch.setattr(rls, "_anchor", lambda: anchors.append(1) or anchor())
        rls.update(features[6], targets[6])
        assert rls.well_conditioned()
        assert rls.press_r_squared_tracked() == pytest.approx(
            MultipleLinearRegression().fit(features[:7], targets[:7]).press_r_squared_,
            abs=PRESS_TOLERANCE,
        )
        assert not anchors  # carried through, not re-anchored

    def test_tracked_query_requires_opt_in_and_data(self):
        with pytest.raises(EstimationError, match="track_press"):
            RecursiveLeastSquares(2).press_r_squared_tracked()
        with pytest.raises(EstimationError, match="no observations"):
            RecursiveLeastSquares(2, track_press=True).press_r_squared_tracked()
