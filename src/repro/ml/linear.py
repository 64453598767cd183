"""Multiple Linear Regression, the foundation of DREAM (paper §2.5).

Solves ``B = (A^T A)^-1 A^T C`` (paper Eq. 12) for the design matrix with
an intercept column (Eq. 8).  Windows are often rank-deficient (a feature
constant over the window duplicates the intercept direction), so the fit
is pinv's minimum-norm solution, read off one thin SVD of the design.

Two implementations share the algebra:

* :class:`MultipleLinearRegression` — the batch fit/predict regressor
  used by the BML pool and kept as DREAM's reference oracle.
* :class:`RecursiveLeastSquares` — an incremental core for Algorithm 1's
  ``m += 1`` loop.  It drops the columns that are constant over the
  window, centres and scales the rest, and carries the inverse normal
  matrix and the coefficients on that reduced basis by Sherman-Morrison
  rank-one updates, so widening the window by one observation costs
  O(L^2) instead of a full O(m L^2) refit.  An exact re-anchor (one thin
  SVD of the window) runs when a column turns active or every
  :attr:`RecursiveLeastSquares.ANCHOR_EVERY` steps; only a window whose
  reduced design is still ill-conditioned (exactly collinear non-constant
  columns) is fitted by the batch oracle instead.

With ``track_press=True`` the recursive form also carries the
leave-one-out PRESS statistic: the per-row leverages and residuals ride
the same rank-one identities, so a widening step updates PRESS in
O(L^2 + m L) instead of recomputing the O(m L^2) hat-matrix pass.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import EstimationError
from repro.ml.base import Regressor
from repro.ml.metrics import r_squared, total_sum_of_squares

EPSILON = float(np.finfo(float).eps)


def press_r_squared_from(
    residuals: np.ndarray, leverages: np.ndarray, sst: float
) -> float:
    """Leave-one-out R^2 = 1 - PRESS/SST from per-row components.

    The single source of truth for the PRESS tail (``e_loo = e/(1-h)``,
    leverage clip, SST zero convention, clamp at -1): the batch fit and
    the incremental carry both feed their residuals/leverages/SST through
    here, so the 1e-9 batch-equivalence contract cannot drift between
    implementations.

    Leverage ~1 means the point is interpolated: its LOO residual
    diverges, which correctly reads as "no predictive evidence".
    """
    loo = residuals / np.maximum(1.0 - leverages, 1e-6)
    press = float(loo @ loo)
    if sst == 0.0:
        return 1.0 if press == 0.0 else -1.0
    return max(-1.0, 1.0 - press / sst)


def minimum_observations(dimension: int) -> int:
    """The smallest usable training set: M = L + 2 (paper §3, [27]).

    One more than the L+1 unknown coefficients, so at least one residual
    degree of freedom exists.
    """
    return dimension + 2


class MultipleLinearRegression(Regressor):
    """Ordinary least squares with intercept.

    Besides the training-set ``r_squared_`` (paper Eq. 14), the fit also
    computes ``press_r_squared_``: the *predictive* coefficient of
    determination from leave-one-out residuals, obtained in closed form
    via the hat matrix (``e_loo,i = e_i / (1 - h_ii)``).  Near the
    minimum window ``m = L + 2`` OLS nearly interpolates and the training
    R^2 saturates at 1 regardless of data quality; the PRESS form stays
    honest there, which is what DREAM's stopping rule needs.
    """

    name = "least-squares"

    def __init__(self):
        super().__init__()
        self.coefficients_: np.ndarray | None = None  # (L+1,) incl. intercept
        self.r_squared_: float | None = None
        self.press_r_squared_: float | None = None

    def _design(self, features: np.ndarray) -> np.ndarray:
        return np.hstack([np.ones((features.shape[0], 1)), features])

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        design = self._design(features)
        # One thin SVD: singular values under the standard rank tolerance
        # are dropped, so the coefficients are pinv's minimum-norm
        # solution and the leverages are the row sums of U_r^2.
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        rank = int(np.count_nonzero(s > s[0] * max(design.shape) * EPSILON))
        u, s, vt = u[:, :rank], s[:rank], vt[:rank]
        self.coefficients_ = vt.T @ ((u.T @ targets) / s)
        fitted = design @ self.coefficients_
        self.r_squared_ = r_squared(targets, fitted)
        self.press_r_squared_ = press_r_squared_from(
            targets - fitted,
            np.einsum("ij,ij->i", u, u),
            total_sum_of_squares(targets),
        )

    def _predict(self, features: np.ndarray) -> np.ndarray:
        return self._design(features) @ self.coefficients_

    @property
    def intercept_(self) -> float:
        if self.coefficients_ is None:
            raise EstimationError("model not fitted")
        return float(self.coefficients_[0])

    @property
    def slopes_(self) -> np.ndarray:
        if self.coefficients_ is None:
            raise EstimationError("model not fitted")
        return self.coefficients_[1:]

    def summary(self, feature_names: tuple[str, ...] | None = None) -> str:
        """Human-readable fitted equation (paper Eq. 6 shape)."""
        if self.coefficients_ is None:
            raise EstimationError("model not fitted")
        terms = [f"{self.intercept_:.4g}"]
        for i, slope in enumerate(self.slopes_):
            name = feature_names[i] if feature_names else f"x{i + 1}"
            terms.append(f"{slope:+.4g}*{name}")
        return "c_hat = " + " ".join(terms) + f"   (R^2 = {self.r_squared_:.4f})"


class RecursiveLeastSquares:
    """Incremental OLS for a window that grows one observation at a time.

    Built for Algorithm 1's ``m += 1`` loop, where each step adds one
    *older* observation.  The fit runs on the window's **active** columns
    only: a feature that is constant over the window (min == max; each
    new row is compared with the constant columns' value, O(L)) lies in
    the span of the intercept and is dropped; the remaining columns are
    centred and scaled once per anchor.  On that reduced basis ``Z`` the
    inverse ``(Z^T Z)^-1`` and the coefficients are carried by
    Sherman-Morrison, so one step costs O(L^2) plus the O(m L) carry of
    every row's residual — and, with ``track_press=True``, its leverage
    for the leave-one-out PRESS statistic.

    An **anchor** rebuilds the carry exactly from the stored window rows
    (one thin SVD).  It runs when a column turns active (at most L times
    as the window grows), every :attr:`ANCHOR_EVERY` rank-one steps, and
    when the carry's conditioning guard trips.  Only a window whose
    reduced design is still ill-conditioned — exactly collinear
    non-constant columns — leaves the carry: it is fitted by the batch
    :class:`MultipleLinearRegression` oracle instead.

    Reported coefficients are pinv's minimum-norm solution over *all*
    columns: the reduced intercept ``b`` is split over the intercept and
    the window-constant columns ``c_j`` as ``b / (1 + sum c_j^2)`` and
    ``c_j b / (1 + sum c_j^2)``, exactly what the batch fit returns.
    """

    #: Upper bound on cond(Z^T Z) under which the rank-one carry runs.  It
    #: is checked as trace(Z^T Z) over the smallest eigenvalue at the last
    #: anchor: adding rows never lowers an eigenvalue, so the ratio bounds
    #: the condition number in O(1) per step.  The carry loses ~cond * eps
    #: digits per step, and the tracked PRESS must match the batch fit to
    #: 1e-9.
    PRESS_MAX_CONDITION = 1e6
    #: Rank-one steps between exact anchors (bounds the carry's drift).
    ANCHOR_EVERY = 64

    def __init__(self, dimension: int, track_press: bool = False):
        if dimension < 1:
            raise EstimationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self._track_press = bool(track_press)
        self._count = 0
        #: Window rows (raw features), targets and the reduced basis rows
        #: ``[1, (x_active - shift) / scale]``, in amortised buffers.
        self._rows = np.empty((16, self.dimension))
        self._targets = np.empty(16)
        self._basis = np.empty((16, 1))
        #: Carried per-row residuals, and leverages with ``track_press``.
        self._lev = np.empty(16)
        self._resid = np.empty(16)
        #: Running mean and SST of the window targets (Welford).
        self._mean = 0.0
        self._sst = 0.0
        # Carry state on the reduced basis, rebuilt by _anchor(): the
        # active columns, and the window-constant ones with their values.
        self._active = np.zeros(0, dtype=int)
        self._constant = np.zeros(0, dtype=int)
        self._values = np.zeros(0)
        self._shift = np.zeros(0)
        self._scale = np.zeros(0)
        self._inverse = np.zeros((1, 1))
        self._beta = np.zeros(1)
        #: trace(Z^T Z), carried for the conditioning guard.
        self._trace = 0.0
        #: Smallest eigenvalue of Z^T Z at the last anchor.
        self._floor = 0.0
        self._steps = 0
        #: True when the next query must anchor first.
        self._stale = True
        #: Whether the window runs on the carry (else on the exact path).
        self._carry = False
        #: The exact path's batch fit of the current window, if made.
        self._exact: MultipleLinearRegression | None = None

    def _row(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float).reshape(-1)
        if x.shape[0] != self.dimension:
            raise EstimationError(
                f"expected {self.dimension} features, got {x.shape[0]}"
            )
        return x

    def _reserve(self) -> None:
        """Grow the window buffers (amortised doubling) for one more row."""
        capacity = self._targets.shape[0]
        if self._count < capacity:
            return
        for name in ("_rows", "_targets", "_basis", "_lev", "_resid"):
            old = getattr(self, name)
            new = np.empty((2 * capacity,) + old.shape[1:])
            new[:capacity] = old
            setattr(self, name, new)

    # Widening -------------------------------------------------------------

    def update(self, features, target: float) -> None:
        """Fold one observation in: O(L^2 + m L) on the carry."""
        x = self._row(features)
        y = float(target)
        self._reserve()
        m = self._count
        self._rows[m] = x
        self._targets[m] = y
        delta = y - self._mean
        self._mean += delta / (m + 1)
        self._sst += delta * (y - self._mean)
        self._exact = None
        if not self._stale:
            self._steps += 1
            if (
                not self._carry
                or self._steps >= self.ANCHOR_EVERY
                # a window-constant column turns active: widen the basis
                or (x[self._constant] != self._values).any()
            ):
                self._stale = True
            else:
                self._fold_in(x, y)
                self._stale = self._trace > self.PRESS_MAX_CONDITION * self._floor
        self._count = m + 1

    def _fold_in(self, x: np.ndarray, y: float) -> None:
        """Sherman-Morrison step of the carry for the new row ``z``.

        With ``P = (Z^T Z)^-1`` *before* the row, ``s = z P z`` and the
        innovation ``y - z beta``, every existing row i moves by::

            h_i' = h_i - (z_i P z)^2 / (1 + s)
            e_i' = e_i - (z_i P z) * innovation / (1 + s)

        and the new row gets ``h = s / (1 + s)``, ``e = innovation/(1+s)``.
        One O(m L) matvec replaces the O(m L^2) hat-matrix pass.
        """
        m = self._count
        z = self._basis[m]
        z[0] = 1.0
        z[1:] = (x[self._active] - self._shift) / self._scale
        pz = self._inverse @ z
        s = float(z @ pz)
        denominator = 1.0 + s
        innovation = y - float(z @ self._beta)
        g = self._basis[:m] @ pz
        root = math.sqrt(denominator)
        g /= root
        self._resid[:m] -= g * (innovation / root)
        self._resid[m] = innovation / denominator
        if self._track_press:
            self._lev[:m] -= g * g
            self._lev[m] = s / denominator
        self._inverse -= pz[:, None] * (pz / denominator)
        self._beta += pz * (innovation / denominator)
        self._trace += float(z @ z)

    def _anchor(self) -> None:
        """Rebuild the carry exactly from the window rows (one thin SVD).

        Re-derives the active columns and their shift/scale, then the
        inverse, coefficients, leverages and residuals from the SVD of
        the reduced basis.  A basis that fails the conditioning guard
        leaves the carry off: the window takes the exact path.
        """
        m = self._count
        rows = self._rows[:m]
        varies = (rows != rows[0]).any(axis=0)
        active = np.flatnonzero(varies)
        self._constant = np.flatnonzero(~varies)
        self._values = rows[0, self._constant]
        columns = rows[:, active]
        shift = columns.mean(axis=0)
        scale = columns.std(axis=0)
        k = active.size + 1
        if self._basis.shape[1] != k:
            self._basis = np.empty((self._targets.shape[0], k))
        basis = self._basis[:m]
        basis[:, 0] = 1.0
        basis[:, 1:] = (columns - shift) / scale
        self._active, self._shift, self._scale = active, shift, scale
        self._stale = False
        self._steps = 0
        targets = self._targets[:m]
        self._mean = float(targets.mean())
        self._sst = total_sum_of_squares(targets)
        u, s, vt = np.linalg.svd(basis, full_matrices=False)
        self._trace = float(np.einsum("ij,ij->", basis, basis))
        self._floor = float(s[-1]) ** 2
        self._carry = m >= k and self._trace <= self.PRESS_MAX_CONDITION * self._floor
        if not self._carry:
            return
        inverse = (vt.T / s**2) @ vt
        self._inverse = 0.5 * (inverse + inverse.T)
        self._beta = vt.T @ ((u.T @ targets) / s)
        self._resid[:m] = targets - basis @ self._beta
        if self._track_press:
            self._lev[:m] = np.einsum("ij,ij->i", u, u)

    def _sync(self) -> bool:
        """Anchor if due; whether the window runs on the carry."""
        if self._stale:
            self._anchor()
        return self._carry

    def _exact_fit(self) -> MultipleLinearRegression:
        """The batch oracle's fit of the current window (cached)."""
        if self._exact is None:
            m = self._count
            self._exact = MultipleLinearRegression().fit(
                self._rows[:m], self._targets[:m]
            )
        return self._exact

    def _require_data(self) -> None:
        if self._count == 0:
            raise EstimationError("no observations folded in yet")

    # Queries --------------------------------------------------------------

    def well_conditioned(self) -> bool:
        """Whether the current window's statistics come from the carry.

        False means the reduced design (constant columns dropped) is
        still ill-conditioned, and the window is fitted on the batch
        oracle's exact path.  The per-step queries below consult this
        once each, so it reports carry engagement step by step.
        """
        if self._count == 0:
            return False
        return self._sync()

    def press_r_squared_tracked(self) -> float:
        """Leave-one-out R^2 of the window from the carried leverages and
        residuals (O(m)); the exact path's batch fit otherwise."""
        if not self._track_press:
            raise EstimationError("construct with track_press=True to track PRESS")
        self._require_data()
        if not self.well_conditioned():
            return self._exact_fit().press_r_squared_
        return self._carried_press()

    def _carried_press(self) -> float:
        m = self._count
        return press_r_squared_from(self._resid[:m], self._lev[:m], self._sst)

    @property
    def r_squared(self) -> float:
        """Training R^2 (Eq. 14) from the carried residuals (O(m))."""
        self._require_data()
        if not self.well_conditioned():
            return self._exact_fit().r_squared_
        return self._carried_r_squared()

    def _carried_r_squared(self) -> float:
        m = self._count
        targets = self._targets[:m]
        return r_squared(targets, targets - self._resid[:m])

    @property
    def coefficients(self) -> np.ndarray:
        """Minimum-norm OLS coefficients over all columns, intercept first."""
        self._require_data()
        if not self._sync():
            return self._exact_fit().coefficients_
        slopes = self._beta[1:] / self._scale
        intercept = self._beta[0] - float(slopes @ self._shift)
        values = self._values
        share = intercept / (1.0 + float(values @ values))
        coefficients = np.empty(self.dimension + 1)
        coefficients[0] = share
        coefficients[1 + self._active] = slopes
        coefficients[1 + self._constant] = values * share
        return coefficients

    def as_model(self) -> MultipleLinearRegression:
        """The current window's fit as a fitted batch model."""
        self._require_data()
        if not self._sync():
            return self._exact_fit()
        model = MultipleLinearRegression()
        model.coefficients_ = self.coefficients
        model.r_squared_ = self._carried_r_squared()
        if self._track_press:
            model.press_r_squared_ = self._carried_press()
        model._dimension = self.dimension
        model._fitted = True
        return model
