"""Nadaraya-Watson spatial prediction over reduced or full predictors.

One-kernel weights smooth over distances in predictor (or reduction) space;
two-kernel weights multiply in a second Gaussian kernel over geographic
distance.  Both kernels are standard Gaussians ``exp(-u^2 / 2)`` and the
weight vectors are normalized to the simplex.  Bandwidths come from
leave-one-out cross-validation on the training sample; the two-kernel
search scans the full (h1, h2) grid jointly because the kernels interact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .data import SpatialSample
from .exceptions import DegenerateGridError, EmptyReferenceError, InputError

MODES = (
    "1k.FULL",
    "2k.FULL",
    "1k.Ind",
    "2k.Ind",
    "1k.SSCM",
    "2k.SSCM",
    "1k.SEM",
    "2k.SEM",
)

GRID_SIZE = 15
GRID_SPAN = (0.1, 2.0)  # multiples of the median pairwise distance


@dataclass(frozen=True)
class PredictorConfig:
    """Prediction mode plus bandwidths and optional search grids."""

    mode: str
    h1: float | None = None
    h2: float | None = None
    h1_grid: np.ndarray | None = None
    h2_grid: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InputError(f"unknown predictor mode {self.mode!r}")
        for h in (self.h1, self.h2):
            if h is not None and not h > 0.0:
                raise InputError("bandwidths must be strictly positive")

    @property
    def two_kernel(self) -> bool:
        return self.mode.startswith("2k")

    @property
    def reduction_kind(self) -> str:
        return self.mode.split(".")[1]


@dataclass(frozen=True)
class TrainingReference:
    """Training-side material the weights are computed against.

    ``points`` holds reductions for reduced modes and raw predictors for
    FULL modes; rows align with ``responses`` and the n x 2 ``coords``.
    """

    points: np.ndarray
    responses: np.ndarray
    coords: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        resp = np.asarray(self.responses, dtype=float).ravel()
        crd = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if len(pts) == 0 or resp.size == 0:
            raise EmptyReferenceError("empty training reference")
        if len(pts) != resp.size or len(pts) != len(crd):
            raise InputError("reference rows disagree")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "responses", resp)
        object.__setattr__(self, "coords", crd)

    @property
    def n(self) -> int:
        return len(self.responses)


class WeightsResult(NamedTuple):
    weights: np.ndarray
    fell_back: bool


def build_reference(
    mode: str, train: SpatialSample, fit=None
) -> TrainingReference:
    """Assemble the reference for a mode: reduce the training predictors
    unless the mode is FULL."""
    kind = mode.split(".")[1]
    if kind == "FULL":
        pts = train.x
    else:
        if fit is None:
            raise InputError(f"mode {mode} needs a fitted reduction")
        pts = np.atleast_2d(fit.reduce(train.x))
    return TrainingReference(
        points=pts, responses=train.y, coords=train.coords.points
    )


def _sq_distances(query: np.ndarray, pts: np.ndarray) -> np.ndarray:
    if pts.shape[1] == 0:  # rank-0 reduction: all points coincide
        return np.zeros((query.shape[0], pts.shape[0]))
    return cdist(query, pts, metric="sqeuclidean")


def _weights_rows(u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplex weights per row of squared scaled distances, with the
    nearest-point fallback for rows whose kernel mass underflows."""
    k = np.exp(-0.5 * u2)
    sums = k.sum(axis=1)
    fell_back = sums <= 0.0
    if np.any(fell_back):
        k = k.copy()
        for i in np.flatnonzero(fell_back):
            k[i] = 0.0
            k[i, np.argmin(u2[i])] = 1.0
        sums = k.sum(axis=1)
    return k / sums[:, None], fell_back


def nw_weights_1k(
    query: np.ndarray, ref: TrainingReference, h1: float
) -> WeightsResult:
    """One-kernel weights for a single query point in reference space."""
    if not h1 > 0.0:
        raise InputError("h1 must be > 0")
    q = np.atleast_2d(np.asarray(query, dtype=float))
    u2 = _sq_distances(q, ref.points) / h1**2
    w, fb = _weights_rows(u2)
    return WeightsResult(w[0], bool(fb[0]))


def nw_weights_2k(
    query: np.ndarray,
    s0: np.ndarray,
    ref: TrainingReference,
    h1: float,
    h2: float,
) -> WeightsResult:
    """Two-kernel weights: predictor-space kernel times location kernel."""
    if not (h1 > 0.0 and h2 > 0.0):
        raise InputError("h1 and h2 must be > 0")
    q = np.atleast_2d(np.asarray(query, dtype=float))
    s = np.atleast_2d(np.asarray(s0, dtype=float))
    u2 = (
        _sq_distances(q, ref.points) / h1**2
        + _sq_distances(s, ref.coords) / h2**2
    )
    w, fb = _weights_rows(u2)
    return WeightsResult(w[0], bool(fb[0]))


def predict_many(
    x_query: np.ndarray,
    s_query: np.ndarray,
    ref: TrainingReference,
    config: PredictorConfig,
    fit=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Predict responses for a batch of query rows.

    Returns ``(y_hat, fell_back)``; the fallback flags mark rows predicted
    by their single nearest reference point because every kernel value
    underflowed.
    """
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    s_query = np.atleast_2d(np.asarray(s_query, dtype=float))
    if config.h1 is None or (config.two_kernel and config.h2 is None):
        raise InputError("bandwidths not set; tune or supply them first")
    if config.reduction_kind == "FULL":
        q = x_query
    else:
        if fit is None:
            raise InputError(f"mode {config.mode} needs a fitted reduction")
        q = np.atleast_2d(fit.reduce(x_query))
    u2 = _sq_distances(q, ref.points) / config.h1**2
    if config.two_kernel:
        u2 = u2 + _sq_distances(s_query, ref.coords) / config.h2**2
    w, fell_back = _weights_rows(u2)
    return w @ ref.responses, fell_back


def predict_tuned(mode: str, train, test, fit=None) -> np.ndarray:
    """Predict the ``test`` sample's responses with bandwidths tuned by
    leave-one-out on the ``train`` sample."""
    ref = build_reference(mode, train, fit)
    h1, h2 = loocv_bandwidths(ref, PredictorConfig(mode=mode))
    config = PredictorConfig(mode=mode, h1=h1, h2=h2)
    yhat, _ = predict_many(test.x, test.coords.points, ref, config, fit)
    return yhat


def predict(
    x_query: np.ndarray,
    s0: np.ndarray,
    ref: TrainingReference,
    config: PredictorConfig,
    fit=None,
) -> float:
    """Single-point convenience wrapper around ``predict_many``."""
    yhat, _ = predict_many(
        np.atleast_2d(x_query), np.atleast_2d(s0), ref, config, fit
    )
    return float(yhat[0])


def default_bandwidth_grid(points: np.ndarray, size: int = GRID_SIZE) -> np.ndarray:
    """Geometric grid 0.1q .. 2q with q the median pairwise distance."""
    pts = np.atleast_2d(points)
    if pts.shape[0] < 2:
        raise DegenerateGridError("need at least two points to scale a grid")
    if pts.shape[1] == 0:
        return np.array([1.0])
    d = cdist(pts, pts)
    tri = d[np.triu_indices(pts.shape[0], k=1)]
    q = float(np.median(tri))
    if q <= 0.0:
        positive = tri[tri > 0.0]
        if positive.size == 0:
            return np.array([1.0])
        q = float(np.median(positive))
    return np.geomspace(GRID_SPAN[0] * q, GRID_SPAN[1] * q, size)


def loocv_bandwidths(
    ref: TrainingReference, config: PredictorConfig
) -> tuple[float, float | None]:
    """Leave-one-out bandwidth search on the training reference.

    Scans the h1 grid (and jointly the h1 x h2 grid for two-kernel modes),
    scoring each candidate by the LOO squared prediction error; ties break
    to the smaller bandwidths, h1 first.
    """
    if ref.n < 3:
        raise InputError("leave-one-out tuning needs at least 3 points")
    h1_grid = (
        np.sort(np.asarray(config.h1_grid, dtype=float))
        if config.h1_grid is not None
        else default_bandwidth_grid(ref.points)
    )
    _validate_grid(h1_grid)
    d1 = _sq_distances(ref.points, ref.points)
    y = ref.responses

    if not config.two_kernel:
        best = None
        for h1 in h1_grid:
            err = _loo_error(d1 / h1**2, y)
            if best is None or err < best[0]:
                best = (err, float(h1))
        return best[1], None

    h2_grid = (
        np.sort(np.asarray(config.h2_grid, dtype=float))
        if config.h2_grid is not None
        else default_bandwidth_grid(ref.coords)
    )
    _validate_grid(h2_grid)
    d2 = _sq_distances(ref.coords, ref.coords)
    best = None
    for h1 in h1_grid:
        u1 = d1 / h1**2
        for h2 in h2_grid:
            err = _loo_error(u1 + d2 / h2**2, y)
            if best is None or err < best[0]:
                best = (err, float(h1), float(h2))
    return best[1], best[2]


def _validate_grid(grid: np.ndarray) -> None:
    if grid.size == 0 or np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise DegenerateGridError("bandwidth grid must be finite and positive")


def _loo_error(u2: np.ndarray, y: np.ndarray) -> float:
    """Mean squared LOO error with self-weights removed."""
    k = np.exp(-0.5 * u2)
    np.fill_diagonal(k, 0.0)
    sums = k.sum(axis=1)
    yhat = np.empty_like(y)
    ok = sums > 0.0
    yhat[ok] = (k[ok] @ y) / sums[ok]
    if np.any(~ok):
        u2_off = u2.copy()
        np.fill_diagonal(u2_off, np.inf)
        nearest = np.argmin(u2_off, axis=1)
        yhat[~ok] = y[nearest[~ok]]
    return float(np.mean((yhat - y) ** 2))
