"""Nadaraya-Watson spatial prediction over reduced or full predictors.

One-kernel weights smooth over distances in predictor (or reduction) space;
two-kernel weights multiply in a second Gaussian kernel over geographic
distance.  Both kernels are standard Gaussians ``exp(-u^2 / 2)`` and the
weight vectors are normalized to the simplex.  Bandwidths come from
leave-one-out cross-validation on the training sample; the two-kernel
search scores every (h1, h2) pair jointly because the kernels interact.
Since the product kernel factorises, the search evaluates each h1 and each
h2 kernel once per block of rows and gets every pair's weighted sums from
one batched matmul; a block of ``n // grid size`` rows keeps each kernel
stack near one n x n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

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
# Factorised LOO kernel masses below this are recomputed from the combined
# exponent, so underflow decisions match the unfactorised weights.
TINY_MASS = 1e-250


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


def default_bandwidth_grid(points: np.ndarray, size: int = GRID_SIZE) -> np.ndarray:
    """Geometric grid 0.1q .. 2q with q the median pairwise distance."""
    pts = np.atleast_2d(points)
    if pts.shape[0] < 2:
        raise DegenerateGridError("need at least two points to scale a grid")
    if pts.shape[1] == 0:
        return np.array([1.0])
    tri = pdist(pts)
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

    Scores every h1 (and, for two-kernel modes, every (h1, h2) pair) by the
    LOO squared prediction error; ties break to the smaller bandwidths, h1
    first.
    """
    if ref.n < 3:
        raise InputError("leave-one-out tuning needs at least 3 points")
    h1_grid = _search_grid(config.h1_grid, ref.points)
    d1 = _sq_distances(ref.points, ref.points)
    h2_grid = d2 = None
    if config.two_kernel:
        h2_grid = _search_grid(config.h2_grid, ref.coords)
        d2 = _sq_distances(ref.coords, ref.coords)
    yhat, _ = _loo_predictions(d1, ref.responses, h1_grid, d2, h2_grid)
    errors = np.mean((yhat - ref.responses) ** 2, axis=-1)
    # argmin takes the first minimum in C order: smaller h1, then smaller h2
    i, j = np.unravel_index(np.argmin(errors), errors.shape)
    return float(h1_grid[i]), None if h2_grid is None else float(h2_grid[j])


def _search_grid(grid: np.ndarray | None, points: np.ndarray) -> np.ndarray:
    if grid is None:
        grid = default_bandwidth_grid(points)
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0 or np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise DegenerateGridError("bandwidth grid must be finite and positive")
    return grid


def _loo_predictions(
    d1: np.ndarray, y: np.ndarray, h1_grid: np.ndarray, d2=None, h2_grid=None
) -> tuple[np.ndarray, np.ndarray]:
    """LOO predictions for every bandwidth pair, shape (h1, h2, n), and the
    flags of those made by the nearest other point because every kernel
    value underflowed.  One-kernel searches (``d2`` None) have one h2 column.

    The two-kernel weight factorises, ``exp(-(u1 + u2)/2) = exp(-u1/2)
    exp(-u2/2)``, so each block of rows evaluates each h1 and each h2 kernel
    once and a batched matmul gives every pair's weighted sums.  Blocks of
    ``n // grid size`` rows keep each kernel stack near one n x n matrix.
    Where a factorised mass is below ``TINY_MASS`` its products may have
    lost digits to underflow, so that (row, h1, h2) is recomputed from the
    combined exponent.
    """
    n = y.size
    g1 = h1_grid.size
    g2 = 1 if d2 is None else h2_grid.size
    step = max(1, n // max(g1, g2))
    k1_buf = np.empty((g1, step, n))
    # the h2 kernels, then the same kernels times y
    rhs_buf = np.empty((2 * g2, step, n))
    if d2 is None:
        rhs_buf[0], rhs_buf[1] = 1.0, y
    yhat = np.empty((g1, g2, n))
    fell_back = np.zeros((g1, g2, n), dtype=bool)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        size = rows.stop - start
        k1 = _kernels(d1[rows], h1_grid, k1_buf[:, :size])
        k1[:, np.arange(size), np.arange(start, rows.stop)] = 0.0
        rhs = rhs_buf[:, :size]
        if d2 is not None:
            k2 = _kernels(d2[rows], h2_grid, rhs[:g2])
            np.multiply(k2, y, out=rhs[g2:])
        sums = k1.transpose(1, 0, 2) @ rhs.transpose(1, 2, 0)
        mass, num = sums[..., :g2], sums[..., g2:]
        tiny = mass < TINY_MASS
        ratio = np.divide(num, mass, out=np.zeros_like(num), where=~tiny)
        yhat[:, :, rows] = ratio.transpose(1, 2, 0)
        for b, i, j in zip(*np.nonzero(tiny)):
            row = start + b
            u = d1[row] / h1_grid[i] ** 2
            if d2 is not None:
                u = u + d2[row] / h2_grid[j] ** 2
            yhat[i, j, row], fell_back[i, j, row] = _loo_row(u, row, y)
    return yhat, fell_back


def _kernels(d: np.ndarray, grid: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gaussian kernels ``exp(-d / (2 h^2))`` of rows of squared distances
    for each ``h`` in ``grid``, written to ``out`` of shape (grid, rows, n)."""
    np.divide(d, (grid**2)[:, None, None], out=out)
    out *= -0.5
    return np.exp(out, out=out)


def _loo_row(u2: np.ndarray, row: int, y: np.ndarray) -> tuple[float, bool]:
    """LOO prediction of one row from its combined squared scaled distances,
    by its nearest other point when the kernel mass underflows to zero."""
    k = np.exp(-0.5 * u2)
    k[row] = 0.0
    mass = k.sum()
    if mass > 0.0:
        return (k @ y) / mass, False
    u2[row] = np.inf
    return y[np.argmin(u2)], True
