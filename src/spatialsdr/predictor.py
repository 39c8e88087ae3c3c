"""Nadaraya-Watson spatial prediction over reduced or full predictors.

One-kernel weights smooth over distances in predictor (or reduction) space;
two-kernel weights multiply in a second Gaussian kernel over geographic
distance.  Both kernels are standard Gaussians ``exp(-u^2 / 2)`` and the
weight vectors are normalized to the simplex.  Bandwidths come from
leave-one-out cross-validation on the training sample; the two-kernel
search scores every (h1, h2) pair jointly because the kernels interact.
Every reference of one training sample (one per reduction kind and rank)
is tuned in one shared pass over blocks of ``n // grid size`` rows: since
the product kernel factorises, each block evaluates the h2 kernels once for
all references and each reference's h1 kernels once, and one batched matmul
per reference gives its one- and two-kernel weighted sums together.  Every
block reuses one buffer each for its kernels, right-hand sides, sums and
predictions, about three n x n matrices in all, and adds its squared errors
straight into per-bandwidth sums.  A reference is the training ``SpatialSample`` in its mode's
predictor space, reduced unless the mode is FULL, and one rule, ``_nadaraya_watson``, predicts
from squared scaled distances to it: every query, and each LOO row whose factorised mass is tiny.
``dimension.fit_and_predict`` fits the reductions the references are built from; the search
scans the ``default_bandwidth_grid`` of each set of points or coordinates it smooths over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SpatialSample
from .exceptions import DegenerateGridError, InputError, SpatialSdrError
from .geometry import median_distance, sq_distances

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
    """Prediction mode plus bandwidths."""

    mode: str
    h1: float | None = None
    h2: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InputError(f"unknown predictor mode {self.mode!r}")
        for h in (self.h1, self.h2):
            if h is not None and not h > 0.0:
                raise InputError("bandwidths must be strictly positive")

    @property
    def two_kernel(self) -> bool:
        return self.mode.startswith("2k")


def build_reference(mode: str, train: SpatialSample, fit=None) -> SpatialSample:
    """``train`` itself for a FULL mode, else a sample of its coordinates and responses with its
    predictors reduced by ``fit``: ``SpatialSample``'s ``InputError`` if a value is not finite."""
    if mode.endswith(".FULL"):
        return train
    return SpatialSample(train.coords, _reduced(mode, train.x, fit), train.y)


def _reduced(mode: str, x: np.ndarray, fit) -> np.ndarray:
    if mode.endswith(".FULL"):
        return x
    if fit is None:
        raise InputError(f"mode {mode} needs a fitted reduction")
    return np.atleast_2d(fit.reduce(x))


def predict_many(
    x_query: np.ndarray,
    s_query: np.ndarray,
    ref: SpatialSample,
    config: PredictorConfig,
    fit=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Predict responses for a batch of query rows, the two-kernel modes with one location row of
    ``s_query`` per predictor row: ``_nadaraya_watson``'s ``(y_hat, fell_back)``, the flags marking
    rows predicted by their nearest reference point because every kernel value underflowed."""
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    s_query = np.atleast_2d(np.asarray(s_query, dtype=float))
    if config.two_kernel and len(x_query) != len(s_query):
        raise InputError(f"{len(x_query)} predictor rows but {len(s_query)} location rows")
    if config.h1 is None or (config.two_kernel and config.h2 is None):
        raise InputError("bandwidths not set; tune or supply them first")
    u2 = sq_distances(_reduced(config.mode, x_query, fit), ref.x)
    u2 /= config.h1**2  # each step in place: the same operations in the same order
    if config.two_kernel:
        d2 = sq_distances(s_query, ref.coords.points)
        u2 += np.divide(d2, config.h2**2, out=d2)
    return _nadaraya_watson(u2, ref.y)


def _nadaraya_watson(u2: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nadaraya-Watson predictions from rows of combined squared scaled distances ``u2`` to the
    points of responses ``y``, and each row's fallback flag: a row whose every kernel value
    underflowed takes its nearest point's response.  An infinite distance leaves a point out."""
    k = -0.5 * u2
    np.exp(k, out=k)
    fell_back = k.sum(axis=1) <= 0.0
    rows = np.flatnonzero(fell_back)  # every kernel value zero: the nearest point alone
    k[rows, np.argmin(u2[rows], axis=1)] = 1.0
    return np.divide(k, k.sum(axis=1)[:, None], out=k) @ y, fell_back


def default_bandwidth_grid(points: np.ndarray) -> np.ndarray:
    """Ascending geometric grid 0.1q .. 2q for q the ``geometry.median_distance`` between the rows
    of ``points``, taken from their squared distances; ``[1]`` when no distance is positive.  It is
    each h1 grid and, from the coordinates, the h2 grid of a search, and the one place a bandwidth
    grid is made: ``DegenerateGridError`` for fewer than two points or a non-finite q."""
    pts = np.atleast_2d(points)
    if pts.shape[0] < 2:
        raise DegenerateGridError("need at least two points to scale a grid")
    q = median_distance(sq_distances(pts, pts), squared=True)
    if not np.isfinite(q):
        raise DegenerateGridError(f"bandwidth grid needs a finite median distance, got {q}")
    return np.array([1.0]) if q <= 0.0 else np.geomspace(GRID_SPAN[0] * q, GRID_SPAN[1] * q, GRID_SIZE)


@dataclass(frozen=True)
class LooSearch:
    """One reference's LOO mean squared errors, shape (h1, h2 + 1): column ``j <
    h2`` pairs each h1 with ``h2_grid[j]``, the last is the one-kernel search.
    ``fell_back``, of the same shape, counts the points predicted by the
    nearest other point because every kernel value underflowed."""

    h1_grid: np.ndarray
    h2_grid: np.ndarray
    fell_back: np.ndarray
    errors: np.ndarray

    def bandwidths(self, two_kernel: bool) -> tuple[float, float | None]:
        """The least-error bandwidths; ``np.argmin`` takes the first minimum
        in C order, so ties break to the smaller h1, then the smaller h2."""
        if two_kernel and not self.h2_grid.size:
            raise InputError("a one-kernel search has no two-kernel bandwidths")
        if not two_kernel:
            return float(self.h1_grid[np.argmin(self.errors[:, -1])]), None
        i, j = np.unravel_index(np.argmin(self.errors[:, :-1]), self.errors[:, :-1].shape)
        return float(self.h1_grid[i]), float(self.h2_grid[j])


def loo_search(refs: list, two_kernel: bool = True) -> list:
    """A ``LooSearch`` for each of ``refs``, which share one training sample, over the
    ``default_bandwidth_grid`` of the reference's points and (if ``two_kernel``) the h2 grid of
    the coordinates they share, so the search scales its own grids.  A reference whose grid is
    degenerate, or every one when n < 3, holds the error instead.

    One pass over blocks of ``n // grid size`` rows, which keep each kernel
    stack near one n x n matrix, serves all references.  The product kernel
    factorises, ``exp(-(u1 + u2)/2) = exp(-u1/2) exp(-u2/2)``, so a block
    evaluates the h2 kernels once and each reference's h1 kernels once, and
    one batched matmul per reference against ``[k2, 1, k2 y, y]`` gives every
    (h1, h2) pair's and every one-kernel h1's mass and weighted sum.  The
    kernels, the right-hand sides, the sums and the predictions of every block
    overwrite one buffer each, and each block's squared errors are added to
    ``errors``, divided by n after the last block.  A mass below ``TINY_MASS``
    may have lost digits to underflow in the products, so that (row, h1, h2)
    is recomputed by ``_nadaraya_watson`` from the combined exponent, the held-out
    point at an infinite distance; a block whose masses all clear it skips that scan.
    """
    if not refs:
        return []
    y, coords, n = refs[0].y, refs[0].coords.points, refs[0].n
    if not all(np.array_equal(r.y, y) and np.array_equal(r.coords.points, coords) for r in refs):
        raise InputError("references must share one training sample")
    if n < 3:
        return [InputError("leave-one-out tuning needs at least 3 points")] * len(refs)
    h2_grid = default_bandwidth_grid(coords) if two_kernel else np.empty(0)
    g2 = h2_grid.size
    found, live = [], []
    for ref in refs:
        try:
            grid = default_bandwidth_grid(ref.x)
        except DegenerateGridError as exc:
            found.append(exc)
            continue
        shape = (grid.size, g2 + 1)
        found.append(LooSearch(grid, h2_grid, np.zeros(shape, int), np.zeros(shape)))
        live.append((ref.x, found[-1]))
    if live:
        _loo_pass(live, y, coords, h2_grid)
    return found


def _loo_pass(live: list, y: np.ndarray, coords: np.ndarray, h2_grid: np.ndarray) -> None:
    """``errors`` and ``fell_back`` of each ``(points, LooSearch)`` in ``live``, in one pass
    over blocks of rows that writes the kernels, the right-hand sides, the weighted sums and
    the predictions of every block into the same four buffers, freed on return."""
    n, g2 = y.size, h2_grid.size
    g1 = max(s.h1_grid.size for _, s in live)
    step = max(1, n // max(g1, g2))
    k1_buf = np.empty((g1, step, n))
    # the h2 kernels, ones, the same kernels times y, then y
    rhs_buf = np.empty((2 * g2 + 2, step, n))
    rhs_buf[g2], rhs_buf[-1] = 1.0, y
    sums_buf = np.empty(step * g1 * (2 * g2 + 2))
    pred_buf = np.empty(step * g1 * (g2 + 1))
    diag = np.arange(n)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        size = rows.stop - start
        rhs = rhs_buf[:, :size]
        if g2:
            d2 = sq_distances(coords[rows], coords)
            np.multiply(_kernels(d2, h2_grid, rhs[:g2]), y, out=rhs[g2 + 1 : -1])
        for pts, s in live:
            d1 = sq_distances(pts[rows], pts)
            k1 = _kernels(d1, s.h1_grid, k1_buf[: s.h1_grid.size, :size])
            k1[:, diag[:size], diag[rows]] = 0.0
            sums = sums_buf[: size * k1.shape[0] * rhs.shape[0]].reshape(size, k1.shape[0], -1)
            np.matmul(k1.transpose(1, 0, 2), rhs.transpose(1, 2, 0), out=sums)
            mass, num = sums[..., : g2 + 1], sums[..., g2 + 1 :]
            pred = pred_buf[: mass.size].reshape(mass.shape)
            with np.errstate(divide="ignore", invalid="ignore"):  # tiny masses are redone below
                np.divide(num, mass, out=pred)
            if mass.min() < TINY_MASS:
                for b, i, j in zip(*np.nonzero(mass < TINY_MASS)):
                    u = d1[b] / s.h1_grid[i] ** 2 + (d2[b] / h2_grid[j] ** 2 if j < g2 else 0.0)
                    u[start + b] = np.inf  # the held-out point
                    (pred[b, i, j],), (fell,) = _nadaraya_watson(u[None], y)
                    s.fell_back[i, j] += fell
            pred -= y[rows, None, None]
            s.errors[...] += np.square(pred, out=pred).sum(axis=0)
    for _, s in live:
        s.errors[...] /= n


def loocv_bandwidths(ref: SpatialSample, config: PredictorConfig) -> tuple[float, float | None]:
    """Leave-one-out bandwidth search on the training reference for ``config``'s
    mode, ``loo_search`` of it alone over the default grids: ties break to the
    smaller bandwidths, h1 first."""
    [search] = loo_search([ref], config.two_kernel)
    if isinstance(search, SpatialSdrError):
        raise search
    return search.bandwidths(config.two_kernel)


def _kernels(d: np.ndarray, grid: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gaussian kernels ``exp(-d / (2 h^2))`` of rows of squared distances
    for each ``h`` in ``grid``, written to ``out`` of shape (grid, rows, n)."""
    np.divide(d, (-2.0 * grid**2)[:, None, None], out=out)  # as -0.5 * (d / h^2): 2 is exact
    return np.exp(out, out=out)
