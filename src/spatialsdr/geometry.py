"""Planar coordinates, distances, and the two spatial association structures.

Geostatistical association uses an exponential correlation matrix
``exp(-decay * distance)``; lattice association uses a column-normalized
distance-threshold neighbor matrix ``W`` together with the autoregressive
filter ``I - coef * W``.  All operations are pure functions of their inputs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky
from scipy.spatial.distance import pdist, squareform

from ._linalg import pd_cholesky
from .exceptions import (
    DuplicatePointsError,
    InputError,
    IsolatedPointError,
    NearSingularCorrelationError,
    NonPositiveDecayError,
    SingularFilterError,
)

COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Coordinates:
    """n x 2 matrix of planar sample locations."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InputError(f"coordinates must be n x 2, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise InputError("need at least two locations")
        if not np.all(np.isfinite(pts)):
            raise InputError("coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric Euclidean distance matrix with an exactly-zero diagonal."""

    dist: np.ndarray

    @property
    def n(self) -> int:
        return self.dist.shape[0]


@dataclass(frozen=True)
class ExpCorrelation:
    """Exponential correlation matrix ``exp(-decay * distance)``.

    ``chol`` is the lower Cholesky factor (``chol @ chol.T = matrix``) of
    the (possibly jittered) matrix, so downstream whitening does not repeat it.
    """

    decay: float
    matrix: np.ndarray
    chol: np.ndarray = field(repr=False)

    @property
    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


@dataclass(frozen=True)
class NeighborWeights:
    """Column-normalized adjacency from a distance threshold."""

    matrix: np.ndarray
    threshold: float


@dataclass(frozen=True)
class SpatialFilter:
    """Autoregressive filter ``I - coef * W`` with its log|det| cached."""

    coef: float
    matrix: np.ndarray
    log_abs_det: float


def pairwise_distances(coords: Coordinates) -> DistanceMatrix:
    """Euclidean distances between all location pairs.

    Raises ``DuplicatePointsError`` when two locations coincide.
    """
    dist = squareform(pdist(coords.points))
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    if masked.min() <= 0.0:
        i, j = divmod(int(np.argmin(masked)), coords.n)
        raise DuplicatePointsError(f"locations {i} and {j} coincide")
    return DistanceMatrix(dist)


def exp_correlation(dist: DistanceMatrix, decay: float) -> ExpCorrelation:
    """Exponential correlogram ``exp(-decay * d_ij)`` as a dense matrix.

    ``_linalg.pd_cholesky`` certifies ``H`` above the eigenvalue floor, or
    jitters it by the shared policy, and factors the matrix returned.
    """
    if not decay > 0.0:
        raise NonPositiveDecayError(f"decay rate must be > 0, got {decay}")
    chol, h = pd_cholesky(np.exp(-decay * dist.dist), NearSingularCorrelationError)
    return ExpCorrelation(decay=float(decay), matrix=h, chol=chol)


def exp_correlations(dist: DistanceMatrix, decays: Sequence[float]) -> Iterator[ExpCorrelation]:
    """``exp_correlation`` at each of the ascending ``decays``, factored once after the
    first decay whose certificate passes with the margin ``2 n (2 + max(decays) max D)
    eps``: ``n`` times the entrywise rounding bound, for each of two matrices.  As
    ``exp(-b D) = exp(-a D) o exp(-(b - a) D)``, both factors PD with unit diagonal,
    ``lambda_min`` does not fall from ``a`` to ``b > a`` (Schur 1911; Horn & Johnson,
    Topics in Matrix Analysis, 5.3).  A ``pd_eigh`` pass or a jitter is not carried."""
    margin = 2 * dist.n * (2.0 + max(decays) * dist.dist.max()) * np.finfo(float).eps
    certified = np.inf  # the smallest decay certified with the margin
    for decay in decays:
        h = np.exp(-decay * dist.dist)
        if decay >= certified:
            chol = cholesky(h, lower=True, check_finite=False)
        else:
            chol, used = pd_cholesky(h, NearSingularCorrelationError, margin)
            certified, h = (decay if used is h else certified), used
        yield ExpCorrelation(decay=float(decay), matrix=h, chol=chol)


def sorted_median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-d array without NaNs, bit for bit: ``np.mean`` of its
    middle one or two after one sort, which beats the median's partition on pairwise distances."""
    return float(np.mean(np.sort(values)[(values.size - 1) // 2 : values.size // 2 + 1]))


def max_min_distance(dist: DistanceMatrix) -> float:
    """Largest nearest-neighbor distance: the smallest threshold at which
    every location still has at least one neighbor."""
    d = dist.dist + np.diag(np.full(dist.n, np.inf))
    return float(d.min(axis=1).max())


def neighbor_weights(dist: DistanceMatrix, threshold: float) -> NeighborWeights:
    """Binary adjacency at ``distance <= threshold`` (ties included), zero
    diagonal, each column normalized to sum to one.

    Raises ``IsolatedPointError`` when some location has no neighbor.
    """
    adj = (dist.dist <= threshold).astype(float)
    np.fill_diagonal(adj, 0.0)
    col_sums = adj.sum(axis=0)
    if np.any(col_sums == 0.0):
        lone = int(np.argmax(col_sums == 0.0))
        raise IsolatedPointError(
            f"location {lone} has no neighbor within threshold {threshold}"
        )
    return NeighborWeights(matrix=adj / col_sums, threshold=float(threshold))


def spatial_filter(weights: NeighborWeights, coef: float) -> SpatialFilter:
    """Build ``I - coef * W`` and verify invertibility.

    For a column-normalized ``W`` the spectral radius is at most one, so any
    ``|coef| < 1`` is safe; the determinant check catches the rest.  With
    ``q = |coef| * ||W||_1 < 1`` the Neumann series bounds the 1-norm
    condition number by ``(1 + q) / (1 - q)``; the explicit ``cond``, which
    forms an inverse, runs only when that bound does not clear the limit by
    a wide margin.
    """
    n = weights.matrix.shape[0]
    wt = np.eye(n) - coef * weights.matrix
    sign, log_abs_det = np.linalg.slogdet(wt)
    if sign == 0.0 or not np.isfinite(log_abs_det):
        raise SingularFilterError(f"I - {coef} * W is singular")
    q = abs(coef) * np.abs(weights.matrix).sum(axis=0).max()
    if not (q < 1.0 and (1.0 + q) / (1.0 - q) <= 1e12):
        cond = np.linalg.cond(wt, 1)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularFilterError(
                f"I - {coef} * W is numerically singular (cond ~ {cond:.2e})"
            )
    return SpatialFilter(coef=float(coef), matrix=wt, log_abs_det=float(log_abs_det))
