"""Planar coordinates, distances, and the two spatial association structures.

Geostatistical association uses an exponential correlation matrix
``exp(-decay * distance)``; lattice association uses a column-normalized
distance-threshold neighbor matrix ``W`` together with the autoregressive
filter ``I - coef * W``.  All operations are pure functions of their inputs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

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

    @cached_property
    def distances(self) -> DistanceMatrix:
        """``pairwise_distances`` of these locations, computed once for every fit of them;
        ``dimension.fit_and_predict`` drops it from ``vars`` once its fits are made."""
        return pairwise_distances(self)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric Euclidean distance matrix with an exactly-zero diagonal."""

    dist: np.ndarray

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def tri(self) -> np.ndarray:
        """The entries above the diagonal in ``pdist``'s condensed order (pairs i < j, row
        by row), gathered afresh: keeping ``pdist``'s own vector would hold n^2 / 2 more
        floats for as long as the matrix lives."""
        return squareform(self.dist, checks=False)


@dataclass(frozen=True)
class ExpCorrelation:
    """Exponential correlation matrix ``exp(-decay * distance)``.

    ``chol`` is the lower Cholesky factor (``chol @ chol.T = matrix``) of
    the (possibly jittered) matrix, so downstream whitening does not repeat it.
    ``matrix`` is None where the factor was computed in the matrix's own buffer.
    """

    decay: float
    matrix: np.ndarray | None
    chol: np.ndarray = field(repr=False)

    @property
    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


@dataclass(frozen=True)
class NeighborWeights:
    """Column-normalized adjacency from a distance threshold."""

    matrix: np.ndarray
    threshold: float


def pairwise_distances(coords: Coordinates) -> DistanceMatrix:
    """Euclidean distances between all location pairs.

    Raises ``DuplicatePointsError`` naming the first coinciding pair ``i < j`` in
    row order, which ``pdist``'s condensed order (pairs ``i < j``, row by row) keeps.
    """
    tri = pdist(coords.points)
    if tri.min() <= 0.0:
        i, j = (int(ij[np.argmin(tri)]) for ij in np.triu_indices(coords.n, 1))
        raise DuplicatePointsError(f"locations {i} and {j} coincide")
    return DistanceMatrix(squareform(tri))


def exp_correlation(dist: DistanceMatrix, decay: float) -> ExpCorrelation:
    """Exponential correlogram ``exp(-decay * d_ij)`` as a dense matrix.

    ``_linalg.pd_cholesky`` certifies ``H`` above the eigenvalue floor, or
    jitters it by the shared policy, and factors the matrix returned.
    """
    if not decay > 0.0:
        raise NonPositiveDecayError(f"decay rate must be > 0, got {decay}")
    chol, h = pd_cholesky(exp_matrix(dist, decay), NearSingularCorrelationError)
    return ExpCorrelation(decay=float(decay), matrix=h, chol=chol)


def exp_correlations(dist: DistanceMatrix, decays: Sequence[float]) -> Iterator[ExpCorrelation]:
    """``exp_correlation`` at each of the ascending ``decays``, factored once after the
    first decay whose certificate passes with the margin ``2 n (2 + max(decays) max D)
    eps``: ``n`` times the entrywise rounding bound, for each of two matrices.  As
    ``exp(-b D) = exp(-a D) o exp(-(b - a) D)``, both factors PD with unit diagonal,
    ``lambda_min`` does not fall from ``a`` to ``b > a`` (Schur 1911; Horn & Johnson,
    Topics in Matrix Analysis, 5.3).  A ``pd_eigh`` pass or a jitter is not carried.

    Each decay's matrix is built in a buffer of its own, which a certified decay's
    Cholesky factor then overwrites, so the items carry ``matrix=None``."""
    margin = 2 * dist.n * (2.0 + max(decays) * dist.dist.max()) * np.finfo(float).eps
    certified = np.inf  # the smallest decay certified with the margin
    for decay in decays:
        h = exp_matrix(dist, decay)
        if decay >= certified:
            chol = cholesky(h, lower=True, overwrite_a=True, check_finite=False)
        else:
            chol, used = pd_cholesky(h, NearSingularCorrelationError, margin)
            certified = decay if used is h else certified
        yield ExpCorrelation(decay=float(decay), matrix=None, chol=chol)


def exp_matrix(dist: DistanceMatrix, decay: float) -> np.ndarray:
    """``exp(-decay * dist)`` built in one fresh buffer, returned in LAPACK's column-major
    layout as its transpose, the same matrix since ``dist`` is symmetric."""
    h = np.multiply(dist.dist, -decay)
    return np.exp(h, out=h).T


def sorted_median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-d array without NaNs, bit for bit: the lower middle
    value from one partition, averaged with the least value above it when the size is even.
    A zero median takes ``np.median`` itself, since the sign of a zero depends on where each
    partition puts the zeros."""
    k = (values.size - 1) // 2
    part = np.partition(values, k)
    median = part[k] if values.size % 2 else (part[k] + part[k + 1 :].min()) / 2.0
    return float(median) if median != 0.0 else float(np.median(values))


def max_min_distance(dist: DistanceMatrix) -> float:
    """Largest nearest-neighbor distance: the smallest threshold at which
    every location still has at least one neighbor."""
    n = dist.n
    # each row's minima before, at and after the diagonal: one reduceat of the flat matrix
    # cut at i*n, i*(n+1) and i*(n+1)+1, less the empty first two and last pieces
    cuts = (np.arange(n)[:, None] * [n, n + 1, n + 1] + [0, 0, 1]).ravel()[2:-1]
    mins = np.concatenate([[np.inf, 0.0], np.minimum.reduceat(dist.dist.ravel(), cuts), [np.inf]])
    return float(np.minimum(mins[0::3], mins[2::3]).max())


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
    adj /= col_sums
    return NeighborWeights(matrix=adj, threshold=float(threshold))


def spatial_filter(weights: NeighborWeights, coef: float) -> np.ndarray:
    """The autoregressive filter ``I - coef * W``, verified invertible.

    For a column-normalized ``W`` the spectral radius is at most one, so any
    ``|coef| < 1`` is safe.  With ``q = |coef| * ||W||_1 < 1`` the Neumann
    series bounds the 1-norm condition number by ``(1 + q) / (1 - q)``; the
    explicit ``cond``, which forms an inverse and is ``inf`` for an exactly
    singular filter, runs only when that bound does not clear the limit by a
    wide margin.
    """
    wt = np.abs(weights.matrix)
    q = abs(coef) * wt.sum(axis=0).max()
    # I - coef W in the same buffer, bit for bit: 0 - x off the diagonal, 1 + (0 - x) = 1 - x on it
    np.subtract(0.0, np.multiply(weights.matrix, coef, out=wt), out=wt)
    wt.flat[:: len(wt) + 1] += 1.0
    if not (q < 1.0 and (1.0 + q) / (1.0 - q) <= 1e12):
        cond = np.linalg.cond(wt, 1)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularFilterError(
                f"I - {coef} * W is numerically singular (cond ~ {cond:.2e})"
            )
    return wt
