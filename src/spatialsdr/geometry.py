"""Planar coordinates, distances, and the two spatial association structures.

Distances are plain n x n arrays owned by their caller: ``dimension._fit_kinds`` for a training
sample's fits, ``predictor.loo_search`` for its grids; ``median_distance`` scales every default
grid.  Geostatistical association uses an exponential correlation matrix ``exp(-decay *
distance)``, handed on as plain arrays with its Cholesky factor first; lattice association uses
the filter ``I - coef W`` for ``W = A D^{-1}``, the ``neighbor_graph`` ``(A, D)``, which the SEM
draw and fit use as it is (``neighbor_weights`` and ``spatial_filter`` build the dense ``W`` and
filter).  All operations are pure functions of their inputs.

Distances come from ``sq_distances`` and factors from the LAPACK numpy calls (``_linalg``), so
the package loads numpy alone: ``scipy.linalg`` would add about 28 MB and 0.13 s to every process.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ._linalg import EIG_FLOOR, _jittered, certify_in_place, cholesky_in_place, pd_cholesky
from .exceptions import (
    DuplicatePointsError,
    InputError,
    IsolatedPointError,
    NearSingularCorrelationError,
    NonPositiveDecayError,
    SingularFilterError,
)


@dataclass(frozen=True)
class Coordinates:
    """n x 2 matrix of at least two finite planar sample locations, and nothing else: callers take
    their distances from ``pairwise_distances`` or ``sq_distances``."""

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


def pairwise_distances(coords: Coordinates) -> np.ndarray:
    """Euclidean distances between all location pairs: symmetric, with an exactly-zero diagonal.

    Raises ``DuplicatePointsError`` naming the first coinciding pair ``i < j`` in row order.
    """
    dist = sq_distances(coords.points, coords.points)
    np.sqrt(dist, out=dist)
    if np.count_nonzero(dist == 0.0) > coords.n:  # the diagonal's zeros are exact
        i, j = np.argwhere(np.triu(dist == 0.0, 1))[0]
        raise DuplicatePointsError(f"locations {i} and {j} coincide")
    return dist


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``b``.  One or two features:
    SciPy's ``cdist`` bit for bit, in row blocks; else one BLAS product of the rows centred on
    ``b``'s mean, clamped at 0, within a few eps of the in-order sum and several times faster."""
    if not 0 < a.shape[1] <= 2:  # with no features, exact zeros: a rank-0 reduction's rows coincide
        a, b = a - b.mean(axis=0), b - b.mean(axis=0)
        sq = a @ b.T
        sq *= -2.0  # in place: a fresh n x n temporary costs more than the product
        sq += np.einsum("ij,ij->i", a, a)[:, None]
        sq += np.einsum("ij,ij->i", b, b)
        return np.maximum(sq, 0.0, out=sq)
    at, bt = np.ascontiguousarray(a.T)[:, :, None], np.ascontiguousarray(b.T)[:, None, :]
    sq = np.empty((len(a), len(b)))
    step = max(1, 2**14 // len(b))  # rows per block: 128 kB of differences per feature
    diff = np.empty((a.shape[1], min(step, len(a)), len(b)))
    for start in range(0, len(a), step):
        rows, d = sq[start : start + step], diff[:, : min(step, len(a) - start)]
        np.square(np.subtract(at[:, start : start + step], bt, out=d), out=d)
        np.add(d[0], d[1] if len(d) > 1 else 0.0, out=rows)  # one feature: + 0, exactly
    return sq


def exp_correlation(dist: np.ndarray, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponential correlogram ``H = exp(-decay * d_ij)`` as ``(L, H)``: ``_linalg.pd_cholesky``
    certifies ``H`` above the eigenvalue floor, or jitters it by the shared policy, and returns the
    lower Cholesky factor ``L`` (``L L' = H``) of the matrix ``H`` it returns."""
    check_decay(decay)
    h = np.multiply(dist, -decay)
    return pd_cholesky(np.exp(h, out=h), NearSingularCorrelationError)


def exp_correlations(
    dist: np.ndarray, decays: Sequence[float], border: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``exp_correlation``'s factor at each of the ascending ``decays``, certified until the
    first decay whose certificate passes with the margin ``2 n (2 + max(decays) max D) eps``:
    ``n`` times the entrywise rounding bound, for each of two matrices.  As ``exp(-b D) =
    exp(-a D) o exp(-(b - a) D)``, both factors PD with unit diagonal, ``lambda_min`` does
    not fall from ``a`` to ``b > a`` (Schur 1911; Horn & Johnson, Topics in Matrix Analysis,
    5.3), so each later decay takes one Cholesky alone.  An eigenvalue pass or a jitter is
    not carried.

    Each decay factors ``H`` with the n x k ``border`` ``Z`` bordered on, ``[[H, Z], [Z',
    s I]]`` for ``s = 2 ||Z||_F^2 / EIG_FLOOR``: its Schur complement ``s I - Z' H^{-1} Z``
    is at least ``s / 2`` whenever ``lambda_min(H) >= EIG_FLOOR``, so the factor exists, and
    its top-left block is ``L`` and its bottom-left block ``(L^{-1} Z)'``, whatever ``s``.
    One factorisation thus gives each item ``(chol, rows)``: ``L`` and the whitened ``L^{-1} Z``.
    The bordered matrix is built once and factored in place, as is each certificate's shifted ``H``
    in its top-left block, so an item's ``chol`` views that block, only its lower triangle holds
    ``L``, and it holds only until the next item is drawn."""
    for decay in decays:  # every one before the first factor
        check_decay(decay)
    n, k = border.shape
    margin = 2 * n * (2.0 + max(decays) * dist.max()) * np.finfo(float).eps
    bordered = np.empty((n + k, n + k), order="F")  # dpotrf reads its lower triangle alone
    corner = np.eye(k) * (2.0 * np.sum(border * border) / EIG_FLOOR)
    h, certified = bordered[:n, :n], np.inf  # certified: the smallest decay certified with the margin
    for decay in decays:
        if decay < certified:
            np.exp(np.multiply(dist, -decay, out=h.T), out=h.T)
            certified = decay if certify_in_place(bordered, n, margin) else certified
        np.exp(np.multiply(dist, -decay, out=h.T), out=h.T)  # h.T: row-major, as is D
        if decay < certified:  # the certificate failed
            h[...] = _jittered(h, NearSingularCorrelationError)
        bordered[n:, :n], bordered[n:, n:] = border.T, corner  # the factor of the last decay overwrote them
        if not cholesky_in_place(bordered):  # pragma: no cover - the policy's floor passed
            raise NearSingularCorrelationError("Matrix is not positive definite")
        # C-ordered rows, as numpy's factor gave them, so rows.T @ rows takes the same BLAS call
        yield h, np.ascontiguousarray(bordered[n:, :n]).T


def check_decay(decay: float) -> None:
    """Reject a decay outside (0, inf): ``NonPositiveDecayError`` at one not > 0, NaN too, and
    ``InputError`` at +inf, whose correlation matrix has the NaN diagonal ``exp(-inf * 0)``."""
    if not decay > 0.0:
        raise NonPositiveDecayError(f"decay rate must be > 0, got {decay}")
    if decay == np.inf:
        raise InputError(f"decay rate must be finite, got {decay}")


def median_distance(m: np.ndarray, squared: bool = False) -> float:
    """``np.median`` of the distances above the diagonal of the square ``m``, or of the positive
    ones when that is 0; 0 when none is positive.  With ``squared`` only the middle values of the
    squares are rooted: ``sqrt`` is monotone and correctly rounded, so that is the median of the
    roots bit for bit.  The pairs are gathered once and partitioned in place at the lower middle
    alone; the partition sorts a NaN after it, which gives NaN as in ``np.median``, and an even
    count's upper middle is the least value after it."""
    pairs = m[~np.tri(len(m), dtype=bool)]
    while pairs.size:
        k = (pairs.size - 1) // 2
        pairs.partition(k)
        if np.isnan(pairs[k:].max()):
            return float("nan")
        middle = pairs[k : k + 1] if pairs.size % 2 else np.array([pairs[k], pairs[k + 1 :].min()])
        median = float((np.sqrt(middle) if squared else middle).mean())  # np.median's mean
        if median != 0.0:
            return median
        pairs = pairs[pairs > 0.0]
    return 0.0


def max_min_distance(dist: np.ndarray) -> float:
    """Largest nearest-neighbor distance: the smallest threshold at which
    every location still has at least one neighbor."""
    n = len(dist)
    # each row's minima before, at and after the diagonal: one reduceat of the flat matrix
    # cut at i*n, i*(n+1) and i*(n+1)+1, less the empty first two and last pieces
    cuts = (np.arange(n)[:, None] * [n, n + 1, n + 1] + [0, 0, 1]).ravel()[2:-1]
    mins = np.concatenate([[np.inf, 0.0], np.minimum.reduceat(dist.ravel(), cuts), [np.inf]])
    return float(np.minimum(mins[0::3], mins[2::3]).max())


def neighbor_graph(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The SEM lattice ``(A, D)``: the boolean adjacency ``A`` at ``distance <= max_min_distance``
    (ties included) with a zero diagonal, and its degrees ``D`` as floats, each at least 1 by
    the threshold's choice; ``W = A D^{-1}`` is ``neighbor_weights`` at that threshold."""
    adj = dist <= max_min_distance(dist)
    np.fill_diagonal(adj, False)
    return adj, adj.sum(axis=0, dtype=float)


def neighbor_weights(dist: np.ndarray, threshold: float) -> np.ndarray:
    """Binary adjacency at ``distance <= threshold`` (ties included), zero
    diagonal, each column normalized to sum to one: the dense ``W``.

    Raises ``IsolatedPointError`` when some location has no neighbor.
    """
    adj = (dist <= threshold).astype(float)
    np.fill_diagonal(adj, 0.0)
    col_sums = adj.sum(axis=0)
    if np.any(col_sums == 0.0):
        lone = int(np.argmax(col_sums == 0.0))
        raise IsolatedPointError(
            f"location {lone} has no neighbor within threshold {threshold}"
        )
    adj /= col_sums
    return adj


def spatial_filter(weights: np.ndarray, coef: float) -> np.ndarray:
    """The autoregressive filter ``I - coef * W`` for ``W = weights``, verified invertible.

    For a column-normalized ``W`` the spectral radius is at most one, so any
    ``|coef| < 1`` is safe.  With ``q = |coef| * ||W||_1 < 1`` the Neumann
    series bounds the 1-norm condition number by ``(1 + q) / (1 - q)``; the
    explicit ``cond``, which forms an inverse and is ``inf`` for an exactly
    singular filter, runs only when that bound does not clear the limit by a
    wide margin.
    """
    wt = np.abs(weights)
    q = abs(coef) * wt.sum(axis=0).max()
    # I - coef W in the same buffer, bit for bit: 0 - x off the diagonal, 1 + (0 - x) = 1 - x on it
    np.subtract(0.0, np.multiply(weights, coef, out=wt), out=wt)
    wt.flat[:: len(wt) + 1] += 1.0
    if not (q < 1.0 and (1.0 + q) / (1.0 - q) <= 1e12):
        cond = np.linalg.cond(wt, 1)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularFilterError(
                f"I - {coef} * W is numerically singular (cond ~ {cond:.2e})"
            )
    return wt
