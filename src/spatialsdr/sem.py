"""Autoregressive-error model: neighbor-lagged errors on a lattice.

Errors follow ``E = coef * W E + U`` with independent rows of ``U``, so
left-multiplying by the filter ``Wt = I - coef * W`` whitens the rows.
Because a column-normalized ``W`` is generally asymmetric, the quadratic
form is defined through ``Wt' Wt`` (a true Gaussian log-density either
way), which matches the symmetric-``W`` algebra exactly.  Profiling out
the mean uses the generalized centering

    Wc = I - 1 (1' Wt'Wt 1)^{-1} 1' Wt'Wt,
    x_bar = Wt Wc X,   f_bar = Wt Wc F,

and the likelihood carries ``+ p log|det Wt|``.  The lag coefficient is
profiled over a grid on (-1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, FittedBasis, build_f
from .data import SpatialSample
from .exceptions import EmptyGridError, InputError
from .geometry import (
    NeighborWeights,
    SpatialFilter,
    max_min_distance,
    neighbor_weights,
    pairwise_distances,
    spatial_filter,
)
from .rrr import RrrEstimate, WhitenedData, _profile_grid, apply_reduction, raise_failure

DEFAULT_GRID = np.round(np.arange(-0.95, 0.951, 0.05), 2)


def default_lag_grid() -> np.ndarray:
    """-0.95 .. 0.95 in steps of 0.05 (39 points)."""
    return DEFAULT_GRID.copy()


def whiten_sem(x: np.ndarray, f: np.ndarray, filt: SpatialFilter) -> WhitenedData:
    """Generalized centering under ``Wt'Wt`` weights, then the filter map."""
    wt = filt.matrix
    ones = np.ones(x.shape[0])
    wt_1 = wt @ ones
    m_1 = wt.T @ wt_1  # (Wt'Wt) 1
    denom = float(wt_1 @ wt_1)

    def transform(mat: np.ndarray) -> np.ndarray:
        centered = mat - np.outer(ones, m_1 @ mat) / denom
        return wt @ centered

    tag = f"sem(coef={filt.coef:g})"
    return WhitenedData(transform(x), transform(f), tag, weights=m_1)


@dataclass(frozen=True)
class SemFit:
    """Fitted autoregressive-error reduction.

    ``lag_coef`` is the profiled coefficient; ``grid`` records every
    evaluated (coef, loglik) pair in ascending coefficient order.
    """

    lag_coef: float
    est: RrrEstimate
    mu: np.ndarray
    loglik: float
    grid: list[tuple[float, float]] = field(repr=False)
    weights: NeighborWeights = field(repr=False)
    basis: FittedBasis = field(repr=False)
    kind: str = "sem"

    @property
    def spatial_param(self) -> float:
        return self.lag_coef

    def reduce(self, x_new: np.ndarray) -> np.ndarray:
        return apply_reduction(x_new, self.mu, self.est)


def fit_sem(
    sample: SpatialSample,
    spec: BasisSpec,
    rank: int,
    lag_grid: np.ndarray | None = None,
    weights: NeighborWeights | None = None,
) -> SemFit:
    """Profile the lag coefficient over a grid and keep the argmax fit.

    The neighbor matrix defaults to the distance-threshold construction at
    the largest nearest-neighbor distance.  Ties in the profile likelihood
    break toward the coefficient of smallest magnitude (the model closest
    to independence).
    """
    return raise_failure(rank_fits(sample, spec, [rank], lag_grid, weights))[0]


def rank_fits(sample, spec, ranks, lag_grid=None, weights=None) -> list:
    """``fit_sem`` at each of ``ranks`` from one pass over the lag grid, or
    the error that stopped that rank."""
    bm = build_f(sample.y, spec)
    f_fit = bm.fit_matrix

    if weights is None:
        dist = pairwise_distances(sample.coords)
        weights = neighbor_weights(dist, max_min_distance(dist))

    if lag_grid is None:
        lag_grid = default_lag_grid()
    lag_grid = np.asarray(lag_grid, dtype=float)
    if lag_grid.size == 0:
        raise EmptyGridError("lag-coefficient grid is empty")
    if np.any(np.abs(lag_grid) >= 1.0):
        raise InputError("lag-coefficient grid entries must lie in (-1, 1)")

    def whiten(coef: float):
        filt = spatial_filter(weights, coef)
        return whiten_sem(sample.x, f_fit, filt), -sample.p * filt.log_abs_det

    def make(coef, est, mu, ll, grid) -> SemFit:
        # One grid entry per coefficient, in ascending order.
        grid = sorted(dict(grid).items())
        return SemFit(coef, est, mu, ll, grid, weights, bm.fitted)

    # Scan smallest |coef| first so ties keep the near-independent model.
    order = sorted(lag_grid, key=lambda c: (abs(c), c))
    params = [float(c) for c in order]
    return _profile_grid(sample.x, f_fit, ranks, params, whiten, make)
