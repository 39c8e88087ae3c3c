"""Separable-covariance model: exponential spatial correlation across rows.

Errors share a p x p covariance across locations and an exponential
correlation ``H`` between locations, giving a Kronecker (separable) error
law.  At each decay rate the model hands the rank-d core the moment matrix

    M = [1 X F]' inv(H) [1 X F] = B'B,   B = L^{-1} [1 X F]   (L L' = H, Cholesky),

whose Schur complement on the intercept entry is the Gram matrix of the
generalized centering ``Hc = I - 1 (1' inv(H) 1)^{-1} 1' inv(H)`` followed by
``L^{-1}``; any square root of ``H`` in place of ``L`` gives the same ``M``.
The decay rate is profiled over an ascending grid, on which ``lambda_min(H)``
does not decrease, so once one ``H`` is certified above the eigenvalue floor
every larger decay takes a single Cholesky (``geometry.exp_correlations``); the
log-likelihood carries the extra ``-(p/2) log|H|`` term.  Fits are ``SscmFit``,
the ``rrr.SdrFit`` whose spatial parameter is named ``decay``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .basis import BasisSpec, build_f
from .data import SpatialSample
from .exceptions import EmptyGridError, InputError, NonPositiveDecayError
from .geometry import DistanceMatrix, ExpCorrelation, exp_correlations, sorted_median
from .rrr import Moments, SdrFit, design, moments_of, profile

DEFAULT_GRID_SIZE = 20
DEFAULT_GRID_SPAN = (0.1, 10.0)  # multiples of 1/median-distance


def default_decay_grid(dist: DistanceMatrix) -> np.ndarray:
    """Geometric grid spanning 0.1/m .. 10/m with m the median distance."""
    m = sorted_median(dist.tri)
    lo, hi = DEFAULT_GRID_SPAN[0] / m, DEFAULT_GRID_SPAN[1] / m
    return np.geomspace(lo, hi, DEFAULT_GRID_SIZE)


def whiten_sscm(x: np.ndarray, f: np.ndarray, corrs: Iterable[ExpCorrelation]) -> Iterator[Moments]:
    """Moments ``B'B``, ``B = L^{-1} [1 X F]`` for ``L = corr.chol``, at each of ``corrs``
    in turn from one design ``[1 X F]``, each matrix certified PD by ``geometry``.  The
    design is column-major, the layout the triangular solve copies it to."""
    z, shift = design(x, f)
    z = np.asfortranarray(z)
    for corr in corrs:
        rows = solve_triangular(corr.chol, z, lower=True, check_finite=False)
        yield moments_of(rows, x.shape[1], shift, 0.5 * x.shape[1] * corr.logdet)


@dataclass(frozen=True)
class SscmFit(SdrFit):
    """``SdrFit`` whose spatial parameter is the correlation decay rate."""

    decay: float

    @property
    def spatial_param(self) -> float:
        return self.decay


def fit_sscm(
    sample: SpatialSample,
    spec: BasisSpec,
    rank: int,
    decay_grid: np.ndarray | None = None,
) -> SscmFit:
    """Profile the decay rate over a grid and keep the argmax fit.

    Ties break to the smallest decay; a decay that fails raises its error.
    """
    return rank_fits(sample, spec, [rank], decay_grid)[0]


def rank_fits(sample, spec, ranks, decay_grid=None) -> list:
    """``fit_sscm`` at each of ``ranks`` from one pass over the decay grid;
    the first error, at any decay or rank, fails them all."""
    f = build_f(sample.y, spec)
    dist = sample.coords.distances
    if decay_grid is None:
        decay_grid = default_decay_grid(dist)
    decay_grid = np.asarray(decay_grid, dtype=float)
    if decay_grid.size == 0:
        raise EmptyGridError("decay grid is empty")
    if not np.all(np.isfinite(decay_grid)):
        raise InputError("decay grid entries must be finite")
    if np.any(decay_grid <= 0.0):
        raise NonPositiveDecayError("decay grid entries must be > 0")

    params = [float(decay) for decay in np.sort(decay_grid)]
    points = whiten_sscm(sample.x, f, exp_correlations(dist, params))
    return profile(SscmFit, "sscm", ranks, params, points)
