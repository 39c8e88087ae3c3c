"""Separable-covariance model: exponential spatial correlation across rows.

Errors share a p x p covariance across locations and an exponential
correlation ``H`` between locations, giving a Kronecker (separable) error
law.  At each decay rate the model hands the rank-d core the moment matrix

    M = [1 X F]' inv(H) [1 X F] = B'B,   B = L^{-1} [1 X F]   (L L' = H, Cholesky),

whose Schur complement on the intercept entry is the Gram matrix of the
generalized centering ``Hc = I - 1 (1' inv(H) 1)^{-1} 1' inv(H)`` followed by
``L^{-1}``; any square root of ``H`` in place of ``L`` gives the same ``M``.
The decay rate is profiled over the ascending ``default_decay_grid``, on which ``lambda_min(H)``
does not decrease, so once one ``H`` is certified above the eigenvalue floor every larger decay
takes a single Cholesky (``geometry.exp_correlations``), of ``H`` with ``[1 X F]`` bordered on,
which gives ``L`` and ``B`` at once; the
log-likelihood carries the extra ``-(p/2) log|H|`` term.  Fits are ``SscmFit``,
the ``rrr.SdrFit`` whose spatial parameter is named ``decay``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, build_f
from .data import SpatialSample
from .geometry import exp_correlations, median_distance, pairwise_distances
from .rrr import Moments, SdrFit, design, moments_of, profile

DEFAULT_GRID_SIZE = 20
DEFAULT_GRID_SPAN = (0.1, 10.0)  # multiples of 1/median-distance


def default_decay_grid(dist: np.ndarray) -> np.ndarray:
    """Geometric grid spanning 0.1/m .. 10/m with m the ``geometry.median_distance`` of ``dist``."""
    m = median_distance(dist)
    lo, hi = DEFAULT_GRID_SPAN[0] / m, DEFAULT_GRID_SPAN[1] / m
    return np.geomspace(lo, hi, DEFAULT_GRID_SIZE)


def whiten_sscm(x: np.ndarray, f: np.ndarray, dist: np.ndarray, decays) -> Iterator[Moments]:
    """Moments ``B'B``, ``B = L^{-1} [1 X F]`` for the lower Cholesky factor ``L`` of
    ``exp(-decay * dist)``, at each of the ascending ``decays`` in turn from one design
    ``[1 X F]``, bordered on each matrix that ``geometry.exp_correlations`` certifies PD."""
    z, shift = design(x, f)
    for corr in exp_correlations(dist, decays, z):
        yield moments_of(corr.whitened, x.shape[1], shift, 0.5 * x.shape[1] * corr.logdet)


@dataclass(frozen=True)
class SscmFit(SdrFit):
    """``SdrFit`` whose spatial parameter is the correlation decay rate."""

    decay: float

    @property
    def spatial_param(self) -> float:
        return self.decay


def fit_sscm(sample: SpatialSample, spec: BasisSpec, rank: int) -> SscmFit:
    """Profile the decay rate over ``default_decay_grid`` and keep the argmax fit.

    Ties break to the smallest decay; a decay that fails raises its error.
    """
    return rank_fits(sample, spec, [rank], pairwise_distances(sample.coords))[0]


def rank_fits(sample, spec, ranks, dist) -> list:
    """``fit_sscm`` at each of ``ranks`` from one pass over the ``default_decay_grid`` of ``dist``,
    the caller's ``pairwise_distances`` of ``sample``; the first error, at any decay or rank, fails
    them all."""
    f = build_f(sample.y, spec)
    params = default_decay_grid(dist).tolist()
    return profile(SscmFit, "sscm", ranks, params, whiten_sscm(sample.x, f, dist, params))
