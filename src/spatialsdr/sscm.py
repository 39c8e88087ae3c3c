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
which gives ``L`` and ``B`` at once; the log-likelihood carries the extra ``-(p/2) log|H|`` term.
``moments`` hands that grid and the list of its moments to the kind table, ``dimension.MODELS``,
whose fit stage profiles them into ``SscmFit``s, the ``rrr.SdrFit`` whose parameter is ``decay``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec
from .data import SpatialSample
from .geometry import exp_correlations, median_distance
from .rrr import Moments, SdrFit, design, moments_of

DEFAULT_GRID_SIZE = 20
DEFAULT_GRID_SPAN = (0.1, 10.0)  # multiples of 1/median-distance


def default_decay_grid(dist: np.ndarray) -> np.ndarray:
    """Geometric grid spanning 0.1/m .. 10/m with m the ``geometry.median_distance`` of ``dist``."""
    m = median_distance(dist)
    lo, hi = DEFAULT_GRID_SPAN[0] / m, DEFAULT_GRID_SPAN[1] / m
    return np.geomspace(lo, hi, DEFAULT_GRID_SIZE)


def whiten_sscm(x: np.ndarray, f: np.ndarray, dist: np.ndarray, decays) -> list[Moments]:
    """Moments ``B'B``, ``B = L^{-1} [1 X F]`` for the lower Cholesky factor ``L`` of
    ``exp(-decay * dist)``, at each of the ascending ``decays``, from one design ``[1 X F]``
    bordered on each matrix that ``geometry.exp_correlations`` certifies PD, and the log-det term
    ``(p/2) log|H| = p sum log diag L``, read before the next decay overwrites ``L``."""
    z, shift = design(x, f)
    p = x.shape[1]
    return [moments_of(rows, p, shift, p * float(np.sum(np.log(np.diag(chol)))))
            for chol, rows in exp_correlations(dist, decays, z)]


@dataclass(frozen=True)
class SscmFit(SdrFit):
    """``SdrFit`` whose spatial parameter is the correlation decay rate."""

    decay: float

    @property
    def spatial_param(self) -> float:
        return self.decay


def moments(x: np.ndarray, f: np.ndarray, dist: np.ndarray) -> tuple[list, list[Moments]]:
    """The ascending ``default_decay_grid`` of ``dist``, so that ties keep the smallest decay, and
    ``whiten_sscm``'s moments over it."""
    params = default_decay_grid(dist).tolist()
    return params, whiten_sscm(x, f, dist, params)


def fit_sscm(sample: SpatialSample, spec: BasisSpec, rank: int) -> SscmFit:
    """``dimension.rank_fits`` at ``rank``, over ``default_decay_grid``; it stays until ROADMAP item 1."""
    from .dimension import rank_fits  # dimension imports this module
    return rank_fits(sample, "sscm", spec, [rank])[0]
