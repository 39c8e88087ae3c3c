"""Autoregressive-error model: neighbor-lagged errors on a lattice.

Errors follow ``E = coef * W E + U`` with independent rows of ``U``, so the
filter ``Wt = I - coef * W`` whitens the rows, and the quadratic form is
defined through ``Wt' Wt`` (a true Gaussian log-density for the asymmetric,
column-normalized ``W`` too).  With ``Z = [1 X F]`` the moment matrix is

    M(coef) = Z' Wt' Wt Z = Z'Z - coef (Z'WZ + (Z'WZ)') + coef^2 (WZ)'(WZ),

so one product ``WZ`` per sample serves every lag; its Schur complement on
the intercept is the Gram matrix of the generalized centering
``I - 1 (1' Wt'Wt 1)^{-1} 1' Wt'Wt`` followed by ``Wt``.  The likelihood
carries ``+ p log|det Wt|``.  ``W = A D^{-1}`` for ``geometry.neighbor_graph``'s symmetric
adjacency ``A`` and degrees ``D`` is never formed: ``WZ = A (D^{-1} Z)`` with ``A`` as floats,
and in that one n x n buffer ``A`` becomes ``D^{-1/2} A D^{-1/2}``, similar to ``W``, whose
eigenvalues ``lambda``, taken in place, give ``log|det Wt| = sum log|1 - coef lambda|`` at every
lag (Ord 1975).  The lag coefficient is profiled over ``DEFAULT_GRID`` on (-1, 1): ``whiten_sem``
yields each lag's moments in turn, as ``sscm.whiten_sscm`` yields each decay's, from one
broadcast of the lag-free parts over the grid.  Fits are ``SemFit``, the ``rrr.SdrFit``
whose spatial parameter is named ``lag_coef``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._linalg import eigvalsh_in_place
from .basis import BasisSpec, build_f
from .data import SpatialSample
from .exceptions import SingularFilterError
from .geometry import neighbor_graph, pairwise_distances
from .rrr import Moments, SdrFit, design, profile

DEFAULT_GRID = np.round(np.arange(-0.95, 0.951, 0.05), 2)  # -0.95 .. 0.95 in steps of 0.05
COND_LIMIT = 1e14  # largest accepted condition number of I - coef D^{-1/2} A D^{-1/2}


def whiten_sem(x: np.ndarray, f: np.ndarray, graph: tuple, coefs) -> Iterator[Moments]:
    """Moments ``M(coef)`` at each lag of ``coefs`` in turn, from one broadcast of ``Z'Z``,
    ``Z'WZ + (Z'WZ)'`` and ``(WZ)'(WZ)`` over them, for ``W = A D^{-1}`` of the ``graph``
    ``(A, D)`` from ``geometry.neighbor_graph``, with ``WZ = A (D^{-1} Z)``.  Raises
    ``SingularFilterError`` at the first lag whose gaps ``|1 - coef lambda|``, the
    singular values of the symmetrized filter, have a ratio above ``COND_LIMIT``."""
    z, shift = design(x, f)
    adj, deg = graph
    a = adj.astype(float)  # the one n x n float: numpy would cast adj for the product anyway
    wz = a @ (z / deg[:, None])
    cross = z.T @ wz
    root = np.sqrt(deg)
    for top in range(0, len(a), 32):  # D^{-1/2} A D^{-1/2} in a's buffer, by blocks of rows
        a[top : top + 32] /= np.outer(root[top : top + 32], root)
    spectrum = eigvalsh_in_place(a)
    del a  # before the lags' broadcast, which takes about n^2 doubles more at n = 280
    coefs = np.asarray(coefs, dtype=float)
    gaps = np.abs(1.0 - coefs[:, None] * spectrum)
    low = gaps.min(axis=1)
    singular = ~(low * COND_LIMIT > gaps.max(axis=1))
    m = z.T @ z - coefs[:, None, None] * (cross + cross.T) + (coefs * coefs)[:, None, None] * (wz.T @ wz)
    with np.errstate(divide="ignore"):  # a zero gap fails the ratio first
        logdet_s_terms = -x.shape[1] * np.log(gaps).sum(axis=1)
    for coef, m_c, term, gap, bad in zip(coefs, m, logdet_s_terms.tolist(), low, singular):
        if bad:
            raise SingularFilterError(
                f"I - {coef} * W is numerically singular (min |1 - coef lambda| {gap:.2e})"
            )
        yield Moments(m_c, x.shape[0], x.shape[1], term, shift)


@dataclass(frozen=True)
class SemFit(SdrFit):
    """``SdrFit`` whose spatial parameter is the lag coefficient."""

    lag_coef: float

    @property
    def spatial_param(self) -> float:
        return self.lag_coef


def fit_sem(sample: SpatialSample, spec: BasisSpec, rank: int) -> SemFit:
    """Profile the lag coefficient over ``DEFAULT_GRID`` and keep the argmax fit.

    The neighbor matrix is the distance-threshold construction at the
    largest nearest-neighbor distance.  Ties in the profile likelihood
    break toward the coefficient of smallest magnitude (the model closest
    to independence); a lag that fails raises its error.
    """
    return rank_fits(sample, spec, [rank], pairwise_distances(sample.coords))[0]


def rank_fits(sample, spec, ranks, dist) -> list:
    """``fit_sem`` at each of ``ranks`` from one pass over ``DEFAULT_GRID``, on the neighbor graph
    of ``dist``, the caller's ``pairwise_distances`` of ``sample``; the first error fails them all."""
    f = build_f(sample.y, spec)
    graph = neighbor_graph(dist)
    # Scan smallest |coef| first so ties keep the near-independent model.
    params = sorted(DEFAULT_GRID.tolist(), key=lambda c: (abs(c), c))
    return profile(SemFit, "sem", ranks, params, whiten_sem(sample.x, f, graph, params))
