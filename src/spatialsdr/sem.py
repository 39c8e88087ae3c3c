"""Autoregressive-error model: neighbor-lagged errors on a lattice.

Errors follow ``E = coef * W E + U`` with independent rows of ``U``, so the
filter ``Wt = I - coef * W`` whitens the rows, and the quadratic form is
defined through ``Wt' Wt`` (a true Gaussian log-density for the asymmetric,
column-normalized ``W`` too).  With ``Z = [1 X F]`` the moment matrix is

    M(coef) = Z' Wt' Wt Z = Z'Z - coef (Z'WZ + (Z'WZ)') + coef^2 (WZ)'(WZ),

so one product ``WZ`` per sample serves every lag; its Schur complement on the intercept is the
Gram matrix of the generalized centering ``I - 1 (1' Wt'Wt 1)^{-1} 1' Wt'Wt`` followed by ``Wt``.
The likelihood carries ``+ p log|det Wt|``.  ``W = A D^{-1}`` for ``geometry.neighbor_graph``'s
symmetric adjacency ``A`` and degrees ``D`` is never formed: ``WZ = A (D^{-1} Z)`` with ``A`` as
floats, and in that one n x n buffer ``A`` becomes ``D^{-1/2} A D^{-1/2}``, similar to ``W``,
whose eigenvalues ``lambda``, taken in place, give ``log|det Wt| = sum log|1 - coef lambda|`` at
every lag (Ord 1975).  The lag coefficient is profiled over ``DEFAULT_GRID`` on (-1, 1):
``whiten_sem`` returns every lag's moments, as ``sscm.whiten_sscm`` returns every decay's, from
one broadcast of the lag-free parts over the grid.  ``moments`` hands that grid and its
moments to the kind table, ``dimension.MODELS``, whose fit stage profiles them into ``SemFit``s,
the ``rrr.SdrFit`` whose spatial parameter is named ``lag_coef``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import eigvalsh_in_place
from .basis import BasisSpec
from .data import SpatialSample
from .exceptions import SingularFilterError
from .geometry import neighbor_graph
from .rrr import Moments, SdrFit, design

DEFAULT_GRID = np.round(np.arange(-0.95, 0.951, 0.05), 2)  # -0.95 .. 0.95 in steps of 0.05
COND_LIMIT = 1e14  # largest accepted condition number of I - coef D^{-1/2} A D^{-1/2}


def whiten_sem(x: np.ndarray, f: np.ndarray, graph: tuple, coefs) -> list[Moments]:
    """The moments ``M(coef)`` of each lag of ``coefs``, from one broadcast of ``Z'Z``,
    ``Z'WZ + (Z'WZ)'`` and ``(WZ)'(WZ)`` over them, for ``W = A D^{-1}`` of the ``graph``
    ``(A, D)`` from ``geometry.neighbor_graph``, with ``WZ = A (D^{-1} Z)``.  Raises
    ``SingularFilterError``, naming the first lag whose gaps ``|1 - coef lambda|``, the
    singular values of the symmetrized filter, have a ratio above ``COND_LIMIT``, once the
    ``Moments`` of the lags before it are built: an error of theirs comes first."""
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
    stop = int(np.argmax(singular)) if singular.any() else len(coefs)  # the first singular lag
    points = [Moments(m_c, *x.shape, term, shift) for m_c, term in zip(m[:stop], logdet_s_terms.tolist())]
    if stop < len(coefs):
        raise SingularFilterError(
            f"I - {coefs[stop]} * W is numerically singular (min |1 - coef lambda| {low[stop]:.2e})"
        )
    return points


@dataclass(frozen=True)
class SemFit(SdrFit):
    """``SdrFit`` whose spatial parameter is the lag coefficient."""

    lag_coef: float

    @property
    def spatial_param(self) -> float:
        return self.lag_coef


def moments(x: np.ndarray, f: np.ndarray, dist: np.ndarray) -> tuple[list, list[Moments]]:
    """``DEFAULT_GRID`` smallest ``|coef|`` first, so that ties break toward the model closest to
    independence, and ``whiten_sem``'s moments over it on the ``neighbor_graph`` of ``dist``."""
    params = sorted(DEFAULT_GRID.tolist(), key=lambda c: (abs(c), c))
    return params, whiten_sem(x, f, neighbor_graph(dist), params)


def fit_sem(sample: SpatialSample, spec: BasisSpec, rank: int) -> SemFit:
    """``dimension.rank_fits`` at ``rank``, over ``DEFAULT_GRID``; it stays until ROADMAP item 1."""
    from .dimension import rank_fits  # dimension imports this module
    return rank_fits(sample, "sem", spec, [rank])[0]
