"""Autoregressive-error model: neighbor-lagged errors on a lattice.

Errors follow ``E = coef * W E + U`` with independent rows of ``U``, so the
filter ``Wt = I - coef * W`` whitens the rows, and the quadratic form is
defined through ``Wt' Wt`` (a true Gaussian log-density for the asymmetric,
column-normalized ``W`` too).  With ``Z = [1 X F]`` the moment matrix is

    M(coef) = Z' Wt' Wt Z = Z'Z - coef (Z'WZ + (Z'WZ)') + coef^2 (WZ)'(WZ),

so one product ``WZ`` per sample serves every lag; its Schur complement on
the intercept is the Gram matrix of the generalized centering
``I - 1 (1' Wt'Wt 1)^{-1} 1' Wt'Wt`` followed by ``Wt``.  The likelihood
carries ``+ p log|det Wt|``.  ``W = A D^{-1}`` for the symmetric threshold
adjacency ``A`` with degrees ``D``, so ``W`` is similar to the symmetric
``D^{-1/2} A D^{-1/2}``, whose eigenvalues ``lambda`` give ``log|det Wt| =
sum log|1 - coef lambda|`` at every lag (Ord 1975).  The lag coefficient is
profiled over a grid on (-1, 1): ``whiten_sem`` yields each lag's moments
in turn, as ``sscm.whiten_sscm`` yields each decay's, from one broadcast of
the lag-free parts over the grid.  Fits are ``SemFit``, the ``rrr.SdrFit``
whose spatial parameter is named ``lag_coef``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, build_f
from .data import SpatialSample
from .exceptions import EmptyGridError, InputError, SingularFilterError
from .geometry import max_min_distance, neighbor_weights
from .rrr import Moments, SdrFit, design, profile

DEFAULT_GRID = np.round(np.arange(-0.95, 0.951, 0.05), 2)  # -0.95 .. 0.95 in steps of 0.05
COND_LIMIT = 1e14  # largest accepted condition number of I - coef D^{-1/2} A D^{-1/2}


def whiten_sem(x: np.ndarray, f: np.ndarray, weights: np.ndarray, coefs) -> Iterator[Moments]:
    """Moments ``M(coef)`` at each lag of ``coefs`` in turn, from one broadcast of
    ``Z'Z``, ``Z'WZ + (Z'WZ)'`` and ``(WZ)'(WZ)`` over them, for ``weights`` from
    ``neighbor_weights``, whose nonzero pattern is the symmetric adjacency.  Raises
    ``SingularFilterError`` at the first lag whose gaps ``|1 - coef lambda|``, the
    singular values of the symmetrized filter, have a ratio above ``COND_LIMIT``."""
    z, shift = design(x, f)
    wz = weights @ z
    cross = z.T @ wz
    adj = weights != 0.0
    root = np.sqrt(adj.sum(axis=0))
    spectrum = np.linalg.eigvalsh(adj / np.outer(root, root))
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


def fit_sem(
    sample: SpatialSample,
    spec: BasisSpec,
    rank: int,
    lag_grid: np.ndarray | None = None,
) -> SemFit:
    """Profile the lag coefficient over a grid and keep the argmax fit.

    The neighbor matrix is the distance-threshold construction at the
    largest nearest-neighbor distance.  Ties in the profile likelihood
    break toward the coefficient of smallest magnitude (the model closest
    to independence); a lag that fails raises its error.
    """
    return rank_fits(sample, spec, [rank], lag_grid)[0]


def rank_fits(sample, spec, ranks, lag_grid=None) -> list:
    """``fit_sem`` at each of ``ranks`` from one pass over the lag grid; the
    first error, at any lag or rank, fails them all."""
    f = build_f(sample.y, spec)
    dist = sample.coords.distances
    weights = neighbor_weights(dist, max_min_distance(dist))

    lag_grid = np.asarray(DEFAULT_GRID if lag_grid is None else lag_grid, dtype=float)
    if lag_grid.size == 0:
        raise EmptyGridError("lag-coefficient grid is empty")
    if not np.all(np.abs(lag_grid) < 1.0):  # NaN fails the comparison too
        raise InputError("lag-coefficient grid entries must lie in (-1, 1)")

    # Scan smallest |coef| first so ties keep the near-independent model.
    order = sorted(lag_grid, key=lambda c: (abs(c), c))
    params = [float(c) for c in order]
    return profile(SemFit, "sem", ranks, params, whiten_sem(sample.x, f, weights, params))
