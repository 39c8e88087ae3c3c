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
profiled over a grid on (-1, 1); fits are ``SemFit``, the ``rrr.SdrFit``
whose spatial parameter is named ``lag_coef``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, build_f
from .data import SpatialSample
from .exceptions import EmptyGridError, InputError, SingularFilterError
from .geometry import NeighborWeights, max_min_distance, neighbor_weights, pairwise_distances
from .rrr import Moments, SdrFit, design, profile, raise_failure

DEFAULT_GRID = np.round(np.arange(-0.95, 0.951, 0.05), 2)
COND_LIMIT = 1e14  # largest accepted condition number of I - coef D^{-1/2} A D^{-1/2}


def default_lag_grid() -> np.ndarray:
    """-0.95 .. 0.95 in steps of 0.05 (39 points)."""
    return DEFAULT_GRID.copy()


@dataclass(frozen=True)
class SemMoments:
    """The lag-free parts of ``M(coef)``: ``a0 = Z'Z``, ``a1 = A1 + A1'``,
    ``a2 = (WZ)'(WZ)``, and ``spectrum``, the eigenvalues of ``W``."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    spectrum: np.ndarray
    p: int
    shift: np.ndarray

    def at_each(self, coefs) -> Iterator[Moments]:
        """Moments at each lag of ``coefs`` in turn, from one broadcast over them; raises
        ``SingularFilterError`` at the first whose gaps ``|1 - coef lambda|``, the singular
        values of the symmetrized filter, have a ratio above ``COND_LIMIT``."""
        coefs = np.asarray(coefs, dtype=float)
        gaps = np.abs(1.0 - coefs[:, None] * self.spectrum)
        low = gaps.min(axis=1)
        singular = ~(low * COND_LIMIT > gaps.max(axis=1))
        m = self.a0 - coefs[:, None, None] * self.a1 + (coefs * coefs)[:, None, None] * self.a2
        with np.errstate(divide="ignore"):  # a zero gap fails the ratio first
            logdet_s_terms = -self.p * np.log(gaps).sum(axis=1)
        for coef, m_c, term, gap, bad in zip(coefs, m, logdet_s_terms.tolist(), low, singular):
            if bad:
                raise SingularFilterError(
                    f"I - {coef} * W is numerically singular (min |1 - coef lambda| {gap:.2e})"
                )
            yield Moments(m_c, self.spectrum.size, self.p, term, self.shift)

    def at(self, coef: float) -> Moments:
        """Moments at one lag, as ``at_each``."""
        return next(self.at_each([coef]))


def whiten_sem(x: np.ndarray, f: np.ndarray, weights: NeighborWeights) -> SemMoments:
    """One sample's lag-free moments and the spectrum of ``weights`` from
    ``neighbor_weights``, whose nonzero pattern is the symmetric adjacency."""
    z, shift = design(x, f)
    wz = weights.matrix @ z
    cross = z.T @ wz
    adj = weights.matrix != 0.0
    root = np.sqrt(adj.sum(axis=0))
    spectrum = np.linalg.eigvalsh(adj / np.outer(root, root))
    return SemMoments(z.T @ z, cross + cross.T, wz.T @ wz, spectrum, x.shape[1], shift)


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
    to independence).
    """
    return raise_failure(rank_fits(sample, spec, [rank], lag_grid))[0]


def rank_fits(sample, spec, ranks, lag_grid=None) -> list:
    """``fit_sem`` at each of ``ranks`` from one pass over the lag grid, or
    the error that stopped that rank."""
    f = build_f(sample.y, spec)
    dist = pairwise_distances(sample.coords)
    weights = neighbor_weights(dist, max_min_distance(dist))

    if lag_grid is None:
        lag_grid = default_lag_grid()
    lag_grid = np.asarray(lag_grid, dtype=float)
    if lag_grid.size == 0:
        raise EmptyGridError("lag-coefficient grid is empty")
    if not np.all(np.abs(lag_grid) < 1.0):  # NaN fails the comparison too
        raise InputError("lag-coefficient grid entries must lie in (-1, 1)")

    # Scan smallest |coef| first so ties keep the near-independent model.
    order = sorted(lag_grid, key=lambda c: (abs(c), c))
    params = [float(c) for c in order]
    return profile(SemFit, "sem", ranks, params, whiten_sem(sample.x, f, weights).at_each(params))
