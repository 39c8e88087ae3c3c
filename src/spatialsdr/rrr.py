"""Reduced-rank maximum likelihood from a moment matrix, and the profile engine.

At one value of its spatial parameter each error model supplies the moment
matrix ``M = [1 X F]' inv(Sigma) [1 X F]`` under its row covariance ``Sigma``
and its log-determinant term.  Profiling out the mean is the generalized
centering, whose result is the Schur complement of ``M`` on the intercept,
``G = M[1:, 1:] - M[1:, 0] M[0, 1:] / M[0, 0]``: the Gram matrix of the
whitened, centered ``[X F]``.  The profiled mean is ``(M_X1 - coef M_F1) / M_11``.
With ``S = G / n`` in blocks ``S_xx``, ``S_xf``, ``S_ff``,

    C_ls = S_xf inv(S_ff),   D_ls = S_xx - C_ls S_xf',
    K = D_ls^{-1/2} S_xf inv(S_ff) S_xf' D_ls^{-1/2}  (eigenpairs V, lambda, descending),

the rank-d solution follows Reinsel & Velu (1998, Thm 2.2): ``a = D_ls^{1/2}
V_d``, ``b = V_d' D_ls^{-1/2} C_ls`` (``a @ b`` is ``C_ls`` at d = min(p, r)),
residual covariance ``D_ls + (C_ls - ab) S_ff (C_ls - ab)'``, and maximized
log-likelihood

    -np/2 log(2 pi) - logdet_s - n/2 (log|D_ls| + sum_{i>d} log(1 + lambda_i)) - np/2.

``ls_fits`` reads both at every grid point of a profile in one stacked pass (one point is a
stack of one), from the certified Cholesky factor ``L`` of each ``D_ls``: ``log|D_ls| = 2 sum
log diag L``, and the lambda_i are the squared singular values of ``L^{-1} C_ls chol(S_ff)``.
As ``L = D_ls^{1/2} U`` for an orthogonal ``U``, that root's leading left singular vectors are
``U' V_d``; called ``V_d`` from here on, they give ``a = L V_d`` and ``b = V_d' L^{-1} C_ls``,
the same estimate up to the signs of ``a``'s columns and ``b``'s rows.  ``rrr_mle``, run at
each rank's argmax only, takes them from one solve with ``L`` and one SVD per point, with no
eigendecomposition; the reduction directions ``inv(resid_cov) @ a`` are ``L^{-T} V_d``.
``profile`` returns fits only: an error at any point or rank fails the whole profile.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import pd_choleskys, symmetrize
from .exceptions import (
    InsufficientSampleError,
    NonFiniteLoglikError,
    RankOutOfRangeError,
    SingularFeatureCovError,
    SingularResidualCovError,
)

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Moments:
    """Moment matrix ``m = [1 X F]' inv(Sigma) [1 X F]`` of ``n`` rows whose
    first ``p`` columns after the intercept are predictors, the columns of
    ``[X F]`` taken less ``shift``.

    ``logdet_s_term`` is the spatial contribution subtracted from the
    log-likelihood: ``(p/2) log|H|`` for the correlation model,
    ``-p log|det(I - coef W)|`` for the autoregressive model, and 0 for
    independent errors.
    """

    m: np.ndarray
    n: int
    p: int
    logdet_s_term: float
    shift: np.ndarray

    def __post_init__(self) -> None:
        if self.n < self.m.shape[0]:
            raise InsufficientSampleError(
                f"need n > p + r for a nonsingular residual covariance "
                f"(n={self.n}, p + r={self.m.shape[0] - 1})"
            )


def design(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``[1 X F]`` with ``X`` and ``F`` less their column means, and those means;
    the shift leaves every Schur complement on the intercept unchanged and
    keeps large means from cancelling its digits."""
    xf = np.column_stack([x, f])
    shift = xf.mean(axis=0)
    return np.column_stack([np.ones(xf.shape[0]), xf - shift]), shift


def moments_of(rows: np.ndarray, p: int, shift: np.ndarray, logdet_s_term: float = 0.0) -> Moments:
    """Moments of whitened rows ``rows = Sigma^{-1/2} [1 X F]``."""
    return Moments(rows.T @ rows, rows.shape[0], p, logdet_s_term, shift)


@dataclass(frozen=True)
class LsFit:
    """The full-rank fit at one grid point: ``d_ls``, the LS residual covariance
    as the PD policy passed it, its certified lower Cholesky factor ``chol``
    (``L``, ``L L' = d_ls``), its log-determinant ``logdet_ls``, and the
    min(p, r) leading eigenvalues ``fit_vals`` of ``K`` (descending).
    """

    moments: Moments
    c_ls: np.ndarray
    s_ff: np.ndarray
    d_ls: np.ndarray
    chol: np.ndarray
    logdet_ls: float
    fit_vals: np.ndarray

    @cached_property
    def spectral(self) -> tuple[np.ndarray, ...]:
        """``rrr_mle``'s work for every rank: ``B = L^{-1} C_ls`` and the sign-fixed
        singular pairs of ``B chol(S_ff)``, which are ``K``'s eigenpairs in ``L``'s frame."""
        whitened_coef = np.linalg.solve(self.chol, self.c_ls)  # LU, as ls_fits solves with L
        v, sv, _ = np.linalg.svd(whitened_coef @ np.linalg.cholesky(self.s_ff), full_matrices=False)
        lead = np.argmax(np.abs(v), axis=0)  # sign-fixed: largest entries positive, for determinism
        v = v * np.where(v[lead, np.arange(v.shape[1])] < 0, -1.0, 1.0)
        return whitened_coef, v, sv


def ls_fits(moments: Iterable[Moments]) -> list[LsFit]:
    """Center by the Schur complement, fit by LS and take ``K``'s eigenvalues from the
    certified Cholesky factor of ``D_ls``, at all ``moments`` (of one ``n`` and ``p``) in
    one stacked pass: an ``LsFit`` per point, or the first error, raised in ``moments``
    or at a singular ``S_ff`` or ``D_ls``."""
    points = list(moments)
    n, p = points[0].n, points[0].p
    mom = np.stack([point.m for point in points])
    s = symmetrize(mom[:, 1:, 1:] - mom[:, 1:, :1] * mom[:, :1, 1:] / mom[:, :1, :1]) / n
    s_xx, s_fx, s_ff = s[:, :p, :p], s[:, p:, :p], s[:, p:, p:]
    lo, hi = np.linalg.eigvalsh(s_ff)[:, [0, -1]].T
    singular = np.flatnonzero(lo / np.where(lo > 0.0, hi, 1.0) < 1e-13)  # lo <= 0 or lo/hi < 1e-13
    if singular.size:
        raise SingularFeatureCovError(
            f"feature second-moment matrix is singular (min eig {lo[singular[0]]:.3e})"
        )
    c_ls = np.linalg.solve(s_ff, s_fx).swapaxes(1, 2)
    chol, d_ls = pd_choleskys(symmetrize(s_xx - c_ls @ s_fx), SingularResidualCovError)
    # numpy has no stacked triangular solve; LU with partial pivoting is backward stable on L too
    root = np.linalg.solve(chol, c_ls @ np.linalg.cholesky(s_ff))
    logdet_ls = 2.0 * np.log(np.diagonal(chol, 0, 1, 2)).sum(axis=1)
    fit_vals = np.linalg.svd(root, compute_uv=False) ** 2  # of L^{-1} C_ls chol(S_ff)
    fits = zip(points, c_ls, s_ff, d_ls, chol, logdet_ls.tolist(), fit_vals)
    return [LsFit(*fit) for fit in fits]


@dataclass(frozen=True)
class RrrEstimate:
    """Rank-constrained ML estimate of the whitened inverse regression.

    ``a`` (p x d) spans the conditional-mean deviations, ``b`` (d x r) maps
    features into that span, ``resid_cov`` is the rank-d residual covariance
    and ``resid_cov_ls`` its full-rank LS counterpart.  ``eigenvalues`` holds
    the min(p, r) leading eigenvalues of the whitened fit matrix, descending.
    """

    a: np.ndarray
    b: np.ndarray
    resid_cov: np.ndarray
    resid_cov_ls: np.ndarray
    eigenvalues: np.ndarray
    rank: int

    @property
    def coef(self) -> np.ndarray:
        """Rank-constrained coefficient matrix ``a @ b`` (p x r)."""
        return self.a @ self.b

    def directions(self) -> np.ndarray:
        """Reduction direction matrix ``inv(resid_cov) @ a`` (p x d).

        It equals ``inv(resid_cov_ls) @ a`` for estimates produced by
        ``rrr_mle``, whose ``resid_cov`` is the certified PD ``D_ls`` plus a
        PSD term, so the solve needs no guard.
        """
        if self.rank == 0:
            return np.zeros((self.resid_cov.shape[0], 0))
        return np.linalg.solve(self.resid_cov, self.a)


def _check_rank(ls: LsFit, rank: int) -> None:
    m = ls.fit_vals.size
    if not 0 <= rank <= m:
        raise RankOutOfRangeError(f"rank must lie in 0..{m}, got {rank}")


def rrr_mle(ls: LsFit, rank: int) -> RrrEstimate:
    """Rank-constrained maximum-likelihood estimate.

    ``rank`` may be 0 (pure-mean model with empty factors) up to min(p, r).
    """
    _check_rank(ls, rank)
    whitened_coef, v, sv = ls.spectral
    v_d = v[:, :rank]
    a = ls.chol @ v_d
    b = v_d.T @ whitened_coef
    gap = ls.c_ls - a @ b
    resid_cov = symmetrize(ls.d_ls + gap @ ls.s_ff @ gap.T)
    return RrrEstimate(a, b, resid_cov, ls.d_ls, sv**2, rank)


def loglik(ls: LsFit, rank: int) -> float:
    """Maximized Gaussian log-likelihood at ``rank``, in closed form."""
    _check_rank(ls, rank)
    n, p = ls.moments.n, ls.moments.p
    logdet = ls.logdet_ls + float(np.sum(np.log1p(ls.fit_vals[rank:])))
    value = -0.5 * n * p * (LOG_2PI + 1.0) - ls.moments.logdet_s_term - 0.5 * n * logdet
    if not np.isfinite(value):
        raise NonFiniteLoglikError(f"log-likelihood is {value}")
    return value


def profiled_mean(ls: LsFit, est: RrrEstimate) -> np.ndarray:
    """Profile-likelihood mean ``(M_X1 - coef M_F1) / M_11``, shifted back."""
    col, shift, p = ls.moments.m[:, 0], ls.moments.shift, ls.moments.p
    return (col[1 : p + 1] - est.coef @ col[p + 1 :]) / col[0] + shift[:p] - est.coef @ shift[p:]


def apply_reduction(x_new: np.ndarray, mu: np.ndarray, est: RrrEstimate) -> np.ndarray:
    """Project new predictor rows onto the fitted reduction.

    Accepts a single p-vector or an m x p matrix; centering by ``mu`` is a
    constant shift, so pairwise distances of reduced points are unaffected
    by it.
    """
    dirs = est.directions()
    x_new = np.asarray(x_new, dtype=float)
    return (x_new - mu) @ dirs


@dataclass(frozen=True)
class SdrFit:
    """Fitted reduction of one error model at one rank.

    ``est`` and ``mu`` are the estimate and profiled mean at the argmax of
    the spatial parameter, ``loglik`` its maximized log-likelihood, and
    ``grid`` every evaluated (param, loglik) pair in ascending parameter
    order; independent errors have no parameter and record ``[(None, loglik)]``.
    """

    kind: str
    est: RrrEstimate
    mu: np.ndarray
    loglik: float
    grid: list[tuple[float | None, float]] = field(repr=False)

    @property
    def spatial_param(self) -> float | None:
        return None

    def reduce(self, x_new: np.ndarray) -> np.ndarray:
        return apply_reduction(x_new, self.mu, self.est)


def profile(fit_type, kind, ranks, params, moments) -> list:
    """Profile a spatial parameter for several ranks in one pass over its grid.

    ``moments`` yields the ``Moments`` of each point of ``params`` in turn; their one
    stacked ``ls_fits`` gives every rank its closed-form ``loglik`` at each point; ties
    keep the earliest point.  ``rrr_mle`` then runs once per rank, at its argmax, giving
    ``fit_type(kind, est, mu, loglik, grid, param)`` (no ``param`` for a ``None`` one).
    The first ``SpatialSdrError``, of any point or rank, fails the whole profile.  ``sscm.rank_fits``
    and ``sem.rank_fits`` scan their model's default grid; a fit at fixed parameters, in scan order
    (ascending decays), is this call over them, e.g. ``profile(SscmFit, "sscm", ranks, [0.1],
    whiten_sscm(x, build_f(y, spec), dist, [0.1]))``, or ``SemFit``, ``"sem"`` and ``whiten_sem``.
    """
    grids, best = {rank: {} for rank in ranks}, {}
    for param, ls in zip(params, ls_fits(moments)):
        for rank in ranks:
            ll = loglik(ls, rank)
            grids[rank][param] = ll
            if rank not in best or ll > best[rank][2]:
                best[rank] = (param, ls, ll)

    def result(rank):
        param, ls, ll = best[rank]
        est = rrr_mle(ls, rank)
        grid = sorted(grids[rank].items())
        extra = () if param is None else (param,)
        return fit_type(kind, est, profiled_mean(ls, est), ll, grid, *extra)

    return [result(rank) for rank in ranks]
