"""Whitened reduced-rank maximum-likelihood core.

Given whitened data ``x_bar`` (n x p) and features ``f_bar`` (n x r), the
Gaussian inverse-regression likelihood is maximized under a rank constraint
on the coefficient matrix.  With

    S_xf = x_bar.T @ f_bar / n,   S_ff = f_bar.T @ f_bar / n,
    C_ls = S_xf @ inv(S_ff),
    D_ls = (x_bar - f_bar @ C_ls.T).T @ (x_bar - f_bar @ C_ls.T) / n,

the rank-d solution follows Reinsel & Velu (1998, Thm 2.2) with weight
matrix ``inv(D_ls)``: let ``V`` collect the leading eigenvectors of

    M = D_ls^{-1/2} S_xf inv(S_ff) S_xf.T D_ls^{-1/2},

then ``a = D_ls^{1/2} V`` spans the fitted mean deviations and
``b = V.T D_ls^{-1/2} C_ls`` are its feature coordinates, so that ``a @ b``
is the best rank-d coefficient matrix and collapses to ``C_ls`` when
``d = min(p, r)``.  The sufficient-reduction directions are
``inv(resid_cov) @ a``, which algebraically equal ``D_ls^{-1/2} V``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import eig_apply, pd_eigh, symmetrize
from .exceptions import (
    InsufficientSampleError,
    NonFiniteLoglikError,
    RankOutOfRangeError,
    SingularFeatureCovError,
    SingularReductionCovError,
    SingularResidualCovError,
    SpatialSdrError,
)

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class WhitenedData:
    """Whitened predictor and feature matrices, a provenance tag, and the
    (unnormalized) location weights of the centering, for ``profiled_mean``."""

    x_bar: np.ndarray
    f_bar: np.ndarray
    tag: str = "identity-centering"
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_bar", np.asarray(self.x_bar, dtype=float))
        object.__setattr__(self, "f_bar", np.asarray(self.f_bar, dtype=float))
        n, p = self.x_bar.shape
        r = self.f_bar.shape[1]
        if self.f_bar.shape[0] != n:
            raise InsufficientSampleError("x_bar and f_bar row counts disagree")
        if n <= p + r:
            raise InsufficientSampleError(
                f"need n > p + r for a nonsingular residual covariance "
                f"(n={n}, p={p}, r={r})"
            )

    @property
    def n(self) -> int:
        return self.x_bar.shape[0]

    @property
    def p(self) -> int:
        return self.x_bar.shape[1]

    @property
    def r(self) -> int:
        return self.f_bar.shape[1]


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
        ``rrr_mle``.
        """
        if self.rank == 0:
            return np.zeros((self.resid_cov.shape[0], 0))
        try:
            return np.linalg.solve(self.resid_cov, self.a)
        except np.linalg.LinAlgError as exc:
            raise SingularReductionCovError(str(exc)) from exc


def _suff_stats(data: WhitenedData):
    """Cross-moment matrices and the LS fit shared by the estimators."""
    n = data.n
    s_xf = data.x_bar.T @ data.f_bar / n
    s_ff = symmetrize(data.f_bar.T @ data.f_bar / n)
    ff_vals = np.linalg.eigvalsh(s_ff)
    if ff_vals[0] <= 0.0 or ff_vals[0] / ff_vals[-1] < 1e-13:
        raise SingularFeatureCovError(
            f"feature second-moment matrix is singular (min eig {ff_vals[0]:.3e})"
        )
    c_ls = np.linalg.solve(s_ff, s_xf.T).T
    resid = data.x_bar - data.f_bar @ c_ls.T
    d_ls = symmetrize(resid.T @ resid / n)
    vals, vecs, d_ls_used = pd_eigh(d_ls, SingularResidualCovError)
    return s_xf, s_ff, c_ls, d_ls_used, vals, vecs


def rrr_mle(data: WhitenedData, rank: int) -> RrrEstimate:
    """Rank-constrained maximum-likelihood estimate.

    ``rank`` may be 0 (pure-mean model with empty factors) up to min(p, r).
    Eigenvector columns are sign-fixed so the entry of largest magnitude is
    positive, making results deterministic across runs.
    """
    p, r, n = data.p, data.r, data.n
    m = min(p, r)
    if not 0 <= rank <= m:
        raise RankOutOfRangeError(f"rank must lie in 0..{m}, got {rank}")
    s_xf, s_ff, c_ls, d_ls, vals, vecs = _suff_stats(data)

    whitened_coef = eig_apply(vals, vecs, -0.5, c_ls)  # D_ls^{-1/2} C_ls
    fit_matrix = symmetrize(whitened_coef @ s_ff @ whitened_coef.T)
    w, v = np.linalg.eigh(fit_matrix)
    w, v = w[::-1], v[:, ::-1]
    for k in range(v.shape[1]):
        lead = np.argmax(np.abs(v[:, k]))
        if v[lead, k] < 0:
            v[:, k] = -v[:, k]
    eigenvalues = np.clip(w[:m], 0.0, None)

    v_d = v[:, :rank]
    a = eig_apply(vals, vecs, 0.5, v_d)
    b = v_d.T @ whitened_coef
    resid = data.x_bar - data.f_bar @ (a @ b).T
    resid_cov = symmetrize(resid.T @ resid / n)
    return RrrEstimate(
        a=a,
        b=b,
        resid_cov=resid_cov,
        resid_cov_ls=d_ls,
        eigenvalues=eigenvalues,
        rank=rank,
    )


def loglik(data: WhitenedData, est: RrrEstimate, logdet_s_term: float = 0.0) -> float:
    """Full Gaussian log-likelihood of the whitened model at the estimate.

    ``logdet_s_term`` is the spatial-structure contribution subtracted from
    the likelihood: ``(p/2) log|H|`` for the correlation model, ``-p log|det
    filter|`` for the autoregressive model, and 0 for independent errors.
    The trace term is evaluated explicitly rather than assumed to be n*p.
    """
    n, p = data.n, data.p
    resid = data.x_bar - data.f_bar @ est.coef.T
    vals, vecs, _ = pd_eigh(est.resid_cov, SingularResidualCovError)
    trace = float(np.sum(resid * eig_apply(vals, vecs, -1.0, resid.T).T))
    value = (
        -0.5 * n * p * LOG_2PI
        - logdet_s_term
        - 0.5 * n * float(np.sum(np.log(vals)))
        - 0.5 * trace
    )
    if not np.isfinite(value):
        raise NonFiniteLoglikError(f"log-likelihood is {value}")
    return value


def profiled_mean(
    x: np.ndarray, f_fit: np.ndarray, est: RrrEstimate, weights: np.ndarray
) -> np.ndarray:
    """Profile-likelihood mean: residual average under (unnormalized)
    location weights, ``(X' - coef F') w / sum(w)``."""
    w = weights / float(weights.sum())
    return (x.T - est.coef @ f_fit.T) @ w


def apply_reduction(x_new: np.ndarray, mu: np.ndarray, est: RrrEstimate) -> np.ndarray:
    """Project new predictor rows onto the fitted reduction.

    Accepts a single p-vector or an m x p matrix; centering by ``mu`` is a
    constant shift, so pairwise distances of reduced points are unaffected
    by it.
    """
    dirs = est.directions()
    x_new = np.asarray(x_new, dtype=float)
    return (x_new - mu) @ dirs


def _profile_grid(x, f_fit, ranks, params, whiten, make) -> list:
    """Profile a spatial parameter for several ranks in one pass over its grid.

    ``whiten(param)`` returns ``(data, logdet_s_term)`` once per grid point
    and each live rank gets its own ``rrr_mle`` and ``loglik``; ties keep the
    earliest point.  A rank's argmax becomes ``make(param, est, mu, loglik,
    grid)``.  A ``SpatialSdrError`` ends the rank it hits (every live rank
    when ``whiten`` raises) and takes that rank's place in the result.
    """
    grids, best, failed = {rank: [] for rank in ranks}, {}, {}
    for param in params:
        live = [rank for rank in ranks if rank not in failed]
        if not live:
            break
        try:
            data, logdet_s_term = whiten(param)
        except SpatialSdrError as exc:
            failed.update(dict.fromkeys(live, exc))
            break
        for rank in live:
            try:
                est = rrr_mle(data, rank)
                ll = loglik(data, est, logdet_s_term=logdet_s_term)
            except SpatialSdrError as exc:
                failed[rank] = exc
                continue
            grids[rank].append((param, ll))
            if rank not in best or ll > best[rank][2]:
                best[rank] = (param, est, ll, data.weights)

    def result(rank):
        param, est, ll, weights = best[rank]
        return make(param, est, profiled_mean(x, f_fit, est, weights), ll, grids[rank])

    return [failed[rank] if rank in failed else result(rank) for rank in ranks]


def raise_failure(results: list) -> list:
    """Raise the first error in a ``_profile_grid`` result, else return it."""
    for res in results:
        if isinstance(res, SpatialSdrError):
            raise res
    return results
