"""Shared fixtures and small independent oracles used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from spatialsdr.basis import BasisSpec
from spatialsdr.data import SpatialSample
from spatialsdr.geometry import Coordinates


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_sample(
    n: int, p: int, seed: int, signal: bool = True, rank: int = 1
) -> SpatialSample:
    """Random spatial sample; optionally with a planted rank-d mean signal."""
    rng = np.random.default_rng(seed)
    coords = Coordinates(rng.uniform(size=(n, 2)))
    y = rng.standard_normal(n) + 1.0
    x = rng.standard_normal((n, p))
    if signal:
        a = rng.standard_normal((p, rank))
        b = rng.standard_normal((rank, 2))
        f = np.column_stack([y, y**2])
        x = x + f @ (a @ b).T
    return SpatialSample(coords, x, y)


def poly_spec(degree: int = 2) -> BasisSpec:
    return BasisSpec("polynomial", degree)


def span_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between orthogonal projectors onto the column spans."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T))


def dense_loglik(x, f_fit, mu, a, b, delta, s_logdet_term, s_inv_half=None):
    """Direct evaluation of the matrix-normal log-likelihood.

    ``s_inv_half`` left-whitens the residual rows (identity when None);
    ``s_logdet_term`` is subtracted, matching the fitters' convention.
    """
    n, p = x.shape
    resid = x - np.ones((n, 1)) @ mu[None, :] - f_fit @ (a @ b).T
    if s_inv_half is not None:
        resid = s_inv_half @ resid
    quad = float(np.sum(resid * np.linalg.solve(delta, resid.T).T))
    sign, logdet = np.linalg.slogdet(delta)
    assert sign > 0
    return (
        -0.5 * n * p * np.log(2 * np.pi)
        - s_logdet_term
        - 0.5 * n * logdet
        - 0.5 * quad
    )


def _eigh_whitened(moments):
    """``S_ff``, ``C_ls``, ``D_ls`` of the moment matrix's Schur complement, and ``D_ls``'s
    eigenvalues and eigenvectors, ``D_ls^{-1/2}`` and ``K``, by ``eigh``."""
    m, n, p = moments.m, moments.n, moments.p
    gram = m[1:, 1:] - np.outer(m[1:, 0], m[0, 1:]) / m[0, 0]
    s = (gram + gram.T) / (2.0 * n)
    s_xx, s_xf, s_ff = s[:p, :p], s[:p, p:], s[p:, p:]
    c_ls = np.linalg.solve(s_ff, s_xf.T).T
    d_ls = s_xx - c_ls @ s_xf.T
    vals, vecs = np.linalg.eigh(d_ls)
    inv_half = (vecs / np.sqrt(vals)) @ vecs.T
    k = inv_half @ c_ls @ s_ff @ c_ls.T @ inv_half
    return s_ff, c_ls, d_ls, vals, vecs, inv_half, (k + k.T) / 2.0


def eigh_loglik(moments, rank: int) -> float:
    """Closed-form maximised log-likelihood at ``rank`` from an ``eigh`` of the
    LS residual covariance and the eigenvalues of the whitened fit matrix ``K``
    (Reinsel & Velu 1998, Thm 2.2), without any Cholesky factor."""
    n, p = moments.n, moments.p
    s_ff, _, _, vals, _, _, k = _eigh_whitened(moments)
    lam = np.linalg.eigvalsh(k)[::-1][: min(p, s_ff.shape[0])]
    logdet = np.sum(np.log(vals)) + np.sum(np.log1p(lam[rank:]))
    return float(-0.5 * n * p * (np.log(2 * np.pi) + 1.0) - moments.logdet_s_term - 0.5 * n * logdet)


def eigh_estimate(moments, rank: int):
    """The symmetric-root rank-``rank`` estimate of Reinsel & Velu (1998, Thm 2.2)
    from ``eigh`` alone: ``a = D_ls^{1/2} V_d`` and ``b = V_d' D_ls^{-1/2} C_ls`` for
    ``K``'s leading eigenvectors ``V_d``, the residual covariance ``D_ls + G S_ff G'``
    with ``G = C_ls - ab``, and the profiled mean; as ``(a, b, resid_cov, mu)``."""
    p = moments.p
    s_ff, c_ls, d_ls, vals, vecs, inv_half, k = _eigh_whitened(moments)
    v_d = np.linalg.eigh(k)[1][:, ::-1][:, :rank]
    a, b = (vecs * np.sqrt(vals)) @ vecs.T @ v_d, v_d.T @ inv_half @ c_ls
    coef = a @ b
    resid_cov = d_ls + (c_ls - coef) @ s_ff @ (c_ls - coef).T
    col, shift = moments.m[:, 0], moments.shift
    mu = (col[1 : p + 1] - coef @ col[p + 1 :]) / col[0] + shift[:p] - coef @ shift[p:]
    return a, b, resid_cov, mu
