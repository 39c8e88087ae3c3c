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


def eigh_loglik(moments, rank: int) -> float:
    """Closed-form maximised log-likelihood at ``rank`` from an ``eigh`` of the
    LS residual covariance and the eigenvalues of the whitened fit matrix ``K``
    (Reinsel & Velu 1998, Thm 2.2), without any Cholesky factor."""
    m, n, p = moments.m, moments.n, moments.p
    gram = m[1:, 1:] - np.outer(m[1:, 0], m[0, 1:]) / m[0, 0]
    s = (gram + gram.T) / (2.0 * n)
    s_xx, s_xf, s_ff = s[:p, :p], s[:p, p:], s[p:, p:]
    c_ls = np.linalg.solve(s_ff, s_xf.T).T
    vals, vecs = np.linalg.eigh(s_xx - c_ls @ s_xf.T)
    inv_half = (vecs / np.sqrt(vals)) @ vecs.T
    k = inv_half @ c_ls @ s_ff @ c_ls.T @ inv_half
    lam = np.linalg.eigvalsh((k + k.T) / 2.0)[::-1][: min(p, s_ff.shape[0])]
    logdet = np.sum(np.log(vals)) + np.sum(np.log1p(lam[rank:]))
    return float(-0.5 * n * p * (np.log(2 * np.pi) + 1.0) - moments.logdet_s_term - 0.5 * n * logdet)
