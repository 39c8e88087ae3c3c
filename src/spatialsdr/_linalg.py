"""Shared dense linear-algebra helpers for symmetric positive-definite work.

Positive definiteness follows one policy everywhere: eigenvalue floor 1e-10,
certified by a shifted Cholesky factorisation (``pd_certified``) or checked by ``eigh``;
below the floor add ``1e-8 * trace/n`` on the diagonal and retry once, then fail.
A stack takes one stacked certificate, or else ``pd_cholesky`` each, the first failure raising
(``pd_choleskys``).  A certificate is carried only along an ascending decay grid (``geometry``).
A draw multiplies by its root and never solves with it, so it needs no certificate: its root
is one plain Cholesky, and the policy decides only when that fails (``draw_root``).
Every factor is numpy's, which leaves its argument unchanged.
"""

from __future__ import annotations

import numpy as np

from .exceptions import SpatialSdrError

EIG_FLOOR = 1e-10
JITTER_SCALE = 1e-8


def symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.swapaxes(-1, -2)) / 2.0


def pd_eigh(
    m: np.ndarray, err: type[SpatialSdrError]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix, enforcing the PD jitter policy.

    Returns ``(eigvals, eigvecs, m_used)`` with eigenvalues ascending;
    ``m_used`` is ``m`` itself or the jittered copy that passed the floor.
    Raises ``err`` when the retry still leaves an eigenvalue below the floor.
    """
    m = symmetrize(np.asarray(m, dtype=float))
    vals, vecs = np.linalg.eigh(m)
    if vals[0] >= EIG_FLOOR:
        return vals, vecs, m
    eps = JITTER_SCALE * float(np.trace(m)) / m.shape[0]
    if eps <= 0.0:
        raise err(f"matrix not positive definite (min eig {vals[0]:.3e})")
    m2 = m + eps * np.eye(m.shape[0])
    vals, vecs = np.linalg.eigh(m2)
    if vals[0] < EIG_FLOOR:
        raise err(
            f"matrix not positive definite after jitter (min eig {vals[0]:.3e})"
        )
    return vals, vecs, m2


def pd_certified(m: np.ndarray, err: type[SpatialSdrError], margin: float = 0.0) -> np.ndarray:
    """``m`` itself when a Cholesky factorisation of ``m - (EIG_FLOOR + margin + (n+1) n eps
    max_i m_ii) I`` succeeds, which certifies ``lambda_min(m) >= EIG_FLOOR + margin``, as
    ``(n+1) n eps max_i m_ii`` bounds its backward error (Higham 2002, Thm 10.3); otherwise
    ``pd_eigh``'s copy, jittered or not.  ``m`` is left unchanged."""
    shifted = np.array(m, dtype=float)
    shifted.flat[:: len(shifted) + 1] -= _certificate_shift(m, margin)
    try:
        np.linalg.cholesky(shifted)
        return m
    except np.linalg.LinAlgError:
        return pd_eigh(m, err)[2]


def pd_cholesky(m, err: type[SpatialSdrError], margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor ``chol`` of a symmetric matrix under the PD policy.

    Returns ``(chol, m_used)``, ``chol @ chol.T = m_used``, for ``m_used`` from
    ``pd_certified``: ``m`` itself exactly when the certificate passed, else a copy.
    """
    m = pd_certified(m, err, margin)
    try:
        return np.linalg.cholesky(m), m
    except np.linalg.LinAlgError as exc:  # pragma: no cover - the policy's floor passed
        raise err(str(exc)) from exc


def draw_root(m: np.ndarray, err: type[SpatialSdrError]) -> np.ndarray:
    """Lower Cholesky root of the symmetric ``m``; if it fails, ``pd_cholesky`` decides,
    jitter or raise ``err``."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return pd_cholesky(m, err)[0]


def _certificate_shift(m: np.ndarray, margin: float = 0.0) -> np.ndarray:
    n = m.shape[-1]  # of one matrix, or of each of a stack
    return EIG_FLOOR + margin + (n + 1) * n * np.finfo(float).eps * np.diagonal(m, 0, -2, -1).max(-1)


def pd_choleskys(ms: np.ndarray, err: type[SpatialSdrError]) -> tuple:
    """``(chols, ms_used)``: ``pd_cholesky`` of each of the stacked ``ms``, raising the first
    failing matrix's ``err``.  numpy's stacked call fails as a whole, so each matrix goes
    alone unless one stacked certificate passes for all."""
    try:
        np.linalg.cholesky(ms - _certificate_shift(ms)[:, None, None] * np.eye(ms.shape[-1]))
        return np.linalg.cholesky(ms), ms
    except np.linalg.LinAlgError:
        chols, used = np.array([pd_cholesky(m, err) for m in ms]).swapaxes(0, 1)
        return chols, used
