"""Shared dense linear-algebra helpers for symmetric positive-definite work.

Positive definiteness follows one policy everywhere: eigenvalue floor 1e-10,
certified by a shifted Cholesky factorisation (``pd_cholesky``) or checked by ``eigh``;
below the floor add ``1e-8 * trace/n`` on the diagonal and retry once, then fail.
A stack of small matrices takes one stacked certificate, or ``pd_cholesky`` each if it fails
(``pd_choleskys``).  A certificate is carried only along an ascending decay grid (``geometry``).
A draw multiplies by its root and never solves with it, so it needs no certificate: its root
is one plain Cholesky, and the policy decides only when that fails (``draw_root``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cholesky

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


def pd_cholesky(m, err: type[SpatialSdrError], margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor ``chol`` of a symmetric matrix under the PD policy.

    A Cholesky factorisation of ``m - (EIG_FLOOR + margin + (n+1) n eps max_i m_ii) I``
    that succeeds certifies ``lambda_min(m) >= EIG_FLOOR + margin``, as ``(n+1) n eps
    max_i m_ii`` bounds its backward error (Higham 2002, Thm 10.3); otherwise
    ``pd_eigh`` decides.  Returns ``(chol, m_used)``, ``chol @ chol.T = m_used``:
    ``m`` itself exactly when the certificate passed, else a copy, jittered or not.
    ``m`` is left unchanged: the certificate and then ``chol`` are factored in place
    in one column-major work buffer, which ``chol`` is.
    """
    n = m.shape[0]
    work = np.array(m, dtype=float, order="F")  # LAPACK's layout: factorise in place
    work.flat[:: n + 1] -= _certificate_shift(m, margin)
    try:
        cholesky(work, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError:
        m = pd_eigh(m, err)[2]
    np.copyto(work, m)
    try:
        return cholesky(work, lower=True, overwrite_a=True, check_finite=False), m
    except LinAlgError as exc:  # pragma: no cover - the policy's floor passed
        raise err(str(exc)) from exc


def draw_root(build, err: type[SpatialSdrError]) -> np.ndarray:
    """Lower Cholesky root of the symmetric ``build()``, factored in place in that new buffer;
    if it fails, ``pd_cholesky`` decides, jitter or raise ``err``, on a second ``build()``,
    since the failed factor overwrote the first."""
    try:
        return cholesky(build(), lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError:
        return pd_cholesky(build(), err)[0]


def _certificate_shift(m: np.ndarray, margin: float = 0.0) -> np.ndarray:
    n = m.shape[-1]  # of one matrix, or of each of a stack
    return EIG_FLOOR + margin + (n + 1) * n * np.finfo(float).eps * np.diagonal(m, 0, -2, -1).max(-1)


def pd_choleskys(ms: np.ndarray, err: type[SpatialSdrError]) -> tuple:
    """``(chols, ms_used, error)``: ``pd_cholesky`` of each of the stacked ``ms`` before
    the first that fails the policy, and its error or None.  numpy's stacked call fails
    as a whole, so each matrix goes alone unless one stacked certificate passes for all."""
    try:
        np.linalg.cholesky(ms - _certificate_shift(ms)[:, None, None] * np.eye(ms.shape[-1]))
        return np.linalg.cholesky(ms), ms, None
    except np.linalg.LinAlgError:
        pairs, error = [], None
    for m in ms:
        try:
            pairs.append(pd_cholesky(m, err))
        except SpatialSdrError as exc:
            error = exc
            break
    chols, used = np.reshape(pairs, (-1, 2) + ms.shape[1:]).swapaxes(0, 1)
    return chols, used, error
