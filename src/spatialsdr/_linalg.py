"""Shared dense linear-algebra helpers for symmetric positive-definite work.

Positive definiteness follows one policy everywhere: eigenvalue floor 1e-10,
certified by a shifted Cholesky factorisation (``pd_certified``) or checked by ``eigvalsh``;
below the floor add ``1e-8 * trace/n`` on the diagonal and retry once, then fail.
A stack takes one stacked certificate, or else ``pd_cholesky`` each, the first failure raising
(``pd_choleskys``).  A certificate is carried only along an ascending decay grid (``geometry``).
A draw needs no certificate: its root is one plain Cholesky, and the policy decides only when
that fails (``draw_root``).  A buffer not needed afterwards is factored in place by the LAPACK
numpy calls, numpy's bits without its copies (``cholesky_in_place``, ``solve_in_place``).

The harness calls two process helpers, and importing the module calls neither.  ``keep_heap``
keeps freed buffers in glibc's heap for the life of the process, so a replication reuses the
pages the last one faulted in; ``one_blas_thread`` runs a block on one OpenBLAS thread, so results
do not depend on the count.  Each does nothing where glibc, or numpy's OpenBLAS, is absent.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import platform
import threading
from contextlib import contextmanager

import numpy as np

from .exceptions import SpatialSdrError

EIG_FLOOR = 1e-10
JITTER_SCALE = 1e-8


def symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.swapaxes(-1, -2)) / 2.0


def _jittered(m: np.ndarray, err: type[SpatialSdrError]) -> np.ndarray:
    """The symmetrized ``m`` when its least eigenvalue clears ``EIG_FLOOR``, else a copy with
    ``JITTER_SCALE * trace / n`` added on the diagonal.  Raises ``err`` when that copy still
    has an eigenvalue below the floor."""
    m = symmetrize(np.asarray(m, dtype=float))
    low = np.linalg.eigvalsh(m)[0]
    if low >= EIG_FLOOR:
        return m
    eps = JITTER_SCALE * float(np.trace(m)) / m.shape[0]
    if eps <= 0.0:
        raise err(f"matrix not positive definite (min eig {low:.3e})")
    m2 = m + eps * np.eye(m.shape[0])
    low = np.linalg.eigvalsh(m2)[0]
    if low < EIG_FLOOR:
        raise err(f"matrix not positive definite after jitter (min eig {low:.3e})")
    return m2


def pd_certified(m: np.ndarray, err: type[SpatialSdrError], margin: float = 0.0) -> np.ndarray:
    """``m`` itself when a Cholesky factorisation of ``m - (EIG_FLOOR + margin + (n+1) n eps
    max_i m_ii) I`` succeeds, which certifies ``lambda_min(m) >= EIG_FLOOR + margin``, as
    ``(n+1) n eps max_i m_ii`` bounds its backward error (Higham 2002, Thm 10.3); otherwise
    ``_jittered``'s copy, jittered or not.  ``m`` is left unchanged."""
    shifted = np.array(m, dtype=float, order="F")
    shifted.T.flat[:: len(shifted) + 1] -= _certificate_shift(m, margin)  # .T: C-ordered
    return m if cholesky_in_place(shifted) else _jittered(m, err)


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


def draw_root(build, err: type[SpatialSdrError]) -> np.ndarray:
    """numpy's lower Cholesky root of the symmetric column-major ``build()``, factored in its buffer;
    if that fails, ``pd_cholesky`` decides on a second ``build()``, jitter or raise ``err``."""
    m = build()
    if not cholesky_in_place(m):
        return pd_cholesky(build(), err)[0]
    root = np.zeros(m.shape)  # C-ordered, as numpy's, so root @ z takes numpy's kernel
    for top in range(0, len(m), 32):  # by blocks of rows: an n x n mask would raise the draw's peak
        rows = slice(top, top + 32)
        root[rows, :top], root[rows, rows] = m[rows, :top], np.tril(m[rows, rows])
    return root


def cholesky_in_place(a: np.ndarray) -> bool:
    """Overwrite the lower triangle of the square column-major ``a``, which alone is read, with
    ``np.linalg.cholesky(a)``'s, bit for bit; False, ``a`` then partly overwritten, if not PD."""
    if _lapack():
        n, lda, info = map(ctypes.c_int64, (a.shape[1], len(a), 0))
        _lapack()[0](b"L", n, a, lda, info)
        return info.value == 0
    try:
        a[...] = np.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False


def solve_in_place(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b``, overwritten with ``np.linalg.solve(a, b)``, bit for bit, for the column-major ``a``,
    which then holds its LU factors, and ``b``; numpy's ``LinAlgError`` where ``a`` is singular."""
    if _lapack() is None:
        b[...] = np.linalg.solve(a, b)
        return b
    n, nrhs, lda, ldb, info = map(ctypes.c_int64, (a.shape[1], b.shape[1], len(a), len(b), 0))
    _lapack()[1](n, nrhs, a, lda, np.empty(a.shape[1], np.int64), b, ldb, info)
    if info.value:
        raise np.linalg.LinAlgError("Singular matrix" if info.value > 0 else f"dgesv info {info.value}")
    return b


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


@functools.cache
def keep_heap() -> None:
    """Once per process: M_MMAP_THRESHOLD to its 64-bit maximum, 32 MiB, then M_TRIM_THRESHOLD
    to twice that, as glibc's dynamic rule would set it."""
    if platform.libc_ver()[0] == "glibc":  # from os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20) and mallopt(-1, 64 << 20)


def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS numpy loaded, or None; ``_lapack`` and ``_openblas_threads`` cache its use."""
    paths = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas*.so")
    if not paths and os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as maps:
            paths = [line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]]
    return ctypes.CDLL(paths[0]) if paths else None


@functools.cache
def _lapack():
    """``(dpotrf, dgesv)``: the ILP64 LAPACK routines numpy's ``cholesky`` and ``solve`` call, in its
    OpenBLAS, or None.  ctypes checks that each matrix is column-major, and releases the GIL."""
    lib = _openblas()
    if hasattr(lib, "scipy_dpotrf_64_") and hasattr(lib, "scipy_dgesv_64_"):
        f64, i64 = np.ctypeslib.ndpointer(np.float64, 2, flags="F,W"), ctypes.POINTER(ctypes.c_int64)
        lib.scipy_dpotrf_64_.argtypes = ctypes.c_char_p, i64, f64, i64, i64
        lib.scipy_dgesv_64_.argtypes = i64, i64, f64, i64, np.ctypeslib.ndpointer(np.int64, 1), f64, i64, i64
        lib.scipy_dpotrf_64_.restype = lib.scipy_dgesv_64_.restype = None
        return lib.scipy_dpotrf_64_, lib.scipy_dgesv_64_


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS numpy loaded, or None."""
    lib = _openblas()
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        if hasattr(lib, name.format("get")):
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype, put.argtypes, put.restype = (), ctypes.c_int, (ctypes.c_int,), None
            return get, put


_BLAS_LOCK, _blas_blocks = threading.Lock(), []  # per open block, the count before the first


@contextmanager
def one_blas_thread():
    """One OpenBLAS thread inside the block.  Of blocks that overlap, in threads, the first to
    enter saves the count and sets 1, and the last to leave, on an exception too, restores it."""
    get, put = _openblas_threads() or (lambda: None, lambda _: None)
    with _BLAS_LOCK:
        _blas_blocks.append(_blas_blocks[0] if _blas_blocks else get())
        put(1)
    try:
        yield
    finally:
        with _BLAS_LOCK:
            before = _blas_blocks.pop()
            if not _blas_blocks:
                put(before)
