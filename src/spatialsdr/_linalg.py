"""Shared dense linear-algebra helpers for symmetric positive-definite work.

Positive definiteness follows one policy everywhere: eigenvalue floor 1e-10, certified by a
shifted Cholesky factorisation, of a copy or in place (``certify_in_place``), or checked by
``eigvalsh``; below the floor add ``1e-8 * trace/n`` on the diagonal and retry once, then fail.
A stack takes one stacked certificate, or else ``pd_cholesky`` each, the first failure raising
(``pd_choleskys``).  A certificate is carried only along an ascending decay grid (``geometry``).
A draw needs no certificate: its root is one plain Cholesky, and the policy decides only when
that fails (``draw_root``); the root times a vector takes it by row blocks.  A buffer not needed
afterwards is factored, solved or reduced to its spectrum in place by the LAPACK numpy calls,
numpy's bits without its copies (``cholesky_in_place``, ``solve_in_place``, ``eigvalsh_in_place``).

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
from contextlib import contextmanager, suppress

import numpy as np

from .exceptions import SpatialSdrError

EIG_FLOOR = 1e-10
JITTER_SCALE = 1e-8


def symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.swapaxes(-1, -2)) / 2.0


def _jittered(m: np.ndarray, err: type[SpatialSdrError]) -> np.ndarray:
    """The symmetrized ``m`` when its least eigenvalue clears ``EIG_FLOOR``, else a copy with
    ``JITTER_SCALE * trace / n`` added on the diagonal.  Raises ``err`` at a non-finite entry, which
    numpy's ``eigvalsh`` may fail on or answer with NaN, at a shift not > 0, and when that copy's
    least eigenvalue does not clear the floor; each check fails at a NaN."""
    m = symmetrize(np.asarray(m, dtype=float))
    if not np.isfinite(m).all():
        raise err("matrix not positive definite (a non-finite entry)")
    low = np.linalg.eigvalsh(m)[0]
    if low >= EIG_FLOOR:
        return m
    eps = JITTER_SCALE * float(np.trace(m)) / m.shape[0]
    if not eps > 0.0:
        raise err(f"matrix not positive definite (min eig {low:.3e})")
    m2 = m + eps * np.eye(m.shape[0])
    low = np.linalg.eigvalsh(m2)[0]
    if not low >= EIG_FLOOR:
        raise err(f"matrix not positive definite after jitter (min eig {low:.3e})")
    return m2


def certify_in_place(a: np.ndarray, n: int, margin: float = 0.0) -> bool:
    """Whether ``m - (EIG_FLOOR + margin + (n+1) n eps max_i m_ii) I``, for ``m`` the leading n x n
    block of the column-major ``a``, factors in that block, which certifies ``lambda_min(m) >=
    EIG_FLOOR + margin``: ``(n+1) n eps max_i m_ii`` bounds the backward error (Higham 2002, 10.3)."""
    diag = np.arange(n)
    a[diag, diag] -= _certificate_shift(a[:n, :n], margin)
    return cholesky_in_place(a, n) and bool(np.isfinite(a[diag, diag]).all())  # dpotrf passes a NaN


def pd_cholesky(m, err: type[SpatialSdrError]) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factor ``chol`` of a symmetric matrix under the PD policy.

    Returns ``(chol, m_used)``, ``chol @ chol.T = m_used``, for ``m_used`` ``m`` itself exactly
    when ``certify_in_place`` passes on a copy of it, else ``_jittered``'s copy.
    """
    if not certify_in_place(np.array(m, dtype=float, order="F"), len(m)):
        m = _jittered(m, err)
    try:
        return np.linalg.cholesky(m), m
    except np.linalg.LinAlgError as exc:  # pragma: no cover - the policy's floor passed
        raise err(str(exc)) from exc


def draw_root(build, err: type[SpatialSdrError], z: np.ndarray | None = None) -> np.ndarray:
    """numpy's lower Cholesky root of the symmetric column-major ``build()``, factored in its buffer,
    or it times a vector ``z``; if that fails, ``pd_cholesky`` decides on a second ``build()``."""
    m = build()
    if not cholesky_in_place(m):  # the policy's root, copied out below as the factor would be
        m = np.asfortranarray(pd_cholesky(build(), err)[0])
    n = len(m)  # C-ordered rows, as numpy's root, so root @ z takes numpy's kernel
    root = np.zeros((n if z is None else min(n, 32), n))
    out = root if z is None else np.empty(n)
    for top in range(0, n, 32):  # by blocks of rows: an n x n mask would raise the draw's peak
        rows = slice(top, top + 32)
        block = root[rows] if z is None else root[: min(32, n - top)]
        block[:, :top], block[:, rows] = m[rows, :top], np.tril(m[rows, rows])
        if z is not None:  # a block of 32 rows times z: the full product's gemv, and its bits
            out[rows] = block @ z
    return out


def cholesky_in_place(a: np.ndarray, n: int | None = None) -> bool:
    """Overwrite the lower triangle, alone read, of the leading n x n block of the column-major ``a``
    (all of it by default) with numpy's Cholesky factor's, bit for bit; False, if it is not PD."""
    if _lapack()[0]:
        n, lda, info = map(ctypes.c_int64, (n or a.shape[1], len(a), 0))
        _lapack()[0](b"L", n, a, lda, info)
        return info.value == 0
    try:
        a[:n, :n] = np.linalg.cholesky(a[:n, :n])
        return True
    except np.linalg.LinAlgError:
        return False


def solve_in_place(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b``, overwritten with ``np.linalg.solve(a, b)``, bit for bit, for the column-major ``a``,
    which then holds its LU factors, and ``b``; numpy's ``LinAlgError`` where ``a`` is singular."""
    if _lapack()[1] is None:
        b[...] = np.linalg.solve(a, b)
        return b
    n, nrhs, lda, ldb, info = map(ctypes.c_int64, (a.shape[1], b.shape[1], len(a), len(b), 0))
    _lapack()[1](n, nrhs, a, lda, np.empty(a.shape[1], np.int64), b, ldb, info)
    if info.value:
        raise np.linalg.LinAlgError("Singular matrix" if info.value > 0 else f"dgesv info {info.value}")
    return b


def eigvalsh_in_place(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)``, bit for bit, for the exactly symmetric row-major ``a``, overwritten as
    its column-major ``a.T``; after numpy's workspace query, as the reduction blocks by its size."""
    dsyevd, n, info = _lapack()[2], ctypes.c_int64(len(a)), ctypes.c_int64(0)
    if dsyevd is None:
        return np.linalg.eigvalsh(a)
    w, work, iwork, query = np.empty(len(a)), np.empty(1), np.empty(1, np.int64), ctypes.c_int64(-1)
    dsyevd(b"N", b"L", n, a.T, n, w, work, query, iwork, query, info)
    work, iwork = np.empty(int(work[0])), np.empty(iwork[0], np.int64)
    dsyevd(b"N", b"L", n, a.T, n, w, work, ctypes.c_int64(work.size), iwork, ctypes.c_int64(iwork.size), info)
    if info.value:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def _certificate_shift(m: np.ndarray, margin: float = 0.0) -> np.ndarray:
    n = m.shape[-1]  # of one matrix, or of each of a stack
    return EIG_FLOOR + margin + (n + 1) * n * np.finfo(float).eps * np.diagonal(m, 0, -2, -1).max(-1)


def pd_choleskys(ms: np.ndarray, err: type[SpatialSdrError]) -> tuple:
    """``(chols, ms_used)``: ``pd_cholesky`` of each of the stacked ``ms``, raising the first
    failing matrix's ``err``.  numpy's stacked call fails as a whole, so each matrix goes
    alone unless one stacked certificate passes for all."""
    with suppress(np.linalg.LinAlgError):
        cert = np.linalg.cholesky(ms - _certificate_shift(ms)[:, None, None] * np.eye(ms.shape[-1]))
        if np.isfinite(np.diagonal(cert, 0, 1, 2)).all():  # OpenBLAS factors through a NaN
            return np.linalg.cholesky(ms), ms
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
def _lapack() -> tuple:
    """The ILP64 ``(dpotrf, dgesv, dsyevd)`` numpy's ``cholesky``, ``solve`` and ``eigvalsh`` call, in its
    OpenBLAS, each None where missing.  ctypes checks each matrix's layout, and releases the GIL."""
    ndp, c, i64, lib = np.ctypeslib.ndpointer, ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), _openblas()
    f64, floats, ints = ndp(np.float64, 2, flags="F,W"), ndp(np.float64, 1), ndp(np.int64, 1)
    def bind(name, *argtypes):
        routine = getattr(lib, f"scipy_{name}_64_", None)
        if routine is not None:
            routine.argtypes, routine.restype = argtypes, None
        return routine
    return (bind("dpotrf", c, i64, f64, i64, i64), bind("dgesv", i64, i64, f64, i64, ints, f64, i64, i64),
            bind("dsyevd", c, c, i64, f64, i64, floats, floats, i64, ints, i64, i64))


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
