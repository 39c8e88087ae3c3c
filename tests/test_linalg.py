"""The shared PD policy: certified Cholesky factors, the eigenvalue jitter, and the LAPACK
routines that factor, solve and take a spectrum in place."""

import ctypes
import threading

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.spatial.distance import pdist, squareform

from spatialsdr import _linalg
from spatialsdr._linalg import EIG_FLOOR, _openblas_threads, draw_root, one_blas_thread
from spatialsdr._linalg import _jittered, cholesky_in_place, eigvalsh_in_place, pd_cholesky, pd_choleskys, solve_in_place
from spatialsdr.geometry import neighbor_graph
from spatialsdr.exceptions import CovarianceNotPDError, InputError, NearSingularCorrelationError


def with_spectrum(vals, seed=0):
    """A symmetric matrix with eigenvalues ``vals`` and random eigenvectors."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(vals),) * 2))
    m = (q * np.asarray(vals, dtype=float)) @ q.T
    return (m + m.T) / 2.0


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_well_conditioned_matrix_is_factored_unjittered(scale):
    # oracle: numpy's Cholesky factor of the matrix itself, bit for bit, and
    # scipy's, independently computed, to 1e-14 of its largest entry
    m = scale * with_spectrum([0.5, 1.0, 2.0, 4.0, 8.0])
    chol, used = pd_cholesky(m, CovarianceNotPDError)
    assert used is m
    np.testing.assert_array_equal(chol, np.linalg.cholesky(m))
    want = sla.cholesky(m, lower=True)
    np.testing.assert_allclose(chol, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_matrix_below_the_floor_gets_the_eigh_jitter():
    # oracle: the eigenvalue policy's jittered matrix (_linalg._jittered), factored by numpy
    m = with_spectrum([1e-11, 1.0, 2.0, 4.0, 8.0])
    assert 0.0 < np.linalg.eigvalsh(m)[0] < EIG_FLOOR
    want = _jittered(m, CovarianceNotPDError)
    chol, used = pd_cholesky(m, CovarianceNotPDError)
    assert not np.array_equal(want, m)
    np.testing.assert_array_equal(used, want)
    np.testing.assert_array_equal(chol, np.linalg.cholesky(want))


@pytest.mark.parametrize("err", [CovarianceNotPDError, NearSingularCorrelationError])
def test_matrix_failing_after_jitter_raises_the_callers_error(err):
    m = with_spectrum([-1.0, 1.0, 2.0])
    with pytest.raises(err) as info:
        pd_cholesky(m, err)
    assert info.type is err


@pytest.mark.parametrize("m", [[[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.5], [0.5, 1.0]],
                               [[2.0, 0.5, np.nan], [0.5, 2.0, 0.0], [np.nan, 0.0, 3.0]]],
                         ids=["off-diagonal", "diagonal", "order-3"])
def test_a_symmetric_matrix_with_a_nan_raises_the_callers_error(m):
    # every comparison with a NaN is false, and OpenBLAS's dpotrf factors through one, so each
    # check must fail on it: else the jitter returns a NaN matrix and the factor is NaN, and at
    # order 3 numpy's eigvalsh raises its own LinAlgError
    m, stack = np.array(m), lambda ms, err: pd_choleskys(np.stack([np.eye(len(ms)), ms]), err)
    for call in (_jittered, pd_cholesky, stack):
        with pytest.raises(CovarianceNotPDError):
            call(m, CovarianceNotPDError)


@pytest.mark.parametrize("n", [280, 400])
def test_root_is_numpys_factor_of_the_matrix_itself(n):
    # oracle: numpy's Cholesky factor, bit for bit, of a certified exponential
    # correlation matrix of the simulation's size, and scipy's, independently
    # computed, to 1e-13 of its largest entry; the argument is not written to
    m = np.exp(-0.1 * squareform(pdist(np.random.default_rng(n).uniform(size=(n, 2)))))
    before = m.copy()
    chol, used = pd_cholesky(m, NearSingularCorrelationError)
    assert used is m
    np.testing.assert_array_equal(m, before)
    assert chol.tobytes() == np.linalg.cholesky(m).tobytes()
    np.testing.assert_allclose(chol, sla.cholesky(m, lower=True), rtol=0, atol=1e-13)


def exp_correlation_of(n: int) -> np.ndarray:
    """A certified exponential correlation matrix of n uniform locations (seed n)."""
    return np.exp(-0.1 * squareform(pdist(np.random.default_rng(n).uniform(size=(n, 2)))))


def builder(m: np.ndarray):
    """A ``draw_root`` builder: a column-major copy of ``m`` per call, the calls counted."""
    calls = []

    def build():
        calls.append(np.array(m, order="F"))
        return calls[-1]

    return build, calls


@pytest.fixture(params=["lapack", "numpy"])
def binding(request, monkeypatch):
    """Each in-place routine through numpy's LAPACK, and with that lookup forced off."""
    if request.param == "numpy":
        monkeypatch.setattr(_linalg, "_lapack", lambda: (None, None, None))
    elif None in _linalg._lapack():
        pytest.skip("numpy's OpenBLAS lacks an ILP64 dpotrf, dgesv or dsyevd")
    return request.param


def bordered_of(n: int, k: int) -> np.ndarray:
    """``exp_correlations``' bordered matrix ``[[H, Z], [Z', s I]]`` of n locations and an
    n x k standard normal border."""
    z = np.random.default_rng(k).standard_normal((n, k))
    s = 2.0 * np.sum(z * z) / EIG_FLOOR
    return np.block([[exp_correlation_of(n), z], [z.T, s * np.eye(k)]])


@pytest.mark.parametrize("m", [exp_correlation_of(n) for n in (24, 280, 400)] + [bordered_of(280, 27)],
                         ids=["24", "280", "400", "bordered-307"])
def test_cholesky_in_place_is_numpys_factor_bit_for_bit(binding, m):
    a = np.array(m, order="F")
    assert cholesky_in_place(a)
    assert np.tril(a).tobytes() == np.linalg.cholesky(m).tobytes()


def test_cholesky_in_place_of_a_matrix_that_is_not_pd_reports_failure(binding):
    for m in (with_spectrum([-1e-9, 1.0, 2.0, 4.0, 8.0]), np.array([[1.0, 2.0], [2.0, 1.0]])):
        assert not cholesky_in_place(np.array(m, order="F"))


@pytest.mark.parametrize("n, k", [(5, 1), (120, 3), (400, 24)])
def test_solve_in_place_is_numpys_solve_bit_for_bit(binding, n, k):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n), rng.standard_normal((n, k))
    got = np.array(b, order="F")
    solve_in_place(np.array(a, order="F"), got)
    assert np.ascontiguousarray(got).tobytes() == np.linalg.solve(a, b).tobytes()


def test_solve_in_place_with_a_singular_matrix_raises_numpys_error(binding):
    a = np.array([[1.0, 2.0], [2.0, 4.0]], order="F")
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        solve_in_place(a, np.ones((2, 1), order="F"))


def test_cholesky_in_place_of_a_leading_block_leaves_the_rest_of_the_buffer(binding):
    # the certificate's use: the order n of a bordered buffer's top-left block, lda n + k
    m = bordered_of(280, 27)
    a = np.array(m, order="F")
    assert cholesky_in_place(a, 280)
    assert np.tril(a[:280, :280]).tobytes() == np.linalg.cholesky(m[:280, :280]).tobytes()
    np.testing.assert_array_equal(a[280:], m[280:])
    np.testing.assert_array_equal(a[:, 280:], m[:, 280:])


def normalized_adjacency(n: int) -> np.ndarray:
    """``D^{-1/2} A D^{-1/2}`` of the SEM lattice of n uniform locations (seed n)."""
    adj, deg = neighbor_graph(squareform(pdist(np.random.default_rng(n).uniform(size=(n, 2)))))
    return adj / np.outer(np.sqrt(deg), np.sqrt(deg))


@pytest.mark.parametrize("m", [normalized_adjacency(n) for n in (60, 224, 280)] + [with_spectrum(range(9))],
                         ids=["60", "224", "280", "dense-9"])
def test_eigvalsh_in_place_is_numpys_spectrum_bit_for_bit(binding, m):
    assert eigvalsh_in_place(m.copy()).tobytes() == np.linalg.eigvalsh(m).tobytes()


@pytest.mark.skipif(None in _linalg._lapack()[:2], reason="numpy's OpenBLAS lacks an ILP64 dpotrf or dgesv")
def test_in_place_routines_reject_a_row_major_matrix_before_lapack_reads_it():
    # LAPACK would read the transpose, or past the end of a buffer; ctypes checks the layout
    with pytest.raises(ctypes.ArgumentError, match="F_CONTIGUOUS"):
        cholesky_in_place(np.eye(3))
    with pytest.raises(ctypes.ArgumentError, match="F_CONTIGUOUS"):
        solve_in_place(np.eye(3), np.ones((3, 1), order="F"))


@pytest.mark.skipif(_linalg._lapack()[2] is None, reason="numpy's OpenBLAS has no ILP64 dsyevd")
def test_eigvalsh_in_place_rejects_a_column_major_matrix_before_lapack_reads_it():
    # dsyevd takes the row-major matrix as its column-major transpose
    with pytest.raises(ctypes.ArgumentError, match="F_CONTIGUOUS"):
        eigvalsh_in_place(np.eye(3, order="F"))


@pytest.mark.parametrize("n", [280, 400])
def test_draw_root_of_a_certified_matrix_is_pd_choleskys_root(n):
    # one build, factored in its buffer; the root is numpy's C-ordered factor
    m = exp_correlation_of(n)
    want = pd_cholesky(m, NearSingularCorrelationError)[0]
    build, calls = builder(m)
    root = draw_root(build, NearSingularCorrelationError)
    assert root.tobytes() == want.tobytes() and root.flags.c_contiguous
    assert len(calls) == 1


@pytest.mark.parametrize("n", [50, 61, 280, 400])
def test_draw_root_times_a_vector_is_numpys_root_times_it_bit_for_bit(binding, n):
    # by blocks of 32 rows, the last one short where 32 does not divide n, and one
    # build; oracle: numpy's C-ordered factor times the vector
    m, z = exp_correlation_of(n), np.random.default_rng(n + 1).standard_normal(n)
    build, calls = builder(m)
    got = draw_root(build, NearSingularCorrelationError, z)
    assert got.tobytes() == (np.linalg.cholesky(m) @ z).tobytes()
    assert len(calls) == 1


def test_draw_root_uses_a_factorable_matrix_below_the_floor_unjittered():
    # a draw never solves with its root, so it needs no certificate; pd_cholesky jitters
    m = with_spectrum([1e-11, 1.0, 2.0, 4.0, 8.0])
    assert 0.0 < np.linalg.eigvalsh(m)[0] < EIG_FLOOR
    root = draw_root(builder(m)[0], CovarianceNotPDError)
    np.testing.assert_array_equal(root, np.linalg.cholesky(m))
    assert pd_cholesky(m, CovarianceNotPDError)[1] is not m
    assert not np.array_equal(root, pd_cholesky(m, CovarianceNotPDError)[0])


def test_draw_root_of_a_matrix_that_does_not_factor_follows_pd_cholesky():
    # the failed factor consumed the first build, so pd_cholesky jitters a second one
    m = with_spectrum([-1e-9, 1.0, 2.0, 4.0, 8.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(m)
    want = pd_cholesky(m, CovarianceNotPDError)[0]
    build, calls = builder(m)
    assert draw_root(build, CovarianceNotPDError).tobytes() == want.tobytes()
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[1], m)


@pytest.mark.parametrize("err", [CovarianceNotPDError, NearSingularCorrelationError])
def test_draw_root_of_a_matrix_failing_after_jitter_raises_the_callers_error(err):
    with pytest.raises(err) as info:
        draw_root(builder(with_spectrum([-1.0, 1.0, 2.0]))[0], err)
    assert info.type is err


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy loaded no OpenBLAS")
def test_one_blas_thread_restores_the_count_on_an_exception():
    get = _openblas_threads()[0]
    before = get()
    with pytest.raises(InputError), one_blas_thread():
        assert get() == 1
        raise InputError("inside the block")
    assert get() == before


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy loaded no OpenBLAS")
def test_overlapping_blocks_in_threads_keep_one_thread_and_restore_the_count():
    # A enters, B enters, A leaves: B still runs on one thread, and once both
    # have left the count before A's entry is back
    get, put = _openblas_threads()
    before = get()
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def block_a():
        with one_blas_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def block_b():
        a_in.wait(10)
        with one_blas_thread():
            b_in.set()
            a_out.wait(10)
            seen["b after a left"] = get()

    put(2)
    try:
        threads = [threading.Thread(target=block_a), threading.Thread(target=block_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert seen == {"b after a left": 1}
        assert get() == 2
    finally:
        put(before)
