"""The shared PD policy: certified Cholesky factors and the eigh jitter."""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.spatial.distance import pdist, squareform

from spatialsdr._linalg import EIG_FLOOR, _openblas_threads, draw_root, one_blas_thread
from spatialsdr._linalg import pd_cholesky, pd_eigh
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
    # oracle: pd_eigh's jittered matrix, factored by numpy
    m = with_spectrum([1e-11, 1.0, 2.0, 4.0, 8.0])
    assert 0.0 < np.linalg.eigvalsh(m)[0] < EIG_FLOOR
    want = pd_eigh(m, CovarianceNotPDError)[2]
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


@pytest.mark.parametrize("n", [280, 400])
def test_draw_root_of_a_certified_matrix_is_pd_choleskys_root(n):
    m = np.exp(-0.1 * squareform(pdist(np.random.default_rng(n).uniform(size=(n, 2)))))
    before = m.copy()
    want = pd_cholesky(m, NearSingularCorrelationError)[0]
    assert draw_root(m, NearSingularCorrelationError).tobytes() == want.tobytes()
    np.testing.assert_array_equal(m, before)


def test_draw_root_uses_a_factorable_matrix_below_the_floor_unjittered():
    # a draw never solves with its root, so it needs no certificate; pd_cholesky jitters
    m = with_spectrum([1e-11, 1.0, 2.0, 4.0, 8.0])
    assert 0.0 < np.linalg.eigvalsh(m)[0] < EIG_FLOOR
    root = draw_root(m, CovarianceNotPDError)
    np.testing.assert_array_equal(root, np.linalg.cholesky(m))
    assert pd_cholesky(m, CovarianceNotPDError)[1] is not m
    assert not np.array_equal(root, pd_cholesky(m, CovarianceNotPDError)[0])


def test_draw_root_of_a_matrix_that_does_not_factor_follows_pd_cholesky():
    # the jitter, of the matrix itself: numpy's failed factor leaves it unchanged
    m = with_spectrum([-1e-9, 1.0, 2.0, 4.0, 8.0])
    before = m.copy()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(m)
    want = pd_cholesky(m, CovarianceNotPDError)[0]
    assert draw_root(m, CovarianceNotPDError).tobytes() == want.tobytes()
    np.testing.assert_array_equal(m, before)


@pytest.mark.parametrize("err", [CovarianceNotPDError, NearSingularCorrelationError])
def test_draw_root_of_a_matrix_failing_after_jitter_raises_the_callers_error(err):
    with pytest.raises(err) as info:
        draw_root(with_spectrum([-1.0, 1.0, 2.0]), err)
    assert info.type is err


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy loaded no OpenBLAS")
def test_one_blas_thread_restores_the_count_on_an_exception():
    get = _openblas_threads()[0]
    before = get()
    with pytest.raises(InputError), one_blas_thread():
        assert get() == 1
        raise InputError("inside the block")
    assert get() == before
