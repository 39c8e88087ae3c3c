"""The shared PD policy: certified Cholesky factors and the eigh jitter."""

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky
from scipy.spatial.distance import pdist, squareform

from spatialsdr._linalg import EIG_FLOOR, draw_root, pd_cholesky, pd_eigh
from spatialsdr.exceptions import CovarianceNotPDError, NearSingularCorrelationError


def with_spectrum(vals, seed=0):
    """A symmetric matrix with eigenvalues ``vals`` and random eigenvectors."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(vals),) * 2))
    m = (q * np.asarray(vals, dtype=float)) @ q.T
    return (m + m.T) / 2.0


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_well_conditioned_matrix_is_factored_unjittered(scale):
    # oracle: scipy's Cholesky factor of the matrix itself
    m = scale * with_spectrum([0.5, 1.0, 2.0, 4.0, 8.0])
    chol, used = pd_cholesky(m, CovarianceNotPDError)
    assert used is m
    np.testing.assert_array_equal(chol, cholesky(m, lower=True))


def test_matrix_below_the_floor_gets_the_eigh_jitter():
    # oracle: pd_eigh's jittered matrix, factored by scipy
    m = with_spectrum([1e-11, 1.0, 2.0, 4.0, 8.0])
    assert 0.0 < np.linalg.eigvalsh(m)[0] < EIG_FLOOR
    want = pd_eigh(m, CovarianceNotPDError)[2]
    chol, used = pd_cholesky(m, CovarianceNotPDError)
    assert not np.array_equal(want, m)
    np.testing.assert_array_equal(used, want)
    np.testing.assert_array_equal(chol, cholesky(want, lower=True))


@pytest.mark.parametrize("err", [CovarianceNotPDError, NearSingularCorrelationError])
def test_matrix_failing_after_jitter_raises_the_callers_error(err):
    m = with_spectrum([-1.0, 1.0, 2.0])
    with pytest.raises(err) as info:
        pd_cholesky(m, err)
    assert info.type is err


@pytest.mark.parametrize("n", [280, 400])
def test_root_is_scipys_factor_of_the_matrix_itself(n):
    # oracle: scipy's Cholesky factor, bit for bit, of a certified exponential
    # correlation matrix of the simulation's size; the argument is not written to
    m = np.exp(-0.1 * squareform(pdist(np.random.default_rng(n).uniform(size=(n, 2)))))
    before = m.copy()
    chol, used = pd_cholesky(m, NearSingularCorrelationError)
    assert used is m
    np.testing.assert_array_equal(m, before)
    assert chol.tobytes() == cholesky(m, lower=True).tobytes()


def fresh(m):
    """A ``build`` function returning column-major copies of ``m``, counting its calls."""
    calls = []

    def build():
        calls.append(1)
        return np.array(m, order="F")

    build.calls = calls
    return build


@pytest.mark.parametrize("n", [280, 400])
def test_draw_root_of_a_certified_matrix_is_pd_choleskys_root(n):
    m = np.exp(-0.1 * squareform(pdist(np.random.default_rng(n).uniform(size=(n, 2)))))
    before = m.copy()
    build = fresh(m)
    want = pd_cholesky(m, NearSingularCorrelationError)[0]
    assert draw_root(build, NearSingularCorrelationError).tobytes() == want.tobytes()
    assert len(build.calls) == 1
    np.testing.assert_array_equal(m, before)


def test_draw_root_uses_a_factorable_matrix_below_the_floor_unjittered():
    # a draw never solves with its root, so it needs no certificate; pd_cholesky jitters
    m = with_spectrum([1e-11, 1.0, 2.0, 4.0, 8.0])
    assert 0.0 < np.linalg.eigvalsh(m)[0] < EIG_FLOOR
    root = draw_root(fresh(m), CovarianceNotPDError)
    np.testing.assert_array_equal(root, cholesky(m, lower=True))
    assert pd_cholesky(m, CovarianceNotPDError)[1] is not m
    assert not np.array_equal(root, pd_cholesky(m, CovarianceNotPDError)[0])


def test_draw_root_of_a_matrix_that_does_not_factor_follows_pd_cholesky():
    # the jitter, on a second build: the failed factor overwrote the first buffer
    m = with_spectrum([-1e-9, 1.0, 2.0, 4.0, 8.0])
    with pytest.raises(LinAlgError):
        cholesky(m, lower=True)
    build = fresh(m)
    want = pd_cholesky(m, CovarianceNotPDError)[0]
    assert draw_root(build, CovarianceNotPDError).tobytes() == want.tobytes()
    assert len(build.calls) == 2


@pytest.mark.parametrize("err", [CovarianceNotPDError, NearSingularCorrelationError])
def test_draw_root_of_a_matrix_failing_after_jitter_raises_the_callers_error(err):
    with pytest.raises(err) as info:
        draw_root(fresh(with_spectrum([-1.0, 1.0, 2.0])), err)
    assert info.type is err
