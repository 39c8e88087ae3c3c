import numpy as np
import pytest
from scipy.optimize import minimize

from spatialsdr.exceptions import (
    InsufficientSampleError,
    RankOutOfRangeError,
    SingularResidualCovError,
)
from spatialsdr.rrr import (
    WhitenedData,
    apply_reduction,
    loglik,
    rrr_mle,
)

from conftest import span_distance


def whitened(n, p, r, seed, signal=0.0):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, r))
    x = rng.standard_normal((n, p))
    if signal:
        c = rng.standard_normal((p, r))
        x = x + signal * f @ c.T
    x -= x.mean(axis=0)
    f -= f.mean(axis=0)
    return WhitenedData(x_bar=x, f_bar=f)


class TestLsFit:
    """The full-rank fit ``rrr_mle(data, min(p, r))`` is the LS fit."""

    def test_identity_feature_metric(self):
        rng = np.random.default_rng(0)
        n, p, r = 24, 4, 2
        q, _ = np.linalg.qr(rng.standard_normal((n, r)))
        f = q * np.sqrt(n)  # f'f/n = I exactly up to rounding
        x = rng.standard_normal((n, p))
        data = WhitenedData(x_bar=x, f_bar=f)
        c_ls = rrr_mle(data, min(p, r)).coef
        np.testing.assert_allclose(c_ls, x.T @ f / n, atol=1e-10)

    def test_matches_generic_lstsq(self):
        data = whitened(8, 3, 2, seed=5)
        c_ls = rrr_mle(data, 2).coef
        oracle = np.linalg.lstsq(data.f_bar, data.x_bar, rcond=None)[0].T
        np.testing.assert_allclose(c_ls, oracle, atol=1e-10)

    def test_exact_fit_raises_singular_residuals(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((12, 2))
        c = rng.standard_normal((4, 2))
        data = WhitenedData(x_bar=f @ c.T, f_bar=f)
        with pytest.raises(SingularResidualCovError):
            rrr_mle(data, 2)

    def test_sample_size_guard(self):
        with pytest.raises(InsufficientSampleError):
            whitened(5, 3, 2, seed=0)


class TestRrrMle:
    def test_full_rank_collapses_to_ls(self):
        for seed in range(5):
            data = whitened(40, 5, 2, seed=seed, signal=1.0)
            c_ls = np.linalg.lstsq(data.f_bar, data.x_bar, rcond=None)[0].T
            est = rrr_mle(data, rank=2)
            np.testing.assert_allclose(est.coef, c_ls, atol=1e-8)

    def test_matches_numeric_optimizer(self):
        # oracle: derivative-free minimization of log|residual covariance|
        data = whitened(20, 2, 1, seed=3, signal=0.8)
        est = rrr_mle(data, rank=1)

        def neg_profile(z):
            c = np.outer(z[:2], z[2:3])
            resid = data.x_bar - data.f_bar @ c.T
            return np.linalg.slogdet(resid.T @ resid / data.n)[1]

        best = np.inf
        for s in range(6):
            z0 = np.random.default_rng(s).standard_normal(3)
            res = minimize(
                neg_profile,
                z0,
                method="Nelder-Mead",
                options=dict(maxiter=20000, xatol=1e-12, fatol=1e-14),
            )
            best = min(best, res.fun)
        resid = data.x_bar - data.f_bar @ est.coef.T
        ours = np.linalg.slogdet(resid.T @ resid / data.n)[1]
        assert ours <= best + 1e-4

    def test_no_signal_eigenvalues_small(self):
        data = whitened(2000, 3, 2, seed=11, signal=0.0)
        est = rrr_mle(data, rank=2)
        # with independent x and f, n * sum(eig) is approximately chi2(p*r)
        assert est.eigenvalues.max() < 0.05

    def test_rank_out_of_range(self):
        data = whitened(30, 3, 2, seed=1)
        for bad in (-1, 3):
            with pytest.raises(RankOutOfRangeError):
                rrr_mle(data, bad)

    def test_rank_zero_supported(self):
        data = whitened(30, 3, 2, seed=1)
        est = rrr_mle(data, 0)
        assert est.a.shape == (3, 0)
        assert est.b.shape == (0, 2)
        np.testing.assert_allclose(
            est.resid_cov, data.x_bar.T @ data.x_bar / data.n, atol=1e-12
        )

    def test_covariances_spd_and_eigvals_sorted(self):
        for seed in range(4):
            data = whitened(50, 4, 3, seed=seed, signal=0.5)
            est = rrr_mle(data, rank=2)
            for m in (est.resid_cov, est.resid_cov_ls):
                np.testing.assert_allclose(m, m.T, atol=1e-10)
                assert np.linalg.eigvalsh(m)[0] > 0
            assert np.all(np.diff(est.eigenvalues) <= 1e-12)
            assert np.all(est.eigenvalues >= 0)

    def test_span_invariance_under_reparameterization(self):
        data = whitened(40, 4, 3, seed=9, signal=0.7)
        est = rrr_mle(data, rank=2)
        g = np.random.default_rng(0).standard_normal((2, 2))
        a2, b2 = est.a @ g, np.linalg.solve(g, est.b)
        np.testing.assert_allclose(a2 @ b2, est.coef, atol=1e-10)
        assert span_distance(a2, est.a) < 1e-10


class TestLoglik:
    def test_full_rank_equals_ls_likelihood(self):
        data = whitened(30, 4, 2, seed=6, signal=0.5)
        est = rrr_mle(data, rank=2)
        n, p = data.n, data.p
        d_ls = est.resid_cov_ls
        expected = (
            -0.5 * n * p * np.log(2 * np.pi)
            - 0.5 * n * np.linalg.slogdet(d_ls)[1]
            - 0.5 * n * p
        )
        assert loglik(data, est) == pytest.approx(expected, abs=1e-8)

    def test_scalar_instance_matches_gaussian_formula(self):
        x = np.array([[0.3], [-0.1], [0.7], [0.2]])
        f = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        x = x - x.mean(axis=0)
        f = f - f.mean(axis=0)
        data = WhitenedData(x_bar=x, f_bar=f)
        est = rrr_mle(data, 1)
        resid = x - f * est.coef[0, 0]
        sigma2 = float((resid**2).sum()) / 4
        oracle = -2 * np.log(2 * np.pi) - 2 * np.log(sigma2) - 2.0
        assert loglik(data, est) == pytest.approx(oracle, abs=1e-10)

    def test_monotone_in_rank(self):
        for seed in range(6):
            data = whitened(40, 4, 3, seed=seed, signal=0.4)
            lls = [loglik(data, rrr_mle(data, d)) for d in range(4)]
            assert np.all(np.diff(lls) >= -1e-10)

    def test_logdet_s_term_shifts_value(self):
        data = whitened(30, 3, 2, seed=8)
        est = rrr_mle(data, 1)
        assert loglik(data, est, logdet_s_term=2.5) == pytest.approx(
            loglik(data, est) - 2.5
        )


class TestReduction:
    def test_center_maps_to_zero(self):
        data = whitened(30, 4, 2, seed=10, signal=0.6)
        est = rrr_mle(data, 2)
        mu = np.random.default_rng(0).standard_normal(4)
        np.testing.assert_allclose(apply_reduction(mu, mu, est), 0.0, atol=1e-12)

    def test_ls_and_mle_covariance_give_identical_directions(self):
        data = whitened(60, 5, 2, seed=12, signal=0.6)
        est = rrr_mle(data, 1)
        np.testing.assert_allclose(
            est.directions(), np.linalg.solve(est.resid_cov_ls, est.a), atol=1e-8
        )

    def test_pairwise_distances_ignore_centering(self):
        data = whitened(30, 4, 2, seed=13, signal=0.6)
        est = rrr_mle(data, 2)
        pts = np.random.default_rng(1).standard_normal((6, 4))
        mu = np.random.default_rng(2).standard_normal(4)
        r1 = apply_reduction(pts, mu, est)
        r2 = apply_reduction(pts, np.zeros(4), est)
        d1 = np.linalg.norm(r1[:, None] - r1[None], axis=-1)
        d2 = np.linalg.norm(r2[:, None] - r2[None], axis=-1)
        np.testing.assert_allclose(d1, d2, atol=1e-9)

    def test_matches_row_by_row_product(self):
        data = whitened(30, 4, 2, seed=14, signal=0.6)
        est = rrr_mle(data, 2)
        mu = np.zeros(4)
        pts = np.random.default_rng(3).standard_normal((5, 4))
        dirs = np.linalg.solve(est.resid_cov, est.a)
        oracle = np.vstack([(pt - mu) @ dirs for pt in pts])
        np.testing.assert_allclose(apply_reduction(pts, mu, est), oracle, atol=1e-12)


def test_basis_scaling_leaves_fit_invariant():
    # rescaling feature columns must not change coef @ f paths or reductions
    rng = np.random.default_rng(21)
    n, p, r = 40, 4, 2
    f = rng.standard_normal((n, r))
    x = rng.standard_normal((n, p)) + f @ rng.standard_normal((p, r)).T
    x -= x.mean(axis=0)
    f -= f.mean(axis=0)
    scales = np.array([3.0, 0.25])
    d1 = WhitenedData(x_bar=x, f_bar=f)
    d2 = WhitenedData(x_bar=x, f_bar=f / scales)
    e1, e2 = rrr_mle(d1, 1), rrr_mle(d2, 1)
    np.testing.assert_allclose(e1.coef @ f.T, e2.coef @ (f / scales).T, atol=1e-8)
    np.testing.assert_allclose(e1.resid_cov, e2.resid_cov, atol=1e-10)
    assert span_distance(e1.a, e2.a) < 1e-8
    assert loglik(d1, e1) == pytest.approx(loglik(d2, e2), abs=1e-8)
