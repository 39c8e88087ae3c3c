import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from spatialsdr import _linalg
from spatialsdr._linalg import EIG_FLOOR, _jittered
from spatialsdr.exceptions import (
    InsufficientSampleError,
    RankOutOfRangeError,
    SingularResidualCovError,
)
from spatialsdr.rrr import (
    Moments,
    SdrFit,
    design,
    loglik,
    ls_fits,
    moments_of,
    profiled_mean,
    profile,
    rrr_mle,
)
from spatialsdr.sscm import SscmFit

from conftest import dense_loglik, eigh_loglik, span_distance


def independent_fit(x, f, logdet_s_term=0.0):
    """The shared fit of the rows ``[1 x f]`` under independent errors; raises
    the error ``ls_fits`` raises."""
    rows, shift = design(x, f)
    return ls_fits([moments_of(rows, x.shape[1], shift, logdet_s_term)])[0]


def whitened(n, p, r, seed, signal=0.0):
    """Centered predictors and features and their shared fit."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, r))
    x = rng.standard_normal((n, p))
    if signal:
        c = rng.standard_normal((p, r))
        x = x + signal * f @ c.T
    x -= x.mean(axis=0)
    f -= f.mean(axis=0)
    return x, f, independent_fit(x, f)


class TestLsFit:
    """The full-rank fit ``rrr_mle(ls, min(p, r))`` is the LS fit."""

    def test_identity_feature_metric(self):
        rng = np.random.default_rng(0)
        n, p, r = 24, 4, 2
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, r))]))
        f = q[:, 1:] * np.sqrt(n)  # centered, and f'f/n = I up to rounding
        x = rng.standard_normal((n, p))
        c_ls = rrr_mle(independent_fit(x, f), min(p, r)).coef
        np.testing.assert_allclose(c_ls, x.T @ f / n, atol=1e-10)

    def test_matches_generic_lstsq(self):
        x, f, ls = whitened(8, 3, 2, seed=5)
        c_ls = rrr_mle(ls, 2).coef
        oracle = np.linalg.lstsq(f, x, rcond=None)[0].T
        np.testing.assert_allclose(c_ls, oracle, atol=1e-10)

    def test_exact_fit_raises_singular_residuals(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((12, 2))
        c = rng.standard_normal((4, 2))
        with pytest.raises(SingularResidualCovError):
            rrr_mle(independent_fit(f @ c.T, f), 2)

    def test_sample_size_guard(self):
        with pytest.raises(InsufficientSampleError):
            whitened(5, 3, 2, seed=0)


class TestRrrMle:
    def test_full_rank_collapses_to_ls(self):
        for seed in range(5):
            x, f, ls = whitened(40, 5, 2, seed=seed, signal=1.0)
            c_ls = np.linalg.lstsq(f, x, rcond=None)[0].T
            est = rrr_mle(ls, rank=2)
            np.testing.assert_allclose(est.coef, c_ls, atol=1e-8)

    def test_matches_numeric_optimizer(self):
        # oracle: derivative-free minimization of log|residual covariance|
        x, f, ls = whitened(20, 2, 1, seed=3, signal=0.8)
        est = rrr_mle(ls, rank=1)

        def neg_profile(z):
            c = np.outer(z[:2], z[2:3])
            resid = x - f @ c.T
            return np.linalg.slogdet(resid.T @ resid / len(x))[1]

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
        resid = x - f @ est.coef.T
        ours = np.linalg.slogdet(resid.T @ resid / len(x))[1]
        assert ours <= best + 1e-4

    def test_no_signal_eigenvalues_small(self):
        _, _, ls = whitened(2000, 3, 2, seed=11, signal=0.0)
        est = rrr_mle(ls, rank=2)
        # with independent x and f, n * sum(eig) is approximately chi2(p*r)
        assert est.eigenvalues.max() < 0.05

    def test_rank_out_of_range(self):
        _, _, ls = whitened(30, 3, 2, seed=1)
        for bad in (-1, 3):
            with pytest.raises(RankOutOfRangeError):
                rrr_mle(ls, bad)
            with pytest.raises(RankOutOfRangeError):
                loglik(ls, bad)

    def test_rank_zero_supported(self):
        x, _, ls = whitened(30, 3, 2, seed=1)
        est = rrr_mle(ls, 0)
        assert est.a.shape == (3, 0)
        assert est.b.shape == (0, 2)
        np.testing.assert_allclose(est.resid_cov, x.T @ x / len(x), atol=1e-12)

    def test_covariances_spd_and_eigvals_sorted(self):
        for seed in range(4):
            _, _, ls = whitened(50, 4, 3, seed=seed, signal=0.5)
            est = rrr_mle(ls, rank=2)
            for m in (est.resid_cov, est.resid_cov_ls):
                np.testing.assert_allclose(m, m.T, atol=1e-10)
                assert np.linalg.eigvalsh(m)[0] > 0
            assert np.all(np.diff(est.eigenvalues) <= 1e-12)
            assert np.all(est.eigenvalues >= 0)

    def test_span_invariance_under_reparameterization(self):
        _, _, ls = whitened(40, 4, 3, seed=9, signal=0.7)
        est = rrr_mle(ls, rank=2)
        g = np.random.default_rng(0).standard_normal((2, 2))
        a2, b2 = est.a @ g, np.linalg.solve(g, est.b)
        np.testing.assert_allclose(a2 @ b2, est.coef, atol=1e-10)
        assert span_distance(a2, est.a) < 1e-10


class TestLoglik:
    def test_full_rank_equals_ls_likelihood(self):
        x, _, ls = whitened(30, 4, 2, seed=6, signal=0.5)
        est = rrr_mle(ls, rank=2)
        n, p = x.shape
        d_ls = est.resid_cov_ls
        expected = (
            -0.5 * n * p * np.log(2 * np.pi)
            - 0.5 * n * np.linalg.slogdet(d_ls)[1]
            - 0.5 * n * p
        )
        assert loglik(ls, 2) == pytest.approx(expected, abs=1e-8)

    def test_scalar_instance_matches_gaussian_formula(self):
        x = np.array([[0.3], [-0.1], [0.7], [0.2]])
        f = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        x = x - x.mean(axis=0)
        f = f - f.mean(axis=0)
        ls = independent_fit(x, f)
        est = rrr_mle(ls, 1)
        resid = x - f * est.coef[0, 0]
        sigma2 = float((resid**2).sum()) / 4
        oracle = -2 * np.log(2 * np.pi) - 2 * np.log(sigma2) - 2.0
        assert loglik(ls, 1) == pytest.approx(oracle, abs=1e-10)

    def test_monotone_in_rank(self):
        for seed in range(6):
            _, _, ls = whitened(40, 4, 3, seed=seed, signal=0.4)
            lls = [loglik(ls, d) for d in range(4)]
            assert np.all(np.diff(lls) >= -1e-10)

    def test_logdet_s_term_shifts_value(self):
        x, f, ls = whitened(30, 3, 2, seed=8)
        assert loglik(independent_fit(x, f, logdet_s_term=2.5), 1) == pytest.approx(
            loglik(ls, 1) - 2.5
        )

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4),
        st.floats(0.0, 3.0), st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_explicit_trace(self, seed, p, r, signal, spatial):
        # oracle: the matrix-normal density at the fitted mean, coefficient
        # and residual covariance, with its trace evaluated explicitly, under
        # a random row covariance (or none)
        rng = np.random.default_rng(seed)
        n = p + r + 2 + int(rng.integers(0, 30))
        f = rng.standard_normal((n, r)) + rng.standard_normal(r)
        x = rng.standard_normal((n, p)) + signal * f @ rng.standard_normal((p, r)).T + 5.0
        rows, shift = design(x, f)
        s_inv_half, s_logdet_term = None, 0.0
        if spatial:
            g = rng.standard_normal((n, n))
            chol = np.linalg.cholesky(g @ g.T / n + np.eye(n))
            s_inv_half = np.linalg.inv(chol)
            s_logdet_term = p * float(np.sum(np.log(np.diag(chol))))
            rows = s_inv_half @ rows
        [ls] = ls_fits([moments_of(rows, p, shift, s_logdet_term)])
        for d in range(min(p, r) + 1):
            est = rrr_mle(ls, d)
            mu = profiled_mean(ls, est)
            resid = x - mu - f @ est.coef.T
            if spatial:
                resid = s_inv_half @ resid
            np.testing.assert_allclose(est.resid_cov, resid.T @ resid / n, rtol=1e-9, atol=1e-12)
            want = dense_loglik(x, f, mu, est.a, est.b, est.resid_cov, s_logdet_term, s_inv_half)
            assert loglik(ls, d) == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("delta", [1e-9, 1e-7, 1e-6])
    def test_collinear_predictor_is_jittered_as_before(self, delta):
        # x[:, 1] is x[:, 0] plus noise of size delta, so the LS residual
        # covariance has an eigenvalue near delta^2, below the floor; the
        # policy (oracle: _jittered of the lstsq residual covariance) adds
        # 1e-8 * trace / p once, which passes, so the fit goes on
        rng = np.random.default_rng(5)
        n, p, r = 60, 4, 2
        f = rng.standard_normal((n, r))
        x = rng.standard_normal((n, p)) + f @ rng.standard_normal((p, r)).T
        x[:, 1] = x[:, 0] + delta * rng.standard_normal(n)
        fc, xc = f - f.mean(axis=0), x - x.mean(axis=0)
        resid = xc - fc @ np.linalg.lstsq(fc, xc, rcond=None)[0]
        d_raw = resid.T @ resid / n
        assert np.linalg.eigvalsh(d_raw)[0] < EIG_FLOOR
        want = _jittered(d_raw, SingularResidualCovError)
        ls = independent_fit(x, f)
        for d in range(3):
            est = rrr_mle(ls, d)
            np.testing.assert_allclose(est.resid_cov_ls, want, rtol=0, atol=1e-12)
            assert np.isfinite(loglik(ls, d))
            # the closed form reads the jittered D_ls; slogdet of a matrix
            # with condition ~1e9 carries about 1e-7 relative error
            logdet = np.linalg.slogdet(est.resid_cov)[1]
            assert loglik(ls, d) == pytest.approx(
                -0.5 * n * p * (np.log(2 * np.pi) + 1.0) - 0.5 * n * logdet, rel=1e-7
            )


class TestTriangularLsFit:
    """``ls_fits`` reads every rank's log-likelihood from a Cholesky factor."""

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4),
        st.floats(0.0, 3.0), st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_loglik_matches_eigh_oracle(self, seed, p, r, signal, spatial):
        # oracle: eigh of D_ls and eigvalsh of K, in conftest.eigh_loglik
        rng = np.random.default_rng(seed)
        n = p + r + 3 + int(rng.integers(0, 40))
        f = rng.standard_normal((n, r))
        x = rng.standard_normal((n, p)) + signal * f @ rng.standard_normal((p, r)).T
        rows, shift = design(x, f)
        if spatial:
            g = rng.standard_normal((n, n))
            rows = np.linalg.solve(np.linalg.cholesky(g @ g.T / n + np.eye(n)), rows)
        moments = moments_of(rows, p, shift)
        [ls] = ls_fits([moments])
        for d in range(min(p, r) + 1):
            assert loglik(ls, d) == pytest.approx(eigh_loglik(moments, d), rel=1e-12)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 1e8])
    def test_jitter_decision_is_pd_eighs(self, scale):
        # D_ls has lambda_min = scale * EIG_FLOOR; oracle: the policy's _jittered of D_ls as
        # ls_fits forms it, which jitters exactly when lambda_min < EIG_FLOOR
        rng = np.random.default_rng(7)
        n, p, r = 50, 4, 2
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        d_ls = (q * [scale * EIG_FLOOR, 0.5, 1.0, 2.0]) @ q.T
        c = rng.standard_normal((p, r))
        s_ff = np.eye(r) + 0.3
        s = np.block([[d_ls + c @ s_ff @ c.T, c @ s_ff], [s_ff @ c.T, s_ff]])
        m = np.zeros((1 + p + r, 1 + p + r))
        m[0, 0], m[1:, 1:] = n, n * (s + s.T) / 2.0
        [ls] = ls_fits([Moments(m, n, p, 0.0, np.zeros(p + r))])
        s = m[1:, 1:] / n
        c_ls = np.linalg.solve(s[p:, p:], s[:p, p:].T).T
        raw = s[:p, :p] - c_ls @ s[:p, p:].T
        raw = (raw + raw.T) / 2.0
        want = _jittered(raw, SingularResidualCovError)
        assert np.array_equal(want, raw) == (scale > 1.0)
        np.testing.assert_array_equal(ls.d_ls, want)
        # condition numbers up to 2e10 leave about 1e-6 absolute in log lambda_min
        assert ls.logdet_ls == pytest.approx(np.sum(np.log(np.linalg.eigvalsh(want))), abs=1e-5)
        np.testing.assert_array_equal(rrr_mle(ls, 1).resid_cov_ls, want)


def collinear_moments(delta):
    """Moments of the sample of ``test_collinear_predictor_is_jittered_as_before``
    (n=60, p=4, r=2), whose second predictor is the first plus noise of size delta."""
    rng = np.random.default_rng(5)
    n, p, r = 60, 4, 2
    f = rng.standard_normal((n, r))
    x = rng.standard_normal((n, p)) + f @ rng.standard_normal((p, r)).T
    x[:, 1] = x[:, 0] + delta * rng.standard_normal(n)
    rows, shift = design(x, f)
    return moments_of(rows, p, shift)


def assert_same_fit(fit, want, rtol=1e-13):
    """Equal log|D_ls|, lambda_i and log-likelihood at every rank, to ``rtol``."""
    assert fit.logdet_ls == pytest.approx(want.logdet_ls, rel=rtol)
    np.testing.assert_allclose(fit.fit_vals, want.fit_vals, rtol=rtol, atol=0)
    for d in range(want.fit_vals.size + 1):
        assert loglik(fit, d) == pytest.approx(loglik(want, d), rel=rtol)


class TestStackedLsFits:
    """``ls_fits`` takes every grid point in one stacked pass, each as its own
    stack of one would."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_a_stack_matches_stacks_of_one(self, seed, k, p, r):
        # k points of one sample, each under its own random row covariance
        rng = np.random.default_rng(seed)
        n = p + r + 3 + int(rng.integers(0, 30))
        f = rng.standard_normal((n, r))
        x = rng.standard_normal((n, p)) + f @ rng.standard_normal((p, r)).T
        rows, shift = design(x, f)
        points = []
        for _ in range(k):
            g = rng.standard_normal((n, n))
            chol = np.linalg.cholesky(g @ g.T / n + np.eye(n))
            logdet_s_term = p * float(np.log(np.diag(chol)).sum())
            points.append(moments_of(np.linalg.solve(chol, rows), p, shift, logdet_s_term))
        fits = ls_fits(points)
        assert len(fits) == k
        for fit, point in zip(fits, points):
            assert fit.moments is point
            assert_same_fit(fit, *ls_fits([point]))

    def test_a_jittered_point_amid_certified_ones_takes_the_fallback(self, monkeypatch):
        # numpy's stacked Cholesky fails for the whole stack, so each point goes
        # through pd_cholesky alone: the collinear point (delta = 1e-7) is jittered
        # as when it is fitted alone, and its neighbours are certified as before
        n, p = 60, 4
        jittered = collinear_moments(1e-7)
        before, after = (whitened(n, p, 2, seed=seed, signal=0.5)[2].moments for seed in (1, 2))
        calls, original = [], _linalg.pd_cholesky

        def spy(m, err):
            calls.append(m)
            return original(m, err)

        monkeypatch.setattr(_linalg, "pd_cholesky", spy)
        neighbours = ls_fits([before, after])
        assert calls == []  # a certified stack takes no per-point fallback
        fits = ls_fits([before, jittered, after])
        assert len(calls) == 3 and len(fits) == 3
        [alone] = ls_fits([jittered])
        np.testing.assert_array_equal(fits[1].d_ls, alone.d_ls)
        assert np.linalg.eigvalsh(calls[1])[0] < EIG_FLOOR <= np.linalg.eigvalsh(alone.d_ls)[0]
        assert_same_fit(fits[1], alone)
        for d in range(3):
            # the closed form at the jittered D_ls, as the collinear test pins it
            logdet = np.linalg.slogdet(rrr_mle(fits[1], d).resid_cov)[1]
            assert loglik(fits[1], d) == pytest.approx(
                -0.5 * n * p * (np.log(2 * np.pi) + 1.0) - 0.5 * n * logdet, rel=1e-7
            )
        assert_same_fit(fits[0], neighbours[0])
        assert_same_fit(fits[2], neighbours[1])

    def test_a_failing_point_ends_the_stack(self):
        # predictors that the features fit exactly leave D_ls at rounding level,
        # which fails the policy even after jitter; the stack raises its error,
        # with good points around it or alone
        rng = np.random.default_rng(2)
        f = rng.standard_normal((60, 2))
        rows, shift = design(f @ rng.standard_normal((4, 2)).T, f)
        exact = moments_of(rows, 4, shift)
        good = whitened(60, 4, 2, seed=3, signal=0.5)[2].moments
        with pytest.raises(SingularResidualCovError):
            ls_fits([good, exact, good])
        with pytest.raises(SingularResidualCovError):
            ls_fits([exact])


class TestProfile:
    def test_a_tie_keeps_the_earliest_point_and_the_grid_ascends(self):
        moments = whitened(40, 4, 2, seed=5, signal=0.5)[2].moments
        fits = profile(SscmFit, "sscm", [0, 1], [0.3, 0.2, 0.1], [moments] * 3)
        for rank, fit in zip([0, 1], fits):
            assert fit.est.rank == rank
            assert fit.decay == 0.3
            assert [param for param, _ in fit.grid] == [0.1, 0.2, 0.3]
            assert {ll for _, ll in fit.grid} == {fit.loglik}

    def test_a_repeated_param_is_one_grid_pair(self):
        moments = whitened(40, 4, 2, seed=5, signal=0.5)[2].moments
        [fit] = profile(SscmFit, "sscm", [1], [0.1, 0.1], [moments] * 2)
        assert fit.grid == [(0.1, fit.loglik)]


def reduce(pts, mu, est):
    """``SdrFit.reduce`` of a fit that holds ``est`` and ``mu``; its other fields are not read."""
    return SdrFit("ind", est, mu, 0.0, [(None, 0.0)]).reduce(pts)


class TestReduction:
    def test_center_maps_to_zero(self):
        _, _, ls = whitened(30, 4, 2, seed=10, signal=0.6)
        est = rrr_mle(ls, 2)
        mu = np.random.default_rng(0).standard_normal(4)
        np.testing.assert_allclose(reduce(mu, mu, est), 0.0, atol=1e-12)

    def test_ls_and_mle_covariance_give_identical_directions(self):
        _, _, ls = whitened(60, 5, 2, seed=12, signal=0.6)
        est = rrr_mle(ls, 1)
        np.testing.assert_allclose(
            est.directions(), np.linalg.solve(est.resid_cov_ls, est.a), atol=1e-8
        )

    def test_pairwise_distances_ignore_centering(self):
        _, _, ls = whitened(30, 4, 2, seed=13, signal=0.6)
        est = rrr_mle(ls, 2)
        pts = np.random.default_rng(1).standard_normal((6, 4))
        mu = np.random.default_rng(2).standard_normal(4)
        r1 = reduce(pts, mu, est)
        r2 = reduce(pts, np.zeros(4), est)
        d1 = np.linalg.norm(r1[:, None] - r1[None], axis=-1)
        d2 = np.linalg.norm(r2[:, None] - r2[None], axis=-1)
        np.testing.assert_allclose(d1, d2, atol=1e-9)

    def test_matches_row_by_row_product(self):
        _, _, ls = whitened(30, 4, 2, seed=14, signal=0.6)
        est = rrr_mle(ls, 2)
        mu = np.zeros(4)
        pts = np.random.default_rng(3).standard_normal((5, 4))
        dirs = np.linalg.solve(est.resid_cov, est.a)
        oracle = np.vstack([(pt - mu) @ dirs for pt in pts])
        np.testing.assert_allclose(reduce(pts, mu, est), oracle, atol=1e-12)


def test_basis_scaling_leaves_fit_invariant():
    # rescaling feature columns must not change coef @ f paths or reductions
    rng = np.random.default_rng(21)
    n, p, r = 40, 4, 2
    f = rng.standard_normal((n, r))
    x = rng.standard_normal((n, p)) + f @ rng.standard_normal((p, r)).T
    x -= x.mean(axis=0)
    f -= f.mean(axis=0)
    scales = np.array([3.0, 0.25])
    d1 = independent_fit(x, f)
    d2 = independent_fit(x, f / scales)
    e1, e2 = rrr_mle(d1, 1), rrr_mle(d2, 1)
    np.testing.assert_allclose(e1.coef @ f.T, e2.coef @ (f / scales).T, atol=1e-8)
    np.testing.assert_allclose(e1.resid_cov, e2.resid_cov, atol=1e-10)
    assert span_distance(e1.a, e2.a) < 1e-8
    assert loglik(d1, 1) == pytest.approx(loglik(d2, 1), abs=1e-8)
