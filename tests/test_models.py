"""Whitening transforms and profile fits for the three error models."""

import copy
import statistics

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialsdr import sem, sscm
from spatialsdr.basis import BasisSpec, build_f
from spatialsdr.data import SpatialSample, train_test_split
from spatialsdr.dimension import rank_fits
from spatialsdr.exceptions import NearSingularCorrelationError, SingularFilterError
from spatialsdr.geometry import (
    Coordinates,
    exp_correlation,
    max_min_distance,
    neighbor_graph,
    neighbor_weights,
    pairwise_distances,
    spatial_filter,
)
from spatialsdr.pfc import fit_independent
from spatialsdr.rrr import design, loglik, ls_fits, moments_of
from spatialsdr.sem import DEFAULT_GRID, fit_sem, whiten_sem
from spatialsdr.simulate import GrfSpec, SimConfig, sample_locations, simulate_sample
from spatialsdr.simulate import _draw_sample, rep_rng, run_experiment, simulate_x, simulate_y
from spatialsdr.sscm import default_decay_grid, fit_sscm, whiten_sscm

from conftest import eigh_estimate, eigh_loglik, random_sample, span_distance


# seed, n, p and rank of a drawn sample and fit
SAMPLE_DRAWS = (st.integers(0, 2**32 - 1), st.integers(30, 80), st.integers(2, 5), st.integers(0, 2))


def assert_reproduces_independent(fit, sample, spec, rank):
    """``fit`` has the independent fit's log-likelihood (rel 1e-10), mean,
    coefficients, residual covariance and reduction of the predictors."""
    ind = fit_independent(sample, spec, rank)
    assert fit.loglik == pytest.approx(ind.loglik, rel=1e-10)
    for got, want in ((fit.mu, ind.mu), (fit.est.coef, ind.est.coef), (fit.est.resid_cov, ind.est.resid_cov)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    reduced, want = fit.reduce(sample.x), ind.reduce(sample.x)
    assert reduced.shape == want.shape == (sample.n, rank)
    np.testing.assert_allclose(reduced, want, rtol=0, atol=1e-10 * max(1.0, np.abs(want).max(initial=0)))


def fit_over(fitter, sample, spec, rank, grid):
    """``fitter``'s profile over ``grid`` in place of its model's default grid, patched for this
    call alone: ``sscm.default_decay_grid`` for ``fit_sscm``, ``sem.DEFAULT_GRID`` for ``fit_sem``."""
    with pytest.MonkeyPatch.context() as patch:
        if fitter is fit_sscm:
            patch.setattr(sscm, "default_decay_grid", lambda dist: np.array(grid, dtype=float))
        else:
            patch.setattr(sem, "DEFAULT_GRID", np.array(grid, dtype=float))
        return fitter(sample, spec, rank)


def three_point_geometry():
    coords = Coordinates(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]]))
    return coords, pairwise_distances(coords)


def schur(moments):
    """Schur complement of a moment matrix on its intercept entry."""
    m = moments.m
    return m[1:, 1:] - np.outer(m[1:, 0], m[0, 1:]) / m[0, 0]


def centered_rows(x, f):
    """``[1 X F]`` with ``X`` and ``F`` less their column means."""
    xf = np.column_stack([x, f])
    return np.column_stack([np.ones(len(xf)), xf - xf.mean(axis=0)])


def pairwise_gaps(points):
    """Euclidean distances between the rows of ``points``."""
    return np.linalg.norm(points[:, None] - points[None], axis=2)


class TestWhitenSscm:
    def test_identity_correlation_is_plain_centering(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 2))
        f = rng.standard_normal((6, 1))
        coords = Coordinates(rng.uniform(0, 10, size=(6, 2)))
        dist = pairwise_distances(coords)
        np.testing.assert_allclose(exp_correlation(dist, 200.0).matrix, np.eye(6), atol=1e-12)
        xc = x - x.mean(axis=0)
        np.testing.assert_allclose(schur(next(whiten_sscm(x, f, dist, [200.0])))[:2, :2], xc.T @ xc, atol=1e-10)

    def test_annihilates_constant_vector(self):
        rng = np.random.default_rng(1)
        coords = Coordinates(rng.uniform(size=(8, 2)))
        ones = np.ones((8, 1))
        gram = schur(next(whiten_sscm(ones, np.arange(8.0)[:, None] - 3.5, pairwise_distances(coords), [1.5])))
        np.testing.assert_allclose(gram[0], 0.0, atol=1e-10)

    def test_matches_dense_matrix_oracle(self):
        _, dist = three_point_geometry()
        corr = exp_correlation(dist, 1.0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 1))
        h = corr.matrix
        h_inv = np.linalg.inv(h)
        ones = np.ones((3, 1))
        hc = np.eye(3) - (ones @ ones.T @ h_inv) / (ones.T @ h_inv @ ones).item()
        oracle = np.real(sla.sqrtm(h_inv)) @ hc @ x
        moments = next(whiten_sscm(x, x[:, :1], dist, [1.0]))
        # The Schur complement is the Gram of the generalized centering
        # followed by any square root of inv(H).
        np.testing.assert_allclose(schur(moments), np.tile(oracle.T @ oracle, (2, 2)), atol=1e-9)
        rows = centered_rows(x, x)
        np.testing.assert_allclose(moments.m, rows.T @ h_inv @ rows, atol=1e-9)
        assert moments.logdet_s_term == pytest.approx(0.5 * np.linalg.slogdet(h)[1], abs=1e-12)


class TestWhitenSem:
    def test_zero_coef_is_plain_centering(self):
        coords, dist = three_point_geometry()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 1))
        moments = next(whiten_sem(x, x[:, :1], neighbor_graph(dist), [0.0]))
        xc = x - x.mean(axis=0)
        np.testing.assert_allclose(schur(moments)[:1, :1], xc.T @ xc, atol=1e-12)
        assert moments.logdet_s_term == 0.0

    def test_annihilates_constant_vector(self):
        coords, dist = three_point_geometry()
        f = np.arange(3.0)[:, None] - 1.0
        moments = next(whiten_sem(np.ones((3, 1)), f, neighbor_graph(dist), [0.6]))
        np.testing.assert_allclose(schur(moments)[0], 0.0, atol=1e-12)

    def test_matches_dense_matrix_oracle(self):
        coords, dist = three_point_geometry()
        w = neighbor_weights(dist, 2.0)  # max_min_distance: the dense W of neighbor_graph
        wt = spatial_filter(w, 0.5)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 1))
        m = wt.T @ wt
        ones = np.ones((3, 1))
        wc = np.eye(3) - (ones @ ones.T @ m) / (ones.T @ m @ ones).item()
        oracle = wt @ wc @ x
        gram = schur(next(whiten_sem(x, x[:, :1], neighbor_graph(dist), [0.5])))
        np.testing.assert_allclose(gram, np.tile(oracle.T @ oracle, (2, 2)), atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_moments_and_logdet_match_the_dense_filter(self, seed):
        # oracle: the dense filter I - coef W applied to [1 X F], and its slogdet
        sample = random_sample(60, 4, seed=seed)
        dist = pairwise_distances(sample.coords)
        w = neighbor_weights(dist, max_min_distance(dist))
        f = np.random.default_rng(seed).standard_normal((60, 2))
        rows = centered_rows(sample.x, f)
        for coef, moments in zip(DEFAULT_GRID, whiten_sem(sample.x, f, neighbor_graph(dist), DEFAULT_GRID)):
            wt = np.eye(60) - coef * w
            want = (wt @ rows).T @ (wt @ rows)
            np.testing.assert_allclose(moments.m, want, rtol=0, atol=1e-10 * np.abs(want).max())
            log_abs_det = np.linalg.slogdet(wt)[1]
            assert -moments.logdet_s_term / 4 == pytest.approx(log_abs_det, rel=1e-12, abs=1e-12)

    def test_lag_next_to_one_is_singular(self):
        # 1 - 2^-53 lies in (-1, 1), but 1 - coef * lambda_max is ~1e-16
        sample = random_sample(40, 3, seed=12)
        with pytest.raises(SingularFilterError, match="numerically singular"):
            fit_over(fit_sem, sample, BasisSpec("polynomial", 2), 1, [1.0 - 2.0**-53])


class TestFitSscm:
    def test_singleton_grid(self):
        sample = random_sample(50, 4, seed=1)
        fit = fit_over(fit_sscm, sample, BasisSpec("polynomial", 2), 1, [0.7])
        assert fit.decay == 0.7
        assert len(fit.grid) == 1

    def test_argmax_over_grid(self):
        sample = random_sample(60, 4, seed=2)
        fit = fit_over(fit_sscm, sample, BasisSpec("polynomial", 2), 1, [0.3, 1.0, 3.0])
        lls = [ll for _, ll in fit.grid]
        assert fit.loglik == max(lls)
        assert all(np.isfinite(ll) for ll in lls)

    @staticmethod
    def identity_decay(sample):
        """A decay so large that every off-diagonal ``exp(-decay * d)``
        underflows to 0, so the correlation matrix is exactly the identity."""
        dist = pairwise_distances(sample.coords)
        d_min = dist[np.triu_indices(len(dist), k=1)].min()
        decay = 1000.0 / d_min
        assert decay * d_min > 800.0  # exp(-800) underflows to 0.0
        np.testing.assert_array_equal(exp_correlation(dist, decay).matrix, np.eye(len(dist)))
        return decay

    @given(*SAMPLE_DRAWS)
    @settings(max_examples=15, deadline=None)
    def test_identity_fit_reproduces_independent(self, seed, n, p, rank):
        sample = random_sample(n, p, seed=seed % 10_000)
        spec = BasisSpec("polynomial", 2)
        fit = fit_over(fit_sscm, sample, spec, rank, [self.identity_decay(sample)])
        assert_reproduces_independent(fit, sample, spec, rank)

    def test_identity_mu_is_mean_adjusted(self):
        sample = random_sample(40, 3, seed=4)
        decay = self.identity_decay(sample)
        fit = fit_over(fit_sscm, sample, BasisSpec("polynomial", 2), 1, [decay])
        # centered features make the adjustment vanish: mu = column means
        np.testing.assert_allclose(fit.mu, sample.x.mean(axis=0), atol=1e-10)

    def test_reduce_at_mu_is_zero(self):
        sample = random_sample(40, 3, seed=6)
        fit = fit_over(fit_sscm, sample, BasisSpec("polynomial", 2), 1, [1.0])
        np.testing.assert_allclose(fit.reduce(fit.mu), 0.0, atol=1e-10)

    def test_reduce_d1_matches_dot_product(self):
        sample = random_sample(40, 3, seed=7)
        fit = fit_over(fit_sscm, sample, BasisSpec("polynomial", 2), 1, [1.0])
        dirs = np.linalg.solve(fit.est.resid_cov, fit.est.a)
        x_new = np.random.default_rng(0).standard_normal(3)
        oracle = ((x_new - fit.mu) @ dirs).item()
        assert fit.reduce(x_new)[0] == pytest.approx(oracle, abs=1e-12)

    def test_default_grid_spans_median_scale(self):
        sample = random_sample(40, 3, seed=8)
        dist = pairwise_distances(sample.coords)
        grid = default_decay_grid(dist)
        tri = dist[np.triu_indices(len(dist), k=1)]
        m = np.median(tri)
        assert grid[0] == pytest.approx(0.1 / m)
        assert grid[-1] == pytest.approx(10.0 / m)
        assert len(grid) == 20


class TestFitSem:
    @given(*SAMPLE_DRAWS)
    @settings(max_examples=15, deadline=None)
    def test_zero_grid_collapses_to_independent(self, seed, n, p, rank):
        sample = random_sample(n, p, seed=seed % 10_000)
        spec = BasisSpec("polynomial", 2)
        fit = fit_over(fit_sem, sample, spec, rank, [0.0])
        assert_reproduces_independent(fit, sample, spec, rank)

    def test_argmax_and_finite_profile(self):
        sample = random_sample(60, 4, seed=10)
        fit = fit_sem(sample, BasisSpec("polynomial", 2), 1)
        lls = [ll for _, ll in fit.grid]
        assert len(lls) == 39
        assert all(np.isfinite(ll) for ll in lls)
        assert fit.loglik == max(lls)

    def test_grid_reported_in_ascending_order(self):
        # every kind records one entry per parameter, in ascending order: SEM's scan by |coef|
        # too, and SSCM's default grid, ascending by construction
        sample = random_sample(40, 3, seed=11)
        spec = BasisSpec("polynomial", 2)
        fit = fit_over(fit_sem, sample, spec, 1, [0.4, -0.4, 0.0])
        assert [c for c, _ in fit.grid] == [-0.4, 0.0, 0.4]
        fit = fit_sscm(sample, spec, 1)
        decays = default_decay_grid(pairwise_distances(sample.coords)).tolist()
        assert [c for c, _ in fit.grid] == decays == sorted(decays)
        assert fit.loglik == max(ll for _, ll in fit.grid)
        fit = fit_independent(sample, spec, 1)
        assert fit.grid == [(None, fit.loglik)]

    def test_reduce_d2_matches_dense_oracle(self):
        sample = random_sample(60, 4, seed=13)
        fit = fit_over(fit_sem, sample, BasisSpec("polynomial", 2), 2, [0.3])
        x_new = np.random.default_rng(1).standard_normal((5, 4))
        dirs = np.linalg.solve(fit.est.resid_cov, fit.est.a)
        oracle = (x_new - fit.mu) @ dirs
        np.testing.assert_allclose(fit.reduce(x_new), oracle, atol=1e-12)

    def test_mu_uses_filter_weights(self):
        sample = random_sample(40, 3, seed=14)
        fit = fit_over(fit_sem, sample, BasisSpec("polynomial", 2), 1, [0.5])
        w = neighbor_weights(
            pairwise_distances(sample.coords),
            max_min_distance(pairwise_distances(sample.coords)),
        )
        wt = np.eye(40) - 0.5 * w
        m = wt.T @ wt
        ones = np.ones(40)
        f_fit = build_f(sample.y, BasisSpec("polynomial", 2))
        oracle = (
            (sample.x.T - fit.est.coef @ f_fit.T) @ m @ ones
            / (ones @ m @ ones).item()
        )
        np.testing.assert_allclose(fit.mu, oracle, atol=1e-10)


class TestWhitenCenter:
    def test_centering(self):
        # the independent model's moments: the design is column-centered,
        # and its Schur complement is the Gram of the centered [X F]
        rng = np.random.default_rng(15)
        x = rng.standard_normal((20, 3))
        f = rng.standard_normal((20, 2))
        rows, shift = design(x, f)
        np.testing.assert_allclose(rows[:, 1:].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(shift, np.concatenate([x.mean(axis=0), f.mean(axis=0)]))
        xf = centered_rows(x, f)[:, 1:]
        np.testing.assert_allclose(schur(moments_of(rows, 3, shift)), xf.T @ xf, atol=1e-12)


class TestInvariance:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ind", "sscm", "sem"]))
    @settings(max_examples=15, deadline=None)
    def test_permuting_locations_changes_no_profile(self, seed, kind):
        sample = random_sample(40, 3, seed=seed % 10_000)
        perm = np.random.default_rng(seed).permutation(sample.n)
        shuffled = SpatialSample(
            Coordinates(sample.coords.points[perm]), sample.x[perm], sample.y[perm]
        )
        spec = BasisSpec("polynomial", 2)
        for fit, other in zip(rank_fits(sample, kind, spec, [0, 1, 2]),
                              rank_fits(shuffled, kind, spec, [0, 1, 2])):
            assert fit.spatial_param == other.spatial_param
            assert other.loglik == pytest.approx(fit.loglik, rel=1e-10)
            if kind != "ind":
                assert [c for c, _ in other.grid] == [c for c, _ in fit.grid]
                np.testing.assert_allclose(
                    [ll for _, ll in other.grid], [ll for _, ll in fit.grid], rtol=1e-10
                )

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ind", "sscm", "sem"]))
    @settings(max_examples=15, deadline=None)
    def test_affine_predictors_shift_the_profile_and_keep_the_reduction(self, seed, kind):
        # X -> XQ + c multiplies the likelihood by |det Q|^-n at every grid
        # point and moves the reduced points only by a rotation (the SDR
        # subspace is equivariant)
        sample = random_sample(40, 3, seed=seed % 10_000)
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        moved = SpatialSample(sample.coords, sample.x @ q + rng.standard_normal(3), sample.y)
        shift = -sample.n * np.linalg.slogdet(q)[1]
        spec = BasisSpec("polynomial", 2)
        for fit, other in zip(rank_fits(sample, kind, spec, [0, 1, 2]),
                              rank_fits(moved, kind, spec, [0, 1, 2])):
            assert other.spatial_param == fit.spatial_param
            assert [c for c, _ in other.grid] == [c for c, _ in fit.grid]
            for (_, ll), (_, ll_moved) in zip(fit.grid, other.grid):
                assert ll_moved == pytest.approx(ll + shift, rel=1e-8)
            gaps = pairwise_gaps(fit.reduce(sample.x))
            np.testing.assert_allclose(
                pairwise_gaps(other.reduce(moved.x)), gaps, rtol=0, atol=1e-6 * gaps.max()
            )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("model", ["sscm", "sem"])
def test_profile_grids_match_the_eigh_oracle(seed, model):
    # SimConfig() training splits: every grid value of the SSCM and SEM fits
    # at ranks 0..2 matches conftest.eigh_loglik of that grid point's moments
    cfg = SimConfig(model=model, seed=seed)
    rng = rep_rng(cfg.seed, 0)
    train, _ = train_test_split(_draw_sample(cfg, rng), cfg.train_frac, rng)
    spec = BasisSpec("polynomial", cfg.r)
    f = build_f(train.y, spec)
    dist = pairwise_distances(train.coords)
    graph = neighbor_graph(dist)
    moments = {
        "sscm": lambda decay: next(whiten_sscm(train.x, f, dist, [decay])),
        "sem": lambda coef: next(whiten_sem(train.x, f, graph, [coef])),
    }
    for kind in ("sscm", "sem"):
        for rank, fit in enumerate(rank_fits(train, kind, spec, [0, 1, 2])):
            want = {param: eigh_loglik(moments[kind](param), rank) for param, _ in fit.grid}
            for param, ll in fit.grid:
                assert ll == pytest.approx(want[param], rel=1e-10)
            assert fit.spatial_param == max(want, key=want.get)


def assert_close_to(got, want, rel):
    """``got`` has ``want``'s shape and lies within ``rel`` of its largest entry."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_estimates_match_the_symmetric_root_oracle(seed):
    # every kind at ranks 0..2: the log-likelihood is the closed form at the
    # argmax bit for bit, and coef, resid_cov, mu and the reduced points'
    # distances are conftest.eigh_estimate's (the D_ls^{1/2} V_d root) to 1e-10
    sample = random_sample(80, 4, seed=seed, rank=2)
    spec = BasisSpec("polynomial", 2)
    f = build_f(sample.y, spec)
    dist = pairwise_distances(sample.coords)
    graph = neighbor_graph(dist)
    rows, shift = design(sample.x, f)
    moments = {
        "ind": lambda _: moments_of(rows, sample.p, shift),
        "sscm": lambda decay: next(whiten_sscm(sample.x, f, dist, [decay])),
        "sem": lambda coef: next(whiten_sem(sample.x, f, graph, [coef])),
    }
    for kind, at in moments.items():
        for rank, fit in enumerate(rank_fits(sample, kind, spec, [0, 1, 2])):
            m = at(fit.spatial_param)
            [ls] = ls_fits([m])
            assert fit.loglik == loglik(ls, rank) == dict(fit.grid)[fit.spatial_param]
            a, b, resid_cov, mu = eigh_estimate(m, rank)
            assert fit.est.a.shape == a.shape == (4, rank) and fit.est.b.shape == b.shape == (rank, 2)
            assert_close_to(fit.est.coef, a @ b, 1e-10)
            assert_close_to(fit.est.resid_cov, resid_cov, 1e-10)
            assert_close_to(fit.mu, mu, 1e-10)
            reduced = (sample.x - mu) @ np.linalg.solve(resid_cov, a)
            assert_close_to(pairwise_gaps(fit.reduce(sample.x)), pairwise_gaps(reduced), 1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_sem_recovers_the_lag_at_large_n(seed):
    # SEM data with lag 0.8 at n=600: the profiled lag lies within one grid step
    cfg = SimConfig(n=600, model="sem", lag_coef=0.8, seed=seed)
    sample = simulate_sample(cfg, 0)
    fit = fit_sem(sample, BasisSpec("polynomial", cfg.r), cfg.d)
    assert abs(fit.lag_coef - 0.8) <= 0.05 + 1e-12


def planted_sample(cfg, rep):
    """Replication ``rep``'s full sample, drawn as the harness draws it, and its
    planted reduction ``inv(Delta) A``: ``simulate_x``'s draws of ``A`` and of the
    noise covariance ``Delta``, replayed on a copy of the replication's rng."""
    rng = rep_rng(cfg.seed, rep)
    coords = sample_locations(cfg.n, rng, grid=cfg.grid_locations)
    y = simulate_y(coords, GrfSpec(), rng)
    replay = copy.deepcopy(rng)
    x = simulate_x(y, coords, cfg, rng)
    replay.standard_normal(cfg.p)  # the mean
    a = replay.standard_normal((cfg.p, cfg.d))
    replay.standard_normal((cfg.d, cfg.r))  # the second factor
    g = replay.standard_normal((cfg.p, cfg.p))
    return SpatialSample(coords, x, y), np.linalg.solve(g @ g.T + 0.1 * np.eye(cfg.p), a)


def test_the_planted_sample_is_the_replications():
    cfg = SimConfig(n=60, model="sscm", seed=5)
    sample, _ = planted_sample(cfg, 3)
    want = simulate_sample(cfg, 3)
    np.testing.assert_array_equal(sample.x, want.x)
    np.testing.assert_array_equal(sample.y, want.y)


def test_sscm_reduction_converges_on_sscm_data():
    # median span distance to the planted inv(Delta) A over replications 0-11
    # of SimConfig(model="sscm", seed=5) falls by at least 0.1 from n=100 to
    # n=900 (about 0.31 to 0.14); seeds, sizes and margin were fixed before
    # the first run
    medians = {}
    for n in (100, 900):
        cfg = SimConfig(n=n, model="sscm", seed=5)
        spec = BasisSpec("polynomial", cfg.r)
        distances = []
        for rep in range(12):
            sample, want = planted_sample(cfg, rep)
            distances.append(span_distance(fit_sscm(sample, spec, cfg.d).est.directions(), want))
        medians[n] = statistics.median(distances)
    assert medians[900] <= medians[100] - 0.1, medians


def test_the_paper_comparisons_that_hold_at_the_default_settings():
    # the facts of the comparison that hold at SimConfig(): under the fixed rank, Ind predicts
    # better than FULL in most mode-replications (both kernels), and on SSCM data SSCM's span
    # is closer to the planted inv(Delta) A than Ind's.  Nothing is asserted about a spatial
    # mode beating Ind, which does not hold there.  The seeds were fixed before the first run;
    # the bound came from seeds 201-216 in groups of four, where Ind won 73-80 of 80; on their
    # SSCM data (replications 0-4 each), SSCM's span was the closer in 77 of 80 replications
    wins = 0
    for seed in (61, 62, 63, 64):
        report = run_experiment(SimConfig(seed=seed, reps=10), ["1k.FULL", "2k.FULL", "1k.Ind", "2k.Ind"])
        wins += sum(np.less(report.mse[f"{k}.Ind"], report.mse[f"{k}.FULL"]).sum() for k in ("1k", "2k"))
    assert wins >= 64, wins
    spans = {"sscm": [], "ind": []}
    for seed in (61, 62):
        cfg = SimConfig(model="sscm", seed=seed)
        spec = BasisSpec("polynomial", cfg.r)
        for rep in range(5):
            sample, want = planted_sample(cfg, rep)
            for kind, fit in (("sscm", fit_sscm), ("ind", fit_independent)):
                spans[kind].append(span_distance(fit(sample, spec, cfg.d).est.directions(), want))
    assert statistics.median(spans["sscm"]) < statistics.median(spans["ind"]), spans


@pytest.mark.parametrize("kind", ["sscm", "sem"])
def test_rrr_mle_decomposes_each_distinct_argmax_once(monkeypatch, kind):
    # ranks that share an argmax share its one SVD with vectors; each estimate
    # is bit for bit rrr_mle's on a fresh fit of that grid point
    from spatialsdr import rrr

    sample = random_sample(60, 4, seed=3)
    spec = BasisSpec("polynomial", 2)
    f = build_f(sample.y, spec)
    dist = pairwise_distances(sample.coords)
    graph = neighbor_graph(dist)
    moments = {
        "sscm": lambda decay: next(whiten_sscm(sample.x, f, dist, [decay])),
        "sem": lambda coef: next(whiten_sem(sample.x, f, graph, [coef])),
    }[kind]
    calls, original = [], np.linalg.svd

    def spy(m, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(m)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(sem, "DEFAULT_GRID", np.array([0.3, 0.6, 0.9]))
    fits = (sscm.rank_fits if kind == "sscm" else sem.rank_fits)(sample, spec, [0, 1, 2], dist)
    argmaxes = {fit.spatial_param for fit in fits}
    assert len(calls) == len(argmaxes) < 3
    for rank, fit in enumerate(fits):
        [ls] = rrr.ls_fits([moments(fit.spatial_param)])
        want = rrr.rrr_mle(ls, rank)
        for got, exp in ((fit.est.a, want.a), (fit.est.b, want.b), (fit.est.resid_cov, want.resid_cov)):
            np.testing.assert_array_equal(got, exp)


def test_a_decay_failing_mid_grid_ends_the_ranks_live_there(monkeypatch):
    # the third of five decays fails to factor: the profile raises that error
    # for every rank before any log-likelihood is read, and no later decay is
    # factored; a fit-and-predict step gives the error to each rank's job
    from spatialsdr import dimension, geometry, rrr

    sample = random_sample(50, 3, seed=5)
    spec = BasisSpec("polynomial", 2)
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    error, factored = NearSingularCorrelationError("forced at the third decay"), []
    original = geometry.cholesky_in_place
    bordered = {(n + 6, n + 6) for n in (50, 40)}  # [1 X F], 6 columns, on the sample's or train's H

    def failing_third(h):
        if h.shape in bordered:
            factored.append(h)
            if len(factored) == 3:
                raise error
        return original(h)

    logged, original_loglik = [], rrr.loglik

    def loglik(ls, rank):
        logged.append(rank)
        return original_loglik(ls, rank)

    monkeypatch.setattr(geometry, "cholesky_in_place", failing_third)
    monkeypatch.setattr(rrr, "loglik", loglik)
    with pytest.raises(NearSingularCorrelationError) as raised, monkeypatch.context() as patch:
        patch.setattr(sscm, "default_decay_grid", lambda dist: np.array(grid))
        sscm.rank_fits(sample, spec, [0, 1, 2], pairwise_distances(sample.coords))
    assert raised.value is error
    assert len(factored) == 3
    factored.clear()
    jobs = [("2k.SSCM", rank) for rank in (0, 1, 2)]
    train, test = sample.subset(np.arange(40)), sample.subset(np.arange(40, 50))
    assert all(out is error for out in dimension.fit_and_predict(jobs, train, test, spec))
    assert len(factored) == 3
    assert logged == []
