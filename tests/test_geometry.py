import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist, pdist, squareform

from spatialsdr import _linalg, geometry
from spatialsdr._linalg import _jittered
from spatialsdr.basis import BasisSpec, build_f
from spatialsdr.data import SpatialSample, train_test_split
from spatialsdr.exceptions import (
    DegenerateGridError,
    DuplicatePointsError,
    InputError,
    IsolatedPointError,
    NearSingularCorrelationError,
    NonPositiveDecayError,
    SingularFilterError,
)
from spatialsdr.geometry import (
    Coordinates,
    exp_correlation,
    exp_correlations,
    max_min_distance,
    median_distance,
    neighbor_graph,
    neighbor_weights,
    pairwise_distances,
    spatial_filter,
    sq_distances,
)
from spatialsdr.predictor import default_bandwidth_grid, loo_search
from spatialsdr.rrr import design
from spatialsdr.simulate import SimConfig, _draw_sample, rep_rng, sample_locations, simulate_sample
from spatialsdr.sscm import default_decay_grid, whiten_sscm

from conftest import pin_grids


def coords(*pts):
    return Coordinates(np.array(pts, dtype=float))


def logdet(chol):
    """``log|H|`` from the lower Cholesky factor ``L`` of ``H``: twice the sum of ``log diag L``."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


class TestPairwiseDistances:
    def test_3_4_5_triangle(self):
        d = pairwise_distances(coords((0, 0), (3, 4)))
        assert d[0, 1] == pytest.approx(5.0)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePointsError):
            pairwise_distances(coords((0, 0), (0, 0)))

    def test_duplicate_error_names_the_first_pair_in_row_order(self):
        with pytest.raises(DuplicatePointsError, match="^locations 0 and 4 coincide$"):
            pairwise_distances(coords((0, 0), (1, 0), (2, 0), (1, 0), (0, 0)))

    @given(st.integers(0, 10_000), st.integers(2, 12), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_masked_dense_oracle(self, seed, n, copies):
        # oracle: the full matrix with an infinite diagonal; its first minimum
        # in row order names the duplicate pair
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 3, size=(n, 2)).astype(float) + rng.uniform(size=(n, 2)) * (copies == 0)
        dist = squareform(pdist(pts))
        masked = dist + np.diag(np.full(n, np.inf))
        if masked.min() > 0.0:
            np.testing.assert_array_equal(pairwise_distances(Coordinates(pts)), dist)
        else:
            i, j = divmod(int(np.argmin(masked)), n)
            with pytest.raises(DuplicatePointsError, match=f"^locations {i} and {j} coincide$"):
                pairwise_distances(Coordinates(pts))

    def test_collinear_matrix(self):
        d = pairwise_distances(coords((0, 0), (0, 1), (0, 3)))
        expected = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
        np.testing.assert_allclose(d, expected)

    def test_diagonal_zero_and_symmetric(self):
        rng = np.random.default_rng(1)
        d = pairwise_distances(Coordinates(rng.uniform(size=(30, 2))))
        assert np.all(np.diag(d) == 0.0)
        np.testing.assert_array_equal(d, d.T)


class TestExpCorrelation:
    def test_zero_distance_gives_one(self):
        d = pairwise_distances(coords((0, 0), (1, 0)))
        _, h = exp_correlation(d, 2.0)
        assert np.all(np.diag(h) == 1.0)

    def test_direct_exponential_value(self):
        d = pairwise_distances(coords((0, 0), (2, 0)))
        _, h = exp_correlation(d, 0.1)
        assert h[0, 1] == pytest.approx(np.exp(-0.2), abs=1e-9)
        assert h[0, 1] == pytest.approx(0.818731, abs=1e-6)

    def test_collinear_eigenvalues_positive(self):
        # oracle: eigendecomposition of the hand-built 3x3 matrix
        d = pairwise_distances(coords((0, 0), (0, 1), (0, 3)))
        chol, h = exp_correlation(d, 1.0)
        hand = np.exp(-1.0 * d)
        assert np.all(np.linalg.eigvalsh(hand) > 0)
        np.testing.assert_allclose(h, hand)
        np.testing.assert_allclose(chol @ chol.T, hand, rtol=0, atol=1e-12)
        assert np.all(np.diag(chol) > 0)
        assert logdet(chol) == pytest.approx(np.sum(np.log(np.linalg.eigvalsh(hand))), abs=1e-12)

    @pytest.mark.parametrize("bad, error", [(0.0, NonPositiveDecayError), (-1.0, NonPositiveDecayError),
                                            (np.nan, NonPositiveDecayError), (np.inf, InputError)])
    def test_a_decay_outside_zero_to_infinity_is_rejected_before_any_factor(self, monkeypatch, bad, error):
        # unchecked, decay 0 whitens by the jittered all-ones matrix, NaN and +inf end in numpy's
        # LinAlgError, and exp(-inf * 0) puts NaN on the diagonal; each of the three rejects it,
        # as the last of a grid too, before a factor is taken
        rng = np.random.default_rng(6)
        d = pairwise_distances(Coordinates(rng.uniform(size=(20, 2))))
        x, f, factored = rng.standard_normal((20, 3)), rng.standard_normal((20, 2)), []
        for module, name in ((_linalg, "cholesky_in_place"), (geometry, "cholesky_in_place"), (geometry, "pd_cholesky")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, original=original: factored.append(args) or original(*args))
        for call in (lambda: exp_correlation(d, bad), lambda: next(exp_correlations(d, [0.5, bad], x)),
                     lambda: whiten_sscm(x, f, d, [0.5, bad])):
            with pytest.raises(error) as info:
                call()
            assert error is NonPositiveDecayError or not isinstance(info.value, NonPositiveDecayError)
        assert factored == []

    def test_nonpositive_decay_rejected(self):
        d = pairwise_distances(coords((0, 0), (1, 0)))
        for bad in (0.0, -1.0):
            with pytest.raises(NonPositiveDecayError):
                exp_correlation(d, bad)

    @pytest.mark.parametrize("gap", [1e-14, 1e-12, 3e-11, 1e-10, 3e-10, 1e-9, 1e-6])
    def test_pd_guard_follows_eigen_policy(self, gap):
        # oracle: the jitter policy applied to the dense eigendecomposition;
        # point 1 sits ``gap`` from point 0, so lambda_min(H) is about gap
        for seed in range(3):
            pts = np.random.default_rng(seed).uniform(size=(30, 2))
            pts[1] = pts[0] + [gap, 0.0]
            d = pairwise_distances(Coordinates(pts))
            hand = np.exp(-d)
            want = _jittered(hand, NearSingularCorrelationError)
            chol, h = exp_correlation(d, 1.0)
            np.testing.assert_array_equal(h, want)
            if gap <= 3e-11:
                assert not np.array_equal(h, hand)
            if gap >= 3e-10:
                np.testing.assert_array_equal(h, hand)
            np.testing.assert_allclose(chol @ chol.T, want, rtol=0, atol=1e-12)

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_logdet_matches_spectrum(self, n, seed, log_scale):
        # decays from 1e-3 to 1e3 multiples of 1/median distance; the
        # absolute floor covers logdet -> 0 as H -> I
        d = pairwise_distances(Coordinates(np.random.default_rng(seed).uniform(size=(n, 2))))
        decay = 10.0**log_scale / np.median(d[np.triu_indices(n, k=1)])
        chol, h = exp_correlation(d, decay)
        want = np.sum(np.log(np.linalg.eigvalsh(h)))
        assert logdet(chol) == pytest.approx(want, rel=1e-10, abs=1e-12)

    @given(st.floats(0.05, 5.0), st.floats(1.1, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_decay(self, lam, factor):
        d = pairwise_distances(coords((0, 0), (0.7, 0.2), (1.4, 1.1), (0.1, 0.9)))
        _, h1 = exp_correlation(d, lam)
        _, h2 = exp_correlation(d, lam * factor)
        off = ~np.eye(4, dtype=bool)
        assert np.all(h2[off] <= h1[off] + 1e-15)


def count_factorisations(monkeypatch, n):
    """Count in-place Cholesky factorisations of order n, the certificates' (of the
    leading block of a buffer) and the grid's; returns the running list of counted orders."""
    counted, original = [], _linalg.cholesky_in_place

    def counting(a, order=None):
        if (a.shape[1] if order is None else order) == n:
            counted.append(n)
        return original(a, order)

    for module in (_linalg, geometry):
        monkeypatch.setattr(module, "cholesky_in_place", counting)
    return counted


def factors(corrs):
    """Each item's lower factor, copied before the next item overwrites the buffer it lives in."""
    return [np.tril(chol) for chol, _ in corrs]


def no_border(n):
    """An n x 0 border: ``exp_correlations`` then factors each matrix alone."""
    return np.empty((n, 0))


class TestExpCorrelations:
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0), st.floats(1e-3, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_lambda_min_does_not_fall_as_decay_grows(self, n, seed, log_decay, log_step):
        # oracle: eigvalsh of both dense matrices; exp(-b D) is exp(-a D)
        # times a PD unit-diagonal matrix entrywise, so Schur's bound holds
        d = pairwise_distances(Coordinates(np.random.default_rng(seed).uniform(size=(n, 2))))
        low, high = 10.0**log_decay, 10.0 ** (log_decay + log_step)
        lam_low = np.linalg.eigvalsh(np.exp(-low * d))[0]
        lam_high = np.linalg.eigvalsh(np.exp(-high * d))[0]
        assert lam_high >= lam_low - 1e-12

    def test_certified_grid_factors_each_later_decay_once(self, monkeypatch):
        # the smallest decay certifies, so k decays take k + 1 factorisations
        # (per-decay certificates take 2k), with bit-identical factors; each
        # matrix is unjittered, as exp_correlation's is
        d = pairwise_distances(Coordinates(np.random.default_rng(3).uniform(size=(50, 2))))
        decays = list(np.geomspace(0.5, 30.0, 6))
        want = [exp_correlation(d, decay) for decay in decays]
        counted = count_factorisations(monkeypatch, 50)
        got = factors(exp_correlations(d, decays, no_border(50)))
        assert len(counted) == len(decays) + 1 and len(got) == len(decays)
        for g_chol, (w_chol, w_matrix), decay in zip(got, want, decays):
            np.testing.assert_array_equal(w_matrix, np.exp(-decay * d))
            np.testing.assert_array_equal(g_chol, w_chol)

    def test_uncertified_decays_match_single_calls_bit_for_bit(self, monkeypatch):
        # point 1 sits 1e-6 from point 0, so the tiny decays fall below the
        # floor (jittered) or near it (certificate fails, eigh passes); every
        # decay's factor and jitter decision equals exp_correlation's
        pts = np.random.default_rng(4).uniform(size=(40, 2))
        pts[1] = pts[0] + [1e-6, 0.0]
        d = pairwise_distances(Coordinates(pts))
        decays = list(np.geomspace(1e-5, 10.0, 13))
        want = [exp_correlation(d, decay) for decay in decays]
        counted = count_factorisations(monkeypatch, 40)
        got = factors(exp_correlations(d, decays, no_border(40)))
        factorisations = len(counted)
        raw = [np.exp(-decay * d) for decay in decays]
        jittered = [not np.array_equal(w_matrix, h) for (_, w_matrix), h in zip(want, raw)]
        assert jittered[0] and not jittered[-1] and len(got) == len(decays)
        for g_chol, (w_chol, _), h, jitter in zip(got, want, raw, jittered):
            np.testing.assert_array_equal(g_chol, w_chol)
            # the jitter decision: the factor of the raw matrix, or of the policy's jittered one
            used = _jittered(h, NearSingularCorrelationError) if jitter else h
            np.testing.assert_array_equal(g_chol, np.linalg.cholesky(used))
        # some decays certified and carried: fewer than two factorisations each
        assert factorisations < 2 * len(decays)

    @pytest.mark.parametrize("model", ["sscm", "sem"])
    def test_bordered_factor_whitens_the_border(self, model):
        # oracle: scipy's triangular solve of [1 X F] with the plain factor of
        # each matrix, and that factor's log-determinant, both to 1e-12
        # relative, at both ends of the default grid of a SimConfig() training split
        cfg = SimConfig(model=model, seed=3)
        rng = rep_rng(cfg.seed, 0)
        train, _ = train_test_split(_draw_sample(cfg, rng), cfg.train_frac, rng)
        z, _ = design(train.x, build_f(train.y, BasisSpec("polynomial", cfg.r)))
        d = pairwise_distances(train.coords)
        grid = list(default_decay_grid(d))
        decays = grid[:3] + grid[-3:]
        plain = factors(exp_correlations(d, decays, no_border(len(d))))
        got = [(logdet(chol), rows) for chol, rows in exp_correlations(d, decays, z)]
        assert len(got) == len(plain) == len(decays)
        for (got_logdet, rows), chol in zip(got, plain):
            want = solve_triangular(chol, z, lower=True)
            assert np.abs(rows - want).max() <= 1e-12 * np.abs(want).max()
            assert got_logdet == pytest.approx(logdet(chol), rel=1e-12)


class TestMaxMinDistance:
    def test_collinear_example(self):
        d = pairwise_distances(coords((0, 0), (0, 1), (0, 3)))
        # per-point nearest-neighbor distances are {1, 1, 2}
        assert max_min_distance(d) == pytest.approx(2.0)

    def test_two_points(self):
        d = pairwise_distances(coords((0, 0), (3, 4)))
        assert max_min_distance(d) == pytest.approx(5.0)

    def test_regular_unit_grid_brute_force(self):
        pts = [(i, j) for i in range(4) for j in range(4)]
        d = pairwise_distances(coords(*pts))
        brute = max(
            min(
                np.hypot(a[0] - b[0], a[1] - b[1])
                for jdx, b in enumerate(pts)
                if jdx != idx
            )
            for idx, a in enumerate(pts)
        )
        assert brute == pytest.approx(1.0)
        assert max_min_distance(d) == pytest.approx(brute)


    @given(st.integers(0, 10_000), st.integers(1, 12), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_masked_dense_oracle(self, seed, n, ties):
        # any zero-diagonal matrix, asymmetric and with zero or tied
        # off-diagonal entries too: the row minima off the diagonal, bit for bit
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 3, size=(n, n)).astype(float) if ties else rng.uniform(size=(n, n))
        np.fill_diagonal(d, 0.0)
        want = float((d + np.diag(np.full(n, np.inf))).min(axis=1).max())
        assert max_min_distance(d) == want


class TestNeighborGraph:
    @pytest.mark.parametrize("n, grid", [(50, False), (120, False), (81, True), (64, True)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_brute_force_graph(self, n, grid, seed):
        # oracle: scipy's distances, which pairwise_distances matches bit for bit,
        # searched pair by pair for the largest nearest-neighbor distance and the
        # pairs within it; a 9 x 9 grid's spacing, 1/8, is exact, so every point's
        # nearest distances tie at the threshold and the graph is the 4-neighbor lattice
        pts = sample_locations(n, seed, grid=grid).points
        gaps = squareform(pdist(pts))
        nearest = [min(gaps[i, j] for j in range(n) if j != i) for i in range(n)]
        threshold = max(nearest)
        want = np.array([[i != j and gaps[i, j] <= threshold for j in range(n)] for i in range(n)])
        dist = pairwise_distances(Coordinates(pts))
        adj, deg = neighbor_graph(dist)
        assert adj.dtype == bool and deg.dtype == float
        np.testing.assert_array_equal(adj, want)
        np.testing.assert_array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        assert adj[(dist == threshold) & ~np.eye(n, dtype=bool)].all()  # ties included
        np.testing.assert_array_equal(deg, want.sum(axis=0))
        assert deg.min() >= 1.0
        if n == 81:
            assert all(g == 0.125 for g in nearest)
            lattice = [(x > 0) + (x < 8) + (y > 0) + (y < 8) for y in range(9) for x in range(9)]
            np.testing.assert_array_equal(deg, lattice)
        # the dense W: nonzero on the graph, and each column A's over its degree
        w = neighbor_weights(dist, max_min_distance(dist))
        np.testing.assert_array_equal(adj, w != 0.0)
        np.testing.assert_array_equal(deg, (w != 0.0).sum(axis=0))
        assert w.tobytes() == (adj / deg).tobytes()


class TestNeighborWeights:
    def test_three_point_example(self):
        d = pairwise_distances(coords((0, 0), (0, 1), (0, 3)))
        w = neighbor_weights(d, 2.0)
        np.testing.assert_allclose(w.sum(axis=0), [1.0, 1.0, 1.0], atol=1e-12)
        assert w[1, 0] == pytest.approx(1.0)
        assert w[0, 1] == pytest.approx(0.5)
        assert w[2, 1] == pytest.approx(0.5)
        assert w[1, 2] == pytest.approx(1.0)
        assert w[0, 0] == w[1, 1] == w[2, 2] == 0.0
        assert w[0, 2] == w[2, 0] == 0.0

    def test_two_point_symmetry(self):
        d = pairwise_distances(coords((0, 0), (1, 0)))
        np.testing.assert_allclose(
            neighbor_weights(d, 1.0), [[0, 1], [1, 0]]
        )

    def test_isolated_point(self):
        d = pairwise_distances(coords((0, 0), (0, 1), (0, 3)))
        with pytest.raises(IsolatedPointError):
            neighbor_weights(d, 0.5)

    def test_threshold_is_inclusive(self):
        d = pairwise_distances(coords((0, 0), (2, 0)))
        w = neighbor_weights(d, 2.0)  # distance exactly at the threshold
        assert w[0, 1] == 1.0

    def test_max_min_distance_is_smallest_safe_threshold(self):
        rng = np.random.default_rng(7)
        d = pairwise_distances(Coordinates(rng.uniform(size=(12, 2))))
        dmax = max_min_distance(d)
        neighbor_weights(d, dmax)  # must not raise
        with pytest.raises(IsolatedPointError):
            neighbor_weights(d, dmax * (1 - 1e-9))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_column_sums_exactly_one(self, seed):
        rng = np.random.default_rng(seed)
        d = pairwise_distances(Coordinates(rng.uniform(size=(15, 2))))
        w = neighbor_weights(d, max_min_distance(d) * 1.5)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(w >= 0.0)


class TestSpatialFilter:
    def test_zero_coef_is_identity(self):
        d = pairwise_distances(coords((0, 0), (1, 0)))
        w = neighbor_weights(d, 1.0)
        np.testing.assert_array_equal(spatial_filter(w, 0.0), np.eye(2))

    def test_two_by_two_arithmetic(self):
        d = pairwise_distances(coords((0, 0), (1, 0)))
        w = neighbor_weights(d, 1.0)
        np.testing.assert_allclose(spatial_filter(w, 0.8), [[1.0, -0.8], [-0.8, 1.0]])

    def test_singular_filter_detected(self):
        d = pairwise_distances(coords((0, 0), (1, 0)))
        w = neighbor_weights(d, 1.0)
        with pytest.raises(SingularFilterError):
            spatial_filter(w, 1.0)

    def test_singular_with_large_column_norm_detected(self):
        # ||W||_1 = 2, so the Neumann bound does not apply at coef 0.5; the
        # determinant is 2^-50 > 0 and only the condition number catches it
        w = np.array([[0.0, 2.0 * (1.0 - 2.0**-50)], [2.0, 0.0]])
        with pytest.raises(SingularFilterError, match="numerically singular"):
            spatial_filter(w, 0.5)

    @given(st.integers(0, 10_000), st.floats(-0.99, 0.99))
    @settings(max_examples=20, deadline=None)
    def test_column_normalized_filter_unchanged(self, seed, coef):
        rng = np.random.default_rng(seed)
        d = pairwise_distances(Coordinates(rng.uniform(size=(15, 2))))
        w = neighbor_weights(d, max_min_distance(d) * 1.5)
        wt = np.eye(15) - coef * w
        np.testing.assert_array_equal(spatial_filter(w, coef), wt)
        q = abs(coef)  # column sums are one
        assert np.linalg.cond(wt, 1) <= (1.0 + q) / (1.0 - q) * (1.0 + 1e-12)

    @given(st.integers(0, 10_000), st.sampled_from([0.0, -0.0, 0.5, -0.5]) | st.floats(-0.99, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_filter_is_the_dense_formula_to_the_sign_of_zero(self, seed, coef):
        # oracle: I - coef * W with a fresh identity; the bytes compare the
        # sign of every zero, which assert_array_equal does not
        rng = np.random.default_rng(seed)
        w = rng.uniform(size=(12, 12)) * (rng.uniform(size=(12, 12)) < 0.5)
        w[rng.integers(0, 12), rng.integers(0, 12)] = -0.0
        weights = w / 40.0
        want = np.eye(12) - coef * weights
        assert spatial_filter(weights, coef).tobytes() == want.tobytes()


def median_oracle(pairs: np.ndarray) -> float:
    """``np.median`` of ``pairs``, or of the positive ones when that is 0; 0 when none is."""
    for values in (pairs, pairs[pairs > 0.0]):
        if values.size and np.median(values) != 0.0:
            return float(np.median(values))
    return 0.0


@given(
    st.integers(2, 30).flatmap(
        lambda n: st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 1e150),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_median_distance_is_np_median_of_the_rooted_pairs_bit_for_bit(pairs):
    # odd and even pair counts, zero and tied pairs, any magnitude whose square is finite; the
    # diagonal and the lower triangle hold NaN, so a read of either would show; the squared
    # matrix's oracle roots every pair first
    pairs = np.array(pairs)
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * pairs.size)) / 2.0))
    upper = np.triu_indices(n, 1)
    m = np.full((n, n), np.nan)
    m[upper] = pairs
    sq, before = m * m, m.copy()
    assert median_distance(m).hex() == median_oracle(pairs).hex()
    assert median_distance(sq, squared=True).hex() == median_oracle(np.sqrt(sq[upper])).hex()
    np.testing.assert_array_equal(m, before)  # the pairs are gathered, not partitioned in place


@given(st.integers(2, 60), st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_median_distance_of_locations_with_coinciding_points(n, side, seed):
    # locations on a side x side lattice, so many coincide and many distances tie; one side
    # makes every pair zero; oracle: np.median of scipy's condensed distances
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, side, size=(n, 2)) * rng.uniform(0.1, 10.0)
    sq = sq_distances(pts, pts)
    want = median_oracle(pdist(pts))
    assert median_distance(np.sqrt(sq)).hex() == want.hex()
    assert median_distance(sq, squared=True).hex() == want.hex()


@pytest.mark.parametrize("n", [279, 280, 400])
def test_median_distance_of_a_simulation_sized_sample(n):
    # the default grids' use: the distances of a simulation-sized sample (an odd pair count at
    # 279, even at 280 and 400), which are scipy's pdist and squareform bit for bit
    pts = np.random.default_rng(n).uniform(size=(n, 2))
    dist, tri = pairwise_distances(Coordinates(pts)), pdist(pts)
    assert dist.tobytes() == squareform(tri).tobytes()
    assert median_distance(dist).hex() == float(np.median(tri)).hex()
    assert median_distance(sq_distances(pts, pts), squared=True).hex() == float(np.median(tri)).hex()


@pytest.mark.parametrize(
    "values", [[2.0], [3.0, 1.0, 2.0], [1.0, 1.0, 2.0, 2.0, 0.0, 0.0], [5.0, 1.0, 5.0]]
)
def test_median_distance_small_cases(values):
    n = {1: 2, 3: 3, 6: 4}[len(values)]
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = values
    assert median_distance(m) == np.median(values)


def test_coinciding_points_give_a_zero_median_and_the_unit_grid():
    pts = np.full((5, 2), 0.25)
    sq = sq_distances(pts, pts)
    assert median_distance(np.sqrt(sq)) == 0.0
    assert median_distance(sq, squared=True) == 0.0
    assert default_bandwidth_grid(pts).tolist() == [1.0]
    assert default_bandwidth_grid(pts[:, :1]).tolist() == [1.0]


def test_a_nan_pair_gives_a_nan_median_and_a_degenerate_grid(monkeypatch):
    # np.median's NaN, where a partition that left the NaNs last would have read finite
    # middle values; no bandwidth grid scales from it.  A sample holds no NaN, so a
    # reference's grid is made to raise that error: in a search it alone fails its grid
    rng = np.random.default_rng(4)
    m = pairwise_distances(Coordinates(rng.uniform(size=(30, 2))))
    m[3, 7] = np.nan
    assert np.isnan(median_distance(m)) and np.isnan(median_distance(m * m, squared=True))
    y, points = rng.standard_normal(30), rng.standard_normal((30, 2))
    with pytest.raises(DegenerateGridError, match="bandwidth grid") as nan_grid:
        default_bandwidth_grid(np.where(np.arange(30)[:, None] == 5, np.nan, points))
    good = SpatialSample(Coordinates(points), points, y)
    bad = SpatialSample(Coordinates(points), points.copy(), y)
    pin_grids(monkeypatch, (bad.x, nan_grid.value))
    [alone] = loo_search([good])
    got_good, got_bad = loo_search([good, bad])
    assert got_bad is nan_grid.value
    np.testing.assert_array_equal(got_good.errors, alone.errors)


@pytest.mark.parametrize("p", [0, 1, 2, 24])
def test_sq_distances_match_cdist(p):
    # oracle: scipy's cdist, bit for bit up to two features (coordinates and
    # reductions of rank 1 or 2); the raw predictors' BLAS route within 1e-13
    # of it off the diagonal, and never negative; a rank-0 reduction's rows coincide
    cfg = SimConfig()
    train, test = train_test_split(simulate_sample(cfg, 0), cfg.train_frac, np.random.default_rng(0))
    pts, query = train.x[:, :p], test.x[:, :p]
    if p == 0:
        assert sq_distances(query, pts).tobytes() == np.zeros((len(query), len(pts))).tobytes()
        return
    if p <= 2:
        for a, b in ((query, pts), (pts, pts), (train.coords.points, train.coords.points)):
            assert sq_distances(a, b).tobytes() == cdist(a, b, "sqeuclidean").tobytes()
        return
    got, want = sq_distances(pts, pts), cdist(pts, pts, "sqeuclidean")
    off = ~np.eye(len(pts), dtype=bool)
    assert got.min() >= 0.0
    np.testing.assert_allclose(got[off], want[off], rtol=1e-13, atol=0.0)
