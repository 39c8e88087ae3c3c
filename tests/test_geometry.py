import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky
from scipy.spatial.distance import pdist, squareform

from spatialsdr import _linalg, geometry
from spatialsdr._linalg import pd_eigh
from spatialsdr.exceptions import (
    DuplicatePointsError,
    IsolatedPointError,
    NearSingularCorrelationError,
    NonPositiveDecayError,
    SingularFilterError,
)
from spatialsdr.geometry import (
    Coordinates,
    DistanceMatrix,
    NeighborWeights,
    exp_correlation,
    exp_correlations,
    max_min_distance,
    neighbor_weights,
    pairwise_distances,
    sorted_median,
    spatial_filter,
)


def coords(*pts):
    return Coordinates(np.array(pts, dtype=float))


class TestPairwiseDistances:
    def test_3_4_5_triangle(self):
        d = pairwise_distances(coords((0, 0), (3, 4)))
        assert d.dist[0, 1] == pytest.approx(5.0)

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
            np.testing.assert_array_equal(pairwise_distances(Coordinates(pts)).dist, dist)
        else:
            i, j = divmod(int(np.argmin(masked)), n)
            with pytest.raises(DuplicatePointsError, match=f"^locations {i} and {j} coincide$"):
                pairwise_distances(Coordinates(pts))

    def test_collinear_matrix(self):
        d = pairwise_distances(coords((0, 0), (0, 1), (0, 3)))
        expected = np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float)
        np.testing.assert_allclose(d.dist, expected)

    def test_diagonal_zero_and_symmetric(self):
        rng = np.random.default_rng(1)
        d = pairwise_distances(Coordinates(rng.uniform(size=(30, 2))))
        assert np.all(np.diag(d.dist) == 0.0)
        np.testing.assert_array_equal(d.dist, d.dist.T)


class TestExpCorrelation:
    def test_zero_distance_gives_one(self):
        d = pairwise_distances(coords((0, 0), (1, 0)))
        h = exp_correlation(d, 2.0)
        assert np.all(np.diag(h.matrix) == 1.0)

    def test_direct_exponential_value(self):
        d = pairwise_distances(coords((0, 0), (2, 0)))
        h = exp_correlation(d, 0.1)
        assert h.matrix[0, 1] == pytest.approx(np.exp(-0.2), abs=1e-9)
        assert h.matrix[0, 1] == pytest.approx(0.818731, abs=1e-6)

    def test_collinear_eigenvalues_positive(self):
        # oracle: eigendecomposition of the hand-built 3x3 matrix
        d = pairwise_distances(coords((0, 0), (0, 1), (0, 3)))
        h = exp_correlation(d, 1.0)
        hand = np.exp(-1.0 * d.dist)
        assert np.all(np.linalg.eigvalsh(hand) > 0)
        np.testing.assert_allclose(h.matrix, hand)
        np.testing.assert_allclose(h.chol @ h.chol.T, hand, rtol=0, atol=1e-12)
        assert np.all(np.diag(h.chol) > 0)
        assert h.logdet == pytest.approx(np.sum(np.log(np.linalg.eigvalsh(hand))), abs=1e-12)

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
            hand = np.exp(-d.dist)
            want = pd_eigh(hand, NearSingularCorrelationError)[2]
            h = exp_correlation(d, 1.0)
            np.testing.assert_array_equal(h.matrix, want)
            if gap <= 3e-11:
                assert not np.array_equal(h.matrix, hand)
            if gap >= 3e-10:
                np.testing.assert_array_equal(h.matrix, hand)
            np.testing.assert_allclose(h.chol @ h.chol.T, want, rtol=0, atol=1e-12)

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_logdet_matches_spectrum(self, n, seed, log_scale):
        # decays from 1e-3 to 1e3 multiples of 1/median distance; the
        # absolute floor covers logdet -> 0 as H -> I
        d = pairwise_distances(Coordinates(np.random.default_rng(seed).uniform(size=(n, 2))))
        decay = 10.0**log_scale / np.median(d.dist[np.triu_indices(n, k=1)])
        h = exp_correlation(d, decay)
        want = np.sum(np.log(np.linalg.eigvalsh(h.matrix)))
        assert h.logdet == pytest.approx(want, rel=1e-10, abs=1e-12)

    @given(st.floats(0.05, 5.0), st.floats(1.1, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_decay(self, lam, factor):
        d = pairwise_distances(coords((0, 0), (0.7, 0.2), (1.4, 1.1), (0.1, 0.9)))
        h1 = exp_correlation(d, lam).matrix
        h2 = exp_correlation(d, lam * factor).matrix
        off = ~np.eye(4, dtype=bool)
        assert np.all(h2[off] <= h1[off] + 1e-15)


def count_factorisations(monkeypatch, n):
    """Count scipy Cholesky factorisations of n x n matrices made through
    ``_linalg`` and ``geometry``; returns the running list of counted shapes."""
    counted = []

    def spy(original):
        def counting(a, *args, **kwargs):
            if a.shape[0] == n:
                counted.append(a.shape)
            return original(a, *args, **kwargs)
        return counting

    for module in (_linalg, geometry):
        monkeypatch.setattr(module, "cholesky", spy(module.cholesky))
    return counted


class TestExpCorrelations:
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0), st.floats(1e-3, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_lambda_min_does_not_fall_as_decay_grows(self, n, seed, log_decay, log_step):
        # oracle: eigvalsh of both dense matrices; exp(-b D) is exp(-a D)
        # times a PD unit-diagonal matrix entrywise, so Schur's bound holds
        d = pairwise_distances(Coordinates(np.random.default_rng(seed).uniform(size=(n, 2))))
        low, high = 10.0**log_decay, 10.0 ** (log_decay + log_step)
        lam_low = np.linalg.eigvalsh(np.exp(-low * d.dist))[0]
        lam_high = np.linalg.eigvalsh(np.exp(-high * d.dist))[0]
        assert lam_high >= lam_low - 1e-12

    def test_certified_grid_factors_each_later_decay_once(self, monkeypatch):
        # the smallest decay certifies, so k decays take k + 1 factorisations
        # (per-decay certificates take 2k), with bit-identical factors; each
        # matrix is unjittered, as exp_correlation's is
        d = pairwise_distances(Coordinates(np.random.default_rng(3).uniform(size=(50, 2))))
        decays = list(np.geomspace(0.5, 30.0, 6))
        want = [exp_correlation(d, decay) for decay in decays]
        counted = count_factorisations(monkeypatch, 50)
        got = list(exp_correlations(d, decays))
        assert len(counted) == len(decays) + 1
        for g, w, decay in zip(got, want, decays):
            assert g.decay == w.decay
            assert g.matrix is None
            np.testing.assert_array_equal(w.matrix, np.exp(-decay * d.dist))
            np.testing.assert_array_equal(g.chol, w.chol)

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
        got = list(exp_correlations(d, decays))
        raw = [np.exp(-decay * d.dist) for decay in decays]
        jittered = [not np.array_equal(w.matrix, h) for w, h in zip(want, raw)]
        assert jittered[0] and not jittered[-1]
        for g, w, h, jitter in zip(got, want, raw, jittered):
            assert g.matrix is None
            np.testing.assert_array_equal(g.chol, w.chol)
            # the jitter decision: the factor of the raw matrix, or of pd_eigh's jittered one
            used = pd_eigh(h, NearSingularCorrelationError)[2] if jitter else h
            np.testing.assert_array_equal(g.chol, cholesky(used, lower=True))
        # some decays certified and carried: fewer than two factorisations each
        assert len(counted) < 2 * len(decays)


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
        assert max_min_distance(DistanceMatrix(d)) == want


class TestNeighborWeights:
    def test_three_point_example(self):
        d = pairwise_distances(coords((0, 0), (0, 1), (0, 3)))
        w = neighbor_weights(d, 2.0).matrix
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
            neighbor_weights(d, 1.0).matrix, [[0, 1], [1, 0]]
        )

    def test_isolated_point(self):
        d = pairwise_distances(coords((0, 0), (0, 1), (0, 3)))
        with pytest.raises(IsolatedPointError):
            neighbor_weights(d, 0.5)

    def test_threshold_is_inclusive(self):
        d = pairwise_distances(coords((0, 0), (2, 0)))
        w = neighbor_weights(d, 2.0)  # distance exactly at the threshold
        assert w.matrix[0, 1] == 1.0

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
        np.testing.assert_allclose(w.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(w.matrix >= 0.0)


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
        w = NeighborWeights(
            matrix=np.array([[0.0, 2.0 * (1.0 - 2.0**-50)], [2.0, 0.0]]),
            threshold=1.0,
        )
        with pytest.raises(SingularFilterError, match="numerically singular"):
            spatial_filter(w, 0.5)

    @given(st.integers(0, 10_000), st.floats(-0.99, 0.99))
    @settings(max_examples=20, deadline=None)
    def test_column_normalized_filter_unchanged(self, seed, coef):
        rng = np.random.default_rng(seed)
        d = pairwise_distances(Coordinates(rng.uniform(size=(15, 2))))
        w = neighbor_weights(d, max_min_distance(d) * 1.5)
        wt = np.eye(15) - coef * w.matrix
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
        weights = NeighborWeights(matrix=w / 40.0, threshold=1.0)
        want = np.eye(12) - coef * weights.matrix
        assert spatial_filter(weights, coef).tobytes() == want.tobytes()


@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0]), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=200, deadline=None)
def test_sorted_median_is_np_median_bit_for_bit(values):
    # odd and even sizes, ties from the sampled values, any finite magnitude
    values = np.array(values)
    with np.errstate(over="ignore"):  # the mean of a middle pair may overflow, in both
        assert sorted_median(values).hex() == float(np.median(values)).hex()


@pytest.mark.parametrize("n", [279, 280, 400])
def test_sorted_median_of_distances_is_np_median_bit_for_bit(n):
    # the default grids' use: pdist's distances of a simulation-sized sample
    tri = pdist(np.random.default_rng(n).uniform(size=(n, 2)))
    assert sorted_median(tri).hex() == float(np.median(tri)).hex()


@pytest.mark.parametrize("values", [[2.0], [3.0, 1.0], [1.0, 1.0, 2.0, 2.0], [5.0, 1.0, 5.0]])
def test_sorted_median_small_cases(values):
    assert sorted_median(np.array(values)) == np.median(values)
