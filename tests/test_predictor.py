import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialsdr import predictor
from spatialsdr.basis import BasisSpec
from spatialsdr.data import SpatialSample, train_test_split
from spatialsdr.exceptions import DegenerateGridError, InputError
from spatialsdr.geometry import Coordinates, sq_distances
from spatialsdr.pfc import fit_independent
from spatialsdr.predictor import (
    MODES,
    PredictorConfig,
    build_reference,
    default_bandwidth_grid,
    loo_search,
    loocv_bandwidths,
    predict_many,
)
from spatialsdr.simulate import SimConfig, run_experiment, simulate_sample

from conftest import pin_grids, random_sample


def reference(points, responses, coords):
    """A reference of ``points``, ``responses`` and the n x 2 ``coords``, as ``build_reference``
    gives one: a ``SpatialSample``."""
    return SpatialSample(Coordinates(coords), points, responses)


def line_reference(values, responses=None):
    """Reference with 1-d points laid out on a line; coords on the x-axis."""
    values = np.asarray(values, dtype=float)
    responses = (
        np.arange(len(values), dtype=float) if responses is None else responses
    )
    coords = np.column_stack([values, np.zeros_like(values)])
    return reference(values[:, None], responses, coords)


def weights_of(query, ref, h1, s0=None, h2=None):
    """NW weights of one query and its fallback flag, read off
    ``predict_many`` with one-hot responses (one kernel when ``h2`` is None)."""
    config = PredictorConfig(mode="1k.FULL" if h2 is None else "2k.FULL", h1=h1, h2=h2)
    s0 = np.zeros(2) if s0 is None else s0
    runs = [
        predict_many(np.atleast_2d(query), np.atleast_2d(s0), replace(ref, y=e), config)
        for e in np.eye(ref.n)
    ]
    return np.array([yhat[0] for yhat, _ in runs]), bool(runs[0][1][0])


def predict_one(query, s0, ref, config, fit=None) -> float:
    yhat, _ = predict_many(np.atleast_2d(query), np.atleast_2d(s0), ref, config, fit)
    return float(yhat[0])


class TestOneKernelWeights:
    def test_single_reference_point(self):
        # a reference holds two points at least, as a sample's coordinates do: the far one's
        # kernel value underflows, so the near one alone is in reach, and takes all the weight
        ref = line_reference([0.0, 1e9])
        w, fb = weights_of(np.array([3.0]), ref, h1=1.0)
        np.testing.assert_allclose(w, [1.0, 0.0])
        assert not fb

    def test_equidistant_pair(self):
        ref = line_reference([-1.0, 1.0])
        w, _ = weights_of(np.array([0.0]), ref, h1=0.7)
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_scalar_arithmetic_oracle(self):
        # distances (0, 1, 2) at h1=1 -> kernel values (1, e^-1/2, e^-2)
        ref = line_reference([0.0, 1.0, 2.0])
        w, _ = weights_of(np.array([0.0]), ref, h1=1.0)
        raw = np.array([1.0, np.exp(-0.5), np.exp(-2.0)])
        np.testing.assert_allclose(w, raw / raw.sum(), atol=1e-12)
        np.testing.assert_allclose(
            w, [0.574097, 0.348207, 0.077696], atol=1e-6
        )

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(0)
        ref = reference(
            rng.standard_normal((40, 3)),
            rng.standard_normal(40),
            rng.uniform(size=(40, 2)),
        )
        for _ in range(50):
            w, _ = weights_of(rng.standard_normal(3), ref, h1=0.5)
            assert w.min() >= 0.0
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_underflow_fallback(self):
        ref = line_reference([0.0, 1e9])
        w, fb = weights_of(np.array([5e8]), ref, h1=1.0)
        assert fb
        np.testing.assert_allclose(w, [1.0, 0.0])


class TestTwoKernelWeights:
    def test_flat_spatial_kernel_reduces_to_1k(self):
        rng = np.random.default_rng(1)
        ref = reference(
            rng.standard_normal((25, 2)),
            rng.standard_normal(25),
            rng.uniform(size=(25, 2)),
        )
        q = rng.standard_normal(2)
        s0 = rng.uniform(size=2)
        w2, _ = weights_of(q, ref, h1=0.8, s0=s0, h2=1e12)
        w1, _ = weights_of(q, ref, h1=0.8)
        np.testing.assert_allclose(w2, w1, atol=1e-9)

    def test_concentration_on_matching_point(self):
        ref = line_reference([0.0, 1.0, 2.0])
        w, _ = weights_of(
            np.array([1.0]), ref, h1=1e-3, s0=np.array([1.0, 0.0]), h2=1e-3
        )
        assert w[1] == pytest.approx(1.0)

    def test_scalar_arithmetic_oracle(self):
        # reduced distances (1, 1), spatial distances (1, 2), h1=h2=1
        ref = reference(
            np.array([[1.0], [-1.0]]),
            np.array([0.0, 1.0]),
            np.array([[1.0, 0.0], [2.0, 0.0]]),
        )
        w, _ = weights_of(
            np.array([0.0]), ref, h1=1.0, s0=np.array([0.0, 0.0]), h2=1.0
        )
        raw = np.array([np.exp(-1.0), np.exp(-2.5)])
        np.testing.assert_allclose(w, raw / raw.sum(), atol=1e-12)
        np.testing.assert_allclose(w, [0.8176, 0.1824], atol=5e-5)


class TestPredict:
    def test_constant_responses(self):
        ref = line_reference([0.0, 1.0, 3.0], responses=np.full(3, 4.2))
        config = PredictorConfig(mode="1k.FULL", h1=0.5)
        got = predict_one(np.array([0.7]), np.array([0.0, 0.0]), ref, config)
        assert got == pytest.approx(4.2)

    def test_bounded_by_response_range(self):
        rng = np.random.default_rng(2)
        ref = reference(
            rng.standard_normal((30, 2)),
            rng.standard_normal(30),
            rng.uniform(size=(30, 2)),
        )
        config = PredictorConfig(mode="2k.FULL", h1=0.4, h2=0.4)
        yhat, _ = predict_many(
            rng.standard_normal((200, 2)), rng.uniform(size=(200, 2)), ref, config
        )
        assert yhat.min() >= ref.y.min() - 1e-12
        assert yhat.max() <= ref.y.max() + 1e-12

    def test_desk_instance_weighted_mean(self):
        pts = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        ys = np.array([1.0, 2.0, 0.0, -1.0, 3.0])
        ref = line_reference(pts, responses=ys)
        config = PredictorConfig(mode="1k.FULL", h1=1.0)
        k = np.exp(-0.5 * (pts - 1.5) ** 2)
        oracle = float(k @ ys / k.sum())
        got = predict_one(np.array([1.5]), np.array([0.0, 0.0]), ref, config)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_reference_without_rows_rejected(self):
        with pytest.raises(InputError, match="at least two locations"):
            reference(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)))

    def test_reduced_mode_requires_fit(self):
        ref = line_reference([0.0, 1.0])
        config = PredictorConfig(mode="1k.Ind", h1=1.0)
        with pytest.raises(InputError):
            predict_one(np.array([0.0]), np.array([0.0, 0.0]), ref, config)

    def test_orthogonal_rebasing_invariance(self):
        sample = random_sample(60, 4, seed=11)
        fit = fit_independent(sample, BasisSpec("polynomial", 2), 2)
        ref = build_reference("1k.Ind", sample, fit)
        theta = 0.73
        q = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        ref_rot = replace(ref, x=ref.x @ q)
        rng = np.random.default_rng(5)
        queries = rng.standard_normal((20, 2))
        config = PredictorConfig(mode="1k.FULL", h1=0.6)  # raw mode on reductions
        y1, _ = predict_many(queries, ref.coords.points, ref, config)
        y2, _ = predict_many(queries @ q, ref.coords.points, ref_rot, config)
        np.testing.assert_allclose(y1, y2, atol=1e-9)

    @pytest.mark.parametrize("locations", [1, 3])
    def test_two_kernel_location_rows_must_match_predictor_rows(self, locations):
        # one location row used to broadcast to every query, three raised numpy's ValueError
        ref = line_reference([0.0, 1.0, 3.0])
        config = PredictorConfig(mode="2k.FULL", h1=1.0, h2=1.0)
        with pytest.raises(InputError, match="5 predictor rows but"):
            predict_many(np.zeros((5, 1)), np.zeros((locations, 2)), ref, config)


class TestLoocv:
    """``loo_search`` of one reference over grids pinned in place of its default ones."""

    def test_smooth_curve_argmin_interior(self, monkeypatch):
        rng = np.random.default_rng(4)
        t = np.sort(rng.uniform(-2, 2, size=80))
        y = np.sin(2 * t)
        ref = reference(t[:, None], y, np.column_stack([t, np.zeros_like(t)]))
        grid = np.geomspace(0.005, 5.0, 25)
        pin_grids(monkeypatch, (ref.x, grid))
        [search] = loo_search([ref], False)
        h1, h2 = search.bandwidths(False)
        assert h2 is None
        assert grid[0] < h1 < grid[-1]

    def test_duplicated_data_prefers_smaller_bandwidth(self, monkeypatch):
        rng = np.random.default_rng(6)
        t = rng.uniform(-1, 1, size=30)
        y = t**2 + 0.05 * rng.standard_normal(30)
        coords = np.column_stack([t, np.zeros_like(t)])
        base = reference(t[:, None], y, coords)
        doubled = reference(
            np.concatenate([t, t])[:, None], np.concatenate([y, y]), np.concatenate([coords, coords])
        )
        grid = np.geomspace(1e-4, 2.0, 20)
        pin_grids(monkeypatch, (base.x, grid), (doubled.x, grid))
        h_base, _ = loo_search([base], False)[0].bandwidths(False)
        h_doubled, _ = loo_search([doubled], False)[0].bandwidths(False)
        assert h_doubled < h_base

    def test_tie_breaks_to_smaller_h1(self, monkeypatch):
        # constant responses: every bandwidth has zero LOO error
        ref = line_reference([0.0, 1.0, 2.0], responses=np.full(3, 2.0))
        grid = np.array([0.5, 1.0, 2.0])
        pin_grids(monkeypatch, (ref.x, grid))
        [search] = loo_search([ref], False)
        h1, _ = search.bandwidths(False)
        assert h1 == 0.5


def oracle_loo(d1, d2, y, h1_grid, h2_grid):
    """The unfactorised search: per (h1, h2) pair, one combined exponent
    over the n x n matrix.  Returns LOO predictions and fallback flags of
    shape (h1, h2, n) and the first (h1, h2) in grid order with the least
    error; ``h2_grid`` is ``[None]`` for one kernel."""
    yhat, fell_back, best = [], [], None
    for h1 in h1_grid:
        for h2 in h2_grid:
            u2 = d1 / h1**2 if h2 is None else d1 / h1**2 + d2 / h2**2
            k = np.exp(-0.5 * u2)
            np.fill_diagonal(k, 0.0)
            sums = k.sum(axis=1)
            ok = sums > 0.0
            u2_off = u2.copy()
            np.fill_diagonal(u2_off, np.inf)
            nearest = y[np.argmin(u2_off, axis=1)]
            pred = np.where(ok, k @ y / np.where(ok, sums, 1.0), nearest)
            err = float(np.mean((pred - y) ** 2))
            if best is None or err < best[0]:
                best = (err, float(h1), None if h2 is None else float(h2))
            yhat.append(pred)
            fell_back.append(~ok)
    shape = (len(h1_grid), len(h2_grid), len(y))
    return np.reshape(yhat, shape), np.reshape(fell_back, shape), best[1:]


def engine(ref, two_kernel):
    """The search engine's errors and flags next to the oracle's predictions and flags."""
    [search] = loo_search([ref], two_kernel)
    return engine_columns(search, two_kernel), oracle_of(ref, search, two_kernel)


def engine_columns(search, two_kernel):
    """A search's (h1, h2) errors and fallback counts of one kernel count."""
    cols = slice(0, -1) if two_kernel else slice(-1, None)
    return search.errors[:, cols], search.fell_back[:, cols]


def mean_sq_errors(yhat, y):
    """Per-column mean squared error of (h1, h2, n) predictions."""
    return np.mean((yhat - y) ** 2, axis=-1)


def oracle_of(ref, search, two_kernel):
    """``oracle_loo`` over the grids the search used."""
    d1 = sq_distances(ref.x, ref.x)
    if not two_kernel:
        return oracle_loo(d1, None, ref.y, search.h1_grid, [None])
    d2 = sq_distances(ref.coords.points, ref.coords.points)
    return oracle_loo(d1, d2, ref.y, search.h1_grid, search.h2_grid)


def far_apart_reference():
    """Far-apart 1-d points and tiny bandwidths: some rows keep a kernel mass
    below TINY_MASS but above zero (437.7 has two neighbours whose weights
    are subnormal, where factorised products lose digits), some lose it all
    and fall back.  Returns the reference and its h1 and h2 grids."""
    t = np.array([0.0, 1.0, 2.5, 40.0, 100.0, 135.0, 400.0, 437.7, 475.8, 1e3])
    ref = reference(
        t[:, None],
        np.array([0.3, -1.2, 2.0, 0.7, -0.4, 1.9, 5.0, -2.0, 1.0, 0.1]),
        np.column_stack([3.0 * t[::-1], np.zeros_like(t)]),
    )
    return ref, np.array([1.0, 3.0, 60.0]), np.array([1.0, 50.0, 1e3])


class TestLooEngine:
    @pytest.mark.parametrize("two_kernel", [False, True])
    @pytest.mark.parametrize("n,p", [(3, 1), (17, 2), (40, 0), (61, 3), (150, 5)])
    def test_errors_match_unfactorised_search(self, n, p, two_kernel):
        rng = np.random.default_rng(100 * n + p)
        ref = reference(rng.standard_normal((n, p)), rng.standard_normal(n), rng.uniform(size=(n, 2)))
        (errors, fell_back), (want, want_fb, best) = engine(ref, two_kernel)
        np.testing.assert_allclose(
            errors, mean_sq_errors(want, ref.y), rtol=1e-12, atol=0.0
        )
        np.testing.assert_array_equal(fell_back, want_fb.sum(axis=-1))
        mode = "2k.FULL" if two_kernel else "1k.FULL"
        assert loocv_bandwidths(ref, PredictorConfig(mode=mode)) == best

    @pytest.mark.parametrize("two_kernel", [False, True])
    def test_underflow_fallback_matches_unfactorised_search(self, monkeypatch, two_kernel):
        ref, h1_grid, h2_grid = far_apart_reference()
        pin_grids(monkeypatch, (ref.x, h1_grid), (ref.coords.points, h2_grid))
        (errors, fell_back), (want, want_fb, _) = engine(ref, two_kernel)
        assert want_fb.any() and not want_fb.all()
        np.testing.assert_array_equal(fell_back, want_fb.sum(axis=-1))
        np.testing.assert_allclose(
            errors, mean_sq_errors(want, ref.y), rtol=1e-12, atol=0.0
        )

    def test_one_kernel_column_of_a_two_kernel_search_falls_back_alike(self, monkeypatch):
        # the 1k column shares the matmul with the 2k pairs but its
        # recomputed rows must leave the spatial kernel out
        ref, h1_grid, h2_grid = far_apart_reference()
        pin_grids(monkeypatch, (ref.x, h1_grid), (ref.coords.points, h2_grid))
        [search] = loo_search([ref], True)
        errors, fell_back = engine_columns(search, False)
        want, want_fb, _ = oracle_of(ref, search, False)
        assert want_fb.any() and not want_fb.all()
        np.testing.assert_array_equal(fell_back, want_fb.sum(axis=-1))
        np.testing.assert_allclose(
            errors, mean_sq_errors(want, ref.y), rtol=1e-12, atol=0.0
        )

    def test_constant_responses_tie_to_smallest_pair(self):
        rng = np.random.default_rng(8)
        ref = reference(rng.standard_normal((30, 2)), np.full(30, 2.0), rng.uniform(size=(30, 2)))
        config = PredictorConfig(mode="2k.FULL")
        h1_grid = default_bandwidth_grid(ref.x)
        h2_grid = default_bandwidth_grid(ref.coords.points)
        assert loocv_bandwidths(ref, config) == (h1_grid[0], h2_grid[0])

    def test_three_points_is_the_minimum(self):
        ref = line_reference([0.0, 1.0, 3.0], responses=np.array([1.0, -1.0, 0.5]))
        for mode in ("1k.FULL", "2k.FULL"):
            h1, h2 = loocv_bandwidths(ref, PredictorConfig(mode=mode))
            assert h1 in default_bandwidth_grid(ref.x)
            assert (h2 is None) == (mode == "1k.FULL")
        with pytest.raises(InputError):
            loocv_bandwidths(line_reference([0.0, 1.0]), PredictorConfig(mode="1k.FULL"))

    def test_simulated_references_choose_the_unfactorised_bandwidths(self):
        spec = BasisSpec("polynomial", 2)
        for seed in range(20):
            cfg = SimConfig(n=60, p=4, seed=seed)
            rng = np.random.default_rng(seed)
            train, _ = train_test_split(simulate_sample(cfg, 0), 0.7, rng)
            fit = fit_independent(train, spec, 2)
            for mode in ("1k.FULL", "2k.FULL", "1k.Ind", "2k.Ind"):
                ref = build_reference(mode, train, fit)
                two_kernel = mode.startswith("2k")
                _, (_, _, best) = engine(ref, two_kernel)
                assert loocv_bandwidths(ref, PredictorConfig(mode=mode)) == best

    def test_references_of_several_dimensions_match_the_oracle(self, monkeypatch):
        # one pass tunes every reference of a sample; one whose grid fails
        # holds its error and leaves the others as tuned alone
        rng = np.random.default_rng(12)
        n = 45
        y, coords = rng.standard_normal(n), rng.uniform(size=(n, 2))
        refs = [reference(rng.standard_normal((n, p)), y, coords) for p in (0, 1, 2, 5)]
        refs.insert(2, reference(np.zeros((n, 2)), y, coords))
        failed = DegenerateGridError("bandwidth grid needs a finite median distance, got nan")
        pin_grids(monkeypatch, (refs[2].x, failed))
        searches = loo_search(refs)
        assert searches.pop(2) is failed
        del refs[2]
        for ref, search in zip(refs, searches):
            for two_kernel in (False, True):
                errors, fell_back = engine_columns(search, two_kernel)
                want, want_fb, best = oracle_of(ref, search, two_kernel)
                np.testing.assert_allclose(errors, mean_sq_errors(want, y), rtol=1e-12, atol=0.0)
                np.testing.assert_array_equal(fell_back, want_fb.sum(axis=-1))
                assert search.bandwidths(two_kernel) == best
                mode = "2k.FULL" if two_kernel else "1k.FULL"
                assert loocv_bandwidths(ref, PredictorConfig(mode=mode)) == best

    def test_no_references_no_searches(self):
        assert loo_search([]) == []

    def test_references_of_different_samples_rejected(self):
        ref = line_reference([0.0, 1.0, 3.0])
        with pytest.raises(InputError, match="share"):
            loo_search([ref, replace(ref, y=ref.y + 1.0)])

    def test_one_kernel_search_has_no_two_kernel_bandwidths(self):
        # its h2 grid is empty: a named error, not numpy's argmin of an empty sequence
        ref = line_reference([0.0, 1.0, 3.0, 4.5])
        [search] = loo_search([ref], False)
        assert search.bandwidths(False)[1] is None
        with pytest.raises(InputError, match="one-kernel search"):
            search.bandwidths(True)

    def test_working_memory_of_a_replication_sized_search(self):
        # the four references of a SimConfig() training split (n = 280): the
        # whole traced peak, outputs included, is the block buffers (the kernels
        # and the right-hand sides, about 3 n x n matrices) and a few rows, about
        # 3.69 in all; per-point fallback flags took it to 4.1, and keeping each
        # reference's (h1, h2 + 1, n) LOO predictions would take it past 7
        rng = np.random.default_rng(15)
        n = 280
        y, coords = rng.standard_normal(n), rng.uniform(size=(n, 2))
        refs = [reference(rng.standard_normal((n, p)), y, coords) for p in (24, 2, 2, 2)]
        tracemalloc.start()
        try:
            searches = loo_search(refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(s.errors.shape == (15, 16) for s in searches)
        assert peak <= 3.7 * n * n * 8

    def test_one_replication_evaluates_each_kernel_once(self, monkeypatch):
        # kernel rows x grid points: the h2 kernels once per training sample
        # and the h1 kernels once per reference (FULL, Ind, SSCM, SEM)
        counts = []
        original = predictor._kernels

        def counted(d, grid, out):
            counts.append(d.shape[0] * grid.size)
            return original(d, grid, out)

        monkeypatch.setattr(predictor, "_kernels", counted)
        cfg = SimConfig(n=60, p=4, reps=1)
        report = run_experiment(cfg, list(MODES), "fixed")
        assert all(np.isfinite(report.mse[m][0]) for m in MODES)
        n_train = round(cfg.train_frac * cfg.n)
        assert sum(counts) == (15 + 4 * 15) * n_train


def test_default_grid_scales_with_median_distance():
    # oracle: the grid of scipy's pdist distances, bit for bit up to two features
    from scipy.spatial.distance import pdist

    for p in (1, 2):
        pts = np.random.default_rng(7).standard_normal((40, p))
        grid = default_bandwidth_grid(pts)
        q = np.median(pdist(pts))
        assert grid.tobytes() == np.geomspace(0.1 * q, 2.0 * q, 15).tobytes()
        assert grid[0] == pytest.approx(0.1 * q)
        assert grid[-1] == pytest.approx(2.0 * q)
        assert len(grid) == 15


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_kernels_match_the_two_pass_exponent(seed, g, rows, n):
    # oracle: d / h^2, then times -0.5; dividing by -2 h^2 instead rounds the
    # same, as scaling by a power of two is exact, so the kernels are bit-equal
    # d spans 0 to 1e300 and h 1e-150 to 1e150; most d are h^2 times 1e-2 .. 1.6e3
    # for some h of the grid, where the kernel is neither 1 nor 0
    rng = np.random.default_rng(seed)
    grid = 10.0 ** rng.uniform(-150, 150, g)
    scaled = rng.choice(grid, (rows, n)) ** 2 * 10.0 ** rng.uniform(-2, 3.2, (rows, n))
    draw = rng.random((rows, n))
    d = np.where(draw < 0.1, 0.0, np.where(draw < 0.3, 10.0 ** rng.uniform(-300, 300, (rows, n)), scaled))
    with np.errstate(over="ignore", under="ignore"):
        want = np.exp(-0.5 * (d / (grid**2)[:, None, None]))
        got = predictor._kernels(d, grid, np.empty((g, rows, n)))
    np.testing.assert_array_equal(got, want)
