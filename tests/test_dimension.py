import sys
import traceback
import weakref

import numpy as np
import pytest

from spatialsdr import dimension, geometry, sscm
from spatialsdr.basis import BasisSpec
from spatialsdr.dimension import (
    MODELS,
    chi2_sf,
    fit_and_predict,
    loglik_profile,
    mode_kind,
    param_count,
    rank_fits,
    select_cv,
    select_ic,
    select_lr,
    select_ranks,
)
from spatialsdr.exceptions import (
    CvFailedError,
    DegenerateGridError,
    DuplicatePointsError,
    InputError,
    NearSingularCorrelationError,
    NonFiniteLoglikError,
    NonMonotoneLogliksError,
    SingularResidualCovError,
)
from spatialsdr.data import SpatialSample
from spatialsdr.geometry import Coordinates
from spatialsdr.predictor import MODES
from spatialsdr.rrr import SdrFit
from spatialsdr.simulate import SimConfig, simulate_sample
from spatialsdr.sscm import SscmFit

from conftest import poly_spec, random_sample


def chi2_sf_even_dof_oracle(x: float, dof: int) -> float:
    """Closed-form upper tail for even degrees of freedom:
    exp(-x/2) * sum_{j<dof/2} (x/2)^j / j!."""
    k = dof // 2
    term, total = 1.0, 0.0
    for j in range(k):
        if j > 0:
            term *= (x / 2.0) / j
        total += term
    return float(np.exp(-x / 2.0) * total)


class TestChi2Tail:
    def test_against_series_oracle(self):
        for x, dof in [(9.488, 4), (1.0, 2), (25.0, 8), (0.3, 6)]:
            assert chi2_sf(x, dof) == pytest.approx(
                chi2_sf_even_dof_oracle(x, dof), rel=1e-10
            )

    def test_against_scipys_incomplete_gamma(self):
        # oracle: scipy's regularized upper incomplete gamma Q(dof/2, x/2), for
        # dof 0..48 and x from 0 to 2000, to 1e-12 relative; a value below the
        # normal range (underflow) cannot carry 12 digits and is held to it in absolute
        from scipy.special import gammaincc

        xs = np.concatenate([np.linspace(0.0, 2000.0, 2001), np.geomspace(1e-6, 2000.0, 200)])
        for dof in range(49):
            got = np.array([chi2_sf(float(x), dof) for x in xs])
            want = gammaincc(dof / 2.0, xs / 2.0) if dof else (xs <= 0.0).astype(float)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=np.finfo(float).tiny)

    def test_textbook_point(self):
        assert chi2_sf(9.488, 4) == pytest.approx(0.05, abs=5e-4)

    def test_zero_dof_convention(self):
        assert chi2_sf(0.0, 0) == 1.0
        assert chi2_sf(0.5, 0) == 0.0

    @pytest.mark.parametrize("x", [1e15, 1e100, 1e300])
    def test_a_huge_statistic_stays_a_probability(self, x):
        # no partial product of the series may overflow; select_lr passes a numpy float, whose
        # overflow warns, and filterwarnings = error fails the test on that warning
        for dof in range(1, 61):
            for value in (x, np.float64(x)):
                assert 0.0 <= chi2_sf(value, dof) <= 1.0, dof

    def test_an_infinite_statistic_has_zero_tail(self):
        for dof in range(61):
            assert chi2_sf(float("inf"), dof) == 0.0


class TestSelectLr:
    def test_dof_formula(self):
        sel = select_lr(np.array([-10.0, -5.0, -4.0]), p=5, r=2)
        assert sel.trace[1]["dof"] == (2 - 1) * (5 - 1) == 4

    def test_zero_statistic_accepts_rank_zero(self, monkeypatch):
        monkeypatch.setattr(dimension, "LR_ALPHA", 0.9)
        sel = select_lr(np.array([-3.0, -3.0, -3.0]), p=4, r=2)
        assert sel.d_star == 0

    def test_all_rejected_selects_max(self, monkeypatch):
        monkeypatch.setattr(dimension, "LR_ALPHA", 0.01)
        lls = np.array([-500.0, -300.0, -100.0])
        sel = select_lr(lls, p=4, r=2)
        assert sel.d_star == 2

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneLogliksError):
            select_lr(np.array([-3.0, -4.0, -2.0]), p=4, r=2)

    def test_a_huge_statistic_rejects_its_rank(self):
        # rank 0's statistic 2e100 on 48 dof has a tail of 0, not an overflowed one
        sel = select_lr(np.array([-1e100, -10.0, 0.0]), p=24, r=2)
        assert sel.trace[0]["p_value"] == 0.0
        assert sel.d_star == 1

    def test_trace_covers_all_ranks(self):
        sel = select_lr(np.array([-9.0, -8.0, -8.0]), p=3, r=2)
        assert [row["rank"] for row in sel.trace] == [0, 1, 2]


class TestSelectIc:
    def test_parameter_count(self):
        assert param_count(p=5, delta=1, r=2) == 20 + 2 + 4 == 26

    def test_aic_bic_penalties(self):
        lls = np.zeros(3)
        aic = select_ic(lls, p=5, r=2, n=100, kind="aic")
        bic = select_ic(lls, p=5, r=2, n=100, kind="bic")
        assert aic.trace[1]["criterion"] == pytest.approx(52.0)
        assert bic.trace[1]["criterion"] == pytest.approx(26 * np.log(100.0))
        assert bic.trace[1]["criterion"] == pytest.approx(119.7344, abs=1e-4)

    def test_flat_logliks_select_zero(self):
        lls = np.full(3, -7.0)
        for kind in ("aic", "bic"):
            assert select_ic(lls, p=4, r=2, n=60, kind=kind).d_star == 0

    def test_penalty_ordering(self):
        # BIC penalizes harder than AIC once log(n) > 2
        lls = np.array([-50.0, -40.0, -39.0])
        aic = select_ic(lls, p=6, r=2, n=100, kind="aic")
        bic = select_ic(lls, p=6, r=2, n=100, kind="bic")
        assert bic.d_star <= aic.d_star


@pytest.mark.parametrize("criterion", ["lr", "aic", "bic"])
@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rank_selectors_reject_non_finite_logliks(criterion, rank, value):
    # a NaN compares false and an infinity passes the monotone check, so either used to pick a
    # rank (or, in the LR statistic, warn) where no log-likelihood is to be trusted
    lls = np.array([-20.0, -10.0, -5.0])
    lls[rank] = value
    with pytest.raises(NonFiniteLoglikError):
        if criterion == "lr":
            select_lr(lls, p=4, r=2)
        else:
            select_ic(lls, p=4, r=2, n=100, kind=criterion)


class TestLoglikProfile:
    def test_monotone_for_each_model(self):
        sample = random_sample(60, 4, seed=4, signal=True)
        spec = BasisSpec("polynomial", 2)
        for kind in MODELS:
            lls = loglik_profile(sample, kind, spec)
            assert lls.shape == (3,)
            assert np.all(np.diff(lls) >= -1e-8 * np.abs(lls).max())


def cv_of(sample, mode, spec, seed=0):
    """``select_cv``'s selection for the one mode ``mode``, or the ``CvFailedError`` it holds."""
    [selection] = select_cv(sample, [mode], spec, seed=seed)
    return selection


class TestSelectCv:
    def test_singleton_range(self):
        # min(p, r) = 1 leaves the one candidate rank
        sel = cv_of(random_sample(40, 3, seed=6), "2k.Ind", BasisSpec("polynomial", 1))
        assert sel.d_star == 1
        assert [row["rank"] for row in sel.trace] == [1]

    @pytest.mark.parametrize("p, r", [(3, 2), (2, 3)])
    def test_candidate_ranks_are_one_to_min_p_r(self, p, r):
        sel = cv_of(random_sample(40, p, seed=6), "2k.Ind", BasisSpec("polynomial", r))
        assert [row["rank"] for row in sel.trace] == list(range(1, min(p, r) + 1))

    def test_noiseless_one_dimensional_link(self):
        # response is (almost) a deterministic function of one linear score,
        # so a second reduction direction only dilutes the kernel neighbors
        rng = np.random.default_rng(0)
        n, p = 120, 6
        from spatialsdr.data import SpatialSample
        from spatialsdr.geometry import Coordinates

        x = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:3] = [1.0, -1.0, 0.5]
        beta /= np.linalg.norm(beta)
        y = x @ beta + 0.1 * rng.standard_normal(n)
        sample = SpatialSample(Coordinates(rng.uniform(size=(n, 2))), x, y)
        sel = cv_of(sample, "1k.Ind", BasisSpec("polynomial", 2), seed=1)
        errs = {row["rank"]: row["cv_error"] for row in sel.trace}
        assert errs[1] < errs[2]
        assert sel.d_star == 1

    def test_unknown_mode_rejected_before_any_fit(self, monkeypatch):
        # a spy on every kind's moments in the table: the valid mode ahead
        # of the unknown one is not fitted either
        fitted = []
        for kind, (label, fit_type, moments) in MODELS.items():
            spy = lambda *args, moments=moments: fitted.append(args) or moments(*args)  # noqa: E731
            monkeypatch.setitem(MODELS, kind, (label, fit_type, spy))
        sample = random_sample(40, 3, seed=6)
        with pytest.raises(InputError, match="unknown predictor mode 'bogus'"):
            select_cv(sample, ["2k.SEM", "bogus"], BasisSpec("polynomial", 2))
        assert fitted == []

    def test_every_fold_needs_two_points(self):
        # 9 points leave a fold of one; 10 give every fold two
        spec = BasisSpec("polynomial", 1)
        failed = select_cv(random_sample(9, 2, seed=6), ["2k.Ind", "1k.SEM"], spec)
        assert all(isinstance(err, CvFailedError) and "n=9" in str(err) for err in failed)
        assert cv_of(random_sample(10, 2, seed=6), "2k.Ind", spec).d_star == 1

    def test_unknown_mode_rejected_below_the_size_for_folds(self):
        # the modes are checked before the size: at n = 9, too few for five
        # folds of two points, an unknown mode raises as it does at n >= 10
        with pytest.raises(InputError, match="unknown predictor mode 'bogus'"):
            select_cv(random_sample(9, 2, seed=6), ["bogus"], BasisSpec("polynomial", 1))

    def test_seeded_folds_reproducible(self):
        sample = random_sample(50, 3, seed=8)
        spec = BasisSpec("polynomial", 2)
        s1 = cv_of(sample, "2k.Ind", spec, seed=3)
        s2 = cv_of(sample, "2k.Ind", spec, seed=3)
        assert s1.d_star == s2.d_star
        assert s1.trace == s2.trace

    def test_nan_reduction_fails_only_its_kind(self, monkeypatch):
        sample = random_sample(50, 3, seed=9)
        spec = BasisSpec("polynomial", 2)
        want = {mode: cv_of(sample, mode, spec) for mode in ("2k.Ind", "2k.SEM")}
        monkeypatch.setattr(SscmFit, "reduce", lambda self, x: SdrFit.reduce(self, x) * np.nan)
        assert isinstance(cv_of(sample, "2k.SSCM", spec), CvFailedError)
        for mode, sel in want.items():
            assert cv_of(sample, mode, spec) == sel

    def test_linalg_error_in_a_fold_fails_its_ranks(self, monkeypatch):
        # numpy's LinAlgError is isolated per fold as the test split isolates
        # it, so it costs the kind its ranks instead of escaping select_cv
        from spatialsdr import sem

        def fails(x, f, weights, coefs):
            raise np.linalg.LinAlgError("forced whitening failure")

        monkeypatch.setattr(sem, "whiten_sem", fails)
        held = cv_of(random_sample(50, 3, seed=9), "2k.SEM", BasisSpec("polynomial", 2))
        assert isinstance(held, CvFailedError)

    def test_nan_reduction_at_one_rank_keeps_the_others(self, monkeypatch):
        # the rank-2 reference of each fold is a sample with non-finite predictors,
        # which fails to build; the rank-1 reference tuned in the LOO pass is unaffected
        sample = random_sample(50, 3, seed=9)
        spec = BasisSpec("polynomial", 2)
        want = cv_of(sample, "2k.SSCM", spec)

        def nan_at_rank_two(self, x):
            z = SdrFit.reduce(self, x)
            return z * np.nan if z.shape[1] == 2 else z

        monkeypatch.setattr(SscmFit, "reduce", nan_at_rank_two)
        sel = cv_of(sample, "2k.SSCM", spec)
        assert sel.d_star == 1
        assert sel.trace[0] == want.trace[0]
        assert sel.trace[1]["cv_error"] is None
        assert "must be finite" in sel.trace[1]["failure"]

    @pytest.mark.parametrize("kind", ["ind", "sem"])
    def test_failure_at_one_rank_fails_the_kind(self, monkeypatch, kind):
        # a profile fails as a whole, so the forced rank-2 failure costs the
        # kind both ranks in the first fold, and no later fold is run; the
        # failure of one rank's reference keeps the others (see above)
        from spatialsdr import rrr

        original, failed = rrr.loglik, []

        def fails_at_rank_two(ls, rank):
            if rank == 2:
                failed.append(ls)
                raise SingularResidualCovError("forced failure at rank 2")
            return original(ls, rank)

        # Replace every module-level binding, wherever the fitters look it up.
        for name, mod in list(sys.modules.items()):
            if name.startswith("spatialsdr") and getattr(mod, "loglik", None) is original:
                monkeypatch.setattr(mod, "loglik", fails_at_rank_two)
        sample = random_sample(50, 3, seed=9)
        held = cv_of(sample, f"2k.{MODELS[kind][0]}", BasisSpec("polynomial", 2))
        assert isinstance(held, CvFailedError)
        assert len(failed) == 1


class TestModels:
    def test_every_mode_maps_to_a_model_or_full(self):
        kinds = {mode: mode_kind(mode) for mode in MODES}
        for mode, kind in kinds.items():
            assert (kind is None) == mode.endswith(".FULL")
            assert kind is None or mode.split(".")[1] == MODELS[kind][0]
        assert set(kinds.values()) == set(MODELS) | {None}

    @pytest.mark.parametrize("mode", ["bogus", "1k.Foo", "3k.SEM"])
    def test_malformed_mode_is_rejected_before_any_fit(self, monkeypatch, mode):
        # a spy on every kind's moments in the table: the valid job ahead
        # of the malformed one is not fitted either
        fitted = []
        for kind, (label, fit_type, moments) in MODELS.items():
            spy = lambda *args, moments=moments: fitted.append(args) or moments(*args)  # noqa: E731
            monkeypatch.setitem(MODELS, kind, (label, fit_type, spy))
        sample = random_sample(40, 3, seed=1)
        train, test = sample.subset(np.arange(30)), sample.subset(np.arange(30, 40))
        with pytest.raises(InputError, match="unknown predictor mode"):
            fit_and_predict([("2k.SEM", 1), (mode, 1)], train, test, BasisSpec("polynomial", 2))
        assert fitted == []


class TestSelectRanks:
    modes = ["1k.FULL", "1k.SSCM", "2k.Ind", "2k.SSCM"]

    @pytest.mark.parametrize("policy", ["lr", "aic", "bic"])
    def test_likelihood_policies_return_their_profile_fits(self, policy):
        # oracle: each kind's loglik_profile and the criterion applied to it
        sample = random_sample(50, 3, seed=4)
        spec = BasisSpec("polynomial", 2)
        picks, fits = select_ranks(sample, self.modes, spec, policy, 1, 0)
        assert sorted(fits) == [(kind, d) for kind in ("ind", "sscm") for d in range(3)]
        for kind, modes in (("ind", ["2k.Ind"]), ("sscm", ["1k.SSCM", "2k.SSCM"])):
            lls = loglik_profile(sample, kind, spec)
            np.testing.assert_array_equal([fits[(kind, d)].loglik for d in range(3)], lls)
            args = (lls, sample.p, 2)
            want = select_lr(*args) if policy == "lr" else select_ic(*args, sample.n, kind=policy)
            assert [picks[m] for m in modes] == [want.d_star] * len(modes)
        assert "1k.FULL" not in picks

    def test_fixed_and_cv(self):
        sample = random_sample(50, 3, seed=4)
        spec = BasisSpec("polynomial", 2)
        assert select_ranks(sample, self.modes, spec, "fixed", 1, 0) == (
            dict.fromkeys(["1k.SSCM", "2k.Ind", "2k.SSCM"], 1), {}
        )
        picks, fits = select_ranks(sample, self.modes, spec, "cv", 1, 3)
        assert fits == {}
        for mode in ("1k.SSCM", "2k.Ind", "2k.SSCM"):
            assert picks[mode] == select_cv(sample, [mode], spec, seed=3)[0].d_star

    def test_unknown_policy_rejected(self):
        sample = random_sample(40, 3, seed=1)
        with pytest.raises(InputError, match="policy"):
            select_ranks(sample, self.modes, BasisSpec("polynomial", 2), "mse", 1, 0)


def test_the_spatial_fits_of_a_sample_share_its_distances(monkeypatch):
    # a fit step computes the training distances once for its SSCM and SEM fits and not at
    # all for FULL and Ind, and holds no reference to them by its leave-one-out search;
    # select_ranks' profiles under aic likewise
    made, alive, search = [], [], dimension.loo_search

    def counted(coords):
        dist = geometry.pairwise_distances(coords)
        made.append((coords, weakref.ref(dist)))
        return dist

    def searched(*args, **kwargs):
        alive.extend(ref() is not None for _, ref in made)
        return search(*args, **kwargs)

    monkeypatch.setattr(dimension, "pairwise_distances", counted)
    monkeypatch.setattr(dimension, "loo_search", searched)
    sample = simulate_sample(SimConfig(n=60, p=4, seed=3), 0)
    train, test = sample.subset(np.arange(45)), sample.subset(np.arange(45, 60))
    spec = BasisSpec("polynomial", 2)
    spatial = ("1k.SSCM", "2k.SSCM", "1k.SEM", "2k.SEM")
    for modes, calls in ((("1k.FULL", "2k.FULL", "1k.Ind", "2k.Ind"), 0), (spatial, 1)):
        made.clear()
        out = fit_and_predict([(mode, 1) for mode in modes], train, test, spec)
        assert all(np.all(np.isfinite(yhat)) for yhat in out)
        assert len(made) == calls and all(coords is train.coords for coords, _ in made)
        assert not any(alive) and all(ref() is None for _, ref in made)
        made.clear()
        select_ranks(train, modes, spec, "aic", 1, 0)
        assert len(made) == calls and all(ref() is None for _, ref in made)


@pytest.mark.parametrize("chained", [False, True])
def test_a_failed_profile_holds_no_distances(monkeypatch, chained):
    # the SSCM profile fails in a frame that holds the training distances, or chains a cause
    # raised in one; the jobs and the picks hold the error, and its traceback keeps every
    # file and line, yet the distances die with the step that made them
    made = []

    def counted(coords):
        dist = geometry.pairwise_distances(coords)
        made.append(weakref.ref(dist))
        return dist

    def cause(dist):
        raise ValueError("a cause raised where the distances are held")

    def failing(x, f, dist, decays):
        if not chained:
            raise NearSingularCorrelationError("forced")
        try:
            cause(dist)
        except ValueError as exc:
            raise NearSingularCorrelationError("forced") from exc

    monkeypatch.setattr(dimension, "pairwise_distances", counted)
    monkeypatch.setattr(sscm, "whiten_sscm", failing)
    sample = simulate_sample(SimConfig(n=60, p=4, seed=3), 0)
    train, test = sample.subset(np.arange(45)), sample.subset(np.arange(45, 60))
    spec = BasisSpec("polynomial", 2)
    modes = ("2k.Ind", "1k.SSCM", "2k.SSCM", "2k.SEM")
    out = fit_and_predict([(mode, 1) for mode in modes], train, test, spec)
    assert len(made) == 1 and made[0]() is None
    picks, fits = select_ranks(train, modes, spec, "aic", 1, 0)
    assert len(made) == 2 and made[1]() is None
    assert sorted(fits) == [(kind, d) for kind in ("ind", "sem") for d in range(3)]
    for held in (out[1], out[2], picks["1k.SSCM"], picks["2k.SSCM"]):
        assert isinstance(held, NearSingularCorrelationError)
        text = "".join(traceback.format_exception(held))
        assert "in failing" in text and ("in cause" in text) == chained
    assert all(np.all(np.isfinite(out[i])) for i in (0, 3))
    assert isinstance(picks["2k.Ind"], int) and isinstance(picks["2k.SEM"], int)


@pytest.mark.parametrize("policy", ["fixed", "aic"])
def test_coinciding_training_locations_fail_only_the_spatial_jobs(policy):
    # two training locations coincide: the distances cannot be computed, so every SSCM and
    # SEM job holds the DuplicatePointsError; FULL and Ind predict as they do without them
    sample = simulate_sample(SimConfig(n=60, p=4, seed=3), 0)
    points = sample.coords.points.copy()
    points[7] = points[2]
    sample = SpatialSample(Coordinates(points), sample.x, sample.y)
    train, test = sample.subset(np.arange(45)), sample.subset(np.arange(45, 60))
    spec = BasisSpec("polynomial", 2)
    picks, fits = select_ranks(train, MODES, spec, policy, 1, 0)
    out = fit_and_predict([(mode, picks.get(mode, 1)) for mode in MODES], train, test, spec, fits)
    plain = [(mode, picks.get(mode, 1)) for mode in MODES[:4]]
    want = fit_and_predict(plain, train, test, spec, {k: v for k, v in fits.items() if k[0] == "ind"})
    for mode, yhat in zip(MODES, out):
        if mode_kind(mode) in ("sscm", "sem"):
            assert isinstance(yhat, DuplicatePointsError), mode
        else:
            assert yhat.tobytes() == want[MODES.index(mode)].tobytes(), mode


@pytest.mark.parametrize("jobs", [[("2k.FULL", 0)], [("1k.Ind", 1), ("2k.Ind", 1)], [("1k.FULL", 0)]])
def test_coordinates_without_a_bandwidth_grid_fail_every_job(jobs):
    # finite coordinates whose squared distances overflow have no finite h2 grid: every job of
    # the call holds the DegenerateGridError, the one-kernel jobs too, as when n < 3
    sample = random_sample(40, 3, seed=2)
    sample = SpatialSample(Coordinates(sample.coords.points * 1e160), sample.x, sample.y)
    train, test = sample.subset(np.arange(30)), sample.subset(np.arange(30, 40))
    with np.errstate(over="ignore"):  # the squared distances overflow to inf
        out = fit_and_predict(jobs, train, test, poly_spec(2))
    assert len(out) == len(jobs)
    assert all(isinstance(err, DegenerateGridError) and "finite median" in str(err) for err in out)


def test_one_kernel_errors_are_one_computation_in_any_job_set(monkeypatch):
    # the four 1k modes alone and all eight modes give each reference the same one-kernel
    # LOO errors, bit for bit: every job set takes the one joint pass
    searches, search = [], dimension.loo_search

    def recorded(*args):
        searches.append(search(*args))
        return searches[-1]

    monkeypatch.setattr(dimension, "loo_search", recorded)
    one_kernel = [mode for mode in MODES if mode.startswith("1k")]
    for seed in range(6):
        sample = random_sample(60, 4, seed=seed)
        train, test = sample.subset(np.arange(45)), sample.subset(np.arange(45, 60))
        searches.clear()
        for modes in (one_kernel, MODES):
            fit_and_predict([(mode, 1) for mode in modes], train, test, poly_spec(2))
        alone, joint = searches
        assert len(alone) == len(joint) == 4
        differing = [int(np.sum(a.errors[:, -1] != b.errors[:, -1])) for a, b in zip(alone, joint)]
        assert differing == [0, 0, 0, 0], seed


def test_independent_errors_lr_test_holds_its_size():
    # 2 (l_2 - l_1) referred to chi-square with (r - 1)(p - 1) = 23 degrees of
    # freedom at alpha 0.05, on 200 samples of independent errors whose true
    # rank is 1: the rejection count lies in [2, 21], the central 99.9% of
    # Binomial(200, 0.05)
    cfg = SimConfig(model="sem", lag_coef=0.0, d=1, r=2, seed=11)
    spec = BasisSpec("polynomial", cfg.r)
    rejected = 0
    for rep in range(200):
        one, two = rank_fits(simulate_sample(cfg, rep), "ind", spec, [1, 2])
        rejected += chi2_sf(2.0 * (two.loglik - one.loglik), (cfg.r - 1) * (cfg.p - 1)) < 0.05
    assert 2 <= rejected <= 21, rejected
