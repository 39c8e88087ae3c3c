import sys

import numpy as np
import pytest

from spatialsdr.basis import BasisSpec
from spatialsdr.dimension import (
    chi2_sf,
    loglik_profile,
    param_count,
    select_cv,
    select_ic,
    select_lr,
)
from spatialsdr.exceptions import (
    CvFailedError,
    InputError,
    NonMonotoneLogliksError,
    SingularResidualCovError,
)
from spatialsdr.rrr import SdrFit
from spatialsdr.sscm import SscmFit

from conftest import random_sample


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

    def test_textbook_point(self):
        assert chi2_sf(9.488, 4) == pytest.approx(0.05, abs=5e-4)

    def test_zero_dof_convention(self):
        assert chi2_sf(0.0, 0) == 1.0
        assert chi2_sf(0.5, 0) == 0.0


class TestSelectLr:
    def test_dof_formula(self):
        sel = select_lr(np.array([-10.0, -5.0, -4.0]), p=5, r=2, n=50)
        assert sel.trace[1]["dof"] == (2 - 1) * (5 - 1) == 4

    def test_zero_statistic_accepts_rank_zero(self):
        sel = select_lr(np.array([-3.0, -3.0, -3.0]), p=4, r=2, n=50, alpha=0.9)
        assert sel.d_star == 0

    def test_all_rejected_selects_max(self):
        lls = np.array([-500.0, -300.0, -100.0])
        sel = select_lr(lls, p=4, r=2, n=50, alpha=0.01)
        assert sel.d_star == 2

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneLogliksError):
            select_lr(np.array([-3.0, -4.0, -2.0]), p=4, r=2, n=50)

    def test_trace_covers_all_ranks(self):
        sel = select_lr(np.array([-9.0, -8.0, -8.0]), p=3, r=2, n=30)
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


class TestLoglikProfile:
    def test_monotone_for_each_model(self):
        sample = random_sample(60, 4, seed=4, signal=True)
        spec = BasisSpec("polynomial", 2)
        grids = {"ind": None, "sscm": np.array([0.5, 2.0]), "sem": np.array([0.0, 0.5])}
        for kind, grid in grids.items():
            lls = loglik_profile(sample, kind, spec, grid=grid)
            assert lls.shape == (3,)
            assert np.all(np.diff(lls) >= -1e-8 * np.abs(lls).max())


class TestSelectCv:
    def test_singleton_range(self):
        sample = random_sample(40, 3, seed=6)
        sel = select_cv(
            sample, "ind", BasisSpec("polynomial", 2), d_range=(1,), folds=3
        )
        assert sel.d_star == 1

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
        sel = select_cv(
            sample, "ind", BasisSpec("polynomial", 2), kernels="1k",
            folds=5, seed=1,
        )
        errs = {row["rank"]: row["cv_error"] for row in sel.trace}
        assert errs[1] < errs[2]
        assert sel.d_star == 1

    def test_unknown_kind_rejected(self):
        sample = random_sample(40, 3, seed=6)
        with pytest.raises(InputError, match="bogus"):
            select_cv(sample, "bogus", BasisSpec("polynomial", 2), folds=3)

    def test_seeded_folds_reproducible(self):
        sample = random_sample(50, 3, seed=8)
        spec = BasisSpec("polynomial", 2)
        s1 = select_cv(sample, "ind", spec, folds=4, seed=3)
        s2 = select_cv(sample, "ind", spec, folds=4, seed=3)
        assert s1.d_star == s2.d_star
        assert s1.trace == s2.trace

    def test_nan_reduction_fails_only_its_kind(self, monkeypatch):
        sample = random_sample(50, 3, seed=9)
        spec = BasisSpec("polynomial", 2)
        want = {kind: select_cv(sample, kind, spec, folds=3) for kind in ("ind", "sem")}
        monkeypatch.setattr(SscmFit, "reduce", lambda self, x: SdrFit.reduce(self, x) * np.nan)
        with pytest.raises(CvFailedError):
            select_cv(sample, "sscm", spec, folds=3)
        for kind, sel in want.items():
            assert select_cv(sample, kind, spec, folds=3) == sel

    def test_nan_reduction_at_one_rank_keeps_the_others(self, monkeypatch):
        # the rank-2 reference of each fold has a degenerate bandwidth grid;
        # the rank-1 reference tuned in the same LOO pass is unaffected
        sample = random_sample(50, 3, seed=9)
        spec = BasisSpec("polynomial", 2)
        want = select_cv(sample, "sscm", spec, folds=3)

        def nan_at_rank_two(self, x):
            z = SdrFit.reduce(self, x)
            return z * np.nan if z.shape[1] == 2 else z

        monkeypatch.setattr(SscmFit, "reduce", nan_at_rank_two)
        sel = select_cv(sample, "sscm", spec, folds=3)
        assert sel.d_star == 1
        assert sel.trace[0] == want.trace[0]
        assert sel.trace[1]["cv_error"] is None
        assert "bandwidth grid" in sel.trace[1]["failure"]

    @pytest.mark.parametrize("kind", ["ind", "sem"])
    def test_failure_at_one_rank_keeps_the_others(self, monkeypatch, kind):
        from spatialsdr import rrr

        original = rrr.loglik

        def fails_at_rank_two(ls, rank):
            if rank == 2:
                raise SingularResidualCovError("forced failure at rank 2")
            return original(ls, rank)

        # Replace every module-level binding, wherever the fitters look it up.
        for name, mod in list(sys.modules.items()):
            if name.startswith("spatialsdr") and getattr(mod, "loglik", None) is original:
                monkeypatch.setattr(mod, "loglik", fails_at_rank_two)
        sample = random_sample(50, 3, seed=9)
        sel = select_cv(
            sample, kind, BasisSpec("polynomial", 2), folds=3, grid=[0.0, 0.5]
        )
        assert sel.d_star == 1
        rows = {row["rank"]: row for row in sel.trace}
        assert np.isfinite(rows[1]["cv_error"])
        assert rows[2]["cv_error"] is None
        assert "forced failure at rank 2" in rows[2]["failure"]
