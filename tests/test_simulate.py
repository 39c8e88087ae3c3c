"""The replication harness: golden reports, threading, failures, sampling."""

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky

from spatialsdr import predictor, sem, simulate, sscm
from spatialsdr._linalg import pd_eigh
from spatialsdr.basis import BasisSpec
from spatialsdr.dimension import POLICIES
from spatialsdr.exceptions import InputError, NonPositiveDecayError, SingularFilterError
from spatialsdr.geometry import Coordinates, pairwise_distances
from spatialsdr.predictor import MODES
from spatialsdr.rrr import SdrFit
from spatialsdr.simulate import (
    GrfSpec,
    SimConfig,
    _draw_sample,
    draw_spatial_errors,
    rep_rng,
    run_experiment,
    sample_locations,
    simulate_sample,
    simulate_x,
    simulate_y,
    spherical_covariance,
)

# MetricsReports of run_experiment(SimConfig(n=60, p=4, reps=2, model=m,
# seed=7), list(MODES), policy), written by data/record_golden.py.  Its config
# block names the numpy and scipy that recorded them: MSEs compared at rtol
# 1e-10 after argmax decisions may move under another LAPACK build.
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())


def small_config(model: str) -> SimConfig:
    return SimConfig(n=60, p=4, reps=2, model=model, seed=7)


def assert_same_report(a, b):
    assert a.d_selected == b.d_selected
    assert a.unstable == b.unstable
    for m in a.methods:
        np.testing.assert_array_equal(a.mse[m], b.mse[m])


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model", ["sscm", "sem"])
def test_golden_reports(model, policy):
    want = GOLDEN["reports"][f"{model}-{policy}"]
    report = run_experiment(small_config(model), list(MODES), policy)
    assert report.d_selected == want["d_selected"]
    assert report.unstable == want["unstable"]
    for m in MODES:
        np.testing.assert_allclose(report.mse[m], want["mse"][m], rtol=1e-10, atol=0)


@pytest.mark.parametrize("model", ["sscm", "sem"])
def test_summary_tabulates_the_golden_report(model):
    # oracle: the stdlib mean and sample standard deviation of the golden MSEs
    want = GOLDEN["reports"][f"{model}-fixed"]["mse"]
    cfg = small_config(model)
    rows = run_experiment(cfg, list(MODES), "fixed").summary()
    assert [row["method"] for row in rows] == list(MODES)
    for row in rows:
        mse = want[row["method"]]
        assert row["mean_mse"] == pytest.approx(statistics.mean(mse), rel=1e-10)
        assert row["std_mse"] == pytest.approx(statistics.stdev(mse), rel=1e-8)
        assert (row["n_ok"], row["n_failed"]) == (cfg.reps, 0)


@pytest.mark.parametrize("policy", ["aic", "cv"])
def test_threaded_equals_serial(policy):
    cfg = small_config("sem")
    serial = run_experiment(cfg, list(MODES), policy, workers=1)
    threaded = run_experiment(cfg, list(MODES), policy, workers=2)
    assert_same_report(serial, threaded)


def nan_lags(original):
    """``whiten_sem`` at NaN lags, past the grid check: every lag's gaps
    ``|1 - coef lambda|`` are NaN, so the lag guard fails at every lag."""

    def whiten(x, f, weights, coefs):
        return original(x, f, weights, np.full(len(coefs), np.nan))

    return whiten


def linalg_failure(original):
    """``whiten_sem`` raising numpy's ``LinAlgError``, which is no package error."""

    def whiten(x, f, weights, coefs):
        raise np.linalg.LinAlgError("forced whitening failure")

    return whiten


# Each fault under each policy; folds and the test split isolate both alike.
SEM_FAULTS = [
    pytest.param(policy, fault, error, id=policy + suffix)
    for fault, error, suffix in [
        (nan_lags, SingularFilterError, ""),
        (linalg_failure, np.linalg.LinAlgError, "-linalg"),
    ]
    for policy in ("fixed", "aic", "cv")
]


@pytest.mark.parametrize("policy, fault, error", SEM_FAULTS)
def test_failed_sem_fit_records_nan_for_both_modes(monkeypatch, policy, fault, error):
    # Only the SEM fitter fails; the data are still drawn.
    monkeypatch.setattr(sem, "whiten_sem", fault(sem.whiten_sem))
    with pytest.raises(error):
        sem.fit_sem(simulate_sample(small_config("sem"), 0), BasisSpec("polynomial", 2), 1)
    report = run_experiment(small_config("sem"), list(MODES), policy)
    for m in MODES:
        if m.endswith(".SEM"):
            assert np.all(np.isnan(report.mse[m]))
            assert report.d_selected[m] == [-1, -1]
        else:
            assert np.all(np.isfinite(report.mse[m]))
            assert all(d >= 0 for d in report.d_selected[m])
    assert report.unstable == ["1k.SEM", "2k.SEM"]
    reps = small_config("sem").reps
    for row in report.summary():
        if row["method"].endswith(".SEM"):
            assert (row["n_ok"], row["n_failed"]) == (0, reps)
            assert np.isnan(row["mean_mse"])
        else:
            assert (row["n_ok"], row["n_failed"]) == (reps, 0)


def test_cv_replication_runs_one_loo_pass_per_fold(monkeypatch):
    # every kind's references of a fold share one LOO pass, and the test
    # split has one more
    calls = []
    original = predictor.loo_search

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # Replace every module-level binding, wherever the engine is looked up.
    for name, mod in list(sys.modules.items()):
        if name.startswith("spatialsdr") and getattr(mod, "loo_search", None) is original:
            monkeypatch.setattr(mod, "loo_search", counted)
    report = run_experiment(SimConfig(n=60, p=4, reps=1), list(MODES), "cv")
    assert all(np.isfinite(report.mse[m][0]) for m in MODES)
    assert len(calls) == 5 + 1


@pytest.mark.parametrize(
    "model, field, value",
    [("sem", "lag_coef", v) for v in (1.5, -3.0, 1.0, -1.0, np.nan, np.inf)]
    + [("sscm", "decay", v) for v in (0.0, -0.5, np.nan, np.inf)],
)
def test_config_rejects_a_parameter_outside_its_model(model, field, value):
    with pytest.raises(InputError, match=field):
        SimConfig(n=60, p=4, reps=2, seed=7, model=model, **{field: value})
    # the other model's parameter is not used, so it is not checked
    other = "sscm" if model == "sem" else "sem"
    assert getattr(SimConfig(model=other, **{field: value}), field) is value


def nan_reduce(self, x):
    """A reduction of the right shape whose every entry is NaN."""
    return SdrFit.reduce(self, x) * np.nan


@pytest.mark.parametrize("policy", ["fixed", "aic", "cv"])
def test_nan_reduction_fails_only_its_kind(monkeypatch, policy):
    # NaN reduced points make the SSCM references' bandwidth grids
    # degenerate; the LOO pass they share still tunes every other mode
    cfg = small_config("sem")
    want = run_experiment(cfg, list(MODES), policy)
    monkeypatch.setattr(sscm.SscmFit, "reduce", nan_reduce)
    report = run_experiment(cfg, list(MODES), policy)
    for m in MODES:
        if m.endswith(".SSCM"):
            assert np.all(np.isnan(report.mse[m]))
            assert report.d_selected[m] == [-1] * cfg.reps
        else:
            np.testing.assert_array_equal(report.mse[m], want.mse[m])
            assert report.d_selected[m] == want.d_selected[m]
    assert report.unstable == ["1k.SSCM", "2k.SSCM"]


def test_replication_draws_the_simulated_sample():
    cfg = small_config("sscm")
    for rep in (0, 3):
        drawn = _draw_sample(cfg, rep_rng(cfg.seed, rep))
        want = simulate_sample(cfg, rep)
        np.testing.assert_array_equal(drawn.coords.points, want.coords.points)
        np.testing.assert_array_equal(drawn.x, want.x)
        np.testing.assert_array_equal(drawn.y, want.y)


@pytest.mark.parametrize("model", ["sscm", "sem"])
def test_a_sample_computes_its_distances_once(monkeypatch, model):
    # both draws share one distance matrix; oracle: the same draws made
    # without it, each computing its own distances as the public calls do
    cfg = SimConfig(n=50, p=3, model=model, seed=2)
    rng = rep_rng(cfg.seed, 1)
    coords = sample_locations(cfg.n, rng, grid=cfg.grid_locations)
    y = simulate_y(coords, GrfSpec(), rng)
    x = simulate_x(y, coords, cfg, rng)
    calls = []

    def counted(points):
        calls.append(points)
        return pairwise_distances(points)

    monkeypatch.setattr(simulate, "pairwise_distances", counted)
    drawn = _draw_sample(cfg, rep_rng(cfg.seed, 1))
    assert len(calls) == 1
    np.testing.assert_array_equal(drawn.y, y)
    np.testing.assert_array_equal(drawn.x, x)


def test_sscm_errors_use_the_cholesky_roots():
    # oracle: scipy's lower Cholesky factors of exp(-decay * distance) and of
    # the column covariance
    rng = np.random.default_rng(11)
    coords = Coordinates(rng.uniform(size=(40, 2)))
    a = rng.standard_normal((3, 3))
    noise_cov = a @ a.T + np.eye(3)
    z = np.random.default_rng(5).standard_normal((40, 3))
    h = np.exp(-2.0 * pairwise_distances(coords).dist)
    want = cholesky(h, lower=True) @ (z @ cholesky(noise_cov, lower=True).T)
    got = draw_spatial_errors(coords, "sscm", 2.0, noise_cov, 5)
    np.testing.assert_array_equal(got, want)
    with pytest.raises(NonPositiveDecayError):
        draw_spatial_errors(coords, "sscm", 0.0, noise_cov, 5)


def test_sample_roots_factor_their_covariances(monkeypatch):
    # the spherical covariogram, the noise covariance and exp(-decay * distance)
    # of an sscm sample, each rebuilt by its root to 1e-12 of its largest entry
    cfg = SimConfig(n=60, model="sscm", seed=7)
    calls, original = [], simulate.pd_cholesky

    def spy(m, err):
        chol, used = original(m, err)
        calls.append((m, chol, used))
        return chol, used

    monkeypatch.setattr(simulate, "pd_cholesky", spy)
    sample = simulate_sample(cfg, 0)
    dist = pairwise_distances(sample.coords).dist
    grf = GrfSpec()
    spherical, noise, corr = (m for m, _, _ in calls)
    np.testing.assert_array_equal(spherical, spherical_covariance(dist, grf.sill, grf.range_))
    assert noise.shape == (cfg.p, cfg.p)
    np.testing.assert_array_equal(corr, np.exp(-cfg.decay * dist))
    for m, chol, used in calls:
        assert used is m
        np.testing.assert_array_equal(chol, np.tril(chol))
        assert np.abs(chol @ chol.T - m).max() <= 1e-12 * np.abs(m).max()


def symmetric_root(m, err):
    """The symmetric square root under the shared PD policy: the oracle sampler."""
    vals, vecs, used = pd_eigh(m, err)
    return (vecs * vals**0.5) @ vecs.T, used


def mse_z_scores(cfg: SimConfig) -> dict[str, float]:
    """Per mode, the difference of mean test MSE at fixed rank between the
    Cholesky sampler and the symmetric root, in combined standard errors.

    A larger run, from the root of a source checkout:
    ``PYTHONPATH=src:tests python -c "from test_simulate import *;
    print(mse_z_scores(SimConfig(n=100, p=6, reps=300, seed=11, model='sem')))"``
    """
    reports = [run_experiment(cfg, list(MODES), "fixed")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "pd_cholesky", symmetric_root)
        reports.append(run_experiment(cfg, list(MODES), "fixed"))
    chol, sym = ({row["method"]: row for row in r.summary()} for r in reports)
    z = {}
    for m in MODES:
        assert chol[m]["n_failed"] == sym[m]["n_failed"] == 0
        se = np.hypot(*(row[m]["std_mse"] / np.sqrt(row[m]["n_ok"]) for row in (chol, sym)))
        z[m] = (chol[m]["mean_mse"] - sym[m]["mean_mse"]) / se
    return z


@pytest.mark.parametrize("model", ["sscm", "sem"])
def test_cholesky_sampler_keeps_the_mse_law(model):
    # any root R with R R' = cov gives the same Gaussian law, so every mode's
    # mean MSE agrees with the symmetric-root oracle's within 3 standard errors
    z = mse_z_scores(SimConfig(n=60, p=4, reps=100, seed=11, model=model))
    assert max(map(abs, z.values())) < 3.0, z
