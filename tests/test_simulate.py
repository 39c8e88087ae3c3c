"""The replication harness: golden reports, threading, failures, sampling."""

import dataclasses
import json
import statistics
from pathlib import Path

import numpy as np
import pytest

from spatialsdr import sem, sscm
from spatialsdr.basis import BasisSpec
from spatialsdr.exceptions import NonPositiveDecayError, SingularFilterError
from spatialsdr.geometry import Coordinates, pairwise_distances
from spatialsdr.predictor import MODES
from spatialsdr.rrr import SdrFit
from spatialsdr.simulate import (
    SimConfig,
    _draw_sample,
    draw_spatial_errors,
    rep_rng,
    run_experiment,
    simulate_sample,
)

POLICIES = ("fixed", "lr", "aic", "bic", "cv")
# MetricsReports of run_experiment(SimConfig(n=60, p=4, reps=2, model=m,
# seed=7), list(MODES), policy), recorded before the rank profile of each
# kind was shared between ranks, kernels and the final fit.
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


@pytest.mark.parametrize("policy", ["fixed", "aic", "cv"])
def test_failed_sem_fit_records_nan_for_both_modes(monkeypatch, policy):
    original = sem.whiten_sem

    def nan_spectrum(x, f, weights):
        moments = original(x, f, weights)
        return dataclasses.replace(moments, spectrum=np.full_like(moments.spectrum, np.nan))

    # Only the SEM fitter's lag guard fails; the data are still drawn.
    monkeypatch.setattr(sem, "whiten_sem", nan_spectrum)
    with pytest.raises(SingularFilterError):
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


def test_sscm_errors_use_the_symmetric_root():
    # oracle: the symmetric square roots of the column covariance and of
    # exp(-decay * distance), so samples do not depend on how fits factor H
    def sym_root(m):
        vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
        return (vecs * vals**0.5) @ vecs.T

    rng = np.random.default_rng(11)
    coords = Coordinates(rng.uniform(size=(40, 2)))
    a = rng.standard_normal((3, 3))
    noise_cov = a @ a.T + np.eye(3)
    z = np.random.default_rng(5).standard_normal((40, 3)) @ sym_root(noise_cov).T
    want = sym_root(np.exp(-2.0 * pairwise_distances(coords).dist)) @ z
    got = draw_spatial_errors(coords, "sscm", 2.0, noise_cov, 5)
    np.testing.assert_array_equal(got, want)
    with pytest.raises(NonPositiveDecayError):
        draw_spatial_errors(coords, "sscm", 0.0, noise_cov, 5)
