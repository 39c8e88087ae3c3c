"""The replication harness: golden reports, threading, failures, sampling."""

import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spatialsdr import _linalg, geometry, predictor, sem, simulate, sscm
from spatialsdr._linalg import _jittered, _openblas_threads
from spatialsdr.basis import BasisSpec
from spatialsdr.data import train_test_split
from spatialsdr.dimension import POLICIES
from spatialsdr.exceptions import InputError, NonPositiveDecayError, SingularFilterError
from spatialsdr.exceptions import SingularFeatureCovError
from spatialsdr.geometry import Coordinates, max_min_distance, neighbor_weights, pairwise_distances
from spatialsdr.predictor import MODES
from spatialsdr.rrr import SdrFit
from spatialsdr.simulate import (
    GrfSpec,
    SimConfig,
    _draw_sample,
    draw_spatial_errors,
    filter_cond_bound,
    rep_rng,
    run_experiment,
    sample_locations,
    simulate_sample,
    simulate_x,
    simulate_y,
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


def zeroed_features(original):
    """``whiten_sem`` whose moments have every feature row and column zeroed, so that
    ``S_ff`` is 0 at every lag and ``ls_fits`` raises for the whole profile."""

    def whiten(x, f, weights, coefs):
        for moments in original(x, f, weights, coefs):
            m = moments.m.copy()
            m[x.shape[1] + 1 :] = m[:, x.shape[1] + 1 :] = 0.0
            yield dataclasses.replace(moments, m=m)

    return whiten


# Each fault under each policy; folds and the test split isolate both alike.
SEM_FAULTS = [
    pytest.param(policy, fault, error, id=policy + suffix)
    for fault, error, suffix in [
        (nan_lags, SingularFilterError, ""),
        (linalg_failure, np.linalg.LinAlgError, "-linalg"),
        (zeroed_features, SingularFeatureCovError, "-singular-features"),
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

    def counted(refs, *args, **kwargs):
        calls.append((refs, original(refs, *args, **kwargs)))
        return calls[-1][1]

    # Replace every module-level binding, wherever the engine is looked up.
    for name, mod in list(sys.modules.items()):
        if name.startswith("spatialsdr") and getattr(mod, "loo_search", None) is original:
            monkeypatch.setattr(mod, "loo_search", counted)
    report = run_experiment(SimConfig(n=60, p=4, reps=1), list(MODES), "cv")
    assert all(np.isfinite(report.mse[m][0]) for m in MODES)
    assert len(calls) == 5 + 1
    # each pass scales its own h2 grid: bit for bit the default grid of its coordinates
    for refs, searches in calls:
        want = predictor.default_bandwidth_grid(refs[0].coords.points)
        assert searches and all(isinstance(s, predictor.LooSearch) for s in searches)
        assert all(s.h2_grid.tobytes() == want.tobytes() for s in searches)


@pytest.mark.parametrize(
    "model, field, value",
    [("sem", "lag_coef", v) for v in (1.5, -3.0, 1.0, -1.0, np.nan, np.inf)]
    + [("sscm", "decay", v) for v in (0.0, -0.5, np.nan, np.inf)]
    + [(model, field, v) for model in ("sscm", "sem")
       for field, v in (("d", -1), ("p", 0), ("r", 0))],
)
def test_config_rejects_a_parameter_outside_its_model(model, field, value):
    # d = 0 lies in 0..min(r, p) for any p and r, so p and r are checked on their own
    kwargs = {"p": 4, "d": 0 if field in ("p", "r") else 2, field: value}
    with pytest.raises(InputError, match=rf"\b{field}\b"):
        SimConfig(n=60, reps=2, seed=7, model=model, **kwargs)
    if field in ("decay", "lag_coef"):
        # the other model's parameter is not used, so it is not checked
        other = "sscm" if model == "sem" else "sem"
        assert getattr(SimConfig(model=other, **{field: value}), field) is value


@pytest.mark.parametrize("model", ["sscm", "sem"])
def test_rank_zero_config_runs(model):
    # d = 0 is a valid true rank: the data carry no mean signal, and every mode still predicts
    report = run_experiment(SimConfig(n=60, p=4, reps=1, d=0, seed=7, model=model), list(MODES))
    assert all(np.isfinite(report.mse[m][0]) for m in MODES)
    assert all(report.d_selected[m] == [0] for m in MODES)


@pytest.mark.parametrize("n, train_frac, sizes", [(60, 0.99, (58, 2)), (60, 0.01, (2, 58)),
                                                  (4, 0.7, (2, 2)), (400, 0.7, (280, 120))])
def test_split_leaves_two_points_a_side(n, train_frac, sizes):
    # Coordinates needs two locations, so each side keeps two, and the paper's split is unchanged
    sample = _draw_sample(SimConfig(n=n, p=2, reps=1), np.random.default_rng(0))
    train, test = train_test_split(sample, train_frac, np.random.default_rng(1))
    assert (train.n, test.n) == sizes
    assert sorted(map(tuple, np.vstack([train.x, test.x]))) == sorted(map(tuple, sample.x))


def test_a_config_that_rounds_to_one_test_point_runs():
    report = run_experiment(SimConfig(n=60, p=4, reps=1, seed=7, train_frac=0.99), ["2k.FULL"])
    assert np.isfinite(report.mse["2k.FULL"][0])


def test_cv_folds_of_one_point_fail_the_cv_modes_only():
    # a training split of 8 gives folds of one or two points: each cv mode
    # records the failure; at n = 16 (folds of two or three) cv still selects
    report = run_experiment(SimConfig(n=12, p=3, reps=1, seed=0), ["1k.Ind", "2k.SEM", "2k.FULL"], "cv")
    assert all(np.isnan(report.mse[m][0]) and report.d_selected[m] == [-1] for m in ("1k.Ind", "2k.SEM"))
    assert np.isfinite(report.mse["2k.FULL"][0])
    report = run_experiment(SimConfig(n=16, p=3, reps=1, seed=0), ["1k.Ind", "2k.SEM"], "cv")
    assert all(np.isfinite(report.mse[m][0]) and report.d_selected[m] == [1] for m in report.methods)


@pytest.mark.parametrize("n", [2, 3])
def test_split_rejects_a_sample_too_small_to_split(n):
    sample = _draw_sample(SimConfig(n=4, p=1, d=1), np.random.default_rng(0)).subset(np.arange(n))
    with pytest.raises(InputError, match=f"n={n}"):
        train_test_split(sample, 0.5, np.random.default_rng(1))


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
    # the errors' draw computes the one distance matrix and frees it, so the
    # sample caches none; the response's covariogram takes its distances row
    # block by row block; oracle: the same draws made on fresh locations
    cfg = SimConfig(n=50, p=3, model=model, seed=2)
    rng = rep_rng(cfg.seed, 1)
    coords = sample_locations(cfg.n, rng, grid=cfg.grid_locations)
    y = simulate_y(Coordinates(coords.points.copy()), GrfSpec(), rng)
    x = simulate_x(y, Coordinates(coords.points.copy()), cfg, rng)
    calls = []

    def counted(points):
        calls.append(points)
        return pairwise_distances(points)

    monkeypatch.setattr(simulate, "pairwise_distances", counted)
    monkeypatch.setattr(geometry, "pairwise_distances", counted)
    drawn = _draw_sample(cfg, rep_rng(cfg.seed, 1))
    assert len(calls) == 1 and calls[0] is drawn.coords
    assert "distances" not in vars(drawn.coords)
    np.testing.assert_array_equal(drawn.y, y)
    np.testing.assert_array_equal(drawn.x, x)


def traced_peak_of_a_default_draw(model: str) -> float:
    """tracemalloc's peak over ``simulate_sample(SimConfig(model=model), 0)``, in n x n matrices.
    One draw first, since numpy loads numpy.random on first use, and that import alone adds
    about 0.59 n^2 to a process's first traced draw."""
    n = SimConfig().n
    rep_rng(0, 0).standard_normal()
    tracemalloc.start()
    try:
        simulate_sample(SimConfig(model=model), 0)
        return tracemalloc.get_traced_memory()[1] / (n * n * 8)
    finally:
        tracemalloc.stop()


def test_a_default_sscm_draw_peaks_within_2_2_matrices():
    # the errors' correlations, factored in the distances' buffer, and the root
    # copied out of them for the n x 24 product: 2.15 n^2 doubles
    assert traced_peak_of_a_default_draw("sscm") <= 2.2


def test_a_default_sem_draw_peaks_within_1_45_matrices():
    # one n x n matrix at a time: the covariogram, whose root multiplies the
    # response's normals by row blocks, then the distances, in whose buffer the
    # filter is solved; 1.40 n^2 doubles, where a copied-out root read 2.03
    assert traced_peak_of_a_default_draw("sem") <= 1.45


@pytest.mark.parametrize("model", ["sscm", "sem"])
@pytest.mark.parametrize("policy", ["fixed", "aic", "cv"])
def test_reports_are_the_same_with_numpys_own_factors(monkeypatch, model, policy):
    # the in-place LAPACK path and numpy's copying calls give the same bits, with
    # every routine forced off and with dsyevd alone, the SEM spectrum's, forced off
    cfg = SimConfig(n=100, p=4, reps=2, model=model)
    in_place = run_experiment(cfg, list(MODES), policy)
    dpotrf, dgesv, _ = _linalg._lapack()
    monkeypatch.setattr(_linalg, "_lapack", lambda: (dpotrf, dgesv, None))
    no_dsyevd = run_experiment(cfg, list(MODES), policy)
    monkeypatch.setattr(_linalg, "_lapack", lambda: (None, None, None))
    copied = run_experiment(cfg, list(MODES), policy)
    assert repr(in_place) == repr(no_dsyevd) == repr(copied)


def run_script(code: str, **env: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on the package's sources."""
    env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_the_package_loads_no_scipy_under_any_policy():
    # numpy alone: scipy.linalg would add about 28 MB of resident memory and a
    # second OpenBLAS; checked after the imports and again after one small
    # replication of each model under every rank policy
    code = (
        "import sys\n"
        "import spatialsdr.dimension, spatialsdr.simulate as s\n"
        "from spatialsdr.predictor import MODES\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy())\n"
        "for model in ('sscm', 'sem'):\n"
        "    for policy in s.POLICIES:\n"
        "        s.run_experiment(s.SimConfig(n=60, p=4, reps=1, model=model), list(MODES), policy)\n"
        "print(scipy())\n"
    )
    assert run_script(code).split("\n") == ["[]", "[]", ""]


def test_a_serial_run_loads_no_pool():
    # importing the thread pool adds about 0.3 MB of resident memory, and logging
    # with it; a process pool would bring multiprocessing, about 1.0 MB more
    code = (
        "import sys\n"
        "import spatialsdr.dimension, spatialsdr.simulate as s\n"
        "from spatialsdr.predictor import MODES\n"
        "for model in ('sscm', 'sem'):\n"
        "    for policy in s.POLICIES:\n"
        "        s.run_experiment(s.SimConfig(n=60, p=4, reps=1, model=model), list(MODES), policy, workers=1)\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'logging') if m in sys.modules))\n"
    )
    assert run_script(code) == "[]\n"


# The rise of VmHWM over each stage of a default replication, cumulative from
# the end of a small warm-up draw, in MB: 2.8, 3.4 and 3.85 on x86-64 with
# numpy 2.4.6's OpenBLAS, and 3.5, 4.2 and 4.75 when the response's root was
# copied out whole, the SEM spectrum took three n x n temporaries and the SSCM
# certificate its own copy.
PEAK_STAGES = {"draw": 3.2, "sem-profile": 3.85, "sscm-profile": 4.35}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
@pytest.mark.parametrize("stage", list(PEAK_STAGES))
def test_resident_peak_over_a_replications_stages(stage):
    # a fresh process on one BLAS thread, its heap kept as run_experiment keeps it,
    # so VmHWM sees what tracemalloc cannot: numpy's LAPACK copies and the heap's
    # fragmentation; each reading counts from the same warm-up draw, since a lower
    # draw leaves the next stage a larger step
    code = (
        "import spatialsdr.simulate as s\n"
        "from spatialsdr.dimension import _fit_kinds\n"
        "from spatialsdr._linalg import keep_heap\n"
        "from spatialsdr.basis import BasisSpec\n"
        "from spatialsdr.data import train_test_split\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return [int(line.split()[1]) / 1024 for line in status if line.startswith('VmHWM:')]\n"
        "keep_heap()\n"
        "s.simulate_sample(s.SimConfig(n=60, p=4), 0)\n"
        "base, cfg = hwm(), s.SimConfig()\n"
        "rng = s.rep_rng(cfg.seed, 0)\n"
        "sample = s._draw_sample(cfg, rng)\n"
        f"if {stage!r} != 'draw':\n"
        "    train, spec = train_test_split(sample, cfg.train_frac, rng)[0], BasisSpec('polynomial', cfg.r)\n"
        f"    kinds = ('sem', 'sscm') if {stage!r} == 'sscm-profile' else ('sem',)\n"
        # the fit stage profiles SEM, then SSCM, on the one distance matrix it computes
        "    fits = _fit_kinds(train, spec, {(kind, cfg.d) for kind in kinds})\n"
        "    assert not any(isinstance(fit, Exception) for fit in fits.values()), fits\n"
        "print(*(after - before for before, after in zip(base, hwm())))\n"
    )
    rise = run_script(code, OPENBLAS_NUM_THREADS="1").split()
    if not rise:
        pytest.skip("no VmHWM in /proc/self/status")
    assert float(rise[0]) <= PEAK_STAGES[stage]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
def test_run_experiment_keeps_the_heap_and_importing_does_not():
    # importing looks up no mallopt, and the first call sets both thresholds once;
    # a call then reuses the heap pages the last one faulted in: 470-910 minor
    # faults per call without the thresholds, 0-2 with them
    code = (
        "import ctypes, resource\n"
        "seen = []\n"
        "class Spy(ctypes.CDLL):\n"
        "    def __getitem__(self, name):\n"
        "        seen.append(name)\n"
        "        return super().__getitem__(name)\n"
        "ctypes.CDLL = Spy\n"
        "import spatialsdr.dimension, spatialsdr.simulate as s\n"
        "from spatialsdr.predictor import MODES\n"
        "print(seen.count('mallopt'))\n"
        "cfg = s.SimConfig(n=200, p=4, reps=1)\n"
        "for _ in range(2):\n"
        "    s.run_experiment(cfg, list(MODES), 'fixed')\n"
        "for _ in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    s.run_experiment(cfg, list(MODES), 'fixed')\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(seen.count('mallopt'))\n"
    )
    counts = [int(line) for line in run_script(code).split()]
    assert counts[0] == 0 and counts[-1] == 1
    assert all(faults < 100 for faults in counts[1:-1]), counts


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy loaded no OpenBLAS")
def test_reports_do_not_depend_on_the_blas_thread_count():
    # oracle: the report at OPENBLAS_NUM_THREADS=1; at 2 or more threads a
    # SEM-data replication at n = 100 moved its MSEs in the last digits; the
    # count set before the call reads the same after it
    code = (
        "import spatialsdr.simulate as s\n"
        "from spatialsdr._linalg import _openblas_threads\n"
        "from spatialsdr.predictor import MODES\n"
        "get = _openblas_threads()[0]\n"
        "before = get()\n"
        "r = s.run_experiment(s.SimConfig(n=100, p=4, reps=1), list(MODES), 'fixed')\n"
        "print(before, get())\n"
        "print(repr((r.mse, r.d_selected)))\n"
    )
    one, four = (run_script(code, OPENBLAS_NUM_THREADS=t).split("\n", 1) for t in ("1", "4"))
    before, after = four[0].split()
    assert one[0] == "1 1" and before == after
    assert four[1] == one[1]


def test_sscm_errors_use_the_cholesky_roots():
    # oracle: numpy's lower Cholesky factors of exp(-decay * distance) and of
    # the column covariance
    rng = np.random.default_rng(11)
    coords = Coordinates(rng.uniform(size=(40, 2)))
    a = rng.standard_normal((3, 3))
    noise_cov = a @ a.T + np.eye(3)
    z = np.random.default_rng(5).standard_normal((40, 3))
    h = np.exp(-2.0 * pairwise_distances(coords))
    want = np.linalg.cholesky(h) @ (z @ np.linalg.cholesky(noise_cov).T)
    before = noise_cov.copy()
    got = draw_spatial_errors(coords, "sscm", 2.0, noise_cov, 5)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(noise_cov, before)
    with pytest.raises(NonPositiveDecayError):
        draw_spatial_errors(coords, "sscm", 0.0, noise_cov, 5)


def sem_draw_inputs(n=120, k=3):
    """Locations, a noise covariance and the draw's ``Z L_noise'`` for seed 5."""
    rng = np.random.default_rng(21)
    coords = Coordinates(rng.uniform(size=(n, 2)))
    a = rng.standard_normal((k, k))
    noise_cov = a @ a.T + np.eye(k)
    z = np.random.default_rng(5).standard_normal((n, k)) @ np.linalg.cholesky(noise_cov).T
    return coords, noise_cov, z


@pytest.mark.parametrize("lag", [-0.95, -0.5, 0.8, 0.95])
def test_sem_errors_solve_the_filter(lag):
    # oracle: an LU solve with I - lag * W, W the column-normalised threshold weights
    coords, noise_cov, z = sem_draw_inputs()
    dist = pairwise_distances(coords)
    w = neighbor_weights(dist, max_min_distance(dist))
    want = np.linalg.solve(np.eye(coords.n) - lag * w, z)
    got = draw_spatial_errors(coords, "sem", lag, noise_cov, 5)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sem_errors_at_lag_zero_are_the_noise_itself():
    coords, noise_cov, z = sem_draw_inputs()
    for lag in (0.0, -0.0):
        np.testing.assert_array_equal(draw_spatial_errors(coords, "sem", lag, noise_cov, 5), z)


@pytest.mark.parametrize(
    "model, param, error",
    [("sem", v, InputError) for v in (1.5, -3.0, 1.0, -1.0, np.nan, np.inf)]
    + [("sscm", np.inf, InputError), ("sscm", 0.0, NonPositiveDecayError)]
    + [("sscm", v, NonPositiveDecayError) for v in (-0.5, np.nan, -np.inf)]
    + [("car", 0.5, InputError)],
)
def test_draw_rejects_a_parameter_outside_its_law(model, param, error):
    # as SimConfig does: a lag in (-1, 1), a finite decay > 0, and a known model
    coords, noise_cov, _ = sem_draw_inputs(n=30)
    with pytest.raises(error) as info:
        draw_spatial_errors(coords, model, param, noise_cov, 5)
    assert error is NonPositiveDecayError or not isinstance(info.value, NonPositiveDecayError)


@pytest.mark.parametrize("lag", [1.0 - 1e-14, 1.0 - 2.0**-53])
def test_sem_filter_next_to_one_is_singular(lag):
    # inside (-1, 1), but cond(D - lag * A) ~ 1 / (1 - lag) passes sem.COND_LIMIT
    coords, noise_cov, _ = sem_draw_inputs(n=100)
    with pytest.raises(SingularFilterError, match="numerically singular"):
        draw_spatial_errors(coords, "sem", lag, noise_cov, 5)
    assert np.isfinite(draw_spatial_errors(coords, "sem", 1.0 - 1e-12, noise_cov, 5)).all()


@pytest.mark.parametrize("seed", [1, 2])
def test_filter_cond_bound_holds_on_threshold_graphs(seed):
    # oracle: numpy's 2-norm condition number of D - lag * A, for the threshold
    # adjacency A at max_min_distance of locations from sample_locations
    coords = sample_locations(150, seed)
    dist = pairwise_distances(coords)
    adj = (dist <= max_min_distance(dist)).astype(float)
    np.fill_diagonal(adj, 0.0)
    deg = adj.sum(axis=0)
    for lag in (-0.95, -0.5, 0.5, 0.95, 1.0 - 1e-12):
        cond = np.linalg.cond(np.diag(deg) - lag * adj)
        assert filter_cond_bound(deg, lag) >= cond


def test_sample_roots_factor_their_covariances(monkeypatch):
    # the spherical covariogram, the noise covariance and exp(-decay * distance)
    # of an sscm sample: numpy's factor of the first times the response's normals,
    # and each other rebuilt by its root to 1e-12 of its largest entry
    cfg = SimConfig(n=60, model="sscm", seed=7)
    calls, original = [], simulate.draw_root

    def spy(build, err, *z):
        built = []

        def copied():  # the root is factored in the built buffer: keep a copy
            m = build()
            built.append(m.copy())
            return m

        got = original(copied, err, *z)
        calls.append((built[0], got, *z))
        return got

    monkeypatch.setattr(simulate, "draw_root", spy)
    sample = simulate_sample(cfg, 0)
    dist = pairwise_distances(sample.coords)
    grf = GrfSpec()
    spherical, noise, corr = (m for m, *_ in calls)
    h = dist / grf.range_
    covariogram = np.where(h < 1.0, grf.sill * (1.0 - 1.5 * h + 0.5 * h**3), 0.0)
    np.testing.assert_array_equal(spherical, covariogram)
    assert noise.shape == (cfg.p, cfg.p)
    np.testing.assert_array_equal(corr, np.exp(-cfg.decay * dist))
    (_, noise_part, z), *roots = calls  # the response's root comes times its normals
    np.testing.assert_array_equal(noise_part, np.linalg.cholesky(spherical) @ z)
    for m, chol in roots:
        np.testing.assert_array_equal(chol, np.linalg.cholesky(m))  # unjittered
        np.testing.assert_array_equal(chol, np.tril(chol))
        assert np.abs(chol @ chol.T - m).max() <= 1e-12 * np.abs(m).max()


def symmetric_root(build, err, z=None):
    """The symmetric square root of ``build()`` under the shared PD policy, or that root times
    ``z``: the oracle sampler."""
    vals, vecs = np.linalg.eigh(_jittered(build(), err))
    root = (vecs * vals**0.5) @ vecs.T
    return root if z is None else root @ z


def mse_z_scores(cfg: SimConfig) -> dict[str, float]:
    """Per mode, the difference of mean test MSE at fixed rank between the
    Cholesky sampler and the symmetric root, in combined standard errors.

    A larger run, from the root of a source checkout:
    ``PYTHONPATH=src:tests python -c "from test_simulate import *;
    print(mse_z_scores(SimConfig(n=100, p=6, reps=300, seed=11, model='sem')))"``
    """
    reports = [run_experiment(cfg, list(MODES), "fixed")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "draw_root", symmetric_root)
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
