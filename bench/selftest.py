"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py            # corrupted outputs, then every workload once
    python3 bench/selftest.py --checks   # corrupted outputs only

Every check in ``checks.py`` is first given the program's real output, which
it must accept, and then a deliberately wrong one, which it must reject.
Afterwards each workload runs at minimal length (one replication, untraced
and traced) and must report ``correct``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys

import run  # fixes the BLAS thread count before numpy loads

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spatialsdr.basis import BasisSpec  # noqa: E402
from spatialsdr.dimension import loglik_profile  # noqa: E402
from spatialsdr.pfc import fit_independent  # noqa: E402
from spatialsdr.predictor import PredictorConfig, build_reference, loocv_bandwidths, predict_many  # noqa: E402
from spatialsdr.sem import fit_sem  # noqa: E402
from spatialsdr.simulate import SimConfig, run_experiment  # noqa: E402
from spatialsdr.sscm import fit_sscm  # noqa: E402


def with_ranks(report, rank: int):
    bad = copy.deepcopy(report)
    bad.d_selected["1k.SEM"][0] = rank
    return bad


def with_mse(report, value: float):
    bad = copy.deepcopy(report)
    bad.mse["2k.SSCM"][0] = value
    return bad


def scaled_coef(fit, factor: float):
    return dataclasses.replace(fit, est=dataclasses.replace(fit.est, b=fit.est.b * factor))


def cases():
    """(name, accepted call, rejected call) for every check."""
    cfg = SimConfig(model="sem", seed=7, reps=1)
    train, test = run.regenerate(cfg, 0)
    x, y, pts, r = train.x, train.y, train.coords.points, cfg.r
    spec = BasisSpec("polynomial", r)
    sem2, sem1 = fit_sem(train, spec, 2), fit_sem(train, spec, 1)
    sscm2, ind2 = fit_sscm(train, spec, 2), fit_independent(train, spec, 2)
    grid = [c for c, _ in sem1.grid]
    other = next(c for c in grid if c != sem1.lag_coef)

    small = SimConfig(n=60, p=4, reps=2, seed=3)
    report = run_experiment(small, run.methods_of("sem-fixed"), "fixed", workers=1)
    yield "mse nan", lambda: checks.check_mse(report), lambda: checks.check_mse(with_mse(report, float("nan")))
    yield "mse negative", lambda: checks.check_mse(report), lambda: checks.check_mse(with_mse(report, -0.5))
    ranks = lambda rep, policy: checks.check_ranks(rep, policy, 2, 4, 2)  # noqa: E731
    yield "rank fixed", lambda: ranks(report, "fixed"), lambda: ranks(with_ranks(report, 1), "fixed")
    yield "rank cv", lambda: ranks(with_ranks(report, 1), "cv"), lambda: ranks(with_ranks(report, 0), "cv")
    yield "rank aic", lambda: ranks(with_ranks(report, 0), "aic"), lambda: ranks(with_ranks(report, 3), "aic")

    yield ("argmax sem moved", lambda: checks.check_argmax(sem1, pts),
           lambda: checks.check_argmax(dataclasses.replace(sem1, lag_coef=other), pts))
    yield ("argmax sem off grid", lambda: checks.check_argmax(sem2, pts),
           lambda: checks.check_argmax(dataclasses.replace(sem2, lag_coef=sem2.lag_coef + 0.01), pts))
    yield ("argmax sscm moved", lambda: checks.check_argmax(sscm2, pts),
           lambda: checks.check_argmax(dataclasses.replace(sscm2, decay=sscm2.grid[0][0]), pts))

    for name, fit in (("sem", sem1), ("sscm", sscm2), ("ind", ind2)):
        yield (f"loglik {name} value", lambda f=fit: checks.check_loglik(f, x, y, pts, r),
               lambda f=fit: checks.check_loglik(dataclasses.replace(f, loglik=f.loglik * (1 + 1e-6)), x, y, pts, r))
        yield (f"loglik {name} coefficient", lambda f=fit: checks.check_loglik(f, x, y, pts, r),
               # The fit is stationary in its coefficient, so a small change barely moves it.
               lambda f=fit: checks.check_loglik(scaled_coef(f, 1.01), x, y, pts, r))
    for name, fit in (("sem", sem2), ("sscm", sscm2), ("ind", ind2)):
        yield (f"gls {name} coefficient", lambda f=fit: checks.check_gls(f, x, y, pts, r),
               lambda f=fit: checks.check_gls(scaled_coef(f, 1 + 1e-6), x, y, pts, r))
    shifted = list(sem2.grid)
    shifted[3] = (shifted[3][0], shifted[3][1] + 1e-3)
    yield ("gls sem grid value", lambda: checks.check_gls(sem2, x, y, pts, r),
           lambda: checks.check_gls(dataclasses.replace(sem2, grid=shifted), x, y, pts, r))

    lls = loglik_profile(train, "sscm", spec)
    profile = lambda v: checks.check_profile(v, "sscm", x, y, pts, r)  # noqa: E731
    yield "profile decreasing", lambda: profile(lls), lambda: profile(lls[::-1])
    yield "profile rank 0", lambda: profile(lls), lambda: profile(lls - np.array([1e-3, 0.0, 0.0]))
    yield "profile rank r", lambda: profile(lls), lambda: profile(lls + np.array([0.0, 0.0, 1e-3]))
    crit = [-2 * ll + 2 * (cfg.p * (cfg.p + 3) / 2 + r * d + d * (cfg.p - d)) for d, ll in enumerate(lls)]
    best = int(np.argmin(crit))
    yield ("aic choice", lambda: checks.check_aic(lls, cfg.p, r, best),
           lambda: checks.check_aic(lls, cfg.p, r, (best + 1) % 3))

    for mode, fit in (("2k.SEM", sem1), ("1k.SSCM", sscm2), ("2k.FULL", None)):
        ref = build_reference(mode, train, fit)
        h1, h2 = loocv_bandwidths(ref, PredictorConfig(mode=mode))
        yhat, _ = predict_many(test.x, test.coords.points, ref, PredictorConfig(mode, h1, h2), fit)
        yield (f"predict {mode}", lambda f=fit, v=yhat, a=h1, b=h2: checks.check_predict(v, f, train, test, a, b),
               lambda f=fit, v=yhat, a=h1, b=h2: checks.check_predict(v * (1 + 1e-6), f, train, test, a, b))
        pts_ref = train.x if fit is None else checks.reduce(fit, train.x)
        g1 = checks.bandwidth_grid(pts_ref)
        errs = checks.loo_errors(pts_ref, train.coords.points, train.y, g1, [h2])
        worst = float(g1[int(np.argmax(errs[:, 0]))])
        yield (f"loo {mode} worst h1", lambda f=fit, a=h1, b=h2: checks.check_loo(f, train, a, b),
               lambda f=fit, w=worst, b=h2: checks.check_loo(f, train, w, b))
        if h2 is not None:
            yield (f"loo {mode} swapped", lambda f=fit, a=h1, b=h2: checks.check_loo(f, train, a, b),
                   lambda f=fit, a=h1, b=h2: checks.check_loo(f, train, b, a))
        mse = float(np.mean((yhat - test.y) ** 2))
        yield (f"replay {mode}", lambda m=mse: checks.check_replay(m, m),
               lambda m=mse: checks.check_replay(m * (1 + 1e-9), m))

    nudged = copy.deepcopy(report)
    nudged.mse["1k.Ind"][1] = float(np.nextafter(nudged.mse["1k.Ind"][1], np.inf))
    yield ("workers one ulp", lambda: checks.check_same_report(report, copy.deepcopy(report)),
           lambda: checks.check_same_report(report, nudged))


def check_cases() -> int:
    bad = 0
    for name, good, wrong in cases():
        try:
            good()
        except checks.CheckFailed as exc:
            print(f"FAIL {name}: rejected the program's output ({exc})")
            bad += 1
            continue
        try:
            wrong()
        except checks.CheckFailed as exc:
            print(f"ok   {name}: rejected ({exc})")
        else:
            print(f"FAIL {name}: accepted a wrong output")
            bad += 1
    return bad


def quick_workloads() -> int:
    bad = 0
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            out = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "0", "--trace", trace],
                capture_output=True, text=True, check=False, timeout=180,
            )
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
            ok = result.get("correct") is True and result.get("failed") == 0
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace {trace}: "
                  f"{result.get('attempted')} replication(s), {len(result.get('metrics', {}))} metrics")
            if not ok:
                print(out.stdout[-2000:], out.stderr[-2000:])
            bad += not ok
    return bad


if __name__ == "__main__":
    failures = check_cases()
    if "--checks" not in sys.argv[1:]:
        failures += quick_workloads()
    print("self-test", "passed" if failures == 0 else f"failed ({failures})")
    sys.exit(1 if failures else 0)
