"""End-to-end benchmark of the spatialsdr replication loop.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sem-fixed --seed 1 --seconds 25 --trace 0

Each workload replicates the paper's protocol (``simulate.run_experiment``
at ``SimConfig()`` defaults) as a closed loop in one process: one
replication is started only after the previous one has finished, with
``workers=1`` and one BLAS thread.  Replication ``i`` uses the harness seed
``1000 * seed + i``.  After the timed loop the outputs are checked by
``checks.py`` on samples regenerated from the same seeds.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop with every layer's public functions wrapped and prints the per-layer
metrics instead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: with workers=1 the process
# computes on one core, and the two-worker check stays within two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# model that generates the data, rank policy, and the reduction kinds run
# with both the one- and two-kernel predictor.
WORKLOADS = {
    "sem-fixed": ("sem", "fixed", ("FULL", "Ind", "SSCM", "SEM")),
    "sscm-aic": ("sscm", "aic", ("FULL", "Ind", "SSCM")),
    "sem-cv": ("sem", "cv", ("FULL", "Ind", "SSCM", "SEM")),
}


def methods_of(workload: str) -> list[str]:
    return [f"{k}.{kind}" for kind in WORKLOADS[workload][2] for k in ("1k", "2k")]


def import_program() -> None:
    """Put the checkout's ``src`` on the path and load every layer."""
    require_sources()
    sys.path.insert(0, str(ROOT / "src"))
    import spatialsdr.dimension  # noqa: F401  (imported lazily by simulate)
    import spatialsdr.simulate  # noqa: F401


def require_sources() -> None:
    """Exit with an error, before any measurement, when the program's
    sources are not in the checkout."""
    if not (ROOT / "src" / "spatialsdr" / "simulate.py").is_file():
        sys.exit(f"no spatialsdr sources under {ROOT / 'src'}")


def warm_up(workload: str) -> None:
    """One small replication through the workload's code paths."""
    from spatialsdr.simulate import SimConfig, run_experiment

    model, policy, _ = WORKLOADS[workload]
    cfg = SimConfig(n=60, p=4, model=model, reps=1, seed=0)
    run_experiment(cfg, methods_of(workload), policy, workers=1)


def measure_setup(workload: str) -> float:
    """Median over fresh processes of the time from process start until
    imports and warm-up are done."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or proc.returncode != 0:
            sys.exit(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(times)


def rep_config(workload: str, seed: int, i: int):
    from spatialsdr.simulate import SimConfig

    return SimConfig(model=WORKLOADS[workload][0], reps=1, seed=1000 * seed + i)


def timed_loop(workload: str, seed: int, seconds: float, tracer=None):
    """Replications back to back until ``seconds`` have passed; returns the
    reports, the wall time of each, and the total elapsed time."""
    from spatialsdr.simulate import run_experiment

    _, policy, _ = WORKLOADS[workload]
    methods = methods_of(workload)
    reports, times = [], []
    start = time.perf_counter()
    while True:
        i = len(reports)
        cfg = rep_config(workload, seed, i)
        if tracer is not None:
            tracer.rep = i
        t0 = time.perf_counter()
        reports.append(run_experiment(cfg, methods, policy, workers=1))
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return reports, times, time.perf_counter() - start


def failed_rep(report) -> bool:
    """The harness records a failed mode as a NaN MSE."""
    return any(math.isnan(v) for vals in report.mse.values() for v in vals)


def regenerate(cfg, rep: int):
    """The train/test split of replication ``rep``, drawn from its seed in
    the order the harness draws it."""
    from spatialsdr.data import SpatialSample, train_test_split
    from spatialsdr.simulate import GrfSpec, rep_rng, sample_locations, simulate_x, simulate_y

    rng = rep_rng(cfg.seed, rep)
    coords = sample_locations(cfg.n, rng, grid=cfg.grid_locations)
    y = simulate_y(coords, GrfSpec(), rng)
    x = simulate_x(y, coords, cfg, rng)
    return train_test_split(SpatialSample(coords, x, y), cfg.train_frac, rng)


def verify(workload: str, reports) -> list[str]:
    """Run every check that applies to the workload; returns failures.

    Failed replications are counted in ``failed`` and not checked."""
    import checks
    import numpy as np
    from spatialsdr.basis import BasisSpec
    from spatialsdr.dimension import loglik_profile
    from spatialsdr.pfc import fit_independent
    from spatialsdr.predictor import PredictorConfig, build_reference, loocv_bandwidths, predict_many
    from spatialsdr.sem import fit_sem
    from spatialsdr.simulate import run_experiment
    from spatialsdr.sscm import fit_sscm

    _, policy, kinds = WORKLOADS[workload]
    methods = methods_of(workload)
    failures = []

    def attempt(label, func, *args):
        try:
            func(*args)
        except Exception as exc:  # a crash in a check or the program is a failure
            failures.append(f"{label}: {type(exc).__name__}: {exc}")

    done = [report for report in reports if not failed_rep(report)]
    for report in done:
        cfg = report.config
        attempt("mse", checks.check_mse, report)
        attempt("rank", checks.check_ranks, report, policy, cfg.d, cfg.p, cfg.r)
    if not done:
        return failures

    # The first completed replication, drawn again from its seed.
    report = done[0]
    cfg = report.config
    train, test = regenerate(cfg, 0)
    pts, r = train.coords.points, cfg.r
    spec = BasisSpec("polynomial", r)
    fitters = {"ind": fit_independent, "sscm": fit_sscm, "sem": fit_sem}
    fits = {}

    def fit_at(kind, rank):
        if (kind, rank) not in fits:
            fits[(kind, rank)] = fitters[kind](train, spec, rank)
        return fits[(kind, rank)]

    def check_kind(kind):
        chosen = {report.d_selected[f"{k}.{kind}"][0] for k in ("1k", "2k")}
        kind = kind.lower()
        for rank in sorted(chosen | {r}):
            checks.check_argmax(fit_at(kind, rank), pts)
            checks.check_loglik(fit_at(kind, rank), train.x, train.y, pts, r)
        checks.check_gls(fit_at(kind, r), train.x, train.y, pts, r)
        if policy == "aic":
            lls = loglik_profile(train, kind, spec)
            checks.check_profile(lls, kind, train.x, train.y, pts, r)
            for rank in chosen:
                checks.check_aic(lls, cfg.p, r, rank)

    def check_mode(mode):
        kind = mode.split(".")[1]
        fit = None if kind == "FULL" else fit_at(kind.lower(), report.d_selected[mode][0])
        ref = build_reference(mode, train, fit)
        h1, h2 = loocv_bandwidths(ref, PredictorConfig(mode=mode))
        checks.check_loo(fit, train, h1, h2)
        yhat, _ = predict_many(test.x, test.coords.points, ref, PredictorConfig(mode, h1, h2), fit)
        checks.check_predict(yhat, fit, train, test, h1, h2)
        checks.check_replay(float(np.mean((yhat - test.y) ** 2)), report.mse[mode][0])

    for kind in kinds:
        if kind != "FULL":
            attempt(f"fits {kind}", check_kind, kind)
    for mode in methods:
        attempt(f"predict {mode}", check_mode, mode)

    def check_workers():
        small = dataclasses.replace(cfg, n=60, p=4, reps=2)
        serial = run_experiment(small, methods, policy, workers=1)
        threaded = run_experiment(small, methods, policy, workers=2)
        checks.check_same_report(serial, threaded)

    attempt("workers", check_workers)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    require_sources()

    if args.probe:
        import_program()
        warm_up(args.workload)
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    setup_s = None if args.trace else measure_setup(args.workload)
    import_program()
    warm_up(args.workload)

    if args.trace:
        from spans import Tracer, metric_names

        tracer = Tracer()
        with tracer.installed():
            reports, times, _ = timed_loop(args.workload, args.seed, args.seconds, tracer)
        per_rep = tracer.per_rep_metrics(list(range(len(reports))))
        metrics = {name: {"value": per_rep[name], "unit": unit} for name, unit in metric_names()}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        reports, times, elapsed = timed_loop(args.workload, args.seed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "reps_per_s": {"value": len(reports) / elapsed, "unit": "1/s"},
            "rep_s.p50": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    t_check = time.perf_counter()
    failures = verify(args.workload, reports)
    print(f"checks took {time.perf_counter() - t_check:.1f} s")
    for msg in failures:
        print(f"CHECK FAILED {msg}")
    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed}: {len(reports)} replications, "
          f"{mode} rep_s.p50 {statistics.median(times):.4f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = json.dumps({
        "correct": not failures,
        "attempted": len(reports),
        "failed": sum(failed_rep(rep) for rep in reports),
        "metrics": metrics,
    })
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(result + "\n")
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
