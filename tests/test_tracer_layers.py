"""The benchmark still runs against the package's public API.

``bench/spans.py`` wraps ``module.function`` for each entry of its ``LAYERS``;
a renamed function there would otherwise show only when a traced benchmark runs.
``bench/selftest.py --checks`` drives the fitters, the profile and the predictor
through the benchmark's own checks, so a removed name or argument fails here too.  A model's
whitening span covers the factorisations that whitening takes.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spatialsdr.basis import BasisSpec
from spatialsdr.dimension import rank_fits
from spatialsdr.simulate import SimConfig, simulate_sample

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def load_spans(monkeypatch):
    """``bench/spans.py`` loaded by path, writing no bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_and_is_callable(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = [
        f"{mod}.{name}"
        for mod, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"spatialsdr.{mod}"), name, None))
    ]
    assert missing == []
    assert set(spans.DISTINCT) <= set(spans.TRACED)


def test_benchmark_checks_pass_their_self_test():
    # one process, one BLAS thread, no bytecode written next to the benchmark
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py"), "--checks"],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]


@pytest.mark.parametrize("kind, module, name", [("sscm", "geometry", "cholesky_in_place"),
                                                ("sem", "sem", "eigvalsh_in_place")])
def test_a_whitening_span_covers_its_factors(monkeypatch, kind, module, name):
    # a whitening that returned a generator would be timed at its creation alone: its factors,
    # taken while the profile drains it, would fall outside its span
    spans = load_spans(monkeypatch)
    for layer in spans.LAYERS:
        importlib.import_module(f"spatialsdr.{layer}")
    home, stamps = importlib.import_module(f"spatialsdr.{module}"), []
    original = getattr(home, name)
    monkeypatch.setattr(home, name, lambda *args: stamps.append(time.perf_counter()) or original(*args))
    sample = simulate_sample(SimConfig(n=60, p=4, seed=3), 0)
    with spans.Tracer().installed() as tracer:
        rank_fits(sample, kind, BasisSpec("polynomial", 2), [1])
    whitening = [(t0, t1) for _, _, _, span, t0, t1, _ in tracer.spans if span == f"{kind}.whiten_{kind}"]
    assert len(whitening) == 1 and stamps
    assert [t for t in stamps if whitening[0][0] <= t <= whitening[0][1]] == stamps
