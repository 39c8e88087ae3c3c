"""Re-record ``golden_reports.json``, the reports ``test_golden_reports`` compares.

Usage, from the root of a source checkout:

    PYTHONPATH=src python tests/data/record_golden.py

Each report is ``run_experiment(SimConfig(n=60, p=4, reps=2, seed=7,
model=m), list(MODES), policy)`` for both models and every rank policy.  The
MSEs are compared at rtol 1e-10 after argmax decisions, so the numpy and
scipy versions that recorded them are written into the ``config`` block.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy

from spatialsdr.dimension import POLICIES
from spatialsdr.predictor import MODES
from spatialsdr.simulate import SimConfig, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
CONFIG = dict(n=60, p=4, reps=2, seed=7)


def record() -> dict:
    reports = {}
    for model in ("sscm", "sem"):
        for policy in POLICIES:
            report = run_experiment(SimConfig(model=model, **CONFIG), list(MODES), policy)
            reports[f"{model}-{policy}"] = {
                "mse": report.mse,
                "d_selected": report.d_selected,
                "unstable": report.unstable,
            }
    config = {**CONFIG, "methods": "all MODES", "numpy": np.__version__, "scipy": scipy.__version__}
    return {"config": config, "reports": reports}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1))
