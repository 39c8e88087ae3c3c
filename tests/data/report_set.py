"""Dump the report set, or compare two dumps of it.

Usage, from the root of a source checkout:

    PYTHONPATH=src python tests/data/report_set.py dump OUT.json
    python tests/data/report_set.py compare BEFORE.json AFTER.json

The set is ``run_experiment(SimConfig(model=model, reps=2), list(MODES), policy)`` for both data
models (``sscm``, ``sem``) and every rank policy: the paper's default size, every predictor mode.
Where ``tests/data/fit_set.py`` sees the fits alone, this sees what is predicted from them.  A dump
records each replication's MSE by ``repr`` and its selected rank; it calls only
``run_experiment``, ``SimConfig``, ``POLICIES`` and ``MODES``, so one script can dump two source
trees in turn.  A comparison prints how many MSEs are identical and the largest relative move; it
exits 1 on any change in a selected rank or in which MSEs are NaN, or on an MSE move above
``RTOL``, the golden reports' tolerance.
"""

from __future__ import annotations

import json
import math
import sys

MODELS = ("sscm", "sem")
REPS = 2
RTOL = 1e-10


def dump() -> dict:
    from spatialsdr.dimension import POLICIES
    from spatialsdr.predictor import MODES
    from spatialsdr.simulate import SimConfig, run_experiment

    reports = {}
    for model in MODELS:
        for policy in POLICIES:
            report = run_experiment(SimConfig(model=model, reps=REPS), list(MODES), policy)
            for mode in MODES:
                reports[f"{model}/{policy}/{mode}"] = {
                    "mse": [repr(float(v)) for v in report.mse[mode]],
                    "d_selected": report.d_selected[mode],
                }
    return reports


def compare(before: dict, after: dict) -> list[str]:
    """The reports whose selected ranks, NaN pattern or MSEs beyond ``RTOL`` moved; prints the moves."""
    assert before.keys() == after.keys(), "the dumps hold different reports"
    moved, same, worst = [], 0, (0.0, None)
    for key in before:
        pairs = [(float(a), float(b)) for a, b in zip(after[key]["mse"], before[key]["mse"])]
        same += sum(a.hex() == b.hex() for a, b in pairs)
        nan_moved = any(math.isnan(a) != math.isnan(b) for a, b in pairs)
        move = max((abs(a - b) / max(abs(b), 1e-300) for a, b in pairs if not math.isnan(a + b)), default=0.0)
        worst = max(worst, (move, key), key=lambda w: w[0])
        if nan_moved or move > RTOL or after[key]["d_selected"] != before[key]["d_selected"]:
            moved.append(key)
    total = sum(len(report["mse"]) for report in before.values())
    print(f"MSEs: {total}, identical: {same}")
    print(f"largest relative MSE move: {worst[0]:.3g}" + (f" ({worst[1]})" if worst[1] else ""))
    print(f"reports moved (rank, NaN pattern or MSE above {RTOL:g}): {len(moved)}" + "".join(f"\n  {key}" for key in moved))
    return moved


if __name__ == "__main__":
    command, *paths = sys.argv[1:]
    if command == "dump":
        with open(paths[0], "w") as out:
            json.dump(dump(), out, indent=1)
    elif command == "compare":
        with open(paths[0]) as a, open(paths[1]) as b:
            sys.exit(1 if compare(json.load(a), json.load(b)) else 0)
    else:
        sys.exit(__doc__)
