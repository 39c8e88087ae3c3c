"""Dump the 144-fit set, or compare two dumps of it.

Usage, from the root of a source checkout:

    PYTHONPATH=src python tests/data/fit_set.py dump OUT.json
    python tests/data/fit_set.py compare BEFORE.json AFTER.json

The set is every fit of harness seeds 1-8, both data models (``sscm``, ``sem``), the
three kinds (``ind``, ``sscm``, ``sem``) and ranks 0-2, each on the training split of
replication 0 of ``SimConfig(model=model, seed=seed)``.  A dump records, per fit, the
maximized log-likelihood's ``repr``, the argmax of the spatial parameter and the grid of
``(param, loglik)`` pairs.  A comparison prints the largest relative move of the
log-likelihoods and of the grid values, how many log-likelihoods are identical, and
each fit whose argmax flipped; it exits 1 on a flip.
"""

from __future__ import annotations

import json
import sys

SEEDS = range(1, 9)
MODELS = ("sscm", "sem")
KINDS = ("ind", "sscm", "sem")
RANKS = [0, 1, 2]


def dump() -> dict:
    from spatialsdr.basis import BasisSpec
    from spatialsdr.data import train_test_split
    from spatialsdr.dimension import rank_fits
    from spatialsdr.simulate import SimConfig, _draw_sample, rep_rng

    fits = {}
    for seed in SEEDS:
        for model in MODELS:
            cfg = SimConfig(model=model, seed=seed)
            rng = rep_rng(cfg.seed, 0)
            train, _ = train_test_split(_draw_sample(cfg, rng), cfg.train_frac, rng)
            spec = BasisSpec("polynomial", cfg.r)
            for kind in KINDS:
                for rank, fit in zip(RANKS, rank_fits(train, kind, spec, RANKS)):
                    fits[f"{seed}/{model}/{kind}/{rank}"] = {
                        "loglik": repr(fit.loglik),
                        "argmax": fit.spatial_param,
                        "grid": [[param, repr(ll)] for param, ll in fit.grid],
                    }
    return fits


def rel_move(a: str, b: str) -> float:
    a, b = float(a), float(b)
    return abs(a - b) / max(abs(b), 1e-300)


def compare(before: dict, after: dict) -> list[str]:
    """The fits whose argmax flipped; prints the moves."""
    assert before.keys() == after.keys(), "the dumps hold different fits"
    loglik = {key: rel_move(after[key]["loglik"], before[key]["loglik"]) for key in before}
    grid = max(
        rel_move(a[1], b[1]) for key in before for a, b in zip(after[key]["grid"], before[key]["grid"])
    )
    flips = [key for key in before if after[key]["argmax"] != before[key]["argmax"]]
    worst = max(loglik, key=loglik.get)
    same = sum(after[key]["loglik"] == before[key]["loglik"] for key in before)
    print(f"fits: {len(before)}, identical log-likelihoods: {same}")
    print(f"largest relative log-likelihood move: {loglik[worst]:.3g} ({worst})")
    print(f"largest relative grid-value move: {grid:.3g}")
    print(f"argmax flips: {len(flips)}" + "".join(f"\n  {key}" for key in flips))
    return flips


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
