"""In-memory spans around the public functions of each ``spatialsdr`` layer.

The tracer wraps functions from outside the package: it replaces every
module-level binding of a wrapped function object, so names that a module
imported at load time (``simulate`` binds ``fit_sem``, ``sscm`` binds
``rrr_mle``, ...) are traced too, and functions that import inside their
body (``dimension``) pick the wrapper up from the module attribute.
Wrappers are removed when the ``installed`` context exits.

Each span records its name, the replication it belongs to, its parent span,
start and end times and its self time (duration minus the time covered by
wrapped children).  The cost of fingerprinting arguments for
``distinct_calls`` is charged to neither the child nor its parent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

# Layer modules and the public functions wrapped in each.
LAYERS = {
    "geometry": ("pairwise_distances", "neighbor_weights", "exp_correlation", "spatial_filter"),
    "sscm": ("whiten_sscm", "fit_sscm"),
    "sem": ("whiten_sem", "fit_sem"),
    "pfc": ("fit_independent",),
    "rrr": ("rrr_mle", "loglik"),
    "dimension": ("loglik_profile", "select_ic", "select_lr", "select_cv"),
    "predictor": ("loocv_bandwidths", "predict_many", "build_reference"),
    "simulate": ("simulate_y", "simulate_x", "run_experiment"),
    "basis": ("build_f",),
}

# Functions whose repeated work shows as calls > distinct_calls.
DISTINCT = (
    "sem.fit_sem",
    "sscm.fit_sscm",
    "pfc.fit_independent",
    "dimension.loglik_profile",
    "dimension.select_cv",
    "predictor.loocv_bandwidths",
)

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in a fixed order."""
    names = []
    for fn in TRACED:
        names.append((f"{fn}.calls", "count"))
        names.append((f"{fn}.self_s", "s"))
        if fn in DISTINCT:
            names.append((f"{fn}.distinct_calls", "count"))
    return names


def fingerprint(obj) -> object:
    """A hashable digest of a call argument: array contents, dataclass
    fields and containers are followed, other values are taken by repr."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return ("nd", data.shape, data.dtype.str, hashlib.sha1(data.tobytes()).hexdigest())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, fingerprint(v)) for k, v in obj.items()))
    return repr(obj)


class Tracer:
    """Collects spans for one traced run; single-threaded use only."""

    def __init__(self) -> None:
        self.rep = -1
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span_id, covered_by_children]
        self._inputs: dict[tuple[int, str], set] = {}

    def _wrap(self, name: str, func):
        signature = inspect.signature(func) if name in DISTINCT else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            t_enter = time.perf_counter()
            if signature is not None:
                # Bind with defaults so f(s, spec, 1) and f(s, spec, 1, grid=None) match.
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = fingerprint(bound.arguments)
                self._inputs.setdefault((self.rep, name), set()).add(key)
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, self.rep, name, t0, t1, t1 - t0 - frame[1])
                if self._stack:
                    self._stack[-1][1] += t1 - t_enter

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function in every loaded ``spatialsdr`` module."""
        modules = [m for k, m in sys.modules.items() if k.startswith("spatialsdr.")]
        patched = []
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"spatialsdr.{mod_name}"]
            for fn in funcs:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)

    def per_rep_metrics(self, reps: list[int]) -> dict[str, float]:
        """Per-replication calls, self time and distinct inputs of every
        traced function, each the median over ``reps``."""
        calls = {(r, n): 0 for r in reps for n in TRACED}
        self_s = {(r, n): 0.0 for r in reps for n in TRACED}
        for _, _, rep, name, _, _, own in self.spans:
            if rep in reps:
                calls[(rep, name)] += 1
                self_s[(rep, name)] += own
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = statistics.median(calls[(r, name)] for r in reps)
            out[f"{name}.self_s"] = statistics.median(self_s[(r, name)] for r in reps)
            if name in DISTINCT:
                out[f"{name}.distinct_calls"] = statistics.median(
                    len(self._inputs.get((r, name), ())) for r in reps
                )
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON document."""
        fields = ["id", "parent", "rep", "name", "start", "end", "self_s"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
