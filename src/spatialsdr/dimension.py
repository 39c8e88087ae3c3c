"""Choosing the reduction dimension: LR sequence, AIC/BIC, CV prediction error.

The likelihood-based criteria consume only the maximized log-likelihoods
for ranks 0..min(p, r) and are therefore independent of the prediction
rule; cross-validated minimum prediction error depends on it by design.

``MODELS`` is the one table of model kinds: each kind's predictor-mode label, its fit type and its
model module's ``moments``, which gives the kind's default grid and the moments at each point.
``select_ranks`` applies one of the ``POLICIES`` to a sample's reduced predictor modes.
``fit_and_predict`` is the one fit-tune-predict step, which each CV fold and the replication
harness's test split run: it fits each kind for the ranks asked of it, tunes every reference in
one leave-one-out pass and predicts the held-out responses.  One of ``FAILURES`` costs only the
jobs it hits: a kind's failed profile each of that kind's jobs, a failed reference or search its
own.  ``fit_and_predict``, ``rank_fits`` and the likelihood policies of ``select_ranks`` fit
through one stage, ``_fit_kinds``, the one caller of ``rrr.profile``, which profiles each kind's
moments once for all the ranks asked of it.  It owns a sample's pairwise distances: it computes
them once, for its first SSCM or SEM profile, and drops them on return, and a failed profile's
error it holds keeps none of them alive.  The leave-one-out search scales its own h2 grid from
the coordinates.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import pfc, sem, sscm
from .basis import BasisSpec, build_f
from .data import SpatialSample
from .exceptions import CvFailedError, InputError, NonFiniteLoglikError, NonMonotoneLogliksError, SpatialSdrError
from .geometry import pairwise_distances
from .predictor import MODES, PredictorConfig, build_reference, loo_search, predict_many
from .rrr import SdrFit, profile

MONOTONE_SLACK = 1e-8
FOLDS = 5  # cross-validation folds
POLICIES = ("fixed", "lr", "aic", "bic", "cv")  # rank policies; the first is the default


@dataclass(frozen=True)
class DimSelection:
    """Outcome of a dimension-selection procedure.

    ``trace`` holds one record per candidate rank with the quantities the criterion looked at
    (log-likelihood and statistic/p-value or criterion value, or CV error).
    """

    criterion: str
    d_star: int
    trace: list[dict] = field(repr=False)
    alpha: float | None = None


def param_count(p: int, delta: int, r: int) -> int:
    """Free-parameter count at rank ``delta``: mean and covariance
    (p(p+3)/2) plus rank-delta coefficient factors."""
    return p * (p + 3) // 2 + r * delta + delta * (p - delta)


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail chi-square probability at an integer ``dof``, in closed form (Abramowitz &
    Stegun 26.4.4-5): ``exp(-x/2)`` times the first ``dof / 2`` terms of ``sum_k (x/2)^k / k!``
    at an even ``dof``; ``erfc(sqrt(x/2)) + sqrt(2/pi) exp(-x/2)`` times the first ``(dof - 1)
    / 2`` terms of ``sum_k x^(k - 1/2) / (1 3 ... (2k - 1))`` at an odd one.  The running term
    is rescaled before it overflows and ``exp(-x/2)`` taken in the log of the sum, so neither
    leaves the range of a float by itself."""
    if dof == 0 or x <= 0.0:
        return 1.0 if x <= 0.0 else 0.0
    odd = dof % 2
    term, series, log_scale = math.sqrt(x) if odd else 1.0, 0.0, -x / 2.0
    for k in range(dof // 2):
        series += term
        term *= x / (2 * k + 2 + odd)
        if term > 1e300:
            series, term, log_scale = series * 1e-300, term * 1e-300, log_scale + 300 * math.log(10.0)
    if odd:
        log_scale += 0.5 * math.log(2.0 / math.pi)
    tail = math.erfc(math.sqrt(x / 2.0)) if odd else 0.0
    return tail + (math.exp(log_scale + math.log(series)) if series else 0.0)


def _check_logliks(logliks: np.ndarray, p: int, r: int) -> np.ndarray:
    logliks = np.asarray(logliks, dtype=float)
    m = min(p, r)
    if logliks.shape != (m + 1,):
        raise InputError(f"need {m + 1} log-likelihoods for ranks 0..{m}")
    if not np.all(np.isfinite(logliks)):
        raise NonFiniteLoglikError(f"log-likelihoods must be finite, got {logliks}")
    scale = max(1.0, float(np.abs(logliks).max()))
    if np.any(np.diff(logliks) < -MONOTONE_SLACK * scale):
        raise NonMonotoneLogliksError(
            "log-likelihoods decrease with rank; upstream fit is inconsistent"
        )
    return logliks


def select_lr(
    logliks: np.ndarray, p: int, r: int, n: int, alpha: float = 0.05
) -> DimSelection:
    """Sequential likelihood-ratio tests from rank 0 upward.

    At each candidate rank the statistic ``2 * (L_max - L_delta)`` is referred to a chi-square
    with ``(r - delta) * (p - delta)`` degrees of freedom; the first non-rejected rank is
    selected, or min(p, r) when every test rejects.
    """
    logliks = _check_logliks(logliks, p, r)
    m = min(p, r)
    trace = []
    d_star = m
    chosen = False
    for delta in range(m + 1):
        stat = max(0.0, 2.0 * (logliks[m] - logliks[delta]))
        dof = (r - delta) * (p - delta)
        pval = chi2_sf(stat, dof)
        trace.append(
            {"rank": delta, "loglik": float(logliks[delta]),
             "statistic": stat, "dof": dof, "p_value": pval}
        )
        if not chosen and pval >= alpha:
            d_star = delta
            chosen = True
    return DimSelection(criterion="lr", d_star=d_star, trace=trace, alpha=alpha)


def select_ic(
    logliks: np.ndarray, p: int, r: int, n: int, kind: str = "aic"
) -> DimSelection:
    """Information-criterion choice: ``-2 L_delta + penalty * params``."""
    if kind not in ("aic", "bic"):
        raise InputError(f"unknown criterion {kind!r}")
    logliks = _check_logliks(logliks, p, r)
    m = min(p, r)
    weight = 2.0 if kind == "aic" else float(np.log(n))
    values = [
        -2.0 * logliks[delta] + weight * param_count(p, delta, r)
        for delta in range(m + 1)
    ]
    trace = [
        {"rank": delta, "loglik": float(logliks[delta]), "criterion": values[delta]}
        for delta in range(m + 1)
    ]
    d_star = int(np.argmin(values))  # argmin takes the smallest rank on ties
    return DimSelection(criterion=kind, d_star=d_star, trace=trace)


# The one map from a model kind to its predictor modes' label, its fit type and its
# ``moments(x, f, dist)``, which gives the kind's default grid and the moments at each point.
MODELS = {"ind": ("Ind", SdrFit, pfc.moments), "sscm": ("SSCM", sscm.SscmFit, sscm.moments),
          "sem": ("SEM", sem.SemFit, sem.moments)}
# Errors that cost a job its prediction instead of ending the run.
FAILURES = (SpatialSdrError, np.linalg.LinAlgError)


def mode_kind(mode: str) -> str | None:
    """The reduction kind of predictor ``mode``; None for the FULL modes."""
    if mode not in MODES:
        raise InputError(f"unknown predictor mode {mode!r}")
    label = mode.split(".")[1]
    return next((kind for kind, (lab, *_) in MODELS.items() if lab == label), None)


def rank_fits(sample, kind, spec, ranks) -> list:
    """Fits of ``kind`` at each of ``ranks`` from one ``_fit_kinds`` pass over the model's default
    grid of its spatial parameter (decay rates for ``sscm``, lag coefficients for ``sem``, none for
    ``ind``); the profile fails as a whole, by its first ``SpatialSdrError`` at any point or rank."""
    if kind not in MODELS:
        raise InputError(f"unknown model kind {kind!r}")
    fits = _fit_kinds(sample, spec, {(kind, d) for d in ranks})
    for fit in fits.values():
        if isinstance(fit, FAILURES):
            raise fit
    return [fits[(kind, d)] for d in ranks]


def _fit_kinds(sample, spec, keys) -> dict:
    """The fit of each ``(kind, rank)`` of ``keys`` on ``sample``, or the error that failed its
    kind's profile: ``rrr.profile`` of each kind's ``MODELS`` moments once for all its ranks, on
    ``sample``'s pairwise distances, computed for the first SSCM or SEM kind and dropped on return."""
    fits, dist = {}, None
    for kind in sorted({kind for kind, _ in keys}):
        ranks = sorted({d for k, d in keys if k == kind})
        _, fit_type, moments = MODELS[kind]
        try:
            if dist is None and kind != "ind":
                dist = pairwise_distances(sample.coords)
            found = profile(fit_type, kind, ranks, *moments(sample.x, build_f(sample.y, spec), dist))
        except FAILURES as exc:
            found = [_without_locals(exc)] * len(ranks)
        fits.update(((kind, d), fit) for d, fit in zip(ranks, found))
    del dist  # a held error's traceback keeps this frame, and so its locals, alive
    return fits


def _without_locals(exc: BaseException) -> BaseException:
    """``exc`` with the locals cleared from the finished frames of its traceback and of those along
    its ``__cause__``/``__context__`` chain, files and lines kept: a cause raised in a frame that
    held the distances would keep them alive as surely as ``exc``'s own frames."""
    chain = [exc]
    for err in chain:  # grows as it goes, by errors not yet in it (an error equals itself alone)
        tb = err.__traceback__
        while tb is not None:
            with suppress(RuntimeError):  # still running: the frame that caught ``exc``
                tb.tb_frame.clear()
            tb = tb.tb_next
        chain += [e for e in (err.__cause__, err.__context__) if e is not None and e not in chain]
    return exc


def loglik_profile(sample: SpatialSample, kind: str, spec: BasisSpec) -> np.ndarray:
    """Maximized log-likelihood for each rank 0..min(p, r), each rank with
    its own argmax of the spatial parameter over the default grid."""
    ranks = range(min(sample.p, spec.degree) + 1)
    return np.array([f.loglik for f in rank_fits(sample, kind, spec, ranks)])


def fit_and_predict(jobs: list, train: SpatialSample, test: SpatialSample, spec: BasisSpec,
                    fits=None) -> list:
    """Predictions of ``test``'s responses for each ``(mode, rank)`` in ``jobs``, the rank being
    ignored for FULL modes.

    ``_fit_kinds`` fits each kind on ``train`` once for all the ranks its jobs need, except those
    ``fits`` already holds by ``(kind, rank)``; each distinct fit gets one reference, and one
    ``loo_search`` over its default grids tunes them all.  A job whose rank is an error, or whose
    fit, reference or search failed with one of ``FAILURES``, holds that error.
    """
    fits = dict(fits or {})
    keys = [(mode_kind(mode), rank) for mode, rank in jobs]
    fits.update(_fit_kinds(train, spec, {
        (k, d) for k, d in keys if k and (k, d) not in fits and not isinstance(d, FAILURES)}))
    two_kernel = any(mode.startswith("2k") for mode, _ in jobs)
    refs = {}
    for (mode, rank), key in zip(jobs, keys):
        if key not in refs:
            fit = rank if isinstance(rank, FAILURES) else fits.get(key)
            try:
                refs[key] = fit if isinstance(fit, FAILURES) else build_reference(mode, train, fit)
            except FAILURES as exc:
                refs[key] = exc
    live = [key for key, ref in refs.items() if not isinstance(ref, FAILURES)]
    searches = dict(zip(live, loo_search([refs[k] for k in live], two_kernel)))
    out = []
    for (mode, _), key in zip(jobs, keys):
        search = searches.get(key, refs[key])
        if not isinstance(search, FAILURES):
            config = PredictorConfig(mode, *search.bandwidths(mode.startswith("2k")))
            search = predict_many(test.x, test.coords.points, refs[key], config, fits.get(key))[0]
        out.append(search)
    return out


def select_cv(
    sample: SpatialSample, kind: str, spec: BasisSpec, kernels: str = "2k", seed: int = 0
) -> DimSelection:
    """Rank among 1..min(p, r) by minimum ``FOLDS``-fold cross-validated prediction error.

    Folds come from a shuffle seeded by ``seed`` alone, without spatial stratification; the
    harness passes the replication index, not ``cfg.seed``, so experiments that differ only in
    their seed share each replication's fold permutation.  A failure in a fold invalidates the
    ranks it hits, every rank when it fails the profile; if every candidate fails, or a fold
    would hold fewer than two points (n < 2 * ``FOLDS``), ``CvFailedError`` is raised.  Ties
    break to the smallest rank.
    """
    if kernels not in ("1k", "2k"):
        raise InputError("kernels must be '1k' or '2k'")
    if kind not in MODELS:
        raise InputError(f"unknown model kind {kind!r}")
    mode = f"{kernels}.{MODELS[kind][0]}"
    [selection] = _cv_selections(sample, [mode], spec, seed)
    if isinstance(selection, CvFailedError):
        raise selection
    return selection


def _cv_selections(sample, modes, spec, seed=0) -> list:
    """``select_cv`` for each of the reduced ``modes``, of any kinds and kernels: each fold is one
    ``fit_and_predict`` of every live (mode, rank).  A mode whose ranks all failed, or every mode
    when a fold would have fewer than two points, holds a ``CvFailedError`` in place of a result."""
    if sample.n < 2 * FOLDS:
        return [CvFailedError(f"cross-validation needs n >= {2 * FOLDS}, got n={sample.n}")] * len(modes)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sample.n)
    ranks = range(1, min(sample.p, spec.degree) + 1)
    sq_errors = {(mode, d): [] for mode in modes for d in ranks}
    failures = {}
    for held in np.array_split(perm, FOLDS):
        jobs = [job for job in sq_errors if job not in failures]
        if not jobs:
            break
        train_idx = np.setdiff1d(perm, held, assume_unique=True)
        train, test = sample.subset(train_idx), sample.subset(held)
        for job, yhat in zip(jobs, fit_and_predict(jobs, train, test, spec)):
            if isinstance(yhat, FAILURES):
                failures[job] = yhat
            else:
                sq_errors[job].extend((yhat - test.y) ** 2)

    selections = []
    for mode in modes:
        trace, errors = [], {}
        for d in ranks:
            if (mode, d) in failures:
                trace.append({"rank": d, "cv_error": None, "failure": str(failures[(mode, d)])})
                continue
            errors[d] = float(np.mean(sq_errors[(mode, d)]))
            trace.append({"rank": d, "cv_error": errors[d]})
        selections.append(
            DimSelection("cv_mpe", min(errors, key=lambda d: (errors[d], d)), trace)
            if errors
            else CvFailedError("every candidate rank failed during cross-validation")
        )
    return selections


def select_ranks(sample, modes, spec, policy, d, seed) -> tuple[dict, dict]:
    """The rank of each reduced mode of ``modes`` under ``policy``, one of ``POLICIES``, and the
    ``(kind, rank)`` fits its profiles made.

    ``fixed`` gives every mode ``d``; ``lr``, ``aic`` and ``bic`` choose from one ``_fit_kinds``
    profile of each kind over every rank 0..min(p, r) and return the fits of each kind they chose
    for, never an error; ``cv`` runs ``select_cv`` for every mode in one fold loop seeded by
    ``seed`` alone: ``simulate`` passes the replication index, so the folds do not depend on
    ``cfg.seed``.  A mode whose choice failed with one of ``FAILURES`` holds that error in place
    of a rank.
    """
    if policy not in POLICIES:
        raise InputError(f"unknown d policy {policy!r}")
    reduced = [mode for mode in dict.fromkeys(modes) if mode_kind(mode)]
    if policy == "fixed":
        return dict.fromkeys(reduced, d), {}
    if policy == "cv":
        sels = _cv_selections(sample, reduced, spec, seed=seed)
        return {m: s if isinstance(s, FAILURES) else s.d_star for m, s in zip(reduced, sels)}, {}
    ranks, kinds = range(min(sample.p, spec.degree) + 1), dict.fromkeys(map(mode_kind, reduced))
    found, picks, fits = _fit_kinds(sample, spec, {(k, d) for k in kinds for d in ranks}), {}, {}
    for kind in kinds:
        curve = [found[(kind, d)] for d in ranks]
        pick = curve[0]  # the error of a failed profile
        if not isinstance(pick, FAILURES):
            args = (np.array([fit.loglik for fit in curve]), sample.p, spec.degree, sample.n)
            try:
                pick = (select_lr(*args) if policy == "lr" else select_ic(*args, kind=policy)).d_star
                fits.update(((kind, d), fit) for d, fit in zip(ranks, curve))
            except FAILURES as exc:
                pick = exc
        picks[kind] = pick
    return {m: picks[mode_kind(m)] for m in reduced}, fits
