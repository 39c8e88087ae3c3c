"""Choosing the reduction dimension: LR sequence, AIC/BIC, CV prediction error.

The likelihood-based criteria consume only the maximized log-likelihoods
for ranks 0..min(p, r) and are therefore independent of the prediction
rule; cross-validated minimum prediction error depends on it by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

from . import pfc, sem, sscm
from .basis import BasisSpec
from .data import SpatialSample
from .exceptions import CvFailedError, InputError, NonMonotoneLogliksError, SpatialSdrError
from .predictor import tune_and_predict
from .rrr import raise_failure

MONOTONE_SLACK = 1e-8


@dataclass(frozen=True)
class DimSelection:
    """Outcome of a dimension-selection procedure.

    ``trace`` holds one record per candidate rank with the quantities the
    criterion looked at (log-likelihood and statistic/p-value or criterion
    value, or CV error).
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
    """Upper-tail chi-square probability via the regularized upper
    incomplete gamma function."""
    if dof == 0:
        return 1.0 if x <= 0.0 else 0.0
    return float(gammaincc(dof / 2.0, x / 2.0))


def _check_logliks(logliks: np.ndarray, p: int, r: int) -> np.ndarray:
    logliks = np.asarray(logliks, dtype=float)
    m = min(p, r)
    if logliks.shape != (m + 1,):
        raise InputError(f"need {m + 1} log-likelihoods for ranks 0..{m}")
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

    At each candidate rank the statistic ``2 * (L_max - L_delta)`` is
    referred to a chi-square with ``(r - delta) * (p - delta)`` degrees of
    freedom; the first non-rejected rank is selected, or min(p, r) when
    every test rejects.
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


# The one map from a model kind to its fitter, which walks its grid once.
RANK_FITS = {"ind": pfc.rank_fits, "sscm": sscm.rank_fits, "sem": sem.rank_fits}
KIND_LABELS = {"ind": "Ind", "sscm": "SSCM", "sem": "SEM"}


def rank_fits(sample, kind, spec, ranks, grid=None) -> list:
    """Fits of ``kind`` at each of ``ranks`` from one profile pass over
    ``grid`` (decay rates for ``sscm``, lag coefficients for ``sem``, ignored
    for ``ind``; the model's default grid when None).  A rank that failed
    holds its ``SpatialSdrError`` in place of a fit."""
    if kind not in RANK_FITS:
        raise InputError(f"unknown model kind {kind!r}")
    return RANK_FITS[kind](sample, spec, ranks, grid)


def fit_rank_profile(
    sample: SpatialSample,
    kind: str,
    spec: BasisSpec,
    grid: np.ndarray | None = None,
):
    """Fit every rank 0..min(p, r), each with its own argmax of the spatial
    parameter over ``grid`` (as in ``rank_fits``).  Returns the list of fits
    (index = rank)."""
    ranks = range(min(sample.p, spec.degree) + 1)
    return raise_failure(rank_fits(sample, kind, spec, ranks, grid))


def loglik_profile(
    sample: SpatialSample,
    kind: str,
    spec: BasisSpec,
    grid: np.ndarray | None = None,
) -> np.ndarray:
    """Maximized log-likelihood for each rank 0..min(p, r)."""
    fits = fit_rank_profile(sample, kind, spec, grid)
    return np.array([f.loglik for f in fits])


def select_cv(
    sample: SpatialSample,
    kind: str,
    spec: BasisSpec,
    kernels: str = "2k",
    folds: int = 5,
    d_range: tuple[int, ...] | None = None,
    seed: int = 0,
    grid: np.ndarray | None = None,
) -> DimSelection:
    """Rank by minimum K-fold cross-validated prediction error.

    Folds come from a seeded shuffle without spatial stratification, and
    each fold is fitted over ``grid`` (as in ``rank_fits``).  A fold failure
    invalidates that rank; if every candidate fails, ``CvFailedError`` is
    raised.  Ties break to the smallest rank.
    """
    if kernels not in ("1k", "2k"):
        raise InputError("kernels must be '1k' or '2k'")
    sels = _cv_selections(sample, kind, spec, (kernels,), folds, d_range, seed, grid)
    return raise_failure(sels)[0]


def _cv_selections(sample, kind, spec, kernels, folds=5, d_range=None, seed=0, grid=None) -> list:
    """``select_cv`` for each of ``kernels``: each fold is fitted once for
    all of ``d_range`` and every kernel is scored from those fits.  A kernel
    whose ranks all failed holds a ``CvFailedError`` in place of a result."""
    if kind not in RANK_FITS:
        raise InputError(f"unknown model kind {kind!r}")
    m = min(sample.p, spec.degree)
    if d_range is None:
        d_range = tuple(range(1, m + 1))
    if any(d < 1 or d > m for d in d_range):
        raise InputError(f"d_range must be within 1..{m}")
    if folds < 2 or folds > sample.n:
        raise InputError("folds must be between 2 and n")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(sample.n)
    fold_ids = np.array_split(perm, folds)
    modes = [f"{k}.{KIND_LABELS[kind]}" for k in kernels]
    ranks = sorted(set(d_range))
    sq_errors = {(mode, d): [] for mode in modes for d in ranks}
    failures: dict[tuple[str, int], SpatialSdrError] = {}
    for held in fold_ids:
        live = [d for d in ranks if any((m, d) not in failures for m in modes)]
        if not live:
            break
        train_idx = np.setdiff1d(perm, held, assume_unique=True)
        train, test = sample.subset(train_idx), sample.subset(held)
        try:
            fits = rank_fits(train, kind, spec, live, grid)
        except SpatialSdrError as exc:
            fits = [exc] * len(live)
        jobs = [(mode, d, fit) for d, fit in zip(live, fits) for mode in modes if (mode, d) not in failures]
        preds = tune_and_predict([(mode, fit) for mode, _, fit in jobs], train, test)
        for (mode, d, _), yhat in zip(jobs, preds):
            if isinstance(yhat, SpatialSdrError):
                failures[(mode, d)] = yhat
            else:
                sq_errors[(mode, d)].extend((yhat - test.y) ** 2)

    selections = []
    for mode in modes:
        trace, errors = [], {}
        for d in sorted(d_range):
            if (mode, d) in failures:
                failure = str(failures[(mode, d)])
                trace.append({"rank": d, "cv_error": None, "failure": failure})
                continue
            errors[d] = float(np.mean(sq_errors[(mode, d)]))
            trace.append({"rank": d, "cv_error": errors[d]})
        selections.append(
            DimSelection("cv_mpe", min(errors, key=lambda d: (errors[d], d)), trace)
            if errors
            else CvFailedError("every candidate rank failed during cross-validation")
        )
    return selections
