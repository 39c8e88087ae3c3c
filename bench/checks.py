"""Correctness checks computed apart from the program.

Each check recomputes what it verifies with its own arithmetic: distances,
response features, neighbour weights and grids are rebuilt here, and every
row-covariance determinant and solve goes through ``scipy.linalg`` Cholesky
or LU factors rather than the package's eigendecomposition path.  A check
raises ``CheckFailed`` on a wrong output; ``selftest.py`` shows that each one
does.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg as sla

LOG_2PI = math.log(2.0 * math.pi)
RTOL = 1e-8  # log-likelihoods, coefficients, covariances, predictions
TIE_RTOL = 1e-10  # LOO errors compared across independently rounded grids


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def _close(a, b, rtol: float = RTOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


def _require(ok: bool, name: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(f"{name}: {detail}")


# --- independent building blocks --------------------------------------------

def distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def features(y: np.ndarray, r: int) -> np.ndarray:
    """Polynomial features y..y^r, centred and scaled to unit deviation."""
    raw = np.column_stack([y**j for j in range(1, r + 1)])
    centred = raw - raw.mean(axis=0)
    return centred / centred.std(axis=0)


def neighbour_matrix(points: np.ndarray) -> np.ndarray:
    """Column-normalised adjacency at the largest nearest-neighbour distance."""
    dist = distances(points)
    off = dist + np.diag(np.full(len(points), np.inf))
    adj = (dist <= off.min(axis=1).max()).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj / adj.sum(axis=0)


def decay_grid(points: np.ndarray, size: int = 20) -> np.ndarray:
    dist = distances(points)
    med = float(np.median(dist[np.triu_indices(len(points), k=1)]))
    return np.geomspace(0.1 / med, 10.0 / med, size)


def lag_grid() -> np.ndarray:
    return np.linspace(-0.95, 0.95, 39)


class RowCov:
    """Row covariance ``Omega`` of the errors for one model and parameter.

    ``whiten(M)`` returns ``Z`` with ``Z'Z = M' Omega^{-1} M``; ``logdet`` is
    ``log|Omega|``.
    """

    def __init__(self, kind: str, points: np.ndarray, param, weights=None):
        n = len(points)
        if kind == "ind":
            self.logdet = 0.0
            self._whiten = lambda m: m
        elif kind == "sscm":
            chol = sla.cholesky(np.exp(-param * distances(points)), lower=True)
            self.logdet = 2.0 * float(np.log(np.diag(chol)).sum())
            self._whiten = lambda m: sla.solve_triangular(chol, m, lower=True)
        elif kind == "sem":
            w = neighbour_matrix(points) if weights is None else weights
            filt = np.eye(n) - param * w
            lu, _ = sla.lu_factor(filt)
            self.logdet = -2.0 * float(np.log(np.abs(np.diag(lu))).sum())
            self._whiten = lambda m: filt @ m
        else:
            raise ValueError(f"unknown kind {kind!r}")

    def whiten(self, m: np.ndarray) -> np.ndarray:
        return self._whiten(m)


def matrix_normal_loglik(resid: np.ndarray, sigma: np.ndarray, rowcov: RowCov) -> float:
    """Log-density of ``resid`` under the matrix normal ``N(0, Omega, Sigma)``."""
    n, p = resid.shape
    z = rowcov.whiten(resid)
    chol = sla.cholesky(sigma, lower=True)
    logdet_sigma = 2.0 * float(np.log(np.diag(chol)).sum())
    trace = float((sla.solve_triangular(chol, z.T, lower=True) ** 2).sum())
    return -0.5 * n * p * LOG_2PI - 0.5 * p * rowcov.logdet - 0.5 * n * logdet_sigma - 0.5 * trace


def gls(x: np.ndarray, f: np.ndarray, rowcov: RowCov):
    """Generalised least squares of ``X`` on ``[1 F]``: returns the
    coefficient (p x r), the residuals and the residual covariance MLE."""
    design = np.column_stack([np.ones(len(x)), f])
    coef, *_ = sla.lstsq(rowcov.whiten(design), rowcov.whiten(x))
    resid = x - design @ coef
    z = rowcov.whiten(resid)
    return coef[1:].T, resid, z.T @ z / len(x)


def closed_form_loglik(x: np.ndarray, f: np.ndarray | None, rowcov: RowCov) -> float:
    """Maximised log-likelihood at a fixed row covariance: the pure-mean
    model when ``f`` is None, else the full-rank GLS fit."""
    if f is None:
        f = np.zeros((len(x), 0))
    _, resid, sigma = gls(x, f, rowcov)
    return matrix_normal_loglik(resid, sigma, rowcov)


def _fit_grid(fit, points: np.ndarray):
    """Recorded grid of a spatial fit, checked against the rebuilt grid."""
    params = np.array([g[0] for g in fit.grid])
    lls = np.array([g[1] for g in fit.grid])
    expected = decay_grid(points) if fit.kind == "sscm" else lag_grid()
    _require(_close(np.sort(params), expected, 1e-12), "grid",
             f"{fit.kind} grid is not the default grid")
    return params, lls


def _rowcov_of(fit, points) -> RowCov:
    return RowCov(fit.kind, points, fit.spatial_param)


def _profile_grid(kind: str, points: np.ndarray) -> list[RowCov]:
    """Row covariances at every point of the kind's default grid."""
    if kind == "ind":
        return [RowCov("ind", points, None)]
    grid = decay_grid(points) if kind == "sscm" else lag_grid()
    weights = neighbour_matrix(points) if kind == "sem" else None
    return [RowCov(kind, points, g, weights) for g in grid]


# --- the checks ---------------------------------------------------------------

def check_mse(report) -> None:
    """Every replication gives a finite, positive MSE for every mode."""
    for mode, vals in report.mse.items():
        for rep, v in zip(report.rep_keys, vals):
            _require(math.isfinite(v) and v > 0.0, "mse", f"{mode} rep {rep}: {v!r}")


def check_ranks(report, policy: str, d: int, p: int, r: int) -> None:
    """Selected ranks lie in 0..min(p, r) (1..min(p, r) under cv) and
    equal ``d`` under the fixed policy; FULL modes record rank 0."""
    m = min(p, r)
    for mode, ranks in report.d_selected.items():
        for rank in ranks:
            if mode.endswith("FULL"):
                ok = rank == 0
            elif policy == "fixed":
                ok = rank == d
            elif policy == "cv":
                ok = 1 <= rank <= m
            else:
                ok = 0 <= rank <= m
            _require(ok, "rank", f"{mode} under {policy}: {rank}")


def check_argmax(fit, points: np.ndarray) -> None:
    """The fitted spatial parameter is the argmax of the recorded grid,
    with the documented tie rule, and the fit's loglik is that maximum."""
    if fit.kind == "ind":
        return
    params, lls = _fit_grid(fit, points)
    top = params[lls == lls.max()]
    # sscm ties go to the smallest decay, sem ties to the smallest |coef|.
    want = top.min() if fit.kind == "sscm" else min(top, key=lambda c: (abs(c), c))
    _require(fit.spatial_param == want, "argmax",
             f"{fit.kind} param {fit.spatial_param!r}, grid argmax {want!r}")
    _require(fit.loglik == lls.max(), "argmax", f"{fit.kind} loglik is not the grid maximum")


def check_loglik(fit, x: np.ndarray, y: np.ndarray, points: np.ndarray, r: int) -> None:
    """``fit.loglik`` is the matrix-normal log-density of the fitted
    residuals, whose covariance is the recorded ``resid_cov``."""
    rowcov = _rowcov_of(fit, points)
    resid = x - fit.mu - features(y, r) @ fit.est.coef.T
    z = rowcov.whiten(resid)
    _require(_close(fit.est.resid_cov, z.T @ z / len(x)), "loglik",
             f"{fit.kind} resid_cov is not the residual covariance")
    ll = matrix_normal_loglik(resid, fit.est.resid_cov, rowcov)
    _require(_close(fit.loglik, ll), "loglik", f"{fit.kind} {fit.loglik!r} vs density {ll!r}")


def check_gls(fit, x: np.ndarray, y: np.ndarray, points: np.ndarray, r: int) -> None:
    """At full rank the coefficient is the GLS estimate at the fitted
    parameter, and every recorded grid value is the GLS profile there."""
    f = features(y, r)
    coef, _, _ = gls(x, f, _rowcov_of(fit, points))
    _require(_close(fit.est.coef, coef), "gls", f"{fit.kind} coefficient differs from GLS")
    if fit.kind == "ind":
        return
    _, lls = _fit_grid(fit, points)  # recorded in ascending parameter order
    for ll, rowcov in zip(lls, _profile_grid(fit.kind, points)):
        want = closed_form_loglik(x, f, rowcov)
        _require(_close(ll, want), "gls", f"{fit.kind} grid value {ll!r} vs GLS profile {want!r}")


def check_profile(lls: np.ndarray, kind: str, x, y, points, r: int) -> None:
    """``loglik_profile`` does not decrease with rank; rank 0 is the
    pure-mean model and rank r the GLS fit, each maximised over the grid."""
    lls = np.asarray(lls, dtype=float)
    scale = max(1.0, float(np.abs(lls).max()))
    _require(bool(np.all(np.diff(lls) >= -1e-10 * scale)), "profile",
             f"{kind} profile decreases: {lls.tolist()}")
    f = features(y, r)
    grid = _profile_grid(kind, points)
    lo = max(closed_form_loglik(x, None, rc) for rc in grid)
    hi = max(closed_form_loglik(x, f, rc) for rc in grid)
    _require(_close(lls[0], lo), "profile", f"{kind} rank 0: {lls[0]!r} vs pure mean {lo!r}")
    _require(_close(lls[-1], hi), "profile", f"{kind} rank {r}: {lls[-1]!r} vs GLS {hi!r}")


def check_aic(lls: np.ndarray, p: int, r: int, chosen: int) -> None:
    """The AIC choice is the smallest argmin of
    ``-2L + 2 (p(p+3)/2 + r d + d(p - d))``."""
    crit = [-2.0 * ll + 2.0 * (p * (p + 3) / 2 + r * d + d * (p - d)) for d, ll in enumerate(lls)]
    want = int(np.argmin(crit))
    _require(chosen == want, "aic", f"chose rank {chosen}, criterion argmin {want}")


def reduce(fit, x: np.ndarray) -> np.ndarray:
    """Sufficient reduction ``(x - mu) Sigma^{-1} a`` for a fitted model."""
    if fit.est.rank == 0:
        return np.zeros((len(x), 0))
    return (x - fit.mu) @ sla.solve(fit.est.resid_cov, fit.est.a, assume_a="pos")


def nw_predict(q, s, ref_pts, ref_coords, ref_y, h1, h2) -> np.ndarray:
    """Nadaraya-Watson average, one query at a time, with the
    nearest-point fallback when every kernel value underflows."""
    out = np.empty(len(q))
    for i in range(len(q)):
        u2 = ((ref_pts - q[i]) ** 2).sum(axis=1) / h1**2
        if h2 is not None:
            u2 = u2 + ((ref_coords - s[i]) ** 2).sum(axis=1) / h2**2
        k = np.exp(-0.5 * u2)
        out[i] = k @ ref_y / k.sum() if k.sum() > 0.0 else ref_y[np.argmin(u2)]
    return out


def check_predict(yhat, fit, train, test, h1: float, h2) -> None:
    """``predict_many`` equals a brute-force Nadaraya-Watson average."""
    if fit is None:
        ref, q = train.x, test.x
    else:
        ref, q = reduce(fit, train.x), reduce(fit, test.x)
    want = nw_predict(q, test.coords.points, ref, train.coords.points, train.y, h1, h2)
    _require(_close(yhat, want), "predict", "predict_many differs from brute-force NW")


def bandwidth_grid(points: np.ndarray, size: int = 15) -> np.ndarray:
    if points.shape[1] == 0:
        return np.array([1.0])
    tri = distances(points)[np.triu_indices(len(points), k=1)]
    med = float(np.median(tri))
    return np.geomspace(0.1 * med, 2.0 * med, size)


def loo_errors(pts, coords, y, h1_grid, h2_grid) -> np.ndarray:
    """Leave-one-out squared error for every bandwidth pair: each point is
    predicted from all the others."""
    d1 = distances(pts) ** 2
    d2 = distances(coords) ** 2
    errs = np.empty((len(h1_grid), len(h2_grid)))
    for i, h1 in enumerate(h1_grid):
        for j, h2 in enumerate(h2_grid):
            u2 = d1 / h1**2 + (0.0 if h2 is None else d2 / h2**2)
            k = np.exp(-0.5 * u2)
            np.fill_diagonal(k, 0.0)
            sums = k.sum(axis=1)
            u2_off = u2 + np.diag(np.full(len(y), np.inf))
            nearest = y[np.argmin(u2_off, axis=1)]
            yhat = np.where(sums > 0.0, k @ y / np.where(sums > 0.0, sums, 1.0), nearest)
            errs[i, j] = np.mean((yhat - y) ** 2)
    return errs


def check_loo(fit, train, h1: float, h2) -> None:
    """The chosen (h1, h2) lies on the bandwidth grid and minimises the
    brute-force leave-one-out error over it."""
    pts = train.x if fit is None else reduce(fit, train.x)
    coords = train.coords.points
    g1 = bandwidth_grid(pts)
    g2 = [None] if h2 is None else bandwidth_grid(coords)
    i = np.flatnonzero(np.abs(g1 - h1) <= 1e-12 * h1)
    j = [0] if h2 is None else np.flatnonzero(np.abs(np.asarray(g2) - h2) <= 1e-12 * h2)
    _require(len(i) == 1 and len(j) == 1, "loo", f"({h1!r}, {h2!r}) is not on the grid")
    errs = loo_errors(pts, coords, train.y, g1, g2)
    best = float(errs.min())
    _require(errs[i[0], j[0]] <= best * (1.0 + TIE_RTOL), "loo",
             f"LOO error {errs[i[0], j[0]]!r} at the chosen pair, grid minimum {best!r}")


def check_replay(mse: float, recorded: float) -> None:
    """The replication regenerated from its seed reproduces the MSE that
    the timed run recorded."""
    _require(_close(mse, recorded, 1e-12), "replay", f"MSE {mse!r}, recorded {recorded!r}")


def check_same_report(a, b) -> None:
    """Two ``MetricsReport``s are bitwise equal, NaNs included."""
    for fld in dataclasses.fields(a):
        va, vb = getattr(a, fld.name), getattr(b, fld.name)
        if fld.name == "mse":
            same = va.keys() == vb.keys() and all(
                np.array(va[k]).tobytes() == np.array(vb[k]).tobytes() for k in va
            )
        else:
            same = va == vb
        _require(same, "workers", f"reports differ in {fld.name}")
