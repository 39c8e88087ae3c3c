"""Synthetic spatial regression experiments and the replication harness.

Data generation: locations uniform on the unit square (or a regular grid),
a Gaussian random field response with a planar trend and spherical
covariogram, and predictors from the inverse model ``X = 1 mu' + F (AB)' +
E`` with spatially correlated errors drawn under either the separable
exponential-correlation law or the autoregressive-filter law.  Gaussian draws
use the lower Cholesky root of each covariance (``_linalg.draw_root``), and the filter
``(I - rho A D^-1)^-1 = D (D - rho A)^-1`` of the SEM fit's ``geometry.neighbor_graph`` an
LU solve with ``D - rho A``.  The errors' draw computes the sample's one distance array and
builds its matrix in that buffer, and the response's covariogram takes its distances row
block by row block, so a draw holds one n x n matrix at a time, and the response's root multiplies
its normals by row blocks; only the SSCM errors' n x p product copies a whole root out.

The experiment protocol repeats: fresh data, random train/test split, a
rank per method from ``dimension.select_ranks`` under the rank policy, then
``dimension.fit_and_predict`` on the split, as each CV fold does, reusing
the fits the rank profiles made, and the squared test error.  Every
replication derives its own RNG stream from (seed, rep), so parallel and
serial execution agree.  ``run_experiment`` computes on one OpenBLAS thread and leaves glibc's
heap thresholds raised for the rest of the process (``_linalg.keep_heap``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import draw_root, keep_heap, one_blas_thread, solve_in_place
from .basis import BasisSpec, polynomial_features
from .data import SpatialSample, train_test_split
from .dimension import FAILURES, POLICIES, fit_and_predict, select_ranks
from .exceptions import CovarianceNotPDError, InputError
from .exceptions import NearSingularCorrelationError, NonPositiveDecayError, SingularFilterError
from .geometry import Coordinates, neighbor_graph, pairwise_distances, sq_distances
from .predictor import MODES
from .sem import COND_LIMIT

UNSTABLE_FRACTION = 0.2


@dataclass(frozen=True)
class SimConfig:
    """One experiment scenario."""

    n: int = 400
    p: int = 24
    r: int = 2
    d: int = 2
    model: str = "sem"
    decay: float = 0.1
    lag_coef: float = 0.8
    reps: int = 100
    train_frac: float = 0.7
    seed: int = 0
    grid_locations: bool = False

    def __post_init__(self) -> None:
        check_error_law(self.model, self.decay if self.model == "sscm" else self.lag_coef)
        if not 0.0 < self.train_frac < 1.0:
            raise InputError("train_frac must be in (0, 1)")
        if self.reps < 1:
            raise InputError("reps must be >= 1")
        if self.p < 1 or self.r < 1:
            raise InputError(f"need p >= 1 and r >= 1, got p={self.p}, r={self.r}")
        if not 0 <= self.d <= min(self.r, self.p):
            raise InputError(f"d must lie in 0..min(r, p), got d={self.d}")


def check_error_law(model: str, param: float) -> None:
    """Reject an unknown model, a SEM lag outside (-1, 1) and an SSCM decay that is not
    finite, with ``NonPositiveDecayError`` for one that is not > 0; NaN fails either."""
    if model == "sscm" and not param > 0.0:
        raise NonPositiveDecayError(f"decay rate must be > 0, got {param}")
    if not (model == "sscm" and param < np.inf or model == "sem" and abs(param) < 1.0):
        raise InputError(f"need 'sscm' and a finite decay or 'sem' and |lag_coef| < 1: {model!r}, {param}")


@dataclass(frozen=True)
class GrfSpec:
    """Gaussian random field for the response: planar trend plus a
    spherical covariogram."""

    trend: tuple[float, float, float] = (1.0, 0.1, 0.05)
    sill: float = 1.25
    range_: float = 2.0

    def __post_init__(self) -> None:
        if self.sill <= 0.0 or self.range_ <= 0.0:
            raise InputError("sill and range must be positive")


@dataclass
class MetricsReport:
    """Per-replication squared-error results for each method."""

    config: SimConfig
    methods: list[str]
    d_policy: str
    mse: dict[str, list[float]]
    d_selected: dict[str, list[int]]
    rep_keys: list[int]
    unstable: list[str] = field(default_factory=list)

    def summary(self) -> list[dict]:
        rows = []
        for m in self.methods:
            vals = np.asarray(self.mse[m], dtype=float)
            ok = vals[np.isfinite(vals)]
            rows.append(
                {
                    "method": m,
                    "mean_mse": float(ok.mean()) if ok.size else float("nan"),
                    "std_mse": float(ok.std(ddof=1)) if ok.size > 1 else 0.0,
                    "n_ok": int(ok.size),
                    "n_failed": int(vals.size - ok.size),
                }
            )
        return rows


def rep_rng(base_seed: int, rep: int) -> np.random.Generator:
    """The replication's dedicated RNG stream."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(rep,))
    )


def sample_locations(n: int, seed, grid: bool = False) -> Coordinates:
    """Locations in the unit square: iid uniform, or a regular grid when
    ``grid`` is set (n must then be a perfect square)."""
    if n < 2:
        raise InputError("need at least two locations")
    if grid:
        side = int(round(np.sqrt(n)))
        if side * side != n:
            raise InputError(f"grid mode needs a square n, got {n}")
        axis = np.linspace(0.0, 1.0, side)
        xx, yy = np.meshgrid(axis, axis)
        return Coordinates(np.column_stack([xx.ravel(), yy.ravel()]))
    rng = np.random.default_rng(seed)
    return Coordinates(rng.uniform(size=(n, 2)))


def spherical_covariance(coords: Coordinates, grf: GrfSpec) -> np.ndarray:
    """``grf``'s spherical covariogram of every pair of ``coords``: positive inside the range,
    zero beyond, the sill at distance 0.  Built in blocks of n / 16 rows, each from the
    distances of its rows alone (``pairwise_distances``'s rows bit for bit), so no n x n
    distance matrix is held, and returned column-major, as its transpose, for ``draw_root``
    to factor in place."""
    pts = coords.points
    cov = np.empty((coords.n, coords.n))
    step = max(1, coords.n // 16)
    for start in range(0, coords.n, step):
        h = np.sqrt(sq_distances(pts[start : start + step], pts)) / grf.range_
        block = cov[start : start + step]
        np.multiply(grf.sill, 1.0 - 1.5 * h + 0.5 * h**3, out=block)
        block[h >= 1.0] = 0.0
    return cov.T


def simulate_y(coords: Coordinates, grf: GrfSpec, seed) -> np.ndarray:
    """Draw the response field as its trend plus the lower Cholesky root of
    its covariance times standard normals."""
    rng = np.random.default_rng(seed)
    s1, s2 = coords.points[:, 0], coords.points[:, 1]
    mean = grf.trend[0] + grf.trend[1] * s1 + grf.trend[2] * s2
    z = rng.standard_normal(coords.n)
    return mean + draw_root(lambda: spherical_covariance(coords, grf), CovarianceNotPDError, z)


def draw_spatial_errors(
    coords: Coordinates, model: str, param: float, noise_cov: np.ndarray, seed
) -> np.ndarray:
    """Error matrix with rows correlated by the chosen spatial law.

    ``sscm``: ``E = L_H Z L_noise'`` with the lower Cholesky roots ``L`` of
    ``exp(-param * distance)`` and ``noise_cov`` and a standard normal ``Z``;
    ``sem``: rows solve ``(I - param * W) E = Z L_noise'`` for ``W = A D^-1`` of the lattice
    ``(A, D)`` from ``geometry.neighbor_graph``, so ``E = D (D - param *
    A)^-1 Z L_noise'`` by an LU solve with the symmetric ``D - param * A``, or ``Z L_noise'``
    itself at ``param = 0``; ``SingularFilterError`` when ``filter_cond_bound`` passes
    ``sem.COND_LIMIT``.  Either way each row has covariance ``noise_cov``.
    """
    check_error_law(model, param)
    rng = np.random.default_rng(seed)
    col_root = draw_root(lambda: np.array(noise_cov, dtype=float, order="F"), CovarianceNotPDError)
    z = rng.standard_normal((coords.n, noise_cov.shape[0])) @ col_root.T
    if param == 0.0:
        return z  # a SEM lag of 0, exactly: the solve with D alone would round it
    if model == "sscm":
        def correlations():  # the draw's own distances, exponentiated in their buffer, per try
            dist = pairwise_distances(coords)
            return np.exp(np.multiply(dist, -param, out=dist), out=dist).T  # column-major
        return draw_root(correlations, NearSingularCorrelationError) @ z
    dist = pairwise_distances(coords)  # the draw's own: its matrix is built in their buffer
    adj, deg = neighbor_graph(dist)
    filt = np.multiply(adj, -param, out=dist).T  # symmetric: D - param * A, column-major
    np.fill_diagonal(filt, deg)
    bound = filter_cond_bound(deg, param)
    if not bound <= COND_LIMIT:
        raise SingularFilterError(f"D - {param} * A is numerically singular (cond <= {bound:.2e})")
    return np.multiply(deg[:, None], solve_in_place(filt, np.array(z, order="F")), out=z)


def filter_cond_bound(deg: np.ndarray, param: float) -> float:
    """``(1 + |param|) / (1 - |param|) * max D / min D``, at least ``cond_2(D - param * A)``
    for the symmetric adjacency ``A`` with degrees ``deg``: ``D^{-1/2} (D - param * A)
    D^{-1/2}`` has its spectrum in ``[1 - |param|, 1 + |param|]`` (Ord 1975), and each
    ``D^{1/2}`` has condition number ``sqrt(max D / min D)``."""
    return (1.0 + abs(param)) / (1.0 - abs(param)) * (deg.max() / deg.min())


def simulate_x(y: np.ndarray, coords: Coordinates, cfg: SimConfig, seed) -> np.ndarray:
    """Predictors from the inverse model with freshly drawn parameters.

    The mean intercept and both factor matrices are standard normal
    (redrawn on the measure-zero chance of rank deficiency); the noise
    covariance is ``G G' + 0.1 I`` for a standard-normal ``G``; the raw
    polynomial features of the response carry the mean structure.
    """
    rng = np.random.default_rng(seed)
    p, d, r = cfg.p, cfg.d, cfg.r
    mu = rng.standard_normal(p)
    a = rng.standard_normal((p, d))
    while np.linalg.matrix_rank(a) < d:  # pragma: no cover - measure zero
        a = rng.standard_normal((p, d))
    b = rng.standard_normal((d, r))
    while np.linalg.matrix_rank(b) < min(d, r):  # pragma: no cover
        b = rng.standard_normal((d, r))
    g = rng.standard_normal((p, p))
    noise_cov = g @ g.T + 0.1 * np.eye(p)
    f_raw = polynomial_features(y, r)
    param = cfg.decay if cfg.model == "sscm" else cfg.lag_coef
    errors = draw_spatial_errors(coords, cfg.model, param, noise_cov, rng)
    return mu + f_raw @ (a @ b).T + errors


def _draw_sample(cfg, rng) -> SpatialSample:
    """A full sample drawn from ``rng``, which the caller may go on using."""
    coords = sample_locations(cfg.n, rng, grid=cfg.grid_locations)
    y = simulate_y(coords, GrfSpec(), rng)
    x = simulate_x(y, coords, cfg, rng)
    return SpatialSample(coords, x, y)


def simulate_sample(cfg: SimConfig, rep: int) -> SpatialSample:
    """One replication's full sample, deterministic in (cfg.seed, rep)."""
    return _draw_sample(cfg, rep_rng(cfg.seed, rep))


def _run_rep(cfg: SimConfig, methods: list[str], d_policy: str, rep: int):
    """One replication: returns (mse per method, selected d per method)."""
    rng = rep_rng(cfg.seed, rep)
    train, test = train_test_split(_draw_sample(cfg, rng), cfg.train_frac, rng)
    spec = BasisSpec("polynomial", cfg.r)
    picks, fits = select_ranks(train, methods, spec, d_policy, cfg.d, rep)
    jobs = [(mode, picks.get(mode, 0)) for mode in methods]  # FULL modes record rank 0
    mse, d_sel = {}, {}
    for (mode, rank), yhat in zip(jobs, fit_and_predict(jobs, train, test, spec, fits=fits)):
        if isinstance(yhat, FAILURES):
            mse[mode], d_sel[mode] = float("nan"), -1
        else:
            mse[mode], d_sel[mode] = float(np.mean((yhat - test.y) ** 2)), rank
    return mse, d_sel


def run_experiment(
    cfg: SimConfig,
    methods: list[str],
    d_policy: str = POLICIES[0],
    workers: int = 1,
) -> MetricsReport:
    """Replicate the train/test protocol and collect per-method MSEs.

    A failed replication records NaN for that method and continues;
    methods failing in at least 20% of replications are flagged unstable.
    ``workers`` threads run the replications; results are identical for
    any count, and for any BLAS thread count: numpy's OpenBLAS runs on one
    thread until the call returns, then gets its count back.  The first call
    raises glibc's mmap and trim thresholds, and they stay raised.
    """
    for mode in methods:
        if mode not in MODES:
            raise InputError(f"unknown method {mode!r}")
    if d_policy not in POLICIES:
        raise InputError(f"unknown d policy {d_policy!r}")
    keep_heap()
    reps = list(range(cfg.reps))
    with one_blas_thread():
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor  # here: a serial run loads no pool
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(lambda rep: _run_rep(cfg, methods, d_policy, rep), reps))
        else:
            results = [_run_rep(cfg, methods, d_policy, rep) for rep in reps]

    mse = {m: [res[0][m] for res in results] for m in methods}
    d_selected = {m: [res[1][m] for res in results] for m in methods}
    unstable = [
        m
        for m in methods
        if np.mean(~np.isfinite(mse[m])) >= UNSTABLE_FRACTION
    ]
    return MetricsReport(
        config=cfg,
        methods=list(methods),
        d_policy=d_policy,
        mse=mse,
        d_selected=d_selected,
        rep_keys=reps,
        unstable=unstable,
    )
