"""Independent-errors principal fitted components (the no-spatial baseline).

Plain column centering takes the place of the spatial whitening; both
spatial fitters collapse to this model when their association parameter is
switched off (identity correlation, zero lag coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, FittedBasis, build_f
from .data import SpatialSample
from .rrr import RrrEstimate, WhitenedData, _profile_grid, apply_reduction, raise_failure


def whiten_center(x: np.ndarray, f: np.ndarray) -> WhitenedData:
    """Ordinary column centering of predictors and features."""
    centered = x - x.mean(axis=0), f - f.mean(axis=0)
    return WhitenedData(*centered, "identity-centering", np.ones(x.shape[0]))


@dataclass(frozen=True)
class IndFit:
    """Fitted independent-errors reduction."""

    est: RrrEstimate
    mu: np.ndarray
    loglik: float
    basis: FittedBasis = field(repr=False)
    kind: str = "ind"

    @property
    def spatial_param(self) -> None:
        return None

    def reduce(self, x_new: np.ndarray) -> np.ndarray:
        return apply_reduction(x_new, self.mu, self.est)


def fit_independent(sample: SpatialSample, spec: BasisSpec, rank: int) -> IndFit:
    """Rank-constrained PFC fit assuming independent errors."""
    return raise_failure(rank_fits(sample, spec, [rank]))[0]


def rank_fits(sample, spec, ranks, grid=None) -> list:
    """``fit_independent`` at each of ``ranks``, or the error that stopped
    it; ``grid`` is ignored, as this model has no spatial parameter."""
    bm = build_f(sample.y, spec)
    f_fit = bm.fit_matrix
    return _profile_grid(
        sample.x, f_fit, ranks, [None],
        lambda _: (whiten_center(sample.x, f_fit), 0.0),
        lambda _, est, mu, ll, __: IndFit(est, mu, ll, bm.fitted),
    )
