"""Independent-errors principal fitted components (the no-spatial baseline).

The moment matrix is the plain ``[1 X F]' [1 X F]``, whose Schur complement
on the intercept entry is the Gram matrix of the column-centered ``[X F]``;
both spatial fitters collapse to this model when their association
parameter is switched off (identity correlation, zero lag coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, FittedBasis, build_f
from .data import SpatialSample
from .rrr import RrrEstimate, apply_reduction, design, moments_of, profile, raise_failure


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
    rows, shift = design(sample.x, bm.fit_matrix)
    return profile(
        ranks, [None], lambda _: moments_of(rows, sample.p, shift),
        lambda _, est, mu, ll, __: IndFit(est, mu, ll, bm.fitted),
    )
