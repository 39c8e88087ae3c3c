"""Independent-errors principal fitted components (the no-spatial baseline).

The moment matrix is the plain ``[1 X F]' [1 X F]``, whose Schur complement
on the intercept entry is the Gram matrix of the column-centered ``[X F]``;
both spatial fitters collapse to this model when their association
parameter is switched off (identity correlation, zero lag coefficient).
Its fits are plain ``SdrFit``s with the one-point grid ``[(None, loglik)]``.
"""

from __future__ import annotations

from .basis import BasisSpec, build_f
from .data import SpatialSample
from .rrr import SdrFit, design, moments_of, profile


def fit_independent(sample: SpatialSample, spec: BasisSpec, rank: int) -> SdrFit:
    """Rank-constrained PFC fit assuming independent errors; raises if it fails."""
    return rank_fits(sample, spec, [rank])[0]


def rank_fits(sample, spec, ranks) -> list:
    """``fit_independent`` at each of ``ranks``; the first error fails them all."""
    rows, shift = design(sample.x, build_f(sample.y, spec))
    return profile(SdrFit, "ind", ranks, [None], [moments_of(rows, sample.p, shift)])
