"""Independent-errors principal fitted components (the no-spatial baseline).

The moment matrix is the plain ``[1 X F]' [1 X F]``, whose Schur complement on the intercept entry
is the Gram matrix of the column-centered ``[X F]``; both spatial fitters collapse to this model
when their association parameter is switched off (identity correlation, zero lag coefficient).
``moments`` hands the kind table, ``dimension.MODELS``, the one-point grid ``[None]`` and these
moments; its fit stage profiles them into plain ``SdrFit``s with the grid ``[(None, loglik)]``.
"""

from __future__ import annotations

from .basis import BasisSpec
from .data import SpatialSample
from .rrr import SdrFit, design, moments_of


def moments(x, f, dist) -> tuple:
    """The one-point grid ``[None]`` and the plain moments of ``[1 X F]``; reads no ``dist``."""
    rows, shift = design(x, f)
    return [None], [moments_of(rows, x.shape[1], shift)]


def fit_independent(sample: SpatialSample, spec: BasisSpec, rank: int) -> SdrFit:
    """Rank-constrained PFC fit of independent errors, or its error; stays until ROADMAP item 1."""
    from .dimension import rank_fits  # dimension imports this module
    return rank_fits(sample, "ind", spec, [rank])[0]
