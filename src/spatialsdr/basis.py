"""Response feature construction for the inverse regression.

The conditional mean of the predictors is modeled as linear in a small set
of response features: polynomial terms by default, or slice indicators for
a binned response (Cook & Forzani 2008).  Columns are centered; polynomial
columns are also scaled to unit standard deviation so fitting works on a
well-conditioned scale (rescaling changes neither the fitted mean surface
nor the reduction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConstantResponseError, InputError, RankDeficientBasisError

POLYNOMIAL = "polynomial"
SLICE = "slice"


@dataclass(frozen=True)
class BasisSpec:
    """User-facing choice of feature family and dimension.

    ``degree`` is the polynomial degree, or the number of indicator columns
    (``h - 1`` for ``h`` slices).  ``slice_bounds`` optionally fixes the
    interior cut points; otherwise equal-frequency cuts are derived from the
    training response.
    """

    kind: str = POLYNOMIAL
    degree: int = 2
    slice_bounds: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (POLYNOMIAL, SLICE):
            raise InputError(f"unknown basis kind {self.kind!r}")
        if self.degree < 1:
            raise InputError("basis degree must be >= 1")
        if self.slice_bounds is not None:
            if self.kind != SLICE:
                raise InputError("slice_bounds only apply to the slice basis")
            b = tuple(float(v) for v in self.slice_bounds)
            if len(b) != self.degree:
                raise InputError("need exactly `degree` interior cut points")
            if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
                raise InputError("slice_bounds must be strictly increasing")
            object.__setattr__(self, "slice_bounds", b)


def polynomial_features(y: np.ndarray, degree: int) -> np.ndarray:
    """Raw (uncentered) columns ``y, y**2, ..., y**degree``."""
    y = np.asarray(y, dtype=float)
    return np.column_stack([y**j for j in range(1, degree + 1)])


def slice_indicators(y: np.ndarray, cuts: np.ndarray, degree: int) -> np.ndarray:
    """Indicator columns for the first ``degree`` of ``degree + 1`` slices."""
    idx = np.searchsorted(cuts, np.asarray(y, dtype=float), side="left")
    out = np.zeros((len(np.atleast_1d(y)), degree))
    for j in range(degree):
        out[:, j] = idx == j
    return out


def _equal_frequency_cuts(y: np.ndarray, n_slices: int) -> np.ndarray:
    """Interior cut points splitting sorted responses into near-equal chunks."""
    order = np.sort(y)
    chunks = np.array_split(order, n_slices)
    cuts = []
    for left, right in zip(chunks[:-1], chunks[1:]):
        if left.size == 0 or right.size == 0:
            raise InputError("too many slices for the sample size")
        cuts.append((left[-1] + right[0]) / 2.0)
    return np.asarray(cuts)


def build_f(y: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """The centered n x r training feature matrix the fitters use, polynomial
    columns scaled to unit standard deviation.

    Raises ``ConstantResponseError`` for a constant response under the
    polynomial basis and ``RankDeficientBasisError`` when the centered
    columns do not span ``degree`` dimensions.
    """
    y = np.asarray(y, dtype=float).ravel()
    n, r = y.size, spec.degree
    if n <= r:
        raise InputError(f"need n > degree, got n={n}, degree={r}")
    if spec.kind == POLYNOMIAL:
        if np.ptp(y) == 0.0:
            raise ConstantResponseError("response is constant")
        raw = polynomial_features(y, r)
    else:
        cuts = (
            np.asarray(spec.slice_bounds, dtype=float)
            if spec.slice_bounds is not None
            else _equal_frequency_cuts(y, r + 1)
        )
        raw = slice_indicators(y, cuts, r)
    centered = raw - raw.mean(axis=0)
    if np.linalg.matrix_rank(centered) < r:
        raise RankDeficientBasisError(
            f"centered features span fewer than {r} dimensions"
        )
    if spec.kind == POLYNOMIAL:
        return centered / centered.std(axis=0)
    return centered
