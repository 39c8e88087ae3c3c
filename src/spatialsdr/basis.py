"""Response feature construction for the inverse regression.

The conditional mean of the predictors is modeled as linear in a small set
of response features, the polynomial terms ``y, y**2, ..., y**degree``
(Cook & Forzani 2008).  Columns are centered and scaled to unit standard
deviation so fitting works on a well-conditioned scale (rescaling changes
neither the fitted mean surface nor the reduction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConstantResponseError, InputError, RankDeficientBasisError

POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class BasisSpec:
    """User-facing choice of feature family and dimension: ``kind`` must be
    ``"polynomial"``, and ``degree`` is the polynomial degree."""

    kind: str = POLYNOMIAL
    degree: int = 2

    def __post_init__(self) -> None:
        if self.kind != POLYNOMIAL:
            raise InputError(f"unknown basis kind {self.kind!r}")
        if self.degree < 1:
            raise InputError("basis degree must be >= 1")


def polynomial_features(y: np.ndarray, degree: int) -> np.ndarray:
    """Raw (uncentered) columns ``y, y**2, ..., y**degree``."""
    y = np.asarray(y, dtype=float)
    return np.column_stack([y**j for j in range(1, degree + 1)])


def build_f(y: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """The centered n x r training feature matrix the fitters use, columns
    scaled to unit standard deviation.

    Raises ``ConstantResponseError`` for a constant response and
    ``RankDeficientBasisError`` when the centered columns do not span
    ``degree`` dimensions.
    """
    y = np.asarray(y, dtype=float).ravel()
    n, r = y.size, spec.degree
    if n <= r:
        raise InputError(f"need n > degree, got n={n}, degree={r}")
    if np.ptp(y) == 0.0:
        raise ConstantResponseError("response is constant")
    raw = polynomial_features(y, r)
    centered = raw - raw.mean(axis=0)
    if np.linalg.matrix_rank(centered) < r:
        raise RankDeficientBasisError(
            f"centered features span fewer than {r} dimensions"
        )
    return centered / centered.std(axis=0)
