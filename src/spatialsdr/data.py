"""Spatial regression sample container and split helper."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .geometry import Coordinates


@dataclass(frozen=True)
class SpatialSample:
    """n locations with p predictors and a scalar response each."""

    coords: Coordinates
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        if x.ndim != 2:
            raise InputError("predictors must form an n x p matrix")
        if x.shape[0] != self.coords.n or y.shape[0] != self.coords.n:
            raise InputError(
                f"row counts disagree: {self.coords.n} locations, "
                f"{x.shape[0]} predictor rows, {y.shape[0]} responses"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError("predictors and response must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.coords.n

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def subset(self, idx: np.ndarray) -> "SpatialSample":
        return SpatialSample(
            coords=Coordinates(self.coords.points[idx]),
            x=self.x[idx],
            y=self.y[idx],
        )


def train_test_split(
    sample: SpatialSample, train_frac: float, rng: np.random.Generator
) -> tuple[SpatialSample, SpatialSample]:
    """Uniformly random split without spatial stratification, two points or more a side."""
    if not 0.0 < train_frac < 1.0:
        raise InputError("train_frac must be in (0, 1)")
    if sample.n < 4:
        raise InputError(f"a split needs n >= 4, two points on each side, got n={sample.n}")
    n_train = min(max(int(round(train_frac * sample.n)), 2), sample.n - 2)
    perm = rng.permutation(sample.n)
    return sample.subset(perm[:n_train]), sample.subset(perm[n_train:])
