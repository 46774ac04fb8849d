"""Request feature extraction for similar-access detection.

§III-D: each request is a point ``(x, y)`` in a two-dimensional
Euclidean space — ``x`` the request size, ``y`` the request concurrency
— and distances are normalized per axis by the spread of the projected
points (Eq. 1), "to enable different dimensions to have a uniform
compared space".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import twin_of
from ..numerics import replace_near_zero
from ..tracing.columnar import ColumnarTrace, concurrency_columnar

__all__ = [
    "FeatureSet",
    "extract_features_columnar",
    "normalized_distances",
]


@dataclass(frozen=True)
class FeatureSet:
    """Feature matrix for a trace: one ``(size, concurrency)`` row per request.

    ``points`` has shape ``(n, 2)`` with float dtype; ``spread`` holds
    the per-axis ``max - min`` normalizers of Eq. 1 (1.0 where the axis
    is constant, so constant axes contribute zero distance without
    dividing by zero).
    """

    points: np.ndarray
    spread: np.ndarray

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError(f"points must be (n, 2), got {self.points.shape}")
        if self.spread.shape != (2,):
            raise ValueError(f"spread must be (2,), got {self.spread.shape}")

    def __len__(self) -> int:
        return self.points.shape[0]

    def normalized(self) -> np.ndarray:
        """Points scaled into the uniform compared space of Eq. 1."""
        return self.points / self.spread


@twin_of(
    "tests.oracles.features:extract_features",
    kind="bit_identical",
    harness="features_columnar",
)
def extract_features_columnar(
    trace: ColumnarTrace, gap: float = 0.5, spatial: bool | int = False
) -> FeatureSet:
    """Build the ``(size, concurrency)`` feature matrix for a trace.

    Concurrency comes from phase analysis of the timestamps
    (:func:`repro.tracing.columnar.concurrency_columnar`); requests in
    the same I/O burst (and, when ``spatial`` is enabled, the same file
    neighbourhood) share a concurrency value.  Sizes and concurrency
    values are exact integers, so the float64 matrix is exact.
    """
    n = len(trace)
    points = np.zeros((n, 2), dtype=np.float64)
    if n:
        points[:, 0] = trace.data["size"]
        points[:, 1] = concurrency_columnar(trace, gap=gap, spatial=spatial)
    spread = _spread(points)
    return FeatureSet(points=points, spread=spread)


def _spread(points: np.ndarray) -> np.ndarray:
    """Per-axis ``max - min``, with (near-)constant axes mapped to 1.0.

    Tolerance-based: an axis whose spread is ``1e-17`` is constant for
    normalisation purposes, and exact ``== 0.0`` would miss it and then
    divide by it.
    """
    if points.shape[0] == 0:
        return np.ones(2)
    spread = points.max(axis=0) - points.min(axis=0)
    return replace_near_zero(spread, 1.0)


def normalized_distances(features: FeatureSet, centers: np.ndarray) -> np.ndarray:
    """Eq. 1 distances from every point to every center.

    ``centers`` has shape ``(k, 2)`` in raw feature units; the result is
    ``(n, k)``.
    """
    if centers.ndim != 2 or centers.shape[1] != 2:
        raise ValueError(f"centers must be (k, 2), got {centers.shape}")
    scaled_points = features.normalized()[:, None, :]
    scaled_centers = (centers / features.spread)[None, :, :]
    return np.sqrt(((scaled_points - scaled_centers) ** 2).sum(axis=2))
