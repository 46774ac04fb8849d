"""Record-path reference for the Algorithm 1 feature matrix.

The record-walking form of
:func:`repro.core.features.extract_features_columnar`: concurrency from
the record-keyed :func:`~repro.tracing.analysis.concurrency_of`, one
row filled at a time.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import FeatureSet, _spread
from repro.tracing.analysis import concurrency_of
from repro.tracing.record import Trace

__all__ = ["extract_features"]


def extract_features(
    trace: Trace, gap: float = 0.5, spatial: bool | int = False
) -> FeatureSet:
    """The ``(size, concurrency)`` feature matrix of a record trace."""
    n = len(trace)
    points = np.zeros((n, 2), dtype=np.float64)
    if n:
        conc = concurrency_of(trace, gap=gap, spatial=spatial)
        for row, record in enumerate(trace):
            points[row, 0] = record.size
            points[row, 1] = conc[record]
    return FeatureSet(points=points, spread=_spread(points))
