"""Tests for feature extraction and Eq. 1 normalized distances."""

import numpy as np
import pytest

from repro.core import extract_features_columnar, normalized_distances
from repro.tracing import ColumnarTrace, Trace, TraceRecord


def rec(offset, size, ts, rank=0):
    return TraceRecord(offset=offset, timestamp=ts, rank=rank, size=size)


def features_of(trace):
    return extract_features_columnar(ColumnarTrace.from_trace(trace))


class TestExtractFeatures:
    def test_size_and_concurrency_columns(self):
        t = Trace([rec(0, 100, 0.0), rec(200, 300, 0.0, rank=1)])
        fs = features_of(t)
        assert fs.points.shape == (2, 2)
        assert list(fs.points[:, 0]) == [100, 300]
        assert list(fs.points[:, 1]) == [2, 2]  # same burst

    def test_phases_give_distinct_concurrency(self):
        t = Trace(
            [rec(0, 100, 0.0)]
            + [rec(100 * i, 100, 10.0, rank=i) for i in range(1, 5)]
        )
        fs = features_of(t)
        assert fs.points[0, 1] == 1
        assert all(fs.points[i, 1] == 4 for i in range(1, 5))

    def test_empty_trace(self):
        fs = features_of(Trace([]))
        assert len(fs) == 0
        assert list(fs.spread) == [1.0, 1.0]

    def test_constant_axis_spread_is_one(self):
        t = Trace([rec(0, 100, 0.0), rec(200, 100, 0.0, rank=1)])
        fs = features_of(t)
        assert fs.spread[0] == 1.0  # constant size axis
        assert fs.spread[1] == 1.0  # constant concurrency axis

    def test_spread_is_max_minus_min(self):
        t = Trace([rec(0, 100, 0.0), rec(200, 500, 10.0)])
        fs = features_of(t)
        assert fs.spread[0] == 400


class TestNormalizedDistances:
    def test_eq1_shape(self):
        t = Trace([rec(0, 100, 0.0), rec(200, 500, 10.0)])
        fs = features_of(t)
        centers = np.array([[100.0, 1.0], [500.0, 1.0]])
        d = normalized_distances(fs, centers)
        assert d.shape == (2, 2)
        assert d[0, 0] == pytest.approx(0.0)
        assert d[1, 1] == pytest.approx(0.0)
        # normalization: the two points are exactly one size-spread apart
        assert d[0, 1] == pytest.approx(1.0)

    def test_normalization_balances_axes(self):
        # raw scales differ by 1000x but normalized distances match
        pts = np.array([[0.0, 0.0], [1000.0, 1.0]])
        from repro.core import FeatureSet
        from repro.core.features import _spread

        fs = FeatureSet(points=pts, spread=_spread(pts))
        d = normalized_distances(fs, np.array([[0.0, 0.0]]))
        assert d[1, 0] == pytest.approx(np.sqrt(2.0))

    def test_bad_center_shape(self):
        t = Trace([rec(0, 100, 0.0)])
        fs = features_of(t)
        with pytest.raises(ValueError):
            normalized_distances(fs, np.zeros((2, 3)))

    def test_bad_points_shape(self):
        from repro.core import FeatureSet

        with pytest.raises(ValueError):
            FeatureSet(points=np.zeros((3, 3)), spread=np.ones(2))
        with pytest.raises(ValueError):
            FeatureSet(points=np.zeros((3, 2)), spread=np.ones(3))
