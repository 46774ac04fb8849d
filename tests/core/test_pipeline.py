"""Integration tests for the five-phase MHA pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline
from repro.core.pipeline import identity_redirector
from repro.exceptions import ConfigurationError
from repro.layouts import check_tiling
from repro.tracing import ColumnarTrace, Trace, TraceRecord
from repro.units import KiB
from tests.oracles.pipeline import RecordPipeline


def rec(offset, size, ts, rank=0, op="write", file="f"):
    return TraceRecord(offset=offset, timestamp=ts, rank=rank, size=size, op=op, file=file)


def mixed_trace(loops=6, procs=4):
    """Alternating small/large phases, LANL-style."""
    records = []
    area = loops * (1 * KiB + 127 * KiB)
    for loop in range(loops):
        for rank in range(procs):
            base = rank * area + loop * 128 * KiB
            records.append(rec(base, 1 * KiB, ts=loop * 20.0, rank=rank))
            records.append(
                rec(base + 1 * KiB, 127 * KiB, ts=loop * 20.0 + 10.0, rank=rank)
            )
    return Trace(records)


@pytest.fixture
def spec():
    return ClusterSpec()


class TestPlan:
    def test_end_to_end_plan(self, spec):
        plan = MHAPipeline(spec, seed=1).plan(mixed_trace())
        assert plan.num_regions >= 2
        assert len(plan.drt) > 0
        assert len(plan.rst) == plan.num_regions
        assert plan.migrated_bytes() == mixed_trace().total_bytes() // 1  # claimed once
        assert "MHA plan" in plan.describe()

    def test_every_request_maps_and_tiles(self, spec):
        trace = mixed_trace()
        plan = MHAPipeline(spec, seed=1).plan(trace)
        for record in trace:
            frags = plan.redirector.map_request(record.file, record.offset, record.size)
            check_tiling(record.offset, record.size, frags)

    def test_grouping_separates_small_and_large(self, spec):
        plan = MHAPipeline(spec, seed=1).plan(mixed_trace())
        grouping = plan.groupings["f"]
        sizes = {round(c[0]) for c in grouping.centers}
        assert 1 * KiB in sizes and 127 * KiB in sizes

    def test_deterministic(self, spec):
        a = MHAPipeline(spec, seed=5).plan(mixed_trace())
        b = MHAPipeline(spec, seed=5).plan(mixed_trace())
        assert list(a.rst) == list(b.rst)

    def test_multi_file_trace(self, spec):
        records = []
        for f in ("a", "b"):
            for i in range(4):
                records.append(rec(i * 64 * KiB, 64 * KiB, ts=float(i), file=f))
        plan = MHAPipeline(spec, seed=0).plan(Trace(records))
        assert set(plan.reorder_plans) == {"a", "b"}
        for record in records:
            frags = plan.redirector.map_request(record.file, record.offset, record.size)
            check_tiling(record.offset, record.size, frags)

    def test_empty_trace(self, spec):
        plan = MHAPipeline(spec).plan(Trace([]))
        assert plan.num_regions == 0
        assert len(plan.drt) == 0

    def test_persistence(self, spec, tmp_path):
        pipeline = MHAPipeline(
            spec,
            seed=1,
            drt_path=tmp_path / "drt.db",
            rst_path=tmp_path / "rst.db",
        )
        plan = pipeline.plan(mixed_trace())
        n_entries, n_regions = len(plan.drt), len(plan.rst)
        plan.drt.close()
        plan.rst.close()
        from repro.core import DRT, RST

        with DRT(tmp_path / "drt.db") as drt, RST(tmp_path / "rst.db") as rst:
            assert len(drt) == n_entries
            assert len(rst) == n_regions

    def test_k_override(self, spec):
        plan = MHAPipeline(spec, k=1, seed=0).plan(mixed_trace())
        assert plan.groupings["f"].k == 1

    def test_invalid_k(self, spec):
        with pytest.raises(ConfigurationError):
            MHAPipeline(spec, k=0)

    def test_max_groups_cap(self, spec):
        plan = MHAPipeline(spec, max_groups=2, seed=0).plan(mixed_trace())
        assert plan.groupings["f"].k <= 2


class TestIdentityRedirector:
    def test_maps_back_to_original_offsets(self, spec):
        trace = mixed_trace(loops=2, procs=2)
        redirector = identity_redirector(spec, trace)
        for record in trace:
            frags = redirector.map_request(record.file, record.offset, record.size)
            check_tiling(record.offset, record.size, frags)
            assert all(f.obj == record.file for f in frags)

    def test_every_lookup_hits_the_drt(self, spec):
        trace = mixed_trace(loops=2, procs=2)
        redirector = identity_redirector(spec, trace)
        redirector.map_request("f", trace[0].offset, trace[0].size)
        assert redirector.stats.translated_extents >= 1
        assert redirector.stats.fallthrough_extents == 0



# rows of (offset, size, timestamp, rank, op, file, emit twice?) with
# tie-heavy timestamps and duplicate records, the inputs where the
# record path's dict-keyed per-group values collapse
_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([0.0, 0.25, 1.0, 5.0]),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["read", "write"]),
        st.sampled_from(["a", "b", "c"]),
        st.booleans(),
    ),
    max_size=24,
)


def _plan_summary(plan):
    """Every observable of a plan, in comparable form."""
    return (
        list(plan.drt),
        list(plan.rst),
        {name: (d.pair, d.cost) for name, d in plan.decisions.items()},
        {
            file: [(r.name, r.size, r.requests) for r in rp.regions]
            for file, rp in plan.reorder_plans.items()
        },
        {file: rp.migrated_bytes for file, rp in plan.reorder_plans.items()},
        {file: g.labels.tolist() for file, g in plan.groupings.items()},
        list(plan.original_layouts),
        sorted(plan.region_layouts),
    )


class TestRecordReference:
    """``MHAPipeline.plan`` equals the record-path reference planner."""

    @given(rows=_rows, k=st.sampled_from([None, 1, 3]))
    @settings(max_examples=30, deadline=None)
    def test_plan_matches_record_pipeline(self, rows, k):
        records = []
        for off, size, ts, rank, op, file, dup in rows:
            record = rec(off * 16 * KiB, size * 16 * KiB, ts, rank, op, file)
            records.extend([record, record] if dup else [record])
        trace = Trace(records)
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        kwargs = dict(k=k, seed=3, n_jobs=1, max_eval_requests=64)
        want = _plan_summary(RecordPipeline(spec, **kwargs).plan(trace))
        assert _plan_summary(MHAPipeline(spec, **kwargs).plan(trace)) == want
        columnar = ColumnarTrace.from_trace(trace)
        assert _plan_summary(MHAPipeline(spec, **kwargs).plan(columnar)) == want

    def test_mixed_trace(self, spec):
        trace = mixed_trace(loops=3, procs=3)
        want = RecordPipeline(spec, seed=1).plan(trace)
        got = MHAPipeline(spec, seed=1).plan(trace)
        assert _plan_summary(got) == _plan_summary(want)
        assert np.array_equal(
            got.groupings["f"].centers, want.groupings["f"].centers
        )
