"""AAL and HARL decide the same way for every trace representation.

* AAL's grid search picks exactly the stripe of the scalar reference in
  :mod:`tests.oracles.aal`, including the subsampling branch, the
  single-candidate case, mixed reads and writes and traces whose burst
  ids are not in record order.
* HARL builds the same decisions and the same layouts from a record
  ``Trace`` and from its ``ColumnarTrace``, with duplicate records and
  requests straddling region boundaries in the input.
* No scheme build reads a columnar trace one record at a time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.schemes import AALScheme, DEFScheme, HARLScheme, MHAScheme
from repro.tracing import ColumnarTrace, Trace, TraceRecord
from repro.units import KiB, MiB
from repro.workloads import IORWorkload
from tests.oracles.aal import aal_stripe_reference

_specs = st.sampled_from(
    [ClusterSpec(), ClusterSpec(num_hservers=3, num_sservers=0), ClusterSpec(1, 1)]
)

# raw rows: sizes mix sub-step requests with multi-stripe ones, so the
# average-size bound yields one candidate on some traces and dozens on
# others; timestamps come from a tie-heavy menu and rows arrive in
# arbitrary time order, so burst ids are not sorted along the records
_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=256),  # offset in 4 KiB units
        st.sampled_from([512, 3 * KiB, 4 * KiB, 20 * KiB, 64 * KiB, 200 * KiB]),
        st.sampled_from([0.0, 0.25, 0.3, 1.0, 1.05, 5.0]),  # timestamp
        st.integers(min_value=0, max_value=5),  # rank
        st.sampled_from(["read", "write"]),
        st.sampled_from(["a", "b"]),  # file
        st.booleans(),  # emit the record twice?
    ),
    min_size=0,
    max_size=24,
)


def _trace(rows):
    records = []
    for off, size, ts, rank, op, file, dup in rows:
        record = TraceRecord(
            offset=off * 4 * KiB, timestamp=ts, rank=rank, op=op, size=size, file=file
        )
        records.append(record)
        if dup:
            records.append(record)
    return Trace(records)


def _by_file(trace):
    """``(file, sub-trace)`` pairs in first-appearance order."""
    return [(file, trace.for_file(file)) for file in trace.files()]


class TestAALMatchesScalarReference:
    @given(
        rows=_rows,
        spec=_specs,
        step=st.sampled_from([4 * KiB, 8 * KiB]),
        max_eval=st.sampled_from([3, 8, 4096]),
    )
    @settings(max_examples=120, deadline=None)
    def test_stripe_for(self, rows, spec, step, max_eval):
        trace = _trace(rows)
        scheme = AALScheme(step=step, max_eval_requests=max_eval)
        want = aal_stripe_reference(scheme, spec, trace)
        assert scheme.stripe_for(spec, trace) == want
        assert scheme.stripe_for(spec, ColumnarTrace.from_trace(trace)) == want

    @given(rows=_rows, max_eval=st.sampled_from([3, 4096]))
    @settings(max_examples=40, deadline=None)
    def test_build_decisions(self, rows, max_eval):
        trace = _trace(rows)
        spec = ClusterSpec()
        scheme = AALScheme(max_eval_requests=max_eval)
        want = {
            file: aal_stripe_reference(scheme, spec, sub)
            for file, sub in _by_file(trace)
        }
        scheme.build(spec, ColumnarTrace.from_trace(trace))
        assert scheme.decisions == want
        scheme.build(spec, trace)
        assert scheme.decisions == want

    def test_single_candidate_and_sampling_branches(self):
        spec = ClusterSpec()
        tiny = _trace([(i, 512, 0.0, i, "read", "a", False) for i in range(6)])
        scheme = AALScheme(max_eval_requests=4)
        # mean below one step: the step itself is the only candidate
        assert scheme.stripe_for(spec, tiny) == scheme.step
        assert aal_stripe_reference(scheme, spec, tiny) == scheme.step
        mixed = _trace(
            [
                (7 * i % 50, 64 * KiB if i % 3 else 4 * KiB, 0.3 * (i % 4), i % 5,
                 "read" if i % 2 else "write", "a", i % 7 == 0)
                for i in range(30)
            ]
        )
        assert len(mixed) > scheme.max_eval_requests
        assert scheme.stripe_for(spec, mixed) == aal_stripe_reference(
            scheme, spec, mixed
        )


def _region_runs(view, trace):
    """``merged_runs`` of every recorded request, file by file."""
    return {
        file: view.merged_runs(
            file, [r.offset for r in sub], [r.size for r in sub]
        )
        for file, sub in _by_file(trace)
    }


class TestHARLRecordColumnarParity:
    def _assert_same_build(self, trace, num_regions):
        spec = ClusterSpec()
        by_record, by_column = HARLScheme(num_regions), HARLScheme(num_regions)
        view_r = by_record.build(spec, trace)
        view_c = by_column.build(spec, ColumnarTrace.from_trace(trace))
        assert by_record.decisions == by_column.decisions
        assert _region_runs(view_r, trace) == _region_runs(view_c, trace)
        return by_record

    def test_duplicates_and_straddling_requests(self):
        # 32 KiB requests at a 24 KiB pitch: consecutive requests
        # overlap and many cross the 256 KiB region boundaries
        rows = [
            (6 * i, 32 * KiB, 0.25 * (i % 3), i % 4, "read" if i % 2 else "write",
             "a", i % 5 == 0)
            for i in range(48)
        ]
        trace = _trace(rows)
        scheme = HARLScheme(num_regions=4)
        bounds = scheme._region_bounds(trace.extent()[1], trace.max_size())
        assert len(bounds) > 1
        inner = [start for start, _ in bounds[1:]]
        assert any(r.offset < b < r.end for r in trace for b in inner)
        assert len(set(trace)) < len(trace)
        harl = self._assert_same_build(trace, num_regions=4)
        assert harl.decisions

    @given(rows=_rows, num_regions=st.sampled_from([1, 4, 16]))
    @settings(max_examples=40, deadline=None)
    def test_random_traces(self, rows, num_regions):
        self._assert_same_build(_trace(rows), num_regions)

    def test_decisions_exist_before_build(self):
        assert HARLScheme().decisions == {}


@pytest.mark.parametrize("scheme_cls", [DEFScheme, AALScheme, HARLScheme, MHAScheme])
def test_builds_never_materialize_columnar_records(monkeypatch, scheme_cls):
    trace = IORWorkload(
        num_processes=4, request_sizes=[32 * KiB, 128 * KiB], total_size=4 * MiB, seed=3
    ).columnar("write")

    def refuse(self, i):
        raise AssertionError("scheme build read a columnar trace record by record")

    monkeypatch.setattr(ColumnarTrace, "record", refuse)
    view = scheme_cls().build(ClusterSpec(), trace)
    assert view.map_request(trace.files()[0], 0, 4 * KiB)
