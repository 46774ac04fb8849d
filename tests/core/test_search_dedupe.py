"""Each build searches each distinct region once.

Two files with identical request patterns produce identical region
search tasks in MHA's Determination phase and in HARL's build; the
fan-out sites run every distinct task once and scatter the decisions
back, so the plans equal a per-region ``determine_stripes`` reference
and do not depend on the worker count.
"""

import numpy as np

import repro.core.pipeline as pipeline_module
import repro.schemes.harl as harl_module
from repro.cluster import ClusterSpec
from repro.core import CostModelParams, MHAPipeline, determine_stripes
from repro.core.determinator import region_search_task, unique_search_tasks
from repro.schemes import HARLScheme
from repro.tracing import Trace, TraceRecord
from repro.units import KiB

SPEC = ClusterSpec()


def _twin_file_trace() -> Trace:
    """Files ``a`` and ``b`` receive the same requests at the same times."""
    records = []
    for file in ("a", "b"):
        for step in range(6):
            for rank in range(8):
                size = 64 * KiB if rank % 2 else 16 * KiB
                offset = (step * 8 + rank) * 64 * KiB
                records.append(
                    TraceRecord(
                        offset=offset,
                        timestamp=float(step),
                        rank=rank,
                        op="read" if step % 3 else "write",
                        size=size,
                        file=file,
                    )
                )
    return Trace(records)


def _counting(monkeypatch, module):
    """Replace ``module.region_search_task`` with a recording wrapper."""
    calls = []

    def counted(task):
        calls.append(task)
        return region_search_task(task)

    monkeypatch.setattr(module, "region_search_task", counted)
    return calls


def _assert_distinct(calls):
    first, _ = unique_search_tasks(calls)
    assert len(first) == len(calls), "a distinct task ran more than once"


class TestUniqueSearchTasks:
    def _task(self, burst_ids=None, **overrides):
        params = CostModelParams.from_cluster(SPEC)
        offsets = np.array([0, 4096], dtype=np.int64)
        lengths = np.array([4096, 4096], dtype=np.int64)
        is_read = np.array([True, False])
        conc = np.array([1, 1], dtype=np.int64)
        kwargs = dict(step=4096, seed=0, **overrides)
        return (params, offsets, lengths, is_read, conc, burst_ids, kwargs)

    def test_content_equal_tasks_share_one_search(self):
        ids = np.array([0, 1], dtype=np.int64)
        tasks = [
            self._task(ids),
            self._task(ids.copy()),
            self._task(),
            self._task(ids, engine="scalar"),
            self._task(ids.astype(np.int32)),
            self._task(ids),
        ]
        first, inverse = unique_search_tasks(tasks)
        assert first == [0, 2, 3, 4]
        assert inverse == [0, 0, 1, 2, 3, 0]

    def test_kwarg_order_does_not_matter(self):
        a, b = self._task(), self._task()
        b = b[:-1] + (dict(reversed(list(b[-1].items()))),)
        assert unique_search_tasks([a, b]) == ([0], [0, 0])

    def test_empty(self):
        assert unique_search_tasks([]) == ([], [])


class TestMHADedupe:
    def test_each_distinct_region_searched_once(self, monkeypatch):
        trace = _twin_file_trace()
        calls = _counting(monkeypatch, pipeline_module)
        pipeline = MHAPipeline(SPEC, seed=0, n_jobs=1)
        plan = pipeline.plan(trace)

        _assert_distinct(calls)
        # every region of file b repeats a region of file a
        assert 0 < len(calls) <= len(plan.decisions) // 2

        params = CostModelParams.from_cluster(SPEC)
        for reorder in plan.reorder_plans.values():
            for region in reorder.regions:
                offsets, lengths, is_read, conc, bursts = region.request_arrays()
                reference = determine_stripes(
                    params, offsets, lengths, is_read, conc,
                    burst_ids=bursts, **pipeline.search_kwargs(),
                )
                assert plan.decisions[region.name] == reference
                assert plan.rst.get(region.name) == reference.pair

    def test_worker_count_does_not_change_the_plan(self):
        trace = _twin_file_trace()
        serial = MHAPipeline(SPEC, seed=0, n_jobs=1).plan(trace)
        pooled = MHAPipeline(SPEC, seed=0, n_jobs=2).plan(trace)
        assert pooled.decisions == serial.decisions


class TestHARLDedupe:
    def test_each_distinct_region_searched_once(self, monkeypatch):
        trace = _twin_file_trace()
        calls = _counting(monkeypatch, harl_module)
        seen = []

        def spying(tasks):
            seen.extend(tasks)
            return unique_search_tasks(tasks)

        monkeypatch.setattr(harl_module, "unique_search_tasks", spying)
        scheme = HARLScheme(n_jobs=1)
        scheme.build(SPEC, trace)

        _assert_distinct(calls)
        assert len(seen) == len(scheme.decisions)
        assert 0 < len(calls) <= len(seen) // 2
        # the decisions follow the task order; each must equal a fresh
        # search of its own region
        reference = [
            determine_stripes(
                params, offsets, lengths, is_read, conc, burst_ids=bursts, **kwargs
            ).pair
            for params, offsets, lengths, is_read, conc, bursts, kwargs in seen
        ]
        assert list(scheme.decisions.values()) == reference

    def test_worker_count_does_not_change_the_decisions(self):
        trace = _twin_file_trace()
        serial, pooled = HARLScheme(n_jobs=1), HARLScheme(n_jobs=2)
        serial.build(SPEC, trace)
        pooled.build(SPEC, trace)
        assert pooled.decisions == serial.decisions
