"""Record-path reference for MHA's off-line planning (paper Fig. 6).

:class:`RecordPipeline` plans a :class:`~repro.tracing.record.Trace`
the way the record path did: each file's sub-trace is grouped from the
record-walking :func:`~tests.oracles.features.extract_features`,
per-group concurrency and burst ids are record-keyed dicts (so a
duplicate record takes the value of the last group that holds it), and
:func:`~tests.oracles.reorganizer.reorganize` builds the regions.
Every region is searched on its own, without the per-build dedupe.
:meth:`RecordPipeline.plan_file` is the reference of
:meth:`repro.core.pipeline.MHAPipeline.plan_file_columnar`, and
:meth:`RecordPipeline.plan` must equal ``MHAPipeline.plan``.
"""

from __future__ import annotations

import numpy as np

from repro.core.determinator import RegionSearchTask, region_search_task
from repro.core.drt import DRT
from repro.core.grouping import GroupingResult, group_requests, suggest_k
from repro.core.pipeline import MHAPipeline, MHAPlan
from repro.core.placer import place_regions
from repro.core.redirector import Redirector
from repro.core.reorganizer import ReorderPlan
from repro.core.rst import RST
from repro.tracing.analysis import concurrency_of
from repro.tracing.record import Trace, TraceRecord

from .analysis import burst_ids_of
from .features import extract_features
from .reorganizer import reorganize

__all__ = ["RecordPipeline"]


class RecordPipeline(MHAPipeline):
    """:class:`MHAPipeline` with the record-walking planning path."""

    def plan_file(
        self, file: str, sub: Trace, drt: DRT
    ) -> tuple[ReorderPlan, GroupingResult, list[str], list[RegionSearchTask]]:
        """Grouping + reordering of one offset-sorted single-file trace.

        Appends the file's DRT entries to ``drt`` and returns the plan,
        the grouping, and one region name and search task per region.
        """
        features = extract_features(sub, gap=self.gap, spatial=self.spatial)
        distinct = int(np.unique(features.points, axis=0).shape[0]) if len(sub) else 1
        k = self.k
        if k is None:
            k = suggest_k(len(sub), distinct, self.max_groups)
        grouping = group_requests(features, k=k, seed=self.seed)
        conc: dict[TraceRecord, int] = {}
        bursts: dict[TraceRecord, int] = {}
        next_burst = 0
        for g in range(grouping.k):
            members = Trace(sub[int(i)] for i in grouping.members(g))
            conc.update(concurrency_of(members, gap=self.gap, spatial=self.spatial))
            ids = burst_ids_of(members, gap=self.gap, spatial=self.spatial)
            for record, local_id in ids.items():
                bursts[record] = next_burst + local_id
            next_burst += (max(ids.values()) + 1) if ids else 0
        plan = reorganize(sub, grouping, conc, o_file=file, drt=drt, bursts=bursts)
        region_names: list[str] = []
        search_tasks: list[RegionSearchTask] = []
        for region in plan.regions:
            arrays = region.request_arrays()
            region_names.append(region.name)
            search_tasks.append((self.params, *arrays, self.search_kwargs()))
        return plan, grouping, region_names, search_tasks

    def plan(self, trace: Trace) -> MHAPlan:  # type: ignore[override]
        """Reordering + determination + placement over a record trace."""
        drt = DRT(self.drt_path) if self.drt_path else DRT()
        rst = RST(self.rst_path) if self.rst_path else RST()
        reorder_plans = {}
        groupings = {}
        original_layouts = {}
        region_names: list[str] = []
        search_tasks: list[RegionSearchTask] = []
        for file in trace.files():
            sub = trace.for_file(file).sorted_by_offset()
            original_layouts[file] = self._original_layout(file)
            plan, grouping, names, tasks = self.plan_file(file, sub, drt)
            reorder_plans[file] = plan
            groupings[file] = grouping
            region_names.extend(names)
            search_tasks.extend(tasks)

        decisions = {}
        for name, task in zip(region_names, search_tasks):
            decisions[name] = region_search_task(task)
            rst.set(name, decisions[name].pair)
        region_layouts = place_regions(self.spec, rst)
        return MHAPlan(
            drt=drt,
            rst=rst,
            region_layouts=region_layouts,
            original_layouts=original_layouts,
            redirector=Redirector(drt, region_layouts, original_layouts),
            reorder_plans=reorder_plans,
            groupings=groupings,
            decisions=decisions,
        )
