"""Record-path reference for the Data Reorganizer (§III-E).

The record-walking form of :func:`repro.core.reorganizer.reorganize_arrays`:
per-record concurrency and burst ids arrive as record-keyed mappings,
phase 1 sorts each group's records with ``sorted()``, and phase 2
translates one record at a time through :meth:`DRT.translate`.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.drt import DRT, DRTEntry
from repro.core.grouping import GroupingResult
from repro.core.intervals import IntervalSet
from repro.core.reorganizer import RegionPlan, RegionRequest, ReorderPlan, region_name
from repro.exceptions import ConfigurationError
from repro.tracing.record import Trace, TraceRecord

__all__ = ["reorganize"]


def reorganize(
    trace: Trace,
    grouping: GroupingResult,
    concurrency: Mapping[TraceRecord, int],
    o_file: str | None = None,
    drt: DRT | None = None,
    bursts: Mapping[TraceRecord, int] | None = None,
) -> ReorderPlan:
    """Build regions + DRT from a grouped single-file record trace.

    ``grouping.labels[i]`` labels ``trace[i]``; records missing from
    ``concurrency`` count as concurrency 1, and from ``bursts`` as
    singleton bursts.
    """
    if len(grouping.labels) != len(trace):
        raise ConfigurationError(
            f"grouping labels ({len(grouping.labels)}) do not match trace "
            f"({len(trace)} records)"
        )
    files = trace.files()
    if len(files) > 1:
        raise ConfigurationError(
            f"reorganize expects a single-file trace, got files {files}"
        )
    if o_file is None:
        o_file = files[0] if files else "file"
    if drt is None:
        drt = DRT()

    claimed = IntervalSet()
    regions = [
        RegionPlan(name=region_name(o_file, g), group=g) for g in range(grouping.k)
    ]
    migrated = 0

    # Phase 1 — claim bytes group by group, offset order inside a group.
    for region in regions:
        member_indices = grouping.members(region.group)
        members = sorted(
            (trace[int(i)] for i in member_indices),
            key=lambda r: (r.offset, r.timestamp),
        )
        for record in members:
            for gap_start, gap_end in claimed.add(record.offset, record.end):
                entry = DRTEntry(
                    o_file=o_file,
                    o_offset=gap_start,
                    length=gap_end - gap_start,
                    r_file=region.name,
                    r_offset=region.size,
                )
                drt.add(entry)
                region.size += entry.length
                migrated += entry.length

    # Phase 2 — express every request in region coordinates via the DRT.
    by_name = {r.name: r for r in regions}
    for record in trace:
        conc = concurrency.get(record, 1)
        burst = bursts.get(record, -1) if bursts else -1
        pending: dict[str, RegionRequest] = {}
        for extent in drt.translate(o_file, record.offset, record.size):
            if not extent.mapped:
                continue
            prev = pending.get(extent.file)
            if prev is not None and prev.offset + prev.length == extent.offset:
                pending[extent.file] = RegionRequest(
                    offset=prev.offset,
                    length=prev.length + extent.length,
                    op=record.op,
                    concurrency=conc,
                    burst=burst,
                )
            else:
                if prev is not None:
                    by_name[extent.file].requests.append(prev)
                pending[extent.file] = RegionRequest(
                    offset=extent.offset,
                    length=extent.length,
                    op=record.op,
                    concurrency=conc,
                    burst=burst,
                )
        for name, fragment in pending.items():
            by_name[name].requests.append(fragment)

    regions = [r for r in regions if r.size > 0 or r.requests]
    return ReorderPlan(o_file=o_file, regions=regions, drt=drt, migrated_bytes=migrated)
