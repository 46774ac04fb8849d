"""Record-path reference for per-record burst ids.

The record-keyed form of
:func:`repro.tracing.columnar.burst_ids_columnar`: one dict entry per
distinct record, numbered by the order of
:func:`~repro.tracing.analysis.burst_clusters`' bursts.
"""

from __future__ import annotations

from repro.tracing.analysis import burst_clusters
from repro.tracing.record import Trace, TraceRecord

__all__ = ["burst_ids_of"]


def burst_ids_of(
    trace: Trace, gap: float = 0.5, spatial: bool | int = False
) -> dict[TraceRecord, int]:
    """Per-record burst identifier (dense ints, one per burst).

    Records that compare equal share one entry, so a duplicate keeps
    the id of the **last** burst that contains it.
    """
    mapping: dict[TraceRecord, int] = {}
    for idx, members in enumerate(burst_clusters(trace, gap=gap, spatial=spatial)):
        for record in members:
            mapping[record] = idx
    return mapping
