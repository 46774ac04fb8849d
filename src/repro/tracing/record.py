"""Trace records — the unit of I/O profiling data.

The paper's collector (IOSIG) records, per file operation: process ID,
MPI rank, file descriptor, request type, file offset, request size and
time stamp (§III-C).  :class:`TraceRecord` carries exactly those
fields (plus the file name, which IOSIG keeps in its per-file trace
naming).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from ..devices.base import READ, WRITE
from ..exceptions import TraceError

__all__ = ["TraceRecord", "Trace"]


@dataclass(frozen=True, order=True)
class TraceRecord:
    """One file operation observed by the collector.

    Ordering is by ``(offset, timestamp, rank)`` so that a sorted trace
    is "in ascending order in terms of offsets" as §III-C requires for
    the downstream phases.
    """

    offset: int
    timestamp: float
    rank: int
    pid: int = 0
    fd: int = 0
    file: str = "file"
    op: str = READ
    size: int = 0

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise TraceError(f"offset must be >= 0, got {self.offset}")
        if self.size <= 0:
            raise TraceError(f"size must be > 0, got {self.size}")
        if self.op not in (READ, WRITE):
            raise TraceError(f"op must be 'read' or 'write', got {self.op!r}")
        if self.timestamp < 0:
            raise TraceError(f"timestamp must be >= 0, got {self.timestamp}")

    @property
    def end(self) -> int:
        """One past the last byte the request touches."""
        return self.offset + self.size

    def shifted(self, delta: int) -> "TraceRecord":
        """Copy with the offset moved by ``delta`` bytes."""
        return replace(self, offset=self.offset + delta)


class Trace(Sequence[TraceRecord]):
    """An immutable sequence of trace records with common queries."""

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        self._records: tuple[TraceRecord, ...] = tuple(records)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return Trace(self._records[index])
        return self._records[index]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._records == other._records

    def __hash__(self) -> int:
        return hash(self._records)

    def sorted_by_offset(self) -> "Trace":
        """Records in ascending offset order (§III-C ordering)."""
        return Trace(sorted(self._records))

    def sorted_by_time(self) -> "Trace":
        """Records in issue order.

        The key is the full ``(timestamp, rank, offset, size)`` tuple so
        the ordering is specified, not an accident of sort stability —
        the columnar ``time_order`` argsort mirrors exactly this key.
        """
        return Trace(
            sorted(
                self._records,
                key=lambda r: (r.timestamp, r.rank, r.offset, r.size),
            )
        )

    def for_file(self, file: str) -> "Trace":
        """Only the records touching ``file``."""
        return Trace(r for r in self._records if r.file == file)

    def files(self) -> tuple[str, ...]:
        """Distinct file names, in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self._records:
            seen.setdefault(r.file, None)
        return tuple(seen)

    def ranks(self) -> tuple[int, ...]:
        """Distinct ranks, ascending."""
        return tuple(sorted({r.rank for r in self._records}))

    def total_bytes(self) -> int:
        """Sum of request sizes."""
        return sum(r.size for r in self._records)

    def extent(self) -> tuple[int, int]:
        """Smallest ``[lo, hi)`` covering every request (0,0 if empty)."""
        if not self._records:
            return (0, 0)
        lo = min(r.offset for r in self._records)
        hi = max(r.end for r in self._records)
        return (lo, hi)

    def max_size(self) -> int:
        """Largest request size (``r_max`` in Algorithm 2); 0 if empty."""
        return max((r.size for r in self._records), default=0)

    def __repr__(self) -> str:
        return f"Trace({len(self._records)} records)"
