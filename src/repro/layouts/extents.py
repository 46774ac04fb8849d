"""Closed-form per-server extent accounting for varied striping.

The RSSD stripe search (Algorithm 2) evaluates the cost model for
hundreds of ``<h, s>`` candidates over every request in a region.
Enumerating fragments for each combination would be quadratic in
practice, so the cost model instead uses the *closed-form* functions
here: how many bytes of a logical extent land on each server, and how
many distinct stripe windows (hence positioning startups) it touches —
in O(M + N) per request with no fragment lists.

Correctness is cross-checked against the explicit fragment mapper in
property tests (``tests/layouts/test_extents.py``).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..contracts import twin_of

__all__ = [
    "bytes_in_window",
    "windows_touched",
    "per_server_bytes",
    "per_server_bytes_batch",
    "server_byte_counts",
    "max_server_bytes_grid",
]


def bytes_in_window(offset: int, length: int, start: int, width: int, cycle: int) -> int:
    """Bytes of ``[offset, offset+length)`` whose position mod ``cycle``
    falls in ``[start, start+width)``.

    This counts the bytes of a logical extent that belong to one
    server's periodic stripe window.
    """
    if width <= 0 or length <= 0:
        return 0
    if cycle <= 0:
        raise ValueError(f"cycle must be > 0, got {cycle}")

    def cumulative(y: int) -> int:
        # bytes in [0, y) whose (pos mod cycle) lies in [start, start+width)
        full, rem = divmod(y, cycle)
        return full * width + min(max(rem - start, 0), width)

    return cumulative(offset + length) - cumulative(offset)


def windows_touched(offset: int, length: int, start: int, width: int, cycle: int) -> int:
    """Number of distinct periodic windows the extent intersects.

    Window ``k`` occupies ``[k*cycle + start, k*cycle + start + width)``.
    Each touched window is one contiguous fragment on that server, i.e.
    one potential positioning startup.
    """
    if width <= 0 or length <= 0:
        return 0
    if cycle <= 0:
        raise ValueError(f"cycle must be > 0, got {cycle}")
    end = offset + length
    # Window k intersects iff  k*cycle + start < end  and
    # k*cycle + start + width > offset, i.e.
    #   k <= floor((end - start - 1) / cycle)   and
    #   k >= ceil((offset - start - width + 1) / cycle).
    k_max = (end - start - 1) // cycle
    k_lo = -((-(offset - start - width + 1)) // cycle)  # ceil division
    if k_max < k_lo:
        return 0
    return k_max - k_lo + 1


def per_server_bytes(
    offset: int, length: int, M: int, N: int, h: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bytes of an extent on each HServer and SServer under ``<h, s>``.

    Returns ``(h_bytes, s_bytes)`` with shapes ``(M,)`` and ``(N,)``.
    Servers with stripe 0 receive 0 bytes.
    """
    h_eff = h if M > 0 else 0
    s_eff = s if N > 0 else 0
    cycle = M * h_eff + N * s_eff
    h_bytes = np.zeros(M, dtype=np.int64)
    s_bytes = np.zeros(N, dtype=np.int64)
    if cycle == 0 or length <= 0:
        return h_bytes, s_bytes
    for i in range(M):
        h_bytes[i] = bytes_in_window(offset, length, i * h_eff, h_eff, cycle)
    base = M * h_eff
    for j in range(N):
        s_bytes[j] = bytes_in_window(offset, length, base + j * s_eff, s_eff, cycle)
    return h_bytes, s_bytes


def per_server_bytes_batch(
    offsets: np.ndarray, lengths: np.ndarray, M: int, N: int, h: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`per_server_bytes` over many extents.

    ``offsets`` and ``lengths`` are 1-D integer arrays of equal shape;
    the result is ``(h_bytes, s_bytes)`` with shapes ``(K, M)`` and
    ``(K, N)`` for ``K`` extents.  This is the kernel the RSSD search
    calls once per ``<h, s>`` candidate.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.shape != lengths.shape or offsets.ndim != 1:
        raise ValueError("offsets and lengths must be equal-shape 1-D arrays")
    K = offsets.shape[0]
    h_eff = h if M > 0 else 0
    s_eff = s if N > 0 else 0
    cycle = M * h_eff + N * s_eff
    h_bytes = np.zeros((K, M), dtype=np.int64)
    s_bytes = np.zeros((K, N), dtype=np.int64)
    if cycle == 0 or K == 0:
        return h_bytes, s_bytes

    ends = offsets + lengths

    def cumulative(y: np.ndarray, start: int, width: int) -> np.ndarray:
        full, rem = np.divmod(y, cycle)
        return full * width + np.clip(rem - start, 0, width)

    if h_eff > 0:
        for i in range(M):
            a = i * h_eff
            h_bytes[:, i] = cumulative(ends, a, h_eff) - cumulative(offsets, a, h_eff)
    if s_eff > 0:
        base = M * h_eff
        for j in range(N):
            a = base + j * s_eff
            s_bytes[:, j] = cumulative(ends, a, s_eff) - cumulative(offsets, a, s_eff)
    # zero out degenerate (length <= 0) rows
    empty = lengths <= 0
    if empty.any():
        h_bytes[empty] = 0
        s_bytes[empty] = 0
    return h_bytes, s_bytes


def server_byte_counts(
    offsets: np.ndarray,
    lengths: np.ndarray,
    M: int,
    N: int,
    h_arr: np.ndarray,
    s_arr: np.ndarray,
) -> Iterator[np.ndarray]:
    """Per-server byte counts over a grid of ``G`` candidate pairs,
    one server at a time.

    Yields ``M + N`` int64 arrays of shape ``(G, K)`` — the HServers in
    order, then the SServers — where entry ``[g, k]`` equals
    ``per_server_bytes_batch(offsets, lengths, M, N, h_arr[g],
    s_arr[g])`` for request ``k`` on that server.  The stripe-cycle
    decomposition of both extent endpoints is computed once and shared
    by every server, and consumers fold each server into an ``O(G·K)``
    accumulator, so no ``(G, K, M + N)`` tensor is ever built.  All
    arithmetic is exact int64.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    h_arr = np.asarray(h_arr, dtype=np.int64)
    s_arr = np.asarray(s_arr, dtype=np.int64)
    if offsets.shape != lengths.shape or offsets.ndim != 1:
        raise ValueError("offsets and lengths must be equal-shape 1-D arrays")
    if h_arr.shape != s_arr.shape or h_arr.ndim != 1:
        raise ValueError("h_arr and s_arr must be equal-shape 1-D arrays")
    h_eff = h_arr if M > 0 else np.zeros_like(h_arr)
    s_eff = s_arr if N > 0 else np.zeros_like(s_arr)
    cycle = M * h_eff + N * s_eff  # (G,)
    # dead candidates (cycle == 0) have zero-width windows everywhere,
    # so any positive stand-in cycle leaves their byte counts at 0
    cyc = np.where(cycle > 0, cycle, 1)[:, None]  # (G, 1)
    # degenerate (length <= 0) extents end where they start: 0 bytes
    ends = offsets + np.maximum(lengths, 0)
    full_e, rem_e = np.divmod(ends[None, :], cyc)  # (G, K)
    full_o, rem_o = np.divmod(offsets[None, :], cyc)
    cycles = full_e - full_o  # whole cycles between the endpoints

    def window_bytes(a: np.ndarray, w: np.ndarray, base: np.ndarray) -> np.ndarray:
        # in-place min/max: np.clip's value, without its wrapper cost
        tail_e = rem_e - a
        np.maximum(tail_e, 0, out=tail_e)
        np.minimum(tail_e, w, out=tail_e)
        tail_o = rem_o - a
        np.maximum(tail_o, 0, out=tail_o)
        np.minimum(tail_o, w, out=tail_o)
        tail_e -= tail_o
        tail_e += base
        return tail_e

    if M > 0:
        w = h_eff[:, None]
        base = cycles * w
        for i in range(M):
            yield window_bytes(i * w, w, base)
    if N > 0:
        start0 = (M * h_eff)[:, None]
        w = s_eff[:, None]
        base = cycles * w
        for j in range(N):
            yield window_bytes(start0 + j * w, w, base)


@twin_of(
    "repro.layouts.extents:per_server_bytes_batch",
    kind="reduction",
    param_map={"h": "h_arr", "s": "s_arr"},
    harness="extents_max_grid",
)
def max_server_bytes_grid(
    offsets: np.ndarray,
    lengths: np.ndarray,
    M: int,
    N: int,
    h_arr: np.ndarray,
    s_arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class *maximum* per-server byte count over a candidate grid.

    Returns ``(h_max, s_max)`` of shape ``(G, K)`` — for each candidate
    pair and request, the byte count of the most-loaded HServer and
    SServer: the :func:`server_byte_counts` of each class folded into a
    running maximum, so no ``(G, K, M)`` tensor is ever materialized.
    Integer arithmetic throughout — exactly the scalar path's values.

    This is the kernel of the vectorized *batch* cost path, where the
    per-class completion bound only depends on the most-loaded server a
    request touches.
    """
    G, K = np.shape(h_arr)[0], np.shape(offsets)[0]
    h_max = np.zeros((G, K), dtype=np.int64)
    s_max = np.zeros((G, K), dtype=np.int64)
    for i, counts in enumerate(
        server_byte_counts(offsets, lengths, M, N, h_arr, s_arr)
    ):
        out = h_max if i < M else s_max
        np.maximum(out, counts, out=out)
    return h_max, s_max
