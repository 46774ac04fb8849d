"""The Layout Determinator — Algorithm 2 (RSSD, Region Stripe Size
Determination).

For each region, iterate candidate stripe pairs ``<h, s>``:

* ``h`` runs from 0 to an upper bound ``B_h`` in ``step`` (4 KB)
  increments — ``h == 0`` is the extreme configuration that places data
  only on SServers;
* ``s`` runs from ``h + step`` to ``B_s`` — SServers never get smaller
  stripes than HServers, "to avoid load imbalance among heterogeneous
  servers";
* each pair's ``Reg_cost`` is the summed cost-model time of every
  request in the region (reads through :math:`T_R`, writes through
  :math:`T_W`), and the cheapest pair wins.

**Bound policies** (the paper's §III-F refinement over HARL):

* ``"adaptive"`` (MHA): when the region's largest request ``r_max`` is
  smaller than ``(M + N) * 64KB`` the bounds are ``B_h = B_s = r_max``
  (search widely, the space is small anyway); otherwise
  ``B_h = r_max / M`` and ``B_s = r_max / N`` (push large requests to
  span all servers, prune the rest of the space).
* ``"average"`` (HARL): both bounds are the region's *average* request
  size, the earlier work's policy MHA improves on.

**Exact bounded search** (burst mode).  Scoring a candidate costs
``O(K·(M + N))`` per-server byte counts, so the grid engine first
computes an ``O(K)`` lower bound on every candidate's ``Σ_b`` burst
cost and scores candidates in ascending order of it: a first phase
(``FIRST_PHASE`` candidates, or ``FIRST_PHASE_ELEMS`` per-server byte
counts when that is more), then every candidate whose bound can still
beat the best exact cost found (:func:`bounded_burst_argmin`).

* *The bound.*  A burst completes at its slowest server (Eq. 2's
  ``max``), and a maximum is at least a mean, so a burst's time is at
  least, for each server class, the mean over the class's servers of
  ``touches·(α + λ) + bytes·(t + β)``.  That mean only needs class
  *totals* per request, each O(1) from the extent's endpoints ``o`` and
  ``e``.  The HServer bytes below position ``y`` are the stripe-cycle
  cumulative function ``F(y) = q·M·h + min(rem, M·h)`` with
  ``q, rem = divmod(y, C)`` (the SServers hold the other ``y − F(y)``),
  so a request's class bytes are ``F(e) − F(o)``.  The extent crosses
  ``ceil(F(e)/h) − floor(F(o)/h)`` HServer windows (SServers: the same
  with ``y − F(y)`` and ``s``), and consecutive windows of one class lie
  on distinct servers, so it touches ``min(M, windows)`` of them —
  exactly the servers Eq. 2 charges a startup on.  Only the
  max-over-servers step loses anything.
* *Exactness.*  Rows of :func:`~repro.core.cost_model.burst_costs_grid`
  are independent, so a scored candidate's cost is bit-identical to its
  exhaustive row.  A skipped candidate's bound, hence its cost, is above
  the best cost; a candidate tied with the minimum has a bound at or
  below it and is always scored.  So the first minimum over the
  candidate order (``np.argmin``, Algorithm 2's strict ``<``) is the
  exhaustive search's pair.  The bound's sums run in a different order
  than the exact ones; the relative margin ``BOUND_MARGIN`` (1e-9) on
  the stopping test absorbs that rounding.
* *Precondition.*  The bound divides in float64, and ``floor``/``ceil``
  of an integer quotient are exact only for integers below ``2**53``;
  :func:`determine_stripes` (and :func:`bounded_burst_argmin`) reject
  extents that end at or beyond ``2**53`` bytes with
  :class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..config import DEFAULT_SAMPLE_SEED
from ..exceptions import ConfigurationError
from ..units import KiB
from .cost_model import batch_costs, batch_costs_grid, burst_costs, burst_costs_grid
from .params import CostModelParams
from .rst import StripePair

__all__ = [
    "StripeDecision",
    "determine_stripes",
    "search_bounds",
    "region_search_task",
    "RegionSearchTask",
    "unique_search_tasks",
    "burst_cost_bounds",
    "bounded_burst_argmin",
]

#: the picklable work unit :func:`region_search_task` consumes:
#: ``(params, offsets, lengths, is_read, concurrency, burst_ids, kwargs)``
RegionSearchTask = tuple[
    CostModelParams,
    np.ndarray,
    np.ndarray,
    np.ndarray,
    np.ndarray,
    "np.ndarray | None",
    dict[str, Any],
]

#: Algorithm 2's default step (user-configurable)
DEFAULT_STEP = 4 * KiB

#: soft cap on the per-server byte counts one grid-engine chunk
#: computes (``chunk * K * (M + N)``); the candidate axis is chunked to
#: stay under it.  The kernels fold servers one at a time, so the live
#: temporaries are ``chunk * K`` elements, a fraction of this budget.
GRID_CHUNK_ELEMS = 8 * 1024 * 1024
#: per-server unit of Algorithm 2's bound threshold (line 3).  The
#: paper uses the PFS default stripe, 64 KB; our calibrated cluster
#: model has a higher startup share per sub-request, which moves the
#: point where striping a request over every server stops paying off,
#: so the default here is one notch higher.  Pass ``threshold_unit``
#: to :func:`search_bounds` / ``determine_stripes`` to restore the
#: paper's literal constant.
BOUND_THRESHOLD_UNIT = 128 * KiB
#: cap on the ``(K, G)`` elements of one :func:`burst_cost_bounds`
#: chunk; it holds about seven such float64 arrays at once, ~1 MiB,
#: which stays in cache (larger chunks measured slower)
BOUND_CHUNK_ELEMS = 1 << 14
#: fewest candidates the bounded search scores before its first
#: stopping test
FIRST_PHASE = 16
#: per-server byte counts the first scoring call covers at least: one
#: ``burst_costs_grid`` call has a fixed cost of about this much
#: scoring work, so a smaller first call saves nothing (and a grid this
#: small is scored whole, without bounds)
FIRST_PHASE_ELEMS = 16 * 1024
#: relative slack on the bounded search's stopping test, far above the
#: rounding gap between the bound's sums and the exact ones
BOUND_MARGIN = 1e-9
#: extents must end below this many bytes: the bound's float64
#: ``floor``/``ceil`` arithmetic is exact only for integers below 2**53
EXACT_LIMIT = 2**53


@dataclass(frozen=True)
class StripeDecision:
    """The outcome of one RSSD search."""

    pair: StripePair
    cost: float
    #: size of the ``<h, s>`` candidate grid
    candidates: int
    bound_h: int
    bound_s: int
    #: candidates that got an exact Eq. 2 sum (the bounded search skips
    #: the rest); not part of the decision's identity
    scored: int = field(compare=False)

    @property
    def h(self) -> int:
        return self.pair.h

    @property
    def s(self) -> int:
        return self.pair.s


def search_bounds(
    params: CostModelParams,
    r_max: int,
    mean_size: float,
    step: int,
    policy: str,
    threshold_unit: int = BOUND_THRESHOLD_UNIT,
) -> tuple[int, int]:
    """Upper bounds ``(B_h, B_s)`` for the stripe search."""
    if policy == "adaptive":
        if r_max < (params.M + params.N) * threshold_unit:
            b_h = b_s = r_max
        else:
            b_h = r_max // max(params.M, 1)
            b_s = r_max // max(params.N, 1)
    elif policy == "average":
        b_h = b_s = int(mean_size)
    else:
        raise ConfigurationError(
            f"unknown bound policy {policy!r}; expected 'adaptive' or 'average'"
        )
    # guarantee a non-empty candidate set even for tiny requests
    b_s = max(b_s, step)
    b_h = max(b_h, 0)
    return b_h, b_s


def _dedupe(
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    concurrency: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse identical (offset, length, op, concurrency) requests.

    Regular HPC patterns repeat the same request tuple many times; the
    cost model is deterministic per tuple, so evaluating each distinct
    tuple once and weighting by multiplicity computes the exact same
    ``Reg_cost`` far faster.
    """
    stacked = np.stack(
        [offsets, lengths, is_read.astype(np.int64), concurrency], axis=1
    )
    uniq, counts = np.unique(stacked, axis=0, return_counts=True)
    return (
        uniq[:, 0],
        uniq[:, 1],
        uniq[:, 2].astype(bool),
        uniq[:, 3],
        counts.astype(np.float64),
    )


def _check_exact_range(offsets: np.ndarray, lengths: np.ndarray) -> None:
    """Reject extents the bound's float64 arithmetic cannot hold exactly."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if (offsets >= EXACT_LIMIT - lengths).any():
        raise ConfigurationError(
            f"request extents must end below 2**53 bytes ({EXACT_LIMIT})"
        )


def burst_cost_bounds(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    burst_ids: np.ndarray,
    h_arr: np.ndarray,
    s_arr: np.ndarray,
) -> np.ndarray:
    """Lower bounds on ``burst_costs_grid(...).sum(axis=1)``.

    Returns shape ``(G,)``: for each candidate, the sum over bursts of
    the larger per-class *mean* server time (see the module docstring),
    which no burst's slowest server can undercut.  Everything runs in a
    request-major ``(K, G)`` layout in float64, exact while every extent
    ends below ``2**53`` bytes.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    h_arr = np.asarray(h_arr, dtype=np.int64)
    s_arr = np.asarray(s_arr, dtype=np.int64)
    M, N = params.M, params.N
    _, inverse = np.unique(burst_ids, return_inverse=True)
    G = h_arr.shape[0]
    B = int(inverse.max()) + 1 if inverse.size else 0
    if G == 0 or B == 0:
        return np.zeros(G, dtype=np.float64)
    if not np.all(inverse[:-1] <= inverse[1:]):
        order = np.argsort(inverse, kind="stable")
        offsets, lengths, is_read, inverse = (
            offsets[order], lengths[order], is_read[order], inverse[order],
        )
    singletons = B == inverse.shape[0]
    seg_starts = np.searchsorted(inverse, np.arange(B))

    h = (h_arr if M > 0 else np.zeros_like(h_arr)).astype(np.float64)
    s = (s_arr if N > 0 else np.zeros_like(s_arr)).astype(np.float64)
    h_span = M * h  # HServer bytes per stripe cycle
    cycle = h_span + N * s
    cyc = np.where(cycle > 0.0, cycle, 1.0)  # stand-in for dead candidates
    ends = (offsets + lengths).astype(np.float64)[:, None]  # (K, 1)
    starts = offsets.astype(np.float64)[:, None]

    def h_cumulative(y: np.ndarray) -> np.ndarray:
        """HServer-class bytes below position ``y``: ``q·M·h +
        min(rem, M·h)`` with ``q, rem = divmod(y, C)``; the SServer
        class holds the other ``y − F(y)``."""
        q = y / cyc
        np.floor(q, out=q)
        np.multiply(q, cyc, out=work)
        np.subtract(y, work, out=work)
        np.minimum(work, h_span, out=work)
        q *= h_span
        q += work
        return q

    def class_mean(
        f_e: np.ndarray,
        f_o: np.ndarray,
        nbytes: np.ndarray,
        width: np.ndarray,
        count: int,
        alpha: float | np.ndarray,
        coef: float | np.ndarray,
    ) -> np.ndarray:
        """``(B, G)`` per-burst mean server time of one class, from the
        class's cumulative bytes ``f_e``/``f_o`` at each extent's ends
        and its ``nbytes`` in between (all three are overwritten).
        ``alpha`` and ``coef`` come pre-divided by ``count``."""
        # windows crossed: ceil(F(e)/w) - floor(F(o)/w), and
        # consecutive windows of a class lie on distinct servers
        w = np.where(width > 0.0, width, 1.0)
        f_e /= w
        np.ceil(f_e, out=f_e)
        f_o /= w
        np.floor(f_o, out=f_o)
        f_e -= f_o
        np.minimum(f_e, count, out=f_e)
        f_e *= alpha
        nbytes *= coef
        f_e += nbytes
        return f_e if singletons else np.add.reduceat(f_e, seg_starts, axis=0)

    lam = params.net_latency
    h_alpha = (params.alpha_h + lam) / max(M, 1)
    h_coef = (params.t + params.beta_h) / max(M, 1)
    s_alpha = (np.where(is_read, params.alpha_sr, params.alpha_sw) + lam) / max(N, 1)
    s_coef = (params.t + np.where(is_read, params.beta_sr, params.beta_sw)) / max(N, 1)
    s_alpha, s_coef = s_alpha[:, None], s_coef[:, None]
    nbytes = lengths.astype(np.float64)[:, None]  # (K, 1)
    if N == 0 or M == 0:
        # one class holds every byte: its cumulative function is y
        f_e, f_o = ends + np.zeros(G), starts + np.zeros(G)
        if N == 0:
            mean = class_mean(f_e, f_o, nbytes, h, M, h_alpha, h_coef)
        else:
            mean = class_mean(f_e, f_o, nbytes, s, N, s_alpha, s_coef)
    else:
        work = np.empty((offsets.shape[0], G), dtype=np.float64)
        h_e, h_o = h_cumulative(ends), h_cumulative(starts)
        h_bytes = h_e - h_o
        # the SServer class holds every other byte
        s_e, s_o, s_bytes = ends - h_e, starts - h_o, nbytes - h_bytes
        mean = class_mean(h_e, h_o, h_bytes, h, M, h_alpha, h_coef)
        s_mean = class_mean(s_e, s_o, s_bytes, s, N, s_alpha, s_coef)
        np.maximum(mean, s_mean, out=mean)
    # dead candidates (cycle == 0) place no byte and cost nothing
    return np.where(cycle > 0.0, mean.sum(axis=0), 0.0)


def bounded_burst_argmin(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    burst_ids: np.ndarray,
    h_arr: np.ndarray,
    s_arr: np.ndarray,
    weight_scale: float = 1.0,
) -> tuple[int, float, int]:
    """Exact first minimum of ``burst_costs_grid(...).sum(axis=1) *
    weight_scale`` over the candidates, scoring only those whose bound
    can still beat the best.

    Returns ``(index, cost, scored)``: the first candidate (in the
    arrays' order) with the minimal cost, that cost, and the number of
    candidates scored.  Candidates are scored in chunks, in ascending
    order of :func:`burst_cost_bounds`, until the next bound exceeds the
    best exact cost by more than ``BOUND_MARGIN``; the module docstring
    has the argument that index and cost equal the exhaustive search's.
    """
    _check_exact_range(offsets, lengths)
    G = int(np.shape(h_arr)[0])
    K = max(1, int(np.shape(offsets)[0]))
    # chunk the candidate axis so each chunk computes at most
    # GRID_CHUNK_ELEMS per-server byte counts
    chunk = max(1, GRID_CHUNK_ELEMS // (K * (params.M + params.N)))
    size = max(FIRST_PHASE, FIRST_PHASE_ELEMS // (K * (params.M + params.N)))
    bounds = np.zeros(G, dtype=np.float64)
    if G > size:  # else the first phase scores every candidate
        step = max(1, BOUND_CHUNK_ELEMS // K)
        bounds = np.concatenate([
            burst_cost_bounds(
                params, offsets, lengths, is_read, burst_ids,
                h_arr[lo : lo + step], s_arr[lo : lo + step],
            )
            for lo in range(0, G, step)
        ]) * weight_scale
    order = np.argsort(bounds, kind="stable")
    ranked = bounds[order]
    costs = np.full(G, np.inf)
    best = np.inf
    scored = 0
    while scored < G:
        limit = best * (1.0 + BOUND_MARGIN)
        live = int(np.searchsorted(ranked, limit, side="right"))
        part = order[scored : min(scored + min(size, chunk), live)]
        if part.size == 0:
            break
        part_costs = burst_costs_grid(
            params, offsets, lengths, is_read, burst_ids, h_arr[part], s_arr[part]
        ).sum(axis=1) * weight_scale
        costs[part] = part_costs
        best = min(best, float(part_costs.min()))
        scored += part.size
        size *= 2  # a better best prunes more of what is left
    idx = int(np.argmin(costs))  # first minimum, like the loop's strict <
    return idx, float(costs[idx]), scored


def determine_stripes(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    concurrency: np.ndarray,
    step: int = DEFAULT_STEP,
    bound_policy: str = "adaptive",
    max_eval_requests: int = 4096,
    seed: int = DEFAULT_SAMPLE_SEED,
    allow_h_zero: bool = True,
    allow_equal_stripes: bool = True,
    max_axis_candidates: int = 64,
    threshold_unit: int = BOUND_THRESHOLD_UNIT,
    burst_ids: np.ndarray | None = None,
    engine: str = "grid",
) -> StripeDecision:
    """Run RSSD over one region's requests.

    With ``burst_ids`` (one id per request; requests sharing an id were
    issued simultaneously) the search evaluates the **exact** burst
    completion times of :func:`repro.core.cost_model.burst_costs` and
    ``Reg_cost`` is their sum — for singleton bursts this is literally
    Algorithm 2 summing Eq. 2 over the requests.  Without ids, the
    statistical burst approximation of ``batch_costs`` is used with the
    per-request ``concurrency`` values.

    ``max_eval_requests`` bounds the number of *distinct* request
    tuples (or, in burst mode, the number of bursts) evaluated per
    candidate pair: beyond it, a seeded uniform sample (with
    re-weighting) approximates ``Reg_cost``.  Since a region holds
    requests the grouping deemed similar, sampling error is small; set
    it very large to force the exact search.

    ``allow_h_zero`` enables Algorithm 2's extreme configuration
    (placing a region only on SServers).

    ``allow_equal_stripes`` additionally admits ``s == h`` candidates.
    Algorithm 2's inner loop starts at ``s = h + step`` as a pruning
    heuristic ("to avoid load imbalance among heterogeneous servers"),
    but when a region's requests match the stripe size exactly the
    balanced point ``s == h`` can be optimal, so the default search
    includes it; pass ``False`` for the paper's literal loop.

    ``max_axis_candidates`` bounds each axis of the search grid: for
    multi-megabyte ``r_max`` the 4 KB grid would hold thousands of
    values per axis, so the effective step is coarsened (in multiples
    of ``step``) to keep at most this many candidates per axis — the
    "finer step = more precise but more calculation" trade-off the
    paper leaves to the user (§III-F).

    ``engine`` selects the search implementation: ``"grid"`` (default)
    evaluates the ``<h, s>`` candidate grid in chunked numpy broadcasts
    — the whole grid through
    :func:`repro.core.cost_model.batch_costs_grid`, or, in burst mode,
    only the candidates :func:`bounded_burst_argmin` cannot rule out
    through :func:`~repro.core.cost_model.burst_costs_grid` — while
    ``"scalar"`` is the literal Algorithm 2 loop evaluating every
    candidate one at a time.  Both walk the identical candidate
    sequence and produce bit-identical costs, so they return the same
    winning pair; the scalar path is kept as the reference
    implementation and for the equivalence tests.
    ``StripeDecision.scored`` counts the candidates that got an exact
    sum.

    Extents must end below ``2**53`` bytes (the bound's exact range);
    longer ones raise :class:`~repro.exceptions.ConfigurationError`.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    concurrency = np.asarray(concurrency, dtype=np.int64)
    if not (offsets.shape == lengths.shape == is_read.shape == concurrency.shape):
        raise ConfigurationError("request arrays must share one shape")
    if offsets.size == 0:
        raise ConfigurationError("cannot determine stripes for an empty region")
    if step <= 0:
        raise ConfigurationError(f"step must be > 0, got {step}")
    if (lengths <= 0).any():
        raise ConfigurationError("request lengths must be positive")
    _check_exact_range(offsets, lengths)

    r_max = int(lengths.max())
    mean_size = float(lengths.mean())
    b_h, b_s = search_bounds(
        params, r_max, mean_size, step, bound_policy, threshold_unit
    )

    if burst_ids is not None:
        burst_ids = np.asarray(burst_ids)
        if burst_ids.shape != offsets.shape:
            raise ConfigurationError("burst_ids must match the request arrays")
        uniq = np.unique(burst_ids)
        weight_scale = 1.0
        if uniq.size > max_eval_requests:
            rng = np.random.default_rng(seed)
            chosen = rng.choice(uniq, size=max_eval_requests, replace=False)
            mask = np.isin(burst_ids, chosen)
            offsets, lengths, is_read, burst_ids = (
                offsets[mask], lengths[mask], is_read[mask], burst_ids[mask],
            )
            weight_scale = uniq.size / max_eval_requests

        # group requests by burst id up front (stable, so within-burst
        # order — and therefore accumulation order — is preserved);
        # every per-candidate evaluation then skips the gather step
        if not np.all(burst_ids[:-1] <= burst_ids[1:]):
            order = np.argsort(burst_ids, kind="stable")
            offsets, lengths, is_read, burst_ids = (
                offsets[order], lengths[order], is_read[order], burst_ids[order],
            )

        def evaluate(h: int, s: int) -> float:
            return float(
                burst_costs(params, offsets, lengths, is_read, burst_ids, h, s).sum()
                * weight_scale
            )

        def search_grid(h_arr: np.ndarray, s_arr: np.ndarray) -> tuple[int, float, int]:
            return bounded_burst_argmin(
                params, offsets, lengths, is_read, burst_ids, h_arr, s_arr,
                weight_scale,
            )

    else:
        offs, lens, reads, conc, weights = _dedupe(
            offsets, lengths, is_read, concurrency
        )
        if offs.shape[0] > max_eval_requests:
            rng = np.random.default_rng(seed)
            pick = rng.choice(offs.shape[0], size=max_eval_requests, replace=False)
            scale = weights.sum() / weights[pick].sum()
            offs, lens, reads, conc = (
                offs[pick], lens[pick], reads[pick], conc[pick],
            )
            weights = weights[pick] * scale

        def evaluate(h: int, s: int) -> float:
            return _weighted_cost(params, offs, lens, reads, conc, weights, h, s)

        def search_grid(h_arr: np.ndarray, s_arr: np.ndarray) -> tuple[int, float, int]:
            G = h_arr.size
            costs = np.empty(G, dtype=np.float64)
            # chunk the candidate axis so each chunk computes at most
            # GRID_CHUNK_ELEMS per-server byte counts
            chunk = max(
                1, GRID_CHUNK_ELEMS // max(1, offs.shape[0] * (params.M + params.N))
            )
            for lo in range(0, G, chunk):
                hi = lo + chunk
                grid = batch_costs_grid(
                    params, offs, lens, reads, conc, h_arr[lo:hi], s_arr[lo:hi]
                )
                costs[lo:hi] = (grid * weights).sum(axis=1)
            idx = int(np.argmin(costs))  # first minimum, like the loop's strict <
            return idx, float(costs[idx]), G

    best_pair: StripePair | None = None
    best_cost = np.inf
    if engine not in ("grid", "scalar"):
        raise ConfigurationError(
            f"unknown search engine {engine!r}; expected 'grid' or 'scalar'"
        )
    if max_axis_candidates <= 0:
        raise ConfigurationError("max_axis_candidates must be >= 1")
    # coarsen the grid (in multiples of `step`) for very large bounds
    h_step = step * max(1, -(-(b_h // step) // max_axis_candidates))
    s_step = step * max(1, -(-(b_s // step) // max_axis_candidates))

    # enumerate the candidate sequence once, in Algorithm 2's loop
    # order (h outer, s inner, both ascending) — both engines walk
    # exactly these arrays, which (with their bit-identical costs) pins
    # down identical tie-breaking
    if params.N == 0:
        # degenerate homogeneous cluster: only HServer stripes exist
        h_arr = np.arange(h_step, b_h + h_step, h_step, dtype=np.int64)
        s_arr = np.zeros_like(h_arr)
    else:
        h_start = 0 if allow_h_zero else h_step
        h_values = np.arange(h_start, b_h + 1, h_step, dtype=np.int64)
        if params.M == 0:
            h_values = np.zeros(1, dtype=np.int64)
        elif h_values.size == 0:
            # bound below one step: smallest legal h only
            h_values = np.array([h_start], dtype=np.int64)
        s_starts = (
            np.maximum(h_values, s_step) if allow_equal_stripes
            else h_values + s_step
        )
        per_h = np.maximum((b_s - s_starts) // s_step + 1, 0)
        h_arr = np.repeat(h_values, per_h)
        # position of each candidate within its h's run of s values
        rank = np.arange(h_arr.size) - np.repeat(np.cumsum(per_h) - per_h, per_h)
        s_arr = np.repeat(s_starts, per_h) + rank * s_step
    candidates = scored = int(h_arr.size)

    if candidates and engine == "grid":
        idx, best_cost, scored = search_grid(h_arr, s_arr)
        best_pair = StripePair(int(h_arr[idx]), int(s_arr[idx]))
    elif candidates:
        for h, s in zip(h_arr.tolist(), s_arr.tolist()):
            cost = evaluate(h, s)
            if cost < best_cost:
                best_cost, best_pair = cost, StripePair(h, s)

    if best_pair is None:
        # every candidate was pruned (e.g. b_s <= step with large h
        # bounds); fall back to the smallest legal pair
        if params.N == 0:
            best_pair = StripePair(step, 0)
        elif allow_h_zero:
            best_pair = StripePair(0, step)
        else:
            best_pair = StripePair(step, 2 * step)
        best_cost = evaluate(best_pair.h, best_pair.s)
        candidates += 1
        scored += 1

    return StripeDecision(
        pair=best_pair,
        cost=float(best_cost),
        candidates=candidates,
        bound_h=b_h,
        bound_s=b_s,
        scored=scored,
    )


def region_search_task(task: RegionSearchTask) -> StripeDecision:
    """Picklable worker for process-parallel region searches.

    ``task`` is ``(params, offsets, lengths, is_read, concurrency,
    burst_ids, kwargs)``; the result is the region's
    :class:`StripeDecision`.  Both :class:`repro.core.pipeline.MHAPipeline`
    and :class:`repro.schemes.harl.HARLScheme` ship these tuples through
    :func:`repro.core.parallel.parallel_map`.
    """
    params, offsets, lengths, is_read, concurrency, burst_ids, kwargs = task
    return determine_stripes(
        params, offsets, lengths, is_read, concurrency,
        burst_ids=burst_ids, **kwargs,
    )


def unique_search_tasks(
    tasks: Sequence[RegionSearchTask],
) -> tuple[list[int], list[int]]:
    """Find the distinct region searches among ``tasks``.

    Tasks match when their parameters, sorted search options and request
    arrays (dtype, shape, bytes) are equal; ``None`` burst ids match only
    ``None``.  Returns ``(first, inverse)``: the index of each distinct
    task's first occurrence, and for every task the position in
    ``first`` of the search that answers it.  The search is
    deterministic, so running only the ``first`` tasks and scattering
    through ``inverse`` gives every task's decision.
    """
    first: list[int] = []
    inverse: list[int] = []
    seen: dict[Hashable, int] = {}
    for i, task in enumerate(tasks):
        params, offsets, lengths, is_read, concurrency, burst_ids, kwargs = task
        arrays = (offsets, lengths, is_read, concurrency, burst_ids)
        key = (
            params,
            tuple(sorted(kwargs.items())),
            tuple(
                None if a is None else (a.dtype.str, a.shape, a.tobytes())
                for a in arrays
            ),
        )
        slot = seen.setdefault(key, len(first))
        if slot == len(first):
            first.append(i)
        inverse.append(slot)
    return first, inverse


def _weighted_cost(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    concurrency: np.ndarray,
    weights: np.ndarray,
    h: int,
    s: int,
) -> float:
    costs = batch_costs(params, offsets, lengths, is_read, concurrency, h, s)
    return float((costs * weights).sum())
