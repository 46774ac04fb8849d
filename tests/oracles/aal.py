"""Scalar reference for AAL's stripe search.

The record-walking form of
:meth:`repro.schemes.aal.AALScheme.stripe_for`: it scores one candidate
stripe at a time through the scalar
:func:`~repro.core.cost_model.burst_costs`, with burst ids from the
record-path :func:`~tests.oracles.analysis.burst_ids_of`, walking the
candidates upward and keeping one only when it is strictly cheaper.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterSpec
from repro.config import DEFAULT_SAMPLE_SEED
from repro.core.cost_model import burst_costs
from repro.determinism import SeedDomain, derive_rng
from repro.schemes.aal import AALScheme
from repro.schemes.default import DEFAULT_STRIPE
from repro.tracing.record import Trace

from .analysis import burst_ids_of

__all__ = ["aal_stripe_reference"]


def aal_stripe_reference(scheme: AALScheme, spec: ClusterSpec, trace: Trace) -> int:
    """The stripe ``scheme.stripe_for(spec, trace)`` must return."""
    if len(trace) == 0:
        return DEFAULT_STRIPE
    params = scheme._homogeneous_params(spec)
    burst_map = burst_ids_of(trace)
    offsets = np.array([r.offset for r in trace], dtype=np.int64)
    lengths = np.array([r.size for r in trace], dtype=np.int64)
    is_read = np.array([r.op == "read" for r in trace], dtype=bool)
    bursts = np.array([burst_map[r] for r in trace], dtype=np.int64)
    if len(trace) > scheme.max_eval_requests:
        rng = derive_rng(SeedDomain.SAMPLE, base=DEFAULT_SAMPLE_SEED)
        pick = rng.choice(len(trace), size=scheme.max_eval_requests, replace=False)
        offsets, lengths, is_read, bursts = (
            offsets[pick],
            lengths[pick],
            is_read[pick],
            bursts[pick],
        )
    best_stripe, best_cost = DEFAULT_STRIPE, np.inf
    upper = max(scheme.step, int(lengths.mean()))
    for stripe in range(scheme.step, upper + scheme.step, scheme.step):
        cost = burst_costs(params, offsets, lengths, is_read, bursts, stripe, 0).sum()
        if cost < best_cost:
            best_cost, best_stripe = cost, stripe
    return best_stripe
