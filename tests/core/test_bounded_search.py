"""The exact bounded RSSD search against exhaustive scoring.

The burst-mode grid engine scores only the ``<h, s>`` candidates whose
Eq. 2 lower bound (:func:`repro.core.determinator.burst_cost_bounds`)
can still beat the best exact cost.  These properties pin down that
this is an optimisation, not an approximation:

(a) the bound never exceeds a candidate's exact ``Σ_b`` burst cost
    (beyond the search's documented relative margin);
(b) ``determine_stripes`` returns the exhaustive scalar loop's pair and
    a bit-identical cost, with sampling, forced ties and degenerate
    ``h = 0`` / ``M = 0`` / ``N = 0`` clusters;
(c) AAL's stripe is the exhaustive argmin.

Regions mix reads and writes, and bursts are singletons, grouped, or
grouped with their ids shuffled along the requests.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import CostModelParams, MHAPipeline, determinator, determine_stripes
from repro.core.cost_model import burst_costs_grid
from repro.core.determinator import (
    BOUND_MARGIN,
    EXACT_LIMIT,
    FIRST_PHASE,
    bounded_burst_argmin,
    burst_cost_bounds,
)
from repro.exceptions import ConfigurationError
from repro.schemes import AALScheme
from repro.tracing import Trace, TraceRecord
from repro.units import KiB, MiB
from repro.workloads import IORWorkload
from tests.oracles.aal import aal_stripe_reference

STEP = 4 * KiB

#: the first phase's work floor: the default, or none at all, so the
#: small regions generated here reach the bound and its stopping test
first_phase_elems = st.sampled_from([determinator.FIRST_PHASE_ELEMS, 0])


def first_phase(elems):
    return mock.patch.object(determinator, "FIRST_PHASE_ELEMS", elems)


@st.composite
def cost_params(draw):
    """Cost-model parameters over clusters with and without each class."""
    M, N = draw(
        st.sampled_from([(6, 2), (3, 3), (1, 1), (4, 0), (1, 0), (0, 2), (0, 1)])
    )
    startup = st.floats(min_value=0.0, max_value=1e-2)
    unit = st.floats(min_value=0.0, max_value=1e-7)
    return CostModelParams(
        M=M,
        N=N,
        t=draw(unit),
        alpha_h=draw(startup),
        beta_h=draw(unit),
        alpha_sr=draw(startup),
        beta_sr=draw(unit),
        alpha_sw=draw(startup),
        beta_sw=draw(unit),
        net_latency=draw(st.floats(min_value=0.0, max_value=1e-4)),
    )


@st.composite
def regions(draw, max_requests=40):
    """``(offsets, lengths, is_read, concurrency, burst_ids)`` of one
    region; ``tied`` regions hold sub-step requests at offset 0, which
    many candidates serve at the same cost."""
    K = draw(st.integers(min_value=1, max_value=max_requests))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()) and draw(st.booleans()):  # tied, one time in four
        offsets = np.zeros(K, dtype=np.int64)
        lengths = rng.integers(1, STEP + 1, K)
    else:
        offsets = rng.integers(0, 1 << 24, K)
        lengths = rng.integers(1, draw(st.sampled_from([STEP, 1 << 17, 1 << 20])), K)
    is_read = rng.random(K) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    concurrency = rng.integers(1, 8, K)
    shape = draw(st.sampled_from(["singleton", "grouped", "shuffled"]))
    if shape == "singleton":
        bursts = np.arange(K)
    else:
        bursts = np.sort(rng.integers(0, max(1, K // 3), K))
        if shape == "shuffled":
            bursts = rng.permutation(bursts)
    return offsets, lengths, is_read, concurrency, bursts


def candidates(rng, G):
    """Random stripe pairs, zero stripes included."""
    return rng.integers(0, 48, G) * STEP, rng.integers(0, 48, G) * STEP


class TestBound:
    @given(params=cost_params(), region=regions(), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_bound_never_exceeds_the_exact_sum(self, params, region, seed):
        offsets, lengths, is_read, _, bursts = region
        h_arr, s_arr = candidates(np.random.default_rng(seed), 40)
        bound = burst_cost_bounds(
            params, offsets, lengths, is_read, bursts, h_arr, s_arr
        )
        exact = burst_costs_grid(
            params, offsets, lengths, is_read, bursts, h_arr, s_arr
        ).sum(axis=1)
        assert bound.shape == exact.shape
        assert np.all(bound >= 0.0)
        assert np.all(bound <= exact * (1.0 + BOUND_MARGIN)), np.max(bound / exact)

    def test_bound_is_tight_for_one_server(self):
        """With one server the mean is the max: bound == cost."""
        params = CostModelParams(
            M=1, N=0, t=1e-9, alpha_h=1e-3, beta_h=2e-8, alpha_sr=0.0,
            beta_sr=0.0, alpha_sw=0.0, beta_sw=0.0,
        )
        offsets = np.array([0, 5000, 70000])
        lengths = np.array([4096, 9000, 100])
        is_read = np.array([True, False, True])
        bursts = np.array([0, 0, 1])
        h_arr = np.array([4096, 8192, 65536])
        s_arr = np.zeros(3, dtype=np.int64)
        bound = burst_cost_bounds(
            params, offsets, lengths, is_read, bursts, h_arr, s_arr
        )
        exact = burst_costs_grid(
            params, offsets, lengths, is_read, bursts, h_arr, s_arr
        ).sum(axis=1)
        np.testing.assert_allclose(bound, exact, rtol=1e-12)


class TestSearchMatchesExhaustive:
    @given(
        params=cost_params(),
        region=regions(),
        max_eval=st.sampled_from([2, 5, 4096]),
        policy=st.sampled_from(["adaptive", "average"]),
        allow_h_zero=st.booleans(),
        allow_equal=st.booleans(),
        axis=st.sampled_from([4, 12, 24]),
        elems=first_phase_elems,
    )
    @settings(max_examples=150, deadline=None)
    def test_same_pair_and_bit_identical_cost(
        self, params, region, max_eval, policy, allow_h_zero, allow_equal, axis, elems
    ):
        offsets, lengths, is_read, conc, bursts = region
        kw = dict(
            burst_ids=bursts,
            max_eval_requests=max_eval,
            bound_policy=policy,
            allow_h_zero=allow_h_zero,
            allow_equal_stripes=allow_equal,
            max_axis_candidates=axis,
            seed=7,
        )
        with first_phase(elems):
            grid = determine_stripes(
                params, offsets, lengths, is_read, conc, engine="grid", **kw
            )
        scalar = determine_stripes(
            params, offsets, lengths, is_read, conc, engine="scalar", **kw
        )
        assert grid.pair == scalar.pair
        assert grid.cost == scalar.cost  # bit-identical, no tolerance
        assert grid.candidates == scalar.candidates
        assert 1 <= grid.scored <= grid.candidates
        assert scalar.scored == scalar.candidates

    @given(
        params=cost_params(),
        region=regions(),
        seed=st.integers(0, 2**16),
        elems=first_phase_elems,
    )
    @settings(max_examples=100, deadline=None)
    def test_first_of_tied_candidates_wins(self, params, region, seed, elems):
        """Every candidate listed twice: each cost is tied with its
        copy, and the first copy must win as in ``np.argmin``."""
        offsets, lengths, is_read, _, bursts = region
        h_arr, s_arr = candidates(np.random.default_rng(seed), 3 * FIRST_PHASE)
        h_arr, s_arr = np.tile(h_arr, 2), np.tile(s_arr, 2)
        with first_phase(elems):
            idx, cost, scored = bounded_burst_argmin(
                params, offsets, lengths, is_read, bursts, h_arr, s_arr
            )
        exhaustive = burst_costs_grid(
            params, offsets, lengths, is_read, bursts, h_arr, s_arr
        ).sum(axis=1)
        assert idx == int(np.argmin(exhaustive))
        assert cost == exhaustive[idx]
        assert scored <= h_arr.size

    @pytest.mark.parametrize("seed", range(12))
    def test_candidates_within_the_margin_of_the_best_are_scored(self, seed):
        """Stand-in bounds, valid up to the search's margin: the first
        minimal-cost candidate's bound sits just above its cost and
        ranks last, while a tied copy later in the list ranks first.
        The earlier candidate must still be scored and win."""
        params = CostModelParams.from_cluster(ClusterSpec())
        rng = np.random.default_rng(seed)
        offsets = rng.integers(0, 1 << 22, 24)
        lengths = rng.integers(1, 1 << 18, 24)
        is_read = rng.random(24) < 0.5
        bursts = np.sort(rng.integers(0, 8, 24))
        h_arr, s_arr = candidates(rng, 200)
        h_arr, s_arr = np.tile(h_arr, 2), np.tile(s_arr, 2)
        exact = burst_costs_grid(
            params, offsets, lengths, is_read, bursts, h_arr, s_arr
        ).sum(axis=1)
        first = int(np.argmin(exact))
        # every other candidate ranks ahead of the first minimal one,
        # the tied copies ahead of all
        bounds = exact[first] * rng.uniform(0.6, 1.0, exact.size)
        bounds[exact == exact[first]] = 0.5 * exact[first]
        bounds[first] = exact[first] * (1.0 + BOUND_MARGIN / 10)

        def stand_in(*args):
            assert len(args[5]) == bounds.size  # one bound chunk
            return bounds

        with mock.patch.object(determinator, "burst_cost_bounds", stand_in):
            with first_phase(0):
                idx, cost, scored = bounded_burst_argmin(
                    params, offsets, lengths, is_read, bursts, h_arr, s_arr
                )
        assert (idx, cost) == (first, exact[first])

    def test_equal_decisions_ignore_the_scored_count(self):
        params = CostModelParams.from_cluster(ClusterSpec())
        rng = np.random.default_rng(3)
        offsets = rng.integers(0, 1 << 24, 64)
        lengths = rng.integers(1, 1 << 20, 64)
        is_read = rng.random(64) < 0.5
        conc = np.ones(64, dtype=np.int64)
        bursts = np.repeat(np.arange(8), 8)
        grid, scalar = (
            determine_stripes(
                params, offsets, lengths, is_read, conc, burst_ids=bursts, engine=e
            )
            for e in ("grid", "scalar")
        )
        assert grid.scored < scalar.scored == scalar.candidates
        assert grid == scalar


@st.composite
def aal_traces(draw):
    """One file's trace with enough large requests that AAL's stripe
    range outgrows the first phase, so its bound decides."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=512),  # offset, 4 KiB units
                st.sampled_from([3 * KiB, 64 * KiB, 160 * KiB, 256 * KiB]),
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # timestamp
                st.integers(min_value=0, max_value=7),  # rank
                st.sampled_from(["read", "write"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return Trace(
        [
            TraceRecord(offset=off * 4 * KiB, timestamp=ts, rank=rank, op=op, size=size)
            for off, size, ts, rank, op in rows
        ]
    )


class TestAAL:
    @given(
        trace=aal_traces(),
        spec=st.sampled_from([ClusterSpec(), ClusterSpec(2, 0), ClusterSpec(1, 1)]),
        max_eval=st.sampled_from([4, 4096]),
        elems=first_phase_elems,
    )
    @settings(max_examples=80, deadline=None)
    def test_stripe_is_the_exhaustive_argmin(self, trace, spec, max_eval, elems):
        scheme = AALScheme(max_eval_requests=max_eval)
        with first_phase(elems):
            stripe = scheme.stripe_for(spec, trace)
        assert stripe == aal_stripe_reference(scheme, spec, trace)


class TestExactRange:
    def _search(self, offset, length, **kw):
        params = CostModelParams.from_cluster(ClusterSpec())
        return determine_stripes(
            params,
            np.array([offset]),
            np.array([length]),
            np.array([True]),
            np.array([1]),
            burst_ids=np.array([0]),
            **kw,
        )

    @pytest.mark.parametrize("engine", ["grid", "scalar"])
    def test_extent_ending_at_2_53_rejected(self, engine):
        with pytest.raises(ConfigurationError, match="2\\*\\*53"):
            self._search(EXACT_LIMIT - 64 * KiB, 64 * KiB, engine=engine)

    def test_extent_beyond_2_53_rejected(self):
        with pytest.raises(ConfigurationError):
            self._search(EXACT_LIMIT, 1)

    def test_batch_mode_is_checked_too(self):
        params = CostModelParams.from_cluster(ClusterSpec())
        with pytest.raises(ConfigurationError):
            determine_stripes(
                params, np.array([EXACT_LIMIT]), np.array([4096]),
                np.array([True]), np.array([1]),
            )

    def test_extent_ending_just_below_2_53_is_searched(self):
        grid = self._search(EXACT_LIMIT - 1 - 256 * KiB, 256 * KiB)
        scalar = self._search(EXACT_LIMIT - 1 - 256 * KiB, 256 * KiB, engine="scalar")
        assert grid.pair == scalar.pair and grid.cost == scalar.cost

    def test_bounded_argmin_checks_its_own_inputs(self):
        params = CostModelParams.from_cluster(ClusterSpec())
        with pytest.raises(ConfigurationError):
            bounded_burst_argmin(
                params, np.array([EXACT_LIMIT - 1]), np.array([2]),
                np.array([True]), np.array([0]), np.array([4096]), np.array([4096]),
            )


class TestScoredRegressionGuard:
    """A fixed IOR trace whose regions hold ~100 requests each over
    grids of 2,000+ candidates: if the search fell back to scoring
    every candidate, ``scored`` would show it."""

    @pytest.mark.parametrize("op", ["write", "read"])
    def test_ior_regions_score_at_most_a_quarter_of_their_grid(self, op):
        trace = IORWorkload(
            num_processes=64,
            request_sizes=[256 * KiB, 1 * MiB],
            total_size=256 * MiB,
        ).trace(op)
        plan = MHAPipeline(ClusterSpec(), seed=0).plan(trace)
        decisions = list(plan.decisions.values())
        assert len(decisions) >= 4
        for d in decisions:
            assert d.candidates > 2000
            assert d.scored >= 1
            assert 4 * d.scored <= d.candidates, (d.scored, d.candidates)
