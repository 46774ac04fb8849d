"""The benchmark's workloads: the inputs each builds from its seed, the
entry points it calls, and how its output is checked.

Why these three (each stresses different layers):

* ``figures`` — every ``ALL_FIGURES`` entry at its defaults: the
  paper's evaluation.  Reads beside writes, DEF/AAL/HARL/MHA builds and
  flat-engine replay; per-record ``ColumnarTrace.record`` views and
  the Eq. 2 cost model dominate.
* ``serve`` — ``serve_scenario`` with 300 tenants that share almost all
  of their planning work: AAL's stripe loop repeats the same Eq. 2
  evaluations, so a cost-model change shows here first.
* ``online`` — ``phase_shift_experiment`` at 128 MiB: event-engine
  replay with a per-record controller hook and background migration
  writes beside foreground reads.  No search repeats and the cost
  model is a few percent, so a cost-model change should not move it
  while a replay change should.

Each workload takes ``--seed``: figures pass it to every figure that
takes a seed (Fig. 7, 8, 10 and 13b), serve uses it as the arrival
seed and online as the phase-B shuffle seed.

An operation is one checked unit of work: an entry-point call (fails
if it raises), a replay (fails if it completes fewer requests or bytes
than its trace holds), a serve tenant (fails unless ``completed ==
requests``) and the online post-swap mapping (fails unless 100 %
identical to the off-line plan).
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from tracer import Patches, Tracer

SIZES = ("full", "small")

#: replay entry points, at the attribute each caller looks up
REPLAY_SITES = ("repro.pfs.replay", "repro.tenancy.service", "repro.online.experiment")

#: the figures whose tables hold wall-clock time (kept out of the digest)
TIMED_FIGURES = frozenset({"fig14"})

#: the figures and arguments of the small size (smoke tests only)
SMALL_FIGURES: dict[str, dict[str, Any]] = {
    "fig08": {"total_mib": 4},
    "fig14": {"proc_counts": (8,), "total_mib": 1, "repeats": 1},
}


@dataclass
class Outcome:
    """What one execution of a workload produced and how it checked out."""

    digest: str = ""
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def call(self, label: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one entry point; a raise is a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{label} raised:\n{traceback.format_exc()}")
            return None


class ReplayCheck:
    """Checks every replay's completions against its trace."""

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self._patches = Patches()

    def install(self) -> None:
        for site in REPLAY_SITES:
            module = importlib.import_module(site)
            self._patches.set(module, "replay_trace", self._checked(module.replay_trace))

    def restore(self) -> None:
        self._patches.restore()

    def _checked(self, replay: Callable[..., Any]) -> Callable[..., Any]:
        outcome = self.outcome

        def replay_trace(pfs: Any, view: Any, trace: Any, **kwargs: Any) -> Any:
            metrics = replay(pfs, view, trace, **kwargs)
            served = sum(metrics.per_server_bytes)
            outcome.check(
                metrics.requests == len(trace) and served >= metrics.total_bytes,
                f"replay served {metrics.requests} of {len(trace)} requests, "
                f"{served} of {metrics.total_bytes} bytes",
            )
            return metrics

        return replay_trace


def _sha(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode())
    return hasher.hexdigest()


# ------------------------------------------------------------------ figures


def figures_setup(seed: int, size: str) -> list[tuple[str, Callable[..., Any], dict[str, Any]]]:
    from repro.harness.figures import ALL_FIGURES

    calls = []
    for fig, fn in ALL_FIGURES.items():
        if size == "small" and fig not in SMALL_FIGURES:
            continue
        kwargs = dict(SMALL_FIGURES[fig]) if size == "small" else {}
        params = inspect.signature(fn).parameters
        if "seed" in params:
            kwargs["seed"] = seed
        if "n_jobs" in params:
            kwargs["n_jobs"] = 1
        calls.append((fig, fn, kwargs))
    return calls


def figures_run(
    calls: list[tuple[str, Callable[..., Any], dict[str, Any]]], outcome: Outcome
) -> None:
    from repro.harness import report

    parts = []
    for fig, fn, kwargs in calls:
        result = outcome.call(fig, fn, **kwargs)
        if result is None:
            continue
        table = report.format_table(result)
        if fig not in TIMED_FIGURES:
            parts += [table, report.to_csv(result)]
    outcome.digest = _sha(*parts)


# -------------------------------------------------------------------- serve


def serve_setup(seed: int, size: str) -> tuple[Any, Any, int]:
    from repro.cluster import ClusterSpec
    from repro.tenancy.spec import make_tenants

    return ClusterSpec(), make_tenants(300 if size == "full" else 20), seed


def serve_run(inputs: tuple[Any, Any, int], outcome: Outcome) -> None:
    from repro.tenancy import service

    spec, fleet, seed = inputs
    report = outcome.call(
        "serve_scenario", service.serve_scenario, spec, fleet, n_jobs=1, arrival_seed=seed
    )
    if report is None:
        return
    for tenant in report.tenants:
        outcome.check(
            tenant.completed == tenant.requests,
            f"tenant {tenant.tenant} completed {tenant.completed} of {tenant.requests}",
        )
    outcome.digest = _sha(report.digest(), report.describe())


# ------------------------------------------------------------------- online


def online_setup(seed: int, size: str) -> tuple[Any, dict[str, Any]]:
    from repro.cluster import ClusterSpec
    from repro.units import MiB

    if size == "full":
        kwargs = {"ior_total": 128 * MiB, "ior_processes": 16}
    else:
        kwargs = {"ior_total": 8 * MiB, "ior_processes": 8}
    return ClusterSpec(), dict(kwargs, seed=seed)


def online_run(inputs: tuple[Any, dict[str, Any]], outcome: Outcome) -> None:
    from repro.online import experiment

    spec, kwargs = inputs
    report = outcome.call(
        "phase_shift_experiment", experiment.phase_shift_experiment, spec, **kwargs
    )
    if report is None:
        return
    outcome.check(
        report.offline_match_fraction == 1.0,
        f"post-swap mapping {report.offline_match_fraction!r} identical to the "
        f"off-line plan ({report.replans_admitted} replans admitted)",
    )
    text = report.describe()
    exact = (
        f"{report.foreground.makespan!r} {report.total_makespan!r} "
        f"{report.baseline_makespan!r} {report.stop_the_world_makespan!r} "
        f"{report.bytes_moved} {report.offline_match_fraction!r}"
    )
    outcome.digest = _sha(text, exact)


@dataclass(frozen=True)
class Scenario:
    setup: Callable[[int, str], Any]
    run: Callable[[Any, Outcome], None]


SCENARIOS: dict[str, Scenario] = {
    "figures": Scenario(figures_setup, figures_run),
    "serve": Scenario(serve_setup, serve_run),
    "online": Scenario(online_setup, online_run),
}


def execute(
    workload: str,
    seed: int,
    size: str,
    tracer: Tracer | None = None,
    *,
    run: bool = True,
) -> tuple[float, float, Outcome]:
    """Build one workload's inputs and run it once, checking every
    replay (and tracing, when given a tracer).  Returns the perf-counter
    times of the first measured call and the last result, and the
    outcome.  ``run=False`` stops at the first measured call, for
    sampling the set-up time alone."""
    scenario = SCENARIOS[workload]
    inputs = scenario.setup(seed, size)
    outcome = Outcome()
    check = ReplayCheck(outcome)
    check.install()
    if tracer is not None:
        tracer.install()
    try:
        t_first = time.perf_counter()
        if run:
            scenario.run(inputs, outcome)
        t_last = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
        check.restore()
    return t_first, t_last, outcome
