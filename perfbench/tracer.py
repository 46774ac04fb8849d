"""Per-layer attribution from outside the program.

:class:`Tracer` wraps each layer's public functions at the attribute
its caller looks up (``from … import`` binds names at import time, so
``repro.tenancy.service.replay_trace`` is wrapped, not only
``repro.pfs.replay.replay_trace``).  Every wrapped call records a span
``(layer, name, start, end, parent)``; spans stay in memory and are
written out when the run ends.  A layer's self time is the length of
its spans minus the part their child spans cover.

``ColumnarTrace.record`` runs ~300k times on the figures workload, so
it is timed without a span: each call's duration is added to the
``tracing`` layer and to the covered time of the enclosing span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

#: (layer, module, attribute) of every wrapped function or method.
#: Workload generators are found by walking ``Workload`` subclasses and
#: scheme builds by walking ``Scheme`` subclasses (see ``_dynamic``).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("tracing", "repro.tracing.columnar", "ColumnarTrace.to_trace"),
    ("tracing", "repro.tracing.columnar", "ColumnarTrace.from_records"),
    ("tracing", "repro.tracing.columnar", "as_columnar_trace"),
    ("tracing", "repro.workloads.base", "as_columnar_trace"),
    ("tracing", "repro.harness.experiment", "as_columnar_trace"),
    ("tracing", "repro.tenancy.service", "as_columnar_trace"),
    ("clustering", "repro.core.pipeline", "MHAPipeline.plan_file"),
    ("clustering", "repro.core.pipeline", "MHAPipeline.plan_file_columnar"),
    ("costmodel", "repro.core.pipeline", "region_search_task"),
    ("costmodel", "repro.schemes.harl", "region_search_task"),
    ("costmodel", "repro.online.replanner", "region_search_task"),
    ("costmodel", "repro.schemes.aal", "burst_costs"),
    ("placement", "repro.core.pipeline", "place_regions"),
    ("placement", "repro.online.replanner", "place_regions"),
    ("placement", "repro.schemes.base", "LayoutView.merged_runs"),
    ("placement", "repro.core.redirector", "Redirector.merged_runs"),
    ("placement", "repro.core.redirector", "Redirector.map_requests"),
    ("replay", "repro.pfs.replay", "replay_trace"),
    ("replay", "repro.tenancy.service", "replay_trace"),
    ("replay", "repro.online.experiment", "replay_trace"),
    ("replay", "repro.pfs.replay", "replay_flat"),
    ("tenancy", "repro.tenancy.service", "build_tenants"),
    ("tenancy", "repro.tenancy.service", "admission_offsets"),
    ("tenancy", "repro.tenancy.service", "token_bucket_release"),
    ("tenancy", "repro.tenancy.service", "wfq_emission"),
    ("online", "repro.online.controller", "RelayoutController.observe"),
    ("online", "repro.online.controller", "RelayoutController.commit"),
    ("online", "repro.online.migrator", "LiveMigrationScheduler.start"),
    ("harness", "repro.harness.report", "format_table"),
    ("harness", "repro.harness.report", "to_csv"),
    ("harness", "repro.tenancy.service", "ServeReport.digest"),
    ("harness", "repro.tenancy.service", "ServeReport.describe"),
    ("harness", "repro.online.experiment", "OnlineRunReport.describe"),
)

LAYERS: tuple[str, ...] = (
    "workloads",
    "tracing",
    "schemes",
    "clustering",
    "costmodel",
    "placement",
    "replay",
    "tenancy",
    "online",
    "harness",
)

#: per-layer counters, in report order, with their units
COUNTERS: tuple[tuple[str, str], ...] = (
    ("workloads.records", "count"),
    ("tracing.record_calls", "count"),
    ("schemes.builds", "count"),
    ("clustering.regions", "count"),
    ("costmodel.evals", "count"),
    ("costmodel.candidates", "count"),
    ("placement.runs", "count"),
    ("replay.requests", "count"),
    ("tenancy.tenants", "count"),
    ("online.observed", "count"),
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def resolve(module: str, attr: str) -> tuple[Any, str, Any]:
    """``(owner, name, raw)``: the object holding ``attr`` and its raw
    ``__dict__`` value (a classmethod stays a classmethod)."""
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def fingerprint(value: Any, hasher: Any) -> None:
    """Feed every input of a cost-model call into ``hasher``."""
    if isinstance(value, np.ndarray):
        hasher.update(f"a{value.dtype.str}{value.shape}".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        hasher.update(f"t{len(value)}".encode())
        for item in value:
            fingerprint(item, hasher)
    elif isinstance(value, dict):
        hasher.update(f"d{len(value)}".encode())
        for key in sorted(value):
            hasher.update(repr(key).encode())
            fingerprint(value[key], hasher)
    else:
        hasher.update(repr(value).encode())


class Tracer:
    """Span recorder for one traced run; :meth:`install` wraps the
    targets, :meth:`restore` puts the originals back."""

    def __init__(self) -> None:
        #: [layer, name, start, end, parent index, covered, excluded]
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter[str] = Counter()
        self._seen: set[bytes] = set()
        self._record_time = 0.0
        self._patches = Patches()

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        for layer, module, attr in TARGETS + self._dynamic():
            try:
                owner, name, raw = resolve(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}:{attr}")
                continue
            self._patches.set(owner, name, self._wrap_raw(layer, module, attr, raw))
        owner, name, raw = resolve("repro.tracing.columnar", "ColumnarTrace.record")
        self._patches.set(owner, name, self._leaf(raw))

    def restore(self) -> None:
        self._patches.restore()

    @staticmethod
    def _dynamic() -> tuple[tuple[str, str, str], ...]:
        """Every generator's ``trace``/``columnar`` and every scheme's
        ``build``, on the class that defines it."""
        importlib.import_module("repro.workloads")
        importlib.import_module("repro.workloads.arrivals")
        base = importlib.import_module("repro.workloads.base").Workload
        scheme = importlib.import_module("repro.schemes.registry").Scheme
        found: list[tuple[str, str, str]] = []
        for layer, root, methods in (
            ("workloads", base, ("trace", "columnar")),
            ("schemes", scheme, ("build",)),
        ):
            pending, seen = [root], set()
            while pending:
                cls = pending.pop()
                if cls in seen:
                    continue
                seen.add(cls)
                pending.extend(cls.__subclasses__())
                for method in methods:
                    if method in cls.__dict__ and not getattr(
                        cls.__dict__[method], "__isabstractmethod__", False
                    ):
                        found.append(
                            (layer, cls.__module__, f"{cls.__qualname__}.{method}")
                        )
        return tuple(found)

    def _wrap_raw(self, layer: str, module: str, attr: str, raw: Any) -> Any:
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._span(layer, module, attr, raw.__func__))
        return self._span(layer, module, attr, raw)

    def _span(
        self, layer: str, module: str, attr: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        spans, stack, depth = self.spans, self._stack, self._depth
        name = f"{module}:{attr}"
        count = _COUNTING.get(attr.rsplit(".", 1)[-1])
        fingerprinted = layer == "costmodel"
        perf_counter = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [layer, name, perf_counter(), 0.0, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            outermost = depth[layer] == 0
            depth[layer] += 1
            try:
                if fingerprinted:
                    t = perf_counter()
                    self._fingerprint(args, kwargs)
                    span[6] += perf_counter() - t
                result = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
                stack.pop()
                span[3] = perf_counter()
            if count is not None:
                count(self.counts, args, result, outermost)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _leaf(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, counts = self.spans, self._stack, self.counts
        perf_counter = time.perf_counter

        def record(trace: Any, i: int) -> Any:
            t = perf_counter()
            result = fn(trace, i)
            elapsed = perf_counter() - t
            self._record_time += elapsed
            if stack:
                spans[stack[-1]][5] += elapsed
            counts["tracing.record_calls"] += 1
            return result

        return functools.update_wrapper(record, fn)

    def _fingerprint(self, args: tuple[Any, ...], kwargs: dict[str, Any]) -> None:
        hasher = hashlib.blake2b(digest_size=16)
        fingerprint(args, hasher)
        fingerprint(kwargs, hasher)
        key = hasher.digest()
        if key not in self._seen:
            self._seen.add(key)
            self.counts["costmodel.unique"] += 1

    # ------------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Seconds of each layer's spans not covered by child spans."""
        covered = [span[5] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                covered[span[4]] += span[3] - span[2]
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, child in zip(self.spans, covered):
            totals[span[0]] += span[3] - span[2] - child - span[6]
        totals["tracing"] += self._record_time
        return totals

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of this run as ``name -> (value, unit)``."""
        times = self.self_times()
        out: dict[str, tuple[float, str]] = {
            f"{layer}.self_s": (times[layer], "s") for layer in LAYERS
        }
        for name, unit in COUNTERS:
            out[name] = (float(self.counts[name]), unit)
        # every workload scores and replays, so these denominators are
        # non-zero on all of them; the 0.0 only avoids dividing by zero
        evals = self.counts["costmodel.evals"]
        out["costmodel.unique_frac"] = (
            self.counts["costmodel.unique"] / evals if evals else 0.0,
            "ratio",
        )
        replay_s = times["replay"]
        out["replay.req_per_s"] = (
            self.counts["replay.requests"] / replay_s if replay_s > 0 else 0.0,
            "1/s",
        )
        calls = self.counts["replay.trace_calls"]
        out["replay.flat_frac"] = (
            self.counts["replay.flat_calls"] / calls if calls else 0.0,
            "ratio",
        )
        return out

    def span_rows(self) -> list[list[Any]]:
        """Spans as ``[layer, name, start, end, parent]`` rows."""
        return [span[:5] for span in self.spans]


# ------------------------------------------------------------------ counters
# Each counter sees (counts, args, result, outermost).  ``outermost`` is
# false for a call nested in another call of the same layer (a workload
# generator delegating to another, a scheme wrapping another scheme),
# so work is counted once.


def _count_records(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    if outermost:
        counts["workloads.records"] += len(result)


def _count_build(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    if outermost:
        counts["schemes.builds"] += 1


def _count_regions(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    counts["clustering.regions"] += len(result[2])


def _count_search(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    counts["costmodel.evals"] += 1
    counts["costmodel.candidates"] += result.candidates


def _count_burst(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    counts["costmodel.evals"] += 1
    counts["costmodel.candidates"] += 1


def _count_runs(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    counts["placement.runs"] += len(result.servers)


def _count_fragments(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    counts["placement.runs"] += sum(len(fragments) for fragments in result)


def _count_replay(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    counts["replay.trace_calls"] += 1
    counts["replay.requests"] += result.requests


def _count_flat(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    counts["replay.flat_calls"] += 1


def _count_tenants(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    counts["tenancy.tenants"] += len(result)


def _count_observed(counts: Counter[str], args: Any, result: Any, outermost: bool) -> None:
    counts["online.observed"] += 1


#: counter per wrapped attribute name
_COUNTING: dict[str, Callable[[Counter[str], Any, Any, bool], None]] = {
    "trace": _count_records,
    "columnar": _count_records,
    "build": _count_build,
    "plan_file": _count_regions,
    "plan_file_columnar": _count_regions,
    "region_search_task": _count_search,
    "burst_costs": _count_burst,
    "merged_runs": _count_runs,
    "map_requests": _count_fragments,
    "replay_trace": _count_replay,
    "replay_flat": _count_flat,
    "build_tenants": _count_tenants,
    "observe": _count_observed,
}
