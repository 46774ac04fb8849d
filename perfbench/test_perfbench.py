"""Smoke tests of the benchmark itself, at the small input size.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import scenarios  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_cli(workload: str, trace: int) -> tuple[list[str], dict[str, Any]]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            f"--workload={workload}",
            f"--seed={SEED}",
            "--seconds=1",
            f"--trace={trace}",
            "--size=small",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def execute(workload: str, traced: bool = False) -> tuple[float, Tracer | None]:
    """One in-process run at the small size: (wall seconds, tracer)."""
    tracer = Tracer() if traced else None
    t_first, t_last, outcome = scenarios.execute(workload, SEED, "small", tracer)
    assert not outcome.failures, outcome.failures
    return t_last - t_first, tracer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    lines, result = run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
            for line in lines
        ), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_self_times_are_nonnegative_and_within_the_traced_wall(workload: str) -> None:
    wall, tracer = execute(workload, traced=True)
    assert tracer is not None
    times = tracer.self_times()
    assert set(times) == set(LAYERS)
    # spans nest strictly, so only float rounding can push a self time
    # below zero
    assert min(times.values()) >= -1e-9, times
    assert sum(times.values()) <= wall, (times, wall)


def test_injected_delay_shows_in_its_layer_and_workload_only(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """A delay in AAL's Eq. 2 scoring raises ``costmodel.self_s`` and the
    serve wall time by the delay injected, and leaves online alone."""
    import repro.schemes.aal as aal

    def measure() -> dict[str, float]:
        _, tracer = execute("serve", traced=True)
        assert tracer is not None
        times = tracer.self_times()
        return {
            "serve": statistics.median(execute("serve")[0] for _ in range(3)),
            "online": statistics.median(execute("online")[0] for _ in range(3)),
            "costmodel": times["costmodel"],
            "schemes": times["schemes"],
        }

    before = measure()
    delay, calls = 0.001, [0]
    original = aal.burst_costs

    def delayed(*args: Any, **kwargs: Any) -> Any:
        calls[0] += 1
        end = time.perf_counter() + delay
        while time.perf_counter() < end:
            pass
        return original(*args, **kwargs)

    monkeypatch.setattr(aal, "burst_costs", delayed)
    execute("online")
    assert calls[0] == 0  # online never reaches AAL's scoring
    after = measure()
    injected = calls[0] / 4 * delay  # measure() runs serve four times
    assert injected > 0.5
    assert after["costmodel"] - before["costmodel"] >= 0.9 * injected
    assert after["serve"] - before["serve"] >= 0.9 * injected
    assert abs(after["schemes"] - before["schemes"]) < 0.1 * injected
    assert abs(after["online"] - before["online"]) < 0.1 * injected
