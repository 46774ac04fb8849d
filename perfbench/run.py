"""End-to-end benchmark of the MHA reproduction, with per-layer attribution.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 0 --seconds 40 --trace 0

Workloads (see ``scenarios.py`` for why each): ``figures``, ``serve``,
``online``.  Every repetition runs in a fresh interpreter with one
worker (``REPRO_JOBS=1`` and ``n_jobs=1``), so each measures its own
set-up and peak memory.  Repetitions continue until ``--seconds`` is
spent (at least three untraced ones, or one untraced and one traced
with ``--trace 1``), and every metric is the median over them.  An
untraced invocation then samples set-up alone until it has twelve
set-up samples.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (first measured
call to last result), ``setup_s`` (interpreter start to first measured
call) and ``peak_rss_mib``.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics of ``tracer.py``
plus ``traced.wall_s`` and ``traced.overhead_s`` (traced minus untraced
wall time); the spans of the last traced repetition are written to
``.perfbench/``.

The output is correct when no operation failed, every repetition
produced the same digest, and the digest equals the one recorded in
``digests.json`` for the seed, when there is one.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures", "serve", "online")
#: hard cap on one invocation, below the 180 s the contract allows
BUDGET_S = 170.0
MIN_UNTRACED_REPS = 3
#: set-up samples per untraced invocation; set-up-only repetitions
#: (which stop at the first measured call) make up the difference
SETUP_SAMPLES = 12


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_JOBS="1")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rep(
    workload: str, seed: int, size: str, kind: str, timeout: float
) -> dict[str, Any]:
    """One repetition in a fresh interpreter; raises if it crashes.

    ``kind`` is ``untraced``, ``traced`` or ``setup`` (set-up only)."""
    traced = kind == "traced"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--size={size}",
        f"--trace={int(traced)}",
    ]
    if kind == "setup":
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    ended = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} repetition exited with {proc.returncode}:\n{proc.stderr}"
        )
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["t_first"] - spawned
    rep["wall_s"] = rep["t_last"] - rep["t_first"]
    rep["elapsed_s"] = ended - spawned
    rep["kind"] = kind
    return rep


def run_reps(
    workload: str, seed: int, seconds: float, trace: bool, size: str
) -> list[dict[str, Any]]:
    """Repetitions until ``seconds`` is spent (and the minimum is met)."""
    started = time.perf_counter()
    deadline = started + seconds
    reps: list[dict[str, Any]] = []
    kinds = ("untraced", "traced") if trace else ("untraced",)
    while True:
        remaining = BUDGET_S - (time.perf_counter() - started)
        kind = kinds[len(reps) % len(kinds)]
        reps.append(run_rep(workload, seed, size, kind, timeout=remaining))
        enough = len(reps) >= (2 if trace else MIN_UNTRACED_REPS)
        following = kinds[len(reps) % len(kinds)]
        same = [r["elapsed_s"] for r in reps if r["kind"] == following]
        estimate = statistics.median(same or [reps[-1]["elapsed_s"]])
        now = time.perf_counter()
        if now + estimate > started + BUDGET_S:
            if not enough:
                raise RuntimeError(
                    f"{workload}: {len(reps)} repetitions do not fit in {BUDGET_S} s"
                )
            break
        if enough and now + estimate > deadline:
            break
    while not trace and len(reps) < SETUP_SAMPLES:
        remaining = BUDGET_S - (time.perf_counter() - started)
        if remaining < 2 * reps[-1]["setup_s"] + 5:
            break
        reps.append(run_rep(workload, seed, size, "setup", timeout=remaining))
    return reps


def recorded_digest(workload: str, seed: int, size: str) -> str | None:
    path = HERE / "digests.json"
    if size != "full" or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def summarize(
    workload: str, seed: int, size: str, trace: bool, reps: list[dict[str, Any]]
) -> dict[str, Any]:
    """Print the human-readable report; return the JSON result."""
    untraced = [r for r in reps if r["kind"] == "untraced"]
    traced = [r for r in reps if r["kind"] == "traced"]
    setups = [r for r in reps if r["kind"] != "traced"]
    reps = untraced + traced
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    digests = {r["digest"] for r in reps}
    expected = recorded_digest(workload, seed, size)
    correct = not failures and len(digests) == 1 and expected in (None, *digests)

    print(
        f"perfbench {workload}: seed={seed} size={size} trace={int(trace)} "
        f"reps={len(untraced)} untraced + {len(traced)} traced"
    )
    print(
        f"env: nproc={os.cpu_count()} REPRO_JOBS={child_env()['REPRO_JOBS']} "
        f"python={platform.python_version()} numpy={reps[0]['numpy']} "
        f"cpu={cpu_model()!r}"
    )
    for digest in sorted(digests):
        print(f"digest: {digest}")
    if len(digests) > 1:
        print("digest: repetitions disagree")
    if expected is None:
        print(f"digest: none recorded for seed {seed}")
    elif expected in digests:
        print(f"digest: matches the one recorded for seed {seed}")
    else:
        print(f"digest: recorded for seed {seed} is {expected}")
    print(
        f"operations: {len(failures)} failed of {attempted} attempted "
        f"({len(failures) / attempted:.2%})"
    )
    for failure in failures:
        print(f"  failed: {failure}")

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        for name, unit, key, sampled in (
            ("wall_s", "s", "wall_s", untraced),
            ("setup_s", "s", "setup_s", setups),
            ("peak_rss_mib", "MiB", "rss_mib", untraced),
        ):
            samples = [r[key] for r in sampled]
            metrics[name] = (statistics.median(samples), unit)
            print(f"samples {name}: " + " ".join(f"{v:.4g}" for v in samples))
    else:
        for name, (_, unit) in traced[0]["layers"].items():
            metrics[name] = (statistics.median(r["layers"][name][0] for r in traced), unit)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["traced.wall_s"] = (traced_wall, "s")
        metrics["traced.overhead_s"] = (
            traced_wall - statistics.median(r["wall_s"] for r in untraced),
            "s",
        )
        for missing in sorted({m for r in traced for m in r["missing"]}):
            print(f"  not traced (target not found): {missing}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "small"),
        default="full",
        help="input size; 'small' is for the benchmark's own smoke tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # compile the package once so no repetition pays for bytecode
    # compilation, which users do not pay on every run either
    warm = subprocess.run(
        [sys.executable, "-c", "import repro.harness.figures, repro.tenancy, repro.online"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    if warm.returncode != 0:
        print(f"importing repro failed:\n{warm.stderr}", file=sys.stderr)
        return 2
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = summarize(args.workload, args.seed, args.size, bool(args.trace), reps)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
