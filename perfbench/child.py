"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON line with the perf-counter times
of the first measured call and the last result, the output digest, the
operations attempted and failed, peak RSS and (when traced) the
per-layer metrics; a traced repetition also writes its spans to
``.perfbench/<workload>-seed<seed>.spans.json``.  ``perf_counter`` reads the system-wide monotonic
clock on Linux, so ``run.py`` subtracts its own spawn time from
``t_first`` to get the set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import scenarios
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(scenarios.SCENARIOS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=scenarios.SIZES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="stop at the first measured call"
    )
    args = parser.parse_args()

    import repro

    src = ROOT / "src"
    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    t_first, t_last, outcome = scenarios.execute(
        args.workload, args.seed, args.size, tracer, run=not args.setup_only
    )
    result = {
        "t_first": t_first,
        "t_last": t_last,
        "digest": outcome.digest,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        spans = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.spans.json"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.span_rows()})
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
