"""Record each workload's output digest for seeds 0-19 in digests.json.

``run.py`` compares a run's digest with the recorded one for its seed,
so a change that is meant to alter results re-records them.  Run from
the repository root:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json

from run import BUDGET_S, HERE, WORKLOADS, run_rep

SEEDS = range(20)


def main() -> None:
    table: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in SEEDS:
            rep = run_rep(workload, seed, "full", "untraced", timeout=BUDGET_S)
            if rep["failures"]:
                raise SystemExit(f"{workload} seed {seed} failed: {rep['failures']}")
            table[workload][str(seed)] = rep["digest"]
            print(workload, seed, rep["digest"], flush=True)
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
