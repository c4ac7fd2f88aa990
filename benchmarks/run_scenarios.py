#!/usr/bin/env python
"""Scenario sweep driver: the hostile-environment grid across every executor.

Runs the seeded scenario grid of :mod:`repro.runtime.scenario` — client
join/leave churn, Zipf-skewed participation and table sizes,
duplicate/byzantine answer injection, epoch deadlines against the netsim
latency models — across ``serial`` plus every single-host driver combination
of the staged engine (:func:`repro.runtime.cli_smoke_matrix`) and writes one
``results/BENCH_scenarios.json`` trajectory: per scenario and executor the
wall-clock, wire bytes, dropped-late-answer counts, admission rejections and
estimate error versus the exact answer.

Two hard assertions ride along, so the sweep doubles as an acceptance gate:

* every scenario's response log, window results and late-drop ledger must be
  **byte-identical across executors** (compared via sha256 digest) — the
  seeded-equivalence contract extended to hostile environments;
* a scenario that injects duplicates, or whose deadline makes some active
  client late in some epoch of the plan (:func:`late_clients_for` meets the
  epoch's roster), must show the corresponding rejections/drops on every
  executor, so a silently disabled defense — or a late set that silently
  comes back empty — cannot pass.

Usage::

    python benchmarks/run_scenarios.py                 # full grid (>= 12 scenarios)
    python benchmarks/run_scenarios.py --grid smoke    # 4-scenario CI smoke (~15 s)
    python benchmarks/run_scenarios.py --output /tmp/out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runtime import cli_smoke_matrix  # noqa: E402
from repro.runtime.scenario import (  # noqa: E402
    build_plan,
    late_clients_for,
    run_scenario,
    scenario_grid,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# The executor configurations under test: the registry's single-host smoke
# matrix, so a new driver combo joins the sweep by being registered.
# Worker/shard counts are kept small so the full sweep stays laptop- and
# CI-friendly.
EXECUTOR_CONFIGS = [
    {"executor": executor, "workers": 2, "shards": 4}
    for executor in cli_smoke_matrix()
]


def deadline_bites(spec) -> bool:
    """Whether the spec's deadline makes an active client late in some epoch."""
    plan = build_plan(spec)
    return any(
        not late_clients_for(plan, epoch_plan.epoch).isdisjoint(
            f"client-{index:06d}" for index in epoch_plan.active
        )
        for epoch_plan in plan.epochs
    )


def sweep(grid: str) -> dict:
    specs = scenario_grid(grid)
    scenarios = []
    failures = []
    for spec in specs:
        runs = []
        for config in EXECUTOR_CONFIGS:
            run = run_scenario(spec, **config)
            runs.append(run)
            print(
                f"  {spec.name:<20} {run.executor_label:<36}"
                f" wall={run.total_wall_seconds:7.3f}s"
                f" wire={run.total_wire_bytes:>9}B"
                f" late={run.total_late_dropped:>3}"
                f" rej={run.total_rejections:>3}"
                f" loss={run.mean_accuracy_loss if run.mean_accuracy_loss is None else round(run.mean_accuracy_loss, 4)}"
            )
        digests = {run.executor_label: run.digest for run in runs}
        if len(set(digests.values())) != 1:
            failures.append((spec.name, digests))
        if deadline_bites(spec) and any(run.total_late_dropped == 0 for run in runs):
            failures.append((spec.name, "active clients late but nothing dropped"))
        if spec.duplicate_rate > 0 and any(run.total_rejections == 0 for run in runs):
            failures.append((spec.name, "duplicates injected but nothing rejected"))
        scenarios.append(
            {
                "spec": spec.to_dict(),
                "digest": runs[0].digest,
                "runs": [run.to_dict() for run in runs],
            }
        )
    return {"grid": grid, "scenarios": scenarios, "failures": failures}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--grid",
        choices=("full", "smoke"),
        default="full",
        help="scenario grid to sweep (smoke = the 4-scenario CI subset)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(RESULTS_DIR, "BENCH_scenarios.json"),
        help="where to write the JSON trajectory",
    )
    args = parser.parse_args(argv)

    print(f"scenario sweep: grid={args.grid}")
    result = sweep(args.grid)
    failures = result.pop("failures")

    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output} ({len(result['scenarios'])} scenarios)")

    if failures:
        for name, detail in failures:
            print(f"FAIL {name}: {detail}", file=sys.stderr)
        return 1
    print(
        "all scenarios byte-identical across "
        f"{len(EXECUTOR_CONFIGS)} executor configurations"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
