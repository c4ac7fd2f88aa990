#!/usr/bin/env python3
"""epoch_profile: the layered, denoised epoch benchmark (ISSUE 12).

    python3 benchmarks/epoch_profile/run.py [--workload NAME] [--seed N]

prints every metric by name with its unit and sample count, checks the
outputs (repeat digests, the serial + SQLDB_FORCE_SCAN oracle, the traced
repeat's digest) and writes ``benchmarks/results/epoch_profile/latest.json``.
With ``--workload`` the last line of standard output is the one JSON object
the benchmark contract asks for (``--trace 0``: end-to-end metrics,
``--trace 1``: per-layer metrics); the exit code is non-zero on any digest or
oracle mismatch.

    --quick               K = 1, 8 measured steps: a smoke run, NOT comparable
    --aa                  two interleaved suites, compared against the bounds
    --compare FILE        run, then print each metric's ratio to a baseline
    --tree FILE           fold the first step of a trace-*.jsonl into a tree

README.md (next to this file) defines every metric and explains the method.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import harness  # noqa: E402 — needs src/ on the path
from metrics import BETTER, BOUNDS, END_TO_END, EXACT, MANIFEST, UNITS  # noqa: E402
from workloads import NPROC, WORKLOADS  # noqa: E402

DEFAULT_SEED = 12  # the hold-out seed, never used while writing a change, is 1213


def print_workload(summary: dict) -> None:
    label = "" if summary["comparable"] else "  [--quick: NOT comparable]"
    print(
        f"== {summary['workload']}  seed={summary['seed']} K={summary['repeats']} "
        f"measured_steps={summary['measured_steps']}{label}"
    )
    for name, (value, count) in summary["end_to_end"].items():
        print(f"  {name:<42} {value:>14.4f} {UNITS[name]:<6} n={count}")
    for name, value in summary["per_layer"].items():
        print(f"  {name:<42} {value:>14.4f} {UNITS[name]}")
    for layer, share in summary.get("layer_self_share", {}).items():
        print(f"  self-time share {layer:<26} {share:>14.4f}")
    print(f"  digest {summary['digest']}  oracle(6 epochs) {summary['oracle_digest']}")
    print(f"  failed {summary['failed']} / attempted {summary['attempted']}")
    for problem in summary["problems"]:
        print(f"  FAILED: {problem}")


def run_suites(
    names: list[str], seed: int, seconds: float, trace: bool, quick: bool, sides: int = 1
) -> list[dict]:
    """Run ``sides`` interleaved suites; print and return one report each."""
    environment = harness.environment()
    if environment["loadavg_1m"] > NPROC:
        print(
            f"warning: 1-min load average {environment['loadavg_1m']:.2f} exceeds nproc {NPROC}",
            file=sys.stderr,
        )
    reports = []
    for suite in harness.profile(names, seed, seconds, trace=trace, quick=quick, sides=sides):
        for name, summary in suite.items():
            summary["parameters"] = WORKLOADS[name].parameters()
            print_workload(summary)
        reports.append(
            {
                "environment": environment,
                "seed": seed,
                "seconds": seconds,
                "quick": quick,
                "workloads": suite,
            }
        )
    return reports


def write_report(report: dict, filename: str) -> Path:
    harness.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = harness.RESULTS_DIR / filename
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path


def contract_line(summary: dict, trace: bool) -> str:
    """The benchmark contract's result object for one workload."""
    if trace:
        values = summary["per_layer"]
    else:
        values = {name: value for name, (value, _) in summary["end_to_end"].items()}
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
            },
        }
    )


def worse_by(name: str, base: float, value: float) -> float:
    """By what share of ``base`` is ``value`` worse (negative: better)."""
    if base == 0:
        return 0.0
    change = (value - base) / abs(base)
    return change if BETTER[name] == "lower" else -change


def compare_pair(label: str, base: dict, summary: dict, two_sided: bool) -> tuple[list, int]:
    """Compare one workload's end-to-end metrics with a base of the same commit
    (``two_sided``: any gap past the bound counts) or of a parent (only worse
    counts).  With the same seed and step count on both sides the digest and
    the ``EXACT`` metrics must be equal, whatever their bounds.  Returns the
    rows and how many are out of line."""
    same_inputs = (base["seed"], base["measured_steps"]) == (
        summary["seed"],
        summary["measured_steps"],
    )
    rows, flagged = [], 0
    for metric in END_TO_END:
        if metric not in base["end_to_end"] or metric not in summary["end_to_end"]:
            flagged += 1
            continue
        reference, value = base["end_to_end"][metric][0], summary["end_to_end"][metric][0]
        worse = worse_by(metric, reference, value)
        verdict = ""
        if (abs(worse) if two_sided else worse) > BOUNDS[metric]:
            verdict = "PAST BOUND"
        elif same_inputs and metric in EXACT and value != reference:
            verdict = "CHANGED (exact for a seed)"
        flagged += bool(verdict)
        rows.append(
            {
                "workload": summary["workload"],
                "metric": metric,
                "base": reference,
                "value": value,
                "ratio_to_base": value / reference if reference else None,
                "bound": BOUNDS[metric],
                "agree": not verdict,
            }
        )
        print(
            f"{label} {summary['workload']:<14} {metric:<24} {value:>14.4f} / {reference:>14.4f} "
            f"= {value / reference if reference else float('nan'):.4f}  "
            f"bound {BOUNDS[metric]:.3f}  {verdict}"
        )
    if same_inputs and base["digest"] != summary["digest"]:
        flagged += 1
        print(f"{label} {summary['workload']:<14} digest differs for the same seed and steps")
    return rows, flagged


def compare(report: dict, baseline: dict) -> int:
    """Print each metric's ratio to the baseline; count those out of line."""
    flagged = 0
    for name, summary in report["workloads"].items():
        base = baseline["workloads"].get(name)
        if base is None:
            continue
        flagged += compare_pair(f"vs baseline (seed {base['seed']})", base, summary, False)[1]
        for metric, value in summary["per_layer"].items():
            reference = base["per_layer"].get(metric)
            if reference:
                print(
                    f"  {metric:<42} {value:>14.4f} / {reference:>14.4f} = "
                    f"{value / reference:.4f}"
                )
    return flagged


def run_aa(names: list[str], seed: int, seconds: float) -> int:
    """Two interleaved end-to-end suites of this commit; they must agree."""
    first, second = run_suites(names, seed, seconds, trace=False, quick=False, sides=2)
    rows, disagreements = [], 0
    for name in names:
        a, b = first["workloads"][name], second["workloads"][name]
        pair_rows, flagged = compare_pair("A/A", a, b, True)
        rows += pair_rows
        disagreements += flagged + (not (a["correct"] and b["correct"]))
    path = write_report(
        {"environment": first["environment"], "seed": seed, "seconds": seconds, "pairs": rows},
        "aa_report.json",
    )
    print(f"wrote {path}")
    return disagreements


def print_tree(path: Path) -> None:
    """Fold the first step of a trace file into a tree by span-name path."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    step = min(span["epoch"] for span in spans)
    spans = sorted((s for s in spans if s["epoch"] == step), key=lambda s: s["start"])
    by_id = {span["id"]: span for span in spans}
    folded: dict[tuple, list] = {}
    for span in spans:
        names, cursor = [span["name"]], span
        while cursor["parent"] in by_id:
            cursor = by_id[cursor["parent"]]
            names.append(cursor["name"])
        row = folded.setdefault(tuple(reversed(names)), [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += span["end"] - span["start"]
        row[2] += span["self"]
        row[3] += span["value"]

    def show(prefix: tuple) -> None:
        for key, (count, duration, self_time, value) in folded.items():
            if key[:-1] == prefix:
                label = "  " * len(prefix) + key[-1] + (f" x{count}" if count > 1 else "")
                print(
                    f"{label:<58} {duration * 1000:8.2f} ms  self {self_time * 1000:7.2f} ms"
                    + (f"  value {value:g}" if value else "")
                )
                show(key)

    show(())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--compare", metavar="FILE")
    parser.add_argument("--tree", metavar="FILE")
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.tree:
        print_tree(Path(args.tree))
        return 0
    if args.aa:
        return 1 if run_aa(names, args.seed, args.seconds) else 0

    # The whole suite traces by default; one contract run does what it is told.
    trace = bool(args.trace) if args.trace is not None else args.workload is None
    (report,) = run_suites(names, args.seed, args.seconds, trace, args.quick)
    print(f"wrote {write_report(report, 'latest.json')}")
    flagged = 0
    if args.compare:
        flagged = compare(report, json.loads(Path(args.compare).read_text()))
        print(f"{flagged} end-to-end metric(s) out of line with the baseline")
    correct = all(summary["correct"] for summary in report["workloads"].values())
    if args.workload:
        print(contract_line(report["workloads"][args.workload], trace))
    return 0 if correct and not flagged else 1


if __name__ == "__main__":
    sys.exit(main())
