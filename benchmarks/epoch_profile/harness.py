"""The measurement method of epoch_profile (ISSUE 12; README.md explains why).

* **Fixed work, not fixed time.**  ``--seconds`` is converted once into a fixed
  number of measured epoch steps from frozen constants, so the answers, bytes,
  GC schedule and RSS of a run are the same on every host.
* **Epoch step.**  The timed unit is everything the deployment does between
  two window results: the epoch's input change through the public API, then
  ``PrivApproxSystem.run_epoch_all``.  Harness-only work (ground truth,
  byzantine forging, the reference kernel) is outside it.
* **Flanking reference kernel.**  A fixed pure-Python kernel runs before and
  after every step; ``step_ms = step_wall / mean(ref_before, ref_after) *
  REF_MS_NOMINAL``.  Every ``*_ms`` / ``*_per_s`` end-to-end value is in
  these host-normalized units.
* **K fresh-process repeats, median over repeats.**  Each workload runs K
  times, never two at once, each in a fresh process with the same seed.  Every
  timing statistic is computed per repeat and the median over the repeats is
  reported: one disturbed repeat changes nothing, and GC pauses, checkpoints
  and arena rebuilds, which recur in every repeat, count in full.  The step
  series shown per layer is ``denoised[i] = median over repeats of
  step_ms[i]``.  In a suite the repeats of the workloads are interleaved
  (repeat 1 of every workload, then repeat 2, ...), and ``--aa`` interleaves
  its two sides, so that what is compared saw the same stretch of host time.
* **Warm-up.**  The first two steps are not measured; they count as set-up,
  which a run measures ``SETUP_REPEATS`` times.

Repeat processes are forked from this (idle, already-imported) process: a
fresh interpreter would spend ~1.5 s importing scipy before every repeat.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import math
import multiprocessing
import os
import resource
import statistics
import struct
import sys
import time
import traceback
from pathlib import Path

from layers import layer_metrics
from tracer import Tracer
from workloads import NPROC, WORKLOADS

from repro.core.system import PrivApproxSystem

K_REPEATS = 3
SETUP_REPEATS = 7
WARMUP_STEPS = 2
QUICK_STEPS = 8
ORACLE_EPOCHS = 6
SERIAL_BASELINE_EPOCHS = 10
TRACE_STEPS_WRITTEN = 3
CHILD_TIMEOUT_SECONDS = 150.0

#: The reference kernel's time on the quiet host the baseline was taken on.
#: It only fixes the unit of the normalized metrics; it is never re-measured.
REF_MS_NOMINAL = 9.0
#: Converts ``--seconds`` into a fixed step count (fixed work, not fixed time):
#: the workloads are sized so that a step takes about this long on that host.
NOMINAL_STEP_MS = 83.0

ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = ROOT / "benchmarks" / "results" / "epoch_profile"

_clock = time.perf_counter


def _kernel_body() -> None:
    accumulator = 0
    for i in range(20_000):
        accumulator = (accumulator * 1_103_515_245 + 12_345 + i) & 0xFFFFFFFF
    table = {i: str(i) for i in range(13_000)}
    for i in range(0, 13_000, 3):
        accumulator ^= len(table[i])
    rows = [[i, i * 0.5, str(i)] for i in range(9_000)]
    groups: dict[int, list] = {}
    for row in rows:
        groups.setdefault(row[0] % 97, []).append(row)
    total = 0.0
    for members in groups.values():
        total += sum(member[1] for member in members)
    packed = b"".join(struct.pack(">qd", row[0], row[1]) for row in rows)
    hashlib.sha256(packed).digest()


def reference_kernel_ms() -> float:
    """Time one run of the fixed reference kernel, in ms.

    Half interpreter arithmetic and dict lookups, half what the program
    itself is made of: small-object allocation, container growth, struct
    packing, hashing.  A busy neighbour slows the first half less than the
    program and the second half more; together they track it (README.md,
    "Noise study").  The collector is off while it runs and everything it
    allocates is freed before it returns, so it leaves the program's GC
    schedule where it found it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = _clock()
        _kernel_body()
        return (_clock() - start) * 1000.0
    finally:
        if was_enabled:
            gc.enable()


def move_workers_off(cpu: int) -> None:
    """Move every worker process of this process to the CPUs other than ``cpu``."""
    others = os.sched_getaffinity(0) - {cpu}
    if not others:
        return
    for child in multiprocessing.active_children():
        for thread_id in os.listdir(f"/proc/{child.pid}/task"):
            os.sched_setaffinity(int(thread_id), others)


class WarmupDone(Exception):
    """Raised by the timer to end a set-up-only repeat after its last warm-up step."""


class StepTimer:
    """The one ``timed_step`` wrapper serving all four workloads.

    Installed on ``PrivApproxSystem.set_active_clients`` (a step segment) and
    ``PrivApproxSystem.run_epoch_all`` (the segment that closes the step), so
    it also times the workload driven through ``run_scenario``.  A step opens
    at its first segment (reference kernel first) and closes when
    ``run_epoch_all`` returns (reference kernel after); time between segments
    is harness work and is not part of the step.  A workload calls
    :meth:`start_setup` right before its first call into the program.
    """

    def __init__(self, after_first_step=None, stop_after: int | None = None) -> None:
        self.steps: list[dict] = []
        self.system = None
        self.closed_at: list[float] = []
        self.after_first_step = after_first_step
        self.stop_after = stop_after
        self.setup_ref = 0.0
        self.setup_started = 0.0
        self._open: dict | None = None

    def start_setup(self) -> None:
        reference_kernel_ms()  # the first run in a fresh process pays for the allocator's pages
        self.setup_ref = reference_kernel_ms()
        self.setup_started = _clock()

    def _step(self) -> dict:
        if self._open is None:
            ref_before = reference_kernel_ms()
            self._open = {
                "ref_before": ref_before,
                "opened": _clock(),
                "wall": 0.0,
                "segments": [],
            }
        return self._open

    def segment(self, fn):
        def timed(*args, **kwargs):
            step = self._step()
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                step["wall"] += end - start
                step["segments"].append((start, end))

        return timed

    def closing(self, run_epoch_all):
        def timed(system, *args, **kwargs):
            step = self._step()
            bytes_before = system.proxies.total_bytes_relayed()
            shares_before = system.proxies.total_shares_relayed()
            start = _clock()
            reports = run_epoch_all(system, *args, **kwargs)
            end = _clock()
            step["wall"] += end - start
            step["segments"].append((start, end))
            step["outside"] = (end - step.pop("opened")) - step["wall"]
            step["relay_bytes"] = system.proxies.total_bytes_relayed() - bytes_before
            step["relay_shares"] = system.proxies.total_shares_relayed() - shares_before
            step["answers"] = sum(r.num_participants for r in reports.values())
            step["epoch"] = args[0] if args else kwargs["epoch"]
            step["ref_after"] = reference_kernel_ms()
            self.system = system
            self.steps.append(step)
            self.closed_at.append(_clock())
            self._open = None
            if len(self.steps) == 1 and self.after_first_step is not None:
                self.after_first_step()
            if len(self.steps) == self.stop_after:
                raise WarmupDone
            return reports

        return timed

    @contextlib.contextmanager
    def installed(self):
        originals = {
            name: vars(PrivApproxSystem)[name]
            for name in ("set_active_clients", "run_epoch_all")
        }
        PrivApproxSystem.set_active_clients = self.segment(originals["set_active_clients"])
        PrivApproxSystem.run_epoch_all = self.closing(originals["run_epoch_all"])
        try:
            yield self
        finally:
            for name, original in originals.items():
                setattr(PrivApproxSystem, name, original)


def step_ms(step: dict) -> float:
    """One step's wall time in host-normalized ms."""
    reference = (step["ref_before"] + step["ref_after"]) / 2.0
    return step["wall"] * 1000.0 / reference * REF_MS_NOMINAL


def denoise(series_per_repeat: list[list[float]]) -> list[float]:
    """Per-step-index median over the repeats: the run's step series."""
    return [statistics.median(values) for values in zip(*series_per_repeat)]


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def measured_steps(seconds: float) -> int:
    """The fixed number of measured steps per repeat that ``--seconds`` buys."""
    return max(QUICK_STEPS, round(seconds * 1000.0 / K_REPEATS / NOMINAL_STEP_MS))


# -- one repeat, in its own process -------------------------------------------


def run_repeat(job: dict) -> dict:
    """Run one workload once in this (fresh) process and report what it did."""
    # Same GC phase at the start of every repeat, and whatever this process
    # inherited from the harness (modules, earlier repeats' results) is taken
    # out of the collector's reach: the inherited heap decides when a full
    # collection is due, and a harness that has grown moves the program's GC
    # schedule (README.md, "Noise study").
    gc.collect()
    gc.freeze()
    workload = WORKLOADS[job["workload"]]
    if job.get("force_scan"):
        os.environ["SQLDB_FORCE_SCAN"] = "1"
    allowed = os.sched_getaffinity(0)
    after_first_step = None
    if job.get("pinned"):
        # The coordinator, its threads and the reference kernel share one CPU,
        # so the kernel sees the host the program sees; worker processes are
        # forked during the first step and then moved to the other CPUs
        # (README.md, "One CPU for the coordinator").
        cpu = max(allowed)
        os.sched_setaffinity(0, {cpu})
        after_first_step = functools.partial(move_workers_off, cpu)
    # A set-up-only repeat is the same run, ended after the warm-up steps.
    timer = StepTimer(after_first_step, WARMUP_STEPS if job.get("setup_only") else None)
    tracer = Tracer(RESULTS_DIR) if job.get("traced") else None
    outcome = None
    try:
        with contextlib.ExitStack() as stack:
            # The timer goes on last, so it wraps the tracer's root spans: trace
            # overhead is inside the timed step and shows in the traced p50.
            if tracer is not None:
                stack.enter_context(tracer.installed())
            stack.enter_context(timer.installed())
            outcome = workload.run(
                workload, job["seed"], job["epochs"], job.get("executor", workload.executor), timer
            )
    except WarmupDone:
        pass
    finally:
        os.sched_setaffinity(0, allowed)
        gc.unfreeze()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    warmup = WARMUP_STEPS
    # Set-up runs from the workload's first call into the program to the end
    # of the last warm-up step; the reference kernel runs at its start and
    # around the warm-up steps normalize it like a step.
    setup_raw = timer.closed_at[warmup - 1] - timer.setup_started
    setup_refs = [timer.setup_ref] + [
        ref for step in timer.steps[:warmup] for ref in (step["ref_before"], step["ref_after"])
    ]
    result = {
        "digest": outcome.digest if outcome else None,
        "accuracy_loss": outcome.accuracy_loss if outcome else None,
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw / statistics.mean(setup_refs) * REF_MS_NOMINAL,
        "steps": [
            {key: value for key, value in step.items() if key != "segments"}
            for step in timer.steps
        ],
        "peak_rss_mb": (own + children) / 1024.0,
    }
    if tracer is not None:
        tracer.merge_workers()
        result["layers"] = layer_metrics(
            tracer, timer.steps, range(warmup, len(timer.steps)), timer.system, children / 1024.0
        )
        result["layers"]["trace_file_spans"] = result["layers"].pop("table").write_jsonl(
            RESULTS_DIR / f"trace-{workload.name}.jsonl", TRACE_STEPS_WRITTEN
        )
        result["layers"]["traced_step_ms"] = [step_ms(s) for s in timer.steps[warmup:]]
    return result


def _child_main(connection, job: dict) -> None:
    try:
        result = run_repeat(job)
    except BaseException:  # noqa: BLE001 — reported to the parent, which fails the run
        result = {"error": traceback.format_exc()}
    connection.send(result)
    connection.close()


def run_in_children(jobs: list[dict]) -> list[dict]:
    """Run the jobs at the same time, each in a freshly forked process."""
    context = multiprocessing.get_context("fork")
    running = []
    for job in jobs:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=_child_main, args=(sender, job))
        process.start()
        sender.close()
        running.append((process, receiver))
    results = []
    for process, receiver in running:
        # Read the result before joining: a child blocks on a full pipe.
        if receiver.poll(CHILD_TIMEOUT_SECONDS):
            try:
                results.append(receiver.recv())
            except EOFError:
                results.append({"error": "repeat process exited with no result"})
        else:
            results.append({"error": f"repeat timed out after {CHILD_TIMEOUT_SECONDS} s"})
            process.terminate()
        process.join()
        receiver.close()
    return results


# -- a suite: every workload's repeats, interleaved; then the checks -----------


def schedule(names: list[str], sides: int, repeats: int, setups: int) -> list[tuple]:
    """The order of the timed jobs, as ``(side, workload, kind)``.

    Round-robin: repeat 1 of every workload (of every side, alternating which
    side goes first), then repeat 2, and so on; the set-up-only repeats that
    bring every workload to ``setups`` set-ups follow in the same order.
    """
    order = []
    for kind, count in (("timed", repeats), ("setups", setups - repeats)):
        for index in range(count):
            for name in names:
                for side in range(sides) if index % 2 == 0 else reversed(range(sides)):
                    order.append((side, name, kind))
    return order


def profile(
    names: list[str], seed: int, seconds: float, *, trace: bool, quick: bool, sides: int = 1
) -> list[dict[str, dict]]:
    """Run ``sides`` identical suites of the named workloads; one summary each.

    The timed repeats run one at a time, never two at once, in the order of
    :func:`schedule` — so the K repeats of one workload are spread over the
    whole suite and both sides of an A/A see the same stretch of host time.
    The correctness checks run afterwards, outside timing: the repeats'
    digests must be identical, and a 6-epoch copy of the workload must
    produce the same digest on the workload's driver as on ``serial`` with
    ``SQLDB_FORCE_SCAN=1`` (those two run side by side).  With ``trace``, a
    further repeat runs under the span wrappers — its digest must equal the
    untraced ones': tracing is draw-neutral — and a ``serial`` run of
    ``SERIAL_BASELINE_EPOCHS`` steps gives the single-threaded baseline.
    """
    repeats = 1 if quick else K_REPEATS
    setups = 1 if quick else SETUP_REPEATS
    steps = QUICK_STEPS if quick else measured_steps(seconds)
    epochs = WARMUP_STEPS + steps

    def job(name: str, **extra) -> dict:
        return {"workload": name, "seed": seed, "epochs": epochs, "pinned": True, **extra}

    def run_one(one: dict) -> dict:
        return run_in_children([one])[0]

    raw = [
        {name: {"load": os.getloadavg()[0], "timed": [], "setups": []} for name in names}
        for _ in range(sides)
    ]
    for side, name, kind in schedule(names, sides, repeats, setups):
        raw[side][name][kind].append(run_one(job(name, setup_only=kind == "setups")))
    for suite in raw:
        for name, results in suite.items():
            oracle_job = {"workload": name, "seed": seed, "epochs": ORACLE_EPOCHS}
            results["oracle"] = run_in_children(
                [oracle_job, {**oracle_job, "executor": "serial", "force_scan": True}]
            )
            if trace:
                results["traced"] = run_one(job(name, traced=True))
                results["serial"] = run_one(
                    job(name, executor="serial", epochs=WARMUP_STEPS + SERIAL_BASELINE_EPOCHS)
                )
            results["load"] = max(results["load"], os.getloadavg()[0])
    return [
        {
            name: summarize(name, seed, steps, results, comparable=not quick)
            for name, results in suite.items()
        }
        for suite in raw
    ]


def summarize(name: str, seed: int, steps: int, results: dict, *, comparable: bool) -> dict:
    """One workload's verdict and metrics from the raw results of its jobs."""
    timed, setups, oracle = results["timed"], results["setups"], results["oracle"]
    traced, serial = results.get("traced"), results.get("serial")
    labelled = (
        [(f"repeat {i}", r) for i, r in enumerate(timed)]
        + [(f"set-up repeat {i}", r) for i, r in enumerate(setups)]
        + [("oracle/driver", oracle[0]), ("oracle/serial+scan", oracle[1])]
        + ([("traced repeat", traced), ("serial baseline", serial)] if traced else [])
    )
    problems = [
        f"{label}: {result['error'].strip().splitlines()[-1]}"
        for label, result in labelled
        if "error" in result
    ]
    completed = [r for r in timed if "error" not in r]
    digests = sorted({r["digest"] for r in completed})
    if len(digests) > 1:
        problems.append(f"repeat digests differ: {digests}")
    if not problems and oracle[0]["digest"] != oracle[1]["digest"]:
        problems.append(
            f"oracle mismatch: {WORKLOADS[name].executor} {oracle[0]['digest'][:16]} != "
            f"serial+SQLDB_FORCE_SCAN {oracle[1]['digest'][:16]}"
        )
    if not problems and traced and traced["digest"] != digests[0]:
        problems.append("traced repeat's digest differs from the untraced repeats'")

    # A step fails if it raises; every step of the run fails if a digest or
    # the oracle disagrees.
    attempted = len(timed) * (WARMUP_STEPS + steps) + len(setups) * WARMUP_STEPS
    failed = attempted if problems else 0
    summary = {
        "workload": name,
        "seed": seed,
        "repeats": len(timed),
        "measured_steps": steps,
        "comparable": comparable,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "digest": digests[0] if len(digests) == 1 else None,
        "oracle_digest": oracle[0].get("digest"),
        "loadavg_1m": results["load"],
        "end_to_end": {},
        "per_layer": {},
    }
    if not problems:
        summary["end_to_end"] = end_to_end_metrics(timed, setups)
        summary["series"] = {
            "denoised_ms": denoise([[step_ms(s) for s in _measured(r)] for r in timed]),
            "repeat_p50_ms": [statistics.median(step_ms(s) for s in _measured(r)) for r in timed],
            "repeat_raw_p50_ms": [
                statistics.median(s["wall"] * 1000.0 for s in _measured(r)) for r in timed
            ],
            "setup_s": [r["setup_s"] for r in timed + setups],
            "setup_raw_s": [r["setup_raw_s"] for r in timed + setups],
        }
        if traced:
            summary["per_layer"] = per_layer_metrics(timed, traced, serial, failed / attempted)
            summary["layer_self_share"] = traced["layers"]["layer_self_share"]
    return summary


def _measured(result: dict) -> list[dict]:
    return result["steps"][WARMUP_STEPS:]


def end_to_end_metrics(repeats: list[dict], setups: list[dict]) -> dict:
    """The end-to-end metrics: ``name -> (value, sample count)``."""
    series = [[step_ms(s) for s in _measured(r)] for r in repeats]
    steps = _measured(repeats[0])  # answers and bytes are identical across repeats
    answers = sum(s["answers"] for s in steps)
    every_setup = [r["setup_s"] for r in repeats + setups]
    total_ms = statistics.median(sum(values) for values in series)
    return {
        "setup_s": (statistics.median(every_setup), len(every_setup)),
        "epoch_ms_p50": (statistics.median(statistics.median(v) for v in series), len(steps)),
        "answers_per_s": (answers / (total_ms / 1000.0), len(steps)),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in repeats), len(repeats)),
        "relay_bytes_per_answer": (sum(s["relay_bytes"] for s in steps) / answers, answers),
        "accuracy_loss": (repeats[0]["accuracy_loss"], len(steps)),
    }


def per_layer_metrics(
    repeats: list[dict], traced: dict, serial: dict, failed_share: float
) -> dict:
    """Every per-layer metric: ``name -> value``.

    The span- and counter-based ones come from the traced repeat; the
    ``runtime`` summary and ``host`` rows come from the untraced repeats.
    """
    series = [[step_ms(s) for s in _measured(r)] for r in repeats]
    denoised = denoise(series)
    raw = denoise([[s["wall"] * 1000.0 for s in _measured(r)] for r in repeats])
    quarter = max(1, len(denoised) // 4)
    p50 = statistics.median(denoised)
    references = [
        ref for r in repeats for s in _measured(r) for ref in (s["ref_before"], s["ref_after"])
    ]
    repeat_p50 = [statistics.median(s["wall"] for s in _measured(r)) for r in repeats]
    serial_p50 = statistics.median(step_ms(s) for s in _measured(serial))
    metrics = dict(traced["layers"]["metrics"])
    metrics.update(
        {
            "core.estimation.accuracy_loss": repeats[0]["accuracy_loss"],
            "runtime.epoch_ms_p90": percentile(denoised, 0.9),
            "runtime.epoch_ms_max": max(denoised),
            "runtime.epoch_raw_ms_p50": statistics.median(raw),
            "runtime.epoch_drift_ratio": (
                statistics.median(denoised[-quarter:]) / statistics.median(denoised[:quarter])
            ),
            "runtime.serial.epoch_ms_p50": serial_p50,
            "runtime.serial.speedup": serial_p50 / p50,
            "runtime.failed_share": failed_share,
            "host.ref_ms_p50": statistics.median(references),
            "host.ref_ms_floor": min(references),
            "host.slowdown": statistics.mean(references) / REF_MS_NOMINAL,
            "host.repeat_spread": (
                (max(repeat_p50) - min(repeat_p50)) / statistics.median(repeat_p50)
            ),
            "trace.overhead_ratio": (
                statistics.median(traced["layers"]["traced_step_ms"]) / p50 - 1.0
            ),
        }
    )
    return metrics


def environment() -> dict:
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "loadavg_1m": os.getloadavg()[0],
        "ref_ms_nominal": REF_MS_NOMINAL,
        "k_repeats": K_REPEATS,
        "setup_repeats": SETUP_REPEATS,
        "warmup_steps": WARMUP_STEPS,
    }
