"""Self-tests of the epoch_profile harness (not part of tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/epoch_profile/test_harness.py -q
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import harness  # noqa: E402
import metrics  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
MINIATURE_CLIENTS = 24
MINIATURE_EPOCHS = 4


# -- the denoiser ---------------------------------------------------------------


def test_denoiser_keeps_recurring_spikes_and_drops_one_off_ones():
    rng = random.Random(5)
    base = [10.0 + 0.01 * i for i in range(40)]
    recurring = {2: 25.0, 9: 30.0, 17: 22.0}  # GC pauses: same index in every repeat
    free = [i for i in range(40) if i not in recurring]
    rng.shuffle(free)
    repeats = []
    for repeat in range(3):
        series = [value + rng.uniform(0.0, 0.05) for value in base]
        for index, height in recurring.items():
            series[index] += height
        for index in free[6 * repeat : 6 * repeat + 6]:  # neighbour noise: this repeat only
            series[index] += rng.uniform(5.0, 40.0)
        repeats.append(series)
    denoised = harness.denoise(repeats)
    for index in range(40):
        if index in recurring:
            assert denoised[index] >= base[index] + recurring[index]
        else:
            assert denoised[index] < base[index] + 0.06
    assert any(max(series) > 40.0 for series in repeats)


def test_denoiser_is_the_per_index_median():
    assert harness.denoise([[3.0, 9.0, 5.0], [4.0, 2.0, 6.0], [5.0, 8.0, 1.0]]) == [4.0, 8.0, 5.0]


def _repeat(step_values_ms, setup_s=1.0):
    ref = harness.REF_MS_NOMINAL
    steps = [
        {"wall": v / 1000.0, "ref_before": ref, "ref_after": ref, "answers": 10, "relay_bytes": 100}
        for v in [0.0] * harness.WARMUP_STEPS + list(step_values_ms)
    ]
    return {"steps": steps, "setup_s": setup_s, "peak_rss_mb": 1.0, "accuracy_loss": 0.5}


def test_end_to_end_statistics_are_medians_over_the_repeats():
    # A full collection lands one step later in the second repeat (pool
    # threads), and the third repeat ran 1.5x slow throughout.
    calm = _repeat([10.0, 40.0, 10.0, 10.0])
    wobble = _repeat([10.0, 10.0, 40.0, 10.0])
    slow = _repeat([15.0, 60.0, 15.0, 15.0])
    metrics_ = harness.end_to_end_metrics([calm, wobble, slow], [_repeat([], setup_s=3.0)])
    assert metrics_["epoch_ms_p50"][0] == pytest.approx(10.0)
    assert metrics_["answers_per_s"][0] == pytest.approx(40 / 0.070)  # the pause counts once
    assert metrics_["setup_s"] == (1.0, 4)
    # A host that is uniformly slower, kernel included, reads the same.
    for step in slow["steps"]:
        step["ref_before"] = step["ref_after"] = harness.REF_MS_NOMINAL * 1.5
    assert harness.step_ms(slow["steps"][3]) == pytest.approx(40.0)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 11)]
    assert harness.percentile(values, 0.9) == 9.0
    assert harness.percentile(values, 0.5) == 5.0
    assert harness.percentile([7.0], 0.9) == 7.0


def test_reference_kernel_leaves_the_gc_schedule_alone():
    harness.reference_kernel_ms()  # fills the interpreter's free lists
    collections = []
    callback = lambda phase, info: collections.append(phase)  # noqa: E731
    gc.callbacks.append(callback)
    try:
        before = gc.get_count()
        elapsed = harness.reference_kernel_ms()
        after = gc.get_count()
    finally:
        gc.callbacks.remove(callback)
    assert elapsed > 0.0 and gc.isenabled()
    assert not collections
    assert after[1:] == before[1:] and abs(after[0] - before[0]) <= 8
    # A full collection empties the free lists; refilling them may cost a few
    # of the 700 allocations that make a young collection due, never one itself.
    gc.collect()
    before = gc.get_count()
    harness.reference_kernel_ms()
    assert 0 <= gc.get_count()[0] - before[0] < 200


def test_schedule_interleaves_workloads_and_alternates_sides():
    order = harness.schedule(["a", "b"], sides=2, repeats=3, setups=4)
    timed = [(side, name) for side, name, kind in order if kind == "timed"]
    assert timed == [
        (0, "a"), (1, "a"), (0, "b"), (1, "b"),
        (1, "a"), (0, "a"), (1, "b"), (0, "b"),
        (0, "a"), (1, "a"), (0, "b"), (1, "b"),
    ]
    assert [entry for entry in order if entry[2] == "setups"] == [
        (0, "a", "setups"), (1, "a", "setups"), (0, "b", "setups"), (1, "b", "setups")
    ]
    # One workload, one side: the driver's form degenerates to K repeats in a row.
    assert harness.schedule(["a"], 1, 3, 3) == [(0, "a", "timed")] * 3


# -- span self-time arithmetic --------------------------------------------------


def _self_times(spans):
    """spans: (id, parent, start, end) -> {id: self time}"""
    ids = np.array([s[0] for s in spans], dtype=float)
    parent = np.array([s[1] for s in spans], dtype=float)
    start = np.array([s[2] for s in spans], dtype=float)
    end = np.array([s[3] for s in spans], dtype=float)
    return dict(zip(ids, tracer_module.self_times(start, end, parent, ids)))


def test_self_time_nested_children():
    result = _self_times([(3, 2, 3.0, 4.0), (2, 1, 2.0, 5.0), (1, 0, 0.0, 10.0)])
    assert result[1] == pytest.approx(7.0)
    assert result[2] == pytest.approx(2.0)
    assert result[3] == pytest.approx(1.0)


def test_self_time_overlapping_children_count_once():
    # Two pool threads under one engine span: [1, 6] and [4, 8] cover [1, 8].
    result = _self_times([(2, 1, 1.0, 6.0), (3, 1, 4.0, 8.0), (1, 0, 0.0, 10.0)])
    assert result[1] == pytest.approx(3.0)
    # A child contained in another adds nothing.
    result = _self_times([(2, 1, 1.0, 9.0), (3, 1, 4.0, 5.0), (1, 0, 0.0, 10.0)])
    assert result[1] == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent_interval():
    result = _self_times([(2, 1, 8.0, 15.0), (3, 1, -2.0, 1.0), (1, 0, 0.0, 10.0)])
    assert result[1] == pytest.approx(7.0)


def test_self_time_does_not_leak_between_parents():
    spans = [(1, 0, 0.0, 10.0), (2, 0, 20.0, 30.0), (3, 0, 40.0, 41.0)]
    spans += [(10, 1, 8.0, 9.5), (11, 2, 20.5, 21.0), (12, 2, 20.75, 22.0), (13, 1, 1.0, 2.0)]
    result = _self_times(spans)
    assert result[1] == pytest.approx(10.0 - 1.5 - 1.0)
    assert result[2] == pytest.approx(10.0 - 1.5)
    assert result[3] == pytest.approx(1.0)


def test_self_time_matches_a_brute_force_union():
    rng = random.Random(11)
    spans = [(1, 0, 0.0, 100.0), (2, 0, 200.0, 300.0)]
    for span_id in range(3, 60):
        parent = rng.choice((1, 2))
        low = 0.0 if parent == 1 else 200.0
        start = low + rng.uniform(0.0, 95.0)
        spans.append((span_id, parent, start, start + rng.uniform(0.1, 20.0)))
    result = _self_times(spans)
    for parent, (low, high) in ((1, (0.0, 100.0)), (2, (200.0, 300.0))):
        grid = np.linspace(low, high, 200_001)
        covered = np.zeros(len(grid), dtype=bool)
        for _, owner, start, end in spans[2:]:
            if owner == parent:
                covered |= (grid >= start) & (grid < min(end, high))
        assert result[parent] == pytest.approx(100.0 - covered.mean() * 100.0, abs=0.01)


def test_orphan_spans_are_adopted_by_the_open_engine_span():
    names = [tracer_module.ENGINE_SPAN, "core.client.answer", "core.system.run_epoch_all"]
    columns = {
        "name": np.array([2, 0, 1, 1]),
        "start": np.array([0.0, 1.0, 2.0, 50.0]),
        "end": np.array([10.0, 9.0, 3.0, 51.0]),
        "parent": np.array([0.0, 100.0, 0.0, 0.0]),
        "id": np.array([100.0, 101.0, 102.0, 103.0]),
        "value": np.zeros(4),
    }
    tracer_module.adopt_orphans(columns, names)
    assert columns["parent"].tolist() == [0.0, 100.0, 101.0, 0.0]


def test_spans_are_assigned_to_the_step_whose_segment_contains_their_start():
    steps = [{"segments": [(0.0, 1.0), (2.0, 3.0)]}, {"segments": [(5.0, 6.0)]}]
    assigned = tracer_module.assign_steps(np.array([0.5, 1.5, 2.5, 4.0, 5.0, 7.0, -1.0]), steps)
    assert assigned.tolist() == [0, -1, 0, -1, 1, -1, -1]


# -- declared metrics -------------------------------------------------------------


def test_declared_names_and_units_fit_the_contract():
    for declared in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", declared["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", declared["unit"])
        assert declared["better"] in ("lower", "higher")
    assert all(0.0 < bound <= 0.25 for bound in metrics.BOUNDS.values())
    assert metrics.BOUNDS["setup_s"] == max(metrics.BOUNDS.values())
    assert set(metrics.EXACT) <= set(metrics.END_TO_END)
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert MANIFEST["paths"] == ["benchmarks/epoch_profile"]
    assert len(MANIFEST["per_layer"]) <= 128


def _summary(seed, digest, **values):
    end_to_end = {name: (1.0, 1) for name in metrics.END_TO_END}
    end_to_end.update({name: (value, 1) for name, value in values.items()})
    return {"workload": "w", "seed": seed, "measured_steps": 60, "digest": digest,
            "end_to_end": end_to_end}


def test_compare_requires_equality_of_seed_determined_values(capsys):
    import run

    base = _summary(12, "d1", accuracy_loss=0.100)
    # 5 % more loss is inside the bound across seeds, but not for the same seed.
    assert run.compare_pair("t", base, _summary(12, "d1", accuracy_loss=0.105), False)[1] == 1
    assert run.compare_pair("t", base, _summary(13, "d2", accuracy_loss=0.105), False)[1] == 0
    assert run.compare_pair("t", base, _summary(12, "d2", accuracy_loss=0.100), False)[1] == 1
    assert run.compare_pair("t", base, _summary(12, "d1", accuracy_loss=0.100), False)[1] == 0
    # Against a parent only worse counts; between two runs of one commit any gap does.
    faster = _summary(12, "d1", accuracy_loss=0.100, epoch_ms_p50=0.8)
    assert run.compare_pair("t", base, faster, False)[1] == 0
    assert run.compare_pair("t", base, faster, True)[1] == 1
    capsys.readouterr()


def test_tree_folds_a_step_by_span_name_path(tmp_path, capsys):
    import run

    def span(span_id, name, parent, start, end, epoch=2, value=0.0):
        return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent,
                "pid": 1, "epoch": epoch, "self": end - start, "value": value}

    spans = [
        span(1, "core.system.run_epoch_all", 0, 0.0, 0.010),
        span(2, "core.client.answer", 1, 0.001, 0.002, value=2.0),
        span(3, "core.client.answer", 1, 0.003, 0.005, value=3.0),
        span(4, "core.rr.randomize", 3, 0.003, 0.004),
        span(5, "core.system.run_epoch_all", 0, 1.0, 1.5, epoch=3),  # a later step: not shown
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    run.print_tree(path)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "core.system.run_epoch_all", "core.client.answer", "core.rr.randomize"
    ]
    assert "x2" in lines[1] and "3.00 ms" in lines[1] and "value 5" in lines[1]
    assert lines[2].startswith("    core.rr.randomize")


# -- miniature runs of every workload ---------------------------------------------


@pytest.fixture(scope="module")
def miniatures(tmp_path_factory):
    """One untraced and one traced 4-epoch miniature run of each workload."""
    results_dir = tmp_path_factory.mktemp("epoch_profile")
    saved_dir, saved = harness.RESULTS_DIR, dict(workloads.WORKLOADS)
    harness.RESULTS_DIR = results_dir
    runs = {}
    try:
        for name, workload in saved.items():
            workloads.WORKLOADS[name] = dataclasses.replace(
                workload, clients=MINIATURE_CLIENTS
            )
            job = {"workload": name, "seed": 1213, "epochs": MINIATURE_EPOCHS}
            originals = [
                (owner, attribute, vars(owner)[attribute])
                for owner, attribute, _ in tracer_module.patch_table()
            ]
            untraced = harness.run_repeat(job)
            traced = harness.run_repeat({**job, "traced": True})
            restored = all(
                vars(owner)[attribute] is original for owner, attribute, original in originals
            )
            runs[name] = (untraced, traced, restored, results_dir)
    finally:
        harness.RESULTS_DIR = saved_dir
        workloads.WORKLOADS.update(saved)
    return runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_is_draw_neutral(miniatures, name):
    untraced, traced, _, _ = miniatures[name]
    assert traced["digest"] == untraced["digest"]
    assert len(untraced["steps"]) == MINIATURE_EPOCHS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrappers_are_restored_after_a_traced_run(miniatures, name):
    assert miniatures[name][2]
    assert tracer_module._ACTIVE is None


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_emitted_metric_names_are_the_declared_ones(miniatures, name):
    untraced, traced, _, _ = miniatures[name]
    end_to_end = harness.end_to_end_metrics([untraced], [])
    per_layer = harness.per_layer_metrics([untraced], traced, untraced, 0.0)
    assert set(end_to_end) == {m["name"] for m in MANIFEST["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in MANIFEST["per_layer"]}
    for metric in (*end_to_end, *per_layer):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
    assert all(np.isfinite(value) for value in per_layer.values())
    assert all(np.isfinite(value) and value > 0 for value, _ in end_to_end.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_writes_a_trace_with_consistent_self_times(miniatures, name):
    _, traced, _, results_dir = miniatures[name]
    lines = (results_dir / f"trace-{name}.jsonl").read_text().splitlines()
    assert len(lines) == traced["layers"]["trace_file_spans"] > 0
    spans = [json.loads(line) for line in lines]
    assert {"id", "name", "start", "end", "parent", "epoch", "self"} <= set(spans[0])
    for span in spans:
        assert -1e-9 <= span["self"] <= span["end"] - span["start"] + 1e-9
    assert not list(results_dir.glob("worker-*.spans"))


def test_only_the_wire_workload_reports_wire_and_worker_metrics(miniatures):
    for name, (_, traced, _, _) in miniatures.items():
        layer = traced["layers"]["metrics"]
        wire = layer["runtime.wire.bytes_per_epoch"] + layer["runtime.affinity.worker_answer_ms"]
        assert (wire > 0) == (name == "stream-append")
        hostile = layer["core.admission.rejected_duplicates"] + layer["runtime.engine.late_drops"]
        assert (hostile > 0) == (name == "hostile-mix")
