"""Per-layer metrics of the traced repeat.

Every layer is measured from outside: span wrappers around its public
functions (``tracer.patch_table``) and its public counters
(``engine.stage_metrics``, ``ShardArena.arena_stats()``,
``AnswerAdmissionController.metrics()``, ``ProxyNetwork.total_*_relayed()``,
``ShardAck.wall_seconds``).  Layers are the repo's modules.

Units: ``*_ms`` are raw (not host-normalized) ms per epoch step, median over
the measured steps, except set-up spans (``build``, ``submit_query``,
``build_plan``), which are totals.  Volume counts are means per measured
step; event counts are totals over the run.  README.md lists every metric.
"""

from __future__ import annotations

import os
import statistics

import numpy as np
from tracer import ENGINE_SPAN, SpanTable, Tracer


def _median(values) -> float:
    values = [float(v) for v in values]
    return statistics.median(values) if values else 0.0


def layer_metrics(
    tracer: Tracer, steps: list[dict], measured: range, system, workers_rss_mb: float
) -> dict:
    table = SpanTable(tracer, steps, measured)
    executor = system.executor
    stage = [
        s
        for s in (
            getattr(executor, "stage_metrics", {}).get(steps[i]["epoch"]) for i in measured
        )
        if s is not None
    ]
    aggregators = [system.aggregator_for(qid) for qid in system.query_ids()]
    num = len(measured)
    answers = sum(steps[i]["answers"] for i in measured)
    step_wall = sum(steps[i]["wall"] for i in measured)
    coins = table.calls("core.sampling.coin")
    outcomes = table.value("sqldb.engine.arena_select")
    late_drops = sum(s.late_drops for s in stage)
    wire_bytes = sum(s.wire_bytes for s in stage)
    # ShardAck.wall_seconds of every ack decoded in a step, by step.
    ack_walls = [v for v in table.per_step_values("runtime.wire.decode_ack") if v.size]
    # Answer stage on the wire path, coordinator's view: first frame encoded
    # to last ack decoded; the wait is what the slowest worker does not explain.
    stage_wall = table.stage_wall_ms(
        "runtime.wire.encode", "runtime.wire.decode_ack", os.getpid()
    )
    waits = np.maximum(0.0, stage_wall - table.worker_busy_max_ms(os.getpid()))
    gc_pauses = table.per_step_values("python.gc.pause")

    def stage_ms(field: str) -> float:
        return _median(getattr(s, field) * 1000.0 for s in stage)

    metrics = {
        "core.system.build_ms": table.setup_ms("core.system.build"),
        "core.system.submit_query_ms": table.setup_ms("core.system.submit_query"),
        "core.system.set_active_clients_ms": table.ms("core.system.set_active_clients"),
        "core.system.run_epoch_self_ms": table.self_ms("core.system.run_epoch_all"),
        "core.client.answer_ms": table.ms("core.client.answer"),
        "core.client.answer_self_ms": table.self_ms("core.client.answer"),
        "core.client.answer_calls": table.calls("core.client.answer"),
        "core.client.ingest_ms": table.ms("core.client.ingest"),
        "core.client.ingested_rows": table.value("core.client.ingest"),
        "core.client.export_state_ms": table.ms("core.client.export_state"),
        "core.sampling.coin_calls": coins,
        "core.sampling.participation_ratio": answers / num / coins if coins else 0.0,
        "core.rr.randomize_ms": table.ms("core.rr.randomize"),
        "core.rr.bits": table.value("core.rr.randomize"),
        "core.encryption.encrypt_ms": table.ms("core.encryption.encrypt"),
        "core.encryption.decode_ms": table.ms("core.encryption.decode"),
        "crypto.prng.keystream_ms": table.ms("crypto.prng.keystream"),
        "crypto.prng.keystream_bytes": table.value("crypto.prng.keystream"),
        "crypto.xor.join_shares_ms": table.ms("crypto.xor.join_shares"),
        "crypto.xor.joined_groups": table.value("crypto.xor.join_shares"),
        "sqldb.engine.arena_select_ms": table.ms("sqldb.engine.arena_select"),
        "sqldb.engine.arena_select_calls": table.calls("sqldb.engine.arena_select"),
        "sqldb.compile.probe_ms": table.ms("sqldb.compile.probe"),
        # arena_select self time: the finisher and ResultSet construction.
        "sqldb.engine.finish_ms": table.self_ms("sqldb.engine.arena_select"),
        "sqldb.engine.per_client_queries": table.calls("sqldb.engine.per_client_query"),
        "sqldb.engine.per_client_query_ms": table.ms("sqldb.engine.per_client_query"),
        "sqldb.engine.result_use_ratio": (
            table.value("core.client.answer") / outcomes if outcomes else 0.0
        ),
        "sqldb.columnar.sync_ms": table.ms("sqldb.columnar.sync"),
        "sqldb.columnar.appended_rows": table.value("sqldb.columnar.appended_rows"),
        "sqldb.columnar.arena_rebuilds": table.total_value("sqldb.columnar.arena_rebuilds"),
        "sqldb.columnar.span_rows": table.run_total_value("sqldb.columnar.span_rows"),
        "core.proxy.transmit_ms": table.ms("core.proxy.transmit"),
        "core.proxy.shares_relayed": sum(steps[i]["relay_shares"] for i in measured) / num,
        "core.proxy.bytes_relayed": sum(steps[i]["relay_bytes"] for i in measured) / num,
        "pubsub.publish_ms": table.ms("pubsub.publish"),
        "pubsub.publish_records": table.value("pubsub.publish"),
        "pubsub.poll_ms": table.ms("pubsub.poll"),
        "pubsub.poll_records": table.value("pubsub.poll"),
        "pubsub.consumer_lag_max": float(tracer.consumer_lag_max()),
        "core.aggregator.ingest_ms": table.ms("core.aggregator.ingest"),
        "core.aggregator.ingest_self_ms": table.self_ms("core.aggregator.ingest"),
        "core.aggregator.finish_epoch_ms": table.ms("core.aggregator.finish_epoch"),
        "core.aggregator.answers_processed": (
            sum(a.answers_processed for a in aggregators) / len(steps)
        ),
        "core.aggregator.malformed_messages": float(
            sum(a.malformed_messages for a in aggregators)
        ),
        "core.aggregator.pending_joins": float(sum(a.pending_joins() for a in aggregators)),
        "core.admission.token_ms": table.ms("core.admission.token"),
        "core.admission.admit_ms": table.ms("core.admission.admit"),
        "core.admission.rejected_duplicates": float(
            sum(
                a.admission.metrics()["duplicates_rejected"]
                for a in aggregators
                if a.admission is not None
            )
        ),
        "core.validation.validate_ms": table.ms("core.validation.validate"),
        "core.validation.invalid_answers": float(sum(a.invalid_answers for a in aggregators)),
        "streaming.window_ms": table.ms("streaming.window"),
        "core.estimation.error_bound_ms": table.ms("core.estimation.error_bound"),
        "core.estimation.error_bound_calls": table.calls("core.estimation.error_bound"),
        "runtime.engine.plan_ms": stage_ms("plan_seconds"),
        "runtime.engine.answer_ms": stage_ms("answer_seconds"),
        "runtime.engine.transmit_ms": stage_ms("transmit_seconds"),
        "runtime.engine.ingest_ms": stage_ms("ingest_seconds"),
        "runtime.engine.finalize_ms": stage_ms("finalize_seconds"),
        # Engine self time: run_epoch with no wrapped layer function running
        # on any thread or worker (glue, queue hand-offs, idle waits).
        "runtime.engine.overhead_ms": table.self_ms(ENGINE_SPAN),
        "runtime.engine.reshard_events": float(sum(s.reshard_events for s in stage)),
        "runtime.engine.late_drops": float(late_drops),
        "runtime.engine.late_drop_ratio": (
            late_drops / (late_drops + answers) if late_drops + answers else 0.0
        ),
        "runtime.wire.encode_ms": table.ms("runtime.wire.encode"),
        "runtime.wire.decode_ms": table.ms("runtime.wire.decode", "runtime.wire.decode_ack"),
        "runtime.wire.bytes_per_epoch": wire_bytes / num,
        "runtime.wire.bytes_per_answer": wire_bytes / answers if answers else 0.0,
        "runtime.affinity.bootstrap_frames": float(getattr(executor, "bootstrap_frames", 0)),
        "runtime.affinity.delta_frames": float(getattr(executor, "delta_frames", 0)),
        # A checkpoint epoch is one whose acks carried full client state.
        "runtime.affinity.checkpoint_epochs": float(
            table.steps_with("core.client.export_state")
        ),
        "runtime.affinity.worker_answer_ms": _median(v.sum() * 1000.0 for v in ack_walls),
        "runtime.affinity.worker_wait_ms": _median(waits[~np.isnan(waits)]),
        "runtime.affinity.shard_skew": _median(
            v.max() / v.mean() for v in ack_walls if v.mean() > 0.0
        ),
        "runtime.affinity.workers_rss_mb": workers_rss_mb,
        "runtime.scenario.build_plan_ms": table.setup_ms("runtime.scenario.build_plan"),
        "runtime.scenario.harness_outside_ms": _median(
            steps[i]["outside"] * 1000.0 for i in measured
        ),
        "python.gc.pause_ms": table.ms("python.gc.pause"),
        "python.gc.pause_share": table.total_seconds("python.gc.pause") / step_wall,
        "python.gc.gen2_collections": float(sum(int((v == 2.0).sum()) for v in gc_pauses)),
        "trace.spans": float(len(table.step)),
        "trace.coverage_ratio": table.coverage(step_wall),
    }
    return {
        "metrics": metrics,
        "layer_self_share": table.layer_self_share(step_wall),
        "table": table,
    }
