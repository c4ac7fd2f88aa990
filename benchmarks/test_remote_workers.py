"""Separately launched TCP workers vs spawned loopback workers.

Not a paper figure but the acceptance benchmark for the remote worker
transport (:mod:`repro.runtime.remote`).  Three claims on a localhost
deployment:

* **Digest identity** — a scenario run on remote workers produces a digest
  byte-identical to the serial reference (the same contract every executor
  satisfies; here it also covers handshake, sealing and reconnect logic).
* **Frame RTT** — the per-frame cost of the sealed channel (HMAC-SHA256
  seal + TCP round trip + verify) measured directly with a minimal
  delta/ack exchange, reported as median microseconds per round trip.
* **Epoch overhead** — per-epoch wall-clock of the resident executor on
  separately launched workers (here: server threads inside this process,
  sharing its GIL) vs on the workers ``framed-wire-local`` spawns as child
  processes.  Both pay the same socket + MAC tax on the same frames, so the
  overhead must stay a small multiple; the claim asserted is a generous
  ceiling
  (``REMOTE_OVERHEAD_CEILING``x) because loopback latency on shared CI
  runners varies wildly.

All rows land in ``results/BENCH_remote_workers.json`` for CI archival.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

from repro.runtime import RemoteWorkerServer, RemoteWorkerTransport, run_scenario
from repro.runtime.scenario import find_scenario
from repro.runtime.wire import (
    ShardBootstrap,
    ShardDelta,
    decode_shard_ack,
    encode_shard_bootstrap,
    encode_shard_delta,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
KEY = bytes.fromhex("5c" * 32)

RTT_ROUNDS = 400
EPOCH_SCENARIO = "churn-mild"
# Loopback + HMAC on small frames is cheap, but CI loopback latency is noisy;
# the epoch-overhead assertion uses a deliberately generous ceiling.
REMOTE_OVERHEAD_CEILING = 3.0


def start_servers(count: int) -> list[RemoteWorkerServer]:
    servers = []
    for _ in range(count):
        server = RemoteWorkerServer("127.0.0.1", 0, KEY)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
    return servers


def write_key_file(path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(KEY.hex() + "\n")
    return path


def measure_frame_rtt() -> dict:
    """Median seal + send + serve + ack + verify time for a tiny frame.

    The shard is bootstrapped once with a single client, then RTT_ROUNDS
    empty deltas (no answering work: ``query_ids=()``) round-trip through
    the sealed channel — so the measurement isolates transport cost, not
    client answering.  Each delta expects the token the previous ack carried
    (the chain a coordinator would follow), encoded outside the timed region.
    """
    from repro.core.client import Client, ClientConfig

    server = start_servers(1)[0]
    try:
        transport = RemoteWorkerTransport([server.address], [KEY])
        client = Client(ClientConfig(client_id="rtt-0", num_proxies=2, seed=1))
        client.create_table([("value", "REAL")])
        transport.send(
            0,
            encode_shard_bootstrap(
                ShardBootstrap(
                    shard_index=0,
                    epoch=0,
                    query_ids=(),
                    client_states=(client.export_state(),),
                )
            ),
        )
        ack = decode_shard_ack(transport.recv(timeout=10.0))
        times = []
        for _ in range(RTT_ROUNDS):
            delta_frame = encode_shard_delta(
                ShardDelta(
                    shard_index=0,
                    epoch=0,
                    query_ids=(),
                    deltas=(None,),
                    expected_fingerprint=ack.fingerprint,
                )
            )
            start = time.perf_counter()
            transport.send(0, delta_frame)
            blob = transport.recv(timeout=10.0)
            times.append(time.perf_counter() - start)
            ack = decode_shard_ack(blob)
            assert ack.error is None and not ack.bootstrap_required
        transport.close()
    finally:
        server.stop()
    return {
        "rounds": RTT_ROUNDS,
        "frame_bytes": len(delta_frame),
        "best_us": min(times) * 1e6,
        "median_us": statistics.median(times) * 1e6,
        "p99_us": sorted(times)[int(len(times) * 0.99)] * 1e6,
    }


def measure_scenario(remote: bool, key_path: str) -> dict:
    """Run the epoch-overhead scenario on spawned or separately launched workers."""
    spec = find_scenario(EPOCH_SCENARIO)
    servers = start_servers(2) if remote else []
    try:
        start = time.perf_counter()
        if remote:
            run = run_scenario(
                spec,
                executor="pinned-worker/sealed-tcp-remote",
                remote_workers=[f"{s.address[0]}:{s.address[1]}" for s in servers],
                key_file=key_path,
            )
        else:
            run = run_scenario(
                spec,
                executor="pinned-worker/framed-wire-local",
                workers=2,
            )
        wall = time.perf_counter() - start
    finally:
        for server in servers:
            server.stop()
    return {
        "executor": run.executor_label,
        "digest": run.digest,
        "wall_seconds": wall,
        "epoch_wall_seconds_median": statistics.median(
            stats.wall_seconds for stats in run.epochs
        ),
        "wire_bytes": run.total_wire_bytes,
    }


def test_remote_transport_overhead(report, tmp_path):
    key_path = write_key_file(str(tmp_path / "bench.keys"))
    rtt = measure_frame_rtt()
    serial = run_scenario(find_scenario(EPOCH_SCENARIO), executor="serial")
    resident = measure_scenario(remote=False, key_path=key_path)
    remote = measure_scenario(remote=True, key_path=key_path)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_remote_workers.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "benchmark": "remote_workers",
                "scenario": EPOCH_SCENARIO,
                "cpu_count": os.cpu_count() or 1,
                "frame_rtt": rtt,
                "rows": [
                    {"config": "serial (reference)", "digest": serial.digest},
                    {"config": "resident on spawned workers", **resident},
                    {"config": "resident over TCP", **remote},
                ],
            },
            handle,
            indent=2,
        )

    report.title(
        f"Remote TCP workers ({EPOCH_SCENARIO}: "
        f"{serial.spec.num_clients} clients x {serial.spec.num_epochs} epochs, "
        "2 workers on loopback)"
    )
    report.table(
        ["configuration", "median epoch (ms)", "total wall (s)", "wire bytes"],
        [
            [
                name,
                entry["epoch_wall_seconds_median"] * 1e3,
                entry["wall_seconds"],
                entry["wire_bytes"],
            ]
            for name, entry in [
                ("resident on spawned workers", resident),
                ("resident over TCP", remote),
            ]
        ],
    )
    report.note(
        f"Sealed frame RTT on loopback ({rtt['frame_bytes']}-byte empty delta, "
        f"{rtt['rounds']} rounds): median {rtt['median_us']:.0f} us, "
        f"best {rtt['best_us']:.0f} us, p99 {rtt['p99_us']:.0f} us — "
        "seal (HMAC-SHA256) + TCP round trip + verify + serve."
    )
    report.note(
        "Both executors run the identical epoch logic over the same sealed "
        "transport (only who launches the workers differs), so the digest "
        "contract holds across the socket."
    )
    report.note("")

    # The correctness claims are hard assertions; the timing claim uses a
    # generous ceiling because shared-runner loopback latency is noisy.
    assert remote["digest"] == serial.digest, "remote digest diverged from serial"
    assert resident["digest"] == serial.digest, "resident digest diverged from serial"
    assert remote["epoch_wall_seconds_median"] <= (
        resident["epoch_wall_seconds_median"] * REMOTE_OVERHEAD_CEILING
        + 0.050  # absolute floor: tiny epochs are dominated by fixed costs
    ), (
        f"remote epoch median {remote['epoch_wall_seconds_median'] * 1e3:.1f} ms "
        f"exceeded {REMOTE_OVERHEAD_CEILING}x the spawned-worker median "
        f"{resident['epoch_wall_seconds_median'] * 1e3:.1f} ms"
    )
