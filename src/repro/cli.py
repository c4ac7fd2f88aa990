"""Command-line interface for the PrivApprox reproduction.

The CLI exposes the most common workflows without writing Python:

* ``plan``       — convert an execution budget into the (s, p, q) parameters;
* ``privacy``    — report the differential and zero-knowledge privacy levels
                   of a parameter configuration;
* ``simulate``   — run an end-to-end synthetic deployment and print the
                   estimated histogram next to the ground truth;
* ``taxi`` / ``electricity`` — run the two case studies;
* ``crypto-table`` — print the Table 2 device-calibrated crypto comparison;
* ``worker``     — serve shards as a remote resident worker over TCP
                   (``--listen HOST:PORT --key-file KEYS``); a coordinator
                   points at it with ``simulate --workers host:port,...``.
                   See ``docs/OPERATIONS.md`` for the full runbook.

Run ``python -m repro.cli <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Sequence

from repro.analytics import histogram_accuracy_loss
from repro.core import (
    Analyst,
    AnswerSpec,
    BudgetPlanner,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RangeBuckets,
    SystemConfig,
)
from repro.core.privacy import randomized_response_epsilon, zero_knowledge_epsilon
from repro.datasets import (
    ELECTRICITY_BUCKETS,
    ElectricityGenerator,
    TAXI_DISTANCE_BUCKETS,
    TaxiRideGenerator,
)
from repro.netsim import DeviceProfile, OperationKind
from repro.runtime import (
    DEFAULT_CHECKPOINT_EVERY,
    EXECUTOR_KINDS,
    validate_executor_options,
)


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    """Epoch-runtime selection flags shared by the end-to-end commands."""
    parser.add_argument(
        "--executor", choices=EXECUTOR_KINDS, default="serial",
        help="epoch runtime: 'serial' reference loop, or a staged-engine "
             "driver combination named 'scheduling/transport' (e.g. "
             "'pipelined-overlap/in-process' for a thread pool, "
             "'pinned-worker/framed-wire-local' for worker-resident client "
             "state in spawned, sealed loopback workers)",
    )
    parser.add_argument(
        "--workers", default="4",
        help="worker pool size for the pooled executors (default: 4) — or a "
             "comma-separated list of host:port addresses of separately "
             "launched TCP workers (requires a */sealed-tcp-remote "
             "--executor plus --key-file; see the 'worker' command)",
    )
    parser.add_argument(
        "--key-file", default=None, metavar="PATH",
        help="with host:port --workers: pre-shared HMAC keys, one hex key "
             "per line (line i keys worker i, or a single shared key)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count for the engine executors "
             "(default: one per worker)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT_EVERY,
        help="pinned-worker executors: refresh the parent's copy of the "
             "resident RNG/keystream state every N epochs per shard (0 = "
             "only on subscription changes and shutdown; "
             f"default: {DEFAULT_CHECKPOINT_EVERY})",
    )


def _executor_options(args: argparse.Namespace) -> tuple[int, tuple[str, ...] | None]:
    """Interpret ``--workers`` and validate it against ``--executor``.

    ``--workers`` is a pool size or remote ``host:port`` addresses; returns
    ``(pool_size, remote_addresses)`` — addresses are ``None`` for the plain
    integer form, and with addresses the pool size is their count.
    """
    value = args.workers
    remote = None
    if ":" in value:
        remote = tuple(part.strip() for part in value.split(",") if part.strip())
        pool_size = len(remote)
    else:
        try:
            pool_size = int(value)
        except ValueError:
            raise SystemExit(
                f"--workers expects an integer pool size or host:port "
                f"addresses, got {value!r}"
            ) from None
    try:
        validate_executor_options(args.executor, remote, args.key_file)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return pool_size, remote


def _system_config(args: argparse.Namespace, **overrides) -> SystemConfig:
    """Build a SystemConfig from the common CLI arguments."""
    pool_size, remote = _executor_options(args)
    return SystemConfig(
        num_clients=args.clients,
        seed=args.seed,
        executor=args.executor,
        executor_workers=pool_size,
        executor_shards=args.shards,
        executor_checkpoint_every=args.checkpoint_every,
        executor_remote_workers=remote,
        executor_key_file=args.key_file,
        **overrides,
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="privapprox",
        description="PrivApprox: privacy-preserving stream analytics (reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    plan = subparsers.add_parser("plan", help="convert a budget into (s, p, q)")
    plan.add_argument("--accuracy-loss", type=float, default=None,
                      help="target accuracy loss, e.g. 0.05 for 5%%")
    plan.add_argument("--epsilon", type=float, default=None,
                      help="maximum zero-knowledge privacy level")
    plan.add_argument("--latency", type=float, default=None, help="latency SLA in seconds")
    plan.add_argument("--clients", type=int, default=10_000, help="expected client count")

    privacy = subparsers.add_parser("privacy", help="privacy levels of a configuration")
    privacy.add_argument("--sampling-fraction", "-s", type=float, required=True)
    privacy.add_argument("-p", type=float, required=True)
    privacy.add_argument("-q", type=float, required=True)

    simulate = subparsers.add_parser("simulate", help="run a synthetic end-to-end deployment")
    simulate.add_argument("--clients", type=int, default=500)
    simulate.add_argument("--epochs", type=int, default=2)
    simulate.add_argument("--buckets", type=int, default=8)
    simulate.add_argument(
        "--queries", type=int, default=1,
        help="concurrent analyst queries served per epoch from one shared "
             "answering pass (each query gets its own bucketing, channel "
             "topics and aggregator; default: 1)",
    )
    simulate.add_argument("--sampling-fraction", "-s", type=float, default=0.9)
    simulate.add_argument("-p", type=float, default=0.9)
    simulate.add_argument("-q", type=float, default=0.6)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="run a named hostile-environment scenario from the seeded grid "
             "(repro.runtime.scenario) on the selected executor instead of "
             "the plain synthetic deployment; 'list' prints the grid",
    )
    _add_executor_arguments(simulate)

    taxi = subparsers.add_parser("taxi", help="run the NYC-taxi case study")
    taxi.add_argument("--clients", type=int, default=800)
    taxi.add_argument("--sampling-fraction", "-s", type=float, default=0.9)
    taxi.add_argument("-p", type=float, default=0.9)
    taxi.add_argument("-q", type=float, default=0.3)
    taxi.add_argument("--seed", type=int, default=11)
    _add_executor_arguments(taxi)

    electricity = subparsers.add_parser("electricity", help="run the electricity case study")
    electricity.add_argument("--clients", type=int, default=800)
    electricity.add_argument("--sampling-fraction", "-s", type=float, default=0.9)
    electricity.add_argument("-p", type=float, default=0.9)
    electricity.add_argument("-q", type=float, default=0.3)
    electricity.add_argument("--seed", type=int, default=17)
    _add_executor_arguments(electricity)

    subparsers.add_parser("crypto-table", help="print the Table 2 crypto comparison")

    worker = subparsers.add_parser(
        "worker",
        help="serve shards as a remote resident worker over TCP "
             "(coordinators connect via simulate --workers host:port,...)",
    )
    worker.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="address to bind (port 0 picks a free port; the bound address "
             "is printed as 'worker listening on HOST:PORT')",
    )
    worker.add_argument(
        "--key-file", required=True, metavar="PATH",
        help="pre-shared HMAC key, one hex line (this worker's key)",
    )
    worker.add_argument(
        "--max-sessions", type=int, default=None, metavar="N",
        help="exit after N coordinator sessions have ended (default: serve "
             "until interrupted; used by tests and the CI smoke)",
    )
    return parser


# -- command implementations -----------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    budget = QueryBudget(
        target_accuracy_loss=args.accuracy_loss,
        max_epsilon=args.epsilon,
        max_latency_seconds=args.latency,
        expected_clients=args.clients,
    )
    params = BudgetPlanner().plan(budget)
    print(f"sampling fraction s = {params.sampling_fraction:.3f}")
    print(f"randomization     p = {params.p:.3f}")
    print(f"randomization     q = {params.q:.3f}")
    print(f"zero-knowledge privacy level = {params.epsilon_zk:.3f}")
    return 0


def cmd_privacy(args: argparse.Namespace) -> int:
    eps_dp = randomized_response_epsilon(args.p, args.q)
    eps_zk = zero_knowledge_epsilon(args.p, args.q, args.sampling_fraction)
    print(f"epsilon_dp (randomized response alone) = {eps_dp:.4f}")
    print(f"epsilon_zk (with sampling s={args.sampling_fraction}) = {eps_zk:.4f}")
    return 0


def _print_histogram(labels, estimates, bounds, exact) -> None:
    print(f"{'bucket':>16}  {'estimate':>10}  {'error bound':>12}  {'exact':>7}")
    for label, estimate, bound, truth in zip(labels, estimates, bounds, exact):
        print(f"{label:>16}  {estimate:>10.1f}  ±{bound:>11.1f}  {truth:>7d}")


def _cmd_simulate_scenario(args: argparse.Namespace) -> int:
    """``simulate --scenario``: one grid scenario on the selected executor."""
    from repro.runtime.scenario import find_scenario, run_scenario, scenario_grid

    if args.scenario == "list":
        for spec in scenario_grid("full"):
            churn = f"join={spec.join_rate} leave={spec.leave_rate}"
            deadline = (
                f"deadline={spec.deadline_seconds}s"
                if spec.deadline_seconds is not None
                else "no deadline"
            )
            print(
                f"{spec.name:<20} clients={spec.num_clients:<3} "
                f"epochs={spec.num_epochs} {churn} zipf={spec.zipf_exponent} "
                f"dupes={spec.duplicate_rate} {deadline}"
            )
        return 0
    try:
        spec = find_scenario(args.scenario)
    except KeyError as exc:
        raise SystemExit(str(exc)) from exc
    pool_size, remote = _executor_options(args)
    run = run_scenario(
        spec,
        executor=args.executor,
        workers=pool_size,
        shards=args.shards,
        checkpoint_every=args.checkpoint_every,
        remote_workers=remote,
        key_file=args.key_file,
    )
    print(f"scenario {spec.name} on executor {run.executor_label}")
    print(f"  digest            {run.digest}")
    print(f"  wall-clock        {run.total_wall_seconds:.3f} s")
    print(f"  wire bytes        {run.total_wire_bytes}")
    print(f"  late drops        {run.total_late_dropped}")
    print(f"  admission rejects {run.total_rejections}")
    loss = run.mean_accuracy_loss
    print(
        "  accuracy loss     "
        + (f"{100 * loss:.2f}%" if loss is not None else "n/a (no exact answers)")
    )
    for stats in run.epochs:
        print(
            f"  epoch {stats.epoch}: active={stats.active_clients} "
            f"(+{stats.joins}/-{stats.leaves}) responses={stats.responses} "
            f"late={len(stats.late_clients)} dupes_rej={stats.duplicates_rejected}"
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        return _cmd_simulate_scenario(args)
    if args.queries < 1:
        raise SystemExit("--queries must be at least 1")
    system = PrivApproxSystem(_system_config(args))
    rng = random.Random(args.seed)
    system.provision_clients(
        [("value", "REAL")], lambda i: [{"value": rng.gammavariate(2.0, 1.0)}]
    )
    analyst = Analyst("cli")
    params = ExecutionParameters(
        sampling_fraction=args.sampling_fraction, p=args.p, q=args.q
    )
    # N concurrent queries over the same stream, each with its own bucket
    # resolution — the multi-analyst scenario the multi-query epoch serves
    # from one shared answering pass.
    queries = []
    for index in range(args.queries):
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(
                buckets=RangeBuckets.uniform(
                    0.0, 8.0, args.buckets + index, open_ended=True
                ),
                value_column="value",
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        system.submit_query(analyst, query, QueryBudget(), parameters=params)
        queries.append(query)
    if args.queries == 1:
        for epoch in range(args.epochs):
            system.run_epoch(queries[0].query_id, epoch)
    else:
        for epoch in range(args.epochs):
            system.run_epoch_all(epoch)
    for query in queries:
        system.flush(query.query_id)
    system.close()
    for index, query in enumerate(queries):
        results = analyst.results_for(query.query_id)
        exact = system.exact_bucket_counts(query.query_id)
        last = results[-1]
        if args.queries > 1:
            print(f"--- query {index + 1}/{args.queries} ({query.query_id}) ---")
        print(f"{len(results)} window results; last window shown below")
        _print_histogram(last.histogram.labels(), last.histogram.estimates(),
                         last.histogram.error_bounds(), exact)
        print(f"histogram accuracy loss vs exact: "
              f"{100 * histogram_accuracy_loss(exact, last.histogram.estimates()):.2f}%")
    return 0


def _run_case_study(args: argparse.Namespace, generator, buckets, sql, value_column) -> int:
    system = PrivApproxSystem(_system_config(args))
    system.provision_clients(
        generator.table_columns(),
        lambda i: (
            generator.rides_for_client(i, num_rides=2)
            if hasattr(generator, "rides_for_client")
            else generator.readings_for_client(i, num_readings=2)
        ),
    )
    analyst = Analyst("cli-case-study")
    query = analyst.create_query(
        sql,
        AnswerSpec(buckets=buckets, value_column=value_column),
        frequency_seconds=600.0,
        window_seconds=600.0,
        slide_seconds=600.0,
    )
    params = ExecutionParameters(
        sampling_fraction=args.sampling_fraction, p=args.p, q=args.q
    )
    system.submit_query(analyst, query, QueryBudget(), parameters=params)
    system.run_epoch(query.query_id, 0)
    result = system.flush(query.query_id)[0]
    system.close()
    exact = system.exact_bucket_counts(query.query_id)
    _print_histogram(result.histogram.labels(), result.histogram.estimates(),
                     result.histogram.error_bounds(), exact)
    loss = histogram_accuracy_loss(exact, result.histogram.estimates())
    print(f"accuracy loss: {100 * loss:.2f}%   "
          f"epsilon_zk: {zero_knowledge_epsilon(args.p, args.q, args.sampling_fraction):.3f}")
    return 0


def cmd_taxi(args: argparse.Namespace) -> int:
    generator = TaxiRideGenerator(seed=args.seed)
    return _run_case_study(
        args, generator, TAXI_DISTANCE_BUCKETS, TaxiRideGenerator.case_study_sql(), "distance"
    )


def cmd_electricity(args: argparse.Namespace) -> int:
    generator = ElectricityGenerator(seed=args.seed)
    return _run_case_study(
        args, generator, ELECTRICITY_BUCKETS, ElectricityGenerator.case_study_sql(), "kwh"
    )


def cmd_worker(args: argparse.Namespace) -> int:
    """Run one remote resident worker until interrupted (or --max-sessions)."""
    from repro.runtime.remote import RemoteWorkerServer, load_keys, parse_address

    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        raise SystemExit(f"--listen: {exc}") from None
    keys = load_keys(args.key_file)
    if len(keys) != 1:
        raise SystemExit(
            f"a worker's key file must hold exactly one key, found {len(keys)} "
            f"in {args.key_file} (per-worker files; see docs/OPERATIONS.md)"
        )
    server = RemoteWorkerServer(host, port, keys[0], max_sessions=args.max_sessions)
    bound_host, bound_port = server.address
    # Parents (tests, the CI smoke, operators scripting --listen :0) parse
    # this line to learn the bound port; keep its shape stable.
    print(f"worker listening on {bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(
        f"worker done: {server.sessions_served} sessions, "
        f"{server.frames_served} frames, {server.failed_sessions} failed, "
        f"{server.rejected_connections} rejected",
        flush=True,
    )
    return 0


def cmd_crypto_table(_: argparse.Namespace) -> int:
    devices = DeviceProfile.all_devices()
    schemes = [
        ("RSA", OperationKind.RSA_ENCRYPT),
        ("Goldwasser-Micali", OperationKind.GM_ENCRYPT),
        ("Paillier", OperationKind.PAILLIER_ENCRYPT),
        ("PrivApprox (XOR)", OperationKind.XOR_ENCRYPTION),
    ]
    print(f"{'scheme':>18}  {'phone':>10}  {'laptop':>10}  {'server':>10}   (encrypt ops/sec)")
    for name, operation in schemes:
        rates = [device.ops_per_second(operation) for device in devices]
        print(f"{name:>18}  " + "  ".join(f"{rate:>10,.0f}" for rate in rates))
    return 0


_COMMANDS = {
    "plan": cmd_plan,
    "privacy": cmd_privacy,
    "simulate": cmd_simulate,
    "taxi": cmd_taxi,
    "electricity": cmd_electricity,
    "crypto-table": cmd_crypto_table,
    "worker": cmd_worker,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
