"""End-to-end wiring of the PrivApprox deployment.

:class:`PrivApproxSystem` connects the four components of Figure 1 — clients,
proxies, aggregator and analyst — into a runnable system:

1. the analyst submits a query plus execution budget;
2. the initializer (the :class:`~repro.core.budget.BudgetPlanner`) converts
   the budget into the sampling and randomization parameters and the query is
   distributed to all clients;
3. every epoch, each client answers locally (sample -> SQL -> randomize ->
   encrypt) and its shares travel through the proxies to the aggregator;
4. the aggregator joins, decrypts and window-aggregates the answers, attaches
   error bounds, and delivers results to the analyst; a feedback loop re-tunes
   the parameters when the observed error exceeds the budget.

The system also (optionally) persists every randomized answer to the
historical store so batch analytics can run over longer periods.

Concurrent queries (many analysts over one client population) are served by
:meth:`PrivApproxSystem.run_epoch_all`: one answering pass per epoch covers
every submitted query — clients answer all their subscriptions in one go with
per-query draws, and each query's shares travel on its own channel
topics into its own aggregator — so results are byte-identical to running
each query alone, at a fraction of the cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.admission import AnswerAdmissionController
from repro.core.aggregator import Aggregator, WindowResult
from repro.core.analyst import Analyst
from repro.core.budget import BudgetPlanner, ExecutionParameters, QueryBudget
from repro.core.client import Client, ClientConfig, ResponseLog, pack_blocks
from repro.core.distribution import QueryDistributor
from repro.core.historical import HistoricalStore
from repro.core.proxy import ProxyNetwork
from repro.core.query import Query
from repro.core.validation import AnswerValidator
from repro.runtime import (
    EpochContext,
    QueryContext,
    make_executor,
    validate_executor_options,
)


@dataclass(frozen=True)
class SystemConfig:
    """Deployment-level configuration.

    Signed query announcements always travel through the proxies' broker
    (the paper's "submitting queries" phase); unsigned queries fall back to
    direct subscription.  Every query's aggregator runs the structural
    checks (:class:`~repro.core.validation.AnswerValidator`) and the
    duplicate-answer defense
    (:class:`~repro.core.admission.AnswerAdmissionController`).

    ``executor`` selects the epoch runtime (:mod:`repro.runtime`):
    ``"serial"`` answers clients one-by-one (the reference implementation);
    every other name is a ``"scheduling/transport"`` configuration of the
    staged epoch engine (:class:`~repro.runtime.engine.StagedEpochEngine`),
    e.g. ``"pipelined-overlap/in-process"`` (shards answered on a thread
    pool with per-shard batched broker traffic) or
    ``"pinned-worker/framed-wire-local"`` (client state *resident* in
    worker processes the coordinator spawns on loopback — bootstrap-once /
    delta-thereafter wire traffic in sealed envelopes,
    :mod:`repro.runtime.affinity`).
    ``repro.runtime.EXECUTOR_KINDS`` lists every accepted name; all of them
    produce identical results for identical seeds (``docs/ARCHITECTURE.md``).
    ``executor_workers`` sizes the worker pool and ``executor_shards`` the
    shard count (default: one per worker).

    ``executor_remote_workers`` places the workers of a
    ``*/sealed-tcp-remote`` executor on separately launched TCP workers
    (:mod:`repro.runtime.remote`): a tuple of ``host:port`` addresses (one
    slot per worker; ``executor_workers`` is ignored) plus
    ``executor_key_file`` naming the pre-shared HMAC keys — one hex key per
    line, line *i* keying worker *i*.  The transport changes nothing
    observable: digests stay byte-identical to serial.
    """

    num_clients: int = 100
    num_proxies: int = 2
    seed: int | None = None
    keep_historical: bool = False
    executor: str = "serial"
    executor_workers: int = 4
    executor_shards: int | None = None
    executor_remote_workers: tuple[str, ...] | None = None
    executor_key_file: str | None = None

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("need at least one client")
        if self.num_proxies < 2:
            raise ValueError("PrivApprox requires at least two proxies")
        validate_executor_options(
            self.executor, self.executor_remote_workers, self.executor_key_file
        )
        if self.executor_workers < 1:
            raise ValueError("executor_workers must be positive")
        if self.executor_shards is not None and self.executor_shards < 1:
            raise ValueError("executor_shards must be positive when given")


@dataclass(frozen=True)
class EpochReport:
    """Summary of one answering epoch.

    ``late_drops`` names this query's participants whose answers were dropped
    because they were in ``PrivApproxSystem.late_clients``, sorted; empty
    when nobody was late.  ``accuracy_target_unmet`` is set when one of this
    epoch's windows missed the budget's accuracy target and the planner
    could not raise ``s`` or ``p`` any further (both at 1, or capped by the
    budget's ``max_epsilon``, which always wins).
    """

    epoch: int
    num_participants: int
    num_clients: int
    window_results: tuple
    parameters: ExecutionParameters
    late_drops: tuple = ()
    accuracy_target_unmet: bool = False

    @property
    def participation_rate(self) -> float:
        if self.num_clients == 0:
            return 0.0
        return self.num_participants / self.num_clients


class PrivApproxSystem:
    """A complete PrivApprox deployment running in-process."""

    def __init__(self, config: SystemConfig, planner: BudgetPlanner | None = None):
        self.config = config
        self.planner = planner or BudgetPlanner()
        self._rng = random.Random(config.seed)
        self.proxies = ProxyNetwork(num_proxies=config.num_proxies)
        self.clients: list[Client] = []
        for index in range(config.num_clients):
            seed = None if config.seed is None else config.seed * 1_000_003 + index
            self.clients.append(
                Client(
                    ClientConfig(
                        client_id=f"client-{index:06d}",
                        num_proxies=config.num_proxies,
                        seed=seed,
                    )
                )
            )
        self.executor = make_executor(
            config.executor,
            workers=config.executor_workers,
            shards=config.executor_shards,
            remote_workers=config.executor_remote_workers,
            key_file=config.executor_key_file,
        )
        self.analyst: Analyst | None = None
        self.historical_store = HistoricalStore() if config.keep_historical else None
        self.query_distributor = QueryDistributor(
            cluster=self.proxies.cluster, planner=self.planner
        )
        self._analyst_keys: dict[str, bytes] = {}
        self._aggregators: dict[str, Aggregator] = {}
        self._parameters: dict[str, ExecutionParameters] = {}
        self._queries: dict[str, Query] = {}
        self._budgets: dict[str, QueryBudget] = {}
        # One consumer per proxy on each query's channel topic: every
        # executor relays there and ingests from these, so concurrent
        # queries never read each other's records.
        self._consumers: dict[str, list] = {}
        # Each query's responses, one packed block per epoch (pack_blocks).
        self._responses_log: dict[str, list[bytes]] = {}
        # The next epoch's deadline: ids of the clients whose answers miss it
        # (EpochContext.late).  Scenario runs set it per epoch from
        # repro.runtime.scenario.late_clients_for; empty means nobody is late.
        self.late_clients: frozenset[str] = frozenset()

    # -- provisioning -------------------------------------------------------

    def provision_clients(
        self,
        columns: list[tuple[str, str]],
        data_for_client: Callable[[int], list[dict[str, Any]]],
    ) -> None:
        """Create the local table on every client and load its private data.

        ``data_for_client(i)`` returns the records belonging to client ``i``;
        this is how the case studies replay per-vehicle / per-household slices
        of the datasets onto the clients.
        """
        for index, client in enumerate(self.clients):
            client.create_table(columns)
            records = data_for_client(index)
            if records:
                client.ingest(records)

    # -- query submission -----------------------------------------------------

    def submit_query(
        self,
        analyst: Analyst,
        query: Query,
        budget: QueryBudget,
        parameters: ExecutionParameters | None = None,
    ) -> ExecutionParameters:
        """Submit a query: convert the budget, distribute to clients.

        ``parameters`` may be supplied directly to bypass the planner (the
        microbenchmarks sweep explicit ``s, p, q`` values); otherwise the
        planner derives them from the budget.
        """
        self.analyst = analyst
        analyst.attach_budget(query, budget)
        self._analyst_keys[analyst.analyst_id] = analyst.signing_key
        params = parameters or self.planner.plan(budget)
        self._queries[query.query_id] = query
        self._budgets[query.query_id] = budget
        self._parameters[query.query_id] = params
        aggregator = Aggregator(
            query=query,
            parameters=params,
            total_clients=self.config.num_clients,
            num_proxies=self.config.num_proxies,
            validator=AnswerValidator(query),
            admission=AnswerAdmissionController(),
        )
        self._aggregators[query.query_id] = aggregator
        self._consumers[query.query_id] = self.proxies.make_consumers(channel=query.query_id)
        self._responses_log[query.query_id] = []
        self._distribute_query(query, budget, params)
        return params

    def _distribute_query(
        self, query: Query, budget: QueryBudget, params: ExecutionParameters
    ) -> None:
        """Deliver the query to every client, via the proxies when possible."""
        if query.signature is not None:
            self.query_distributor.publish(query, budget, parameters=params)
            announcements = self.query_distributor.poll_announcements()
            for client in self.clients:
                QueryDistributor.deliver_to_client(client, announcements, self._analyst_keys)
            return
        for client in self.clients:
            client.subscribe(query, params)

    def parameters_for(self, query_id: str) -> ExecutionParameters:
        if query_id not in self._parameters:
            raise KeyError(f"unknown query {query_id}")
        return self._parameters[query_id]

    def aggregator_for(self, query_id: str) -> Aggregator:
        if query_id not in self._aggregators:
            raise KeyError(f"unknown query {query_id}")
        return self._aggregators[query_id]

    def query_for(self, query_id: str) -> Query:
        if query_id not in self._queries:
            raise KeyError(f"unknown query {query_id}")
        return self._queries[query_id]

    def query_ids(self) -> list[str]:
        """All submitted query ids, in submission order."""
        return list(self._queries)

    # -- population churn -----------------------------------------------------

    def set_active_clients(
        self, active_indices: Sequence[int], query_ids: Sequence[str] | None = None
    ) -> None:
        """Set which clients participate from the next epoch on.

        Churn is modeled as *subscription* churn over the fixed client
        universe: a client outside ``active_indices`` is unsubscribed from
        the given queries (all submitted queries by default) and becomes
        indistinguishable from an absent device — it answers nothing and
        draws nothing — while a client rejoining is
        re-subscribed with the query's current parameters.  The client list
        itself never changes shape, which is what keeps shard boundaries,
        resident-worker slices and the seeded-equivalence contract intact;
        under pinned-worker scheduling these edits flow to the pinned workers
        as ``ClientDelta`` subscription changes inside the next epoch's
        ``ShardDelta`` frames.

        Each query's aggregator is rescaled to the new population
        (``total_clients = max(1, len(active))``) so estimate inversion
        reflects who could actually have answered; windows of earlier epochs
        keep the roster their epochs were ingested under.
        """
        ids = list(query_ids) if query_ids is not None else list(self._queries)
        for query_id in ids:
            if query_id not in self._queries:
                raise KeyError(f"unknown query {query_id}")
        active = set(active_indices)
        for index in active:
            if not 0 <= index < len(self.clients):
                raise IndexError(
                    f"active client index {index} outside the universe "
                    f"[0, {len(self.clients)})"
                )
        for query_id in ids:
            query = self._queries[query_id]
            params = self._parameters[query_id]
            for index, client in enumerate(self.clients):
                subscribed = client.is_subscribed(query_id)
                if index in active and not subscribed:
                    client.subscribe(query, params)
                elif index not in active and subscribed:
                    client.unsubscribe(query_id)
            self._aggregators[query_id].total_clients = max(1, len(active))

    # -- epoch execution ------------------------------------------------------------

    def run_epoch(self, query_id: str, epoch: int) -> EpochReport:
        """Run one answering epoch end-to-end for a single query.

        The one-query case of :meth:`run_epoch_all`.
        """
        return self.run_epoch_all(epoch, [query_id])[query_id]

    def run_epoch_all(
        self, epoch: int, query_ids: Sequence[str] | None = None
    ) -> dict[str, EpochReport]:
        """Run one answering epoch for *all* (or the given) queries at once.

        Every query is served from a single answering pass over the clients:
        each client answers all its subscriptions in one go (sharing the
        local table scan, with every draw addressed by its query keeping the
        queries isolated), and transmission/ingestion run on per-query channel
        topics into per-query aggregators.  For a fixed seed each query's
        results are byte-identical to running it alone — the multi-query
        epoch is a pure batching optimization.

        Returns one :class:`EpochReport` per query, keyed by query id, in
        submission order.
        """
        ids = list(query_ids) if query_ids is not None else list(self._queries)
        if not ids:
            raise ValueError("no queries submitted; nothing to run")
        if len(set(ids)) != len(ids):
            # A duplicated id would answer the query twice in one pass
            # (two messages under one token) and run the epoch postlude
            # twice — corrupting state rather than failing loudly.
            raise ValueError("query_ids contains duplicates")
        for query_id in ids:
            if query_id not in self._queries:
                raise KeyError(f"unknown query {query_id}")
        outcome = self.executor.run_epoch(
            EpochContext(
                clients=self.clients,
                proxies=self.proxies,
                queries=tuple(
                    QueryContext(
                        query_id=query_id,
                        aggregator=self._aggregators[query_id],
                        consumers=self._consumers[query_id],
                    )
                    for query_id in ids
                ),
                late=self.late_clients,
            ),
            epoch,
        )
        return {
            query_outcome.query_id: self._finish_query_epoch(
                query_outcome.query_id, epoch, query_outcome
            )
            for query_outcome in outcome.per_query
        }

    def _finish_query_epoch(self, query_id: str, epoch: int, outcome) -> EpochReport:
        """Executor-agnostic per-query epoch postlude.

        Logs the responses, records history, delivers results and re-tunes,
        and retires admission-control state outside the retention window.
        """
        query = self._queries[query_id]
        aggregator = self._aggregators[query_id]
        self._responses_log[query_id].extend(pack_blocks(outcome.blocks))
        window_results = list(outcome.window_results)
        self._record_historical(query, epoch, outcome.blocks)
        target_unmet = self._deliver_and_retune(query_id, window_results)
        aggregator.finish_epoch(epoch)
        return EpochReport(
            epoch=epoch,
            num_participants=outcome.num_participants,
            num_clients=self.config.num_clients,
            window_results=tuple(window_results),
            parameters=self._parameters[query_id],
            late_drops=outcome.late_drops,
            accuracy_target_unmet=target_unmet,
        )

    def run_epochs(self, query_id: str, num_epochs: int) -> list[EpochReport]:
        """Run several consecutive epochs."""
        return [self.run_epoch(query_id, epoch) for epoch in range(num_epochs)]

    def close(self) -> None:
        """Release executor resources (worker pools); safe to call twice."""
        self.executor.close()

    def flush(self, query_id: str) -> list[WindowResult]:
        """Flush pending windows at the end of an experiment."""
        results = self._aggregators[query_id].flush()
        self._deliver_and_retune(query_id, results)
        return results

    # -- evaluation helpers ------------------------------------------------------------

    def exact_bucket_counts(self, query_id: str) -> list[int]:
        """The exact per-bucket counts over the subscribed clients (no noise).

        This is the ground truth the evaluation compares estimates against; it
        reads each client's truthful answer directly and is only available in
        the simulation, not in a real deployment.  Clients churned out via
        :meth:`set_active_clients` hold no subscription and are skipped — the
        ground truth tracks who could actually have answered.

        It reads what the answer pass reads: the executor's
        ``truth_scan_caches`` hands each client its outcome off the shard
        arena the engine answers from, so no table is mirrored a second
        time; a client the arena does not answer (and every client under
        serial) answers from its own one-slot arena or the row scan.
        """
        query = self._queries[query_id]
        counts = [0] * query.num_buckets
        caches = self.executor.truth_scan_caches(self.clients, query)
        if caches is None:
            caches = [None] * len(self.clients)
        for client, scan_cache in zip(self.clients, caches, strict=True):
            if not client.is_subscribed(query_id):
                continue
            bits = client.truthful_answer(query_id, scan_cache)
            for index, bit in enumerate(bits):
                counts[index] += bit
        return counts

    def responses_log(self, query_id: str) -> ResponseLog:
        """All responses produced so far, in order (evaluation only).

        A read-only snapshot over the packed log: it rebuilds value-equal
        :class:`~repro.core.client.ClientResponse` objects (bits as
        ``bytes``) one at a time and does not see later epochs.
        """
        return ResponseLog(query_id, self._responses_log.get(query_id, ()))

    # -- internals ------------------------------------------------------------

    def _record_historical(self, query: Query, epoch: int, blocks: Sequence) -> None:
        """Persist one epoch's own responses (not a rescan of the whole log).

        Each row's randomized bits are unpacked off its block's column, under
        the block's query id and epoch: the messages were already checked at
        ingest and are not decrypted again.
        """
        if self.historical_store is None:
            return
        timestamp = epoch * query.frequency_seconds
        for block in blocks:
            if not len(block):
                continue
            rows = [block.bit_row(block.randomized_bits, row) for row in range(len(block))]
            self.historical_store.append_rows(block.query_id, block.epoch, rows, timestamp)

    def _deliver_and_retune(self, query_id: str, window_results: list[WindowResult]) -> bool:
        """Deliver each window and re-tune on it; True if a target went unmet."""
        budget = self._budgets[query_id]
        params = self._parameters[query_id]
        target_unmet = False
        for result in window_results:
            if self.analyst is not None:
                self.analyst.deliver_result(query_id, result)
            if budget.target_accuracy_loss is None:
                continue
            observed = self._observed_relative_error(result)
            if observed is None:
                continue
            new_params = self.planner.retune(
                params, observed, budget.target_accuracy_loss, budget.max_epsilon
            )
            if observed > budget.target_accuracy_loss and new_params == params:
                target_unmet = True
            if new_params != params:
                params = new_params
                self._parameters[query_id] = new_params
                for client in self.clients:
                    # Only refresh clients that currently hold the query: a
                    # churned-out (unsubscribed) client must not be silently
                    # resurrected by a parameter re-tune.
                    if client.is_subscribed(query_id):
                        client.subscribe(self._queries[query_id], new_params)
                # From the next epoch's ingest on; windows of earlier epochs
                # keep the parameters their answers were produced under.
                self._aggregators[query_id].parameters = new_params
        return target_unmet

    @staticmethod
    def _observed_relative_error(result: WindowResult) -> float | None:
        """Relative error proxy used by the feedback loop: error bound / estimate."""
        total = result.histogram.total()
        if total <= 0:
            return None
        bounded = [b.error_bound for b in result.histogram.buckets if b.error_bound != float("inf")]
        if not bounded:
            return None
        return sum(bounded) / total
