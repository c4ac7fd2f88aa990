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

The system also (optionally) persists every decrypted randomized answer to the
historical store so batch analytics can run over longer periods.

Concurrent queries (many analysts over one client population) are served by
:meth:`PrivApproxSystem.run_epoch_all`: one answering pass per epoch covers
every submitted query — clients answer all their subscriptions in one go with
per-query RNG streams, and each query's shares travel on its own channel
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
from repro.core.client import Client, ClientConfig, ResponseLog, pack_responses
from repro.core.distribution import QueryDistributor
from repro.core.estimation import ErrorEstimator
from repro.core.historical import HistoricalStore
from repro.core.proxy import ProxyNetwork
from repro.core.query import Query
from repro.core.seeding import derive_query_seed
from repro.core.validation import AnswerValidator
from repro.runtime import (
    DEFAULT_CHECKPOINT_EVERY,
    EpochContext,
    QueryContext,
    make_executor,
    validate_executor_options,
)


@dataclass(frozen=True)
class SystemConfig:
    """Deployment-level configuration.

    ``distribute_queries_via_proxies`` routes signed query announcements
    through the proxies' broker (the paper's "submitting queries" phase);
    unsigned queries fall back to direct subscription.
    ``enable_validation`` and ``enable_admission_control`` turn on the
    aggregator-side structural checks and the duplicate-answer defense.

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

    ``executor_checkpoint_every`` (``pinned-worker`` scheduling only)
    controls how often the parent's copy of the resident RNG/keystream
    state is refreshed (``0`` = only on subscription changes and
    shutdown).

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
    table_name: str = "private_data"
    keep_historical: bool = False
    distribute_queries_via_proxies: bool = True
    enable_validation: bool = True
    enable_admission_control: bool = True
    executor: str = "serial"
    executor_workers: int = 4
    executor_shards: int | None = None
    executor_checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
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
        if self.executor_checkpoint_every < 0:
            raise ValueError("executor_checkpoint_every must be non-negative")


@dataclass(frozen=True)
class EpochReport:
    """Summary of one answering epoch.

    ``late_drops`` names the clients whose answers the epoch's deadline gate
    (``PrivApproxSystem.epoch_deadline``) dropped for this query, sorted;
    empty when no deadline was armed.
    """

    epoch: int
    num_participants: int
    num_clients: int
    window_results: tuple
    parameters: ExecutionParameters
    late_drops: tuple = ()

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
                        table_name=config.table_name,
                        seed=seed,
                    )
                )
            )
        self.executor = make_executor(
            config.executor,
            workers=config.executor_workers,
            shards=config.executor_shards,
            checkpoint_every=config.executor_checkpoint_every,
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
        self._consumers: dict[str, list] = {}
        # Channel-scoped consumers for multi-query epochs, created lazily on
        # first run_epoch_all use: each query's aggregator polls its own
        # per-query proxy topics, so concurrent queries never read each
        # other's records.  Single-query deployments never allocate them.
        self._scoped_consumers: dict[str, list] = {}
        # Each query's responses, one packed block per epoch (pack_responses).
        self._responses_log: dict[str, list[bytes]] = {}
        # Optional epoch-deadline gate (duck-typed; see
        # repro.runtime.scenario.EpochDeadline) handed to the executor with
        # each epoch context.  Scenario runs arm a fresh gate per epoch;
        # ``None`` (the default) disables deadline enforcement entirely.
        self.epoch_deadline = None

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
            error_estimator=self._make_error_estimator(query, params),
            validator=AnswerValidator(query) if self.config.enable_validation else None,
            admission=(
                AnswerAdmissionController() if self.config.enable_admission_control else None
            ),
        )
        self._aggregators[query.query_id] = aggregator
        self._consumers[query.query_id] = self.proxies.make_consumers(
            group_id=f"aggregator-{query.query_id}"
        )
        self._responses_log[query.query_id] = []
        self._distribute_query(query, budget, params)
        return params

    def _make_error_estimator(
        self, query: Query, params: ExecutionParameters
    ) -> ErrorEstimator | None:
        """A calibration estimator seeded from the system seed (when set).

        Seeding makes the empirical randomization-error calibration — and so
        the full window results, error bounds included — reproducible for a
        given system seed, which is what lets the executor-equivalence tests
        demand byte-identical results.  Unseeded systems keep the default
        fresh-entropy estimator.
        """
        if self.config.seed is None:
            return None
        derived = derive_query_seed(self.config.seed, query.query_id)
        return ErrorEstimator(p=params.p, q=params.q, rng=random.Random(derived))

    def _distribute_query(
        self, query: Query, budget: QueryBudget, params: ExecutionParameters
    ) -> None:
        """Deliver the query to every client, via the proxies when possible."""
        if self.config.distribute_queries_via_proxies and query.signature is not None:
            self.query_distributor.publish(query, budget, parameters=params)
            for client in self.clients:
                feed = self.query_distributor.make_subscription_feed(client.config.client_id)
                QueryDistributor.deliver_to_client(client, feed, self._analyst_keys)
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
        draws nothing from its RNG streams — while a client rejoining is
        re-subscribed with the query's current parameters.  The client list
        itself never changes shape, which is what keeps shard boundaries,
        resident-worker slices and the seeded-equivalence contract intact;
        under pinned-worker scheduling these edits flow to the pinned workers
        as ``ClientDelta`` subscription changes inside the next epoch's
        ``ShardDelta`` frames.

        Each query's aggregator is rescaled to the new population
        (``total_clients = max(1, len(active))``) so estimate inversion
        reflects who could actually have answered.
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
        """Run one answering epoch end-to-end for a query.

        The answering/transmission/ingestion dataflow is delegated to the
        configured :class:`~repro.runtime.EpochExecutor`; everything after
        (historical recording, result delivery, feedback re-tuning, retiring
        stale admission-control epochs) is executor-agnostic.
        """
        if query_id not in self._queries:
            raise KeyError(f"unknown query {query_id}")
        outcome = self.executor.run_epoch(
            EpochContext(
                clients=self.clients,
                proxies=self.proxies,
                aggregator=self._aggregators[query_id],
                consumers=self._consumers[query_id],
                query_id=query_id,
                deadline=self.epoch_deadline,
            ),
            epoch,
        )
        return self._finish_query_epoch(query_id, epoch, outcome.per_query[0])

    def run_epoch_all(
        self, epoch: int, query_ids: Sequence[str] | None = None
    ) -> dict[str, EpochReport]:
        """Run one answering epoch for *all* (or the given) queries at once.

        Every query is served from a single answering pass over the clients:
        each client answers all its subscriptions in one go (sharing the
        local table scan, with per-query RNG streams keeping the draws
        isolated), and transmission/ingestion run on per-query channel
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
            # (advancing its RNG streams twice) and run the epoch postlude
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
                        consumers=self._scoped_consumers_for(query_id),
                        channel=query_id,
                    )
                    for query_id in ids
                ),
                deadline=self.epoch_deadline,
            ),
            epoch,
        )
        return {
            query_outcome.query_id: self._finish_query_epoch(
                query_outcome.query_id, epoch, query_outcome
            )
            for query_outcome in outcome.per_query
        }

    def _scoped_consumers_for(self, query_id: str) -> list:
        """The query's channel-scoped consumers, created on first use.

        Offsets persist across epochs, so the consumers (and the per-query
        topics they subscribe to) are built once per query — and only for
        deployments that actually run multi-query epochs.
        """
        consumers = self._scoped_consumers.get(query_id)
        if consumers is None:
            consumers = self.proxies.make_consumers(
                group_id=f"aggregator-{query_id}-scoped", channel=query_id
            )
            self._scoped_consumers[query_id] = consumers
        return consumers

    def _finish_query_epoch(self, query_id: str, epoch: int, outcome) -> EpochReport:
        """Executor-agnostic per-query epoch postlude.

        Logs the responses, records history, delivers results and re-tunes,
        and retires admission-control state outside the retention window.
        """
        query = self._queries[query_id]
        aggregator = self._aggregators[query_id]
        self._responses_log[query_id].extend(pack_responses(outcome.responses))
        window_results = list(outcome.window_results)
        self._record_historical(query, aggregator, epoch, outcome.responses)
        self._deliver_and_retune(query_id, window_results)
        aggregator.finish_epoch(epoch)
        return EpochReport(
            epoch=epoch,
            num_participants=outcome.num_participants,
            num_clients=self.config.num_clients,
            window_results=tuple(window_results),
            parameters=self._parameters[query_id],
            late_drops=getattr(outcome, "late_drops", ()),
        )

    def run_epochs(self, query_id: str, num_epochs: int) -> list[EpochReport]:
        """Run several consecutive epochs."""
        return [self.run_epoch(query_id, epoch) for epoch in range(num_epochs)]

    def run_epochs_all(
        self, num_epochs: int, query_ids: Sequence[str] | None = None
    ) -> list[dict[str, EpochReport]]:
        """Run several consecutive multi-query epochs (see :meth:`run_epoch_all`)."""
        return [self.run_epoch_all(epoch, query_ids) for epoch in range(num_epochs)]

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
        """
        query = self._queries[query_id]
        counts = [0] * query.num_buckets
        for client in self.clients:
            if not client.is_subscribed(query_id):
                continue
            bits = client.truthful_answer(query_id)
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

    def _record_historical(
        self, query: Query, aggregator: Aggregator, epoch: int, responses: Sequence
    ) -> None:
        """Persist one epoch's own responses (not a rescan of the whole log)."""
        if self.historical_store is None:
            return
        timestamp = epoch * query.frequency_seconds
        for response in responses:
            answer = aggregator._codec.decrypt(list(response.encrypted.shares))
            self.historical_store.append_answer(answer, timestamp)

    def _deliver_and_retune(self, query_id: str, window_results: list[WindowResult]) -> None:
        budget = self._budgets[query_id]
        params = self._parameters[query_id]
        for result in window_results:
            if self.analyst is not None:
                self.analyst.deliver_result(query_id, result)
            if budget.target_accuracy_loss is None:
                continue
            observed = self._observed_relative_error(result)
            if observed is None:
                continue
            new_params = self.planner.retune(params, observed, budget.target_accuracy_loss)
            if new_params != params:
                params = new_params
                self._parameters[query_id] = new_params
                for client in self.clients:
                    # Only refresh clients that currently hold the query: a
                    # churned-out (unsubscribed) client must not be silently
                    # resurrected by a parameter re-tune.
                    if client.is_subscribed(query_id):
                        client.subscribe(self._queries[query_id], new_params)
                # The aggregator keeps the original estimator for already
                # ingested epochs; new epochs use the re-tuned parameters.
                self._aggregators[query_id].parameters = new_params

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
