"""The serial reference executor: the pre-runtime epoch loop, verbatim.

Kept deliberately simple — one pass over the clients, one proxy transmission
per participating client, per-record ingestion at the aggregator — so it can
serve as the executable specification that every
:class:`~repro.runtime.engine.StagedEpochEngine` configuration must match
result-for-result; ``docs/ARCHITECTURE.md`` spells the contract out.

A multi-query epoch keeps the same shape: the single client loop answers
every context query from one :meth:`~repro.core.client.Client.answer` pass
(shared table scan, per-query draws), transmits each query's shares on
that query's channel, and then ingests query by query.  This is the
reference the multi-query equivalence suite pins the parallel executors to.
"""

from __future__ import annotations

from repro.runtime.executor import (
    EpochContext,
    EpochExecutor,
    EpochOutcome,
    QueryEpochOutcome,
)


class SerialExecutor(EpochExecutor):
    """Answers every client one-by-one in a single in-process loop."""

    def run_epoch(self, context: EpochContext, epoch: int) -> EpochOutcome:
        queries = context.queries
        query_ids = context.query_ids
        late = context.late
        responses_per_query: list[list] = [[] for _ in queries]
        late_drops: list[list[str]] = [[] for _ in queries]
        for client in context.clients:
            for index, response in enumerate(client.answer(query_ids, epoch=epoch)):
                if response is None:
                    continue
                if response.client_id in late:
                    # Built but missed the deadline.
                    late_drops[index].append(response.client_id)
                    continue
                responses_per_query[index].append(response)
                context.proxies.transmit(
                    list(response.encrypted.shares), channel=query_ids[index]
                )
        per_query = []
        for index, query in enumerate(queries):
            window_results = query.aggregator.consume_from_proxies(
                list(query.consumers), epoch=epoch
            )
            per_query.append(
                QueryEpochOutcome(
                    query_id=query.query_id,
                    responses=tuple(responses_per_query[index]),
                    window_results=tuple(window_results),
                    late_drops=tuple(sorted(late_drops[index])),
                )
            )
        return EpochOutcome(per_query=tuple(per_query))
