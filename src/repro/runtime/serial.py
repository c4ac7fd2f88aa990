"""The serial reference executor: the pre-runtime epoch loop, verbatim.

Kept deliberately simple — one pass over the clients, one proxy transmission
per participating client, one ingest per query at the aggregator — so it can
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
    """Answers every client one-by-one in a single in-process loop.

    Each client reads its own SQL; each query's on-time answers then
    become one :class:`~repro.core.client.ResponseBlock` (a late
    participant answers, is ledgered and is never built).  The relay stays
    per answer: every row's shares go out through
    :meth:`ProxyNetwork.transmit <repro.core.proxy.ProxyNetwork.transmit>`
    and never as a column, so the aggregator's one ingest joins them by
    ``MID`` — the reference the engine's column relay and block ingest are
    checked against.
    """

    def run_epoch(self, context: EpochContext, epoch: int) -> EpochOutcome:
        # Imported here: repro.core imports repro.runtime at package level.
        from repro.core.client import ResponseBlock
        from repro.core.proxy import poll_shares

        queries = context.queries
        query_ids = context.query_ids
        late = context.late
        answers_per_query: list[list] = [[] for _ in queries]
        late_drops: list[list[str]] = [[] for _ in queries]
        for client in context.clients:
            client_id = client.config.client_id
            for index, entry in enumerate(client.answer(query_ids, epoch=epoch)):
                if entry is None:
                    continue
                if client_id in late:
                    # Answered but missed the deadline.
                    late_drops[index].append(client_id)
                    continue
                answers_per_query[index].append((client, entry))
        blocks = [
            ResponseBlock.build(query_id, epoch, answers, context.proxies.num_proxies)
            for query_id, answers in zip(query_ids, answers_per_query)
        ]
        for query_id, block in zip(query_ids, blocks):
            for row in range(len(block)):
                context.proxies.transmit(block.shares(row), channel=query_id)
        per_query = []
        for query, block, dropped in zip(queries, blocks, late_drops):
            window_results = query.aggregator.ingest_shares(
                poll_shares(query.consumers), epoch
            )
            per_query.append(
                QueryEpochOutcome(
                    query_id=query.query_id,
                    blocks=(block,) if len(block) else (),
                    window_results=tuple(window_results),
                    late_drops=tuple(sorted(dropped)),
                )
            )
        return EpochOutcome(per_query=tuple(per_query))
