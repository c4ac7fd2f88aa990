"""Historical (batch) analytics over stored responses (Section 3.3.1).

Besides real-time results, PrivApprox lets analysts run queries over the
randomized responses accumulated at the aggregator over a longer time period.
Responses are appended to a fault-tolerant distributed store (HDFS in the
paper, the :mod:`repro.storage` block store here); a batch job later reads the
stored responses for the requested time range, optionally applies a *second*
round of sampling at the aggregator to stay within the analyst's cost budget,
and produces the same kind of error-bounded histogram as the streaming path.

Storing randomized responses is privacy-safe: they are already
zero-knowledge private, and any computation over them stays private
(Section 4).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analytics.histogram import HistogramResult
from repro.core.budget import BudgetPlanner, ExecutionParameters, QueryBudget
from repro.core.estimation import count_answer_bits, estimate_histogram
from repro.core.query import Query, QueryAnswer
from repro.storage import BlockStore


@dataclass
class HistoricalStore:
    """Append-only storage of randomized answers, one file per query.

    Answers are serialized as JSON lines so the batch reader can parse them
    without any shared in-memory state — the store could equally be read by a
    separate process.
    """

    block_store: BlockStore = field(default_factory=lambda: BlockStore(num_nodes=3, replication=2))

    def _file_for(self, query_id: str) -> str:
        return f"answers/{query_id}.jsonl"

    def append_rows(
        self, query_id: str, epoch: int, rows: Iterable[Sequence[int]], epoch_timestamp: float
    ) -> None:
        """Persist one epoch's randomized answers, one bit row each, in one append."""
        lines = [
            json.dumps(
                {
                    "query_id": query_id,
                    "bits": list(bits),
                    "epoch": epoch,
                    "timestamp": epoch_timestamp,
                },
                separators=(",", ":"),
            )
            + "\n"
            for bits in rows
        ]
        self.block_store.append(self._file_for(query_id), "".join(lines).encode("utf-8"))

    def read_answers(
        self,
        query_id: str,
        start_time: float = float("-inf"),
        end_time: float = float("inf"),
    ) -> list[tuple[QueryAnswer, float]]:
        """All stored answers of a query whose timestamp lies in [start, end)."""
        file_name = self._file_for(query_id)
        if not self.block_store.exists(file_name):
            return []
        raw = self.block_store.read(file_name).decode("utf-8")
        out: list[tuple[QueryAnswer, float]] = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            payload = json.loads(line)
            timestamp = payload["timestamp"]
            if not start_time <= timestamp < end_time:
                continue
            answer = QueryAnswer(
                query_id=payload["query_id"],
                bits=tuple(payload["bits"]),
                epoch=payload["epoch"],
            )
            out.append((answer, timestamp))
        return out


@dataclass
class HistoricalAnalytics:
    """Batch analytics over a :class:`HistoricalStore`.

    Parameters
    ----------
    store:
        Where randomized answers were persisted by the streaming pipeline.
    planner:
        Budget planner used to convert the analyst's cost budget into the
        aggregator-side re-sampling fraction.
    seed:
        Seed for the re-sampling RNG, so batch runs are reproducible.
    """

    store: HistoricalStore
    planner: BudgetPlanner = field(default_factory=BudgetPlanner)
    seed: int | None = None

    def run_batch_query(
        self,
        query: Query,
        parameters: ExecutionParameters,
        total_clients_per_epoch: int,
        budget: QueryBudget | None = None,
        start_time: float = float("-inf"),
        end_time: float = float("inf"),
        confidence_level: float = 0.95,
    ) -> HistogramResult:
        """Aggregate all stored answers of a query over a time range.

        ``parameters`` must be the execution parameters the answers were
        produced under (the aggregator needs ``p, q`` to invert the
        randomization and ``s`` only implicitly via the stored participation).
        """
        stored = self.store.read_answers(query.query_id, start_time, end_time)
        if budget is not None and stored:
            fraction = self.planner.batch_sampling_fraction(budget, len(stored))
            if fraction < 1.0:
                rng = random.Random(self.seed)
                stored = [item for item in stored if rng.random() < fraction]

        counts, num_epochs = count_answer_bits(
            (answer for answer, _ in stored), query.num_buckets
        )
        return estimate_histogram(
            counts,
            num_answers=len(stored),
            population=total_clients_per_epoch * num_epochs,
            labels=query.answer_spec.labels(),
            p=parameters.p,
            q=parameters.q,
            confidence_level=confidence_level,
        )
