"""Step IV: generating results at the aggregator (Section 3.2.4).

The aggregator consumes the share streams relayed by the proxies, joins the
shares of each message identifier ``MID``, XOR-decrypts them to recover the
randomized answers, and processes the answers as sliding windows: for every
window it inverts the randomization (Eq. 5), scales the per-window counts by
``U / U'`` to account for sampling (Eq. 2), estimates the error bound of each
bucket (the closed-form sampling + randomization variance), and emits
``queryResult +/- errorBound`` per bucket.

The windowed dataflow is built on the streaming substrate: a keyed join
operator pairs shares by ``MID`` and a window-aggregate operator groups
decrypted answers into the query's sliding windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analytics.histogram import HistogramResult
from repro.core.admission import AnswerAdmissionController
from repro.core.budget import ExecutionParameters
from repro.core.encryption import AnswerCodec
from repro.core.estimation import count_answer_bits, estimate_histogram
from repro.core.proxy import poll_shares
from repro.core.query import Query, QueryAnswer
from repro.core.validation import AnswerValidator
from repro.crypto.xor import MessageShare, join_shares_batch
from repro.pubsub import Consumer
from repro.streaming.operators import KeyedJoinOperator, WindowAggregateOperator
from repro.streaming.records import StreamRecord
from repro.streaming.windows import SlidingWindowAssigner, Window


@dataclass(frozen=True)
class WindowResult:
    """The analyst-facing result for one sliding window."""

    window: Window
    histogram: HistogramResult
    num_answers: int
    population: int

    @property
    def sampling_fraction_observed(self) -> float:
        if self.population == 0:
            return 0.0
        return self.num_answers / self.population


@dataclass
class Aggregator:
    """Joins, decrypts, window-aggregates and error-estimates client answers.

    Parameters
    ----------
    query:
        The analyst's query (provides bucket labels, window length and slide).
    parameters:
        The execution parameters in force (``s, p, q``), needed to invert the
        randomization and to scale for sampling.  The feedback loop may
        replace them between epochs; each epoch's ingest remembers the set it
        ran under, and a window is estimated and bounded at the set of the
        newest epoch it covers.
    total_clients:
        ``U`` — the number of clients subscribed to the query per epoch.
        Churn may change it between epochs; like the parameters, each epoch's
        ingest remembers the roster size it ran under, so a window closed
        after a roster change is still scaled by its own epochs' roster.
    confidence_level:
        Confidence level of the reported error bounds.
    """

    query: Query
    parameters: ExecutionParameters
    total_clients: int
    num_proxies: int = 2
    confidence_level: float = 0.95
    validator: AnswerValidator | None = None
    admission: AnswerAdmissionController | None = None
    allowed_lateness_seconds: float = 0.0
    # How many recent epochs of duplicate-suppression state to keep once an
    # epoch's ingest completes: the current epoch plus retention - 1 earlier
    # ones (stragglers admitted late must still collide with their epoch's
    # token set).  Without retirement the per-epoch token sets grow without
    # bound in a long-running stream; see finish_epoch.
    admission_retention_epochs: int = 2

    def __post_init__(self) -> None:
        if self.total_clients <= 0:
            raise ValueError("total_clients must be positive")
        if self.num_proxies < 2:
            raise ValueError("PrivApprox requires at least two proxies")
        if self.admission_retention_epochs < 1:
            raise ValueError("admission_retention_epochs must be at least 1")
        self._codec = AnswerCodec()
        # The query is fixed for the aggregator's life, so its bucket labels
        # are formatted once, not once per window result.
        self._labels = self.query.answer_spec.labels()
        self._assigner = SlidingWindowAssigner(
            window_length=self.query.window_seconds,
            slide_interval=self.query.slide_seconds,
        )
        self._join = KeyedJoinOperator(expected_per_key=self._expected_shares())
        self._window_op = WindowAggregateOperator(
            assigner=self._assigner,
            aggregate_fn=self._aggregate_window,
            allowed_lateness=self.allowed_lateness_seconds,
        )
        # The parameters and roster size each recent epoch was ingested
        # under; only epochs no older than the last closed window's newest
        # one are kept.
        self._epoch_parameters: dict[int, tuple[ExecutionParameters, int]] = {}
        self.answers_processed = 0
        self.shares_received = 0
        self.malformed_messages = 0
        self.invalid_answers = 0
        self.rejected_duplicates = 0

    def _expected_shares(self) -> int:
        # One encrypted share plus one key share per additional proxy.
        return max(2, self.num_proxies)

    # -- ingestion ----------------------------------------------------------

    def ingest_shares(
        self, shares: list[MessageShare], epoch: int, *, batched: bool = False
    ) -> list[WindowResult]:
        """Ingest a batch of shares belonging to one epoch.

        Returns the results of any windows that became complete (their end
        time passed the watermark) as a consequence of this batch.

        With ``batched=True`` the join runs in grouped mode: shares are
        bucketed by ``MID`` in one dictionary pass and complete groups skip
        the per-record join operator entirely (incomplete or cross-epoch
        groups still go through its keyed buffer), and validation/admission
        run through the batched loops (:meth:`AnswerValidator.validate_batch`,
        :meth:`AnswerAdmissionController.admit_batch`).  The decoded answers
        and all counters are identical to the per-record reference path; only
        the constant factor changes.  Every staged-engine flow uses this mode.
        """
        timestamp = self._epoch_timestamp(epoch)
        self._epoch_parameters.setdefault(epoch, (self.parameters, self.total_clients))
        self.shares_received += len(shares)
        if batched:
            joined = self._join_grouped(shares, timestamp)
            candidates = self._decrypt_batch(joined)
        else:
            records = [
                StreamRecord(value=share, timestamp=timestamp, key=share.message_id)
                for share in shares
            ]
            joined = self._join.process(records)
            candidates = []
            for record in joined:
                try:
                    answer = self._decrypt(record.value)
                except ValueError:
                    # A malformed or maliciously crafted message: dropping it
                    # only loses that client's (invalid) answer and cannot
                    # poison the window (Section 2.2 threat model — malicious
                    # clients).
                    self.malformed_messages += 1
                    continue
                candidates.append((record, answer))
        if batched:
            verdicts = self._accept_batch([answer for _, answer in candidates], epoch)
            decoded = [
                record.with_value(answer)
                for (record, answer), ok in zip(candidates, verdicts)
                if ok
            ]
        else:
            decoded = [
                record.with_value(answer)
                for record, answer in candidates
                if self._accept(answer, epoch)
            ]
        self.answers_processed += len(decoded)
        emitted = self._window_op.process(decoded)
        return [self._to_window_result(record) for record in emitted]

    def consume_from_proxies(
        self, consumers: list[Consumer], epoch: int
    ) -> list[WindowResult]:
        """Poll the query's relay consumers and ingest every new share.

        The serial reference's ingest (per-record join, per-answer checks);
        the staged engine polls the same consumers per shard and calls
        :meth:`ingest_shares` with ``batched=True``.
        """
        return self.ingest_shares(poll_shares(consumers), epoch)

    def finish_epoch(self, epoch: int) -> None:
        """Mark one epoch's ingest complete and retire stale admission state.

        Keeps the ``admission_retention_epochs`` most recent epochs' token
        sets and drops everything older, so ``admission.tracked_epochs()``
        stays bounded over an unbounded stream.  Idempotent and safe to call
        even when admission control is disabled.
        """
        if self.admission is None:
            return
        self.admission.forget_epochs_before(
            self.query.query_id, epoch - self.admission_retention_epochs + 1
        )

    def flush(self) -> list[WindowResult]:
        """Emit every pending window (end of stream / end of experiment)."""
        emitted = self._window_op.flush()
        return [self._to_window_result(record) for record in emitted]

    def pending_joins(self) -> int:
        """Messages still waiting for some of their shares."""
        return self._join.pending_keys()

    @property
    def late_answers_dropped(self) -> int:
        """Answers that arrived after their window (and grace period) had closed."""
        return self._window_op.late_records_dropped

    # -- internals -------------------------------------------------------------

    def _join_grouped(
        self, shares: list[MessageShare], timestamp: float
    ) -> list[StreamRecord]:
        """Group-by-``MID`` join over one ingest batch.

        A group that holds exactly the expected number of shares and has no
        shares buffered from earlier batches joins immediately without
        touching the keyed operator; everything else falls back to the
        operator so cross-epoch stragglers and malformed surpluses behave
        exactly as in the reference path.
        """
        groups: dict[str, list[MessageShare]] = {}
        for share in shares:
            groups.setdefault(share.message_id, []).append(share)
        expected = self._expected_shares()
        joined: list[StreamRecord] = []
        leftovers: list[StreamRecord] = []
        for message_id, group in groups.items():
            if len(group) == expected and not self._join.has_pending(message_id):
                joined.append(
                    StreamRecord(value=group, timestamp=timestamp, key=message_id)
                )
            else:
                leftovers.extend(
                    StreamRecord(value=share, timestamp=timestamp, key=message_id)
                    for share in group
                )
        if leftovers:
            joined.extend(self._join.process(leftovers))
        return joined

    def _epoch_timestamp(self, epoch: int) -> float:
        return epoch * self.query.frequency_seconds

    def _decrypt(self, shares: list[MessageShare]) -> QueryAnswer:
        return self._codec.decrypt(shares)

    def _decrypt_batch(self, joined: list[StreamRecord]) -> list[tuple]:
        """XOR-decrypt a whole ingest batch of joined share groups at once.

        The batched counterpart of the per-record :meth:`_decrypt` loop: all
        of a shard's share groups are XOR-ed in one
        :func:`~repro.crypto.xor.join_shares_batch` pass (within one epoch
        every answer to the query has the same encoded length, so the whole
        shard vectorizes into a single big-integer XOR per share position).
        Returns ``(record, answer)`` pairs in arrival order; malformed groups
        are dropped and counted exactly as on the reference path.
        """
        candidates = []
        plaintexts = join_shares_batch([record.value for record in joined])
        for record, plaintext in zip(joined, plaintexts):
            if plaintext is None:
                self.malformed_messages += 1
                continue
            try:
                answer = self._codec.decode(plaintext)
            except ValueError:
                self.malformed_messages += 1
                continue
            candidates.append((record, answer))
        return candidates

    def _accept(self, answer: QueryAnswer, arrival_epoch: int) -> bool:
        """Apply structural validation and duplicate admission control."""
        if self.validator is not None:
            if not self.validator.validate(answer, arrival_epoch).valid:
                self.invalid_answers += 1
                return False
        if self.admission is not None:
            decision = self.admission.admit(self.query.query_id, answer.epoch, answer.token)
            if not decision.admitted:
                self.rejected_duplicates += 1
                return False
        return True

    def _accept_batch(self, answers: list[QueryAnswer], arrival_epoch: int) -> list[bool]:
        """Batched validation + admission with per-answer decisions.

        Identical decisions and counters to calling :meth:`_accept` once per
        answer: every answer is validated first, and only the validation
        survivors reach the admission controller, in arrival order.
        """
        if not answers:
            return []
        if self.validator is not None:
            valid = self.validator.validate_batch(answers, arrival_epoch)
            self.invalid_answers += valid.count(False)
        else:
            valid = [True] * len(answers)
        if self.admission is None:
            return valid
        admitted = iter(
            self.admission.admit_batch(
                self.query.query_id,
                [(a.epoch, a.token) for a, ok in zip(answers, valid) if ok],
            )
        )
        verdicts = []
        for ok in valid:
            if not ok:
                verdicts.append(False)
                continue
            decision = next(admitted)
            if not decision:
                self.rejected_duplicates += 1
            verdicts.append(decision)
        return verdicts

    def _aggregate_window(self, answers: list[QueryAnswer]) -> dict:
        """Window aggregation function handed to the streaming operator."""
        counts, num_epochs = count_answer_bits(answers, self.query.num_buckets)
        return {
            "counts": counts,
            "num_answers": len(answers),
            "num_epochs": num_epochs,
        }

    def _to_window_result(self, record: StreamRecord) -> WindowResult:
        window, aggregate = record.value
        counts = aggregate["counts"]
        num_answers = aggregate["num_answers"]
        # The last epoch whose ingest timestamp falls inside the window.
        newest = math.ceil(window.end / self.query.frequency_seconds) - 1
        parameters, total_clients = self._epoch_parameters.get(
            newest, (self.parameters, self.total_clients)
        )
        population = total_clients * aggregate["num_epochs"]
        # Windows close in end-time order: no later window needs an older
        # epoch's entry.
        for epoch in [epoch for epoch in self._epoch_parameters if epoch < newest]:
            del self._epoch_parameters[epoch]
        histogram = self._estimate_histogram(
            window, counts, num_answers, population, parameters
        )
        return WindowResult(
            window=window,
            histogram=histogram,
            num_answers=num_answers,
            population=population,
        )

    def _estimate_histogram(
        self,
        window: Window,
        counts: list[int],
        num_answers: int,
        population: int,
        parameters: ExecutionParameters,
    ) -> HistogramResult:
        return estimate_histogram(
            counts,
            num_answers,
            population,
            labels=self._labels,
            p=parameters.p,
            q=parameters.q,
            confidence_level=self.confidence_level,
            window=(window.start, window.end),
        )
