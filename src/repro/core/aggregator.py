"""Step IV: generating results at the aggregator (Section 3.2.4).

The aggregator consumes the share streams relayed by the proxies, joins the
shares of each message identifier ``MID``, XOR-decrypts them to recover the
randomized answers, and processes the answers as sliding windows: for every
window it inverts the randomization (Eq. 5), scales the per-window counts by
``U / U'`` to account for sampling (Eq. 2), estimates the error bound of each
bucket (the closed-form sampling + randomization variance), and emits
``queryResult +/- errorBound`` per bucket.

The engine relays a shard's answers to a query as one block: each proxy's
:class:`~repro.crypto.xor.ShareColumn` (the block's ``MID`` column plus that
proxy's payload column).  The aggregator pairs the columns that carry one
``MID`` column, XORs each payload column once, splits the message column
into heads, tokens and packed bits in one pass, vouches for every row whose
head is the header prefix of a well-formed answer, admits the tokens as a
column and counts the admitted rows' bits without building a per-answer
object.  Loose shares — serial's one-answer
records, forged ones — and whatever a block cannot vouch for are grouped by
``MID``: a complete group joins at once, anything else goes through the
streaming substrate's keyed join operator.  Every executor ingests through
this one path (:meth:`Aggregator.ingest_shares`), and the admitted answers
reach the window-aggregate operator as per-bucket counts
(:class:`WindowPartial`), which it sums per sliding window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import NamedTuple, Sequence

from repro.analytics.histogram import HistogramResult
from repro.core.admission import PARTICIPATION_TOKEN_LENGTH, AnswerAdmissionController
from repro.core.budget import ExecutionParameters
from repro.core.encryption import AnswerCodec
from repro.core.estimation import count_answer_bits, estimate_histogram
from repro.core.query import Query, QueryAnswer
from repro.core.validation import AnswerValidator
from repro.crypto.xor import MID_BYTES, MessageShare, ShareColumn, join_shares_batch, xor_many
from repro.streaming.operators import KeyedJoinOperator, WindowAggregateOperator
from repro.streaming.records import StreamRecord
from repro.streaming.windows import SlidingWindowAssigner, Window

#: How many recent epochs of duplicate-suppression state an aggregator keeps
#: once an epoch's ingest completes: the current epoch and the one before it
#: (stragglers admitted late must still collide with their epoch's token
#: set).  Without retirement the per-epoch token sets grow without bound in a
#: long-running stream; see :meth:`Aggregator.finish_epoch`.
ADMISSION_RETENTION_EPOCHS = 2


@dataclass(frozen=True)
class WindowResult:
    """The analyst-facing result for one sliding window."""

    window: Window
    histogram: HistogramResult
    num_answers: int
    population: int


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

    def __post_init__(self) -> None:
        if self.total_clients <= 0:
            raise ValueError("total_clients must be positive")
        if self.num_proxies < 2:
            raise ValueError("PrivApprox requires at least two proxies")
        self._codec = AnswerCodec()
        # The query is fixed for the aggregator's life, so its bucket labels
        # are formatted once, not once per window result.
        self._labels = self.query.answer_spec.labels()
        self._assigner = SlidingWindowAssigner(
            window_length=self.query.window_seconds,
            slide_interval=self.query.slide_seconds,
        )
        # One encrypted share plus one key share per additional proxy.
        self._join = KeyedJoinOperator(expected_per_key=self.num_proxies)
        self._window_op = WindowAggregateOperator(
            assigner=self._assigner,
            aggregate_fn=self._aggregate_window,
            weight=attrgetter("num_answers"),
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

    # -- ingestion ----------------------------------------------------------

    def ingest_shares(
        self, shares: list[MessageShare | ShareColumn], epoch: int
    ) -> list[WindowResult]:
        """Ingest one batch of relayed shares belonging to one epoch.

        ``shares`` is what :func:`~repro.core.proxy.poll_shares` returns:
        loose :class:`~repro.crypto.xor.MessageShare` s and
        :class:`~repro.crypto.xor.ShareColumn` s, in arrival order.  Returns
        the results of any windows that became complete (their end time
        passed the watermark) as a consequence of this batch.

        The one ingest of every executor: blocks take :meth:`_ingest_block`
        and everything else the grouped ``MID`` join (:meth:`_ingest_grouped`).
        The admitted answers reach the window as per-bucket counts, one
        partial per event timestamp.
        """
        timestamp = self._epoch_timestamp(epoch)
        self._epoch_parameters.setdefault(epoch, (self.parameters, self.total_clients))
        self.shares_received += sum(
            item.rows if isinstance(item, ShareColumn) else 1 for item in shares
        )
        tally = _Tally(self.query.num_buckets)
        self._ingest_grouped(shares, epoch, timestamp, tally)
        self.answers_processed += tally.num_answers
        emitted = self._window_op.process(tally.records())
        return [self._to_window_result(record) for record in emitted]

    def finish_epoch(self, epoch: int) -> None:
        """Mark one epoch's ingest complete and retire stale admission state.

        Keeps the :data:`ADMISSION_RETENTION_EPOCHS` most recent epochs'
        token sets and drops everything older, so ``admission.tracked_epochs()``
        stays bounded over an unbounded stream.  Idempotent and safe to call
        even when admission control is disabled.
        """
        if self.admission is None:
            return
        self.admission.forget_epochs_before(
            self.query.query_id, epoch - ADMISSION_RETENTION_EPOCHS + 1
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

    def _ingest_grouped(
        self,
        items: list[MessageShare | ShareColumn],
        epoch: int,
        timestamp: float,
        tally: "_Tally",
    ) -> None:
        """Blocks through :meth:`_ingest_block`, everything else by ``MID``.

        The columns that carry one ``MID`` column are a block.  Loose
        shares, a block missing a column, and a block row whose ``MID`` is
        pending in the join or among the loose shares take the grouped join
        (:meth:`_join_grouped`).  Answers are admitted in one fixed order —
        complete loose groups, then the blocks, then whatever the keyed join
        completes.  Duplicate decisions depend on that order; the tests pin
        them to what a share-by-share join of the same shares decided.
        """
        blocks: dict[bytes, list[ShareColumn]] = {}
        loose_ids: set[str] = set()
        for item in items:
            if isinstance(item, ShareColumn):
                blocks.setdefault(item.message_ids, []).append(item)
            else:
                loose_ids.add(item.message_id)
        # MID column -> the rows that must take the keyed join instead.
        keyed_rows: dict[bytes, Sequence[int]] = {}
        # The raw MIDs a block row can clash with: the loose shares' and
        # those pending in the join (read only when a block needs them).
        taken: set[bytes] | None = None
        for mids, columns in blocks.items():
            rows = columns[0].rows
            if len(columns) != self.num_proxies or len({c.width for c in columns}) != 1:
                keyed_rows[mids] = range(rows)
            elif loose_ids or self._join.pending_keys():
                if taken is None:
                    taken = _raw_message_ids(loose_ids)
                    taken |= _raw_message_ids(self._join.waiting_keys())
                row_mids = [mids[at : at + MID_BYTES] for at in range(0, len(mids), MID_BYTES)]
                if not taken.isdisjoint(row_mids):
                    keyed_rows[mids] = [row for row, mid in enumerate(row_mids) if mid in taken]
        loose: list[MessageShare] = []
        for item in items:
            if not isinstance(item, ShareColumn):
                loose.append(item)
            elif item.message_ids in keyed_rows:
                loose.extend(item.shares(keyed_rows[item.message_ids]))
        complete, joined = self._join_grouped(loose, timestamp) if loose else ([], [])
        self._accept_batch(self._decrypt_batch(complete), epoch, tally)
        for mids, columns in blocks.items():
            rows = keyed_rows.get(mids, ())
            if len(rows) < columns[0].rows:
                self._ingest_block(columns, frozenset(rows), epoch, timestamp, tally)
        self._accept_batch(self._decrypt_batch(joined), epoch, tally)

    def _ingest_block(
        self,
        columns: list[ShareColumn],
        skip: frozenset[int],
        epoch: int,
        timestamp: float,
        tally: "_Tally",
    ) -> None:
        """Decrypt, check, admit and count one block's rows (but ``skip``).

        The payload columns XOR into the column of messages in one pass,
        and :meth:`AnswerCodec.parse_column` splits it in one more: a row
        that starts with the header prefix of this query at this epoch,
        with its bit count and a participation token's length, is well
        formed by construction, so the tokens go to admission and the
        packed bits to the count as columns (one uniform validation, one
        :meth:`~repro.core.admission.AnswerAdmissionController.admit_batch`,
        one count).  Any other row is decoded and validated like a loose
        answer.  Admission sees the rows in block order.
        """
        width = columns[0].width
        plain = xor_many([column.payload for column in columns])
        query_id, num_bits = self.query.query_id, self.query.num_buckets
        tokens, packed, odd_rows = self._codec.parse_column(
            plain, width, query_id, epoch, num_bits, PARTICIPATION_TOKEN_LENGTH
        )
        # The rows behind ``tokens`` / ``packed``, and the decoded odd rows.
        fast: Sequence[int] = range(len(tokens))
        slow: list[tuple[int, QueryAnswer]] = []
        if odd_rows or skip:
            odd = frozenset(odd_rows)
            well = [row for row in range(columns[0].rows) if row not in odd]
            kept = [index for index, row in enumerate(well) if row not in skip]
            fast = [well[index] for index in kept]
            tokens = [tokens[index] for index in kept]
            packed = [packed[index] for index in kept]
            for row in odd_rows:
                if row in skip:
                    continue
                try:
                    slow.append((row, self._codec.decode(plain[row * width : (row + 1) * width])))
                except ValueError:
                    self.malformed_messages += 1
        if self.validator is not None:
            fast_ok = self.validator.validate_uniform(query_id, num_bits, epoch, epoch, packed)
            slow_ok = self.validator.validate_batch([answer for _, answer in slow], epoch)
            self.invalid_answers += fast_ok.count(False) + slow_ok.count(False)
            if False in fast_ok:
                fast = [row for row, ok in zip(fast, fast_ok) if ok]
                tokens = [token for token, ok in zip(tokens, fast_ok) if ok]
                packed = [bits for bits, ok in zip(packed, fast_ok) if ok]
            slow = [entry for entry, ok in zip(slow, slow_ok) if ok]
        # (epoch, token) per candidate and what it counts with: its packed
        # bits or its decoded answer, in block order.
        keys = list(zip(itertools.repeat(epoch), tokens))
        values = packed
        if slow:
            merged = sorted(
                [
                    *zip(fast, keys, packed),
                    *((row, (answer.epoch, answer.token), answer) for row, answer in slow),
                ],
                key=itemgetter(0),
            )
            keys = [key for _, key, _ in merged]
            values = [value for _, _, value in merged]
        if self.admission is not None and keys:
            verdicts = self.admission.admit_batch(query_id, keys)
            if False in verdicts:
                self.rejected_duplicates += verdicts.count(False)
                values = [value for value, ok in zip(values, verdicts) if ok]
        bits = [value for value in values if type(value) is bytes] if slow else values
        if bits:
            tally.add_counts(
                timestamp, self._codec.count_packed_bits(b"".join(bits), num_bits),
                len(bits), epoch,
            )
        if len(bits) < len(values):
            tally.add_answers(timestamp, [value for value in values if type(value) is not bytes])

    def _join_grouped(
        self, shares: list[MessageShare], timestamp: float
    ) -> tuple[list[StreamRecord], list[StreamRecord]]:
        """Group-by-``MID`` join over one ingest batch's loose shares.

        A group that holds exactly the expected number of shares and has no
        shares buffered from earlier batches joins immediately without
        touching the keyed operator (the first list returned); everything
        else goes through the operator, so cross-epoch stragglers and
        malformed surpluses join share by share, in arrival order (the
        second list: the joins the operator completed).
        """
        groups: dict[str, list[MessageShare]] = {}
        for share in shares:
            groups.setdefault(share.message_id, []).append(share)
        complete: list[StreamRecord] = []
        leftovers: list[StreamRecord] = []
        for message_id, group in groups.items():
            if len(group) == self.num_proxies and not self._join.has_pending(message_id):
                complete.append(
                    StreamRecord(value=group, timestamp=timestamp, key=message_id)
                )
            else:
                leftovers.extend(
                    StreamRecord(value=share, timestamp=timestamp, key=message_id)
                    for share in group
                )
        return complete, self._join.process(leftovers) if leftovers else []

    def _epoch_timestamp(self, epoch: int) -> float:
        return epoch * self.query.frequency_seconds

    def _decrypt_batch(self, joined: list[StreamRecord]) -> list[tuple]:
        """XOR-decrypt joined share groups at once.

        All groups are XOR-ed in one :func:`~repro.crypto.xor.join_shares_batch`
        pass.  Returns ``(record, answer)`` pairs in arrival order; a group
        that does not join or decode is dropped and counted as malformed (it
        only loses that client's answer and cannot poison the window:
        Section 2.2's malicious clients).
        """
        if not joined:
            return []
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

    def _accept_batch(self, candidates: list[tuple], arrival_epoch: int, tally: "_Tally") -> None:
        """Validate, admit and count decrypted ``(record, answer)`` pairs.

        Every answer is validated first, and only the validation survivors
        reach the admission controller, in arrival order — the decisions and
        counters of :meth:`AnswerValidator.validate` then
        :meth:`AnswerAdmissionController.admit` once per answer.
        """
        if self.validator is not None and candidates:
            valid = self.validator.validate_batch([a for _, a in candidates], arrival_epoch)
            self.invalid_answers += valid.count(False)
            candidates = [entry for entry, ok in zip(candidates, valid) if ok]
        if self.admission is not None and candidates:
            verdicts = self.admission.admit_batch(
                self.query.query_id, [(a.epoch, a.token) for _, a in candidates]
            )
            self.rejected_duplicates += verdicts.count(False)
            candidates = [entry for entry, ok in zip(candidates, verdicts) if ok]
        for record, answer in candidates:
            tally.add_answers(record.timestamp, [answer])

    def _aggregate_window(self, partials: list[WindowPartial]) -> dict:
        """Window aggregation function handed to the streaming operator:
        the sum of the window's partials (integer counts, so exact)."""
        counts = [0] * self.query.num_buckets
        num_answers = 0
        epochs: set[int] = set()
        for partial in partials:
            counts = [total + count for total, count in zip(counts, partial.counts)]
            num_answers += partial.num_answers
            epochs |= partial.epochs
        return {
            "counts": counts,
            "num_answers": num_answers,
            "num_epochs": max(1, len(epochs)),
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


def _raw_message_ids(message_ids) -> set[bytes]:
    """The 16 raw bytes behind each ``MID`` that is the hex form a block
    row's ``MID`` takes as a loose share; any other key clashes with no
    block row and is left out."""
    raw = set()
    for message_id in message_ids:
        try:
            mid = bytes.fromhex(message_id)
        except (TypeError, ValueError):
            continue
        if len(mid) == MID_BYTES and mid.hex() == message_id:
            raw.add(mid)
    return raw


class WindowPartial(NamedTuple):
    """Admitted answers of one ingest batch at one event time, as a window
    value: per-bucket Yes counts, how many answers, and their epochs."""

    counts: list
    num_answers: int
    epochs: frozenset


class _Tally:
    """One ingest batch's admitted answers, summed per event timestamp."""

    def __init__(self, num_buckets: int):
        self._num_buckets = num_buckets
        # timestamp -> [counts or None, answers counted, epochs, decoded answers]
        self._parts: dict[float, list] = {}
        self.num_answers = 0

    def _part(self, timestamp: float) -> list:
        part = self._parts.get(timestamp)
        if part is None:
            part = self._parts[timestamp] = [None, 0, set(), []]
        return part

    def add_counts(self, timestamp: float, counts: list[int], num_answers: int, epoch: int) -> None:
        part = self._part(timestamp)
        part[0] = counts if part[0] is None else [a + b for a, b in zip(part[0], counts)]
        part[1] += num_answers
        part[2].add(epoch)
        self.num_answers += num_answers

    def add_answers(self, timestamp: float, answers: list[QueryAnswer]) -> None:
        self._part(timestamp)[3].extend(answers)
        self.num_answers += len(answers)

    def records(self) -> list[StreamRecord]:
        """One window record per timestamp, in first-seen order."""
        records = []
        for timestamp, (counts, num_answers, epochs, answers) in self._parts.items():
            if answers:
                decoded, _ = count_answer_bits(answers, self._num_buckets)
                counts = decoded if counts is None else [a + b for a, b in zip(counts, decoded)]
                epochs.update(answer.epoch for answer in answers)
            partial = WindowPartial(counts, num_answers + len(answers), frozenset(epochs))
            records.append(StreamRecord(value=partial, timestamp=timestamp))
        return records

