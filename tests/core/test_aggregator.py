"""Tests for the aggregator (join, decrypt, window aggregation, error bounds)."""

import hashlib
import random

import pytest

from repro.core import Aggregator, AnswerSpec, ExecutionParameters, RangeBuckets
from repro.core.admission import PARTICIPATION_TOKEN_LENGTH, AnswerAdmissionController
from repro.core.encryption import AnswerCodec
from repro.core.query import Query, QueryAnswer
from repro.core.validation import AnswerValidator
from repro.crypto.prng import KeystreamGenerator
from repro.crypto.xor import MessageShare, ShareColumn, split_columns


def make_query(window: float = 60.0, slide: float = 60.0) -> Query:
    return Query(
        query_id="analyst-00000001",
        sql="SELECT v FROM private_data",
        answer_spec=AnswerSpec(
            buckets=RangeBuckets(boundaries=(0.0, 1.0, 2.0), open_ended=True), value_column="v"
        ),
        frequency_seconds=60.0,
        window_seconds=window,
        slide_seconds=slide,
    )


def encrypt_answers(bit_vectors, epoch=0, num_proxies=2):
    codec = AnswerCodec()
    keystream = KeystreamGenerator(seed=b"agg")
    shares = []
    for bits in bit_vectors:
        answer = QueryAnswer(query_id="analyst-00000001", bits=tuple(bits), epoch=epoch)
        shares.extend(codec.encrypt(answer, num_proxies=num_proxies, keystream=keystream).shares)
    return shares


NOISELESS = ExecutionParameters(sampling_fraction=1.0, p=1.0, q=0.5)


class TestAggregatorBasics:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            Aggregator(query=make_query(), parameters=NOISELESS, total_clients=0)
        with pytest.raises(ValueError):
            Aggregator(query=make_query(), parameters=NOISELESS, total_clients=10, num_proxies=1)

    def test_noiseless_single_window_matches_truth(self):
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=4)
        vectors = [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        shares = encrypt_answers(vectors, epoch=0)
        aggregator.ingest_shares(shares, epoch=0)
        results = aggregator.flush()
        assert len(results) == 1
        result = results[0]
        assert result.num_answers == 4
        assert result.histogram.estimates() == pytest.approx([2.0, 1.0, 1.0])

    def test_shares_from_different_epochs_join_correctly(self):
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=2)
        epoch0 = encrypt_answers([[1, 0, 0]], epoch=0)
        epoch1 = encrypt_answers([[0, 1, 0]], epoch=1)
        aggregator.ingest_shares(epoch0, epoch=0)
        results = aggregator.ingest_shares(epoch1, epoch=1)
        # Epoch 1's timestamp (60s) closes the first window [0, 60).
        assert len(results) == 1
        assert results[0].histogram.estimates() == pytest.approx([2.0, 0.0, 0.0])
        final = aggregator.flush()
        assert len(final) == 1
        assert final[0].histogram.estimates() == pytest.approx([0.0, 2.0, 0.0])

    def test_partial_shares_do_not_produce_answers(self):
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=2)
        shares = encrypt_answers([[1, 0, 0]], epoch=0)
        aggregator.ingest_shares(shares[:1], epoch=0)  # only one of the two shares
        assert aggregator.pending_joins() == 1
        assert aggregator.answers_processed == 0
        aggregator.ingest_shares(shares[1:], epoch=0)
        assert aggregator.pending_joins() == 0
        assert aggregator.answers_processed == 1

    def test_three_proxy_deployment(self):
        aggregator = Aggregator(
            query=make_query(), parameters=NOISELESS, total_clients=2, num_proxies=3
        )
        shares = encrypt_answers([[1, 0, 0], [0, 0, 1]], epoch=0, num_proxies=3)
        aggregator.ingest_shares(shares, epoch=0)
        results = aggregator.flush()
        assert results[0].histogram.estimates() == pytest.approx([1.0, 0.0, 1.0])

    def test_empty_flush(self):
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=2)
        assert aggregator.flush() == []


class TestScalingAndEstimation:
    def test_sampling_scale_up_to_population(self):
        """With 50% participation the counts scale up by U/U'."""
        params = ExecutionParameters(sampling_fraction=0.5, p=1.0, q=0.5)
        aggregator = Aggregator(query=make_query(), parameters=params, total_clients=100)
        vectors = [[1, 0, 0]] * 30 + [[0, 1, 0]] * 20  # 50 participants out of 100
        aggregator.ingest_shares(encrypt_answers(vectors), epoch=0)
        result = aggregator.flush()[0]
        assert result.population == 100
        assert result.histogram.estimates()[0] == pytest.approx(60.0)
        assert result.histogram.estimates()[1] == pytest.approx(40.0)

    def test_randomization_correction_recovers_truth_on_average(self):
        rng = random.Random(3)
        p, q = 0.6, 0.3
        params = ExecutionParameters(sampling_fraction=1.0, p=p, q=q)
        query = make_query()
        total_clients = 3_000
        truth_first_bucket = 1_800

        estimates = []
        for trial in range(5):
            aggregator = Aggregator(query=query, parameters=params, total_clients=total_clients)
            vectors = []
            for i in range(total_clients):
                truthful = [1, 0, 0] if i < truth_first_bucket else [0, 1, 0]
                randomized = [
                    bit if rng.random() < p else (1 if rng.random() < q else 0)
                    for bit in truthful
                ]
                vectors.append(randomized)
            aggregator.ingest_shares(encrypt_answers(vectors, epoch=trial), epoch=trial)
        # All epochs land in different windows; use the mean of per-window estimates.
        for result in aggregator.flush():
            estimates.append(result.histogram.estimates()[0])
        mean_estimate = sum(estimates) / len(estimates)
        assert mean_estimate == pytest.approx(truth_first_bucket, rel=0.05)

    def test_error_bounds_are_attached(self):
        params = ExecutionParameters(sampling_fraction=0.5, p=0.9, q=0.6)
        aggregator = Aggregator(query=make_query(), parameters=params, total_clients=200)
        vectors = [[1, 0, 0]] * 60 + [[0, 1, 0]] * 40
        aggregator.ingest_shares(encrypt_answers(vectors), epoch=0)
        result = aggregator.flush()[0]
        bounds = result.histogram.error_bounds()
        assert all(b > 0 for b in bounds)
        assert all(b != float("inf") for b in bounds)

    def test_confidence_interval_covers_truth_in_noiseless_case(self):
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=10)
        vectors = [[1, 0, 0]] * 6 + [[0, 1, 0]] * 4
        aggregator.ingest_shares(encrypt_answers(vectors), epoch=0)
        result = aggregator.flush()[0]
        assert result.histogram.bucket(0).contains(6.0)
        assert result.histogram.bucket(1).contains(4.0)

    def test_empty_window_reports_infinite_error(self):
        params = ExecutionParameters(sampling_fraction=0.5, p=0.9, q=0.6)
        aggregator = Aggregator(query=make_query(), parameters=params, total_clients=10)
        # Ingest one epoch, then force a later window with no matching data by
        # flushing after ingesting an empty epoch far in the future.
        aggregator.ingest_shares(encrypt_answers([[1, 0, 0]]), epoch=0)
        results = aggregator.flush()
        assert len(results) == 1


class TestSlidingWindows:
    def test_sliding_window_counts_answers_in_overlapping_windows(self):
        query = make_query(window=120.0, slide=60.0)
        aggregator = Aggregator(query=query, parameters=NOISELESS, total_clients=1)
        aggregator.ingest_shares(encrypt_answers([[1, 0, 0]], epoch=1), epoch=1)
        results = aggregator.flush()
        # Epoch 1 (t=60) falls into windows [0,120) and [60,180).
        assert len(results) == 2
        for result in results:
            assert result.histogram.estimates()[0] == pytest.approx(1.0)

    def test_window_results_ordered_by_time(self):
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=1)
        for epoch in range(3):
            aggregator.ingest_shares(encrypt_answers([[1, 0, 0]], epoch=epoch), epoch=epoch)
        results = aggregator.flush()
        starts = [r.window.start for r in results]
        assert starts == sorted(starts)


def as_columns(shares: list[MessageShare]) -> list:
    """Loose shares of 32-hex-character MIDs, regrouped as one block's
    columns (one per share index) where every MID carries a full set."""
    by_index: dict[int, list[MessageShare]] = {}
    for share in shares:
        by_index.setdefault(share.index, []).append(share)
    return [
        ShareColumn(
            b"".join(bytes.fromhex(share.message_id) for share in column),
            b"".join(share.payload for share in column),
            index,
        )
        for index, column in sorted(by_index.items())
    ]


#: What the share-by-share keyed join (the aggregator's only ingest before
#: blocks and grouped joins existed) emitted for the two streams below:
#: ``(start, end, answers, ((estimate, error bound) per bucket))`` per window.
#: The bounds' last digits were re-captured when the t quantile became the
#: stdlib routine in ``repro.core.sampling`` (1 and 2 degrees of freedom:
#: 12.706204736174701 and 4.302652729749461, where ``scipy.special.stdtrit``
#: gives ...694 and ...462); estimates and counts are the join's.
CLEAN_STREAM_WINDOWS = [
    (0.0, 60.0, 3, ((2.6666666666666665, 9.070788404499476),) * 3),
    (60.0, 120.0, 2, ((4.0, 44.015584348853764), (4.0, 44.015584348853764), (0.0, 0.0))),
]
CORRUPTED_STREAM_WINDOWS = [
    (0.0, 60.0, 2, ((4.0, 44.015584348853764), (4.0, 44.015584348853764), (0.0, 0.0))),
]


class TestBatchedDecryptMatchesReference:
    """The one ingest keeps the share-by-share join's bytes.

    ``ingest_shares`` decrypts loose shares in one grouped pass
    (``join_shares_batch``) and a block's columns a column at a time;
    either way its window results and counters must equal what joining the
    same shares one record at a time produced — corrupted groups included.
    """

    def _window_bytes(self, results):
        return [
            (r.window.start, r.window.end, r.num_answers,
             tuple((b.estimate, b.error_bound) for b in r.histogram.buckets))
            for r in results
        ]

    def _run(self, shares_by_epoch, columns):
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=8)
        emitted = []
        for epoch, shares in enumerate(shares_by_epoch):
            items = as_columns(shares) if columns else shares
            emitted.extend(aggregator.ingest_shares(items, epoch=epoch))
        emitted.extend(aggregator.flush())
        return aggregator, self._window_bytes(emitted)

    @pytest.mark.parametrize("columns", [False, True], ids=["loose", "block"])
    def test_clean_multi_epoch_stream(self, columns):
        shares_by_epoch = [
            encrypt_answers([[1, 0, 0], [0, 1, 0], [0, 0, 1]], epoch=0),
            encrypt_answers([[1, 1, 0], [0, 0, 0]], epoch=1),
        ]
        aggregator, windows = self._run(shares_by_epoch, columns)
        assert windows == CLEAN_STREAM_WINDOWS
        assert aggregator.answers_processed == 5
        assert aggregator.malformed_messages == 0

    @pytest.mark.parametrize("columns", [False, True], ids=["loose", "block"])
    def test_corrupted_group_counts_identically(self, columns):
        clean = encrypt_answers([[1, 0, 0], [0, 1, 0]], epoch=0)
        # Corrupt one message's payload bytes: the group still joins (equal
        # lengths, same MID) but decodes to garbage -> malformed.
        bad = encrypt_answers([[0, 0, 1]], epoch=0)
        corrupted = [
            MessageShare(
                message_id=share.message_id,
                payload=bytes(b ^ 0xFF for b in share.payload),
                index=share.index,
            )
            if share.index == 0
            else share
            for share in bad
        ]
        aggregator, windows = self._run([clean + corrupted], columns)
        assert windows == CORRUPTED_STREAM_WINDOWS
        assert aggregator.malformed_messages == 1
        assert aggregator.answers_processed == 2


# -- hostile blocks -------------------------------------------------------------

QUERY_ID = "analyst-00000001"


def hostile_message(bits, epoch, tag, query_id=QUERY_ID) -> bytes:
    token = f"token-{tag:010d}".encode()  # a participation token's 16 bytes
    return AnswerCodec().encode(
        QueryAnswer(query_id=query_id, bits=tuple(bits), epoch=epoch, token=token)
    )


def hostile_mid(tag: int) -> bytes:
    return hashlib.sha256(f"mid-{tag}".encode()).digest()[:16]


def hostile_block(messages, tags, seed: bytes) -> list[ShareColumn]:
    """Two proxies' columns of one block: ``ME`` and the key column."""
    keystream = KeystreamGenerator(seed=seed)
    joined = b"".join(messages)
    payloads = split_columns(joined, [keystream.next_bytes(len(joined))])
    mids = b"".join(hostile_mid(tag) for tag in tags)
    return [ShareColumn(mids, payload, index) for index, payload in enumerate(payloads)]


def hostile_batches() -> list[tuple[int, list]]:
    """Three ingest calls, as ``(arrival epoch, polled items)``.

    Epoch 1: a loose share reusing row 2's MID; a block whose rows carry
    two good answers, that reused row, a wrong query id (same length), an
    epoch within drift, a foreign bit count (same width), a bad magic and a
    duplicate of row 0's token; and the first column of a two-row block
    whose partner was lost.  Epoch 3: a clean block, which closes epoch 1's
    window.  Epoch 1 again: a stale block for that closed window.
    """
    good = [1, 0, 0]
    rows = [
        hostile_message(good, 1, 0),
        hostile_message([0, 1, 0], 1, 1),
        hostile_message([0, 0, 1], 1, 2),
        hostile_message(good, 1, 3, query_id="analyst-00000002"),
        hostile_message([0, 1, 0], 0, 4),
        hostile_message([1, 0, 1, 1, 0], 1, 5),
        b"XX" + hostile_message(good, 1, 6)[2:],
        hostile_message([0, 0, 1], 1, 0),
    ]
    block = hostile_block(rows, range(8), b"block")
    orphan, _ = hostile_block(
        [hostile_message(good, 1, 20), hostile_message([0, 1, 1], 1, 21)], (20, 21), b"lost"
    )
    reused = MessageShare(hostile_mid(2).hex(), bytes(len(rows[2])), 0)
    later = hostile_block([hostile_message([1, 1, 0], 3, 30 + i) for i in range(3)], (30, 31, 32),
                          b"later")
    stale = hostile_block([hostile_message([0, 1, 0], 1, 40 + i) for i in range(2)], (40, 41),
                          b"stale")
    # Proxy 0's consumer polls first, then proxy 1's.
    return [(1, [reused, block[0], orphan, block[1]]), (3, later), (1, stale)]


#: What the share-by-share keyed join (the only ingest before blocks existed)
#: counts for the same share multiset: the columns exploded into their rows'
#: shares, in arrival order.
HOSTILE_COUNTERS = {
    "answers_processed": 8,
    "malformed_messages": 2,
    "invalid_answers": 2,
    "rejected_by_reason": {"wrong answer length": 1, "wrong query id": 1},
    "rejected_duplicates": 1,
    "pending_joins": 3,
    "late_answers_dropped": 2,
    "shares_received": 29,
}
#: ... and the windows it emitted: ``(start, answers, estimates)``.
HOSTILE_WINDOWS = [
    (60.0, 3, (6.666666666666667, 13.333333333333334, 0.0)),
    (180.0, 3, (10.0, 10.0, 0.0)),
]


def explode(items) -> list[MessageShare]:
    return [
        share
        for item in items
        for share in (item.shares() if isinstance(item, ShareColumn) else [item])
    ]


def run_hostile(batches, loose: bool):
    """Ingest ``(arrival epoch, items)`` batches, the items as they are or
    exploded into loose shares; returns the counters and the windows."""
    query = make_query()
    aggregator = Aggregator(
        query=query,
        parameters=NOISELESS,
        total_clients=10,
        validator=AnswerValidator(query),
        admission=AnswerAdmissionController(),
    )
    results = []
    for epoch, items in batches:
        items = explode(items) if loose else items
        results.extend(aggregator.ingest_shares(items, epoch))
    results.extend(aggregator.flush())
    counters = {
        "answers_processed": aggregator.answers_processed,
        "malformed_messages": aggregator.malformed_messages,
        "invalid_answers": aggregator.invalid_answers,
        "rejected_by_reason": aggregator.validator.rejected_by_reason,
        "rejected_duplicates": aggregator.rejected_duplicates,
        "pending_joins": aggregator.pending_joins(),
        "late_answers_dropped": aggregator.late_answers_dropped,
        "shares_received": aggregator.shares_received,
    }
    windows = [
        (r.window.start, r.num_answers, tuple(b.estimate for b in r.histogram.buckets))
        for r in results
    ]
    return counters, windows


class TestHostileBlockParity:
    """Whatever a block carries, its ingest counts what the share-by-share
    join counted for the same shares."""

    @pytest.mark.parametrize("loose", [False, True], ids=["block", "loose"])
    def test_counters_match_the_per_share_ingest(self, loose):
        counters, windows = run_hostile(hostile_batches(), loose)
        assert counters == HOSTILE_COUNTERS
        assert windows == HOSTILE_WINDOWS
        # Epoch 1's window holds rows 0, 1 and 4; the stale rows were counted
        # as answers, then dropped late.
        assert [num_answers for _, num_answers, _ in windows] == [3, 3]

    def test_a_clean_block_decodes_no_answer(self, monkeypatch):
        """Well-formed rows are read off the prefix: ``decode`` only sees
        the rows that fail it."""
        decoded = []
        decode = AnswerCodec.decode

        def counting(self, message):
            decoded.append(message[:2])
            return decode(self, message)

        monkeypatch.setattr(AnswerCodec, "decode", counting)
        run_hostile(hostile_batches(), loose=False)
        # The wrong query id, the drifted epoch, the foreign bit count and
        # the bad magic of the hostile block; the reused row's first two
        # shares join into garbage through the keyed path.
        assert len(decoded) == 5


class TestRawTokens:
    """The participation token is 16 raw bytes, any 16 bytes: one that is
    not UTF-8 text is read off the block's prefix like any other, admitted
    once and its duplicate refused (not counted malformed)."""

    @pytest.mark.parametrize("loose", [False, True], ids=["block", "loose"])
    def test_a_non_utf8_token_round_trips_and_is_admitted_once(self, loose):
        token = b"\xff" * PARTICIPATION_TOKEN_LENGTH
        codec = AnswerCodec()
        packed = codec._pack_bits((1, 0, 0, 0, 1, 0), 3)
        messages = codec.encode_rows(QUERY_ID, 1, [token, token], packed, 3)
        width = len(messages[0])
        assert codec.parse_column(
            b"".join(messages), width, QUERY_ID, 1, 3, PARTICIPATION_TOKEN_LENGTH
        ) == ((token, token), (codec._pack_bits((1, 0, 0)), codec._pack_bits((0, 1, 0))), [])
        assert codec.decode(messages[1]) == QueryAnswer(QUERY_ID, (0, 1, 0), epoch=1, token=token)

        counters, windows = run_hostile(
            [(1, hostile_block(messages, [0, 1], b"raw-token"))], loose
        )
        assert counters["answers_processed"] == 1
        assert counters["rejected_duplicates"] == 1
        assert counters["malformed_messages"] == 0
        # The first row's bucket 0, scaled up to run_hostile's 10 clients.
        assert windows == [(60.0, 1, (10.0, 0.0, 0.0))]


#: What the share-by-share keyed join counted for the pending-clash stream
#: below, exploded into loose shares.
CLASH_COUNTERS = {
    "answers_processed": 2,
    "malformed_messages": 1,
    "invalid_answers": 0,
    "rejected_by_reason": {},
    "rejected_duplicates": 0,
    "pending_joins": 1,
    "late_answers_dropped": 0,
    "shares_received": 7,
}
CLASH_WINDOWS = [(60.0, 2, (5.0, 5.0, 0.0))]


class TestPendingClashAcrossCalls:
    """A block row whose ``MID`` an earlier call left pending in the join.

    Call 1 is a lone zero share under row 2's ``MID``.  In call 2 that row
    takes the keyed join — three shares under one ``MID``: the lone share
    and the block's first share join into garbage, the second is left
    pending — while rows 0 and 1 take the block path.
    """

    @staticmethod
    def batches() -> list[tuple[int, list]]:
        rows = [
            hostile_message([1, 0, 0], 1, 0),
            hostile_message([0, 1, 0], 1, 1),
            hostile_message([0, 0, 1], 1, 2),
        ]
        lone = MessageShare(hostile_mid(2).hex(), bytes(len(rows[2])), 0)
        return [(1, [lone]), (1, hostile_block(rows, range(3), b"clash"))]

    @pytest.mark.parametrize("loose", [False, True], ids=["block", "loose"])
    def test_counts_match_the_per_share_ingest(self, loose):
        assert run_hostile(self.batches(), loose) == (CLASH_COUNTERS, CLASH_WINDOWS)

    def test_only_the_pending_row_leaves_the_block(self, monkeypatch):
        skipped, decoded = [], []
        ingest_block, decode = Aggregator._ingest_block, AnswerCodec.decode

        def recording_block(self, columns, skip, *args):
            skipped.append(sorted(skip))
            return ingest_block(self, columns, skip, *args)

        def counting(self, message):
            decoded.append(message)
            return decode(self, message)

        monkeypatch.setattr(Aggregator, "_ingest_block", recording_block)
        monkeypatch.setattr(AnswerCodec, "decode", counting)
        run_hostile(self.batches(), loose=False)
        assert skipped == [[2]]
        # The garbage join of row 2; rows 0 and 1 are read off the prefix.
        assert len(decoded) == 1


#: What ``_ingest_block`` counts for :class:`TestMixedBlockWithSkips`'s
#: block, and what the per-share join counts for its unskipped rows.
MIXED_BLOCK_COUNTERS = {
    "answers_processed": 4,
    "malformed_messages": 1,
    "invalid_answers": 1,
    "rejected_by_reason": {"epoch drift": 1},
    "rejected_duplicates": 1,
    "pending_joins": 0,
    "late_answers_dropped": 0,
}
#: One window at the arrival epoch: rows 0, 1, 3 and 5, over epochs 0 and 1.
MIXED_BLOCK_WINDOWS = [(60.0, 4, (5.0, 5.0, 10.0))]


class TestMixedBlockWithSkips:
    """``_ingest_block`` over one block that mixes well-formed rows with a
    bad magic, a wrong epoch (within drift, then beyond it) and a duplicate
    token, two of its rows skipped (as rows clashing with a loose ``MID``
    are): the well-formed rows are read as columns, the odd ones decoded,
    the skipped ones never read, and the counters and windows are those of
    the per-share join over the unskipped rows."""

    SKIP = frozenset({6, 7})

    @staticmethod
    def rows() -> list[bytes]:
        return [
            hostile_message([1, 0, 0], 1, 0),
            hostile_message([0, 1, 0], 1, 1),
            b"XX" + hostile_message([1, 0, 0], 1, 2)[2:],  # bad magic
            hostile_message([0, 0, 1], 0, 3),  # another epoch, within drift
            hostile_message([0, 0, 1], 1, 0),  # row 0's token again
            hostile_message([0, 0, 1], 1, 5),
            b"XX" + hostile_message([1, 0, 0], 1, 6)[2:],  # skipped
            hostile_message([1, 1, 1], 1, 7),  # skipped
            hostile_message([0, 1, 0], 5, 8),  # another epoch, beyond drift
        ]

    @staticmethod
    def _aggregator(max_set_bits=None) -> Aggregator:
        query = make_query()
        return Aggregator(
            query=query,
            parameters=NOISELESS,
            total_clients=10,
            validator=AnswerValidator(query, max_set_bits=max_set_bits),
            admission=AnswerAdmissionController(),
        )

    @staticmethod
    def _outcome(aggregator, results):
        counters = {
            "answers_processed": aggregator.answers_processed,
            "malformed_messages": aggregator.malformed_messages,
            "invalid_answers": aggregator.invalid_answers,
            "rejected_by_reason": aggregator.validator.rejected_by_reason,
            "rejected_duplicates": aggregator.rejected_duplicates,
            "pending_joins": aggregator.pending_joins(),
            "late_answers_dropped": aggregator.late_answers_dropped,
        }
        windows = [
            (r.window.start, r.num_answers, tuple(b.estimate for b in r.histogram.buckets))
            for r in results
        ]
        return counters, windows

    def test_the_block_counts_what_the_per_share_join_counts(self, monkeypatch):
        from repro.core.aggregator import _Tally

        rows = self.rows()
        columns = hostile_block(rows, range(len(rows)), b"mixed")
        decoded = []
        decode = AnswerCodec.decode

        def counting(self, message):
            decoded.append(message)
            return decode(self, message)

        monkeypatch.setattr(AnswerCodec, "decode", counting)
        aggregator = self._aggregator()
        tally = _Tally(3)
        aggregator._ingest_block(columns, self.SKIP, 1, 60.0, tally)
        aggregator.answers_processed += tally.num_answers
        results = aggregator._window_op.process(tally.records())
        results = [aggregator._to_window_result(r) for r in results]
        results += aggregator.flush()
        assert self._outcome(aggregator, results) == (MIXED_BLOCK_COUNTERS, MIXED_BLOCK_WINDOWS)
        # Only the odd unskipped rows are decoded: the bad magic and the two
        # other epochs.
        assert decoded == [rows[2], rows[3], rows[8]]

        reference = self._aggregator()
        kept = [row for row in range(len(rows)) if row not in self.SKIP]
        loose = [share for column in columns for share in column.shares(kept)]
        results = reference.ingest_shares(loose, 1) + reference.flush()
        assert self._outcome(reference, results) == (MIXED_BLOCK_COUNTERS, MIXED_BLOCK_WINDOWS)

    def test_a_clean_block_under_a_set_bit_cap_counts_what_the_per_share_join_counts(self):
        """Every row well formed and none skipped, the cap refusing two of
        them: the column path filters its rows by the uniform verdicts."""
        rows = [
            hostile_message([1, 0, 0], 1, 0),
            hostile_message([1, 1, 0], 1, 1),
            hostile_message([0, 0, 1], 1, 2),
            hostile_message([1, 1, 1], 1, 3),
            hostile_message([0, 1, 0], 1, 0),  # row 0's token again
        ]
        columns = hostile_block(rows, range(len(rows)), b"capped")
        outcomes = []
        for loose in (False, True):
            aggregator = self._aggregator(max_set_bits=1)
            items = explode(columns) if loose else columns
            results = aggregator.ingest_shares(items, 1) + aggregator.flush()
            outcomes.append(self._outcome(aggregator, results))
        counters, windows = outcomes[0]
        assert outcomes[0] == outcomes[1]
        assert counters["invalid_answers"] == 2 and counters["rejected_duplicates"] == 1
        assert windows == [(60.0, 2, (5.0, 0.0, 5.0))]
