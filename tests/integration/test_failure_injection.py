"""Failure-injection integration tests: missing shares, malicious clients, storage loss."""

import random

import pytest

from repro.core import (
    Aggregator,
    AnswerSpec,
    ExecutionParameters,
    HistoricalStore,
    RangeBuckets,
)
from repro.core.encryption import AnswerCodec
from repro.core.query import Query, QueryAnswer
from repro.crypto.prng import KeystreamGenerator
from repro.storage import BlockStore


def make_query() -> Query:
    return Query(
        query_id="analyst-00000001",
        sql="SELECT v FROM private_data",
        answer_spec=AnswerSpec(
            buckets=RangeBuckets(boundaries=(0.0, 1.0, 2.0), open_ended=True), value_column="v"
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )


NOISELESS = ExecutionParameters(sampling_fraction=1.0, p=1.0, q=0.5)


def encrypt(bits, epoch=0):
    codec = AnswerCodec()
    answer = QueryAnswer(query_id="analyst-00000001", bits=tuple(bits), epoch=epoch)
    return list(
        codec.encrypt(answer, num_proxies=2, keystream=KeystreamGenerator(seed=b"f")).shares
    )


class TestMissingShares:
    def test_lost_share_excludes_only_that_answer(self):
        """An answer whose key share is lost never decrypts, but other answers do."""
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=3)
        complete_a = encrypt([1, 0, 0])
        complete_b = encrypt([0, 1, 0])
        dropped = encrypt([0, 0, 1])[:1]  # second share lost in transit
        aggregator.ingest_shares(complete_a + complete_b + dropped, epoch=0)
        result = aggregator.flush()[0]
        assert result.num_answers == 2
        assert aggregator.pending_joins() == 1
        # The two decodable answers scale up by U / U' = 3 / 2.
        assert result.histogram.estimates()[0] == pytest.approx(1.5)
        assert result.histogram.estimates()[1] == pytest.approx(1.5)
        assert result.histogram.estimates()[2] == pytest.approx(0.0)

    def test_late_share_completes_join_in_later_epoch(self):
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=2)
        shares = encrypt([1, 0, 0], epoch=0)
        aggregator.ingest_shares(shares[:1], epoch=0)
        aggregator.ingest_shares(shares[1:], epoch=1)  # arrives one epoch late
        results = aggregator.flush()
        total_answers = sum(r.num_answers for r in results)
        assert total_answers == 1


class TestMaliciousClients:
    def test_garbage_payload_does_not_crash_aggregation(self):
        """A malformed share pair is skipped without poisoning the window."""
        from repro.crypto.xor import MessageShare

        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=2)
        garbage = [
            MessageShare(message_id="evil", payload=b"\x00" * 13, index=0),
            MessageShare(message_id="evil", payload=b"\x00" * 13, index=1),
        ]
        good = encrypt([1, 0, 0])
        aggregator.ingest_shares(garbage + good, epoch=0)
        result = aggregator.flush()[0]
        assert aggregator.malformed_messages == 1
        assert result.num_answers == 1
        assert result.histogram.estimates()[0] == pytest.approx(2.0)  # scaled 2 / 1

    def test_distorting_client_shifts_result_boundedly(self):
        """A single false answer shifts the histogram by exactly one count."""
        aggregator = Aggregator(query=make_query(), parameters=NOISELESS, total_clients=100)
        honest = []
        for _ in range(99):
            honest.extend(encrypt([1, 0, 0]))
        liar = encrypt([0, 0, 1])
        aggregator.ingest_shares(honest + liar, epoch=0)
        result = aggregator.flush()[0]
        assert result.histogram.estimates()[0] == pytest.approx(99.0)
        assert result.histogram.estimates()[2] == pytest.approx(1.0)


class TestStorageFailures:
    def test_historical_answers_survive_storage_node_failure(self):
        store = HistoricalStore(block_store=BlockStore(num_nodes=3, replication=2, block_size=256))
        store.append_rows("analyst-00000001", 0, [(1, 0, 0)] * 20, epoch_timestamp=0.0)
        store.block_store.fail_node(1)
        recovered = store.read_answers("analyst-00000001")
        assert len(recovered) == 20

    def test_unreplicated_store_loses_data_on_failure(self):
        from repro.storage import StorageError

        store = HistoricalStore(block_store=BlockStore(num_nodes=2, replication=1, block_size=64))
        store.append_rows("analyst-00000001", 0, [(1, 0, 0)] * 20, epoch_timestamp=0.0)
        store.block_store.fail_node(0)
        store.block_store.fail_node(1)
        with pytest.raises(StorageError):
            store.read_answers("analyst-00000001")


class TestChurn:
    def test_result_quality_degrades_gracefully_with_participation(self):
        """Dropping participation (client churn) widens error but never corrupts results."""
        rng = random.Random(3)
        query = make_query()
        estimates = {}
        for fraction in (1.0, 0.3):
            params = ExecutionParameters(sampling_fraction=fraction, p=1.0, q=0.5)
            aggregator = Aggregator(query=query, parameters=params, total_clients=1_000)
            shares = []
            for i in range(1_000):
                if rng.random() > fraction:
                    continue
                bits = [1, 0, 0] if i % 2 == 0 else [0, 1, 0]
                shares.extend(encrypt(bits))
            aggregator.ingest_shares(shares, epoch=0)
            result = aggregator.flush()[0]
            estimates[fraction] = result
        full = estimates[1.0]
        sparse = estimates[0.3]
        # Both recover the 50/50 split approximately; the sparse one has wider bounds.
        assert full.histogram.estimates()[0] == pytest.approx(500.0, rel=0.02)
        assert sparse.histogram.estimates()[0] == pytest.approx(500.0, rel=0.15)
        assert (
            sparse.histogram.bucket(0).error_bound > full.histogram.bucket(0).error_bound
        )
