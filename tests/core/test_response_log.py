"""The packed response log rebuilds exactly the responses it was given."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import (
    Analyst,
    AnswerSpec,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RangeBuckets,
    SystemConfig,
)
from repro.core.client import ResponseBlock, ResponseLog, pack_blocks
from repro.core.encryption import AnswerCodec
from repro.crypto.prng import KeystreamGenerator
from repro.runtime.scenario import _digest_update_responses
from tests.conftest import forge_block

QUERY_ID = "q-log"


def make_block(client_id: str, epoch: int, bits: tuple, num_proxies: int = 2):
    """A one-row block: ``client_id``'s answer with rotated bits."""
    randomized = bits[1:] + bits[:1]
    message = AnswerCodec().encode_message(QUERY_ID, epoch, b"t" * 32, randomized)
    keystream = KeystreamGenerator(seed=client_id.encode("utf-8"))
    row = (
        client_id,
        bits,
        randomized,
        message,
        tuple(keystream.next_bytes(len(message)) for _ in range(num_proxies - 1)),
    )
    return forge_block(QUERY_ID, epoch, [row], num_proxies)


def responses_of(blocks):
    return [block.response(row) for block in blocks for row in range(len(block))]


def digest_of(responses) -> str:
    digest = hashlib.sha256()
    _digest_update_responses(digest, responses)
    return digest.hexdigest()


def assert_same_fields(rebuilt, original) -> None:
    assert rebuilt.client_id == original.client_id
    assert rebuilt.query_id == original.query_id
    assert rebuilt.epoch == original.epoch
    assert rebuilt.truthful_bits == original.truthful_bits
    assert rebuilt.randomized_bits == original.randomized_bits
    assert rebuilt.encrypted.message_id == original.encrypted.message_id
    assert [
        (share.message_id, share.payload, share.index) for share in rebuilt.encrypted.shares
    ] == [
        (share.message_id, share.payload, share.index) for share in original.encrypted.shares
    ]
    assert rebuilt == original


class TestPacking:
    def test_one_block_per_uniform_run(self):
        blocks = [make_block(f"c{i}", 3, (0, 1, 0, 0)) for i in range(5)]
        (entry,) = pack_blocks(blocks)
        assert isinstance(entry, bytes)
        log = ResponseLog(QUERY_ID, [entry])
        for rebuilt, original in zip(log, responses_of(blocks), strict=True):
            assert_same_fields(rebuilt, original)

    def test_a_width_change_starts_a_new_block_and_keeps_order(self):
        blocks = [
            make_block("a", 1, (1, 0, 0, 0)),
            make_block("b", 1, (0, 1, 0, 0)),
            make_block("wide", 1, (0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
            make_block("c", 1, (0, 0, 1, 0)),
            make_block("three-way", 1, (0, 0, 0, 1), num_proxies=3),
        ]
        entries = pack_blocks(blocks)
        assert len(entries) == 4
        log = ResponseLog(QUERY_ID, entries)
        assert [response.client_id for response in log] == ["a", "b", "wide", "c", "three-way"]
        for rebuilt, original in zip(log, responses_of(blocks), strict=True):
            assert_same_fields(rebuilt, original)

    def test_an_empty_epoch_packs_to_nothing(self):
        empty = ResponseBlock.build(QUERY_ID, 0, [], num_proxies=2)
        assert pack_blocks([]) == pack_blocks([empty]) == []
        assert ResponseLog(QUERY_ID, pack_blocks([])) == []

    def test_a_log_over_blocks_reads_like_one_over_bytes(self):
        blocks = [make_block(f"c{i}", 2, (1, 1, 0)) for i in range(3)]
        assert ResponseLog(QUERY_ID, blocks) == ResponseLog(QUERY_ID, pack_blocks(blocks))

    def test_len_indexing_and_slicing_cross_blocks(self):
        first = [make_block(f"e0-{i}", 0, (1, 0, 0)) for i in range(3)]
        second = [make_block(f"e1-{i}", 1, (0, 1, 0)) for i in range(4)]
        log = ResponseLog(QUERY_ID, pack_blocks(first) + pack_blocks(second))
        everything = responses_of(first + second)
        assert len(log) == 7
        for index in range(-7, 7):
            assert_same_fields(log[index], everything[index])
        assert log[2:5] == everything[2:5]
        assert log[::-1] == everything[::-1]
        with pytest.raises(IndexError):
            log[7]
        with pytest.raises(IndexError):
            log[-8]

    def test_equality_with_sequences(self):
        blocks = [make_block(f"c{i}", 0, (0, 1)) for i in range(3)]
        responses = responses_of(blocks)
        log = ResponseLog(QUERY_ID, pack_blocks(blocks))
        assert log == responses and log == tuple(responses)
        assert log != responses[:2] and log != []
        assert ResponseLog(QUERY_ID, []) == []
        assert log != "not a log"

    def test_the_digest_is_the_same_over_both_forms(self):
        blocks = [make_block(f"c{i}", i % 2, (0, 1, 1)) for i in range(6)]
        packed = ResponseLog(QUERY_ID, pack_blocks(blocks))
        assert digest_of(packed) == digest_of(responses_of(blocks))


def build_system(num_queries: int) -> tuple[PrivApproxSystem, list[str]]:
    system = PrivApproxSystem(SystemConfig(num_clients=20, seed=31))
    rng = random.Random(31)
    system.provision_clients(
        [("value", "REAL")], lambda i: [{"value": rng.uniform(0.0, 8.0)}]
    )
    analyst = Analyst("response-log")
    query_ids = []
    for index in range(num_queries):
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(
                buckets=RangeBuckets.uniform(0.0, 8.0, 3 + 5 * index, open_ended=True),
                value_column="value",
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        system.submit_query(
            analyst,
            query,
            QueryBudget(),
            parameters=ExecutionParameters(sampling_fraction=0.7, p=0.9, q=0.5),
        )
        query_ids.append(query.query_id)
    return system, query_ids


class TestSystemLog:
    def test_the_log_rebuilds_every_logged_response(self, monkeypatch):
        """Capture each epoch's responses as the executor produced them and
        compare the packed log against them field for field."""
        produced: dict[str, list] = {}
        finish = PrivApproxSystem._finish_query_epoch

        def capture(self, query_id, epoch, outcome):
            produced.setdefault(query_id, []).extend(outcome.responses)
            return finish(self, query_id, epoch, outcome)

        monkeypatch.setattr(PrivApproxSystem, "_finish_query_epoch", capture)
        system, query_ids = build_system(num_queries=2)
        # Epoch 1 has no participants at all; epoch 2 only some.
        for epoch, active in enumerate([range(20), [], range(0, 20, 3), range(20)]):
            system.set_active_clients(list(active))
            system.run_epoch_all(epoch)
        system.close()
        for query_id in query_ids:
            log = system.responses_log(query_id)
            assert len(log) == len(produced[query_id]) > 0
            assert {response.epoch for response in log} == {0, 2, 3}
            for rebuilt, original in zip(log, produced[query_id], strict=True):
                assert_same_fields(rebuilt, original)
            assert digest_of(log) == digest_of(produced[query_id])

    def test_a_query_with_zero_participants_logs_nothing(self):
        system, (kept, silent) = build_system(num_queries=2)
        system.set_active_clients([], query_ids=[silent])
        for epoch in range(3):
            system.run_epoch_all(epoch)
        system.close()
        assert system.responses_log(silent) == []
        assert len(system.responses_log(silent)) == 0
        assert len(system.responses_log(kept)) > 0
        assert system.responses_log("no-such-query") == []

    def test_a_log_is_a_snapshot(self):
        system, (query_id,) = build_system(num_queries=1)
        system.run_epoch(query_id, 0)
        before = system.responses_log(query_id)
        system.run_epoch(query_id, 1)
        after = system.responses_log(query_id)
        system.close()
        assert len(before) < len(after)
        assert after[: len(before)] == before
