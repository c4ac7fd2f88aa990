"""The packed response log rebuilds exactly the responses it was given."""

from __future__ import annotations

import dataclasses
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
from repro.core.client import Client, ClientConfig, ResponseBlock, ResponseLog, pack_blocks
from repro.core.encryption import AnswerCodec
from repro.core.query import Query
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


#: Bit widths around every byte boundary a row can have, and two wide ones.
BIT_WIDTHS = [1, 7, 8, 9, 13, 128, 192]


def built_block(num_bits: int, num_clients: int = 5, epoch: int = 4):
    """A block built by clients answering a ``num_bits``-bucket query, with
    each row's bucket (the last client has no rows: bucket ``None``)."""
    query = Query(
        query_id=QUERY_ID,
        sql="SELECT value FROM private_data",
        answer_spec=AnswerSpec(buckets=RangeBuckets.uniform(0.0, 1.0, num_bits)),
    )
    parameters = ExecutionParameters(sampling_fraction=1.0, p=0.5, q=0.5)
    answers, buckets = [], []
    for index in range(num_clients):
        client = Client(ClientConfig(client_id=f"c{index}", seed=index))
        client.create_table([("value", "REAL")])
        if index < num_clients - 1:
            client.ingest([{"value": (0.5 + 7 * index) % num_bits / num_bits}])
        client.subscribe(query, parameters)
        (entry,) = client.answer([QUERY_ID], epoch=epoch)
        answers.append((client, entry))
        buckets.append(entry[1])
    return ResponseBlock.build(QUERY_ID, epoch, answers, num_proxies=2), buckets


def set_pad_bit(column: bytes, stride: int, row: int) -> bytes:
    """``column`` with the lowest bit of row ``row``'s last byte set."""
    at = (row + 1) * stride - 1
    return column[:at] + bytes([column[at] | 1]) + column[at + 1 :]


class TestPackedColumns:
    """A block's bit columns are the codec's packed rows, one byte form each."""

    @pytest.mark.parametrize("num_bits", BIT_WIDTHS)
    def test_build_pack_and_read_back_agree_with_the_scalar_reference(self, num_bits):
        block, buckets = built_block(num_bits)
        stride = (num_bits + 7) // 8
        assert len(block.truthful_bits) == len(block.randomized_bits) == len(block) * stride
        (entry,) = pack_blocks([block])
        rebuilt = ResponseBlock.from_bytes(entry, QUERY_ID)
        assert rebuilt == block
        codec = AnswerCodec()
        for row, bucket in enumerate(buckets):
            one_hot = [int(bit == bucket) for bit in range(num_bits)]
            packed_row = slice(row * stride, (row + 1) * stride)
            assert block.truthful_bits[packed_row] == AnswerCodec._pack_bits_scalar(one_hot)
            response = rebuilt.response(row)
            assert list(response.truthful_bits) == one_hot == AnswerCodec._unpack_bits_scalar(
                block.truthful_bits[packed_row], num_bits
            )
            assert list(response.randomized_bits) == AnswerCodec._unpack_bits_scalar(
                block.randomized_bits[packed_row], num_bits
            )
            # The message carries exactly the column's packed row.
            assert codec.decrypt(list(response.encrypted.shares)).bits == tuple(
                response.randomized_bits
            )

    @pytest.mark.parametrize("num_bits", [1, 7, 9, 13])
    def test_a_set_pad_bit_is_refused_in_either_column_on_any_row(self, num_bits):
        block, _ = built_block(num_bits)
        stride = (num_bits + 7) // 8
        for column in ("truthful_bits", "randomized_bits"):
            for row in range(len(block)):
                forged = set_pad_bit(getattr(block, column), stride, row)
                with pytest.raises(ValueError, match="sets a pad bit"):
                    dataclasses.replace(block, **{column: forged})

    @pytest.mark.parametrize("num_bits", [8, 128, 192])
    def test_whole_byte_rows_have_no_pad_to_refuse(self, num_bits):
        block, _ = built_block(num_bits)
        stride = num_bits // 8
        flipped = set_pad_bit(block.randomized_bits, stride, 0)
        assert dataclasses.replace(block, randomized_bits=flipped).response(0).randomized_bits[-1]

    def test_unpacked_columns_are_refused(self):
        """A column at one byte per bit (the layout before packing) is the
        wrong length for its rows."""
        block, _ = built_block(13)
        unpacked = b"".join(
            block.bit_row(block.randomized_bits, row) for row in range(len(block))
        )
        with pytest.raises(ValueError, match="packed rows of 13 bits"):
            dataclasses.replace(block, randomized_bits=unpacked)

    def test_a_log_entry_is_exactly_the_packed_layout(self):
        """5 rows of 13 bits to the 5-byte query id ``q-log``, two shares:
        a 20-byte header, then per row 2 + 2 id bytes, a 16-byte MID, two
        2-byte bit rows and two 34-byte payloads (11 header + 5 query id +
        16 token + 2 bits)."""
        block, _ = built_block(13)
        assert block.width == 34
        (entry,) = pack_blocks([block])
        assert len(entry) == 20 + 5 * (2 + 2 + 16 + 2 * 2 + 2 * 34) == 480

    def test_the_historical_store_keeps_the_logs_randomized_bits(self):
        config = SystemConfig(num_clients=12, seed=23, keep_historical=True)
        system = PrivApproxSystem(config)
        rng = random.Random(23)
        system.provision_clients([("value", "REAL")], lambda i: [{"value": rng.uniform(0, 8)}])
        analyst = Analyst("historical-packed")
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(
                buckets=RangeBuckets.uniform(0.0, 8.0, 4, open_ended=True),
                value_column="value",
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        assert query.num_buckets == 5
        system.submit_query(
            analyst,
            query,
            QueryBudget(),
            parameters=ExecutionParameters(sampling_fraction=0.8, p=0.6, q=0.5),
        )
        system.run_epochs(query.query_id, 3)
        system.close()
        logged = []
        for entry in system._responses_log[query.query_id]:
            block = ResponseBlock.from_bytes(entry, query.query_id)
            # Five bits: one packed byte a row.
            logged.extend(
                (block.epoch, tuple(AnswerCodec._unpack_bits_scalar(bytes([packed]), 5)))
                for packed in block.randomized_bits
            )
        stored = system.historical_store.read_answers(query.query_id)
        assert len(stored) == len(system.responses_log(query.query_id)) > 0
        assert [(answer.epoch, answer.bits) for answer, _ in stored] == logged


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
