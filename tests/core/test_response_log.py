"""The packed response log rebuilds exactly the blocks it was given, and the
run digest reads them as columns."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

import repro.core
from repro.core import (
    Analyst,
    AnswerSpec,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RangeBuckets,
    SystemConfig,
)
from repro.core.client import Client, ClientConfig, ResponseBlock, pack_blocks
from repro.core.encryption import AnswerCodec
from repro.core.query import Query
from repro.crypto.prng import KeystreamGenerator
from repro.runtime.scenario import _digest_update_responses, run_scenario, scenario_grid
from tests.conftest import forge_block, logged_rows, reference_digest

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


def from_entries(entries) -> list[ResponseBlock]:
    return [ResponseBlock.from_bytes(entry, QUERY_ID) for entry in entries]


def digest_of(blocks) -> str:
    digest = hashlib.sha256()
    _digest_update_responses(digest, blocks)
    return digest.hexdigest()


class TestPacking:
    def test_one_block_per_uniform_run(self):
        blocks = [make_block(f"c{i}", 3, (0, 1, 0, 0)) for i in range(5)]
        (entry,) = pack_blocks(blocks)
        assert isinstance(entry, bytes)
        assert list(logged_rows(from_entries([entry]))) == list(logged_rows(blocks))

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
        rows = list(logged_rows(from_entries(entries)))
        assert [row[0] for row in rows] == ["a", "b", "wide", "c", "three-way"]
        assert rows == list(logged_rows(blocks))

    def test_an_empty_epoch_packs_to_nothing(self):
        empty = ResponseBlock.build(QUERY_ID, 0, [], num_proxies=2)
        assert pack_blocks([]) == pack_blocks([empty]) == []

    def test_the_digest_is_the_same_over_both_forms(self):
        blocks = [make_block(f"c{i}", i % 2, (0, 1, 1)) for i in range(6)]
        assert digest_of(from_entries(pack_blocks(blocks))) == digest_of(blocks)


def forged_block(num_bits: int, client_ids, epoch: int = 5) -> ResponseBlock:
    """One row of random ``num_bits``-bit answers per client id."""
    rng = random.Random(num_bits * 1000 + len(client_ids))
    forged = []
    for client_id in client_ids:
        truthful = tuple(rng.getrandbits(1) for _ in range(num_bits))
        randomized = tuple(rng.getrandbits(1) for _ in range(num_bits))
        message = AnswerCodec().encode_message(QUERY_ID, epoch, b"t" * 32, randomized)
        key = bytes(rng.getrandbits(8) for _ in message)
        forged.append((client_id, truthful, randomized, message, (key,)))
    return forge_block(QUERY_ID, epoch, forged)


class TestColumnDigest:
    """The run digest reads each block's columns once, and feeds the hash
    exactly the stream a per-row, per-field reference feeds it."""

    @pytest.mark.parametrize("num_bits", [1, 3, 8, 16, 129])
    def test_forged_blocks_of_any_width(self, num_bits):
        blocks = [
            forged_block(num_bits, [f"f{num_bits}-{row}" for row in range(rows)])
            for rows in (1, 3, 17)
        ]
        assert digest_of(blocks) == reference_digest(blocks)
        assert digest_of(from_entries(pack_blocks(blocks))) == reference_digest(blocks)

    def test_non_ascii_client_ids(self):
        block = forged_block(5, ["é", "клиент", "客户-7", "\U0001f512"])
        assert digest_of([block]) == reference_digest([block])
        assert digest_of(from_entries(pack_blocks([block]))) == reference_digest([block])

    def test_an_epoch_of_two_widths_is_two_entries(self):
        blocks = [forged_block(4, ["a", "b", "c"], epoch=2), forged_block(12, ["d", "e"], epoch=2)]
        entries = pack_blocks(blocks)
        assert len(entries) == 2
        assert digest_of(from_entries(entries)) == reference_digest(blocks)

    def test_an_empty_log_hashes_nothing(self):
        system, (query_id,) = build_system(num_queries=1)
        system.close()
        nothing = hashlib.sha256().hexdigest()
        assert digest_of(system.responses_log(query_id)) == nothing == reference_digest([])
        assert digest_of(system.responses_log("no-such-query")) == nothing

    @pytest.mark.parametrize("spec", scenario_grid("smoke"), ids=lambda spec: spec.name)
    def test_every_smoke_scenario_log(self, spec, monkeypatch):
        systems = []

        class RecordingSystem(PrivApproxSystem):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                systems.append(self)

        monkeypatch.setattr(repro.core, "PrivApproxSystem", RecordingSystem)
        run_scenario(spec)
        (system,) = systems
        for query_id in system.query_ids():
            assert sum(len(block) for block in system.responses_log(query_id)) > 0
            assert digest_of(system.responses_log(query_id)) == reference_digest(
                system.responses_log(query_id)
            )


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
        truthful_rows = rebuilt.bit_rows(rebuilt.truthful_bits)
        randomized_rows = rebuilt.bit_rows(rebuilt.randomized_bits)
        for row, bucket in enumerate(buckets):
            one_hot = [int(bit == bucket) for bit in range(num_bits)]
            packed_row = slice(row * stride, (row + 1) * stride)
            assert block.truthful_bits[packed_row] == AnswerCodec._pack_bits_scalar(one_hot)
            assert list(truthful_rows[row]) == one_hot == AnswerCodec._unpack_bits_scalar(
                block.truthful_bits[packed_row], num_bits
            )
            assert list(randomized_rows[row]) == AnswerCodec._unpack_bits_scalar(
                block.randomized_bits[packed_row], num_bits
            )
            # The message carries exactly the column's packed row.
            assert codec.decrypt(rebuilt.shares(row)).bits == tuple(randomized_rows[row])

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
        flipped_block = dataclasses.replace(block, randomized_bits=flipped)
        assert flipped_block.bit_rows(flipped)[0][-1]

    def test_unpacked_columns_are_refused(self):
        """A column at one byte per bit (the layout before packing) is the
        wrong length for its rows."""
        block, _ = built_block(13)
        unpacked = b"".join(block.bit_rows(block.randomized_bits))
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
        assert len(stored) == sum(map(len, system.responses_log(query.query_id))) > 0
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
    def test_the_log_rebuilds_every_logged_block(self, monkeypatch):
        """Capture each epoch's blocks as the executor produced them and
        compare the packed log against them row for row."""
        produced: dict[str, list] = {}
        finish = PrivApproxSystem._finish_query_epoch

        def capture(self, query_id, epoch, outcome):
            produced.setdefault(query_id, []).extend(outcome.blocks)
            return finish(self, query_id, epoch, outcome)

        monkeypatch.setattr(PrivApproxSystem, "_finish_query_epoch", capture)
        system, query_ids = build_system(num_queries=2)
        # Epoch 1 has no participants at all; epoch 2 only some.
        for epoch, active in enumerate([range(20), [], range(0, 20, 3), range(20)]):
            system.set_active_clients(list(active))
            system.run_epoch_all(epoch)
        system.close()
        for query_id in query_ids:
            log = list(system.responses_log(query_id))
            assert {block.epoch for block in log} == {0, 2, 3}
            rows = list(logged_rows(log))
            assert rows == list(logged_rows(produced[query_id]))
            assert len(rows) > 0
            assert digest_of(log) == digest_of(produced[query_id])

    def test_a_query_with_zero_participants_logs_nothing(self):
        system, (kept, silent) = build_system(num_queries=2)
        system.set_active_clients([], query_ids=[silent])
        for epoch in range(3):
            system.run_epoch_all(epoch)
        system.close()
        assert list(system.responses_log(silent)) == []
        assert sum(map(len, system.responses_log(kept))) > 0
        assert list(system.responses_log("no-such-query")) == []

    def test_a_log_is_a_snapshot(self):
        """A log handed out before an epoch runs does not see it, even when
        it is read after."""
        system, (query_id,) = build_system(num_queries=1)
        system.run_epoch(query_id, 0)
        before = system.responses_log(query_id)
        system.run_epoch(query_id, 1)
        after = list(system.responses_log(query_id))
        system.close()
        before = list(before)
        assert {block.epoch for block in before} == {0}
        assert {block.epoch for block in after} == {0, 1}
        assert list(logged_rows(after[: len(before)])) == list(logged_rows(before))
