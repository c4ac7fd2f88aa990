"""The wire format: framed resident frames and client state snapshots.

The pinned workers are only correct if (a) a client restored from its
snapshot answers every epoch exactly as the original and (b) the
framing rejects foreign, truncated or version-drifted bytes instead of
feeding garbage to a worker.  Both properties are pinned here, independently
of any executor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import socket
import struct
import threading

import pytest

from repro.core import (
    Analyst,
    AnswerSpec,
    ExecutionParameters,
    RangeBuckets,
)
from repro.core.client import Client, ClientConfig, ResponseBlock
from repro.runtime import (
    ClientDelta,
    ShardAck,
    ShardBootstrap,
    ShardDelta,
    WireError,
    answer_shard,
    decode_frame,
    decode_shard_ack,
    decode_shard_bootstrap,
    decode_shard_delta,
    encode_shard_ack,
    encode_shard_bootstrap,
    encode_shard_delta,
)
from repro.runtime.affinity import ResidentShardCache, serve_resident_frame
from repro.runtime.remote import (
    _HELLO_FORMAT,
    DIRECTION_WORKER,
    HELLO_MAGIC,
    RemoteProtocolError,
    _hello_mac,
    _recv_exact,
    initiate_session,
)
from repro.runtime.wire import WIRE_VERSION
from tests.conftest import answer_one, logged_rows

PARAMS = ExecutionParameters(sampling_fraction=0.8, p=0.9, q=0.5)


def make_query():
    return Analyst("wire").create_query(
        "SELECT value FROM private_data",
        AnswerSpec(
            buckets=RangeBuckets.uniform(0.0, 8.0, 4, open_ended=True),
            value_column="value",
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )


def make_client(seed: int = 4242) -> Client:
    client = Client(ClientConfig(client_id=f"wire-{seed}", num_proxies=2, seed=seed))
    client.create_table([("value", "REAL")])
    client.ingest([{"value": 3.5}, {"value": 6.25}])
    client.subscribe(make_query(), PARAMS)
    return client


def block_of(clients: list[Client], epoch: int) -> ResponseBlock:
    """The clients' answers to their first query at ``epoch``, as one block."""
    query_id = clients[0].subscribed_query_ids[0]
    (block,) = answer_shard(clients, [query_id], epoch)
    return block


class TestClientSnapshot:
    def test_restored_client_continues_identically(self):
        """Answer → snapshot → answer must equal answer → answer."""
        reference = make_client()
        traveller = make_client()
        query_id = reference.subscribed_query_ids[0]
        # Epoch 0 on both, identically seeded.
        ref0 = answer_one(reference, query_id, epoch=0)
        trav0 = answer_one(traveller, query_id, epoch=0)
        assert (ref0 is None) == (trav0 is None)
        # Round-trip the traveller through its snapshot (as a bootstrap does).
        traveller = Client.from_state(pickle.loads(pickle.dumps(traveller.export_state())))
        for epoch in (1, 2, 3):
            ref = answer_one(reference, query_id, epoch=epoch)
            trav = answer_one(traveller, query_id, epoch=epoch)
            if ref is None:
                assert trav is None
                continue
            assert trav is not None
            assert trav.truthful_bits == ref.truthful_bits
            assert trav.randomized_bits == ref.randomized_bits
            assert trav.payloads == ref.payloads

    def test_snapshot_preserves_local_data_and_subscriptions(self):
        client = make_client()
        restored = Client.from_state(client.export_state())
        assert restored.local_row_count() == client.local_row_count()
        assert restored.subscribed_query_ids == client.subscribed_query_ids
        assert restored.config == client.config


def retired_kind_frame(kind: int) -> bytes:
    """A well-formed v3 header stamped with a retired snapshot-shipping kind
    (1 = the parent → worker task, 2 = the worker → parent batch) over a
    payload that would unpickle fine."""
    payload = pickle.dumps({"client_states": ()})
    return struct.pack(">4sBBI", b"PAWF", WIRE_VERSION, kind, len(payload)) + payload


class TestFraming:
    def make_bootstrap(self) -> ShardBootstrap:
        client = make_client()
        return ShardBootstrap(
            shard_index=3,
            epoch=7,
            query_ids=(client.subscribed_query_ids[0],),
            client_states=(client.export_state(),),
        )

    def make_ack(self) -> ShardAck:
        return ShardAck(
            shard_index=1,
            epoch=5,
            wall_seconds=0.25,
            responses=(block_of([make_client(seed=seed) for seed in range(6)], epoch=5),),
        )

    @pytest.mark.parametrize("kind", [1, 2])
    def test_retired_snapshot_kinds_are_unknown(self, kind):
        """Kinds 1 and 2 are rejected at the header like any unknown kind:
        the payload behind them is never unpickled."""
        with pytest.raises(WireError, match=f"unknown frame kind {kind}") as excinfo:
            decode_frame(retired_kind_frame(kind))
        assert excinfo.value.kind is None and excinfo.value.offset == 5

    def test_rejects_truncated_frames(self):
        blob = encode_shard_bootstrap(self.make_bootstrap())
        with pytest.raises(WireError, match="too short"):
            decode_shard_bootstrap(blob[:4])
        with pytest.raises(WireError, match="payload bytes"):
            decode_shard_bootstrap(blob[:-3])

    def test_rejects_foreign_magic_and_version(self):
        blob = encode_shard_bootstrap(self.make_bootstrap())
        with pytest.raises(WireError, match="magic"):
            decode_shard_bootstrap(b"XXXX" + blob[4:])
        with pytest.raises(WireError, match="version"):
            decode_shard_bootstrap(blob[:4] + bytes([99]) + blob[5:])

    def test_rejects_kind_mismatch(self):
        bootstrap_blob = encode_shard_bootstrap(self.make_bootstrap())
        with pytest.raises(WireError, match="kind"):
            decode_shard_ack(bootstrap_blob)

    def test_unpicklable_state_raises_wire_error(self):
        bootstrap = ShardBootstrap(
            shard_index=0,
            epoch=0,
            query_ids=("q",),
            client_states=(lambda: None,),  # lambdas cannot pickle
        )
        with pytest.raises(WireError, match="serialize"):
            encode_shard_bootstrap(bootstrap)

    def test_garbage_payload_raises_wire_error(self):
        blob = encode_shard_bootstrap(self.make_bootstrap())
        header = blob[:10]
        corrupted = header[:6] + len(b"junk!").to_bytes(4, "big") + b"junk!"
        with pytest.raises(WireError, match="deserialize"):
            decode_shard_bootstrap(corrupted)


def make_resident_client(seed: int = 99) -> Client:
    client = make_client(seed=seed)
    answer_one(client, client.subscribed_query_ids[0], epoch=0)
    return client


# Any 32-byte continuity token (the SHA-256 of some frame).
TOKEN = hashlib.sha256(b"some frame").digest()


class TestWireV3Framing:
    """Round trips and rejection behavior of the worker-resident frames."""

    def make_bootstrap(self) -> ShardBootstrap:
        client = make_resident_client()
        return ShardBootstrap(
            shard_index=2,
            epoch=4,
            query_ids=(client.subscribed_query_ids[0],),
            client_states=(client.export_state(),),
        )

    def make_delta(self) -> ShardDelta:
        client = make_resident_client()
        query, params = client.subscriptions[client.subscribed_query_ids[0]]
        return ShardDelta(
            shard_index=2,
            epoch=5,
            query_ids=(query.query_id,),
            deltas=(
                ClientDelta(
                    subscribe=((query, params),),
                    unsubscribe=("gone-query",),
                    append_rows=(("private_data", (("value", "REAL"),), ((1.5,),)),),
                ),
                None,
            ),
            expected_fingerprint=TOKEN,
        )

    def make_ack(self) -> ShardAck:
        clients = [make_resident_client(seed=seed) for seed in range(4)]
        return ShardAck(
            shard_index=2,
            epoch=5,
            wall_seconds=0.125,
            responses=(block_of(clients, epoch=5),),
            fingerprint=TOKEN,
        )

    def test_bootstrap_round_trip(self):
        bootstrap = self.make_bootstrap()
        decoded = decode_shard_bootstrap(encode_shard_bootstrap(bootstrap))
        assert decoded.shard_index == bootstrap.shard_index
        assert decoded.epoch == bootstrap.epoch
        assert decoded.query_ids == bootstrap.query_ids
        assert len(decoded.client_states) == 1
        restored = Client.from_state(decoded.client_states[0])
        assert restored.export_state() == bootstrap.client_states[0]

    def test_delta_round_trip(self):
        delta = self.make_delta()
        decoded = decode_shard_delta(encode_shard_delta(delta))
        assert decoded.expected_fingerprint == delta.expected_fingerprint
        assert decoded.deltas[1] is None
        assert decoded.deltas[0].unsubscribe == ("gone-query",)
        assert decoded.deltas[0].append_rows == delta.deltas[0].append_rows
        assert decoded.deltas[0].subscribe == delta.deltas[0].subscribe

    def test_ack_round_trip(self):
        ack = self.make_ack()
        decoded = decode_shard_ack(encode_shard_ack(ack))
        assert decoded.fingerprint == ack.fingerprint
        assert decoded.responses == ack.responses
        assert decoded.bootstrap_required is False
        assert decoded.error is None

    def test_decode_frame_dispatches_on_kind(self):
        bootstrap_blob = encode_shard_bootstrap(self.make_bootstrap())
        delta_blob = encode_shard_delta(self.make_delta())
        ack_blob = encode_shard_ack(self.make_ack())
        assert isinstance(decode_frame(bootstrap_blob), ShardBootstrap)
        assert isinstance(decode_frame(delta_blob), ShardDelta)
        assert isinstance(decode_frame(ack_blob), ShardAck)

    def test_kind_mismatch_rejected(self):
        delta_blob = encode_shard_delta(self.make_delta())
        with pytest.raises(WireError, match="kind"):
            decode_shard_bootstrap(delta_blob)
        with pytest.raises(WireError, match="kind"):
            decode_shard_ack(delta_blob)

    def test_truncated_and_garbage_frames_raise_not_hang(self):
        blob = encode_shard_delta(self.make_delta())
        with pytest.raises(WireError, match="too short"):
            decode_shard_delta(blob[:3])
        with pytest.raises(WireError, match="payload bytes"):
            decode_shard_delta(blob[:-5])
        header = blob[:6] + len(b"junk!").to_bytes(4, "big") + b"junk!"
        with pytest.raises(WireError, match="deserialize"):
            decode_shard_delta(header)
        with pytest.raises(WireError, match="magic"):
            decode_frame(b"NOPE" + blob[4:])


class TestVersionNegotiation:
    """Frames are emitted at v5 and every kind is accepted at v5 only."""

    def make_bootstrap_blob(self) -> bytes:
        client = make_client()
        return encode_shard_bootstrap(
            ShardBootstrap(
                shard_index=0,
                epoch=0,
                query_ids=(client.subscribed_query_ids[0],),
                client_states=(client.export_state(),),
            )
        )

    def test_frames_are_emitted_at_version_5(self):
        blob = self.make_bootstrap_blob()
        assert blob[4] == WIRE_VERSION == 5

    def test_version_4_frames_are_rejected(self):
        """A v4 ack's blocks held one byte per answer bit: a v4-stamped ack or
        bootstrap is a WireError naming the version, before anything unpickles."""
        block = block_of([make_client(seed=seed) for seed in range(4)], epoch=2)
        ack_blob = encode_shard_ack(ShardAck(shard_index=0, epoch=2, responses=(block,)))
        for blob, decode in (
            (ack_blob, decode_shard_ack),
            (ack_blob, decode_frame),
            (self.make_bootstrap_blob(), decode_frame),
        ):
            with pytest.raises(WireError, match="version 4") as excinfo:
                decode(blob[:4] + bytes([4]) + blob[5:])
            assert excinfo.value.offset == 4

    def test_version_2_frames_are_rejected(self):
        """No sender stamps v2: a v2-stamped bootstrap or ack is a WireError
        naming the version, on every decode entry point."""
        bootstrap_blob = self.make_bootstrap_blob()
        ack_blob = encode_shard_ack(ShardAck(shard_index=0, epoch=0))
        for blob, decode in (
            (bootstrap_blob, decode_shard_bootstrap),
            (ack_blob, decode_shard_ack),
            (bootstrap_blob, decode_frame),
            (ack_blob, decode_frame),
        ):
            downgraded = blob[:4] + bytes([2]) + blob[5:]
            with pytest.raises(WireError, match="version 2") as excinfo:
                decode(downgraded)
            assert excinfo.value.offset == 4  # points at the version byte

    def test_version_1_frames_are_rejected(self):
        blob = self.make_bootstrap_blob()
        ancient = blob[:4] + bytes([1]) + blob[5:]
        with pytest.raises(WireError, match="version 1"):
            decode_shard_bootstrap(ancient)

    def test_future_versions_are_rejected(self):
        blob = self.make_bootstrap_blob()
        future = blob[:4] + bytes([9]) + blob[5:]
        with pytest.raises(WireError, match="version 9"):
            decode_shard_bootstrap(future)

    def test_resident_kinds_require_version_3(self):
        client = make_resident_client()
        blob = encode_shard_delta(
            ShardDelta(
                shard_index=0,
                epoch=0,
                query_ids=(),
                deltas=(),
                expected_fingerprint=TOKEN,
            )
        )
        downgraded = blob[:4] + bytes([2]) + blob[5:]
        with pytest.raises(WireError, match="version 2"):
            decode_shard_delta(downgraded)

    @pytest.mark.parametrize("kind", [1, 2, 77])
    def test_unknown_kind_rejected(self, kind):
        """Retired kinds (1, 2) and never-assigned ones fail alike, on the
        dispatching decoder and on every kind-specific one."""
        blob = self.make_bootstrap_blob()
        mutated = blob[:5] + bytes([kind]) + blob[6:]
        for decode in (decode_frame, decode_shard_bootstrap, decode_shard_ack):
            with pytest.raises(WireError, match=f"unknown frame kind {kind}"):
                decode(mutated)


def unchecked(block: ResponseBlock, **changes) -> ResponseBlock:
    """A copy of ``block`` with ``changes`` applied behind the shape check,
    the way a forged or corrupted ack would carry it."""
    forged = object.__new__(ResponseBlock)
    for field in dataclasses.fields(ResponseBlock):
        object.__setattr__(forged, field.name, changes.get(field.name, getattr(block, field.name)))
    return forged


class TestShapeCheckedBlocks:
    """A block's columns must fit its rows when it is built and when it is
    unpickled, so a bad ack is a WireError before the engine ever sees it."""

    def block(self) -> ResponseBlock:
        block = block_of([make_client(seed=seed) for seed in range(6)], epoch=3)
        assert len(block) >= 2
        return block

    def ack_with(self, block: ResponseBlock) -> bytes:
        return encode_shard_ack(ShardAck(shard_index=0, epoch=3, responses=(block,)))

    def test_a_good_block_round_trips(self):
        block = self.block()
        (decoded,) = decode_shard_ack(self.ack_with(block)).responses
        assert decoded == block

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda b: {"payloads": (b.payloads[0][:-1], *b.payloads[1:])},
                         id="truncated-payload-column"),
            pytest.param(lambda b: {"client_ids": b.client_ids + ("extra",)},
                         id="ids-outnumber-rows"),
            pytest.param(lambda b: {"payloads": b.payloads[:1]}, id="one-payload-column"),
            pytest.param(lambda b: {"message_ids": b.message_ids[:-16]}, id="short-mid-column"),
            pytest.param(lambda b: {"randomized_bits": b.randomized_bits + b"\x01"},
                         id="long-bit-column"),
            pytest.param(lambda b: {"randomized_bits": b.randomized_bits[:-1]},
                         id="short-bit-column"),
            pytest.param(lambda b: {"randomized_bits": b.randomized_bits[:-1]
                                    + bytes([b.randomized_bits[-1] | 1])},
                         id="randomized-pad-bit-set"),
            pytest.param(lambda b: {"truthful_bits": bytes([b.truthful_bits[0] | 1])
                                    + b.truthful_bits[1:]},
                         id="truthful-pad-bit-set"),
        ],
    )
    def test_a_misshapen_block_is_a_wire_error(self, corrupt):
        block = self.block()
        with pytest.raises(ValueError, match="malformed response block"):
            ResponseBlock(**{**dataclasses.asdict(block), **corrupt(block)})
        with pytest.raises(WireError, match="malformed response block"):
            decode_shard_ack(self.ack_with(unchecked(block, **corrupt(block))))

    def test_responses_must_be_blocks(self):
        blob = encode_shard_ack(ShardAck(shard_index=0, epoch=3, responses=(("not", "a block"),)))
        with pytest.raises(WireError, match="one ResponseBlock per query"):
            decode_shard_ack(blob)

    @staticmethod
    def assert_refused_at_hello(peer_version: int) -> None:
        """A worker answering the handshake at ``peer_version`` is refused
        before any frame is exchanged."""
        key = bytes.fromhex("ab" * 32)
        coordinator_sock, worker_sock = socket.socketpair()
        coordinator_sock.settimeout(5.0)
        worker_sock.settimeout(5.0)

        def old_worker():
            hello = _recv_exact(worker_sock, struct.calcsize(_HELLO_FORMAT) + 32)
            coordinator_nonce = struct.unpack(_HELLO_FORMAT, hello[:-32])[3]
            reply = struct.pack(
                _HELLO_FORMAT, HELLO_MAGIC, DIRECTION_WORKER, peer_version, b"n" * 16
            )
            worker_sock.sendall(reply + _hello_mac(key, reply, coordinator_nonce))

        thread = threading.Thread(target=old_worker, daemon=True)
        thread.start()
        try:
            with pytest.raises(
                RemoteProtocolError, match=f"version {peer_version} .*requires >= 5"
            ):
                initiate_session(coordinator_sock, key)
        finally:
            thread.join(timeout=5.0)
            coordinator_sock.close()
            worker_sock.close()

    def test_a_v3_peer_is_refused_at_hello(self):
        """A v3 worker would ack with per-answer tuples."""
        self.assert_refused_at_hello(3)

    def test_a_v4_peer_is_refused_at_hello(self):
        """A v4 worker would ack blocks with one byte per answer bit."""
        self.assert_refused_at_hello(4)


class TestSnapshotContents:
    """A snapshot is the config, the PRF key, the tables and the
    subscriptions: no RNG or keystream state, nothing answering changes."""

    def test_full_export_still_rebuilds_a_client(self):
        client = make_resident_client(3)
        state = client.export_state()
        assert set(state) == {"config", "key", "tables", "subscriptions"}
        assert len(state["key"]) == 32
        restored = Client.from_state(pickle.loads(pickle.dumps(state)))
        assert restored.export_state() == state

    def test_answering_leaves_the_snapshot_unchanged(self):
        client = make_resident_client(3)
        before = pickle.dumps(client.export_state())
        for epoch in range(1, 6):
            client.answer(client.subscribed_query_ids, epoch=epoch)
            answer_shard(
                [client], client.subscribed_query_ids, epoch,
                late=frozenset({client.config.client_id}),
            )
        assert pickle.dumps(client.export_state()) == before

    def test_unseeded_clients_draw_a_random_key(self):
        a = Client(ClientConfig(client_id="a", seed=None))
        b = Client(ClientConfig(client_id="a", seed=None))
        assert a.export_state()["key"] != b.export_state()["key"]
        assert Client.from_state(a.export_state()).export_state() == a.export_state()


class TestResidentWorkerCache:
    """serve_resident_frame against a cache: ack size and the continuity token."""

    COLUMNS = (("value", "REAL"),)

    def bootstrap(self, cache, rows_per_client: int = 2, num_clients: int = 3):
        clients = []
        for index in range(num_clients):
            client = make_client(seed=500 + index)
            client.ingest([{"value": 6.25}] * (rows_per_client - 2))
            clients.append(client)
        query_id = clients[0].subscribed_query_ids[0]
        frame = encode_shard_bootstrap(
            ShardBootstrap(
                shard_index=0,
                epoch=0,
                query_ids=(query_id,),
                client_states=tuple(client.export_state() for client in clients),
            )
        )
        ack = decode_shard_ack(serve_resident_frame(cache, frame))
        assert ack.error is None
        # The token is defined over the bytes served, nothing else.
        assert ack.fingerprint == hashlib.sha256(frame).digest()
        return query_id, ack.fingerprint

    def delta(self, query_id, fingerprint, *, deltas=(None,) * 3, epoch=1):
        return encode_shard_delta(
            ShardDelta(
                shard_index=0,
                epoch=epoch,
                query_ids=(query_id,),
                deltas=deltas,
                expected_fingerprint=fingerprint,
            )
        )

    def test_ack_size_is_independent_of_stream_length(self):
        sizes = []
        for rows_per_client in (16, 1600):
            cache = ResidentShardCache()
            query_id, fingerprint = self.bootstrap(cache, rows_per_client)
            blob = serve_resident_frame(cache, self.delta(query_id, fingerprint))
            assert decode_shard_ack(blob).error is None
            sizes.append(len(blob))
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("appended", [False, True])
    def test_parent_copy_answers_like_the_worker(self, appended):
        """The coordinator's copies are never advanced or replayed: after the
        worker served epochs 0-3, they answer epoch 4 exactly as it does."""
        parents = [make_client(seed=500 + index) for index in range(3)]
        cache = ResidentShardCache()
        query_id, token = self.bootstrap(cache)
        rows = ClientDelta(append_rows=(("private_data", self.COLUMNS, ((7.5,),)),))
        for epoch in range(1, 5):
            deltas = (rows,) * 3 if appended else (None,) * 3
            if appended:
                for client in parents:
                    client.ingest([{"value": 7.5}])
            ack = decode_shard_ack(
                serve_resident_frame(cache, self.delta(query_id, token, deltas=deltas, epoch=epoch))
            )
            assert ack.error is None and not ack.bootstrap_required
            token = ack.fingerprint
        expected = [
            block
            for client in parents
            if (block := answer_one(client, query_id, epoch=4)) is not None
        ]
        (served,) = ack.responses
        assert list(logged_rows([served])) == list(logged_rows(expected))

    def test_no_ack_walks_the_clients(self, monkeypatch):
        """The per-client pass cannot return unnoticed: an ack is
        O(frame bytes) and never snapshots a client."""
        calls = []
        export_state = Client.export_state

        def counting_export(self):
            calls.append(self.config.client_id)
            return export_state(self)

        cache = ResidentShardCache()
        query_id, token = self.bootstrap(cache)
        monkeypatch.setattr(Client, "export_state", counting_export)
        ack = decode_shard_ack(serve_resident_frame(cache, self.delta(query_id, token)))
        assert ack.error is None and not ack.bootstrap_required
        ack = decode_shard_ack(
            serve_resident_frame(cache, self.delta(query_id, ack.fingerprint, epoch=2))
        )
        assert ack.error is None and not ack.bootstrap_required
        assert calls == []

    def test_duplicated_delta_is_refused_the_second_time(self):
        cache = ResidentShardCache()
        query_id, token = self.bootstrap(cache)
        frame = self.delta(query_id, token)
        first = decode_shard_ack(serve_resident_frame(cache, frame))
        assert not first.bootstrap_required and len(first.responses) == 1
        assert first.fingerprint == hashlib.sha256(frame).digest() != token
        # The second copy expects the token *before* the first was served.
        second = decode_shard_ack(serve_resident_frame(cache, frame))
        assert second.bootstrap_required and second.responses == ()
        assert second.fingerprint == b"" and len(cache) == 0

    def test_clients_without_a_remembered_token_are_not_served(self):
        """Nothing re-derives a token: residency without one is a miss."""
        cache = ResidentShardCache()
        query_id, token = self.bootstrap(cache)
        cache.install(0, cache._clients[0])  # clients kept, token dropped
        ack = decode_shard_ack(serve_resident_frame(cache, self.delta(query_id, token)))
        assert ack.bootstrap_required and len(cache) == 0
        # invalidate forgets the token with the clients ...
        query_id, token = self.bootstrap(cache)
        cache.invalidate(0)
        assert cache.lookup(0, token) is None
        # ... and so does a worker-side exception mid-delta.
        query_id, token = self.bootstrap(cache)
        broken = self.delta(query_id, token, deltas=("not a delta",) * 3)
        ack = decode_shard_ack(serve_resident_frame(cache, broken))
        assert ack.error is not None and ack.error[0] == "AttributeError"
        assert ack.fingerprint == b"" and len(cache) == 0
        assert cache.lookup(0, token) is None


class TestClientDeltaApply:
    def test_append_rows_and_resubscribe(self):
        client = make_resident_client(11)
        query, params = client.subscriptions[client.subscribed_query_ids[0]]
        retuned = ExecutionParameters(sampling_fraction=0.5, p=0.8, q=0.4)
        delta = ClientDelta(
            subscribe=((query, retuned),),
            append_rows=(
                ("private_data", (("value", "REAL"),), ((7.5,), (2.25,))),
                ("side_channel", (("reading", "REAL"),), ((1.0,),)),
            ),
        )
        rows_before = client.local_row_count()
        client.apply_delta(delta)
        assert client.local_row_count() == rows_before + 2
        assert client.local_row_count("side_channel") == 1
        assert client.subscriptions[query.query_id][1] == retuned

    def test_unsubscribe(self):
        client = make_resident_client(11)
        query_id = client.subscribed_query_ids[0]
        client.apply_delta(ClientDelta(unsubscribe=(query_id,)))
        assert client.subscribed_query_ids == []
