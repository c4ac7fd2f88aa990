"""The remote TCP transport: sealed envelopes, hostile bytes, recovery.

Two properties carry the whole module:

1. **Nothing unauthenticated reaches pickle.**  The wire-frame payloads are
   pickle, so every byte a worker decodes must first pass the envelope MAC.
   These tests throw truncated frames, tampered MACs, replayed envelopes,
   reflected directions, garbage handshakes and version-mismatched peers at
   both sides and assert each produces a clean rejection — never a hang,
   never a ``pickle.loads`` of attacker bytes.
2. **The transport changes nothing observable.**  A scenario run on remote
   workers must produce digests byte-identical to the serial reference, and
   a worker killed mid-run must recover through the same re-bootstrap path
   as a dead pinned process.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from types import SimpleNamespace

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
from repro.runtime import (
    RemoteProtocolError,
    RemoteWorkerServer,
    RemoteWorkerTransport,
    RemoteWorkerUnavailable,
    ResidentWorkerError,
    WireError,
    decode_frame,
    decode_shard_ack,
    load_keys,
    make_executor,
    parse_address,
    run_scenario,
    spawn_local_worker,
)
from repro.runtime.remote import (
    DIRECTION_COORDINATOR,
    DIRECTION_WORKER,
    HELLO_MAGIC,
    FrameChannel,
    MAX_FRAME_BYTES,
    _HELLO_FORMAT,
    _hello_mac,
    _recv_exact,
    accept_session,
    derive_session_key,
    initiate_session,
    keys_for_workers,
    seal_frame,
)
from repro.runtime.scenario import ScenarioSpec
from repro.runtime.wire import WIRE_VERSION
from tests.conftest import logged_rows

REMOTE_RESIDENT = "pinned-worker/sealed-tcp-remote"

KEY = bytes.fromhex("aa" * 32)
OTHER_KEY = bytes.fromhex("bb" * 32)
PARAMS = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.5)


def start_server(key: bytes = KEY, **kwargs) -> RemoteWorkerServer:
    server = RemoteWorkerServer("127.0.0.1", 0, key, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def address_of(server: RemoteWorkerServer) -> str:
    host, port = server.address
    return f"{host}:{port}"


def write_key_file(tmp_path, *keys: bytes, name: str = "workers.keys") -> str:
    path = tmp_path / name
    path.write_text(
        "# coordinator-side keys, one per worker\n"
        + "".join(key.hex() + "\n" for key in keys)
    )
    return str(path)


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached within timeout")


class TestAddressesAndKeys:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:7001") == ("127.0.0.1", 7001)
        assert parse_address("worker-3.internal:0") == ("worker-3.internal", 0)

    @pytest.mark.parametrize("bad", ["no-port", ":7001", "host:", "host:banana", "host:70000"])
    def test_parse_address_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_load_keys_skips_comments_and_blanks(self, tmp_path):
        path = write_key_file(tmp_path, KEY, OTHER_KEY)
        assert load_keys(path) == [KEY, OTHER_KEY]

    def test_load_keys_rejects_bad_hex(self, tmp_path):
        path = tmp_path / "bad.keys"
        path.write_text("not-hex-at-all\n")
        with pytest.raises(ValueError, match="not valid hex"):
            load_keys(str(path))

    def test_load_keys_rejects_short_keys(self, tmp_path):
        path = tmp_path / "short.keys"
        path.write_text("deadbeef\n")  # 4 bytes: a typo, not a key
        with pytest.raises(ValueError, match="at least 16"):
            load_keys(str(path))

    def test_load_keys_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.keys"
        path.write_text("# nothing but comments\n\n")
        with pytest.raises(ValueError, match="no keys"):
            load_keys(str(path))

    def test_keys_for_workers_shared_and_per_worker(self):
        assert keys_for_workers([KEY], 3) == [KEY, KEY, KEY]
        assert keys_for_workers([KEY, OTHER_KEY], 2) == [KEY, OTHER_KEY]
        with pytest.raises(ValueError, match="one key per worker"):
            keys_for_workers([KEY, OTHER_KEY], 3)


class TestSealedEnvelope:
    """Every envelope check, on the one receive path: a :class:`FrameChannel`
    reading what the other end of a ``socket.socketpair()`` wrote."""

    SESSION = derive_session_key(KEY, b"c" * 16, b"w" * 16)

    @pytest.fixture(autouse=True)
    def close_channels(self):
        self.channels = []
        yield
        for channel in self.channels:
            channel.close()

    def seal(self, frame: bytes = b"frame-bytes", sequence: int = 1) -> bytes:
        return seal_frame(self.SESSION, DIRECTION_COORDINATOR, sequence, frame)

    def receive(self, *envelopes, session=SESSION, direction=DIRECTION_COORDINATOR):
        """Write the envelopes, hang up, and return a worker-side channel
        reading them (the hang-up turns a short envelope into EOF, not a wait)."""
        writer, reader = socket.socketpair()
        writer.sendall(b"".join(bytes(envelope) for envelope in envelopes))
        writer.close()
        reader.settimeout(5.0)
        channel = FrameChannel(reader, session, DIRECTION_WORKER, direction)
        self.channels.append(channel)
        return channel

    def test_round_trip(self):
        writer, reader = socket.socketpair()
        sender = FrameChannel(writer, self.SESSION, DIRECTION_COORDINATOR, DIRECTION_WORKER)
        receiver = FrameChannel(reader, self.SESSION, DIRECTION_WORKER, DIRECTION_COORDINATOR)
        self.channels += [sender, receiver]
        sizes = [sender.send_frame(frame) for frame in (b"frame-bytes", b"", b"more")]
        assert [receiver.recv_frame() for _ in sizes] == [b"frame-bytes", b"", b"more"]
        assert receiver.bytes_received == sender.bytes_sent == sum(sizes)

    def test_tampered_payload_fails_the_mac(self):
        sealed = bytearray(self.seal())
        sealed[20] ^= 0x01  # one bit inside the frame bytes
        with pytest.raises(RemoteProtocolError, match="MAC"):
            self.receive(sealed).recv_frame()

    def test_tampered_mac_fails(self):
        sealed = bytearray(self.seal())
        sealed[-1] ^= 0x80
        with pytest.raises(RemoteProtocolError, match="MAC"):
            self.receive(sealed).recv_frame()

    def test_reflected_direction_rejected(self):
        """A frame echoed back verbatim must not verify in the other direction."""
        with pytest.raises(RemoteProtocolError, match="direction"):
            self.receive(self.seal(), direction=DIRECTION_WORKER).recv_frame()

    def test_replayed_sequence_rejected(self):
        sealed = self.seal(sequence=1)
        channel = self.receive(sealed, sealed)
        assert channel.recv_frame() == b"frame-bytes"
        with pytest.raises(RemoteProtocolError, match="sequence"):
            channel.recv_frame()

    def test_cross_session_replay_rejected(self):
        """Same pre-shared key, different handshake nonces → different MAC key."""
        other_session = derive_session_key(KEY, b"c" * 16, b"x" * 16)
        with pytest.raises(RemoteProtocolError, match="MAC"):
            self.receive(self.seal(), session=other_session).recv_frame()

    def test_truncated_envelope_rejected(self):
        sealed = self.seal()
        with pytest.raises(RemoteProtocolError, match="closed after 10 of 17"):
            self.receive(sealed[:10]).recv_frame()
        with pytest.raises(RemoteProtocolError, match="closed after 28 of 32"):
            self.receive(sealed[:-4]).recv_frame()

    def test_forged_length_hits_the_ceiling(self):
        """Refused off the header alone: no body bytes are sent or read."""
        header = bytearray(self.seal()[:17])
        struct.pack_into(">I", header, 13, MAX_FRAME_BYTES + 1)
        with pytest.raises(RemoteProtocolError, match="ceiling") as exc_info:
            self.receive(header).recv_frame()
        assert exc_info.value.declared_length == MAX_FRAME_BYTES + 1
        assert exc_info.value.offset == 9

    def test_errors_carry_stream_context(self):
        first = self.seal(b"first", sequence=1)
        second = bytearray(self.seal(b"second", sequence=2))
        second[20] ^= 0x01
        channel = self.receive(first, second)
        assert channel.recv_frame() == b"first"
        with pytest.raises(RemoteProtocolError) as exc_info:
            channel.recv_frame()
        assert exc_info.value.offset == len(first)
        assert isinstance(exc_info.value, WireError)

    @pytest.mark.parametrize(
        "cut, reason",
        [
            (10, "closed after 10 of 17"),  # inside the header
            (17, "closed after 0 of 6"),  # the header alone
            (20, "closed after 3 of 6"),  # inside the frame bytes
            (23, "closed after 0 of 32"),  # header and frame, no MAC
            (51, "closed after 28 of 32"),  # inside the MAC
        ],
    )
    def test_eof_names_the_stream_offset(self, cut, reason):
        """An envelope cut short after a good one reports the stream byte
        where the stream ended, like the MAC / direction / sequence errors."""
        first = self.seal(b"first", sequence=1)
        second = self.seal(b"second", sequence=2)
        channel = self.receive(first, second[:cut])
        assert channel.recv_frame() == b"first"
        with pytest.raises(RemoteProtocolError, match=reason) as exc_info:
            channel.recv_frame()
        assert exc_info.value.offset == len(first) + cut


class TestWireErrorContext:
    """Decode errors name the frame kind, declared length and byte offset."""

    def test_truncated_frame_names_the_offset(self):
        with pytest.raises(WireError, match=r"offset=3") as exc_info:
            decode_frame(b"PAW")
        assert exc_info.value.offset == 3
        assert exc_info.value.kind is None

    def test_bad_magic_is_offset_zero(self):
        with pytest.raises(WireError, match="magic") as exc_info:
            decode_frame(b"XXXX" + bytes(6))
        assert exc_info.value.offset == 0

    def test_payload_mismatch_names_kind_and_length(self):
        header = struct.pack(">4sBBI", b"PAWF", WIRE_VERSION, 4, 100)  # ShardDelta, 100 bytes
        with pytest.raises(WireError, match=r"kind=ShardDelta\(4\)") as exc_info:
            decode_frame(header + b"only-a-few")
        assert exc_info.value.kind == 4
        assert exc_info.value.declared_length == 100

    def test_garbage_payload_names_the_payload_offset(self):
        header = struct.pack(">4sBBI", b"PAWF", WIRE_VERSION, 5, 5)  # ShardAck, 5 bytes
        with pytest.raises(WireError, match="deserialize") as exc_info:
            decode_shard_ack(header + b"junk!")
        assert exc_info.value.offset == 10  # corruption starts at the payload
        assert exc_info.value.kind == 5


def handshake_pair() -> tuple:
    """A connected (coordinator channel, worker channel) pair over socketpair."""
    coordinator_sock, worker_sock = socket.socketpair()
    coordinator_sock.settimeout(5.0)
    worker_sock.settimeout(5.0)
    result: dict = {}

    def worker_side():
        try:
            result["worker"] = accept_session(worker_sock, KEY)
        except BaseException as exc:  # surfaced by the caller
            result["worker_error"] = exc

    thread = threading.Thread(target=worker_side, daemon=True)
    thread.start()
    coordinator = initiate_session(coordinator_sock, KEY)
    thread.join(timeout=5.0)
    if "worker_error" in result:
        raise result["worker_error"]
    return coordinator, result["worker"]


class TestHandshake:
    def test_session_carries_frames_both_ways(self):
        coordinator, worker = handshake_pair()
        try:
            coordinator.send_frame(b"to-worker")
            assert worker.recv_frame() == b"to-worker"
            worker.send_frame(b"to-coordinator")
            assert coordinator.recv_frame() == b"to-coordinator"
        finally:
            coordinator.close()
            worker.close()

    def test_wrong_key_rejected(self):
        coordinator_sock, worker_sock = socket.socketpair()
        coordinator_sock.settimeout(5.0)
        worker_sock.settimeout(5.0)
        errors: list = []

        def worker_side():
            try:
                accept_session(worker_sock, OTHER_KEY)
            except RemoteProtocolError as exc:
                errors.append(exc)
                # Hang up like a real worker would, so the coordinator reads
                # EOF instead of waiting out its socket timeout.
                worker_sock.close()

        thread = threading.Thread(target=worker_side, daemon=True)
        thread.start()
        with pytest.raises(RemoteProtocolError):
            initiate_session(coordinator_sock, KEY)
        thread.join(timeout=5.0)
        assert errors and "MAC" in str(errors[0])
        coordinator_sock.close()
        worker_sock.close()

    def test_version_mismatch_rejected(self):
        """A peer stuck below wire v5 cannot carry resident frames."""
        coordinator_sock, worker_sock = socket.socketpair()
        coordinator_sock.settimeout(5.0)
        worker_sock.settimeout(5.0)

        def ancient_worker():
            hello = _recv_exact(worker_sock, struct.calcsize(_HELLO_FORMAT) + 32)
            coordinator_nonce = struct.unpack(_HELLO_FORMAT, hello[:-32])[3]
            reply = struct.pack(
                _HELLO_FORMAT, HELLO_MAGIC, DIRECTION_WORKER, 2, b"n" * 16
            )
            worker_sock.sendall(reply + _hello_mac(KEY, reply, coordinator_nonce))

        thread = threading.Thread(target=ancient_worker, daemon=True)
        thread.start()
        with pytest.raises(RemoteProtocolError, match="requires >= 5"):
            initiate_session(coordinator_sock, KEY)
        thread.join(timeout=5.0)
        coordinator_sock.close()
        worker_sock.close()

    def test_role_confusion_rejected(self):
        """A peer claiming the coordinator role cannot pose as a worker."""
        coordinator_sock, worker_sock = socket.socketpair()
        coordinator_sock.settimeout(5.0)
        worker_sock.settimeout(5.0)

        def confused_worker():
            hello = _recv_exact(worker_sock, struct.calcsize(_HELLO_FORMAT) + 32)
            coordinator_nonce = struct.unpack(_HELLO_FORMAT, hello[:-32])[3]
            reply = struct.pack(
                _HELLO_FORMAT, HELLO_MAGIC, DIRECTION_COORDINATOR, 3, b"n" * 16
            )
            worker_sock.sendall(reply + _hello_mac(KEY, reply, coordinator_nonce))

        thread = threading.Thread(target=confused_worker, daemon=True)
        thread.start()
        with pytest.raises(RemoteProtocolError, match="role"):
            initiate_session(coordinator_sock, KEY)
        thread.join(timeout=5.0)
        coordinator_sock.close()
        worker_sock.close()


@pytest.fixture(params=["thread", "spawned"])
def worker(request):
    """A worker to throw hostile bytes at: a server on a thread of this
    process (its counters are readable), or a child spawned the way
    ``pinned-worker/framed-wire-local`` spawns its workers (only its socket
    and its exit are observable)."""
    if request.param == "thread":
        server = start_server()
        yield SimpleNamespace(address=server.address, server=server, process=None)
        server.stop()
        return
    process, address = spawn_local_worker(KEY)
    yield SimpleNamespace(address=address, server=None, process=process)
    process.join(timeout=5.0)
    if process.exitcode is None:
        process.terminate()
        process.join(timeout=5.0)


def assert_hung_up(sock: socket.socket) -> None:
    """The worker closed the connection without sending anything more."""
    sock.settimeout(5.0)
    try:
        assert sock.recv(1 << 16) == b""
    except ConnectionResetError:
        pass


def assert_session_failed(worker, *, frames_served: int = 0) -> None:
    """The hostile session ended the worker's session, not the worker's
    loop: the thread server counts it and keeps serving; the spawned child,
    whose one session it was, exits cleanly instead of hanging."""
    if worker.server is not None:
        wait_until(lambda: worker.server.failed_sessions == 1)
        assert worker.server.frames_served == frames_served
    else:
        worker.process.join(timeout=5.0)
        assert worker.process.exitcode == 0


def open_session(worker) -> tuple[socket.socket, FrameChannel]:
    sock = socket.create_connection(worker.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock, initiate_session(sock, KEY)


class TestWorkerServerHostileBytes:
    """Hostile connections are rejected without a hang, on a thread server
    and on a spawned loopback worker alike; nothing unverified is decoded."""

    def test_garbage_handshake_rejected(self, worker):
        with socket.create_connection(worker.address, timeout=5.0) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" * 8)
            assert_hung_up(sock)
        if worker.server is None:
            assert_session_failed(worker)
            return
        wait_until(lambda: worker.server.rejected_connections == 1)
        # A legitimate session still works afterwards.
        sock, channel = open_session(worker)
        channel.send_frame(b"not-a-wire-frame")
        ack = decode_shard_ack(channel.recv_frame())
        assert ack.error is not None  # decode failed, but as a clean ack
        channel.close()
        wait_until(lambda: worker.server.sessions_served == 1)

    def test_wrong_key_connection_rejected(self, worker):
        sock = socket.create_connection(worker.address, timeout=5.0)
        sock.settimeout(5.0)
        with pytest.raises((RemoteProtocolError, OSError)):
            initiate_session(sock, OTHER_KEY)
        sock.close()
        if worker.server is not None:
            wait_until(lambda: worker.server.rejected_connections == 1)
        assert_session_failed(worker)

    def test_truncated_frame_fails_the_session(self, worker):
        sock, channel = open_session(worker)
        sealed = seal_frame(channel._session_key, DIRECTION_COORDINATOR, 1, b"x" * 64)
        sock.sendall(sealed[: len(sealed) // 2])  # half an envelope, then EOF
        channel.close()
        assert_session_failed(worker)  # the bytes never reached decode

    def test_envelope_cut_after_its_header_fails_the_session(self, worker):
        """EOF at a frame boundary ends a session cleanly; EOF after a header,
        before any of the frame it declares, is a truncated envelope."""
        sock, channel = open_session(worker)
        sealed = seal_frame(channel._session_key, DIRECTION_COORDINATOR, 1, b"h" * 24)
        sock.sendall(sealed[:17])
        channel.close()
        assert_session_failed(worker)
        if worker.server is not None:
            assert worker.server.sessions_served == 0

    def test_bad_mac_frame_fails_the_session(self, worker):
        sock, channel = open_session(worker)
        sealed = bytearray(
            seal_frame(channel._session_key, DIRECTION_COORDINATOR, 1, b"y" * 32)
        )
        sealed[-5] ^= 0xFF
        sock.sendall(bytes(sealed))
        assert_hung_up(sock)  # no ack: the frame never reached decode
        assert_session_failed(worker)
        channel.close()

    def test_replayed_envelope_fails_the_session(self, worker):
        sock, channel = open_session(worker)
        sealed = seal_frame(channel._session_key, DIRECTION_COORDINATOR, 1, b"z" * 16)
        sock.sendall(sealed)
        channel.recv_frame()  # the (error) ack for the first copy
        sock.sendall(sealed)  # verbatim replay: stale sequence number
        assert_hung_up(sock)  # no second ack: the replay never reached decode
        assert_session_failed(worker, frames_served=1)
        channel.close()

    def test_reflected_direction_fails_the_session(self, worker):
        """A frame sealed as if the worker had sent it — a coordinator
        echoing worker traffic back — verifies under the session key but
        fails the direction check."""
        sock, channel = open_session(worker)
        sealed = seal_frame(channel._session_key, DIRECTION_WORKER, 1, b"w" * 16)
        sock.sendall(sealed)
        assert_hung_up(sock)
        assert_session_failed(worker)
        channel.close()


class TestTransport:
    def test_connect_backoff_gives_up_loudly(self):
        # Grab a port with no listener behind it.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        host, port = placeholder.getsockname()
        placeholder.close()
        transport = RemoteWorkerTransport(
            [(host, port)], [KEY], connect_attempts=2, backoff_base_seconds=0.01
        )
        with pytest.raises(RemoteWorkerUnavailable, match="after 2 attempts"):
            transport.send(0, b"frame")
        assert isinstance(RemoteWorkerUnavailable("x"), ResidentWorkerError)

    def test_sticky_affinity_and_liveness(self):
        servers = [start_server(), start_server()]
        try:
            transport = RemoteWorkerTransport(
                [server.address for server in servers], [KEY, KEY]
            )
            assert transport.slot_for(0) == 0 and transport.slot_for(3) == 1
            transport.ensure_worker(0)
            transport.ensure_worker(1)
            assert transport.worker_alive(0) and transport.worker_alive(1)
            assert transport.dead_slots() == []
            servers[1].stop()
            wait_until(lambda: not transport.worker_alive(1))
            assert transport.dead_slots() == [1]
            transport.close()
        finally:
            for server in servers:
                server.stop()

    def test_send_recv_round_trip(self):
        server = start_server()
        try:
            transport = RemoteWorkerTransport([server.address], [KEY])
            transport.send(0, b"garbage-frame")  # worker answers with an error ack
            ack = decode_shard_ack(transport.recv(timeout=5.0))
            assert ack.error is not None
            transport.drain_stale()
            with pytest.raises(queue.Empty):
                transport.recv(timeout=0.05)
            transport.close()
        finally:
            server.stop()


def make_remote_system(addresses, key_path, num_clients=12, shards=4):
    config = SystemConfig(
        num_clients=num_clients,
        seed=868,
        executor=REMOTE_RESIDENT,
        executor_shards=shards,
        executor_remote_workers=tuple(addresses),
        executor_key_file=key_path,
    )
    system = PrivApproxSystem(config)
    system.provision_clients([("value", "REAL")], lambda i: [{"value": float(i % 8)}])
    analyst = Analyst("remote-e2e")
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
    system.submit_query(analyst, query, QueryBudget(), parameters=PARAMS)
    return system, query.query_id


def run_serial_twin(num_clients: int, num_epochs: int) -> list:
    config = SystemConfig(num_clients=num_clients, seed=868, executor="serial")
    system = PrivApproxSystem(config)
    system.provision_clients([("value", "REAL")], lambda i: [{"value": float(i % 8)}])
    analyst = Analyst("remote-e2e")
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
    system.submit_query(analyst, query, QueryBudget(), parameters=PARAMS)
    for epoch in range(num_epochs):
        system.run_epoch(query.query_id, epoch)
    out = serialize_responses(system.responses_log(query.query_id))
    system.close()
    return out


def serialize_responses(blocks) -> list[tuple]:
    return list(logged_rows(blocks))


class TestRemoteEndToEnd:
    def test_scenario_digest_matches_serial(self, tmp_path):
        """The acceptance gate: remote digests byte-identical to serial."""
        servers = [start_server(), start_server()]
        try:
            key_path = write_key_file(tmp_path, KEY)
            spec = ScenarioSpec(
                name="remote-grid", seed=4242, num_clients=20, num_epochs=3,
                initial_active_fraction=0.8, join_rate=0.1, leave_rate=0.1,
            )
            serial = run_scenario(spec, executor="serial")
            remote = run_scenario(
                spec,
                executor=REMOTE_RESIDENT,
                remote_workers=[address_of(server) for server in servers],
                key_file=key_path,
            )
            assert remote.executor_label == REMOTE_RESIDENT
            assert remote.digest == serial.digest
            assert remote.total_wire_bytes > serial.total_wire_bytes
        finally:
            for server in servers:
                server.stop()

    def test_torture_row_kitchen_sink_matches_serial(self, tmp_path):
        """The hostile scenario row: churn + duplicates + deadline, remotely."""
        from repro.runtime.scenario import find_scenario

        servers = [start_server(), start_server()]
        try:
            key_path = write_key_file(tmp_path, KEY)
            spec = find_scenario("kitchen-sink")
            serial = run_scenario(spec, executor="serial")
            remote = run_scenario(
                spec,
                executor=REMOTE_RESIDENT,
                remote_workers=[address_of(server) for server in servers],
                key_file=key_path,
            )
            assert remote.digest == serial.digest
        finally:
            for server in servers:
                server.stop()

    def test_killed_worker_recovers_byte_identically(self, tmp_path):
        """A worker restart between epochs re-bootstraps from the
        coordinator's copy, which answering never changes."""
        servers = [start_server(), start_server()]
        replacement = None
        key_path = write_key_file(tmp_path, KEY)
        system, query_id = make_remote_system(
            [address_of(server) for server in servers], key_path
        )
        try:
            executor = system.executor
            system.run_epoch(query_id, 0)
            system.run_epoch(query_id, 1)
            bootstraps_before = executor.bootstrap_frames
            # Kill worker 0 (its process dies: resident cache and connection
            # both gone) and launch a replacement on the same port.
            victim_port = servers[0].address[1]
            servers[0].stop()
            wait_until(lambda: not executor.driver._router.worker_alive(0))
            replacement = RemoteWorkerServer("127.0.0.1", victim_port, KEY)
            threading.Thread(target=replacement.serve_forever, daemon=True).start()
            system.run_epoch(query_id, 2)
            system.run_epoch(query_id, 3)
            # Exactly the dead worker's shards re-bootstrapped (2 of 4).
            assert executor.bootstrap_frames == bootstraps_before + 2
            assert executor.driver._router.reconnects == 1
            remote = serialize_responses(system.responses_log(query_id))
        finally:
            system.close()
            for server in servers:
                server.stop()
            if replacement is not None:
                replacement.stop()
        assert run_serial_twin(12, 4) == remote

    def test_mid_epoch_disconnect_raises_cleanly(self, tmp_path):
        """A socket dying with frames in flight fails the epoch, never hangs."""
        key_path = write_key_file(tmp_path, KEY)
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def evil_worker():
            conn, _ = listener.accept()
            # One connection only: with the listener gone a reconnect is
            # refused at once instead of sitting in the accept backlog until
            # the coordinator's handshake read times out.
            listener.close()
            conn.settimeout(5.0)
            channel = accept_session(conn, KEY)
            channel.recv_frame()  # swallow the first bootstrap frame...
            channel.close()  # ...and die without acking

        thread = threading.Thread(target=evil_worker, daemon=True)
        thread.start()
        system, query_id = make_remote_system([f"{host}:{port}"], key_path, shards=2)
        try:
            # Depending on when the death is noticed, the epoch fails in the
            # collector ("died mid-epoch") or in the sender (reconnect
            # exhausted) — both are ResidentWorkerError, neither is a hang.
            with pytest.raises(ResidentWorkerError, match="died mid-epoch|unreachable"):
                system.run_epoch(query_id, 0)
        finally:
            system.close()
            listener.close()
        thread.join(timeout=5.0)

    def test_reconnect_after_connection_drop_keeps_bytes_identical(self, tmp_path):
        """Connection loss without worker death: reconnect + re-bootstrap."""
        server = start_server()
        key_path = write_key_file(tmp_path, KEY)
        system, query_id = make_remote_system([address_of(server)], key_path, shards=2)
        try:
            executor = system.executor
            system.run_epoch(query_id, 0)
            # Drop the TCP connection out from under the transport; the
            # worker process (and its resident cache) stays up.
            executor.driver._router._links[0].channel.sock.shutdown(socket.SHUT_RDWR)
            wait_until(lambda: not executor.driver._router.worker_alive(0))
            system.run_epoch(query_id, 1)
            system.run_epoch(query_id, 2)
            assert executor.driver._router.reconnects == 1
            remote = serialize_responses(system.responses_log(query_id))
        finally:
            system.close()
            server.stop()
        assert run_serial_twin(12, 3) == remote


class TestResidentCachePersistence:
    def test_cache_survives_coordinator_sessions(self):
        """A reconnecting coordinator finds the resident shards still warm."""
        server = start_server()
        try:
            transport = RemoteWorkerTransport([server.address], [KEY])
            from repro.runtime.wire import ShardBootstrap, encode_shard_bootstrap
            from repro.core.client import Client, ClientConfig

            client = Client(
                ClientConfig(client_id="cache-0", num_proxies=2, seed=77)
            )
            client.create_table([("value", "REAL")])
            frame = encode_shard_bootstrap(
                ShardBootstrap(
                    shard_index=0, epoch=0, query_ids=(),
                    client_states=(client.export_state(),),
                )
            )
            transport.send(0, frame)
            ack = decode_shard_ack(transport.recv(timeout=5.0))
            assert ack.error is None
            transport.close()
            wait_until(lambda: server.sessions_served == 1)
            assert server.resident_shards == 1  # survives the session
        finally:
            server.stop()


class TestLocalWorkers:
    """``pinned-worker/framed-wire-local`` spawns sealed loopback workers."""

    def test_spawned_workers_serve_through_the_patched_module_attribute(
        self, monkeypatch
    ):
        """The worker looks ``affinity.serve_resident_frame`` up at call time,
        so a forked child runs whatever the parent installed there — the
        epoch profile's tracer relies on it to see worker-side spans.  The
        stand-in answers every frame with a tagged error ack; a worker bound
        to the original by name would answer normally instead."""
        from repro.runtime import ShardAck, affinity

        tag = "served-by-the-patched-step"

        def tagged_failure(cache, frame):
            return affinity.encode_shard_ack(
                ShardAck(shard_index=-1, epoch=-1, error=("TaggedError", tag))
            )

        monkeypatch.setattr(affinity, "serve_resident_frame", tagged_failure)
        config = SystemConfig(
            num_clients=6,
            seed=868,
            executor="pinned-worker/framed-wire-local",
            executor_workers=2,
            executor_shards=2,
        )
        system = PrivApproxSystem(config)
        system.provision_clients([("value", "REAL")], lambda i: [{"value": 1.0}])
        analyst = Analyst("local-trace")
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
        system.submit_query(analyst, query, QueryBudget(), parameters=PARAMS)
        try:
            with pytest.raises(ResidentWorkerError, match=f"TaggedError: {tag}"):
                system.run_epoch(query.query_id, 0)
        finally:
            system.close()

    def test_every_executor_gets_its_own_random_keys(self):
        first = make_executor("pinned-worker/framed-wire-local", workers=2)
        second = make_executor("pinned-worker/framed-wire-local", workers=2)
        try:
            keys = [
                executor.driver._ensure_router()._keys for executor in (first, second)
            ]
        finally:
            first.close()
            second.close()
        assert all(len(key) == 32 for pair in keys for key in pair)
        assert len({key for pair in keys for key in pair}) == 4

    def test_close_ends_every_session_and_joins_the_children(self):
        executor = make_executor("pinned-worker/framed-wire-local", workers=2)
        router = executor.driver._ensure_router()
        for slot in range(2):
            router.ensure_worker(slot)
        processes = list(router._processes)
        assert all(process.exitcode is None for process in processes)
        executor.close()
        # Each child saw a clean EOF on its one session and exited by itself.
        assert [process.exitcode for process in processes] == [0, 0]
