"""Resident workers behind a sealed channel: the one worker transport.

This module carries the resident bootstrap/delta/ack protocol
(:mod:`repro.runtime.wire`, :mod:`repro.runtime.affinity`) over TCP sockets,
so shards run on worker processes that hold their clients' state between
epochs.  There is one router and one worker loop for every deployment:

* :class:`RemoteWorkerServer` — the worker side.  It binds a listening
  socket, accepts one coordinator session at a time, and serves each sealed
  frame through :func:`~repro.runtime.affinity.serve_resident_frame`, looked
  up on that module at call time so whatever is installed there (a tracing
  wrapper, a test double) is what a forked worker runs.  The
  :class:`~repro.runtime.affinity.ResidentShardCache` outlives coordinator
  sessions: a coordinator that reconnects finds the resident state intact.
* :class:`RemoteWorkerTransport` — the coordinator side.  One authenticated
  connection per worker address behind the router interface
  :class:`~repro.runtime.affinity.ResidentDriver` drives
  (``send``/``recv``/``worker_alive``/``dead_slots``/``replace``).  Connect
  failures retry with bounded exponential backoff; a socket that dies
  mid-epoch surfaces as a dead worker and its shards re-bootstrap from the
  coordinator's copy, which answering never changes.
* :class:`LocalWorkerTransport` — ``framed-wire-local``: the same transport
  over workers it spawns itself, one forked ``RemoteWorkerServer`` child per
  slot on ``127.0.0.1``, keyed with fresh random keys that never leave the
  process.  ``sealed-tcp-remote`` dials separately launched workers
  (``python -m repro.cli worker --listen HOST:PORT --key-file ...``) on
  another terminal, container or machine instead.

**Authentication: every frame travels sealed.**  The wire-frame payloads are
pickle — arbitrary code execution on hostile bytes — so nothing reaches
``decode_frame`` until its MAC has verified.  The model follows the
pull-style authenticated RPC of ``qvm-remote``: a pre-shared per-worker key,
HMAC-SHA256 over every message, constant-time comparison, and the privileged
side (the coordinator) initiating all connections.  Concretely:

* the connection handshake exchanges HELLO messages carrying each side's
  wire version and a fresh 16-byte nonce, MAC'd under the pre-shared key
  (the worker's reply MACs the coordinator's nonce too, proving freshness);
  the negotiated version is the minimum of the two and must support the
  resident frame kinds (>= 3);
* both nonces derive a per-session MAC key, so a frame recorded on one
  connection can never replay on another;
* each sealed envelope is ``magic + direction + sequence + length`` followed
  by the frame bytes and a 32-byte HMAC-SHA256 over header-plus-frame.  The
  direction byte kills reflection; the sequence counter — monotonically
  increasing per direction, verified against the receiver's expectation —
  kills in-session replays and reorders.

The full normative layout lives in ``docs/WIRE.md``; launch, key
distribution and failure handling in ``docs/OPERATIONS.md``.

**Trust model unchanged.**  The sealed channel authenticates *mutually
trusted* coordinator/worker hosts to each other — the frames still carry
simulation-harness state (see the :mod:`repro.runtime.wire` warning), so a
remote worker is a stand-in for a fleet of simulated devices, never an
untrusted relay.  HMAC gives integrity and authenticity, not
confidentiality: run it over links you control (localhost, a private
network, a tunnel).
"""

from __future__ import annotations

import hashlib
import hmac
import multiprocessing
import os
import queue
import secrets
import socket
import struct
import threading
import time

from repro.runtime import affinity
from repro.runtime.affinity import ResidentShardCache, ResidentWorkerError
from repro.runtime.wire import WIRE_VERSION, WireError

# -- protocol constants -------------------------------------------------------

# Sealed envelope: magic, direction, sequence counter, frame length — then the
# frame bytes, then the 32-byte HMAC-SHA256 over header + frame.
ENVELOPE_MAGIC = b"PAWS"
_ENVELOPE_FORMAT = ">4sBQI"
_ENVELOPE_SIZE = struct.calcsize(_ENVELOPE_FORMAT)
_MAC_SIZE = hashlib.sha256().digest_size

DIRECTION_COORDINATOR = 0x43  # 'C': coordinator -> worker
DIRECTION_WORKER = 0x57  # 'W': worker -> coordinator

# HELLO: magic, role (direction byte of the sender), wire version, nonce.
HELLO_MAGIC = b"PAWH"
_HELLO_FORMAT = ">4sBB16s"
_HELLO_SIZE = struct.calcsize(_HELLO_FORMAT)
_NONCE_SIZE = 16

# The resident triple (bootstrap/delta/ack) exists from wire v3 on, acks
# carry response blocks from v4 on and packed bit columns from v5 on; a peer
# that cannot speak them has nothing to say on this channel.
MIN_REMOTE_WIRE_VERSION = 5

# Hard ceiling on a declared frame length: a forged 4-byte length field must
# not be able to make the receiver allocate gigabytes.  Generous enough for
# bootstrap frames of very large shards.
MAX_FRAME_BYTES = 1 << 30

_SESSION_KEY_LABEL = b"privapprox-remote-session-v1"

# Keys shorter than this are rejected outright — an operator typo (an empty
# line, a truncated paste) must not silently become a guessable channel.
MIN_KEY_BYTES = 16
RECOMMENDED_KEY_BYTES = 32

# Coordinator-side reconnect policy: bounded exponential backoff.
_CONNECT_ATTEMPTS = 4
_BACKOFF_BASE_SECONDS = 0.05
_CONNECT_TIMEOUT_SECONDS = 5.0

# Worker-side accept/handshake pacing; short enough that stop() is prompt.
_ACCEPT_POLL_SECONDS = 0.2
_IDLE_POLL_SECONDS = 0.5
# A read that has made *some* progress tolerates short stalls (a congested
# link is not a dead peer) up to this bound of zero-progress seconds.
_READ_STALL_SECONDS = 30.0


class RemoteProtocolError(WireError):
    """A sealed envelope or handshake failed validation.

    Subclasses :class:`~repro.runtime.wire.WireError` so transport-layer
    corruption and frame-layer corruption surface through one exception
    family, with the same structured context (kind/declared length/offset).
    """


class RemoteWorkerUnavailable(ResidentWorkerError):
    """A remote worker could not be reached (connect/reconnect exhausted)."""


# -- keys ---------------------------------------------------------------------


def load_keys(path: str) -> list[bytes]:
    """Parse a key file: one hex-encoded key per line.

    Blank lines and ``#`` comments are skipped.  Each key must decode to at
    least :data:`MIN_KEY_BYTES` bytes (32 recommended; generate with
    ``python -c "import secrets; print(secrets.token_hex(32))"``).
    """
    keys = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key = bytes.fromhex(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{line_number}: key is not valid hex"
                ) from exc
            if len(key) < MIN_KEY_BYTES:
                raise ValueError(
                    f"{path}:{line_number}: key is {len(key)} bytes, "
                    f"need at least {MIN_KEY_BYTES} (use "
                    f"{RECOMMENDED_KEY_BYTES}-byte keys)"
                )
            keys.append(key)
    if not keys:
        raise ValueError(f"{path}: no keys found")
    return keys


def keys_for_workers(keys: list[bytes], num_workers: int) -> list[bytes]:
    """Assign coordinator-side keys to worker slots.

    Line ``i`` keys worker ``i``; a single-key file is shared by every
    worker (allowed, but per-worker keys are the recommended deployment —
    see ``docs/OPERATIONS.md``).
    """
    if len(keys) == 1:
        return [keys[0]] * num_workers
    if len(keys) < num_workers:
        raise ValueError(
            f"key file holds {len(keys)} keys for {num_workers} workers: "
            "provide one key per worker (line i keys worker i) or exactly one "
            "shared key"
        )
    return list(keys[:num_workers])


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``host:port`` (the CLI's ``--listen`` / ``--workers`` syntax)."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"invalid port in {text!r}") from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in {text!r}")
    return host, port


# -- sealed envelope primitives ------------------------------------------------


def derive_session_key(
    key: bytes, coordinator_nonce: bytes, worker_nonce: bytes
) -> bytes:
    """The per-session MAC key: HMAC(key, label || nonces).

    Binding both handshake nonces means a frame sealed on one connection can
    never verify on another, even under the same pre-shared key — the
    cross-session replay defense.
    """
    return hmac.new(
        key, _SESSION_KEY_LABEL + coordinator_nonce + worker_nonce, hashlib.sha256
    ).digest()


def seal_frame(
    session_key: bytes, direction: int, sequence: int, frame: bytes
) -> bytes:
    """Seal one wire frame into an authenticated envelope."""
    if len(frame) > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"frame of {len(frame)} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "envelope ceiling"
        )
    header = struct.pack(
        _ENVELOPE_FORMAT, ENVELOPE_MAGIC, direction, sequence, len(frame)
    )
    mac = hmac.new(session_key, header + frame, hashlib.sha256).digest()
    return header + frame + mac


def _verify_envelope(
    session_key: bytes,
    direction: int,
    sequence: int,
    header: bytes,
    frame: bytes,
    mac: bytes,
    offset: int,
) -> None:
    """Validate one received envelope; raises with stream context on failure.

    The MAC is checked (constant-time) before the direction and sequence
    fields are trusted — a forged header must not steer the error path.
    """
    magic, got_direction, got_sequence, length = struct.unpack(
        _ENVELOPE_FORMAT, header
    )
    if magic != ENVELOPE_MAGIC:
        raise RemoteProtocolError(
            f"bad envelope magic {magic!r}: not a sealed runtime frame",
            offset=offset,
        )
    expected = hmac.new(session_key, header + frame, hashlib.sha256).digest()
    if not hmac.compare_digest(expected, mac):
        raise RemoteProtocolError(
            "envelope MAC verification failed (wrong key, tampered bytes, or "
            "bytes from another session)",
            declared_length=length,
            offset=offset,
        )
    if got_direction != direction:
        raise RemoteProtocolError(
            f"envelope direction {got_direction:#x} != expected {direction:#x} "
            "(reflected frame?)",
            declared_length=length,
            offset=offset + 4,
        )
    if got_sequence != sequence:
        raise RemoteProtocolError(
            f"envelope sequence {got_sequence} != expected {sequence} "
            "(replayed, dropped or reordered frame)",
            declared_length=length,
            offset=offset + 5,
        )


# -- socket plumbing ------------------------------------------------------------


class _IdleTimeout(Exception):
    """A read timed out before any byte arrived (clean idle, not corruption)."""


def _recv_exact(
    sock: socket.socket,
    count: int,
    *,
    offset: int = 0,
    idle_ok: bool = False,
    mid_message: bool = False,
) -> bytes:
    """Read exactly ``count`` bytes from a socket.

    ``offset`` is the stream position of the first byte to read, so an
    error names the stream byte where the read broke off.

    EOF mid-message is death and raises :class:`RemoteProtocolError`.  A
    timeout before the first byte raises :class:`_IdleTimeout` when
    ``idle_ok`` (the worker's stop-event poll) and a protocol error
    otherwise — except ``mid_message`` reads (the body of an envelope whose
    header already arrived), which tolerate short stalls (a congested link
    is not a dead peer) until no progress is made for
    :data:`_READ_STALL_SECONDS`.
    """
    chunks = []
    received = 0
    last_progress = time.monotonic()
    while received < count:
        try:
            chunk = sock.recv(count - received)
        except socket.timeout:
            if received == 0 and not mid_message:
                if idle_ok:
                    raise _IdleTimeout() from None
                raise RemoteProtocolError(
                    f"read timed out before any of {count} bytes arrived",
                    offset=offset,
                ) from None
            if time.monotonic() - last_progress < _READ_STALL_SECONDS:
                continue
            raise RemoteProtocolError(
                f"read stalled after {received} of {count} bytes",
                offset=offset + received,
            ) from None
        if not chunk:
            raise RemoteProtocolError(
                f"connection closed after {received} of {count} bytes",
                offset=offset + received,
            )
        chunks.append(chunk)
        received += len(chunk)
        last_progress = time.monotonic()
    return b"".join(chunks)


class FrameChannel:
    """One authenticated, sequenced frame stream over a connected socket.

    Built by the handshake helpers (:func:`initiate_session` /
    :func:`accept_session`).  ``send_frame`` seals with the side's send
    direction and next send sequence.  ``recv_frame`` is the only place an
    envelope is opened: it reads the header, refuses a declared length
    above :data:`MAX_FRAME_BYTES` before reading the body, treats EOF
    inside an envelope as a protocol error, and verifies MAC, direction
    and sequence before returning the frame bytes.  ``bytes_received``
    counts the stream offset so decode errors name the position of the
    corruption.
    """

    def __init__(
        self,
        sock: socket.socket,
        session_key: bytes,
        send_direction: int,
        recv_direction: int,
    ):
        self.sock = sock
        self._session_key = session_key
        self._send_direction = send_direction
        self._recv_direction = recv_direction
        self._send_sequence = 0
        self._recv_sequence = 0
        self._send_lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0

    def send_frame(self, frame: bytes) -> int:
        """Seal and send one frame; returns the envelope size in bytes."""
        with self._send_lock:
            self._send_sequence += 1
            envelope = seal_frame(
                self._session_key, self._send_direction, self._send_sequence, frame
            )
            self.sock.sendall(envelope)
            self.bytes_sent += len(envelope)
        return len(envelope)

    def recv_frame(self, *, idle_ok: bool = False) -> bytes:
        """Read, verify and return the next frame (blocking)."""
        offset = self.bytes_received
        header = _recv_exact(self.sock, _ENVELOPE_SIZE, offset=offset, idle_ok=idle_ok)
        length = struct.unpack(_ENVELOPE_FORMAT, header)[3]
        if length > MAX_FRAME_BYTES:
            raise RemoteProtocolError(
                f"envelope declares {length} frame bytes, exceeding the "
                f"{MAX_FRAME_BYTES}-byte ceiling",
                declared_length=length,
                offset=offset + 9,
            )
        body = offset + _ENVELOPE_SIZE
        frame = _recv_exact(self.sock, length, offset=body, mid_message=True)
        mac = _recv_exact(self.sock, _MAC_SIZE, offset=body + length, mid_message=True)
        self._recv_sequence += 1
        _verify_envelope(
            self._session_key,
            self._recv_direction,
            self._recv_sequence,
            header,
            frame,
            mac,
            offset,
        )
        self.bytes_received = body + length + _MAC_SIZE
        return frame

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


# -- handshake -------------------------------------------------------------------


def _hello_mac(key: bytes, hello: bytes, bound_nonce: bytes = b"") -> bytes:
    return hmac.new(key, hello + bound_nonce, hashlib.sha256).digest()


def initiate_session(sock: socket.socket, key: bytes) -> FrameChannel:
    """Coordinator-side handshake on a freshly connected socket.

    Sends HELLO(version, nonce) MAC'd under the pre-shared key; the worker's
    reply MACs its own HELLO *plus our nonce*, proving it holds the key and
    is answering this connection, not replaying an old one.  The negotiated
    wire version is the minimum of both and must be >=
    :data:`MIN_REMOTE_WIRE_VERSION`.
    """
    nonce = os.urandom(_NONCE_SIZE)
    hello = struct.pack(
        _HELLO_FORMAT, HELLO_MAGIC, DIRECTION_COORDINATOR, WIRE_VERSION, nonce
    )
    sock.sendall(hello + _hello_mac(key, hello))
    reply = _recv_exact(sock, _HELLO_SIZE + _MAC_SIZE)
    reply_hello, reply_mac = reply[:_HELLO_SIZE], reply[_HELLO_SIZE:]
    magic, role, peer_version, worker_nonce = struct.unpack(
        _HELLO_FORMAT, reply_hello
    )
    if magic != HELLO_MAGIC:
        raise RemoteProtocolError(
            f"bad handshake magic {magic!r}: peer is not a privapprox worker",
            offset=0,
        )
    if not hmac.compare_digest(_hello_mac(key, reply_hello, nonce), reply_mac):
        raise RemoteProtocolError(
            "worker handshake MAC verification failed (wrong key or replayed "
            "handshake)"
        )
    if role != DIRECTION_WORKER:
        raise RemoteProtocolError(
            f"peer announced role {role:#x}, expected a worker"
        )
    negotiated = min(WIRE_VERSION, peer_version)
    if negotiated < MIN_REMOTE_WIRE_VERSION:
        raise RemoteProtocolError(
            f"negotiated wire version {negotiated} cannot carry resident "
            f"frames (requires >= {MIN_REMOTE_WIRE_VERSION})"
        )
    session_key = derive_session_key(key, nonce, worker_nonce)
    return FrameChannel(
        sock, session_key, DIRECTION_COORDINATOR, DIRECTION_WORKER
    )


def accept_session(sock: socket.socket, key: bytes) -> FrameChannel:
    """Worker-side handshake on a freshly accepted connection.

    Verifies the coordinator's HELLO MAC before replying — an unauthenticated
    peer learns nothing but a closed connection.
    """
    data = _recv_exact(sock, _HELLO_SIZE + _MAC_SIZE)
    hello, mac = data[:_HELLO_SIZE], data[_HELLO_SIZE:]
    magic, role, peer_version, coordinator_nonce = struct.unpack(
        _HELLO_FORMAT, hello
    )
    if magic != HELLO_MAGIC:
        raise RemoteProtocolError(
            f"bad handshake magic {magic!r}: peer is not a privapprox "
            "coordinator",
            offset=0,
        )
    if not hmac.compare_digest(_hello_mac(key, hello), mac):
        raise RemoteProtocolError(
            "coordinator handshake MAC verification failed (wrong key?)"
        )
    if role != DIRECTION_COORDINATOR:
        raise RemoteProtocolError(
            f"peer announced role {role:#x}, expected a coordinator"
        )
    negotiated = min(WIRE_VERSION, peer_version)
    if negotiated < MIN_REMOTE_WIRE_VERSION:
        raise RemoteProtocolError(
            f"negotiated wire version {negotiated} cannot carry resident "
            f"frames (requires >= {MIN_REMOTE_WIRE_VERSION})"
        )
    nonce = os.urandom(_NONCE_SIZE)
    reply = struct.pack(
        _HELLO_FORMAT, HELLO_MAGIC, DIRECTION_WORKER, WIRE_VERSION, nonce
    )
    sock.sendall(reply + _hello_mac(key, reply, coordinator_nonce))
    session_key = derive_session_key(key, coordinator_nonce, nonce)
    return FrameChannel(sock, session_key, DIRECTION_WORKER, DIRECTION_COORDINATOR)


# -- the worker side ---------------------------------------------------------------


class RemoteWorkerServer:
    """A separately launched resident worker serving sealed frames over TCP.

    Accepts one coordinator session at a time (the resident protocol has
    exactly one coordinator; a second connection queues in the listen
    backlog until the current session ends).  The shard cache survives
    across sessions, so a coordinator that reconnects after a network blip
    finds the resident state still warm; only a worker *process* restart
    loses it, and the coordinator then re-bootstraps from its own copy.

    A connection that fails the handshake, sends an unverifiable envelope,
    or dies mid-frame is closed and counted in ``rejected_connections`` /
    ``failed_sessions``; the server returns to accepting.  Hostile bytes
    never reach the pickle layer — the MAC gate is in front of it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        key: bytes,
        *,
        max_sessions: int | None = None,
        handshake_timeout: float = _CONNECT_TIMEOUT_SECONDS,
    ):
        self._key = key
        self._max_sessions = max_sessions
        self._handshake_timeout = handshake_timeout
        self._listener = socket.create_server((host, port), backlog=4)
        self._listener.settimeout(_ACCEPT_POLL_SECONDS)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._cache = ResidentShardCache()
        self._stop = threading.Event()
        self.sessions_served = 0
        self.failed_sessions = 0
        self.rejected_connections = 0
        self.frames_served = 0

    def serve_forever(self) -> None:
        """Accept and serve coordinator sessions until :meth:`stop` (or
        ``max_sessions`` sessions have ended)."""
        try:
            while not self._stop.is_set():
                if (
                    self._max_sessions is not None
                    and self.sessions_served + self.failed_sessions
                    >= self._max_sessions
                ):
                    return
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return  # listener closed by stop()
                self._serve_connection(conn)
        finally:
            self._listener.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        channel = None
        clean = False
        try:
            conn.settimeout(self._handshake_timeout)
            try:
                channel = accept_session(conn, self._key)
            except (RemoteProtocolError, OSError):
                self.rejected_connections += 1
                conn.close()
                return
            conn.settimeout(_IDLE_POLL_SECONDS)
            while not self._stop.is_set():
                try:
                    frame = channel.recv_frame(idle_ok=True)
                except _IdleTimeout:
                    continue
                except RemoteProtocolError as exc:
                    # EOF at a frame boundary is the session ending cleanly.
                    clean = (
                        exc.offset == channel.bytes_received and "closed" in str(exc)
                    )
                    return
                # Through the module, at call time: a forked local worker
                # runs whatever the parent had installed there.
                channel.send_frame(affinity.serve_resident_frame(self._cache, frame))
                self.frames_served += 1
            clean = True
        except OSError:
            pass
        finally:
            if channel is not None:
                channel.close()
            else:
                conn.close()
            if clean:
                self.sessions_served += 1
            else:
                self.failed_sessions += 1

    def stop(self) -> None:
        """Stop accepting; the live session (if any) ends at its next poll."""
        self._stop.set()
        self._listener.close()

    @property
    def resident_shards(self) -> int:
        return len(self._cache)


# -- the coordinator side -----------------------------------------------------------


class _RemoteLink:
    """One worker's authenticated connection plus its ack-reader thread."""

    def __init__(
        self,
        address: tuple[str, int],
        key: bytes,
        result_queue: queue.Queue,
        connect_timeout: float,
    ):
        self.address = address
        sock = socket.create_connection(address, timeout=connect_timeout)
        sock.settimeout(connect_timeout)
        try:
            self.channel = initiate_session(sock, key)
        except BaseException:
            sock.close()
            raise
        # Post-handshake the socket blocks: epochs can be arbitrarily far
        # apart, and a dead peer surfaces as EOF/reset, not a read timeout.
        sock.settimeout(None)
        self.alive = True
        self._result_queue = result_queue
        self._reader = threading.Thread(
            target=self._read_acks,
            name=f"privapprox-remote-recv-{address[0]}:{address[1]}",
            daemon=True,
        )
        self._reader.start()

    def _read_acks(self) -> None:
        try:
            while True:
                self._result_queue.put(self.channel.recv_frame())
        except (RemoteProtocolError, OSError):
            pass
        finally:
            self.alive = False

    def send_frame(self, frame: bytes) -> None:
        try:
            self.channel.send_frame(frame)
        except OSError as exc:
            self.alive = False
            raise RemoteWorkerUnavailable(
                f"worker at {self.address[0]}:{self.address[1]} dropped the "
                f"connection: {exc}"
            ) from exc

    def close(self) -> None:
        self.alive = False
        self.channel.close()
        self._reader.join(timeout=2.0)


class RemoteWorkerTransport:
    """Sticky shard routing to resident workers over sealed connections.

    The router :class:`~repro.runtime.affinity.ResidentDriver` drives: the
    affinity function is ``shard_index % num_workers``, frames go out as
    bytes and acks come back as bytes (each verified against its envelope
    MAC by the link's reader thread before it is queued), and the driver
    owns every protocol decision.

    * ``ensure_worker`` connects (with bounded exponential backoff);
      ``replace`` drops the connection and dials again.  A worker that stays
      unreachable raises :class:`RemoteWorkerUnavailable` — the epoch fails
      loudly and the shards re-bootstrap from the coordinator's copy once the
      worker is back.
    * a connection that dies (EOF, reset, a frame that fails verification)
      marks its slot dead, so the driver's collect loop, healer and
      recovery paths apply.
    """

    def __init__(
        self,
        addresses: list[tuple[str, int]],
        keys: list[bytes],
        *,
        connect_timeout: float = _CONNECT_TIMEOUT_SECONDS,
        connect_attempts: int = _CONNECT_ATTEMPTS,
        backoff_base_seconds: float = _BACKOFF_BASE_SECONDS,
    ):
        if not addresses:
            raise ValueError("need at least one worker address")
        if len(keys) != len(addresses):
            raise ValueError(
                f"{len(addresses)} worker addresses but {len(keys)} keys"
            )
        if connect_attempts < 1:
            raise ValueError("connect_attempts must be positive")
        self.num_workers = len(addresses)
        self._addresses = list(addresses)
        self._keys = list(keys)
        self._connect_timeout = connect_timeout
        self._connect_attempts = connect_attempts
        self._backoff_base = backoff_base_seconds
        self._links: list[_RemoteLink | None] = [None] * self.num_workers
        self._result_queue: queue.Queue = queue.Queue()
        self.connects = 0
        self.reconnects = 0

    # -- the router interface --------------------------------------------------

    def slot_for(self, shard_index: int) -> int:
        return shard_index % self.num_workers

    def worker_alive(self, slot: int) -> bool:
        link = self._links[slot]
        return link is not None and link.alive

    def dead_slots(self) -> list[int]:
        """Slots whose worker was reached once but is no longer alive."""
        return [
            slot
            for slot, link in enumerate(self._links)
            if link is not None and not self.worker_alive(slot)
        ]

    def _connect(self, slot: int) -> None:
        """Dial one worker with bounded exponential backoff."""
        address = self._addresses[slot]
        last_error: Exception | None = None
        for attempt in range(self._connect_attempts):
            if attempt:
                time.sleep(self._backoff_base * (2 ** (attempt - 1)))
            try:
                self._links[slot] = _RemoteLink(
                    address, self._keys[slot], self._result_queue,
                    self._connect_timeout,
                )
                self.connects += 1
                return
            except (OSError, RemoteProtocolError) as exc:
                last_error = exc
        raise RemoteWorkerUnavailable(
            f"worker at {address[0]}:{address[1]} unreachable after "
            f"{self._connect_attempts} attempts: {last_error}"
        )

    def ensure_worker(self, slot: int) -> None:
        if self.worker_alive(slot):
            return
        if self._links[slot] is not None:
            self.replace(slot)
        else:
            self._connect(slot)

    def replace(self, slot: int) -> None:
        """Drop a (dead or live) connection and dial the worker again."""
        link = self._links[slot]
        if link is not None:
            link.close()
            self._links[slot] = None
            self.reconnects += 1
        self._connect(slot)

    def send(self, shard_index: int, frame: bytes) -> None:
        slot = self.slot_for(shard_index)
        self.ensure_worker(slot)
        self._links[slot].send_frame(frame)

    def recv(self, timeout: float) -> bytes:
        """Next ack frame; raises ``queue.Empty`` after ``timeout`` seconds."""
        return self._result_queue.get(timeout=timeout)

    def drain_stale(self) -> None:
        while True:
            try:
                self._result_queue.get_nowait()
            except queue.Empty:
                return

    def close(self) -> None:
        """Close every connection; the workers keep running for the next
        coordinator."""
        for slot, link in enumerate(self._links):
            if link is not None:
                link.close()
                self._links[slot] = None




def spawn_local_worker(key: bytes) -> tuple[multiprocessing.Process, tuple[str, int]]:
    """Fork one worker serving a single sealed session on a loopback port.

    The listener is bound *before* the fork, so the returned address is
    reserved before the child runs (a connection made early waits in the
    backlog) and the parent closes its copy at once.  Forked on purpose: the
    child inherits the parent's modules as they stand, so a wrapped
    ``affinity.serve_resident_frame`` is what it serves, and it touches none
    of the parent's locks — it serves only its own listener, so the
    coordinator's ack-reader threads are no hazard.  It exits when its one
    session ends, cleanly or not.
    """
    server = RemoteWorkerServer("127.0.0.1", 0, key, max_sessions=1)
    process = multiprocessing.get_context("fork").Process(
        target=server.serve_forever, name="privapprox-resident", daemon=True
    )
    try:
        process.start()
    finally:
        server.stop()  # the parent's copy of the listener only
    return process, server.address


class LocalWorkerTransport(RemoteWorkerTransport):
    """``framed-wire-local``: sealed workers this coordinator spawns itself.

    Each slot is a child from :func:`spawn_local_worker` under a fresh
    ``secrets.token_bytes(32)`` key that exists only in this process and its
    children; the workers speak exactly the sealed protocol a separately
    launched worker does.

    A worker is dead once its socket hits EOF or its child has exited.
    ``replace`` respawns the child (its resident state died with it) rather
    than redialing, and ``close`` ends every session — each child serves one
    session and exits on its clean EOF — then joins the children.
    """

    def __init__(self, num_workers: int):
        super().__init__(
            [("127.0.0.1", 0)] * num_workers,
            [secrets.token_bytes(RECOMMENDED_KEY_BYTES) for _ in range(num_workers)],
        )
        self._processes: list[multiprocessing.Process | None] = [None] * num_workers

    def worker_alive(self, slot: int) -> bool:
        process = self._processes[slot]
        return (
            process is not None
            and process.exitcode is None
            and super().worker_alive(slot)
        )

    def _connect(self, slot: int) -> None:
        """Spawn a fresh worker child for the slot, then dial it."""
        self._stop_process(slot)
        self._processes[slot], self._addresses[slot] = spawn_local_worker(
            self._keys[slot]
        )
        super()._connect(slot)

    def _stop_process(self, slot: int) -> None:
        process = self._processes[slot]
        if process is None:
            return
        process.join(timeout=2.0)
        if process.exitcode is None:
            process.terminate()
            process.join(timeout=2.0)
        self._processes[slot] = None

    def close(self) -> None:
        super().close()
        for slot in range(self.num_workers):
            self._stop_process(slot)
