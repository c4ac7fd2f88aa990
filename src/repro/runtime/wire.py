"""Wire format for the worker-resident protocol (pinned-worker runtime).

The in-process drivers hand live objects between their stages; the pinned
workers (:mod:`repro.runtime.affinity`) cannot — a worker process shares
nothing with the parent, and a multi-machine deployment would share even
less.  This module is the serialization boundary: everything that crosses a
process border travels as one *framed byte blob*, and every blob travels
inside an HMAC-sealed envelope (:mod:`repro.runtime.remote`), whether the
worker is a local child on loopback or a separately launched host.

**The payload is pickle: decode only bytes you authenticated.**  The frame
header authenticates nothing — ``pickle.loads`` on attacker-supplied bytes
is arbitrary code execution.  No worker path has an exemption: a worker
reaches :func:`decode_frame` only with bytes whose envelope MAC verified
under the session key, and the coordinator decodes acks only after the same
check.  Moving these frames onto any other transport requires the same
authenticated channel between mutually trusted hosts, or replacing the
payload with a non-executable codec.

**This is simulation-harness state transfer, not a client protocol.**  The
frames carry what the *simulation* holds on behalf of each simulated device:
raw private table rows, PRF keys, truthful answer bits.  In the paper's
threat model none of that may ever leave a real client — the only deployable
client-to-proxy wire is the randomized, XOR-encrypted shares
(:mod:`repro.core.encryption`).  A real multi-machine deployment of this
executor would place *whole simulated clients* on remote machines (each
remote worker is a stand-in for a fleet of devices), never relay client
plaintext through an untrusted hop.

The worker-resident triple keeps client state inside pinned workers behind
sticky shard→worker affinity, so only what changed crosses the border after
the first epoch:

* :class:`ShardBootstrap` — parent → worker, sent once per shard (and again
  on cache miss, worker replacement or a non-append table change): full client
  snapshots plus the epoch to answer right after installing them.
* :class:`ShardDelta` — parent → worker, the steady-state frame: the epoch
  and query ids to answer, one optional :class:`ClientDelta` per client
  (subscription changes, appended stream rows) and the continuity token the
  parent last adopted for the shard.
* :class:`ShardAck` — worker → parent: one
  :class:`~repro.core.client.ResponseBlock` per query, a 32-byte continuity
  token (the SHA-256 of the frame just served, which the parent checks
  against the bytes it sent), and ``bootstrap_required`` when the worker
  cannot serve the delta (cache miss or token mismatch) so the parent falls
  back to a bootstrap frame.  No client state ever travels back: answering
  changes none (every draw is addressed by client, query and epoch,
  :mod:`repro.core.seeding`), so the parent's copy stays current
  (:mod:`repro.runtime.affinity`).

Versioning: every frame kind is emitted and accepted at exactly
:data:`WIRE_VERSION`; older and unknown future versions are rejected rather
than silently misread.  Kinds 1 and 2 (the retired snapshot-shipping
pair) are unknown kinds like any other.

The frame is ``magic ("PAWF") + version + kind + payload length + payload``;
the payload is a pickle of the dataclass (pickle because the snapshots carry
arbitrary query/answer dataclasses; the frame means the *transport* never
needs to know that).

All encoding/decoding failures — unpicklable client state, truncated or
foreign bytes, version drift, a response block whose columns do not fit its
rows — surface as :class:`WireError`.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass

WIRE_MAGIC = b"PAWF"
# Version 3: worker-resident client state — bootstrap/delta/ack frames carry
# state once and tiny per-epoch deltas afterwards.  Kinds 1 and 2 belonged
# to the retired snapshot-shipping pair and are never reused.
# Version 4: an ack carries one shape-checked ResponseBlock per query
# instead of a tuple of per-answer responses.
# Version 5: a block's bit columns are packed eight bits to a byte.
WIRE_VERSION = 5

_KIND_SHARD_BOOTSTRAP = 3
_KIND_SHARD_DELTA = 4
_KIND_SHARD_ACK = 5

# magic, version, kind, payload length
_FRAME_FORMAT = ">4sBBI"
_FRAME_SIZE = struct.calcsize(_FRAME_FORMAT)


def _kind_name(kind: int | None) -> str:
    """Human-readable frame-kind label for error messages."""
    names = {
        _KIND_SHARD_BOOTSTRAP: "ShardBootstrap",
        _KIND_SHARD_DELTA: "ShardDelta",
        _KIND_SHARD_ACK: "ShardAck",
    }
    return f"{names.get(kind, 'unknown')}({kind})"


class WireError(Exception):
    """Raised when a runtime wire frame cannot be (de)serialized.

    Every raise site attaches whatever framing context it had already
    parsed, so one log line locates the corruption in a byte stream:

    * ``kind`` — the frame kind declared by the header, when the header got
      that far (``None`` for pre-header failures like a bad magic);
    * ``declared_length`` — the payload length the header claimed;
    * ``offset`` — the byte offset, relative to the start of the frame (or
      of the enclosing stream, for transports that track one), where the
      problem was detected.

    The context is folded into the message (``... [kind=ShardDelta(4),
    declared_length=512, offset=10]``) and kept as attributes for callers
    that branch on it.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: int | None = None,
        declared_length: int | None = None,
        offset: int | None = None,
    ):
        details = []
        if kind is not None:
            details.append(f"kind={_kind_name(kind)}")
        if declared_length is not None:
            details.append(f"declared_length={declared_length}")
        if offset is not None:
            details.append(f"offset={offset}")
        if details:
            message = f"{message} [{', '.join(details)}]"
        super().__init__(message)
        self.kind = kind
        self.declared_length = declared_length
        self.offset = offset


@dataclass(frozen=True)
class ClientDelta:
    """What changed on one client, parent-side, since the last frame.

    ``subscribe`` holds ``(query, parameters)`` pairs to (re)subscribe — new
    queries and re-tuned parameters alike; ``unsubscribe`` holds query ids to
    drop; ``append_rows`` holds ``(table_name, columns, rows)`` triples of
    stream rows appended to local tables (the table is created from
    ``columns`` if the resident client does not have it yet).  Applied by
    :meth:`repro.core.client.Client.apply_delta`.
    """

    subscribe: tuple = ()
    unsubscribe: tuple = ()
    append_rows: tuple = ()


@dataclass(frozen=True)
class ShardBootstrap:
    """Full client snapshots for one shard, plus the epoch to answer.

    A snapshot (:meth:`repro.core.client.Client.export_state`) is the
    client's config, its 32-byte PRF key, its tables and its subscriptions.

    Sent once per (shard, worker) pairing — and again whenever the parent
    cannot trust or reuse the worker-resident copy: cache miss, token
    mismatch, worker replacement, a table change that is not an append, or
    an engine reused on a new deployment.  An empty ``query_ids`` installs
    state without answering.
    """

    shard_index: int
    epoch: int
    query_ids: tuple
    client_states: tuple


@dataclass(frozen=True)
class ShardDelta:
    """The steady-state parent → worker frame: answer an epoch from residency.

    ``deltas`` holds one :class:`ClientDelta` or ``None`` per resident client
    (client order); ``expected_fingerprint`` is the continuity token the
    parent adopted from the last ack — the worker refuses (with
    ``bootstrap_required``) unless it is the token it last acked, which
    chains the tokens.  An empty ``query_ids`` tuple applies the deltas and
    answers nothing.
    """

    shard_index: int
    epoch: int
    query_ids: tuple
    deltas: tuple
    expected_fingerprint: bytes


@dataclass(frozen=True)
class ShardAck:
    """The worker's reply to a bootstrap or delta frame.

    ``responses`` holds one :class:`~repro.core.client.ResponseBlock` per
    frame query, its rows the shard's participants (empty when the frame
    named none); ``fingerprint`` is the continuity
    token — the SHA-256 of the frame this ack answers, empty when it answered
    none.  ``bootstrap_required`` reports a cache miss or token mismatch (no
    answering happened); ``error`` carries ``(type_name, message)`` of a
    worker-side exception so the parent can surface it without the worker
    process dying.
    """

    shard_index: int
    epoch: int
    wall_seconds: float = 0.0
    responses: tuple = ()
    fingerprint: bytes = b""
    bootstrap_required: bool = False
    error: tuple | None = None


def _encode(obj, kind: int) -> bytes:
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise WireError(f"cannot serialize {type(obj).__name__}: {exc}") from exc
    return struct.pack(_FRAME_FORMAT, WIRE_MAGIC, WIRE_VERSION, kind, len(payload)) + payload


def _decode_header(data: bytes) -> tuple[int, int]:
    """Validate the frame header; return ``(kind, payload length)``.

    A frame is accepted only at exactly :data:`WIRE_VERSION`, whatever its
    kind — every sender stamps it, so anything else is drift or garbage.
    """
    if len(data) < _FRAME_SIZE:
        raise WireError(
            f"frame too short: {len(data)} bytes "
            f"(a frame header is {_FRAME_SIZE} bytes)",
            offset=len(data),
        )
    magic, version, frame_kind, length = struct.unpack(_FRAME_FORMAT, data[:_FRAME_SIZE])
    if magic != WIRE_MAGIC:
        raise WireError(f"bad magic {magic!r}: not a runtime wire frame", offset=0)
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (expected {WIRE_VERSION})",
            kind=frame_kind if frame_kind in _TYPE_BY_KIND else None,
            declared_length=length,
            offset=4,
        )
    if frame_kind not in _TYPE_BY_KIND:
        raise WireError(
            f"unknown frame kind {frame_kind}", declared_length=length, offset=5
        )
    return frame_kind, length


def _decode_payload(data: bytes, kind: int, length: int, expected_type: type):
    payload = data[_FRAME_SIZE:]
    if len(payload) != length:
        raise WireError(
            f"frame declares {length} payload bytes, got {len(payload)}",
            kind=kind,
            declared_length=length,
            offset=_FRAME_SIZE + min(length, len(payload)),
        )
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise WireError(
            f"cannot deserialize frame payload: {exc}",
            kind=kind,
            declared_length=length,
            offset=_FRAME_SIZE,
        ) from exc
    if not isinstance(obj, expected_type):
        raise WireError(
            f"frame payload is {type(obj).__name__}, expected {expected_type.__name__}",
            kind=kind,
            declared_length=length,
            offset=_FRAME_SIZE,
        )
    return obj


def _decode(data: bytes, kind: int, expected_type: type):
    frame_kind, length = _decode_header(data)
    if frame_kind != kind:
        raise WireError(
            f"unexpected frame kind {frame_kind} (expected {kind})",
            kind=frame_kind,
            declared_length=length,
            offset=5,
        )
    return _decode_payload(data, kind, length, expected_type)


def encode_shard_bootstrap(bootstrap: ShardBootstrap) -> bytes:
    """Frame one shard bootstrap (full snapshots) into bytes."""
    return _encode(bootstrap, _KIND_SHARD_BOOTSTRAP)


def decode_shard_bootstrap(data: bytes) -> ShardBootstrap:
    """Decode bytes produced by :func:`encode_shard_bootstrap`."""
    return _decode(data, _KIND_SHARD_BOOTSTRAP, ShardBootstrap)


def encode_shard_delta(delta: ShardDelta) -> bytes:
    """Frame one shard delta (steady-state epoch work) into bytes."""
    return _encode(delta, _KIND_SHARD_DELTA)


def decode_shard_delta(data: bytes) -> ShardDelta:
    """Decode bytes produced by :func:`encode_shard_delta`."""
    return _decode(data, _KIND_SHARD_DELTA, ShardDelta)


def encode_shard_ack(ack: ShardAck) -> bytes:
    """Frame one shard ack (a resident worker's reply) into bytes."""
    return _encode(ack, _KIND_SHARD_ACK)


def decode_shard_ack(data: bytes) -> ShardAck:
    """Decode bytes produced by :func:`encode_shard_ack`.

    Every block in ``responses`` was shape-checked as it unpickled; a block
    that fails the check, or an entry that is not a block, is a
    :class:`WireError`, so a bad ack fails its shard and never reaches the
    engine's gate.
    """
    # Imported here: repro.core imports repro.runtime at package level.
    from repro.core.client import ResponseBlock

    ack = _decode(data, _KIND_SHARD_ACK, ShardAck)
    blocks = ack.responses
    if not isinstance(blocks, tuple) or not all(
        isinstance(block, ResponseBlock) for block in blocks
    ):
        raise WireError(
            "ShardAck.responses must hold one ResponseBlock per query",
            kind=_KIND_SHARD_ACK,
            declared_length=len(data) - _FRAME_SIZE,
            offset=_FRAME_SIZE,
        )
    return ack


_TYPE_BY_KIND = {
    _KIND_SHARD_BOOTSTRAP: ShardBootstrap,
    _KIND_SHARD_DELTA: ShardDelta,
    _KIND_SHARD_ACK: ShardAck,
}


def decode_frame(data: bytes):
    """Decode any runtime wire frame, dispatching on its header kind.

    A resident worker serves bootstrap and delta frames from one sealed
    channel; this is its single entry point.  Raises :class:`WireError` exactly
    like the kind-specific decoders (the header is parsed and validated once).
    """
    frame_kind, length = _decode_header(data)
    return _decode_payload(data, frame_kind, length, _TYPE_BY_KIND[frame_kind])
