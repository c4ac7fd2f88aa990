"""The PrivApprox client: local data, sampling, query answering, encryption.

Each client stores its user's private data in a local database and subscribes
to queries.  In every answering epoch a client (Section 3.2):

1. flips the sampling coin (Step I) — non-participants send nothing;
2. executes the analyst's SQL against its local database and buckets the
   resulting value into the n-bit truthful answer vector;
3. randomizes the vector with the two-coin randomized response (Step II);
4. encodes ``<QID, randomized answer>`` and splits it into XOR shares, one per
   proxy (Step III).

The client never transmits its truthful answer: only the randomized,
encrypted shares leave the device.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import random
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.admission import participation_token
from repro.core.budget import ExecutionParameters
from repro.core.encryption import AnswerCodec, EncryptedAnswer
from repro.core.query import Query, QueryAnswer
from repro.core.randomized_response import RandomizedResponder
from repro.core.sampling import SimpleRandomSampler
from repro.core.seeding import derive_query_seed, derive_query_seed_bytes
from repro.crypto.prng import KeystreamGenerator, secure_random_bytes
from repro.crypto.xor import MessageShare
from repro.sqldb import Database


@dataclass(frozen=True)
class ClientConfig:
    """Static configuration of one client device."""

    client_id: str
    num_proxies: int = 2
    table_name: str = "private_data"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.num_proxies < 2:
            raise ValueError("PrivApprox requires at least two proxies")


@dataclass(frozen=True)
class ClientResponse:
    """What a participating client produces for one epoch.

    ``encrypted`` carries the shares to transmit.  ``truthful_bits`` and
    ``randomized_bits`` are ``bytes`` holding one 0/1 byte per answer bit.
    ``truthful_bits`` is kept *only* for evaluation purposes (computing exact
    baselines in experiments); it is never placed on the wire by
    :class:`~repro.core.system.PrivApproxSystem`, whose response log packs
    these fields into bytes blocks (:func:`pack_responses`).
    """

    client_id: str
    query_id: str
    epoch: int
    encrypted: EncryptedAnswer
    truthful_bits: bytes
    randomized_bits: bytes


@dataclass(frozen=True)
class LateAnswer:
    """What a participant known to be late leaves instead of a response.

    :meth:`Client.answer` with ``late=True`` advanced the client's streams as
    a built answer would have and built nothing; the marker names the answer
    just well enough for the deadline gate to drop and record it
    (``should_drop`` reads ``client_id`` and ``query_id``).  It carries no
    shares, so it must never get past the gate.
    """

    client_id: str
    query_id: str
    epoch: int


# The header of a packed response block: response count, epoch, bit width,
# share count, payload width.
_BLOCK_HEADER = struct.Struct(">IqHHI")


def _block_shape(response: ClientResponse) -> tuple[int, int, int, int]:
    """The header fields every response in one block shares."""
    shares = response.encrypted.shares
    return (response.epoch, len(response.truthful_bits), len(shares), len(shares[0].payload))


def _pack_column(values: list[bytes]) -> bytes:
    return struct.pack(f">{len(values)}H", *map(len, values)) + b"".join(values)


def _unpack_column(block: bytes, offset: int, count: int) -> tuple[list[bytes], int]:
    lengths = struct.unpack_from(f">{count}H", block, offset)
    offset += 2 * count
    values = []
    for length in lengths:
        values.append(block[offset : offset + length])
        offset += length
    return values, offset


def pack_responses(responses: Sequence[ClientResponse]) -> list[bytes]:
    """Pack one query's responses into ``bytes`` blocks, in order.

    A block holds the header (:data:`_BLOCK_HEADER`); the client-id and MID
    columns, each as its ``>H`` lengths then the UTF-8 bytes; the truthful-bit
    and randomized-bit columns; and one payload column per share position.
    Every answer to one query in one epoch has the same width
    (:meth:`~repro.core.encryption.AnswerCodec.encoded_length`), so an
    epoch's responses make one block; a response whose epoch or widths differ
    starts a new block, which keeps the log order.  A share's MID and index
    are not stored: :func:`~repro.crypto.xor.split_message` gives every share
    its answer's MID and its position as index.
    """
    blocks = []
    for shape, run in itertools.groupby(responses, _block_shape):
        run = list(run)
        parts = [
            _BLOCK_HEADER.pack(len(run), *shape),
            _pack_column([response.client_id.encode("utf-8") for response in run]),
            _pack_column([response.encrypted.message_id.encode("utf-8") for response in run]),
            b"".join([response.truthful_bits for response in run]),
            b"".join([response.randomized_bits for response in run]),
        ]
        for position in range(shape[2]):
            column = [response.encrypted.shares[position].payload for response in run]
            parts.append(b"".join(column))
        blocks.append(b"".join(parts))
    return blocks


def unpack_responses(block: bytes, query_id: str) -> Iterator[ClientResponse]:
    """Rebuild a :func:`pack_responses` block's responses one at a time."""
    count, epoch, width, num_shares, payload_width = _BLOCK_HEADER.unpack_from(block)
    client_ids, offset = _unpack_column(block, _BLOCK_HEADER.size, count)
    message_ids, truthful = _unpack_column(block, offset, count)
    randomized = truthful + count * width
    first_payload = randomized + count * width
    payloads = [first_payload + index * count * payload_width for index in range(num_shares)]
    for row, (client_id, message_id) in enumerate(zip(client_ids, message_ids)):
        message_id = message_id.decode("utf-8")
        bits = row * width
        start = row * payload_width
        shares = tuple(
            MessageShare(message_id, block[column + start : column + start + payload_width], index)
            for index, column in enumerate(payloads)
        )
        yield ClientResponse(
            client_id=client_id.decode("utf-8"),
            query_id=query_id,
            epoch=epoch,
            encrypted=EncryptedAnswer(message_id=message_id, shares=shares),
            truthful_bits=block[truthful + bits : truthful + bits + width],
            randomized_bits=block[randomized + bits : randomized + bits + width],
        )


class ResponseLog(Sequence):
    """A read-only sequence over one query's packed response log.

    Evaluation only: it is what :meth:`PrivApproxSystem.responses_log` hands
    out.  Indexing and iteration rebuild value-equal :class:`ClientResponse`
    objects one at a time from the blocks, so reading the log never holds
    all of it as objects.  It compares equal to any sequence
    of equal responses (``log == []`` included).
    """

    def __init__(self, query_id: str, blocks: Sequence[bytes]):
        self._query_id = query_id
        self._blocks = tuple(blocks)
        self._ends = list(
            itertools.accumulate(_BLOCK_HEADER.unpack_from(block)[0] for block in self._blocks)
        )

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[ClientResponse]:
        for block in self._blocks:
            yield from unpack_responses(block, self._query_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("response log index out of range")
        block = bisect.bisect_right(self._ends, index)
        first = self._ends[block - 1] if block else 0
        rows = unpack_responses(self._blocks[block], self._query_id)
        return next(itertools.islice(rows, index - first, None))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ResponseLog({self._query_id!r}, {len(self)} responses)"


@functools.lru_cache(maxsize=4)
def _rng_words(count: int) -> struct.Struct:
    """The little-endian layout of ``count`` Mersenne Twister state words."""
    return struct.Struct(f"<{count}I")


def _pack_rng_state(state: tuple) -> tuple:
    """Pack a ``random.Random`` state's word tuple into raw bytes.

    The Mersenne Twister state is 625 machine words; pickled as a tuple of
    Python ints it dominates a client snapshot (~3.8 KB of ~4.7 KB) and costs
    625 object allocations to unpickle.  Packed with :mod:`struct` it is a
    single 2.5 KB bytes blob that copies across the wire untouched.
    """
    version, internal, gauss_next = state
    return (version, _rng_words(len(internal)).pack(*internal), gauss_next)


def _unpack_rng_state(packed: tuple) -> tuple:
    """Invert :func:`_pack_rng_state` back into ``random.Random.setstate`` form."""
    version, blob, gauss_next = packed
    return (version, _rng_words(len(blob) // 4).unpack(blob), gauss_next)


def _digest_keystream(digest, state: tuple) -> None:
    """Feed one ``KeystreamGenerator.getstate()`` triple into a digest."""
    seed, counter, buffer = state
    digest.update(seed)
    digest.update(struct.pack(">Q", counter))
    digest.update(buffer)


# The snapshot fields a pinned worker advances on the parent's behalf — the
# per-query RNG states, the per-query keystream states and the client-level
# keystream — in the order Client._stream_state builds them and
# _stream_values hands them to adopt_rng_state / state_fingerprint.
STREAM_STATE_FIELDS = ("rng_states", "query_keystream_states", "keystream_state")


def _stream_values(state: dict) -> tuple:
    """A snapshot's stream fields, in :data:`STREAM_STATE_FIELDS` order."""
    return tuple(state[field] for field in STREAM_STATE_FIELDS)


class Client:
    """A client device participating in PrivApprox."""

    def __init__(self, config: ClientConfig):
        self.config = config
        self.database = Database(name=f"client-{config.client_id}")
        self._keystream = KeystreamGenerator(
            seed=None if config.seed is None else config.seed.to_bytes(8, "big", signed=True)
        )
        self._codec = AnswerCodec()
        self._subscriptions: dict[str, tuple[Query, ExecutionParameters]] = {}
        # One independent seeded RNG and encryption keystream per subscribed
        # query, created lazily on first answer.  Sharing a single RNG or
        # keystream between subscriptions would let a co-subscribed query
        # perturb another query's sampling, randomization or pad draws; with
        # per-query streams a query's responses — encrypted shares included —
        # are byte-identical whether or not other queries ride the same
        # epoch.  (self._keystream remains the client-level stream behind the
        # token secret.)
        self._rngs: dict[str, random.Random] = {}
        self._keystreams: dict[str, KeystreamGenerator] = {}
        # Sampler/responder pairs cached per (query, parameter set): both only
        # hold the (p, q, s) constants plus a reference to that query's RNG,
        # so reuse across epochs draws exactly the same random sequence as
        # fresh instances while avoiding two allocations per answer.
        self._mechanisms: dict[
            tuple[str, ExecutionParameters],
            tuple[SimpleRandomSampler, RandomizedResponder],
        ] = {}
        # Local secret behind the anonymous per-epoch participation tokens;
        # it never leaves the device.
        if config.seed is None:
            self._token_secret = secure_random_bytes(32)
        else:
            self._token_secret = self._keystream.next_bytes(32)

    # -- state snapshot (pinned-worker runtime) -------------------------------

    def _stream_state(self) -> dict:
        """The advancing streams, packed: one ``getstate()`` per stream.

        The single place that says what a pinned worker advances on the
        parent's behalf (:data:`STREAM_STATE_FIELDS`); the full snapshot, the
        stream-only checkpoint form, the graft and the fingerprint all start
        from this dict.  :meth:`state_fingerprint` calls this rather than
        :meth:`export_state` so that an ``export_state`` call keeps meaning
        "a snapshot or checkpoint was taken" to anyone counting them.
        """
        return dict(
            zip(
                STREAM_STATE_FIELDS,
                (
                    {
                        query_id: _pack_rng_state(rng.getstate())
                        for query_id, rng in self._rngs.items()
                    },
                    {
                        query_id: keystream.getstate()
                        for query_id, keystream in self._keystreams.items()
                    },
                    self._keystream.getstate(),
                ),
            )
        )

    def export_state(self, *, streams_only: bool = False) -> dict:
        """Capture everything another process needs to *be* this client.

        The snapshot is a plain picklable dict: the static config, the
        mid-stream RNG and keystream states, the token secret, the local
        tables (schema plus raw rows) and the active subscriptions.  A client
        rebuilt with :meth:`from_state` continues the exact random sequences
        of the original, which is what keeps the pinned-worker epoch runtime
        byte-identical to the serial reference (``repro.runtime.wire`` frames
        these snapshots into shard bootstraps).

        ``streams_only=True`` is the checkpoint form the worker-resident
        runtime acks with: just the :data:`STREAM_STATE_FIELDS` that
        :meth:`adopt_rng_state` grafts — no config, token secret, tables or
        subscriptions, so its size is O(subscribed queries) however long the
        local stream has grown.  It cannot be passed to :meth:`from_state`.

        Columnar mirrors and secondary indexes are deliberately *not*
        shipped: they are derived state, lazily rebuilt from raw rows on the
        restored side and incrementally maintained from then on — and the
        differential suite asserts the rebuilt and incrementally-maintained
        lifecycles answer identically.
        """
        state = self._stream_state()
        if streams_only:
            return state
        tables = []
        for name in self.database.table_names():
            table = self.database.table(name)
            tables.append(
                (
                    name,
                    tuple((column.name, column.sql_type) for column in table.columns),
                    tuple(table.rows),
                )
            )
        state.update(
            config=self.config,
            token_secret=self._token_secret,
            tables=tables,
            subscriptions=tuple(
                self._subscriptions[query_id] for query_id in self.subscribed_query_ids
            ),
        )
        return state

    @classmethod
    def from_state(cls, state: dict) -> "Client":
        """Reconstruct a client from a full :meth:`export_state` snapshot.

        The constructor seeds fresh RNG/keystream instances from the config;
        they are immediately overwritten with the captured mid-stream states,
        so the restored client's next draw equals the original's next draw.
        """
        client = cls(state["config"])
        client.adopt_rng_state(state)
        client._token_secret = state["token_secret"]
        for name, columns, rows in state["tables"]:
            client.database.create_table(name, list(columns))
            client.database.table(name).append_rows(rows)
        for query, parameters in state["subscriptions"]:
            client.subscribe(query, parameters)
        return client

    @staticmethod
    def holds_stream_state(state) -> bool:
        """Whether ``state`` carries every field :meth:`adopt_rng_state` reads.

        Lets a caller validate a whole batch of records *before* the first
        graft, so a malformed checkpoint is refused instead of half-adopted.
        """
        return isinstance(state, dict) and all(
            field in state for field in STREAM_STATE_FIELDS
        )

    def adopt_rng_state(self, state: dict) -> None:
        """Graft a snapshot's RNG/keystream state onto this *live* client.

        The worker-resident runtime splits authority over a client in two:
        the parent stays authoritative for tables and subscriptions (it
        mutates them directly), the pinned worker for the advancing
        RNG/keystream streams.  Checkpoints and syncs reunite the two by
        grafting the random-stream fields of the worker's export (the
        ``streams_only`` form is all a checkpoint ack carries; a full
        snapshot works too) onto the parent's live object — tables and
        subscriptions are deliberately left untouched, so parent-side
        mutations that postdate the export are never lost.
        """
        rng_states, keystream_states, keystream_state = _stream_values(state)
        for query_id, packed in rng_states.items():
            self._rng_for(query_id).setstate(_unpack_rng_state(packed))
        for query_id, query_keystream_state in keystream_states.items():
            self._keystream_for(query_id).setstate(query_keystream_state)
        self._keystream.setstate(keystream_state)

    def state_fingerprint(self) -> bytes:
        """A digest of everything the answering path draws from.

        The digest *of* the stream-only export (per-query RNG states,
        per-query and client-level keystream states) plus the client id and
        the token secret — the exact fields a resident worker advances on the
        parent's behalf.  Two clients agree on the fingerprint iff their next
        draws agree; tables and subscriptions are excluded on purpose.  This
        is the *oracle* tests compare stream positions with (the draw-only
        twin property, recovery and export tests); no runtime path calls it —
        the resident protocol vouches for frames, not for state.
        """
        rng_states, keystream_states, keystream_state = _stream_values(
            self._stream_state()
        )
        digest = hashlib.sha256()
        digest.update(self.config.client_id.encode("utf-8"))
        digest.update(self._token_secret)
        for query_id in sorted(rng_states):
            version, blob, gauss_next = rng_states[query_id]
            digest.update(query_id.encode("utf-8"))
            digest.update(struct.pack(">I", version))
            digest.update(blob)
            digest.update(repr(gauss_next).encode("utf-8"))
        for query_id in sorted(keystream_states):
            digest.update(query_id.encode("utf-8"))
            _digest_keystream(digest, keystream_states[query_id])
        _digest_keystream(digest, keystream_state)
        return digest.digest()

    def apply_delta(self, delta) -> None:
        """Apply a parent-side :class:`~repro.runtime.wire.ClientDelta`.

        Subscription changes are upserts/removals; ``append_rows`` ingests
        new stream rows into local tables (creating a table from its shipped
        columns on first sight).  Applying the deltas the parent derived from
        its live client leaves a resident client's tables and subscriptions
        equal to the parent's — without re-shipping anything unchanged.
        """
        for query_id in delta.unsubscribe:
            self.unsubscribe(query_id)
        for query, parameters in delta.subscribe:
            self.subscribe(query, parameters)
        for table_name, columns, rows in delta.append_rows:
            if table_name not in self.database.table_names():
                self.database.create_table(table_name, list(columns))
            self.database.table(table_name).append_rows(rows)

    # -- local data management ------------------------------------------------

    def create_table(self, columns: list[tuple[str, str]], table_name: str | None = None) -> None:
        """Create the local private-data table."""
        self.database.create_table(table_name or self.config.table_name, columns)

    def ingest(self, records: list[dict[str, Any]], table_name: str | None = None) -> int:
        """Store private records locally (they never leave the device raw)."""
        return self.database.insert_rows(table_name or self.config.table_name, records)

    def local_row_count(self, table_name: str | None = None) -> int:
        return len(self.database.table(table_name or self.config.table_name))

    # -- query subscription -------------------------------------------------------

    def subscribe(self, query: Query, parameters: ExecutionParameters) -> None:
        """Subscribe to a query distributed by the aggregator via the proxies."""
        self._subscriptions[query.query_id] = (query, parameters)

    def unsubscribe(self, query_id: str) -> None:
        self._subscriptions.pop(query_id, None)

    def is_subscribed(self, query_id: str) -> bool:
        """Whether this client currently holds the query.

        An unsubscribed client is indistinguishable from an absent device —
        it answers nothing and draws nothing — which is what lets the
        scenario layer model churn as subscription churn over a fixed
        client universe.
        """
        return query_id in self._subscriptions

    @property
    def subscribed_query_ids(self) -> list[str]:
        return sorted(self._subscriptions)

    @property
    def subscriptions(self) -> dict[str, tuple]:
        """A copy of the active subscriptions: query id → (query, parameters).

        The pinned-worker runtime diffs this against its recorded baseline
        to derive per-epoch :class:`~repro.runtime.wire.ClientDelta` frames.
        """
        return dict(self._subscriptions)

    # -- query answering -----------------------------------------------------------

    def query_sql(self, query_id: str) -> str | None:
        """The SQL text of a subscribed query, or ``None`` if unknown.

        Lets the shard-wide arena answer path discover which statements an
        epoch will run without touching subscription internals.
        """
        subscription = self._subscriptions.get(query_id)
        return None if subscription is None else subscription[0].sql

    def answer(
        self,
        query_ids: Sequence[str],
        epoch: int = 0,
        scan_cache: dict[str, Any] | None = None,
        *,
        late: bool = False,
    ) -> list[ClientResponse | LateAnswer | None]:
        """Run one answering epoch for many subscribed queries in one pass.

        Returns one entry per query id, ``None`` where the query's sampling
        coin said not to participate (or the query is unknown).  The local
        table scan is shared: queries with the same SQL reuse a single
        database pass, which is what makes a multi-query epoch cheaper than
        answering each query in its own full pass.  Randomness stays
        per-query (each query id owns its seeded RNG *and* encryption
        keystream), so the responses — encrypted shares included — are
        byte-identical to answering each query alone.

        ``scan_cache`` may be pre-seeded by the shard-wide arena path with
        this client's per-SQL outcome: the exception its own evaluation
        would raise, or the latest-row form of its result set (the same
        columns, at most the last row — answering reads only emptiness and
        that row, see :meth:`_execute_query_locally`).  Entries are consumed
        only for queries whose sampling coin says participate, exactly as a
        local pass would be.

        ``late=True`` is for a caller that already knows the epoch's deadline
        gate will drop whatever this client produces: each participating
        query reads its SQL outcome (so a statement that raises for this
        client still raises), advances its streams through
        :meth:`_advance_query` and comes back as a :class:`LateAnswer` marker
        instead of a built response.
        """
        if scan_cache is None:
            scan_cache = {}
        if late:
            return [
                LateAnswer(self.config.client_id, query_id, epoch)
                if self._advance_query(query_id, scan_cache)
                else None
                for query_id in query_ids
            ]
        return [
            self.answer_query(query_id, epoch=epoch, scan_cache=scan_cache)
            for query_id in query_ids
        ]

    def advance(self, query_ids: Sequence[str]) -> list[bool]:
        """Make the draws :meth:`answer` would make, and nothing else.

        The replay primitive: afterwards :meth:`state_fingerprint` equals
        what answering ``query_ids`` for any epoch over any table content
        would have left, but no SQL ran and no answer, token, message or
        share was built.  Returns which queries participated.
        """
        return [self._advance_query(query_id) for query_id in query_ids]

    def _advance_query(
        self, query_id: str, scan_cache: dict[str, Any] | None = None
    ) -> bool:
        """The draw-only twin of :meth:`answer_query`; True for a participant.

        Flips the same sampling coin and, for a participant, makes exactly
        the draws a built answer makes: the randomized-response draws for
        ``num_buckets`` bits, then ``num_proxies - 1`` key strings of the
        encoded message's length off the query's keystream.  Whoever adds a
        draw to :meth:`answer_query` adds it here in the same commit
        (``docs/ARCHITECTURE.md``, draw-compatibility rule 6; the property
        test in ``tests/core/test_properties.py`` fails otherwise).  With a
        ``scan_cache`` the participant also reads its SQL outcome, between
        the coin and the draws like :meth:`answer_query`, so a raising
        statement leaves the same state behind either way.
        """
        subscription = self._subscriptions.get(query_id)
        if subscription is None:
            return False
        query, parameters = subscription
        sampler, responder = self._mechanisms_for(query_id, parameters)
        if not sampler.should_participate():
            return False
        if scan_cache is not None:
            self._query_outcome(query, scan_cache)
        num_bits = query.num_buckets
        responder.advance(num_bits)
        self._keystream_for(query_id).skip(
            (self.config.num_proxies - 1)
            * AnswerCodec.encoded_length(query_id, num_bits)
        )
        return True

    def answer_query(
        self,
        query_id: str,
        epoch: int = 0,
        *,
        scan_cache: dict[str, Any] | None = None,
    ) -> ClientResponse | None:
        """Run one answering epoch for a subscribed query.

        Returns ``None`` when the sampling coin says not to participate (or
        when the query is unknown), otherwise the encrypted response.
        ``scan_cache`` (SQL text → result set) lets a multi-query epoch share
        one table scan across co-subscribed queries; see :meth:`answer`.
        """
        if query_id not in self._subscriptions:
            return None
        query, parameters = self._subscriptions[query_id]

        sampler, responder = self._mechanisms_for(query_id, parameters)
        if not sampler.should_participate():
            return None

        truthful = self._execute_query_locally(query, scan_cache)
        # bytes(bytearray(list)) copies at C speed; bytes(list) iterates.
        truthful_bits = bytes(bytearray(truthful))
        randomized_bits = bytes(bytearray(responder.randomize_vector(truthful)))

        answer = QueryAnswer(
            query_id=query.query_id,
            bits=randomized_bits,
            epoch=epoch,
            token=participation_token(self._token_secret, query.query_id, epoch),
        )
        encrypted = self._codec.encrypt(
            answer,
            num_proxies=self.config.num_proxies,
            keystream=self._keystream_for(query_id),
        )
        return ClientResponse(
            client_id=self.config.client_id,
            query_id=query.query_id,
            epoch=epoch,
            encrypted=encrypted,
            truthful_bits=truthful_bits,
            randomized_bits=randomized_bits,
        )

    def _rng_for(self, query_id: str) -> random.Random:
        """The query's own RNG stream, derived from the client seed.

        The derivation (:func:`~repro.core.seeding.derive_query_seed`) is the
        same one :mod:`repro.core.system` uses to seed per-query error
        estimators: base seed mixed with a CRC of the query id.  An unseeded
        client gets an independent fresh-entropy stream per query.
        """
        rng = self._rngs.get(query_id)
        if rng is None:
            if self.config.seed is None:
                rng = random.Random()
            else:
                rng = random.Random(derive_query_seed(self.config.seed, query_id))
            self._rngs[query_id] = rng
        return rng

    def _keystream_for(self, query_id: str) -> KeystreamGenerator:
        """The query's own encryption keystream, derived like :meth:`_rng_for`.

        A shared keystream would let one query's encryption shift a
        co-subscribed query's pad bytes; per-query keystreams keep even the
        encrypted shares byte-identical with and without co-subscription.
        """
        keystream = self._keystreams.get(query_id)
        if keystream is None:
            if self.config.seed is None:
                keystream = KeystreamGenerator(seed=None)
            else:
                keystream = KeystreamGenerator(
                    seed=derive_query_seed_bytes(self.config.seed, query_id)
                )
            self._keystreams[query_id] = keystream
        return keystream

    def _mechanisms_for(
        self, query_id: str, parameters: ExecutionParameters
    ) -> tuple[SimpleRandomSampler, RandomizedResponder]:
        cached = self._mechanisms.get((query_id, parameters))
        if cached is None:
            rng = self._rng_for(query_id)
            cached = (
                SimpleRandomSampler(parameters.sampling_fraction, rng=rng),
                RandomizedResponder(p=parameters.p, q=parameters.q, rng=rng),
            )
            self._mechanisms[(query_id, parameters)] = cached
        return cached

    def truthful_answer(self, query_id: str) -> list[int]:
        """The truthful (pre-randomization) answer vector.

        Used only by experiments to compute the exact baseline; a deployment
        would never expose this outside the device.
        """
        if query_id not in self._subscriptions:
            raise KeyError(f"client is not subscribed to query {query_id}")
        query, _ = self._subscriptions[query_id]
        return self._execute_query_locally(query)

    def _query_outcome(self, query: Query, scan_cache: dict[str, Any] | None):
        """This client's result set for the analyst's SQL, raising what it raises.

        ``scan_cache`` (keyed by SQL text) deduplicates the database pass
        when several co-subscribed queries in a multi-query epoch run the
        same statement, and may arrive pre-seeded by the shard arena with the
        latest-row form of the result or the exception to raise.
        """
        if scan_cache is not None and query.sql in scan_cache:
            result = scan_cache[query.sql]
            if isinstance(result, BaseException):
                # Arena-precomputed outcome parity: raise exactly what this
                # client's own evaluation would have raised.
                raise result
            return result
        result = self.database.query(query.sql)
        if scan_cache is not None:
            scan_cache[query.sql] = result
        return result

    def _execute_query_locally(
        self, query: Query, scan_cache: dict[str, Any] | None = None
    ) -> list[int]:
        """Run the analyst's SQL on the local database and bucket the result.

        The client answers with the most recent matching row (the paper's
        examples — current driving speed, last ride distance, current power
        draw — are all "latest value" readings).  A client with no matching
        rows answers all-zeros, which still gets randomized so non-matching
        clients are indistinguishable from matching ones.  Only
        ``len(result) > 0``, ``result.columns`` and ``result.rows[-1]`` of
        :meth:`_query_outcome`'s result are read, which is why an
        arena-seeded entry may hold just the last row of what
        ``database.query`` would return.
        """
        result = self._query_outcome(query, scan_cache)
        value = None
        if len(result) > 0:
            column = query.answer_spec.value_column
            row = result.rows[-1]
            if column is not None and column in result.columns:
                value = row[result.columns.index(column)]
            else:
                value = row[0]
        return query.encode_value(value)
