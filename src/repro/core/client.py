"""The PrivApprox client: local data, sampling, query answering, encryption.

Each client stores its user's private data in a local database and subscribes
to queries.  In every answering epoch a client (Section 3.2):

1. flips the sampling coin (Step I) — non-participants send nothing;
2. executes the analyst's SQL against its local database and buckets the
   resulting value into the n-bit truthful answer vector;
3. randomizes the vector with the two-coin randomized response (Step II);
4. encodes ``<QID, randomized answer>`` and reads the pad keys that split it
   into XOR shares, one per proxy (Step III).

Steps 1-2 give each participating query's coin and bucket: a column at a
time over a shard in the engine's answer pass (:func:`coin_columns` and
:func:`answer_value`, the rules it shares with the client), and per client
in :meth:`Client.answer`, serial's path.  Steps 3-4 run a column at a time:
:meth:`ResponseBlock.build` turns a shard's participants in one query into
one :class:`ResponseBlock` — one truthful column from their buckets, one
randomization call, one packing, one header prefix, one XOR split — and the
PRF reads are columns too: every row's randomized-response high bytes in
one read, the tokens in one pass, the pad seeds in one pass, each row still
keyed by its own client; only the hashes and a row's low bytes for the
bits its high bytes left undecided stay per row.  The block is what the
runtime relays, ships and logs.  The client never transmits its truthful
answer: only the randomized, encrypted shares leave the device.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any

# ``participation_token`` stays importable here: the epoch profile's token
# span is patched on this module's name.
from repro.core.admission import participation_token, participation_tokens  # noqa: F401
from repro.core.budget import ExecutionParameters
from repro.core.encryption import AnswerCodec, EncryptedAnswer
from repro.core.query import Query
from repro.core.randomized_response import RandomizedResponder
from repro.core.sampling import SimpleRandomSampler
from repro.core.seeding import (
    EpochDraws,
    client_key,
    coin_uniform,
    first_block_coordinates,
    query_prefix,
    token_secret,
)
from repro.crypto import prng
from repro.crypto.xor import MID_BYTES, MessageShare, ShareColumn, split_columns
from repro.sqldb import ARENA_FALLBACK, Database, arena_select_per_client, scan_forced

_CODEC = AnswerCodec()


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
    """One participant's response as an object: a row of a :class:`ResponseBlock`.

    ``encrypted`` carries the shares.  ``truthful_bits`` and
    ``randomized_bits`` are ``bytes`` holding one 0/1 byte per answer bit.
    ``truthful_bits`` is kept *only* for evaluation purposes (computing exact
    baselines in experiments); it is never placed on the wire.  The runtime
    never builds these: they are the per-answer view
    (:meth:`ResponseBlock.response`) that :class:`ResponseLog` hands out.
    """

    client_id: str
    query_id: str
    epoch: int
    encrypted: EncryptedAnswer
    truthful_bits: bytes
    randomized_bits: bytes


#: A participating coin for one query and epoch (:meth:`Client.flip_coins`):
#: ``(query, responder, draws)``, what building the answer needs once the
#: coin has said participate.  A plain tuple: the answer pass makes one per
#: participant per query.
Participation = tuple[Query, RandomizedResponder, EpochDraws]

#: A participant's answer to one query (:meth:`Client.answer`): its
#: :data:`Participation` and the bucket its latest matching value falls in
#: (``None``: no bucket, the all-zero vector).
Answer = tuple[Participation, int | None]


# The header of a packed response block: row count, epoch, bit width, share
# count, payload width.
_BLOCK_HEADER = struct.Struct(">IqHHI")

# For a row of ``used`` bits in its last byte (1-7): the byte values whose
# pad bits, the low ``8 - used``, are all clear.
_CLEAN_LAST_BYTES = {
    used: bytes(value for value in range(256) if not value & ((1 << (8 - used)) - 1))
    for used in range(1, 8)
}


@dataclass(frozen=True)
class ResponseBlock:
    """One shard's responses to one query in one epoch, as columns.

    Row ``i`` is one participant: ``client_ids[i]``, its 16-byte ``MID`` at
    ``message_ids[16 i:16 (i + 1)]``, its ``num_bits`` truthful and
    randomized bits and, in every one of the ``num_shares`` payload columns,
    its ``width``-byte share — column 0 the encrypted messages ``ME``, the
    others the key strings.  The two bit columns hold their rows in the
    message's packed layout (:meth:`AnswerCodec._pack_bits
    <repro.core.encryption.AnswerCodec._pack_bits>`): ``⌈num_bits / 8⌉``
    bytes a row, first bit high, pad bits clear.  Only the per-answer view
    unpacks them (:meth:`bit_row`, :meth:`response`).  A proxy relays its
    payload column with the ``MID`` column as one
    :class:`~repro.crypto.xor.ShareColumn` (:meth:`share_columns`).

    ``truthful_bits`` is evaluation-only, as it was on
    :class:`ClientResponse`: no proxy ever sees it.  ``late_ids`` names
    participants the answering side already knew were late: they flipped
    their coins and built nothing, and the engine's gate ledgers and clears
    them.

    The shape is checked whenever a block is built, unpickling included:
    one ``MID`` and one packed bit row per client id, no pad bit set (so a
    row of bits has one byte form), at least two payload columns, every one
    ``rows * width`` bytes.
    """

    query_id: str
    epoch: int
    client_ids: tuple
    message_ids: bytes
    num_bits: int
    truthful_bits: bytes
    randomized_bits: bytes
    width: int
    payloads: tuple
    late_ids: tuple = ()

    def __post_init__(self) -> None:
        rows = len(self.client_ids)
        problem = None
        truthful, randomized = self.truthful_bits, self.randomized_bits
        stride, used = (self.num_bits + 7) // 8, self.num_bits % 8
        columns = (self.message_ids, truthful, randomized, *self.payloads)
        if not all(type(column) is bytes for column in columns):
            problem = "every column must be bytes"
        elif len(self.message_ids) != MID_BYTES * rows:
            problem = f"{len(self.message_ids)} MID bytes for {rows} rows"
        elif not len(truthful) == len(randomized) == rows * stride:
            problem = f"bit columns are not {rows} packed rows of {self.num_bits} bits"
        elif used and (
            truthful[stride - 1 :: stride].translate(None, _CLEAN_LAST_BYTES[used])
            or randomized[stride - 1 :: stride].translate(None, _CLEAN_LAST_BYTES[used])
        ):
            problem = "a bit row sets a pad bit"
        elif len(self.payloads) < 2:
            problem = f"{len(self.payloads)} payload column(s), one per proxy needs two or more"
        elif any(len(payload) != rows * self.width for payload in self.payloads):
            problem = f"a payload column is not {rows} rows of {self.width} bytes"
        if problem is not None:
            raise ValueError(f"malformed response block for {self.query_id!r}: {problem}")

    def __reduce__(self):
        # Unpickling goes through __init__, so a block read off the wire is
        # shape-checked exactly like one built here.
        return (ResponseBlock, tuple(getattr(self, f.name) for f in fields(self)))

    @classmethod
    def build(
        cls,
        query_id: str,
        epoch: int,
        answers: Sequence[tuple["Client", Answer]],
        num_proxies: int,
        late_ids: tuple = (),
    ) -> "ResponseBlock":
        """Steps II-III for every ``(client, answer)`` of one query, as one block.

        Rows keep the order given.  One loop over the rows collects the
        client ids, token secrets, responders' tables and draws and sets
        the truthful column's bits, unpacked for randomizing and packed for
        the block (one bit set per row).  One
        :meth:`RandomizedResponder.randomize_vector
        <repro.core.randomized_response.RandomizedResponder.randomize_vector>`
        call randomizes all of it — one per run of rows whose responders
        hold equal threshold tables (one cached object per ``p, q``): the
        system subscribes every client with the query's parameters, so a
        deployment's block is one run, but :meth:`Client.subscribe` can
        re-tune a single client, and its row then keeps its own rates.  One
        conversion packs the randomized column, which is both the block's
        column and what :meth:`AnswerCodec.encode_rows
        <repro.core.encryption.AnswerCodec.encode_rows>` puts under one
        header prefix; :func:`~repro.core.admission.participation_tokens`
        hashes the token column, :meth:`AnswerCodec.pad_columns
        <repro.core.encryption.AnswerCodec.pad_columns>` reads the pad
        column, :func:`~repro.crypto.xor.split_columns` XORs the message
        column with its key columns and one ``secure_random_bytes`` call
        draws the whole ``MID`` column.  Every PRF read is keyed by the
        row's own client and read as a column: the high randomized-response
        bytes, the tokens and the pads; a row reads low bytes only for the
        bits its high bytes did not decide.
        """
        if not answers:
            return cls(query_id, epoch, (), b"", 0, b"", b"", 0, (b"",) * num_proxies, late_ids)
        num_bits = answers[0][1][0][0].answer_spec.num_buckets
        stride = (num_bits + 7) // 8
        rows = len(answers)
        truthful = bytearray(rows * num_bits)
        truthful_packed = bytearray(rows * stride)
        client_ids, secrets, tables, draws = [], [], [], []
        for row, (client, ((_, responder, row_draws), bucket)) in enumerate(answers):
            client_ids.append(client.config.client_id)
            secrets.append(client._token_secret)
            tables.append(responder._tables)
            draws.append(row_draws)
            if bucket is not None:
                if not 0 <= bucket < num_bits:
                    raise ValueError(f"bucket {bucket} outside a {num_bits}-bit answer")
                truthful[row * num_bits + bucket] = 1
                truthful_packed[row * stride + bucket // 8] = 0x80 >> bucket % 8
        truthful = bytes(truthful)
        runs, start = [], 0
        for _, run in itertools.groupby(tables):
            end = start + len(list(run))
            runs.append(
                answers[start][1][0][1].randomize_vector(
                    truthful[start * num_bits : end * num_bits], draws[start:end]
                )
            )
            start = end
        randomized = _CODEC._pack_bits(b"".join(runs), num_bits)
        messages = _CODEC.encode_rows(
            query_id, epoch, participation_tokens(secrets, query_id, epoch), randomized, num_bits
        )
        keys = _CODEC.pad_columns(messages, num_proxies, draws)
        return cls(
            query_id=query_id,
            epoch=epoch,
            client_ids=tuple(client_ids),
            message_ids=prng.secure_random_bytes(MID_BYTES * rows),
            num_bits=num_bits,
            truthful_bits=bytes(truthful_packed),
            randomized_bits=randomized,
            width=len(messages[0]),
            payloads=tuple(split_columns(b"".join(messages), keys)),
            late_ids=late_ids,
        )

    def __len__(self) -> int:
        return len(self.client_ids)

    @property
    def num_shares(self) -> int:
        return len(self.payloads)

    def select(self, rows: Sequence[int]) -> "ResponseBlock":
        """The listed rows, in the order given, as a block (no late ids)."""

        def pick(column: bytes, size: int) -> bytes:
            return b"".join([column[row * size : (row + 1) * size] for row in rows])

        stride, width = (self.num_bits + 7) // 8, self.width
        return ResponseBlock(
            query_id=self.query_id,
            epoch=self.epoch,
            client_ids=tuple([self.client_ids[row] for row in rows]),
            message_ids=pick(self.message_ids, MID_BYTES),
            num_bits=self.num_bits,
            truthful_bits=pick(self.truthful_bits, stride),
            randomized_bits=pick(self.randomized_bits, stride),
            width=width,
            payloads=tuple(pick(payload, width) for payload in self.payloads),
        )

    def share_columns(self) -> list[ShareColumn]:
        """One :class:`~repro.crypto.xor.ShareColumn` per proxy, in share order."""
        return [
            ShareColumn(self.message_ids, payload, index)
            for index, payload in enumerate(self.payloads)
        ]

    def shares(self, row: int) -> list[MessageShare]:
        """Row ``row``'s shares as loose :class:`~repro.crypto.xor.MessageShare` s."""
        message_id = self.message_ids[row * MID_BYTES : (row + 1) * MID_BYTES].hex()
        start, end = row * self.width, (row + 1) * self.width
        return [
            MessageShare(message_id, payload[start:end], index)
            for index, payload in enumerate(self.payloads)
        ]

    def bit_row(self, column: bytes, row: int) -> bytes:
        """Row ``row`` of a bit column (``truthful_bits`` or
        ``randomized_bits``), one 0/1 byte per bit."""
        stride = (self.num_bits + 7) // 8
        return bytes(_CODEC._unpack_bits(column[row * stride : (row + 1) * stride], self.num_bits))

    def response(self, row: int) -> ClientResponse:
        """Row ``row`` as a value-equal :class:`ClientResponse`, its bits unpacked."""
        shares = self.shares(row)
        return ClientResponse(
            client_id=self.client_ids[row],
            query_id=self.query_id,
            epoch=self.epoch,
            encrypted=EncryptedAnswer(message_id=shares[0].message_id, shares=tuple(shares)),
            truthful_bits=self.bit_row(self.truthful_bits, row),
            randomized_bits=self.bit_row(self.randomized_bits, row),
        )

    @classmethod
    def from_bytes(cls, data: bytes, query_id: str) -> "ResponseBlock":
        """Rebuild a :func:`pack_blocks` entry of ``query_id``'s log."""
        rows, epoch, num_bits, num_shares, width = _BLOCK_HEADER.unpack_from(data)
        offset = _BLOCK_HEADER.size
        lengths = struct.unpack_from(f">{rows}H", data, offset)
        offset += 2 * rows
        client_ids = []
        for length in lengths:
            client_ids.append(data[offset : offset + length].decode("utf-8"))
            offset += length
        columns = []
        bits = rows * ((num_bits + 7) // 8)  # packed rows, as in the block
        for size in (MID_BYTES * rows, bits, bits, *[rows * width] * num_shares):
            columns.append(data[offset : offset + size])
            offset += size
        mids, truthful, randomized, *payloads = columns
        return cls(
            query_id, epoch, tuple(client_ids), mids, num_bits, truthful, randomized,
            width, tuple(payloads),
        )


def pack_blocks(blocks: Sequence[ResponseBlock]) -> list[bytes]:
    """One query's epoch of blocks as ``bytes`` log entries, in order.

    An entry is the header (:data:`_BLOCK_HEADER`); the client ids as their
    ``>H`` lengths then their UTF-8 bytes; the raw ``MID`` column; the
    packed truthful-bit and randomized-bit columns, as the blocks hold them;
    the payload columns.
    Consecutive non-empty blocks of one shape — within an epoch that is all
    of them — make one entry; a shape change starts a new one, which keeps
    the log order.
    """
    entries = []
    shape = attrgetter("epoch", "num_bits", "num_shares", "width")
    for (epoch, num_bits, num_shares, width), run in itertools.groupby(
        (block for block in blocks if len(block)), shape
    ):
        run = list(run)
        client_ids = [client_id.encode("utf-8") for b in run for client_id in b.client_ids]
        entries.append(
            b"".join(
                [
                    _BLOCK_HEADER.pack(len(client_ids), epoch, num_bits, num_shares, width),
                    struct.pack(f">{len(client_ids)}H", *map(len, client_ids)),
                    *client_ids,
                    *[block.message_ids for block in run],
                    *[block.truthful_bits for block in run],
                    *[block.randomized_bits for block in run],
                    *[block.payloads[index] for index in range(num_shares) for block in run],
                ]
            )
        )
    return entries


class ResponseLog(Sequence):
    """A read-only sequence over one query's response blocks.

    Evaluation only: it is what :meth:`PrivApproxSystem.responses_log` (over
    the packed log, :func:`pack_blocks`) and
    :attr:`QueryEpochOutcome.responses
    <repro.runtime.executor.QueryEpochOutcome.responses>` (over an epoch's
    blocks) hand out.  Indexing and iteration rebuild value-equal
    :class:`ClientResponse` objects one at a time, so reading the log never
    holds all of it as objects.  It compares equal to any sequence of equal
    responses (``log == []`` included).
    """

    def __init__(self, query_id: str, blocks: Sequence[bytes | ResponseBlock]):
        self._query_id = query_id
        self._blocks = tuple(blocks)
        self._ends = list(
            itertools.accumulate(
                len(block) if isinstance(block, ResponseBlock)
                else _BLOCK_HEADER.unpack_from(block)[0]
                for block in self._blocks
            )
        )

    def _block(self, index: int) -> ResponseBlock:
        block = self._blocks[index]
        if isinstance(block, ResponseBlock):
            return block
        return ResponseBlock.from_bytes(block, self._query_id)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[ClientResponse]:
        for index in range(len(self._blocks)):
            block = self._block(index)
            for row in range(len(block)):
                yield block.response(row)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("response log index out of range")
        block = bisect.bisect_right(self._ends, index)
        first = self._ends[block - 1] if block else 0
        return self._block(block).response(index - first)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ResponseLog({self._query_id!r}, {len(self)} responses)"


class Client:
    """A client device participating in PrivApprox."""

    def __init__(self, config: ClientConfig):
        self.config = config
        self.database = Database(name=f"client-{config.client_id}")
        self._subscriptions: dict[str, tuple[Query, ExecutionParameters]] = {}
        self._use_key(client_key(config.seed))

    def _use_key(self, key: bytes) -> None:
        """Install the client's PRF key and everything derived from it.

        Every draw is a keyed function of ``(key, query, epoch)``
        (:mod:`repro.core.seeding`), so the key is the client's whole random
        state.  The token secret behind the anonymous per-epoch participation
        tokens is derived from it and never leaves the device.  Per query the
        client caches, for the parameter set it was subscribed with, the
        sampler and responder (they hold only the ``s, p, q`` constants) and
        the query's PRF prefix.
        """
        self._key = key
        self._token_secret = token_secret(key)
        self._mechanisms: dict[
            str,
            tuple[ExecutionParameters, SimpleRandomSampler, RandomizedResponder, bytes],
        ] = {}

    # -- state snapshot (pinned-worker runtime) -------------------------------

    def export_state(self) -> dict:
        """Capture everything another process needs to *be* this client.

        The snapshot is a plain picklable dict: the static config, the
        32-byte PRF key, the local tables (schema plus raw rows) and the
        active subscriptions.  Draws are addressed by ``(query, epoch)``, not
        by position in a stream, so a client rebuilt with :meth:`from_state`
        answers any epoch exactly as the original would — which is what keeps
        the pinned-worker epoch runtime byte-identical to the serial
        reference (``repro.runtime.wire`` frames these snapshots into shard
        bootstraps).

        The database's one-slot columnar arena and its standing answers
        are deliberately *not* shipped: they are derived state, lazily
        rebuilt from raw rows on the restored side and grown by appends
        from then on — and the differential suite asserts the rebuilt and
        appended-to lifecycles answer identically.
        """
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
        return {
            "config": self.config,
            "key": self._key,
            "tables": tables,
            "subscriptions": tuple(
                self._subscriptions[query_id] for query_id in self.subscribed_query_ids
            ),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Client":
        """Reconstruct a client from a full :meth:`export_state` snapshot."""
        client = cls(state["config"])
        client._use_key(state["key"])
        for name, columns, rows in state["tables"]:
            client.database.create_table(name, list(columns))
            client.database.table(name).append_rows(rows)
        for query, parameters in state["subscriptions"]:
            client.subscribe(query, parameters)
        return client

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

        Lets the epoch profile count the statements an answer read without
        touching subscription internals.
        """
        subscription = self._subscriptions.get(query_id)
        return None if subscription is None else subscription[0].sql

    def flip_coins(
        self, query_ids: Sequence[str], epoch: int = 0
    ) -> list[Participation | None]:
        """Flip every query's sampling coin for ``epoch`` (Step I), in order.

        One entry per query id: ``None`` for a non-participant or an unknown
        query, otherwise its :data:`Participation`.  The one-member case of
        :func:`coin_columns`, the shard answer pass's coin pass.
        """
        return [column[0] for column in coin_columns([self], query_ids, epoch)]

    def answer(
        self,
        query_ids: Sequence[str],
        epoch: int = 0,
        scan_cache: dict[str, Any] | None = None,
    ) -> list[Answer | None]:
        """Step I and the SQL read for many subscribed queries in one pass.

        Serial's per-client path, and the reference the shard answer pass
        (:func:`~repro.runtime.engine.answer_shard`) is tested against.
        Returns one entry per query id: ``None`` where the query's sampling
        coin said not to participate (or the query is unknown), otherwise
        the participant's :data:`Answer` — its coin and the bucket of its
        latest matching value — for :meth:`ResponseBlock.build` to turn into
        a row.  Queries with the same SQL share one read of it
        (``scan_cache``, keyed by SQL text).  Every draw is addressed by
        ``(query, epoch)`` (:mod:`repro.core.seeding`), so the rows built
        from these answers — pad keys included — are byte-identical to
        answering each query alone.  Every participant's SQL outcome is
        read here, query by query, so the first statement that raises for
        this client raises before anything is built.
        """
        if scan_cache is None:
            scan_cache = {}
        answers: list[Answer | None] = []
        for coin in self.flip_coins(query_ids, epoch):
            if coin is None:
                answers.append(None)
                continue
            query = coin[0]
            value = self._latest_value(query, scan_cache)
            answers.append((coin, query.answer_spec.buckets.bucket_of(value)))
        return answers

    def truthful_answer(
        self, query_id: str, scan_cache: dict[str, Any] | None = None
    ) -> list[int]:
        """The truthful (pre-randomization) answer vector.

        Used only by experiments to compute the exact baseline; a deployment
        would never expose this outside the device.  ``scan_cache`` is read
        as :meth:`answer` reads it: the ground truth seeds it with this
        client's outcome off the executor's shard arena, and a statement it
        does not hold is answered here alone.
        """
        if query_id not in self._subscriptions:
            raise KeyError(f"client is not subscribed to query {query_id}")
        query, _ = self._subscriptions[query_id]
        return query.encode_value(self._latest_value(query, scan_cache))

    def _query_outcome(self, query: Query, scan_cache: dict[str, Any] | None):
        """The latest-row form of this client's result set for the analyst's
        SQL, raising what it raises.

        ``scan_cache`` (keyed by SQL text) deduplicates the database pass
        when several co-subscribed queries in a multi-query epoch run the
        same statement, and may arrive pre-seeded by the ground truth off the
        engine's shard arena with the latest-row form of the result or the
        exception to raise.

        A statement not in the cache is a standing answer too: the same
        :func:`~repro.sqldb.engine.arena_select_per_client` call the shard
        pass makes, over the database's one-slot arena, so an unchanged
        table is read once and an appended one only in its tail.  The row
        scan (``Database.query``) answers only what the arena does not: a
        refused statement, a missing table or projected column, or, with no
        arena built, any statement under ``SQLDB_FORCE_SCAN``.
        """
        sql = query.sql
        if scan_cache is not None and sql in scan_cache:
            result = scan_cache[sql]
        else:
            outcomes = None
            if not scan_forced():
                arena = self.database.arena
                arena.sync()
                outcomes = arena_select_per_client(arena, sql)
            if outcomes is None or outcomes[0] is ARENA_FALLBACK:
                result = self.database.query(sql)
            else:
                result = outcomes[0]
            if scan_cache is not None and not isinstance(result, BaseException):
                scan_cache[sql] = result
        if isinstance(result, BaseException):
            # Raise exactly what this client's own evaluation raises.
            raise result
        return result

    def _latest_value(self, query: Query, scan_cache: dict[str, Any] | None = None) -> Any:
        """The value the client answers with: the analyst's SQL on the local
        database, the answer column of its last row (:func:`answer_value`).

        The client answers with the most recent matching row (the paper's
        examples — current driving speed, last ride distance, current power
        draw — are all "latest value" readings).  A client with no matching
        rows answers ``None``, which no bucket holds: its all-zero vector
        still gets randomized, so non-matching clients are
        indistinguishable from matching ones.
        """
        return answer_value(self._query_outcome(query, scan_cache), query.answer_spec.value_column)


def coin_columns(
    clients: Sequence[Client], query_ids: Sequence[str], epoch: int
) -> list[list[Participation | None]]:
    """Step I for a shard: one column of coins per query, one entry per client.

    An entry is ``None`` for a non-participant or a client not subscribed
    to the query, otherwise the client's :data:`Participation`.  A coin is a
    pure function of ``(key, query, epoch)``, so flipping a shard's coins
    before, or apart from, answering changes nothing: the shard answer pass
    flips them all first and asks the arena only for the participants'
    SQL outcomes.

    A coin is one hash: the query's :data:`~repro.core.seeding.MAIN` block
    0, read from the client's cached query prefix, whose first four bytes
    are the coin.  Every subscribed (client, query) goes through
    :meth:`SimpleRandomSampler.should_participate
    <repro.core.sampling.SimpleRandomSampler.should_participate>` once.
    Only a participant gets an :class:`~repro.core.seeding.EpochDraws`,
    seeded with that block, so its randomized-response reads never hash it
    again.
    """
    coordinates = first_block_coordinates(epoch)
    blake2b = hashlib.blake2b
    columns = []
    for query_id in query_ids:
        column: list[Participation | None] = []
        for client in clients:
            subscription = client._subscriptions.get(query_id)
            if subscription is None:
                column.append(None)
                continue
            query, parameters = subscription
            cached = client._mechanisms.get(query_id)
            if cached is None or cached[0] is not parameters:
                # The sampler and responder hold only the s, p, q constants.
                cached = client._mechanisms[query_id] = (
                    parameters,
                    SimpleRandomSampler(parameters.sampling_fraction, rng=None),
                    RandomizedResponder(p=parameters.p, q=parameters.q, rng=None),
                    query_prefix(client._key, query_id),
                )
            _, sampler, responder, prefix = cached
            first_block = blake2b(prefix + coordinates).digest()
            if sampler.should_participate(coin_uniform(first_block)):
                column.append((query, responder, EpochDraws(prefix, epoch, first_block)))
            else:
                column.append(None)
        columns.append(column)
    return columns


def answer_value(result, value_column: str | None) -> Any:
    """The value an outcome answers with: the value column of its last row.

    ``None`` for an empty result.  Only emptiness, ``result.columns`` and
    ``result.rows[-1]`` are read, which is why an outcome may hold just the
    last row of what ``database.query`` would return.  ``value_column``
    resolves against the result's column names: an exact match first, then
    the first case-insensitive one (a result may name one column twice in
    two cases); a result without it (or a query naming none) answers with
    its first column.
    """
    rows = result.rows
    if not rows:
        return None
    columns = result.columns
    index = 0
    if value_column is not None:
        if value_column in columns:
            index = columns.index(value_column)
        else:
            lowered = value_column.lower()
            index = next(
                (position for position, name in enumerate(columns) if name.lower() == lowered), 0
            )
    return rows[-1][index]
