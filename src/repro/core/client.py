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
import itertools
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
from repro.core.seeding import EpochDraws, client_key, query_prefix, token_secret
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
    Every answer to one query in one epoch has the same width (header, query
    id, token and the bits packed eight to a byte), so an epoch's responses
    make one block; a response whose epoch or widths differ starts a new
    block, which keeps the log order.  A share's MID and index
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


class Client:
    """A client device participating in PrivApprox."""

    def __init__(self, config: ClientConfig):
        self.config = config
        self.database = Database(name=f"client-{config.client_id}")
        self._codec = AnswerCodec()
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

        The database's one-slot columnar arena and its secondary indexes
        are deliberately *not* shipped: they are derived state, lazily
        rebuilt from raw rows on the restored side and incrementally
        maintained from then on — and the differential suite asserts the
        rebuilt and incrementally-maintained lifecycles answer identically.
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
    ) -> list[ClientResponse | str | None]:
        """Run one answering epoch for many subscribed queries in one pass.

        Returns one entry per query id, ``None`` where the query's sampling
        coin said not to participate (or the query is unknown).  The local
        table scan is shared: queries with the same SQL reuse a single
        database pass, which is what makes a multi-query epoch cheaper than
        answering each query in its own full pass.  Every draw is addressed
        by ``(query, epoch)`` (:mod:`repro.core.seeding`), so the responses —
        encrypted shares included — are byte-identical to answering each
        query alone.

        ``scan_cache`` may be pre-seeded by the shard-wide arena path with
        this client's per-SQL outcome: the exception its own evaluation
        would raise, or the latest-row form of its result set (the same
        columns, at most the last row — answering reads only emptiness and
        that row, see :meth:`_execute_query_locally`).  Entries are consumed
        only for queries whose sampling coin says participate, exactly as a
        local pass would be.

        ``late=True`` is for a caller that already knows this client is in the
        epoch's late set, so whatever it produces is dropped: each query flips
        only its coin, a participating one reads its SQL outcome (so a
        statement that raises for this client still raises) and comes back
        as the client id — all the engine's gate needs to ledger the drop —
        instead of a built response.
        """
        if scan_cache is None:
            scan_cache = {}
        if late:
            entries = []
            for query_id in query_ids:
                flipped = self._flip_coin(query_id, epoch)
                if flipped is not None:
                    self._query_outcome(flipped[0], scan_cache)
                entries.append(None if flipped is None else self.config.client_id)
            return entries
        return [
            self.answer_query(query_id, epoch=epoch, scan_cache=scan_cache)
            for query_id in query_ids
        ]

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
        flipped = self._flip_coin(query_id, epoch)
        if flipped is None:
            return None
        query, responder, draws = flipped

        # bytes(bytearray(list)) copies at C speed; bytes(list) iterates.
        truthful_bits = bytes(bytearray(self._execute_query_locally(query, scan_cache)))
        randomized_bits = responder.randomize_vector(truthful_bits, draws)

        answer = QueryAnswer(
            query_id=query.query_id,
            bits=randomized_bits,
            epoch=epoch,
            token=participation_token(self._token_secret, query.query_id, epoch),
        )
        encrypted = self._codec.encrypt(
            answer, num_proxies=self.config.num_proxies, draws=draws
        )
        return ClientResponse(
            client_id=self.config.client_id,
            query_id=query.query_id,
            epoch=epoch,
            encrypted=encrypted,
            truthful_bits=truthful_bits,
            randomized_bits=randomized_bits,
        )

    def _flip_coin(
        self, query_id: str, epoch: int
    ) -> tuple[Query, RandomizedResponder, EpochDraws] | None:
        """Flip the query's sampling coin for ``epoch`` (Step I).

        ``None`` for a non-participant or an unknown query; for a participant
        the query, its responder and the answer's draws.
        """
        subscription = self._subscriptions.get(query_id)
        if subscription is None:
            return None
        query, parameters = subscription
        cached = self._mechanisms.get(query_id)
        if cached is None or cached[0] is not parameters:
            cached = (
                parameters,
                SimpleRandomSampler(parameters.sampling_fraction, rng=None),
                RandomizedResponder(p=parameters.p, q=parameters.q, rng=None),
                query_prefix(self._key, query_id),
            )
            self._mechanisms[query_id] = cached
        _, sampler, responder, prefix = cached
        draws = EpochDraws(prefix, epoch)
        if not sampler.should_participate(draws.coin()):
            return None
        return query, responder, draws

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
