"""Proxies: anonymizing relays between clients and the aggregator.

Proxies receive either the encrypted answer share or one of the key shares —
they cannot tell which — tagged with the message identifier ``MID``, and
forward them to the aggregator.  Because noise is added at the clients (not at
the proxies), proxies require no mutual synchronization: the entire per-share
work is "answer transmission" (Section 6, #VIII), which is why PrivApprox's
proxy latency is an order of magnitude below SplitX's.

Each :class:`Proxy` is backed by topics on the in-memory pub/sub broker
(:mod:`repro.pubsub`), mirroring the Kafka deployment of the paper: one
stream per proxy that only forwards shares to the aggregator.

A deployment relays on one topic per proxy per query: passing
``channel="<query id>"`` scopes the relay to ``proxy-<i>-q-<channel>``, so a
multi-query epoch keeps each query's share stream on its own topics and
every aggregator only ever polls its own query's records — no cross-query
reads, no post-decrypt filtering.  ``channel=None`` names the base topic
``proxy-<i>``, created on first use, for callers that drive a
:class:`ProxyNetwork` directly.

A relay record's value is one of two things.  The serial reference (and
the scenario layer's forged answers) publishes one record per share
(:meth:`ProxyNetwork.transmit`): a one-share tuple keyed by the share's
``MID``.  Every staged-engine flow publishes one record per proxy per shard
(:meth:`ProxyNetwork.transmit_shard`): the proxy's
:class:`~repro.crypto.xor.ShareColumn` of the shard's
:class:`~repro.core.client.ResponseBlock` — the block's 16-byte ``MID``
column plus that proxy's payload column, ``rows * (width + 16)`` bytes,
exactly what the ``rows`` shares would weigh.  :func:`poll_shares` hands
the aggregator both kinds in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.crypto.xor import MessageShare, ShareColumn
from repro.pubsub import BrokerCluster, Consumer, Producer

if TYPE_CHECKING:
    from repro.core.client import ResponseBlock


@dataclass
class Proxy:
    """A single proxy: its relay topics plus accounting counters."""

    proxy_id: int
    cluster: BrokerCluster
    topic_name: str = ""
    num_partitions: int = 4

    def __post_init__(self) -> None:
        if not self.topic_name:
            self.topic_name = f"proxy-{self.proxy_id}"
        self._producer = Producer(self.cluster)
        self.shares_relayed = 0
        self.bytes_relayed = 0

    def channel_topic_name(self, channel: str | None) -> str:
        """The relay topic for one query channel (the base topic for None)."""
        if channel is None:
            return self.topic_name
        return f"{self.topic_name}-q-{channel}"

    def _channel_topic(self, channel: str | None) -> str:
        """Resolve (and lazily create) the relay topic for a channel."""
        name = self.channel_topic_name(channel)
        self.cluster.ensure_topic(name, self.num_partitions)
        return name

    def receive_share(self, share: MessageShare, channel: str | None = None) -> None:
        """Accept one share from a client and publish it for the aggregator."""
        self._producer.send(
            self._channel_topic(channel), value=(share,), key=share.message_id
        )
        self.shares_relayed += 1
        self.bytes_relayed += share.size_bytes()

    def receive_column(self, column: ShareColumn, channel: str | None = None) -> None:
        """Relay one shard's column of shares as a single record.

        The broker handles one append per shard instead of one per client;
        the relay accounting still counts every share the column holds, so
        proxy throughput numbers stay comparable with the per-share paths.
        """
        self._producer.send(self._channel_topic(channel), value=column)
        self.shares_relayed += column.rows
        self.bytes_relayed += column.size_bytes()

    def make_consumer(self, channel: str | None = None) -> Consumer:
        """Create a consumer the aggregator uses to pull this proxy's stream."""
        consumer = Consumer(self.cluster)
        consumer.subscribe([self._channel_topic(channel)])
        return consumer


def poll_shares(consumers: Sequence[Consumer]) -> list[MessageShare | ShareColumn]:
    """Everything pending on a set of relay consumers, in arrival order.

    The one ingest read: ``consumers`` holds one query's consumer on every
    proxy.  A record holding a tuple of loose shares contributes its
    shares, a column record its :class:`~repro.crypto.xor.ShareColumn`.
    Polling every proxy together puts all shares of every ``MID`` — and
    all columns of every block — in one batch, so the aggregator's join
    never has to buffer across calls.
    """
    items: list[MessageShare | ShareColumn] = []
    for consumer in consumers:
        for record in consumer.poll():
            value = record.value
            if isinstance(value, ShareColumn):
                items.append(value)
            else:
                items.extend(value)
    return items


@dataclass
class ProxyNetwork:
    """The set of non-colluding proxies a deployment uses (at least two).

    The network fans a client's shares out so that share ``i`` goes to proxy
    ``i``.  It relays and counts; the proxy tier's throughput and latency
    models (Figures 5b, 6 and 8) are :class:`repro.netsim.cluster.ClusterTier`'s.
    """

    num_proxies: int = 2
    cluster: BrokerCluster = field(default_factory=lambda: BrokerCluster(num_brokers=2))

    def __post_init__(self) -> None:
        if self.num_proxies < 2:
            raise ValueError("PrivApprox requires at least two proxies")
        self.proxies = [Proxy(proxy_id=i, cluster=self.cluster) for i in range(self.num_proxies)]

    def transmit(self, shares: list[MessageShare], channel: str | None = None) -> None:
        """Send each share of one encrypted answer to its proxy.

        ``channel`` scopes the relay to a query's own topics; ``None`` uses
        the base per-proxy topic.
        """
        if len(shares) != self.num_proxies:
            raise ValueError(
                f"expected {self.num_proxies} shares (one per proxy), got {len(shares)}"
            )
        for proxy, share in zip(self.proxies, shares):
            proxy.receive_share(share, channel=channel)

    def transmit_batch(
        self, share_rows: list[list[MessageShare]], channel: str | None = None
    ) -> None:
        """Send the shares of many encrypted answers: one :meth:`transmit` per row.

        No runtime relays per share in batches any more; the name stays
        because the epoch profile's tracer patches it.
        """
        for shares in share_rows:
            self.transmit(shares, channel=channel)

    def transmit_shard(self, block: "ResponseBlock", channel: str | None = None) -> None:
        """Send a shard's block as one column record per proxy.

        Proxy ``i`` publishes the block's ``i``-th
        :class:`~repro.crypto.xor.ShareColumn` as a *single* record on its
        channel topic — the staged engine's relay granularity.  The shares
        reaching the aggregator, and the relay counters, are those of
        per-share :meth:`transmit` calls for every row; an empty block
        publishes nothing.
        """
        if not len(block):
            return
        columns = block.share_columns()
        if len(columns) != self.num_proxies:
            raise ValueError(
                f"expected {self.num_proxies} share columns (one per proxy), got {len(columns)}"
            )
        for proxy, column in zip(self.proxies, columns):
            proxy.receive_column(column, channel=channel)

    def total_shares_relayed(self) -> int:
        return sum(proxy.shares_relayed for proxy in self.proxies)

    def total_bytes_relayed(self) -> int:
        return sum(proxy.bytes_relayed for proxy in self.proxies)

    def make_consumers(self, channel: str | None = None) -> list:
        """One consumer per proxy stream, for the aggregator."""
        return [proxy.make_consumer(channel=channel) for proxy in self.proxies]
