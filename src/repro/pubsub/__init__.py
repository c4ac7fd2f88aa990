"""An in-memory publish-subscribe message broker, standing in for Apache Kafka.

PrivApprox proxies are implemented on Kafka: clients publish their encrypted
answer shares and key shares to two topics ("answer" and "key"), and the
aggregator consumes both (Section 5, "Proxies").  The proxies only publish
and poll, so this package reproduces just the parts of Kafka that needs:

* topics split into partitions, each an append-only ordered log that drops
  what every live reader has polled past;
* brokers hosting partitions, grouped in a :class:`BrokerCluster` so that
  partition leadership can be spread over several nodes;
* producers that publish records (optionally keyed, for stable partitioning);
* consumers with per-partition offsets that poll what is new since their
  last poll.

The implementation is single-process and synchronous; the simulated cluster in
:mod:`repro.netsim` supplies the throughput model for the scalability
experiments, while this package supplies the real routing semantics the
PrivApprox pipeline is built on.
"""

from repro.pubsub.record import Record, payload_size
from repro.pubsub.topic import Topic, Partition
from repro.pubsub.broker import Broker, BrokerCluster
from repro.pubsub.producer import Producer
from repro.pubsub.consumer import Consumer
from repro.pubsub.errors import PubSubError, UnknownTopicError

__all__ = [
    "Record",
    "payload_size",
    "Topic",
    "Partition",
    "Broker",
    "BrokerCluster",
    "Producer",
    "Consumer",
    "PubSubError",
    "UnknownTopicError",
]
