"""Query distribution: the "submitting queries" phase (Section 3.1).

An analyst's query travels in the opposite direction of the answers: from the
analyst to the aggregator (which converts the budget into system parameters)
and onward to every client via the proxies.  In the paper this uses the same
Kafka infrastructure as the answer path; here the :class:`QueryDistributor`
publishes signed query announcements to a dedicated ``queries`` topic on each
proxy's broker.

Each announcement is read off that topic once, by the distributor's own
consumer (:meth:`QueryDistributor.poll_announcements`), and exactly those new
announcements are handed to every client.  Clients must not execute forged or
tampered queries, so every announcement carries the analyst's signature and
each client verifies it against the analyst's registered key before
subscribing (:meth:`QueryDistributor.deliver_to_client`; the threat model makes
analysts potentially malicious, and proxies could try to tamper with queries in
transit).  An announcement is delivered once: a later query never re-delivers
an earlier one, so it cannot undo a churned-out client's unsubscription or a
re-tune's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.budget import BudgetPlanner, ExecutionParameters, QueryBudget
from repro.core.client import Client
from repro.core.query import Query
from repro.pubsub import BrokerCluster, Consumer, Producer

QUERY_TOPIC = "queries"


@dataclass(frozen=True)
class QueryAnnouncement:
    """What travels from the aggregator to the clients for one query.

    The announcement carries the signed query plus the execution parameters the
    initializer derived from the analyst's budget.  The budget itself stays at
    the aggregator — clients only need ``(s, p, q)``.
    """

    query: Query
    parameters: ExecutionParameters


@dataclass
class QueryDistributor:
    """Publishes query announcements and hands new ones to the clients.

    Parameters
    ----------
    cluster:
        The broker cluster shared with the proxies.
    planner:
        Budget planner used when an explicit parameter set is not supplied.
    """

    cluster: BrokerCluster
    planner: BudgetPlanner = field(default_factory=BudgetPlanner)

    def __post_init__(self) -> None:
        self.cluster.ensure_topic(QUERY_TOPIC, num_partitions=1)
        self._producer = Producer(self.cluster)
        self._feed = Consumer(self.cluster)
        self._feed.subscribe([QUERY_TOPIC])
        self.queries_published = 0

    # -- aggregator side ----------------------------------------------------

    def publish(
        self,
        query: Query,
        budget: QueryBudget,
        parameters: ExecutionParameters | None = None,
    ) -> QueryAnnouncement:
        """Convert the budget and publish the signed query to the proxies."""
        if query.signature is None:
            raise ValueError("refusing to distribute an unsigned query")
        params = parameters or self.planner.plan(budget)
        announcement = QueryAnnouncement(query=query, parameters=params)
        self._producer.send(QUERY_TOPIC, value=announcement, key=query.query_id)
        self.queries_published += 1
        return announcement

    def poll_announcements(self) -> list[QueryAnnouncement]:
        """The announcements published since the previous call, read once."""
        return [record.value for record in self._feed.poll()]

    # -- client side ----------------------------------------------------------

    @staticmethod
    def deliver_to_client(
        client: Client,
        announcements: list[QueryAnnouncement],
        analyst_keys: dict[str, bytes],
    ) -> list[QueryAnnouncement]:
        """Subscribe the client to every announcement whose signature verifies.

        ``analyst_keys`` maps analyst ids to their signature-verification keys;
        announcements whose signature does not verify (unknown analyst, forged
        or tampered query) are ignored.  Returns the announcements accepted.
        """
        accepted: list[QueryAnnouncement] = []
        for announcement in announcements:
            key = analyst_keys.get(announcement.query.analyst_id)
            if key is None or not announcement.query.verify_signature(key):
                continue
            client.subscribe(announcement.query, announcement.parameters)
            accepted.append(announcement)
        return accepted
