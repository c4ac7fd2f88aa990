"""Ablation: duplicate-answer defense on vs off under a replay attack.

The paper's threat model includes clients that "answer a query many times in
an attempt to distort the query result" (Section 3.2.4).  This ablation runs
the same replay attack against two aggregators — one with the participation
token admission control, one without — and compares how far the attacker can
move the estimated histogram.

Shape asserted: without the defense the attacker inflates its bucket roughly
in proportion to the number of replays; with the defense the distortion is
bounded by a single answer.
"""

from __future__ import annotations

import pytest

from repro.analytics import histogram_accuracy_loss
from repro.core import (
    Aggregator,
    AnswerAdmissionController,
    AnswerSpec,
    ExecutionParameters,
    RangeBuckets,
)
from repro.core.encryption import AnswerCodec
from repro.core.query import Query, QueryAnswer
from repro.crypto.prng import KeystreamGenerator

NUM_HONEST = 200
NUM_REPLAYS = 300


def make_query() -> Query:
    return Query(
        query_id="analyst-00000001",
        sql="SELECT v FROM private_data",
        answer_spec=AnswerSpec(
            buckets=RangeBuckets(boundaries=(0.0, 1.0, 2.0), open_ended=True), value_column="v"
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )


def run_attack(with_defense: bool):
    """Replay attack against one aggregator; returns (result, exact counts)."""
    query = make_query()
    aggregator = Aggregator(
        query=query,
        parameters=ExecutionParameters(sampling_fraction=1.0, p=1.0, q=0.5),
        total_clients=NUM_HONEST + 1,
        admission=AnswerAdmissionController() if with_defense else None,
    )
    codec = AnswerCodec()
    keystream = KeystreamGenerator(seed=b"attack")
    shares = []
    for i in range(NUM_HONEST):
        bits = (1, 0, 0) if i % 2 == 0 else (0, 1, 0)
        answer = QueryAnswer(
            query_id=query.query_id, bits=bits, epoch=0, token=f"honest-{i}".encode()
        )
        shares.extend(codec.encrypt(answer, num_proxies=2, keystream=keystream).shares)
    # The attacker controls one client and replays its bucket-2 answer.
    for _ in range(NUM_REPLAYS):
        malicious = QueryAnswer(
            query_id=query.query_id, bits=(0, 0, 1), epoch=0, token=b"attacker"
        )
        shares.extend(codec.encrypt(malicious, num_proxies=2, keystream=keystream).shares)
    aggregator.ingest_shares(shares, epoch=0)
    result = aggregator.flush()[0]
    exact = [NUM_HONEST // 2, NUM_HONEST // 2, 1]  # the attacker is entitled to one answer
    return result, exact


@pytest.mark.benchmark(group="ablation-duplicates")
def test_ablation_duplicate_defense(benchmark, report):
    benchmark(run_attack, True)

    undefended, exact = run_attack(with_defense=False)
    defended, _ = run_attack(with_defense=True)

    undefended_loss = histogram_accuracy_loss(exact, undefended.histogram.estimates())
    defended_loss = histogram_accuracy_loss(exact, defended.histogram.estimates())

    report.title("Ablation: duplicate-answer defense under a replay attack")
    report.table(
        ["configuration", "attacker bucket estimate", "histogram distortion (%)", "answers admitted"],
        [
            [
                "no defense",
                round(undefended.histogram.estimates()[2], 1),
                round(100 * undefended_loss, 2),
                undefended.num_answers,
            ],
            [
                "participation tokens",
                round(defended.histogram.estimates()[2], 1),
                round(100 * defended_loss, 2),
                defended.num_answers,
            ],
        ],
    )
    report.note(
        f"The attacker replays its answer {NUM_REPLAYS} times.  Without the "
        "defense the replayed bucket absorbs all of them; with participation "
        "tokens only one answer per (client, epoch) is admitted."
    )

    assert undefended.num_answers == NUM_HONEST + NUM_REPLAYS
    assert defended.num_answers == NUM_HONEST + 1
    assert undefended.histogram.estimates()[2] > 50 * defended.histogram.estimates()[2]
    assert defended_loss < 0.05
    assert undefended_loss > 0.5
