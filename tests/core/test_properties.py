"""Property-based tests on the core invariants (hypothesis)."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (
    AnswerSpec,
    ExecutionParameters,
    RangeBuckets,
    RandomizedResponder,
    estimate_true_yes,
    zero_knowledge_epsilon,
    randomized_response_epsilon,
)
from repro.core.admission import participation_token
from repro.core.client import Client, ClientConfig, LateAnswer
from repro.core.encryption import AnswerCodec
from repro.core.query import Query, QueryAnswer
from repro.core.sampling import estimate_sum
from repro.crypto.prng import KeystreamGenerator


class TestEndToEndEncodingProperties:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=200.0, allow_nan=False), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_answer_vectors_are_one_hot_for_in_range_values(self, values):
        buckets = RangeBuckets.uniform(0.0, 200.0, 10, open_ended=True)
        spec = AnswerSpec(buckets=buckets)
        for value in values:
            vector = spec.encode_value(value)
            assert sum(vector) == 1
            assert len(vector) == buckets.num_buckets

    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64),
        num_proxies=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_pipeline_encoding_is_lossless(self, bits, num_proxies):
        """Client-side encode+encrypt then aggregator-side decrypt+decode is identity."""
        codec = AnswerCodec()
        answer = QueryAnswer(query_id="analyst-00000000", bits=tuple(bits), epoch=1)
        encrypted = codec.encrypt(
            answer, num_proxies=num_proxies, keystream=KeystreamGenerator(seed=b"pp")
        )
        assert codec.decrypt(list(encrypted.shares)).bits == tuple(bits)


class TestEstimatorProperties:
    @given(
        p=st.floats(min_value=0.1, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        total=st.integers(min_value=1, max_value=10_000),
        yes_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_rr_estimator_is_exact_on_expectations(self, p, q, total, yes_fraction):
        true_yes = round(total * yes_fraction)
        expected_observed = true_yes * (p + (1 - p) * q) + (total - true_yes) * (1 - p) * q
        assert abs(estimate_true_yes(expected_observed, total, p, q) - true_yes) < 1e-6

    @given(
        p=st.floats(min_value=0.05, max_value=0.99),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_rr_response_probabilities_are_valid(self, p, q):
        responder = RandomizedResponder(p=p, q=q)
        for bit in (0, 1):
            probability = responder.response_probability(bit)
            assert 0.0 <= probability <= 1.0
        assert responder.response_probability(1) >= responder.response_probability(0)

    @given(
        values=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=200),
        extra=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_sampling_estimate_interval_is_symmetric(self, values, extra):
        import math

        estimate = estimate_sum(values, population_size=len(values) + extra)
        if not math.isfinite(estimate.error_bound):
            # A single-observation sample has an unbounded interval on both sides.
            assert estimate.upper == float("inf") and estimate.lower == float("-inf")
            return
        assert (estimate.upper - estimate.estimate) - (
            estimate.estimate - estimate.lower
        ) < 1e-9 * max(1.0, abs(estimate.estimate))


class TestPrivacyProperties:
    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        q=st.floats(min_value=0.01, max_value=0.99),
        s=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_zero_knowledge_never_weaker_than_dp(self, p, q, s):
        """The headline claim: sampling + RR is at least as private as RR alone."""
        assert zero_knowledge_epsilon(p, q, s) <= randomized_response_epsilon(p, q) + 1e-12

    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        q=st.floats(min_value=0.01, max_value=0.99),
        s_low=st.floats(min_value=0.0, max_value=1.0),
        s_high=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_less_sampling_is_more_private(self, p, q, s_low, s_high):
        low, high = sorted((s_low, s_high))
        assert zero_knowledge_epsilon(p, q, low) <= zero_knowledge_epsilon(p, q, high) + 1e-12


class TestRandomizedVectorProperties:
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=32),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_randomized_vector_is_binary_and_same_length(self, bits, seed):
        responder = RandomizedResponder(p=0.5, q=0.5, rng=random.Random(seed))
        randomized = responder.randomize_vector(bits)
        assert len(randomized) == len(bits)
        assert all(bit in (0, 1) for bit in randomized)


# -- the draw-only twin is pinned to the path it mirrors ----------------------
#
# Client.advance / Client.answer(late=True) make answer_query's draws without
# building an answer (known-late clients, recovery replay).  They are a second
# description of those draws; these properties are what keeps the two from
# drifting (docs/ARCHITECTURE.md, draw-compatibility rule 6).

_QUERY_IDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)


def _twin_clients(seed, num_proxies, subscriptions):
    """Two same-seed clients holding the same rows and subscriptions."""
    twins = []
    for _ in range(2):
        client = Client(
            ClientConfig(client_id="twin", num_proxies=num_proxies, seed=seed)
        )
        client.create_table([("value", "REAL")])
        client.ingest([{"value": 1.5}, {"value": 6.5}])
        for query, parameters in subscriptions:
            client.subscribe(query, parameters)
        twins.append(client)
    return twins


class TestDrawOnlyTwin:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        sampling_fraction=st.floats(min_value=0.01, max_value=1.0),
        p=st.floats(min_value=0.01, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        num_proxies=st.integers(min_value=2, max_value=4),
        queries=st.lists(
            st.tuples(_QUERY_IDS, st.integers(min_value=1, max_value=256)),
            min_size=1,
            max_size=3,
            unique_by=lambda pair: pair[0],
        ),
        num_epochs=st.integers(min_value=1, max_value=4),
        late=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_streams_end_where_answering_leaves_them(
        self, seed, sampling_fraction, p, q, num_proxies, queries, num_epochs, late
    ):
        """``advance`` (replay) and ``answer(late=True)`` (known-late) leave
        ``state_fingerprint()`` equal to ``answer``'s after every epoch and
        agree with it on which queries participated."""
        parameters = ExecutionParameters(sampling_fraction=sampling_fraction, p=p, q=q)
        subscriptions = [
            (
                Query(
                    query_id=query_id,
                    sql="SELECT value FROM private_data",
                    answer_spec=AnswerSpec(
                        buckets=RangeBuckets.uniform(0.0, 8.0, num_buckets),
                        value_column="value",
                    ),
                ),
                parameters,
            )
            for query_id, num_buckets in queries
        ]
        built, drawn = _twin_clients(seed, num_proxies, subscriptions)
        query_ids = [query_id for query_id, _ in queries] + ["\x00 nobody holds this"]
        for epoch in range(num_epochs):
            answers = built.answer(query_ids, epoch=epoch)
            if late:
                markers = drawn.answer(query_ids, epoch=epoch, late=True)
                assert [
                    None if marker is None else (marker.query_id, marker.epoch)
                    for marker in markers
                ] == [
                    None if answer is None else (answer.query_id, answer.epoch)
                    for answer in answers
                ]
                assert all(
                    marker is None or isinstance(marker, LateAnswer)
                    for marker in markers
                )
            else:
                participated = drawn.advance(query_ids)
                assert participated == [answer is not None for answer in answers]
            assert drawn.state_fingerprint() == built.state_fingerprint()

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        p=st.floats(min_value=0.01, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        num_bits=st.integers(min_value=0, max_value=256),
    )
    @settings(max_examples=60, deadline=None)
    def test_responder_advance_draws_what_randomize_vector_draws(
        self, seed, p, q, num_bits
    ):
        randomizing = RandomizedResponder(p=p, q=q, rng=random.Random(seed))
        advancing = RandomizedResponder(p=p, q=q, rng=random.Random(seed))
        randomizing.randomize_vector([0] * num_bits)
        advancing.advance(num_bits)
        assert advancing.rng.getstate() == randomizing.rng.getstate()

    @given(
        query_id=_QUERY_IDS,
        bits=st.lists(st.integers(min_value=0, max_value=1), max_size=256),
        epoch=st.integers(min_value=0, max_value=2**32 - 1),
        secret=st.binary(min_size=1, max_size=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_encoded_length_is_the_length_of_the_encoding(
        self, query_id, bits, epoch, secret
    ):
        answer = QueryAnswer(
            query_id=query_id,
            bits=tuple(bits),
            epoch=epoch,
            token=participation_token(secret, query_id, epoch),
        )
        assert len(AnswerCodec().encode(answer)) == AnswerCodec.encoded_length(
            query_id, len(bits)
        )

    @given(
        seed=st.binary(min_size=1, max_size=16),
        lengths=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=8),
        skipped=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_keystream_skip_lands_where_next_bytes_lands(self, seed, lengths, skipped):
        """Any interleaving of ``skip`` and ``next_bytes`` keeps the state (and
        so every later byte) equal to a stream that only ever read."""
        reading = KeystreamGenerator(seed=seed)
        skipping = KeystreamGenerator(seed=seed)
        for length, skip in zip(lengths, skipped):
            expected = reading.next_bytes(length)
            if skip:
                skipping.skip(length)
            else:
                assert skipping.next_bytes(length) == expected
            assert skipping.getstate() == reading.getstate()
