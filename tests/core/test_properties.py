"""Property-based tests on the core invariants (hypothesis)."""

import random

from hypothesis import assume, given, settings, strategies as st

from repro.core import (
    AnswerSpec,
    ExecutionParameters,
    RangeBuckets,
    RandomizedResponder,
    estimate_true_yes,
    zero_knowledge_epsilon,
    randomized_response_epsilon,
)
from repro.core.client import Client, ClientConfig, ResponseBlock
from repro.core.encryption import AnswerCodec
from repro.core.query import Query, QueryAnswer
from repro.core.sampling import estimate_sum
from repro.crypto.prng import KeystreamGenerator
from repro.runtime import answer_shard
from tests.core.test_randomized_response import _Uniforms


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


# -- every draw is addressed by (client, query, epoch) ------------------------
#
# Nothing a client answered before moves its later draws: an answer is a
# function of its coordinates, the rows and the parameters.  That is what
# lets a known-late client flip only its coin and a restored client answer
# without any replay.

_QUERY_IDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)


def _answer_bytes(client, query_ids, epoch):
    """Each query's answer as its one-row block holds it: the bits and the
    payloads (the message, query id and epoch included, XOR its pad keys,
    and the keys) — everything but the MID the block draws."""
    rows = []
    for query_id, entry in zip(query_ids, client.answer(query_ids, epoch=epoch)):
        if entry is None:
            rows.append(None)
            continue
        block = ResponseBlock.build(query_id, epoch, [(client, entry)], client.config.num_proxies)
        rows.append((block.truthful_bits, block.randomized_bits, block.payloads))
    return rows


class TestEpochAddressedDraws:
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
        history=st.lists(st.integers(min_value=0, max_value=6), max_size=6),
        epoch=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_an_answer_depends_only_on_its_coordinates(
        self, seed, sampling_fraction, p, q, num_proxies, queries, history, epoch
    ):
        """A client that answered (or was late for) any other epochs first,
        and a copy restored from its snapshot, answer ``epoch`` exactly as a
        fresh client does; the late path agrees on who participated."""
        parameters = ExecutionParameters(sampling_fraction=sampling_fraction, p=p, q=q)
        query_ids = [query_id for query_id, _ in queries] + ["\x00 nobody holds this"]

        def make_client():
            client = Client(ClientConfig(client_id="c", num_proxies=num_proxies, seed=seed))
            client.create_table([("value", "REAL")])
            client.ingest([{"value": 1.5}, {"value": 6.5}])
            for query_id, num_buckets in queries:
                query = Query(
                    query_id=query_id,
                    sql="SELECT value FROM private_data",
                    answer_spec=AnswerSpec(
                        buckets=RangeBuckets.uniform(0.0, 8.0, num_buckets),
                        value_column="value",
                    ),
                )
                client.subscribe(query, parameters)
            return client

        expected = _answer_bytes(make_client(), query_ids, epoch)
        used = make_client()
        for index, earlier in enumerate(history):
            answer_shard([used], query_ids, earlier, late=frozenset({"c"} if index % 2 else ()))
        restored = Client.from_state(used.export_state())
        assert _answer_bytes(used, query_ids, epoch) == expected
        assert _answer_bytes(restored, query_ids, epoch) == expected
        late = answer_shard([used], query_ids, epoch, late=frozenset({"c"}))
        assert [block.late_ids for block in late] == [
            () if row is None else ("c",) for row in expected
        ]


class _ChosenUniforms(_Uniforms):
    """One row's draws with chosen randomized-response uniforms
    (:class:`_Uniforms`) and the real pad seed of ``draws``."""

    def __init__(self, draws, uniforms, straddling):
        super().__init__(uniforms, straddling)
        self.draws = draws

    def pad_seed(self, message):
        return self.draws.pad_seed(message)


class TestBlockMatchesPerAnswer:
    """A shard's block is the per-answer path, a column at a time."""

    @given(
        num_bits=st.sampled_from([1, 7, 9, 128, 300]),
        num_rows=st.sampled_from([0, 1, 50]),
        num_proxies=st.integers(min_value=2, max_value=4),
        epoch=st.integers(min_value=0, max_value=5),
        p=st.floats(min_value=0.01, max_value=0.99),
        q=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_builder_rows_are_the_per_answer_encryption_of_the_two_coin_rule(
        self, num_bits, num_rows, num_proxies, epoch, p, q, seed
    ):
        """Every row of :meth:`ResponseBlock.build` is what encrypting that
        participant's answer alone gives, its bits decided by the two coins
        on the full 32-bit uniform; only rows holding a bit whose high byte
        straddles a threshold read low bytes, once each."""
        from repro.core.admission import participation_token
        from repro.core.randomized_response import _byte_tables
        from repro.core.seeding import EpochDraws, client_key, query_prefix, token_secret

        keep_below, one_below, *_ = _byte_tables(p, q)
        straddling = {
            high
            for high in range(256)
            if any(high << 24 < t < (high + 1) << 24 for t in (keep_below, one_below))
        }
        assume(straddling)
        query = Query(
            query_id="block-parity",
            sql="SELECT value FROM private_data",
            answer_spec=AnswerSpec(buckets=RangeBuckets.uniform(0.0, 1.0, num_bits)),
        )
        responder = RandomizedResponder(p=p, q=q, rng=None)
        source = random.Random(seed)
        answers, expected_rows = [], []
        for row in range(num_rows):
            client = Client(ClientConfig(client_id=f"c{row}", num_proxies=num_proxies, seed=row))
            uniforms = []
            for bit in range(num_bits):
                if (bit == 0 and row % 2 == 0) or source.random() < 0.25:
                    high = source.choice(sorted(straddling))
                    uniforms.append(high << 24 | source.getrandbits(24))
                else:
                    uniforms.append(source.getrandbits(32))
            draws = _ChosenUniforms(
                EpochDraws(query_prefix(client_key(row), query.query_id), epoch),
                uniforms,
                straddling,
            )
            bucket = source.choice([None, *range(num_bits)])
            answers.append((client, ((query, responder, draws), bucket)))
            truthful = [int(bit == bucket) for bit in range(num_bits)]
            randomized = bytes(
                bit if u < keep_below else int(u < one_below)
                for bit, u in zip(truthful, uniforms)
            )
            token = participation_token(token_secret(client_key(row)), query.query_id, epoch)
            answer = QueryAnswer(query.query_id, randomized, epoch=epoch, token=token)
            expected = AnswerCodec().encrypt(answer, num_proxies, draws=draws)
            expected_rows.append(
                (f"c{row}", bytes(truthful), randomized, [s.payload for s in expected.shares])
            )

        block = ResponseBlock.build(query.query_id, epoch, answers, num_proxies)

        assert len(block) == num_rows and block.num_shares == num_proxies
        width = block.width
        truthful_rows = block.bit_rows(block.truthful_bits)
        randomized_rows = block.bit_rows(block.randomized_bits)
        rows = [
            (
                block.client_ids[row],
                truthful_rows[row],
                randomized_rows[row],
                [payload[row * width : (row + 1) * width] for payload in block.payloads],
            )
            for row in range(num_rows)
        ]
        assert rows == expected_rows
        # The columns themselves are the rows packed by the per-bit reference.
        for column, position in ((block.truthful_bits, 1), (block.randomized_bits, 2)):
            assert column == b"".join(
                AnswerCodec._pack_bits_scalar(row[position]) for row in expected_rows
            )
        reading = [row for row, (_, (coin, _)) in enumerate(answers) if coin[2].low_reads]
        for _, ((_, _, draws), _) in answers:
            undecided = sum(1 for u in draws.uniforms if u >> 24 in straddling)
            assert draws.low_reads == ([undecided] if undecided else [])
        if num_rows == 50:
            assert len(reading) >= 25  # straddling bits in several rows of one block

    @given(
        num_bits=st.integers(min_value=1, max_value=300),
        num_proxies=st.integers(min_value=2, max_value=4),
        epoch=st.integers(min_value=0, max_value=5),
        token_length=st.sampled_from([0, 5, 16]),
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),  # bits
                st.integers(min_value=0, max_value=3),  # token (duplicates on purpose)
                st.integers(min_value=0, max_value=2),  # epoch offset (drift)
            ),
            min_size=1,
            max_size=50,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_columns_and_ingest_match_the_per_answer_path(
        self, num_bits, num_proxies, epoch, token_length, rows
    ):
        """A block of arbitrary messages (duplicate tokens, drifted epochs)
        holds each row's per-answer payloads and ingests exactly as its
        loose shares do, with the per-answer checks' decisions."""
        from repro.core import Aggregator
        from repro.core.admission import AnswerAdmissionController
        from repro.core.seeding import EpochDraws, client_key, query_prefix
        from repro.core.validation import AnswerValidator
        from tests.conftest import forge_block

        query = Query(
            query_id="block-parity",
            sql="SELECT value FROM private_data",
            answer_spec=AnswerSpec(buckets=RangeBuckets.uniform(0.0, 1.0, num_bits)),
        )
        codec = AnswerCodec()
        answers, answer_rows, draws = [], [], []
        for index, (pattern, token, drift) in enumerate(rows):
            bit_source = random.Random(pattern)
            bits = tuple(bit_source.getrandbits(1) for _ in range(num_bits))
            answer = QueryAnswer(
                query_id=query.query_id,
                bits=bits,
                epoch=epoch + drift,
                token=bytes([token]) * token_length,
            )
            row_draws = EpochDraws(query_prefix(client_key(index), query.query_id), epoch)
            message = codec.encode_message(answer.query_id, answer.epoch, answer.token, bits)
            answers.append(answer)
            draws.append(row_draws)
            answer_rows.append(
                (
                    f"c{index}", bits, bits, message,
                    codec.pad_columns([message], num_proxies, [row_draws]),
                )
            )
        block = forge_block(query.query_id, epoch, answer_rows, num_proxies)

        width = block.width
        for row, (answer, row_draws) in enumerate(zip(answers, draws)):
            expected = codec.encrypt(answer, num_proxies=num_proxies, draws=row_draws)
            assert [payload[row * width : (row + 1) * width] for payload in block.payloads] == [
                share.payload for share in expected.shares
            ]

        def ingest(items):
            aggregator = Aggregator(
                query=query,
                parameters=ExecutionParameters(sampling_fraction=1.0, p=1.0, q=0.5),
                total_clients=len(rows),
                num_proxies=num_proxies,
                validator=AnswerValidator(query, max_epoch_drift=1),
                admission=AnswerAdmissionController(),
            )
            results = aggregator.ingest_shares(items, epoch)
            results += aggregator.flush()
            return (
                [(r.num_answers, tuple(r.histogram.estimates())) for r in results],
                aggregator.answers_processed,
                aggregator.malformed_messages,
                aggregator.invalid_answers,
                aggregator.validator.rejected_by_reason,
                aggregator.rejected_duplicates,
                aggregator.pending_joins(),
                aggregator.shares_received,
            )

        loose = [share for row in range(len(block)) for share in block.shares(row)]
        outcome = ingest(block.share_columns())
        assert outcome == ingest(loose)
        # The per-answer references, row by row in block order: decrypt,
        # validate, then admit the valid ones.
        validator = AnswerValidator(query, max_epoch_drift=1)
        admission = AnswerAdmissionController()
        valid = [
            answer
            for answer in (codec.decrypt(block.shares(row)) for row in range(len(block)))
            if validator.validate(answer, epoch).valid
        ]
        verdicts = [
            admission.admit(query.query_id, answer.epoch, answer.token).admitted
            for answer in valid
        ]
        assert outcome[1:6] == (
            verdicts.count(True), 0, len(rows) - len(valid), validator.rejected_by_reason,
            verdicts.count(False),
        )
