"""Tests for the duplicate-answer defense (participation tokens + admission)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AnswerAdmissionController, participation_token
from repro.core.admission import PARTICIPATION_TOKEN_LENGTH, participation_tokens
from repro.core.aggregator import ADMISSION_RETENTION_EPOCHS


class TestParticipationToken:
    def test_stable_within_epoch(self):
        secret = b"client-secret"
        assert participation_token(secret, "q1", 5) == participation_token(secret, "q1", 5)

    def test_unlinkable_across_epochs(self):
        secret = b"client-secret"
        assert participation_token(secret, "q1", 5) != participation_token(secret, "q1", 6)

    def test_differs_per_query(self):
        secret = b"client-secret"
        assert participation_token(secret, "q1", 5) != participation_token(secret, "q2", 5)

    def test_differs_per_client(self):
        assert participation_token(b"a", "q1", 5) != participation_token(b"b", "q1", 5)

    def test_token_reveals_nothing_obvious(self):
        token = participation_token(b"secret", "q1", 5)
        assert b"q1" not in token
        assert type(token) is bytes
        assert len(token) == PARTICIPATION_TOKEN_LENGTH == 16  # raw, not hex

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            participation_token(b"", "q1", 1)
        with pytest.raises(ValueError):
            participation_token(b"s", "q1", -1)

    def test_token_is_a_keyed_blake2b_of_query_and_epoch(self):
        import hashlib

        secret = b"k" * 64  # the longest key BLAKE2b takes
        expected = hashlib.blake2b(b"q1|5", key=secret, digest_size=16).digest()
        assert participation_token(secret, "q1", 5) == expected
        with pytest.raises(ValueError):
            participation_token(b"k" * 65, "q1", 5)

    def test_the_column_is_the_token_of_each_secret(self):
        secrets = [b"a", b"k" * 64, b"\x00" * 16, b"a"]
        assert participation_tokens(secrets, "q1", 5) == [
            participation_token(secret, "q1", 5) for secret in secrets
        ]
        assert participation_tokens([], "q1", 5) == []
        with pytest.raises(ValueError, match="secret must not be empty"):
            participation_tokens([b"a", b""], "q1", 5)
        with pytest.raises(ValueError, match="non-negative"):
            participation_tokens([b"a"], "q1", -1)

    @given(
        secret=st.binary(min_size=1, max_size=32),
        epoch_a=st.integers(min_value=0, max_value=1_000),
        epoch_b=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_collision_free_across_epochs_property(self, secret, epoch_a, epoch_b):
        token_a = participation_token(secret, "q", epoch_a)
        token_b = participation_token(secret, "q", epoch_b)
        assert (token_a == token_b) == (epoch_a == epoch_b)


class TestAnswerAdmissionController:
    def test_first_answer_admitted(self):
        controller = AnswerAdmissionController()
        assert controller.admit("q", 0, b"token-a").admitted

    def test_duplicate_rejected(self):
        controller = AnswerAdmissionController()
        controller.admit("q", 0, b"token-a")
        decision = controller.admit("q", 0, b"token-a")
        assert not decision.admitted
        assert decision.reason == "duplicate token"
        assert controller.duplicates_rejected == 1

    def test_same_token_allowed_in_next_epoch(self):
        controller = AnswerAdmissionController()
        controller.admit("q", 0, b"token-a")
        assert controller.admit("q", 1, b"token-a").admitted

    def test_same_token_allowed_for_other_query(self):
        controller = AnswerAdmissionController()
        controller.admit("q1", 0, b"token-a")
        assert controller.admit("q2", 0, b"token-a").admitted

    def test_missing_token_rejected(self):
        assert not AnswerAdmissionController().admit("q", 0, b"").admitted

    def test_rate_limit(self):
        controller = AnswerAdmissionController(max_answers_per_epoch=2)
        assert controller.admit("q", 0, b"a").admitted
        assert controller.admit("q", 0, b"b").admitted
        decision = controller.admit("q", 0, b"c")
        assert not decision.admitted
        assert decision.reason == "epoch rate limit"
        assert controller.rate_limited == 1

    def test_rate_limit_is_per_epoch(self):
        controller = AnswerAdmissionController(max_answers_per_epoch=1)
        controller.admit("q", 0, b"a")
        assert controller.admit("q", 1, b"b").admitted

    def test_admitted_count(self):
        controller = AnswerAdmissionController()
        controller.admit("q", 0, b"a")
        controller.admit("q", 0, b"b")
        controller.admit("q", 0, b"a")  # duplicate
        assert controller.admitted_count("q", 0) == 2

    def test_forget_epoch_releases_state(self):
        controller = AnswerAdmissionController()
        controller.admit("q", 0, b"a")
        assert controller.tracked_epochs() == 1
        controller.forget_epoch("q", 0)
        assert controller.tracked_epochs() == 0
        # After forgetting, the same token is admitted again (the window is closed anyway).
        assert controller.admit("q", 0, b"a").admitted

    def test_forget_epochs_before_drops_only_older_epochs(self):
        controller = AnswerAdmissionController()
        for epoch in range(5):
            controller.admit("q", epoch, f"token-{epoch}".encode())
        controller.admit("other", 0, b"token")
        assert controller.forget_epochs_before("q", 3) == 3
        assert controller.tracked_epochs() == 3  # q@3, q@4, other@0
        # Retained epochs still deduplicate.
        assert not controller.admit("q", 3, b"token-3").admitted
        assert not controller.admit("q", 4, b"token-4").admitted
        # Other queries' state is untouched.
        assert not controller.admit("other", 0, b"token").admitted

    def test_forget_epochs_before_is_idempotent(self):
        controller = AnswerAdmissionController()
        controller.admit("q", 0, b"a")
        controller.admit("q", 1, b"b")
        assert controller.forget_epochs_before("q", 1) == 1
        assert controller.forget_epochs_before("q", 1) == 0
        assert controller.tracked_epochs() == 1


class TestAdmissionStateStaysBounded:
    """The long-running-stream fix: epoch state is retired after ingest.

    Without retirement every (query, epoch) token set lives forever; the
    system now calls ``Aggregator.finish_epoch`` once an epoch's ingest
    completes, keeping only a small retention window.
    """

    def _run_epochs(self, num_epochs):
        import random

        from repro.core import (
            Analyst,
            AnswerSpec,
            ExecutionParameters,
            PrivApproxSystem,
            QueryBudget,
            RangeBuckets,
            SystemConfig,
        )

        system = PrivApproxSystem(SystemConfig(num_clients=10, seed=3))
        rng = random.Random(3)
        system.provision_clients(
            [("value", "REAL")], lambda i: [{"value": rng.uniform(0.0, 8.0)}]
        )
        analyst = Analyst("bounded")
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(
                buckets=RangeBuckets.uniform(0.0, 8.0, 4, open_ended=True),
                value_column="value",
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        system.submit_query(
            analyst,
            query,
            QueryBudget(),
            parameters=ExecutionParameters(sampling_fraction=0.9, p=0.9, q=0.5),
        )
        system.run_epochs(query.query_id, num_epochs)
        admission = system.aggregator_for(query.query_id).admission
        system.close()
        return admission, ADMISSION_RETENTION_EPOCHS

    def test_tracked_epochs_bounded_over_many_epochs(self):
        admission, retention = self._run_epochs(25)
        assert admission is not None
        assert admission.tracked_epochs() <= retention

    def test_retained_window_still_deduplicates_current_epoch(self):
        admission, _ = self._run_epochs(5)
        # The last completed epoch's tokens are still tracked: replaying any
        # of them is rejected.
        (query_id, epoch), tokens = max(
            admission._seen.items(), key=lambda item: item[0][1]
        )
        token = next(iter(tokens))
        assert not admission.admit(query_id, epoch, token).admitted


class TestAdmissionInsideAggregator:
    def test_duplicate_flood_does_not_distort_result(self):
        """A client replaying its answer 50 times contributes only once."""
        from repro.core import Aggregator, AnswerSpec, ExecutionParameters, RangeBuckets
        from repro.core.encryption import AnswerCodec
        from repro.core.query import Query, QueryAnswer
        from repro.crypto.prng import KeystreamGenerator

        query = Query(
            query_id="analyst-00000001",
            sql="SELECT v FROM private_data",
            answer_spec=AnswerSpec(
                buckets=RangeBuckets(boundaries=(0.0, 1.0, 2.0), open_ended=True)
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        aggregator = Aggregator(
            query=query,
            parameters=ExecutionParameters(sampling_fraction=1.0, p=1.0, q=0.5),
            total_clients=10,
            admission=AnswerAdmissionController(),
        )
        codec = AnswerCodec()
        keystream = KeystreamGenerator(seed=b"dup")
        shares = []
        # Nine honest clients answer bucket 0 once each.
        for i in range(9):
            honest = QueryAnswer(
                query_id=query.query_id, bits=(1, 0, 0), epoch=0, token=f"honest-{i}".encode()
            )
            shares.extend(codec.encrypt(honest, num_proxies=2, keystream=keystream).shares)
        # One malicious client replays a bucket-2 answer 50 times with one token.
        for _ in range(50):
            malicious = QueryAnswer(
                query_id=query.query_id, bits=(0, 0, 1), epoch=0, token=b"malicious"
            )
            shares.extend(codec.encrypt(malicious, num_proxies=2, keystream=keystream).shares)
        aggregator.ingest_shares(shares, epoch=0)
        result = aggregator.flush()[0]
        assert aggregator.rejected_duplicates == 49
        assert result.num_answers == 10
        assert result.histogram.estimates()[0] == pytest.approx(9.0)
        assert result.histogram.estimates()[2] == pytest.approx(1.0)


class TestAdmitBatch:
    """admit_batch must mirror per-answer admit() decisions and counters."""

    def _items(self):
        return (
            [(0, f"token-{i}".encode()) for i in range(5)]
            + [(0, b"token-2"), (0, b"token-2")]            # in-batch duplicates
            + [(1, b"token-2"), (0, b""), (1, b"fresh")]    # new epoch, missing token
        )

    def test_batch_matches_per_answer_reference(self):
        batched = AnswerAdmissionController()
        reference = AnswerAdmissionController()
        items = self._items()
        verdicts = batched.admit_batch("q", items)
        expected = [reference.admit("q", epoch, token).admitted for epoch, token in items]
        assert verdicts == expected
        assert batched.duplicates_rejected == reference.duplicates_rejected
        assert batched.admitted_count("q", 0) == reference.admitted_count("q", 0)
        assert batched.admitted_count("q", 1) == reference.admitted_count("q", 1)

    def test_batch_sees_duplicates_from_earlier_calls(self):
        controller = AnswerAdmissionController()
        assert controller.admit("q", 0, b"token-0").admitted
        assert controller.admit_batch("q", [(0, b"token-0"), (0, b"token-1")]) == [
            False,
            True,
        ]
        assert controller.duplicates_rejected == 1

    def test_batch_rate_limit_in_order(self):
        batched = AnswerAdmissionController(max_answers_per_epoch=3)
        reference = AnswerAdmissionController(max_answers_per_epoch=3)
        items = [(0, f"token-{i}".encode()) for i in range(6)]
        assert batched.admit_batch("q", items) == [
            reference.admit("q", e, t).admitted for e, t in items
        ]
        assert batched.rate_limited == reference.rate_limited == 3

    def test_empty_batch(self):
        controller = AnswerAdmissionController()
        assert controller.admit_batch("q", []) == []


_TOKENS = st.sampled_from([b"", b"t0", b"t1", b"t2", b"t3", b"t4", b"t5"])


@st.composite
def _batch(draw):
    """A batch of ``(epoch, token)`` answers: a clean column (one epoch,
    distinct non-empty tokens: the set-update path when none was seen and
    the cap holds) or any mix (duplicates within the batch, empty tokens,
    mixed epochs)."""
    if draw(st.booleans()):
        epoch = draw(st.integers(min_value=0, max_value=2))
        tokens = draw(st.lists(_TOKENS.filter(bool), unique=True, max_size=6))
        return [(epoch, token) for token in tokens]
    return draw(
        st.lists(st.tuples(st.integers(min_value=0, max_value=2), _TOKENS), max_size=8)
    )


class TestAdmitBatchColumnPath:
    """A batch of clean rows is admitted as a column; every batch decides
    and counts exactly as :meth:`admit` once per item, across calls."""

    @given(
        cap=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        batches=st.lists(_batch(), min_size=1, max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_batch_equals_admit_per_item(self, cap, batches):
        batched = AnswerAdmissionController(max_answers_per_epoch=cap)
        reference = AnswerAdmissionController(max_answers_per_epoch=cap)
        for items in batches:
            verdicts = batched.admit_batch("q", items)
            assert verdicts == [reference.admit("q", e, t).admitted for e, t in items]
            assert batched.metrics() == reference.metrics()
            for epoch in range(3):
                assert batched.admitted_count("q", epoch) == reference.admitted_count("q", epoch)

    @pytest.mark.parametrize(
        "earlier, batch, expected",
        [
            ([], [(0, b"a"), (0, b"b"), (0, b"c")], [True, True, True]),
            ([(0, b"b")], [(0, b"a"), (0, b"b")], [True, False]),  # seen in an earlier call
            ([(1, b"b")], [(0, b"a"), (0, b"b")], [True, True]),  # seen at another epoch
            ([(0, b"x")], [(0, b"a"), (0, b"b"), (0, b"c")], [True, True, False]),  # cap mid-batch
            ([], [(0, b"a"), (0, b"a")], [True, False]),
            ([], [(0, b"a"), (0, b"")], [True, False]),
            ([], [(0, b"a"), (1, b"a")], [True, True]),
        ],
        ids=["clean", "seen", "other-epoch", "cap", "in-batch", "empty", "mixed-epochs"],
    )
    def test_each_case_decides_as_admit(self, earlier, batch, expected):
        batched = AnswerAdmissionController(max_answers_per_epoch=3)
        reference = AnswerAdmissionController(max_answers_per_epoch=3)
        for epoch, token in earlier:
            batched.admit("q", epoch, token)
            reference.admit("q", epoch, token)
        assert batched.admit_batch("q", batch) == expected
        assert [reference.admit("q", e, t).admitted for e, t in batch] == expected
        assert batched.metrics() == reference.metrics()
