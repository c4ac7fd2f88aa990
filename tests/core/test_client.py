"""Tests for the PrivApprox client (local DB, sampling, answering, encryption)."""

import pytest

from repro.core import AnswerSpec, Client, ClientConfig, ExecutionParameters, RangeBuckets
from repro.core.client import ResponseBlock
from repro.core.encryption import AnswerCodec
from repro.core.query import Query
from repro.runtime import answer_shard
from tests.conftest import answer_one


def make_client(seed: int = 1, num_proxies: int = 2) -> Client:
    client = Client(ClientConfig(client_id="c-1", num_proxies=num_proxies, seed=seed))
    client.create_table([("speed", "REAL"), ("location", "TEXT")])
    return client


def make_query(window: float = 60.0) -> Query:
    return Query(
        query_id="analyst-00000001",
        sql="SELECT speed FROM private_data WHERE location = 'San Francisco'",
        answer_spec=AnswerSpec(
            buckets=RangeBuckets(boundaries=(0.0, 10.0, 20.0, 30.0), open_ended=True),
            value_column="speed",
        ),
        frequency_seconds=60.0,
        window_seconds=window,
        slide_seconds=window,
    )


ALWAYS = ExecutionParameters(sampling_fraction=1.0, p=1.0, q=0.5)


class TestClientLocalData:
    def test_config_requires_two_proxies(self):
        with pytest.raises(ValueError):
            ClientConfig(client_id="c", num_proxies=1)

    def test_ingest_and_count(self):
        client = make_client()
        client.ingest([{"speed": 15.0, "location": "San Francisco"}])
        assert client.local_row_count() == 1

    def test_private_data_stays_local(self):
        """Ingested raw values are only in the client's own database."""
        client = make_client()
        client.ingest([{"speed": 33.3, "location": "San Francisco"}])
        result = client.database.query("SELECT speed FROM private_data")
        assert result.rows == [(33.3,)]


class TestSubscription:
    def test_subscribe_and_unsubscribe(self):
        client = make_client()
        query = make_query()
        client.subscribe(query, ALWAYS)
        assert client.subscribed_query_ids == [query.query_id]
        client.unsubscribe(query.query_id)
        assert client.subscribed_query_ids == []

    def test_answer_unknown_query_returns_none(self):
        assert answer_one(make_client(), "unknown") is None

    def test_truthful_answer_requires_subscription(self):
        with pytest.raises(KeyError):
            make_client().truthful_answer("unknown")


class TestAnswering:
    def test_truthful_answer_buckets_latest_matching_row(self):
        client = make_client()
        client.ingest(
            [
                {"speed": 5.0, "location": "San Francisco"},
                {"speed": 25.0, "location": "San Francisco"},
            ]
        )
        query = make_query()
        client.subscribe(query, ALWAYS)
        assert client.truthful_answer(query.query_id) == [0, 0, 1, 0]

    def test_non_matching_rows_give_all_zero_answer(self):
        client = make_client()
        client.ingest([{"speed": 15.0, "location": "Boston"}])
        query = make_query()
        client.subscribe(query, ALWAYS)
        assert client.truthful_answer(query.query_id) == [0, 0, 0, 0]

    def test_no_data_gives_all_zero_answer(self):
        client = make_client()
        query = make_query()
        client.subscribe(query, ALWAYS)
        assert client.truthful_answer(query.query_id) == [0, 0, 0, 0]

    def test_answer_with_p1_matches_truth(self):
        client = make_client()
        client.ingest([{"speed": 12.0, "location": "San Francisco"}])
        query = make_query()
        client.subscribe(query, ALWAYS)
        response = answer_one(client, query.query_id, epoch=0)
        assert response is not None
        assert response.randomized_bits == bytes([0, 1, 0, 0])
        assert response.truthful_bits == bytes([0, 1, 0, 0])

    def test_zero_sampling_never_participates(self):
        client = make_client()
        client.ingest([{"speed": 12.0, "location": "San Francisco"}])
        query = make_query()
        client.subscribe(
            query, ExecutionParameters(sampling_fraction=0.001, p=1.0, q=0.5)
        )
        responses = [answer_one(client, query.query_id, epoch=e) for e in range(50)]
        assert sum(r is not None for r in responses) <= 2

    def test_sampling_rate_respected(self):
        client = make_client(seed=77)
        client.ingest([{"speed": 12.0, "location": "San Francisco"}])
        query = make_query()
        client.subscribe(query, ExecutionParameters(sampling_fraction=0.5, p=1.0, q=0.5))
        responses = [answer_one(client, query.query_id, epoch=e) for e in range(400)]
        participation = sum(r is not None for r in responses) / 400
        assert 0.4 < participation < 0.6

    def test_encrypted_shares_decrypt_to_randomized_answer(self):
        from repro.core.encryption import AnswerCodec

        client = make_client()
        client.ingest([{"speed": 12.0, "location": "San Francisco"}])
        query = make_query()
        client.subscribe(query, ALWAYS)
        response = answer_one(client, query.query_id, epoch=4)
        decoded = AnswerCodec().decrypt(list(response.encrypted.shares))
        assert bytes(decoded.bits) == response.randomized_bits
        assert decoded.query_id == query.query_id
        assert decoded.epoch == 4

    def test_shares_count_matches_proxies(self):
        client = Client(ClientConfig(client_id="c", num_proxies=3, seed=5))
        client.create_table([("speed", "REAL"), ("location", "TEXT")])
        client.ingest([{"speed": 12.0, "location": "San Francisco"}])
        query = make_query()
        client.subscribe(query, ALWAYS)
        response = answer_one(client, query.query_id)
        assert response.encrypted.num_shares == 3

    def test_cosubscription_does_not_perturb_other_queries(self):
        """Per-query RNG *and* keystream isolation, encrypted bytes included.

        A non-first query's responses — sampling decisions, randomized bits
        and the encrypted shares' pad bytes — must be identical whether the
        client answers it alone or after a co-subscribed query in the same
        pass.  A shared RNG or keystream would shift the later query's draws.
        """
        query_a = make_query()
        query_b = Query(
            query_id="analyst-00000002",
            sql="SELECT speed FROM private_data WHERE location = 'San Francisco'",
            answer_spec=AnswerSpec(
                buckets=RangeBuckets(boundaries=(0.0, 15.0, 30.0), open_ended=True),
                value_column="speed",
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        params = ExecutionParameters(sampling_fraction=0.7, p=0.9, q=0.5)

        def provision(client):
            client.ingest([{"speed": 12.0, "location": "San Francisco"}])
            return client

        together = provision(make_client(seed=99))
        together.subscribe(query_a, params)
        together.subscribe(query_b, params)
        alone = provision(make_client(seed=99))
        alone.subscribe(query_b, params)
        def row(client, entry, epoch):
            block = ResponseBlock.build(query_b.query_id, epoch, [(client, entry)], 2)
            return block.truthful_bits, block.randomized_bits, block.payloads

        for epoch in range(20):
            _, co_entry = together.answer([query_a.query_id, query_b.query_id], epoch=epoch)
            (solo_entry,) = alone.answer([query_b.query_id], epoch=epoch)
            assert (co_entry is None) == (solo_entry is None)
            if co_entry is None:
                continue
            assert row(together, co_entry, epoch) == row(alone, solo_entry, epoch)

    def test_randomization_changes_answers_with_low_p(self):
        client = make_client(seed=11)
        client.ingest([{"speed": 12.0, "location": "San Francisco"}])
        query = make_query()
        client.subscribe(query, ExecutionParameters(sampling_fraction=1.0, p=0.1, q=0.5))
        different = 0
        for epoch in range(50):
            response = answer_one(client, query.query_id, epoch=epoch)
            if response.randomized_bits != response.truthful_bits:
                different += 1
        assert different > 10


class TestBlockBuild:
    def test_rows_with_different_rates_are_their_one_row_blocks(self):
        """Participants of one query holding different ``p, q`` (a client
        re-tuned on its own through ``subscribe``) still share a block: each
        run of equal rates is randomized on its own, and every row is what
        its one-row block holds."""
        rates = [(0.3, 0.5), (0.3, 0.5), (0.9, 0.2), (0.3, 0.5)]
        query = make_query()
        answers = []
        for index, (p, q) in enumerate(rates):
            client = make_client(seed=40 + index)
            client.ingest([{"speed": 4.0 + 9.0 * index, "location": "San Francisco"}])
            client.subscribe(query, ExecutionParameters(sampling_fraction=1.0, p=p, q=q))
            (entry,) = client.answer([query.query_id], epoch=6)
            answers.append((client, entry))
        block = ResponseBlock.build(query.query_id, 6, answers, 2)
        for row, answer in enumerate(answers):
            alone = ResponseBlock.build(query.query_id, 6, [answer], 2)
            selected = block.select([row])
            assert selected.payloads == alone.payloads
            assert selected.randomized_bits == alone.randomized_bits
            assert block.response(row).randomized_bits == alone.response(0).randomized_bits

    def test_an_empty_block_has_one_empty_column_per_proxy(self):
        block = ResponseBlock.build("q", 3, [], num_proxies=3)
        assert len(block) == 0 and block.payloads == (b"", b"", b"")
        for num_proxies in (2, 3, 5):
            assert AnswerCodec.pad_columns([], num_proxies, []) == [b""] * (num_proxies - 1)


class TestLatePath:
    """A late participant in the shard answer pass (``answer_shard``'s
    ``late``): the coin and the SQL outcome, nothing built."""

    def _subscribed(self, seed: int = 5) -> tuple[Client, Query]:
        client = make_client(seed=seed)
        client.ingest([{"speed": 12.0, "location": "San Francisco"}])
        query = make_query()
        client.subscribe(query, ALWAYS)
        return client, query

    def test_late_answer_is_the_client_id_after_reading_its_sql_outcome(self):
        client, query = self._subscribed()
        read = []
        outcome = client._query_outcome

        def reading(query, scan_cache):
            read.append(query.sql)
            return outcome(query, scan_cache)

        client._query_outcome = reading  # no arena: the member reads alone
        block, unknown = answer_shard(
            [client], [query.query_id, "unknown"], 7, late=frozenset({"c-1"})
        )
        assert block.late_ids == ("c-1",) and len(block) == 0
        assert unknown.late_ids == () and len(unknown) == 0
        assert read == [query.sql]  # read, as a built answer reads it

    def test_late_answer_raises_what_a_built_answer_raises(self):
        client, query = self._subscribed()
        twin, _ = self._subscribed()
        boom = RuntimeError("this client's statement fails")

        def raising(*args):
            raise boom

        client._query_outcome = twin._query_outcome = raising
        with pytest.raises(RuntimeError) as built:
            answer_shard([client], [query.query_id], 0)
        with pytest.raises(RuntimeError) as late:
            answer_shard([twin], [query.query_id], 0, late=frozenset({"c-1"}))
        assert built.value is late.value is boom

    def test_late_answer_flips_only_the_coin(self, monkeypatch):
        from repro.core import client as client_module
        from repro.core.encryption import AnswerCodec
        from repro.core.randomized_response import RandomizedResponder
        from repro.core.sampling import SimpleRandomSampler

        client, query = self._subscribed()
        calls = []
        coin = SimpleRandomSampler.should_participate

        def counting_coin(self, uniform=None):
            calls.append("coin")
            return coin(self, uniform)

        def forbidden(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"a late answer called {name}")

            return fail

        monkeypatch.setattr(SimpleRandomSampler, "should_participate", counting_coin)
        monkeypatch.setattr(RandomizedResponder, "randomize_vector", forbidden("randomize"))
        monkeypatch.setattr(AnswerCodec, "encrypt", forbidden("encrypt"))
        monkeypatch.setattr(client_module, "participation_token", forbidden("token"))
        monkeypatch.setattr(client_module, "participation_tokens", forbidden("tokens"))
        monkeypatch.setattr(client_module, "answer_value", forbidden("answer_value"))
        (block,) = answer_shard([client], [query.query_id], 2, late=frozenset({"c-1"}))
        assert block.late_ids == ("c-1",)
        assert calls == ["coin"]


class TestCoinDraws:
    """A coin is one hash of :data:`~repro.core.seeding.MAIN` block 0, and a
    participant's draws are seeded with that block: every read equals a
    fresh ``EpochDraws(prefix, epoch)``'s, and a coin says participate
    exactly when the fresh draws' coin does."""

    # 1e-9: the least s a parameter set takes (s = 0 is not a valid one).
    @pytest.mark.parametrize("s", [1e-9, 0.6, 1.0], ids=["s~0", "s=0.6", "s=1"])
    def test_coins_and_draws_equal_fresh_epoch_draws(self, s):
        from repro.core.sampling import SimpleRandomSampler
        from repro.core.seeding import EpochDraws, client_key, query_prefix

        query = make_query()
        parameters = ExecutionParameters(sampling_fraction=s, p=0.5, q=0.5)
        sampler = SimpleRandomSampler(s, rng=None)
        seen = set()
        for seed in range(30):
            client = make_client(seed=seed)
            client.subscribe(query, parameters)
            prefix = query_prefix(client_key(seed), query.query_id)
            for epoch in range(3):
                (coin,) = client.flip_coins([query.query_id], epoch)
                fresh = EpochDraws(prefix, epoch)
                participates = sampler.should_participate(fresh.coin())
                assert (coin is not None) == participates, (seed, epoch)
                seen.add(participates)
                if coin is None:
                    continue
                draws = coin[2]
                assert draws.coin() == fresh.coin()
                assert draws.rr_high(4) == fresh.rr_high(4)
                assert draws.rr_low(4, 5) == fresh.rr_low(4, 5)
                assert draws.rr_high(130) == fresh.rr_high(130)  # past block 0
        assert seen == {1e-9: {False}, 0.6: {False, True}, 1.0: {True}}[s]

    def test_every_coin_goes_through_the_sampler(self, monkeypatch):
        """The epoch profile counts coins through ``should_participate``."""
        from repro.core.sampling import SimpleRandomSampler

        calls = []
        coin = SimpleRandomSampler.should_participate

        def counting_coin(self, uniform=None):
            calls.append(uniform)
            return coin(self, uniform)

        monkeypatch.setattr(SimpleRandomSampler, "should_participate", counting_coin)
        client = make_client()
        query = make_query()
        client.subscribe(query, ExecutionParameters(sampling_fraction=0.5, p=0.5, q=0.5))
        client.flip_coins([query.query_id, "unknown", query.query_id], epoch=4)
        assert len(calls) == 2 and calls[0] == calls[1]


class TestPadDerivation:
    """The XOR pad is a keyed function of the answer's coordinates *and* its
    message, so re-answering one ``(query, epoch)`` never reuses a pad."""

    def _answer_over(self, speed: float):
        client = make_client(seed=21)
        client.ingest([{"speed": speed, "location": "San Francisco"}])
        query = make_query()
        client.subscribe(query, ALWAYS)
        return answer_one(client, query.query_id, epoch=3)

    def test_answering_twice_over_different_rows_shares_no_pad(self):
        from repro.core.encryption import AnswerCodec
        from repro.crypto.xor import xor_bytes

        first, second = self._answer_over(12.0), self._answer_over(25.0)
        codec = AnswerCodec()
        messages = [
            codec.encode(codec.decrypt(list(response.encrypted.shares)))
            for response in (first, second)
        ]
        assert messages[0] != messages[1]
        encrypted = [response.encrypted.shares[0].payload for response in (first, second)]
        # With a reused pad, ME1 ^ ME2 == M1 ^ M2 would hand a proxy the XOR
        # of the two plaintexts.
        assert xor_bytes(*encrypted) != xor_bytes(*messages)
        assert first.encrypted.shares[1].payload != second.encrypted.shares[1].payload

    def test_answering_twice_over_the_same_rows_gives_identical_shares(self):
        first, second = self._answer_over(12.0), self._answer_over(12.0)
        assert [share.payload for share in first.encrypted.shares] == [
            share.payload for share in second.encrypted.shares
        ]
