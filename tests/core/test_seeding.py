"""The epoch-addressed client draws (repro.core.seeding): keys, addressing,
and statistical tests of the coin and randomized-response draws.

The statistical tests are seeded and timing-free.  Each compares one
statistic with the critical value of its reference distribution at a
false-failure rate of at most 1e-3 (split evenly where one test checks
several statistics), so a correct PRF fails a test for at most one seed in
a thousand.
"""

from __future__ import annotations

import pytest
from scipy import stats

from repro.core.randomized_response import RandomizedResponder
from repro.core.sampling import SimpleRandomSampler
from repro.core.seeding import (
    PAD,
    EpochDraws,
    client_key,
    pad_seeds,
    query_prefix,
    rr_high_column,
    token_secret,
)

ALPHA = 1e-3
QUERY = "analyst-00000001"


def draws(seed: int, query_id: str, epoch: int) -> EpochDraws:
    return EpochDraws(query_prefix(client_key(seed), query_id), epoch)


def coins(seed: int, query_id: str, epochs: range, s: float) -> list[bool]:
    sampler = SimpleRandomSampler(s, rng=None)
    return [sampler.should_participate(draws(seed, query_id, e).coin()) for e in epochs]


def chi_square_rate(successes: int, trials: int, rate: float) -> float:
    """Pearson's statistic for ``successes`` in ``trials`` at ``rate`` (1 dof)."""
    expected = trials * rate
    return (successes - expected) ** 2 / (expected * (1.0 - rate))


def chi_square_independence(a: list[bool], b: list[bool]) -> float:
    """Pearson's statistic of the 2x2 contingency table of two coin series."""
    table = [[0, 0], [0, 0]]
    for x, y in zip(a, b):
        table[x][y] += 1
    return stats.chi2_contingency(table, correction=False)[0]


class TestKeys:
    def test_a_seeded_key_is_a_function_of_the_seed(self):
        assert client_key(12) == client_key(12) != client_key(13)
        assert len(client_key(12)) == 32
        assert client_key(-1) != client_key(1)

    def test_an_unseeded_key_is_fresh_entropy(self):
        assert client_key(None) != client_key(None)
        assert len(client_key(None)) == 32

    def test_the_token_secret_is_derived_from_the_key_and_no_draw(self):
        key = client_key(12)
        secret = token_secret(key)
        assert secret == token_secret(key) != token_secret(client_key(13))
        assert secret not in draws(12, QUERY, 0).read(256)

    def test_query_ids_cannot_run_into_the_coordinates(self):
        """The query id is length-prefixed, so no two (query, epoch) pairs
        share a PRF input."""
        key = client_key(12)
        assert query_prefix(key, "a") != query_prefix(key, "a\x00")[: len(query_prefix(key, "a"))]
        assert draws(12, "a", 256).coin() != draws(12, "a\x00", 1).coin()


class TestEpochDraws:
    def test_draws_are_a_function_of_their_coordinates(self):
        assert draws(1, QUERY, 3).read(200) == draws(1, QUERY, 3).read(200)
        assert draws(1, QUERY, 3).coin() != draws(1, QUERY, 4).coin()
        assert draws(1, QUERY, 3).coin() != draws(2, QUERY, 3).coin()
        assert draws(1, QUERY, 3).coin() != draws(1, "analyst-00000002", 3).coin()

    @pytest.mark.parametrize("start, length", [(0, 4), (4, 60), (60, 10), (64, 64), (5, 300)])
    def test_reads_are_windows_of_one_stream(self, start, length):
        whole = draws(9, QUERY, 1).read(400)
        assert draws(9, QUERY, 1).read(length, start) == whole[start : start + length]
        d = draws(9, QUERY, 1)
        d.read(length, start)  # blocks computed on the way are kept
        assert d.read(400) == whole

    def test_the_pad_seed_covers_the_message(self):
        d = draws(9, QUERY, 1)
        assert d.pad_seed(b"message-a") != d.pad_seed(b"message-b")
        assert d.pad_seed(b"m") != draws(9, QUERY, 2).pad_seed(b"m")

    def test_the_randomized_response_bytes_follow_the_coin(self):
        d = draws(9, QUERY, 1)
        assert d.rr_high(200) == d.read(200, 4)
        assert d.rr_low(200, 3) == d.read(9, 204)
        assert d.rr_high(8) + d.rr_low(8, 2) == d.read(14, 4)


class TestColumnReads:
    """A column read is each row's own read, laid end to end."""

    @pytest.mark.parametrize("num_bits", [1, 60, 61, 124, 125, 300])
    def test_the_high_byte_column_is_each_rows_read(self, num_bits):
        coordinates = [(1, 0), (2, 0), (3, 5), (4, 0)]
        rows = [draws(seed, QUERY, epoch) for seed, epoch in coordinates]
        fresh = [draws(seed, QUERY, epoch) for seed, epoch in coordinates]
        rows[1].read(100, 300)  # a row whose stream already reaches further
        assert rr_high_column(rows, num_bits) == b"".join(f.read(num_bits, 4) for f in fresh)
        # Blocks hashed for the column are the row's stream: its low bytes
        # read on from them.
        assert [row.rr_low(num_bits, 5) for row in rows] == [
            f.read(15, 4 + num_bits) for f in fresh
        ]
        assert rr_high_column([], num_bits) == b""

    def test_the_pad_seed_column_is_each_rows_seed(self):
        import struct

        rows = [draws(1, QUERY, 3), draws(2, QUERY, 3), draws(3, QUERY, 4)]
        messages = [b"m-0", b"m-1", b"m-2"]
        assert pad_seeds(rows, messages) == [
            row._prefix + struct.pack(">BQI", PAD, row._epoch, 0) + message
            for row, message in zip(rows, messages)
        ]
        assert [row.pad_seed(m) for row, m in zip(rows, messages)] == pad_seeds(rows, messages)

    def test_other_draws_read_themselves(self):
        class Fixed:
            def rr_high(self, num_bits):
                return b"\x07" * num_bits

            def pad_seed(self, message):
                return b"seed-" + message

        rows = [draws(1, QUERY, 3), Fixed()]
        assert rr_high_column(rows, 70) == draws(1, QUERY, 3).read(70, 4) + b"\x07" * 70
        assert pad_seeds(rows[::-1], [b"a", b"b"]) == [
            b"seed-a", draws(1, QUERY, 3).pad_seed(b"b")
        ]


class TestCoinRate:
    def test_chi_square_of_the_coin_rate_against_s(self):
        """Coins of 200 clients x 100 epochs at s = 0.3 (1 dof)."""
        s, participants, trials = 0.3, 0, 0
        for seed in range(200):
            flips = coins(seed, QUERY, range(100), s)
            participants += sum(flips)
            trials += len(flips)
        assert chi_square_rate(participants, trials, s) < stats.chi2.ppf(1 - ALPHA, 1)


class TestRandomizedResponseRates:
    @pytest.mark.parametrize("p, q", [(0.6, 0.5), (0.37, 0.61)])
    def test_chi_square_of_the_per_bit_output_rates(self, p, q):
        """Every bit position, truthful 1 and truthful 0 alike, answers 1 at
        ``p + (1-p) q`` and ``(1-p) q`` respectively: one chi-square over
        the 64 positions of a 128-bit answer per truthful value (64 dof),
        over 2000 epochs.  The two statistics share ALPHA."""
        responder = RandomizedResponder(p=p, q=q, rng=None)
        truthful = bytes([1] * 64 + [0] * 64)
        trials = 2000
        ones = [0] * len(truthful)
        for epoch in range(trials):
            out = responder.randomize_vector(truthful, draws(7, QUERY, epoch))
            for index, bit in enumerate(out):
                ones[index] += bit
        critical = stats.chi2.ppf(1 - ALPHA / 2, 64)
        for positions, rate in (
            (range(64), p + (1 - p) * q),
            (range(64, 128), (1 - p) * q),
        ):
            statistic = sum(chi_square_rate(ones[i], trials, rate) for i in positions)
            assert statistic < critical


class TestRunsAcrossEpochs:
    def test_one_clients_coins_pass_a_runs_test(self):
        """Wald-Wolfowitz runs test over 4000 epochs of one client's coin
        (s = 0.5): too few runs would mean sticky coins, too many an
        alternating pattern.  Two-sided at ALPHA on the normal
        approximation."""
        flips = coins(11, QUERY, range(4000), 0.5)
        n1 = sum(flips)
        n2 = len(flips) - n1
        runs = 1 + sum(a != b for a, b in zip(flips, flips[1:]))
        mean = 2 * n1 * n2 / (n1 + n2) + 1
        variance = (mean - 1) * (mean - 2) / (n1 + n2 - 1)
        z = (runs - mean) / variance**0.5
        assert abs(z) < stats.norm.ppf(1 - ALPHA / 2)


class TestIndependence:
    def test_coins_of_two_queries_on_one_client_are_independent(self):
        """2x2 contingency over 4000 epochs (1 dof)."""
        a = coins(5, QUERY, range(4000), 0.5)
        b = coins(5, "analyst-00000002", range(4000), 0.5)
        assert chi_square_independence(a, b) < stats.chi2.ppf(1 - ALPHA, 1)

    def test_coins_of_two_clients_on_one_query_are_independent(self):
        a = coins(5, QUERY, range(4000), 0.5)
        b = coins(6, QUERY, range(4000), 0.5)
        assert chi_square_independence(a, b) < stats.chi2.ppf(1 - ALPHA, 1)

    def test_the_coin_and_the_first_bit_of_one_answer_are_independent(self):
        """Within one answer, the coin word and bit 0's uniform are read
        from different bytes of one block: their decisions must not
        correlate."""
        responder = RandomizedResponder(p=0.5, q=0.5, rng=None)
        coin_flips, first_bits = [], []
        for epoch in range(4000):
            d = draws(5, QUERY, epoch)
            coin_flips.append(d.coin() < 0.5)
            first_bits.append(responder.randomize_vector(b"\x00", d)[0] == 1)
        assert chi_square_independence(coin_flips, first_bits) < stats.chi2.ppf(1 - ALPHA, 1)
