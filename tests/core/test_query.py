"""Tests for the query model: buckets, answer vectors, signing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AnswerSpec, Query, RangeBuckets, RuleBuckets
from repro.core.query import QueryAnswer, make_query_id


def _bucket_of_by_scan(buckets: RangeBuckets, value):
    """Reference for :meth:`RangeBuckets.bucket_of`: test every bucket in turn."""
    if value is None:
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    if math.isnan(number):
        return None
    if number < buckets.boundaries[0]:
        return None
    for i in range(len(buckets.boundaries) - 1):
        if buckets.boundaries[i] <= number < buckets.boundaries[i + 1]:
            return i
    if buckets.open_ended and number >= buckets.boundaries[-1]:
        return len(buckets.boundaries) - 1
    return None


class TestRangeBuckets:
    def test_paper_speed_example(self):
        """The 12-bucket driving-speed example from Section 2.2."""
        buckets = RangeBuckets(
            boundaries=(0.0, 1.0, 11.0, 21.0, 31.0, 41.0, 51.0, 61.0, 71.0, 81.0, 91.0, 101.0),
            open_ended=True,
        )
        assert buckets.num_buckets == 12
        # A vehicle moving at 15 mph answers '1' for the third bucket.
        vector = buckets.encode(15)
        assert vector[2] == 1
        assert sum(vector) == 1

    def test_bucket_boundaries_are_half_open(self):
        buckets = RangeBuckets(boundaries=(0.0, 1.0, 2.0), open_ended=False)
        assert buckets.bucket_of(0.0) == 0
        assert buckets.bucket_of(0.999) == 0
        assert buckets.bucket_of(1.0) == 1
        assert buckets.bucket_of(2.0) is None

    def test_open_ended_tail(self):
        buckets = RangeBuckets(boundaries=(0.0, 10.0), open_ended=True)
        assert buckets.bucket_of(1e9) == 1
        assert buckets.num_buckets == 2

    def test_below_range_returns_none(self):
        buckets = RangeBuckets(boundaries=(0.0, 1.0), open_ended=True)
        assert buckets.bucket_of(-0.5) is None

    def test_non_numeric_and_none_values(self):
        buckets = RangeBuckets(boundaries=(0.0, 1.0))
        assert buckets.bucket_of("not a number") is None
        assert buckets.bucket_of(None) is None
        assert buckets.bucket_of(float("nan")) is None

    def test_encode_all_zero_for_unbucketable_value(self):
        buckets = RangeBuckets(boundaries=(0.0, 1.0, 2.0), open_ended=False)
        assert buckets.encode(99.0) == [0, 0]

    def test_uniform_constructor(self):
        buckets = RangeBuckets.uniform(0.0, 3.0, 6)
        assert buckets.num_buckets == 6
        assert buckets.bucket_of(2.9) == 5

    def test_labels(self):
        buckets = RangeBuckets(boundaries=(0.0, 1.0), open_ended=True)
        assert buckets.labels() == ["[0.0, 1.0)", "[1.0, +inf)"]

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ValueError):
            RangeBuckets(boundaries=(1.0,))
        with pytest.raises(ValueError):
            RangeBuckets(boundaries=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            RangeBuckets(boundaries=(2.0, 1.0))

    def test_uniform_invalid_arguments(self):
        with pytest.raises(ValueError):
            RangeBuckets.uniform(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            RangeBuckets.uniform(1.0, 0.0, 3)

    @given(
        boundaries=st.lists(
            st.one_of(
                st.integers(min_value=-50, max_value=50),
                st.floats(min_value=-50.0, max_value=50.0),
            ),
            min_size=2,
            max_size=12,
            unique=True,
        ).map(sorted),
        open_ended=st.booleans(),
        probe=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(min_value=-60, max_value=60),
            st.sampled_from([None, "7", "1e1", " 3 ", "not a number", "", True, b"x"]),
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bisect_lookup_matches_the_linear_scan(
        self, boundaries, open_ended, probe, data
    ):
        """The binary search finds the bucket the boundary-by-boundary scan
        did: exact boundaries, below range, past the end, NaN, non-numeric."""
        buckets = RangeBuckets(boundaries=tuple(boundaries), open_ended=open_ended)
        on_boundary = data.draw(st.sampled_from(boundaries))
        for value in (probe, on_boundary, math.nextafter(on_boundary, -math.inf)):
            assert buckets.bucket_of(value) == _bucket_of_by_scan(buckets, value)


class TestRuleBuckets:
    def test_regex_rules(self):
        buckets = RuleBuckets.from_patterns([("chrome", "Chrome"), ("firefox", "Firefox")])
        assert buckets.bucket_of("Chrome 99 on Linux") == 0
        assert buckets.bucket_of("Firefox/101") == 1
        assert buckets.bucket_of("Safari") is None

    def test_first_matching_rule_wins(self):
        buckets = RuleBuckets.from_patterns([("any", "."), ("specific", "abc")])
        assert buckets.bucket_of("abc") == 0

    def test_from_values_exact_match(self):
        buckets = RuleBuckets.from_values(["yes", "no"])
        assert buckets.bucket_of("yes") == 0
        assert buckets.bucket_of("no") == 1
        assert buckets.bucket_of("yes!") is None

    def test_callable_rules(self):
        buckets = RuleBuckets(rules=(("even", lambda v: v % 2 == 0), ("odd", lambda v: v % 2 == 1)))
        assert buckets.bucket_of(4) == 0
        assert buckets.bucket_of(3) == 1

    def test_none_value(self):
        assert RuleBuckets.from_values(["x"]).bucket_of(None) is None

    def test_labels(self):
        assert RuleBuckets.from_values(["a", "b"]).labels() == ["a", "b"]

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError):
            RuleBuckets(rules=())


class TestQueryAnswer:
    def test_valid_answer(self):
        answer = QueryAnswer(query_id="q", bits=(0, 1, 0))
        assert answer.num_buckets == 3
        assert answer.as_list() == [0, 1, 0]

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            QueryAnswer(query_id="q", bits=(0, 2))

    @pytest.mark.parametrize(
        "bits",
        [
            (),
            (0, 1, 1, 0),
            [1, 0],
            (True, False),
            (1.0, 0.0),
            b"\x00\x01",
            (0, 2),
            (-1,),
            (256,),
            (None,),
            ("1",),
            "01",
            (0.5,),
            (float("nan"),),
            ([1],),
            ({0},),
            None,
            7,
        ],
    )
    def test_accepts_and_rejects_what_the_per_bit_test_did(self, bits):
        """The set test is the old ``any(bit not in (0, 1) ...)`` check:
        same verdict and same exception type, unhashable bits included."""
        try:
            expected = not any(bit not in (0, 1) for bit in bits)
        except TypeError:
            expected = TypeError
        if expected is True:
            assert QueryAnswer(query_id="q", bits=bits).bits is bits
        else:
            with pytest.raises(ValueError if expected is False else TypeError):
                QueryAnswer(query_id="q", bits=bits)


class TestQuery:
    def _query(self) -> Query:
        return Query(
            query_id="analyst-00000001",
            sql="SELECT speed FROM vehicle WHERE location = 'San Francisco'",
            answer_spec=AnswerSpec(
                buckets=RangeBuckets(boundaries=(0.0, 10.0, 20.0), open_ended=True),
                value_column="speed",
            ),
            frequency_seconds=10.0,
            window_seconds=600.0,
            slide_seconds=60.0,
        )

    def test_num_buckets(self):
        assert self._query().num_buckets == 3

    def test_encode_value(self):
        assert self._query().encode_value(15.0) == [0, 1, 0]

    def test_sign_and_verify(self):
        signed = self._query().sign(b"key")
        assert signed.signature is not None
        assert signed.verify_signature(b"key")
        assert not signed.verify_signature(b"wrong-key")

    def test_unsigned_query_fails_verification(self):
        assert not self._query().verify_signature(b"key")

    def test_signature_covers_sql(self):
        signed = self._query().sign(b"key")
        tampered = Query(
            query_id=signed.query_id,
            sql="SELECT salary FROM employees",
            answer_spec=signed.answer_spec,
            frequency_seconds=signed.frequency_seconds,
            window_seconds=signed.window_seconds,
            slide_seconds=signed.slide_seconds,
            analyst_id=signed.analyst_id,
            signature=signed.signature,
        )
        assert not tampered.verify_signature(b"key")

    def test_invalid_window_parameters_rejected(self):
        spec = AnswerSpec(buckets=RangeBuckets(boundaries=(0.0, 1.0)))
        with pytest.raises(ValueError):
            Query("q", "SELECT a FROM t", spec, frequency_seconds=0)
        with pytest.raises(ValueError):
            Query("q", "SELECT a FROM t", spec, window_seconds=0)
        with pytest.raises(ValueError):
            Query("q", "SELECT a FROM t", spec, window_seconds=10, slide_seconds=20)

    def test_make_query_id(self):
        assert make_query_id("acme", 7) == "acme-00000007"
        with pytest.raises(ValueError):
            make_query_id("acme", -1)


class TestAnswerSpec:
    def test_value_column_passthrough(self):
        spec = AnswerSpec(
            buckets=RangeBuckets(boundaries=(0.0, 1.0), open_ended=True), value_column="kwh"
        )
        assert spec.num_buckets == 2
        assert spec.encode_value(0.4) == [1, 0]
        assert spec.labels() == ["[0.0, 1.0)", "[1.0, +inf)"]
