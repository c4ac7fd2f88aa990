"""The PrivApprox query model.

Section 3.1 defines a query as the signed tuple

    Query := <QID, SQL, A[n], f, w, delta>

where ``QID`` identifies the query, ``SQL`` is the statement executed at each
client over its private data, ``A[n]`` describes the n-bit answer bucket
layout, ``f`` is the answer frequency, ``w`` the sliding-window length and
``delta`` the sliding interval.  Answers are always bit vectors: exactly one
bit is set for numeric range buckets, and each bucket of a non-numeric query
is defined by a matching rule (Section 2.2).
"""

from __future__ import annotations

import hashlib
import hmac
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Sequence


class BucketSpec:
    """Common interface of answer bucket layouts."""

    @property
    def num_buckets(self) -> int:
        raise NotImplementedError

    def bucket_of(self, value: Any) -> int | None:
        """Index of the bucket ``value`` falls in, or None if no bucket matches."""
        raise NotImplementedError

    def labels(self) -> list[str]:
        raise NotImplementedError

    def encode(self, value: Any) -> list[int]:
        """The answer bit vector for one value (all zeros if nothing matches)."""
        vector = [0] * self.num_buckets
        index = self.bucket_of(value)
        if index is not None:
            vector[index] = 1
        return vector


@dataclass(frozen=True)
class RangeBuckets(BucketSpec):
    """Numeric buckets defined by their boundary points.

    ``boundaries = [b0, b1, ..., bk]`` defines ``k`` finite buckets
    ``[b0, b1), [b1, b2), ...``; setting ``open_ended=True`` appends a final
    ``[bk, +inf)`` bucket, as in the paper's taxi-distance example
    ("[0,1) mile ... [10, +inf) miles").
    """

    boundaries: tuple
    open_ended: bool = True

    def __post_init__(self) -> None:
        # A tuple, so a list the caller still holds cannot change the layout
        # (or a signed query's cached canonical form) behind our back.
        values = tuple(self.boundaries)
        object.__setattr__(self, "boundaries", values)
        if len(values) < 2:
            raise ValueError("RangeBuckets needs at least two boundary points")
        if any(nxt <= prev for prev, nxt in zip(values, values[1:])):
            raise ValueError("boundaries must be strictly increasing")

    @classmethod
    def uniform(cls, low: float, high: float, num_buckets: int, open_ended: bool = False) -> "RangeBuckets":
        """Evenly spaced buckets covering ``[low, high)``."""
        if num_buckets < 1:
            raise ValueError("num_buckets must be positive")
        if high <= low:
            raise ValueError("high must exceed low")
        step = (high - low) / num_buckets
        boundaries = tuple(low + i * step for i in range(num_buckets + 1))
        return cls(boundaries=boundaries, open_ended=open_ended)

    @property
    def num_buckets(self) -> int:
        return len(self.boundaries) - 1 + (1 if self.open_ended else 0)

    def bucket_of(self, value: Any) -> int | None:
        if value is None:
            return None
        try:
            number = float(value)
        except (TypeError, ValueError):
            return None
        if math.isnan(number):
            return None
        # The last boundary at or below the number opens its bucket.
        index = bisect_right(self.boundaries, number) - 1
        if index < 0:
            return None
        if index == len(self.boundaries) - 1 and not self.open_ended:
            return None
        return index

    def labels(self) -> list[str]:
        out = [
            f"[{self.boundaries[i]}, {self.boundaries[i + 1]})"
            for i in range(len(self.boundaries) - 1)
        ]
        if self.open_ended:
            out.append(f"[{self.boundaries[-1]}, +inf)")
        return out


@dataclass(frozen=True)
class RuleBuckets(BucketSpec):
    """Non-numeric buckets, each defined by a matching rule.

    A rule is either a regular-expression string or an arbitrary predicate;
    the first matching rule wins, so rules act like SQL CASE branches.
    """

    rules: tuple  # of (label, pattern-or-callable)

    def __post_init__(self) -> None:
        # Tuples all the way down, for the same reason as RangeBuckets.
        object.__setattr__(self, "rules", tuple((label, rule) for label, rule in self.rules))
        if not self.rules:
            raise ValueError("RuleBuckets needs at least one rule")

    @classmethod
    def from_patterns(cls, patterns: Sequence[tuple[str, str]]) -> "RuleBuckets":
        """Build rule buckets from (label, regex) pairs."""
        return cls(rules=tuple(patterns))

    @classmethod
    def from_values(cls, values: Sequence[str]) -> "RuleBuckets":
        """One bucket per exact categorical value."""
        return cls(rules=tuple((v, f"^{re.escape(v)}$") for v in values))

    @property
    def num_buckets(self) -> int:
        return len(self.rules)

    def bucket_of(self, value: Any) -> int | None:
        if value is None:
            return None
        text = str(value)
        for index, (_, rule) in enumerate(self.rules):
            if callable(rule):
                if rule(value):
                    return index
            elif re.search(rule, text):
                return index
        return None

    def labels(self) -> list[str]:
        return [label for label, _ in self.rules]


@dataclass(frozen=True)
class AnswerSpec:
    """``A[n]``: the answer format — a bucket layout plus the value column.

    ``value_column`` names the column of the client's SQL result whose value is
    bucketed (e.g. ``speed`` in the paper's driving-speed example); when None,
    the first column of the result is used.
    """

    buckets: BucketSpec
    value_column: str | None = None

    @property
    def num_buckets(self) -> int:
        return self.buckets.num_buckets

    def labels(self) -> list[str]:
        return self.buckets.labels()

    def encode_value(self, value: Any) -> list[int]:
        return self.buckets.encode(value)


_BIT_VALUES = frozenset((0, 1))


@dataclass(frozen=True)
class QueryAnswer:
    """A single client's (truthful or randomized) answer: an n-bit vector.

    ``bits`` holds 0/1 values: a tuple when decoded, or whatever 0/1
    sequence a caller encrypts one answer from (:meth:`AnswerCodec.encrypt
    <repro.core.encryption.AnswerCodec.encrypt>`); clients build theirs a
    shard's column at a time and never make one.
    ``token`` is the anonymous per-epoch participation token (raw bytes) used
    by the aggregator's duplicate-answer defense (:mod:`repro.core.admission`);
    it is empty when admission control is not in use.
    """

    query_id: str
    bits: tuple | bytes
    client_tag: str | None = None  # never transmitted; used only in tests/metrics
    epoch: int = 0
    token: bytes = b""

    def __post_init__(self) -> None:
        try:
            binary = _BIT_VALUES.issuperset(self.bits)
        except TypeError:
            # An unhashable bit: compare it the slow way, value by value.
            binary = not any(bit not in (0, 1) for bit in self.bits)
        if not binary:
            raise ValueError("answer bits must be 0 or 1")

    @property
    def num_buckets(self) -> int:
        return len(self.bits)

    def as_list(self) -> list[int]:
        return list(self.bits)


# The instance attribute memoizing Query.canonical_bytes().
_CANONICAL = "_canonical_bytes"


@dataclass(frozen=True)
class Query:
    """The analyst's streaming query (Section 3.1, Equation 1).

    Attributes
    ----------
    query_id:
        ``QID`` — unique identifier (analyst id + serial number).
    sql:
        The SQL statement executed at clients on their local database.
    answer_spec:
        ``A[n]`` — the answer bucket layout.
    frequency_seconds:
        ``f`` — how often clients execute the query.
    window_seconds:
        ``w`` — sliding window length used by the aggregator.
    slide_seconds:
        ``delta`` — sliding interval between successive results.
    analyst_id:
        Identifier of the analyst who published the query.
    signature:
        HMAC over the query fields, set by :meth:`sign`.
    """

    query_id: str
    sql: str
    answer_spec: AnswerSpec
    frequency_seconds: float = 1.0
    window_seconds: float = 600.0
    slide_seconds: float = 60.0
    analyst_id: str = "analyst"
    signature: str | None = None

    def __post_init__(self) -> None:
        if self.frequency_seconds <= 0:
            raise ValueError("frequency must be positive")
        if self.window_seconds <= 0:
            raise ValueError("window length must be positive")
        if self.slide_seconds <= 0:
            raise ValueError("slide interval must be positive")
        if self.slide_seconds > self.window_seconds:
            raise ValueError("slide interval must not exceed the window length")

    @property
    def num_buckets(self) -> int:
        return self.answer_spec.num_buckets

    def canonical_bytes(self) -> bytes:
        """Canonical serialization of the signed fields, built once per object.

        Every client verifies the same announced object, so the form (two
        float ``repr`` per range bucket) is memoized on it.  The fields are
        frozen down to the bucket tuples, so the memo cannot go stale; a
        ``dataclasses.replace`` copy starts without one.
        """
        cached = self.__dict__.get(_CANONICAL)
        if cached is None:
            parts = [
                self.query_id,
                self.sql,
                "|".join(self.answer_spec.labels()),
                repr(self.frequency_seconds),
                repr(self.window_seconds),
                repr(self.slide_seconds),
                self.analyst_id,
            ]
            cached = "\x1f".join(parts).encode("utf-8")
            object.__setattr__(self, _CANONICAL, cached)
        return cached

    def __getstate__(self) -> dict:
        # The memo is not a field: keep it off the wire (pickle, copy).
        state = dict(self.__dict__)
        state.pop(_CANONICAL, None)
        return state

    def sign(self, signing_key: bytes) -> "Query":
        """Return a copy carrying an HMAC-SHA256 signature (non-repudiation)."""
        digest = hmac.new(signing_key, self.canonical_bytes(), hashlib.sha256).hexdigest()
        return Query(
            query_id=self.query_id,
            sql=self.sql,
            answer_spec=self.answer_spec,
            frequency_seconds=self.frequency_seconds,
            window_seconds=self.window_seconds,
            slide_seconds=self.slide_seconds,
            analyst_id=self.analyst_id,
            signature=digest,
        )

    def verify_signature(self, signing_key: bytes) -> bool:
        """Check the query's signature against a key."""
        if self.signature is None:
            return False
        expected = hmac.new(signing_key, self.canonical_bytes(), hashlib.sha256).hexdigest()
        return hmac.compare_digest(expected, self.signature)

    def encode_value(self, value: Any) -> list[int]:
        """Bucket a raw answer value into the n-bit answer vector."""
        return self.answer_spec.encode_value(value)


def make_query_id(analyst_id: str, serial: int) -> str:
    """Build a ``QID`` by concatenating the analyst id with a serial number."""
    if serial < 0:
        raise ValueError("serial must be non-negative")
    return f"{analyst_id}-{serial:08d}"
