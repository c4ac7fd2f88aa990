"""Histogram-bucket query results with confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class BucketEstimate:
    """The estimate for one answer bucket: a value and its error bound.

    The aggregator reports ``estimate ± error_bound`` for every bucket
    (Section 3.2.4); ``confidence_level`` records the significance level the
    bound was computed at (e.g. 0.95).  Slotted: the analyst keeps one per
    bucket per window, so an estimate is one allocation with no ``__dict__``.
    """

    bucket_index: int
    label: str
    estimate: float
    error_bound: float = 0.0
    confidence_level: float = 0.95

    @property
    def lower(self) -> float:
        return self.estimate - self.error_bound

    @property
    def upper(self) -> float:
        return self.estimate + self.error_bound

    def contains(self, value: float) -> bool:
        """Whether the confidence interval covers ``value``."""
        return self.lower <= value <= self.upper


@dataclass
class HistogramResult:
    """A complete query result: one estimate per answer bucket.

    This is what the analyst receives for every sliding window.  The optional
    ``window`` field carries the (start, end) pair the result belongs to;
    historical (batch) results leave it as ``None``.
    """

    buckets: list[BucketEstimate] = field(default_factory=list)
    window: tuple[float, float] | None = None
    num_answers: int = 0

    def add_bucket(self, bucket: BucketEstimate) -> None:
        self.buckets.append(bucket)

    def estimates(self) -> list[float]:
        """Bucket estimates in index order."""
        return [b.estimate for b in sorted(self.buckets, key=lambda b: b.bucket_index)]

    def error_bounds(self) -> list[float]:
        return [b.error_bound for b in sorted(self.buckets, key=lambda b: b.bucket_index)]

    def labels(self) -> list[str]:
        return [b.label for b in sorted(self.buckets, key=lambda b: b.bucket_index)]

    def total(self) -> float:
        """Total estimated count across buckets."""
        return sum(b.estimate for b in self.buckets)

    def fractions(self) -> list[float]:
        """Bucket estimates normalized to fractions of the total (0 if empty)."""
        total = self.total()
        if total <= 0:
            return [0.0 for _ in self.buckets]
        return [value / total for value in self.estimates()]

    def bucket(self, index: int) -> BucketEstimate:
        for candidate in self.buckets:
            if candidate.bucket_index == index:
                return candidate
        raise KeyError(f"no bucket with index {index}")

    def __len__(self) -> int:
        return len(self.buckets)
