"""Analytics helpers: histogram results and utility metrics.

PrivApprox expresses every query result as counts within histogram buckets
(Section 2.2), and its evaluation repeatedly compares an estimated histogram
to the exact one via the accuracy-loss metric ``|estimate - exact| / exact``.
This package centralizes those result types and metrics so the core pipeline,
the benchmarks and the case studies all measure utility the same way.
"""

from repro.analytics.histogram import HistogramResult, BucketEstimate
from repro.analytics.metrics import (
    accuracy_loss,
    mean_accuracy_loss,
    histogram_accuracy_loss,
    relative_error,
)

__all__ = [
    "HistogramResult",
    "BucketEstimate",
    "accuracy_loss",
    "mean_accuracy_loss",
    "histogram_accuracy_loss",
    "relative_error",
]
