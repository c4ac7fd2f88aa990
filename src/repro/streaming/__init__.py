"""A small dataflow stream-processing engine, standing in for Apache Flink.

The PrivApprox aggregator is one Flink job: it joins the answer shares by
message id, decrypts, and aggregates the randomized answers per sliding
window (Sections 3.2.4 and 5).  This package provides exactly those pieces:

* :class:`~repro.streaming.records.StreamRecord` — a timestamped element;
* sliding-window assignment over event time (:mod:`repro.streaming.windows`);
* the keyed join and the window aggregate (:mod:`repro.streaming.operators`).

The engine is deterministic and single-process; it executes the same dataflow
graph the paper's Flink job describes, which is what the correctness and
utility experiments exercise.  Cluster-level throughput is modelled separately
by :mod:`repro.netsim`.
"""

from repro.streaming.records import StreamRecord
from repro.streaming.windows import Window, SlidingWindowAssigner
from repro.streaming.operators import KeyedJoinOperator, WindowAggregateOperator

__all__ = [
    "StreamRecord",
    "Window",
    "SlidingWindowAssigner",
    "KeyedJoinOperator",
    "WindowAggregateOperator",
]
