"""PrivApprox: privacy-preserving stream analytics — full Python reproduction.

This package reproduces the system described in *PrivApprox:
Privacy-Preserving Stream Analytics* (Quoc, Beck, Bhatotia, Chen, Fetzer,
Strufe — USENIX ATC 2017), including every substrate the paper builds on:

* :mod:`repro.core` — the paper's contribution: client-side sampling,
  randomized response, XOR share splitting through non-colluding proxies,
  window aggregation with error estimation, query inversion, historical
  analytics and the adaptive execution-budget interface.
* :mod:`repro.streaming` — a Flink-like dataflow engine cut to the two
  operators the aggregator runs: a keyed join and a sliding-window aggregate.
* :mod:`repro.pubsub` — a Kafka-like topic/partition broker the proxies
  publish to and poll.
* :mod:`repro.sqldb` — a SQLite-like, SELECT-only SQL engine for
  client-local private data.
* :mod:`repro.crypto` — the XOR one-time pad plus the RSA / Goldwasser-Micali
  / Paillier comparators.
* :mod:`repro.netsim` — device, cluster and network cost models replacing the
  paper's physical testbed.
* :mod:`repro.storage` — an HDFS-like block store for historical analytics.
* :mod:`repro.baselines` — RAPPOR and SplitX comparison models.
* :mod:`repro.datasets` — synthetic NYC-taxi and household-electricity
  workload generators.
* :mod:`repro.analytics` — histogram results and utility metrics.

Quickstart::

    from repro.core import (
        Analyst, AnswerSpec, PrivApproxSystem, QueryBudget, SystemConfig,
    )
    from repro.datasets import TaxiRideGenerator, TAXI_DISTANCE_BUCKETS

    system = PrivApproxSystem(SystemConfig(num_clients=500, seed=7))
    generator = TaxiRideGenerator(seed=7)
    system.provision_clients(
        TaxiRideGenerator.table_columns(),
        lambda i: generator.rides_for_client(i, num_rides=5),
    )
    analyst = Analyst("acme")
    query = analyst.create_query(
        TaxiRideGenerator.case_study_sql(),
        AnswerSpec(buckets=TAXI_DISTANCE_BUCKETS, value_column="distance"),
        window_seconds=600, slide_seconds=600, frequency_seconds=600,
    )
    system.submit_query(analyst, query, QueryBudget(target_accuracy_loss=0.05))
    system.run_epochs(query.query_id, num_epochs=3)
    results = system.flush(query.query_id)
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "streaming",
    "pubsub",
    "sqldb",
    "crypto",
    "netsim",
    "storage",
    "baselines",
    "datasets",
    "analytics",
]
