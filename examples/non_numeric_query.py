#!/usr/bin/env python3
"""Non-numeric queries: categorical answer buckets defined by matching rules.

The PrivApprox query model supports not only numeric range buckets but also
non-numeric answers where "each bucket is specified by a matching rule or a
regular expression" (Section 2.2).  This example runs a web-analytics style
query — "which browser family do users run?" — where each client's locally
stored user-agent string is matched against per-bucket regular expressions,
then flows through the same sampling / randomized response / XOR pipeline as
every other query.

Run with:  python examples/non_numeric_query.py
"""

from __future__ import annotations

import random

from repro.core import (
    Analyst,
    AnswerSpec,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RuleBuckets,
    SystemConfig,
)

NUM_CLIENTS = 800
# Rule order matters: the first matching rule wins, and Edge's user agent also
# contains a "Chrome/..." token, so the Edge rule must come first.
BROWSER_BUCKETS = RuleBuckets.from_patterns(
    [
        ("Edge", r"Edg/\d+"),
        ("Chrome", r"Chrome/\d+"),
        ("Firefox", r"Firefox/\d+"),
        ("Safari", r"Version/\d+.*Safari"),
        ("Other", r"."),
    ]
)
USER_AGENTS = {
    "Chrome": "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 Chrome/120.0 Safari/537.36",
    "Firefox": "Mozilla/5.0 (X11; Linux x86_64; rv:121.0) Gecko/20100101 Firefox/121.0",
    "Safari": "Mozilla/5.0 (Macintosh) AppleWebKit/605.1.15 Version/17.1 Safari/605.1.15",
    "Edge": "Mozilla/5.0 (Windows NT 10.0) AppleWebKit/537.36 Chrome/120.0 Safari/537.36 Edg/120.0",
    "Other": "curl/8.4.0",
}
POPULARITY = {"Chrome": 0.55, "Firefox": 0.2, "Safari": 0.12, "Edge": 0.08, "Other": 0.05}


def main() -> None:
    system = PrivApproxSystem(SystemConfig(num_clients=NUM_CLIENTS, num_proxies=2, seed=31))
    rng = random.Random(31)

    def data_for_client(index: int) -> list[dict]:
        family = rng.choices(list(POPULARITY), weights=list(POPULARITY.values()), k=1)[0]
        return [{"user_agent": USER_AGENTS[family], "consent": "analytics"}]

    system.provision_clients(
        columns=[("user_agent", "TEXT"), ("consent", "TEXT")],
        data_for_client=data_for_client,
    )

    analyst = Analyst("web-analytics")
    query = analyst.create_query(
        sql="SELECT user_agent FROM private_data WHERE consent = 'analytics'",
        answer_spec=AnswerSpec(buckets=BROWSER_BUCKETS, value_column="user_agent"),
        frequency_seconds=300.0,
        window_seconds=300.0,
        slide_seconds=300.0,
    )
    parameters = ExecutionParameters(sampling_fraction=0.9, p=0.9, q=0.3)
    system.submit_query(analyst, query, QueryBudget(), parameters=parameters)

    system.run_epoch(query.query_id, epoch=0)
    result = system.flush(query.query_id)[0]
    exact = system.exact_bucket_counts(query.query_id)

    print("Estimated browser-family distribution (non-numeric rule buckets):\n")
    print(f"{'family':>8}  {'estimate':>9}  {'error bound':>12}  {'exact':>6}")
    for bucket, truth in zip(result.histogram.buckets, exact):
        print(f"{bucket.label:>8}  {bucket.estimate:>9.1f}  ±{bucket.error_bound:>11.1f}  {truth:>6d}")


if __name__ == "__main__":
    main()
