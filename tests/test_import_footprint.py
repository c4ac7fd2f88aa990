"""The running system loads neither scipy nor numpy.

Clients, proxies, the aggregator and every worker process import
``repro.core`` and ``repro.runtime``; the t quantile behind the error bounds
is stdlib code (``repro.core.sampling``), and numpy is imported only inside
the synthetic-survey simulator's binomial fast path.  Each process so
carries neither package's resident pages nor their import time.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.core.randomized_response import (
    _BINOMIAL_FAST_PATH_MIN_TOTAL,
    simulate_randomized_survey,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Both packages are made unimportable before anything of the system loads,
# then a seeded deployment runs end to end on two executors.
_WITHOUT_SCIPY_OR_NUMPY = """
import json, random, sys
sys.modules["scipy"] = sys.modules["numpy"] = None

import repro.cli, repro.core, repro.pubsub, repro.runtime, repro.sqldb
from repro.core import (
    Analyst, AnswerSpec, ExecutionParameters, PrivApproxSystem, QueryBudget,
    RangeBuckets, SystemConfig,
)

def run(executor):
    system = PrivApproxSystem(
        SystemConfig(num_clients=50, num_proxies=2, seed=11, executor=executor)
    )
    rng = random.Random(11)
    system.provision_clients(
        [("value", "REAL")], lambda i: [{"value": rng.uniform(0.0, 8.0)}]
    )
    analyst = Analyst("footprint")
    query = analyst.create_query(
        "SELECT value FROM private_data",
        AnswerSpec(buckets=RangeBuckets.uniform(0.0, 8.0, 4), value_column="value"),
        frequency_seconds=60.0, window_seconds=60.0, slide_seconds=60.0,
    )
    system.submit_query(
        analyst, query, QueryBudget(),
        parameters=ExecutionParameters(sampling_fraction=0.8, p=0.9, q=0.5),
    )
    for epoch in range(2):
        system.run_epoch(query.query_id, epoch)
    system.flush(query.query_id)
    results = [
        [result.num_answers]
        + [[b.estimate, b.error_bound] for b in result.histogram.buckets]
        for result in analyst.results_for(query.query_id)
    ]
    system.close()
    return results

loaded = sorted(
    name for name, module in sys.modules.items()
    if module is not None and name.split(".")[0] in ("scipy", "numpy")
)
print(json.dumps({
    "serial": run("serial"),
    "inline": run("inline/in-process"),
    "loaded": loaded,
}))
"""


def test_the_system_runs_without_scipy_or_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY_OR_NUMPY],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["serial"] == report["inline"]
    assert len(report["serial"]) == 2
    # Two windows of answers, each with finite t-based error bounds.
    for num_answers, *buckets in report["serial"]:
        assert num_answers > 1
        assert all(0.0 < bound < float("inf") for _, bound in buckets)


def test_the_lazy_numpy_import_moves_no_survey_draw():
    """Above the fast-path threshold the simulator draws two binomials from a
    numpy generator seeded off ``rng``; importing numpy at the call instead of
    at module load returns what the module-level import returned (numpy 2.4)."""
    assert _BINOMIAL_FAST_PATH_MIN_TOTAL == 128
    assert simulate_randomized_survey(300, 1000, 0.9, 0.5, random.Random(2026)) == (
        322,
        302.22222222222223,
    )
    assert simulate_randomized_survey(40, 128, 0.7, 0.3, random.Random(5)) == (
        39,
        39.25714285714285,
    )
