"""The declared metrics, read from ``BENCHMARK.json`` at the repo root.

The bound is the share of the parent's median by which an end-to-end metric
may get worse before a change counts as a regression; it is also the bound two
runs of the same commit must agree within (``run.py --aa``).  Per-layer
metrics are informational and carry no bound.
"""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

END_TO_END = tuple(metric["name"] for metric in MANIFEST["end_to_end"])
PER_LAYER = tuple(metric["name"] for metric in MANIFEST["per_layer"])
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
BETTER = {m["name"]: m["better"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
BOUNDS = {metric["name"]: metric["bound"] for metric in MANIFEST["end_to_end"]}

#: Pure functions of the seed and the step count: two runs of one seed must
#: agree on them to the last bit, whatever their bound across seeds is.
EXACT = ("relay_bytes_per_answer", "accuracy_loss")
