"""BENCHMARK.json names exactly the metrics run.py reports, with their units."""

import json
from pathlib import Path

import run
import workloads

BENCHMARK = json.loads(
    (Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metrics_match_benchmark_json():
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == table


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
