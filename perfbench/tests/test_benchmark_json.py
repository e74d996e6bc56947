"""BENCHMARK.json names exactly the workloads and per-layer metrics the
benchmark produces."""
import json
from pathlib import Path

import run
import workloads as wl

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]


def test_per_layer_metrics_match_trace_output():
    doc = {"import_s": 0.1, "setup_s": 0.2, "setup_spans": [],
           "runs": [{"spans": [], "untraced_s": 1.0, "traced_s": 1.1}]}
    produced = [(k, unit) for k, (_, unit) in run.trace_metrics(doc, 1.5).items()]
    assert produced == [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
