"""Harness self-test for the end-to-end benchmark, at tiny size.

Runs every workload for half a second on small models, checks that the
printed metric names are exactly the ones ``BENCHMARK.json`` declares
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``), and
checks that a corrupted reference makes the run fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# batch and storm are runnable but not gated (README), so the spec omits them
WORKLOADS = ("stream", "requeue", "batch", "storm")


def bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--tiny", "--seconds", "0.5", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    last = proc.stdout.strip().splitlines()[-1:]
    assert last and last[0].startswith("{"), proc.stderr
    return proc.returncode, json.loads(last[0])


def test_end_to_end_metrics_match_the_spec():
    code, out = bench()  # the default: every workload
    assert code == 0, out
    assert out["correct"] and out["attempted"] > 0 and out["failed"] == 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert set(out["metrics"]) == expected
    assert all(metric["value"] > 0 for metric in out["metrics"].values())


def test_per_layer_metrics_match_the_spec():
    code, out = bench("--workload", WORKLOADS[0], "--trace", "1")
    assert code == 0, out
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_corrupted_reference_fails_the_run():
    code, out = bench("--workload", WORKLOADS[0], "--corrupt-reference")
    assert code == 1
    assert not out["correct"]
