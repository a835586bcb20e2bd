"""Chaos/scale soak benchmark: the serving stack under storm conditions.

Registers hundreds of model versions across a sharded cluster, replays a
Zipfian multi-tenant bursty request stream, and keeps faults coming the
whole time: shard kills with bursts still in flight (a supervisor
respawn storm under live promote/rollback churn), poisoned wrong-width
request floods, and simulator-driven drift on a subset of tenants (the
platform-noise / weather / workload knobs of §IV moving under the
monitoring plane's windows).  The SLO autoscaler runs live, steering the
fleet width from the windowed p99.

The gates are the serving stack's survival claims, not throughput:

* zero client-visible transient errors — every routine request either
  scores or is recovered by the retry plane;
* bit-identity — every survivor matches a direct predict of a
  registered version of its tenant exactly;
* poisoned floods fail fast with coded client errors;
* drift on the injected tenants raises monitor alerts.

p50/p99/p999 tails (client wall clock and the fleet's bounded latency
rings) land in ``benchmarks/results/BENCH_chaos.json`` — one entry per
run, the same trajectory discipline as ``BENCH_serve.json``.

Runs standalone (``python benchmarks/bench_chaos.py``) or via an
explicit pytest path; the same soak is reachable as ``repro
chaos-bench``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.cli import record_trajectory_entry
from repro.serve.chaos import run_chaos_bench

RESULTS_DIR = Path(__file__).parent / "results"

N_NAMES = 25
VERSIONS_PER_NAME = 20          # 500 registered versions: the scale gate
N_REQUESTS = 2000
N_KILLS = 6
MAX_SHARDS = 4
SLO_TARGET_MS = 50.0


def run() -> dict:
    t0 = time.perf_counter()
    r = run_chaos_bench(
        n_names=N_NAMES,
        versions_per_name=VERSIONS_PER_NAME,
        n_requests=N_REQUESTS,
        n_kills=N_KILLS,
        max_shards=MAX_SHARDS,
        slo_target_ms=SLO_TARGET_MS,
        source="sim",
    )
    r["bench_wall_s"] = round(time.perf_counter() - t0, 2)
    record_trajectory_entry({"chaos": r}, RESULTS_DIR, filename="BENCH_chaos.json")

    lines = [
        "CHAOS (storm soak: kills + churn + poison + drift, autoscaler live)",
        f"scale: {r['n_versions']} versions over {r['n_names']} names, "
        f"{r['completed']}/{r['n_requests']} requests, shards "
        f"{r['n_shards_initial']} -> {r['n_shards_final']} "
        f"(ups {r['scale_ups']} / downs {r['scale_downs']} / "
        f"failed {r['scale_failures']})",
        f"faults: {r['kills']} kills, {r['respawns']} respawns, "
        f"{r['churns']} churns, {r['retries']} retries "
        f"({r['recovered']} recovered, {r['breaker_opens']} breaker opens), "
        f"{r['poison_failed_fast']}/{r['poison_sent']} poison failed fast, "
        f"{r['drift_alerts']} drift alerts",
        f"survival: {r['client_errors']} client-visible errors, "
        f"{r['mismatches']} bit-identity mismatches",
        f"tails: client p50 {r['p50_ms']:.1f} / p99 {r['p99_ms']:.1f} / "
        f"p999 {r['p999_ms']:.1f} ms; fleet ring p50 {r['fleet_p50_ms']:.2f} "
        f"/ p99 {r['fleet_p99_ms']:.2f} / p999 {r['fleet_p999_ms']:.2f} ms "
        f"(wall {r['bench_wall_s']:.1f}s)",
    ]
    table = "\n".join(lines)
    print("\n" + table)
    (RESULTS_DIR / "chaos.txt").write_text(table + "\n")
    return r


def test_chaos_bench():
    r = run()
    # the survival gates — the whole point of the harness
    assert r["client_errors"] == 0, r["client_error_codes"]
    assert r["mismatches"] == 0
    assert r["completed"] == r["n_requests"]
    # storm scale actually reached
    assert r["n_versions"] >= 500
    assert r["kills"] >= 5
    assert r["poison_sent"] > 0
    assert r["poison_failed_fast"] == r["poison_sent"]
    assert r["drift_alerts"] >= 1
    # tails recorded, ordered, non-vacuous
    assert 0.0 < r["p50_ms"] <= r["p99_ms"] <= r["p999_ms"]
    assert 0.0 < r["fleet_p50_ms"] <= r["fleet_p99_ms"] <= r["fleet_p999_ms"]


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
