"""Acceptance runs: two interleaved sets of seeded invocations.

Usage (from the repository root)::

    python3 benchmarks/e2e/acceptance.py --runs 10 --out benchmarks/e2e/results

For ``i`` in ``0..runs-1`` and each set in turn, every workload of
``BENCHMARK.json`` runs once as a fresh invocation with its own seed
(set 1 uses seeds ``1..runs``, set 2 ``101..100+runs``), so the two sets
interleave in time.  Then each workload runs once with ``--trace 1``.

Writes ``runs.jsonl`` (one line per invocation: set, workload, seed,
wall time, diagnostic lines and the result object),
``layers-<workload>.txt`` (the full output of each traced run) and
``summary.json``: per workload and end-to-end metric, each set's median
and spread — the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median — whether both
spreads are within the metric's bound, and whether the second median is
within the bound of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED_BASE = {1: 1, 2: 101}


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[float, str, dict]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list[dict], spec: dict) -> dict:
    out = {}
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            per_set = {
                s: [r["result"]["metrics"][m["name"]]["value"]
                    for r in runs if r["workload"] == w and r["set"] == s]
                for s in (1, 2)
            }
            med = {s: statistics.median(v) for s, v in per_set.items()}
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (med[2] - med[1]) / med[1]
            spreads = {s: spread(v) for s, v in per_set.items()}
            out[f"{w}/{m['name']}"] = {
                "unit": m["unit"], "bound": m["bound"], "median": med, "spread": spreads,
                # the driver exempts set-up time from the spread check
                "steady": m["name"] == "setup_s" or max(spreads.values()) <= m["bound"],
                "second_worse_by": worse_by, "agree": worse_by <= m["bound"],
                "values": per_set,
            }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="invocations per set and workload")
    ap.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "e2e" / "results")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    args.out.mkdir(parents=True, exist_ok=True)
    runs = []
    with (args.out / "runs.jsonl").open("w") as log:
        for i in range(args.runs):
            for s in (1, 2):
                for w in workloads:
                    seed = SEED_BASE[s] + i
                    wall, stdout, result = invoke(w, seed, seconds, 0)
                    run = {"set": s, "workload": w, "seed": seed, "wall_s": wall,
                           "log": stdout.strip().splitlines()[:-1], "result": result}
                    runs.append(run)
                    log.write(json.dumps(run) + "\n")
                    log.flush()
                    print(f"set {s} {w} seed {seed}: {wall:.1f} s", flush=True)
    for w in workloads:
        wall, stdout, _ = invoke(w, 1, seconds, 1)
        (args.out / f"layers-{w}.txt").write_text(stdout)
        print(f"layers {w}: {wall:.1f} s", flush=True)
    summary = summarize(runs, spec)
    (args.out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for key, row in summary.items():
        print(f"{key:28s} median {row['median'][1]:.6g} / {row['median'][2]:.6g} {row['unit']}  "
              f"spread {row['spread'][1]:.3f} / {row['spread'][2]:.3f}  "
              f"bound {row['bound']}  {'steady' if row['steady'] else 'UNSTEADY'}  "
              f"{'agree' if row['agree'] else 'DISAGREE'}")
    return 0 if all(r["agree"] and r["steady"] for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
