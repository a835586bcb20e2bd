"""End-to-end serving benchmark: the deployed stack under four workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload stream --seed 3 --seconds 30
    python3 benchmarks/e2e/run.py --workload requeue --trace 1   # per-layer metrics

The stack — edge -> retry -> 2-shard cluster with a supervisor — runs
in its own process (``stack.py``).  This process generates the traffic
from ``--seed``, drives it over one TCP connection with at most two
threads (``loadgen.py``), and checks every reply against reference
predictions computed outside the timed windows (``assets.py``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` (alias ``--layers``) runs the same workload and then the
per-layer measurements: the layers' counters, a traced replay with span
statistics, kernel rungs and the eight-rung layer ladder.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A run whose replies
do not match the references, whose generator ran late, or whose ladder
lost bit-identity exits 1 after printing it; a run that breaks off
exits non-zero without it.  See ``README.md`` for the workloads and
metrics and why each is here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import assets as A  # noqa: E402  (needs the path above)
from loadgen import WINDOW, EdgeConnection, Phase  # noqa: E402
from repro.serve.shard import shard_for_name  # noqa: E402
from spans import PAIRS, stage_stats  # noqa: E402

RATE = 2000.0             # open-loop arrivals, requests/s
STORM_RATE = 500.0        # storm arrivals (README: why not 2000)
CYCLE_S = 0.25            # requeue: every job is re-scored every 250 ms
QUEUE = 512               # requeue: (name, job) pairs in the queue -> 2048 req/s
CHURN = 0.1               # requeue: share of the queue replaced per cycle
BLOCK = 1024              # batch: rows per block
COLD_STARTS = 15          # set-up: the first is discarded
TRIALS = 10               # measured trials per phase; metrics are their medians
SLO_MS = 50.0
LATE_GATE_MS = 2.0
LATE_GATE_MIN_SENDS = 1000  # a p99 with at least ten sends beyond it
CLK_TCK = os.sysconf("SC_CLK_TCK")
WORKLOADS = ("stream", "requeue", "batch", "storm")
LADDER = ("direct", "batcher", "gateway", "cluster_pipe", "cluster_socket",
          "retry", "edge", "traced8")


# ---------------------------------------------------------------------- #
# the stack process
# ---------------------------------------------------------------------- #
class StackProcess:
    """``stack.py`` in its own session; one JSON line each way per command."""

    def __init__(self, assets_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stack.py"), str(assets_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            start_new_session=True,  # shard workers join its process group
        )
        self._buf = bytearray()

    def call(self, op: str, timeout: float = 120.0, **params: Any) -> Any:
        self.proc.stdin.write((json.dumps({"op": op, **params}) + "\n").encode())
        self.proc.stdin.flush()
        reply = json.loads(self._readline(timeout))
        if isinstance(reply, dict) and "error" in reply:
            raise RuntimeError(f"stack {op}: {reply['error']}")
        return reply

    def _readline(self, timeout: float) -> bytes:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        scanned = 0
        while (nl := self._buf.find(b"\n", scanned)) < 0:
            scanned = len(self._buf)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError("stack process did not answer in time")
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise RuntimeError("stack process exited")
            self._buf += chunk
        line = bytes(self._buf[:nl])
        del self._buf[: nl + 1]
        return line

    def cpu_s(self) -> np.ndarray:
        """CPU time (user + system) of the stack's live processes, as
        ``[front, shards]``: the front process (edge, retry, cluster
        parent) and the shard workers it forks share its process group."""
        ticks = np.zeros(2)
        for entry in os.scandir("/proc"):
            if not entry.name.isdigit():
                continue
            try:
                with open(f"/proc/{entry.name}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # exited meanwhile
            if int(fields[2]) == self.proc.pid:  # pgrp; then utime, stime
                part = 0 if int(entry.name) == self.proc.pid else 1
                ticks[part] += int(fields[11]) + int(fields[12])
        return ticks / CLK_TCK

    def close(self) -> None:
        """Exit politely, then make sure the whole process group is gone."""
        try:
            if self.proc.poll() is None:
                self.call("exit", timeout=60.0)
            self.proc.wait(timeout=30.0)
        except Exception:
            pass
        try:
            os.killpg(self.proc.pid, 9)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


# ---------------------------------------------------------------------- #
# one workload run: traffic, replies, tallies
# ---------------------------------------------------------------------- #
class Ran(NamedTuple):
    """One phase: its timings, which replies were right, what it cost."""

    phase: Phase
    ok: np.ndarray   # per request: answered and equal to a reference
    rows: int        # rows scored
    cpu_s: np.ndarray  # CPU time of the stack's [front, shards] while it ran


class Context:
    def __init__(self, stack: StackProcess, assets: A.Assets, seed: int, corrupt: bool):
        self.stack = stack
        self.assets = assets
        self.traffic = A.Traffic(assets.size.pool, seed)
        self.refs = assets.refs
        if corrupt:
            # the harness self-test: one ulp off for the hottest name
            name = A.NAMES[0]
            self.refs = {**assets.refs, name: {
                k: np.nextafter(v, np.inf) for k, v in assets.refs[name].items()}}
        self.conn = None
        self.attempted = self.failed = self.mismatches = 0
        self.late: list[np.ndarray] = []

    def connect(self, port: int) -> None:
        if self.conn is not None:
            self.conn.close()
        self.conn = EdgeConnection(port)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def run(self, plan: list[tuple], offsets: np.ndarray | None = None,
            window: int = WINDOW, refs: tuple = ()) -> Ran:
        """Send ``plan`` (``(name, pool row or rows, kind)`` items) and check
        every reply against ``refs`` (default: v1)."""
        rows = [(name, self.assets.pools[A.platform_of(name)][idx], kind)
                for name, idx, kind in plan]
        encoded = self.conn.encode(rows)
        cpu0 = self.stack.cpu_s()
        phase = self.conn.run(encoded, offsets, window)
        cpu = self.stack.cpu_s() - cpu0
        refs = refs or (self.refs,)
        ok = np.zeros(len(plan), dtype=bool)
        for i, ((name, idx, kind), msg) in enumerate(zip(plan, phase.replies)):
            if msg.get("id") != phase.first_id + i or not msg.get("ok"):
                self.failed += 1
                continue
            if any(_matches(msg["value"], r[name], idx, kind) for r in refs):
                ok[i] = True
            else:
                self.mismatches += 1
        self.attempted += len(plan)
        self.late.append(phase.late[~np.isnan(phase.late)])
        return Ran(phase, ok, sum(np.size(idx) for _, idx, _ in plan), cpu)


def _matches(value: Any, ref: dict[str, np.ndarray], idx: Any, kind: str) -> bool:
    if isinstance(idx, np.ndarray):  # a block
        return np.array_equal(np.asarray(value, dtype=float), ref["block"][idx])
    if kind == "predict":
        return value == ref["predict"][idx]
    return list(value) == ref["dist"][idx].tolist()


@dataclass
class Measured:
    """A workload's numbers: per-trial values and their medians, the
    stack's CPU cost per row, and the client samples of the latency
    trials."""

    trial_p50_ms: list[float]
    trial_capacity_rps: list[float]  # empty unless measured (see the workloads' modes)
    cpu_ms_per_krow: np.ndarray  # [front, shards], over all latency trials
    latency_ms: np.ndarray
    ok: np.ndarray

    @property
    def p50_ms(self) -> float:
        return _median(self.trial_p50_ms)

    @property
    def capacity_rps(self) -> float:
        return _median(self.trial_capacity_rps)


def _measured(trials: list[Ran], p50s: list[float], rates: list[float]) -> Measured:
    return Measured(
        trial_p50_ms=p50s,
        trial_capacity_rps=rates,
        cpu_ms_per_krow=1e6 * sum(t.cpu_s for t in trials) / sum(t.rows for t in trials),
        latency_ms=np.concatenate([t.phase.latency_ms for t in trials]),
        ok=np.concatenate([t.ok for t in trials]),
    )


def _median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=float)))


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
# A workload runs in one of three modes: "gate" measures the end-to-end
# metrics; "layers" also measures closed-loop capacity, a per-layer
# diagnostic; "replay" runs one latency trial, for the traced run.
def _online(ctx: Context, seconds: float, mode: str, requests, offsets) -> Measured:
    """Open-loop latency trials on the workload's arrival schedule; in
    "layers" mode also closed-loop capacity trials with 512 outstanding."""
    def open_trial(span: float) -> Ran:
        due = offsets(span)
        return ctx.run(requests(len(due)), due)

    open_trial(0.1 * seconds)  # warm-up, discarded
    trials = [open_trial(0.08 * seconds) for _ in range(1 if mode == "replay" else TRIALS)]
    p50s = [float(np.percentile(t.phase.latency_ms, 50)) for t in trials]
    rates = []
    if mode == "layers":
        n = max(64, int(200 * seconds))
        for _ in range(TRIALS):
            rates.append(n / ctx.run(requests(n)).phase.elapsed_s)
    return _measured(trials, p50s, rates)


def stream(ctx: Context, seconds: float, mode: str) -> Measured:
    """Poisson single-row arrivals at 2000/s, every row distinct."""
    return _online(ctx, seconds, mode, ctx.traffic.requests,
                   lambda span: ctx.traffic.poisson(RATE, span))


def requeue(ctx: Context, seconds: float, mode: str) -> Measured:
    """A scheduler keeping 512 queued jobs' predictions fresh: each job is
    re-scored every 250 ms, staggered evenly, and a tenth of the queue is
    replaced every 250 ms."""
    queue = ctx.traffic.requests(QUEUE, dist_share=0.0)
    n_new = int(round(CHURN * QUEUE))
    pos = 0

    def requests(n: int) -> list[tuple]:
        nonlocal pos
        out = []
        for _ in range(n):
            if pos % QUEUE == 0:  # a new cycle: churn first
                slots = ctx.traffic.rng.choice(QUEUE, size=n_new, replace=False)
                for slot, item in zip(slots, ctx.traffic.requests(n_new, dist_share=0.0)):
                    queue[slot] = item
            out.append(queue[pos % QUEUE])
            pos += 1
        return out

    return _online(ctx, seconds, mode, requests,
                   lambda span: np.arange(int(span * QUEUE / CYCLE_S)) * (CYCLE_S / QUEUE))


def batch(ctx: Context, seconds: float, mode: str) -> Measured:
    """Offline scoring of 1024-row blocks, two blocks outstanding."""
    def blocks(k: int) -> list[tuple]:
        return [(*ctx.traffic.block(BLOCK), "predict") for _ in range(k)]

    ctx.run(blocks(2), window=2)  # warm-up
    k = max(2, int(round(0.5 * seconds)))
    trials = [ctx.run(blocks(k), window=2) for _ in range(1 if mode == "replay" else TRIALS)]
    p50s = [float(np.percentile(t.phase.latency_ms, 50)) for t in trials]
    rates = [k * BLOCK / t.phase.elapsed_s for t in trials]
    return _measured(trials, p50s, rates)


def storm(ctx: Context, seconds: float, mode: str) -> Measured:
    """``stream`` arrivals while shards are killed and versions flip."""
    ctx.stack.call("storm_prepare")
    offsets = ctx.traffic.poisson(STORM_RATE, 0.1 * seconds)
    ctx.run(ctx.traffic.requests(len(offsets)), offsets)  # warm-up, no storm
    offsets = ctx.traffic.poisson(STORM_RATE, (0.3 if mode == "replay" else 1.0) * seconds)
    plan = ctx.traffic.requests(len(offsets))
    ctx.stack.call("storm_start")
    try:
        t = ctx.run(plan, offsets, refs=(ctx.refs, ctx.assets.refs_v2))
    finally:
        ctx.stack.call("storm_stop")
    return _measured([t], [float(np.percentile(t.phase.latency_ms, 50))],
                     [t.ok.sum() / t.phase.elapsed_s])


RUNNERS = {"stream": stream, "requeue": requeue, "batch": batch, "storm": storm}


# ---------------------------------------------------------------------- #
# set-up, the traced run, the ladder
# ---------------------------------------------------------------------- #
def cold_start(ctx: Context, trace_sample: int | None = None) -> dict[str, float]:
    """Start a fresh deployment and wait for one reply per name."""
    ctx.close()
    ctx.stack.call("stop")
    t0 = time.perf_counter()
    info = ctx.stack.call("start", trace_sample=trace_sample)
    t1 = time.perf_counter()
    ctx.connect(info["port"])
    ctx.run([(name, A.PROBE_ROW, "predict") for name in A.NAMES])
    t2 = time.perf_counter()
    return {"setup_s": t2 - t0, "register_s": info["register_s"],
            "spawn_s": info["spawn_s"], "first_response_s": t2 - t1}


def measure_setup(ctx: Context) -> dict[str, float]:
    starts = [cold_start(ctx) for _ in range(COLD_STARTS)][1:]
    return {k: _median([s[k] for s in starts]) for k in starts[0]}


def kill_probe(ctx: Context) -> None:
    """Kill shard 0, then send a short burst for its names, so the traced
    run records retries on every workload.  The burst ends before the
    circuit breaker's reset timeout: a submit arriving after that could
    take the half-open probe slot ahead of a retry the edge is waiting on
    (see README, "Findings")."""
    names = [n for n in A.NAMES if shard_for_name(n, 2) == 0]
    ctx.stack.call("kill", shard=0)
    plan = [(names[i % len(names)], ctx.traffic.next_row(names[i % len(names)]), "predict")
            for i in range(32)]
    ctx.run(plan, np.arange(len(plan)) / RATE)


def traced_run(ctx: Context, workload: str, seconds: float, untraced_p50: float) -> dict[str, float]:
    cold_start(ctx, trace_sample=1)
    replay = RUNNERS[workload](ctx, seconds, "replay")
    main = ctx.stack.call("spans")
    for _ in range(5):  # the supervisor may respawn before a burst meets the dead shard
        kill_probe(ctx)
        retried = stage_stats(ctx.stack.call("spans")["spans"])[("resilience", "retry")]
        if retried["count"]:
            break
    stats = stage_stats(main["spans"])
    stats[("resilience", "retry")] = retried
    out = {}
    for (comp, stage) in PAIRS:
        st = stats[(comp, stage)]
        if st["count"] == 0:
            raise RuntimeError(f"traced run recorded no {comp}.{stage} spans")
        for key, value in st.items():
            out[f"span.{comp}.{stage}.{key}"] = value
    out["obs.overhead_pct"] = 100.0 * (replay.p50_ms / untraced_p50 - 1.0)
    out["obs.spans_dropped"] = float(sum(main["dropped"].values()))
    return out


def ladder(ctx: Context, seed: int, seconds: float, tiny: bool) -> tuple[dict, dict]:
    n = max(64, int(200 * seconds))
    layers = ctx.stack.call("layers", timeout=170.0, seed=seed, requests=n,
                            kernel_s=0.3 if tiny else 1.5)
    rungs = layers["rungs"]
    traffic = A.Traffic(ctx.assets.size.pool, seed)
    plan = traffic.requests(n)
    warm = traffic.requests(256)  # the same untimed warm-up as the in-process rungs
    for rung, trace_sample in (("edge", None), ("traced8", 8)):
        cold_start(ctx, trace_sample=trace_sample)
        ctx.run(warm)
        before = ctx.mismatches
        ph = ctx.run(plan).phase
        lat = ph.latency_ms
        rungs[rung] = {"rps": n / ph.elapsed_s, "p50_ms": float(np.percentile(lat, 50)),
                       "p99_ms": float(np.percentile(lat, 99)),
                       "mismatches": ctx.mismatches - before, "requests": n}
    ctx.close()
    ctx.stack.call("stop")
    return {r: rungs[r] for r in LADDER}, layers["kernel"]


# ---------------------------------------------------------------------- #
# one workload, end to end
# ---------------------------------------------------------------------- #
def run_one(stack: StackProcess, assets: A.Assets, workload: str, seed: int,
            seconds: float, trace: bool, corrupt: bool, tiny: bool) -> dict[str, Any]:
    ctx = Context(stack, assets, seed, corrupt)
    problems: list[str] = []
    try:
        setup = measure_setup(ctx)
        result = RUNNERS[workload](ctx, seconds, "layers" if trace else "gate")
        stats = ctx.stack.call("stats") if trace else None
        late = np.concatenate(ctx.late) if ctx.late else np.zeros(0)
        late_p99 = float(np.percentile(late, 99)) * 1e3 if late.size else 0.0
        if late.size >= LATE_GATE_MIN_SENDS and late_p99 > LATE_GATE_MS:
            problems.append(f"load generator ran late: p99 {late_p99:.3f} ms > {LATE_GATE_MS} ms")
        metrics = {
            "setup_s": setup["setup_s"],
            "p50_ms": result.p50_ms,
            "success_rate": 1.0 - ctx.failed / ctx.attempted,
        }
        if trace:
            lat, ok = result.latency_ms, result.ok
            metrics = layer_metrics(stats, setup)
            metrics.update({
                "client.p99_ms": float(np.percentile(lat, 99)),
                "client.p999_ms": float(np.percentile(lat, 99.9)),
                "client.late_p99_ms": late_p99,
                "client.slo_miss_rate": float(np.mean(~ok | (lat > SLO_MS))),
                "client.samples": float(lat.size),
                "client.capacity_rps": result.capacity_rps,
                "cpu.front_ms_per_krow": float(result.cpu_ms_per_krow[0]),
                "cpu.shards_ms_per_krow": float(result.cpu_ms_per_krow[1]),
            })
            metrics.update(traced_run(ctx, workload, seconds, result.p50_ms))
            rungs, kernel = ladder(ctx, seed, seconds, tiny)
            for rung, res in rungs.items():
                if res["mismatches"]:
                    problems.append(f"ladder rung {rung}: {res['mismatches']} replies "
                                    "differ from direct predicts")
                for key in ("rps", "p50_ms", "p99_ms"):
                    metrics[f"ladder.{rung}.{key}"] = res[key]
            for key, value in kernel.items():
                metrics[f"kernel.{key}"] = value
            report_layers(workload, metrics, rungs, kernel)
        else:
            print(f"[{workload}] client p99 {np.percentile(result.latency_ms, 99):.2f} ms "
                  f"over {result.latency_ms.size} samples; generator late p99 {late_p99:.3f} ms")
            print(f"[{workload}] trials: p50_ms "
                  + " ".join(f"{x:.3f}" for x in result.trial_p50_ms) + "; capacity_rps "
                  + " ".join(f"{x:.0f}" for x in result.trial_capacity_rps)
                  + "; stack cpu ms per 1000 rows: front {:.1f}, shards {:.1f}".format(
                      *result.cpu_ms_per_krow))
    finally:
        ctx.close()
        stack.call("stop")
    if ctx.mismatches:
        problems.append(f"{ctx.mismatches} replies differ from the reference predictions")
    return {"workload": workload, "metrics": metrics, "problems": problems,
            "attempted": ctx.attempted, "failed": ctx.failed}


def layer_metrics(stats: dict[str, Any], setup: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for group in ("batcher", "cache", "retry", "supervisor"):
        for key, value in stats[group].items():
            out[f"{group}.{key}"] = float(value)
    per_shard = [stats["cluster"]["shard_requests"].get(str(s), 0) for s in range(2)]
    out["cluster.shard_balance"] = min(per_shard) / max(max(per_shard), 1)
    out["cluster.steals"] = float(stats["cluster"]["steals"])
    out["cluster.live_shards"] = float(stats["cluster"]["live_shards"])
    for key in ("requests", "shed", "wire_errors"):
        out[f"edge.{key}"] = float(stats["edge"][key])
    for key in ("register_s", "spawn_s", "first_response_s"):
        out[f"setup.{key}"] = setup[key]
    return out


def report_layers(workload: str, metrics: dict[str, float], rungs: dict, kernel: dict) -> None:
    rows = metrics["batcher.mean_batch_rows"]
    print(f"[{workload}] kernel rows/s at the flushed batch size "
          f"(batcher.mean_batch_rows = {rows:.1f}):")
    sizes = sorted({int(key.rsplit(".", 1)[1]) for key in kernel})
    for kind in ("rf", "xgb"):
        print(f"    {kind:4s}" + "".join(
            f"  {m:>5d}: {kernel[f'{kind}.rows_per_s.{m}']:>10.0f}" for m in sizes))
    print(f"[{workload}] ladder (closed loop, 512 outstanding; delta from the rung above):")
    prev = None
    for rung, res in rungs.items():
        delta = "" if prev is None else (
            f"  d_rps {res['rps'] - prev['rps']:+9.0f}  d_p50 {res['p50_ms'] - prev['p50_ms']:+8.2f} ms")
        print(f"    {rung:15s} {res['rps']:9.0f} req/s  p50 {res['p50_ms']:8.2f} ms  "
              f"p99 {res['p99_ms']:8.2f} ms  mismatches {res['mismatches']}{delta}")
        prev = res


def metric_units() -> dict[str, str]:
    """Every metric's unit, from ``BENCHMARK.json``: the one list of names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=",".join(WORKLOADS),
                    help="one workload or a comma-separated list (default: all)")
    ap.add_argument("--seed", type=int, default=0, help="traffic seed")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of a run; every phase scales with it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics instead of end-to-end ones")
    ap.add_argument("--layers", action="store_true", help="same as --trace 1")
    ap.add_argument("--tiny", action="store_true", help="small models and pools (smoke test)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="harness self-test: perturb one reference, so the run must fail")
    args = ap.parse_args(argv)
    workloads = [w for w in args.workload.split(",") if w]
    bad = [w for w in workloads if w not in RUNNERS]
    if bad or not workloads:
        ap.error(f"unknown workload(s) {bad}; choose from {WORKLOADS}")
    trace = bool(args.trace or args.layers)
    # a terminated run still unwinds, so the stack's process group is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    t0 = time.perf_counter()
    path, assets, built = A.load(A.TINY if args.tiny else A.FULL)
    if built:
        print(f"train_s {assets.build_s:.2f} s (models and references built; "
              "excluded from every metric)")
    else:
        print(f"assets loaded in {time.perf_counter() - t0:.2f} s "
              f"(built once in {assets.build_s:.2f} s)")
    gc.collect()
    gc.freeze()  # the assets never change: keep collections off them

    stack = StackProcess(path)
    runs = []
    try:
        for workload in workloads:
            runs.append(run_one(stack, assets, workload, args.seed, args.seconds,
                                trace, args.corrupt_reference, args.tiny))
    except Exception as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        stack.close()

    problems = [f"[{r['workload']}] {p}" for r in runs for p in r["problems"]]
    single = len(runs) == 1
    units = metric_units()
    metrics = {}
    for r in runs:
        for name, value in r["metrics"].items():
            print(f"[{r['workload']}] {name} {value:.6g} {units[name]}")
            key = name if single else f"{r['workload']}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
