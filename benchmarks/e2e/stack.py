"""The serving stack under test, in a process of its own.

Run as ``python3 stack.py <assets.pkl>`` by ``run.py``; never imported
by it.  The process reads one JSON command per line on stdin and answers
each with one JSON line on its original stdout (anything else printed
goes to stderr).  Commands:

``start``          cold-start a deployment (below); answers its port and
                   the register/spawn/bind times.  ``trace_sample`` null
                   runs untraced; 1 or 8 attaches one :class:`Tracer` to
                   the edge and the cluster at that sampling stride.
``stop``           tear the deployment down.
``stats``          the layers' public counters, as JSON.
``storm_prepare``  register v2 = ``model.truncated(half)`` of every name.
``storm_start`` /  a driver thread that flips production v1 <-> v2 every
``storm_stop``     second and kills a live shard every two seconds.
``kill``           kill one shard; answers once the cluster has seen it die.
``spans``          the cluster's merged span export (edge spans included:
                   edge and cluster share the tracer).
``layers``         the in-process measurements: kernel rungs and the
                   ladder rungs ``direct`` .. ``retry``.
``exit``           stop everything and exit.

A deployment is the stack ``docs/serving.md`` describes, with library
defaults: :class:`AsyncServeServer` -> :class:`RetryController` ->
``ShardedServingCluster(n_shards=2, route="hash")`` over pipes, watched
by a :class:`ShardSupervisor`.
"""

from __future__ import annotations

import json
import os
import pickle
import queue
import sys
import threading
import time
import traceback
from typing import Any

import numpy as np

import assets as A
from repro.serve import (
    AsyncServeServer,
    MicroBatcher,
    ModelRegistry,
    RetryController,
    ServingGateway,
    ShardedServingCluster,
    ShardSupervisor,
    Tracer,
)
from repro.serve.shard import shard_for_name

N_SHARDS = 2
SPAN_RING = 1 << 16  # per component and process; large enough for a traced replay
WINDOW = 512         # outstanding requests in the closed-loop ladder rungs
WARM = 256           # untimed requests before each closed-loop rung
KERNEL_SIZES = (1, 8, 64, 256, 1024)


class DropTrace:
    """Edge backend that forwards to a :class:`RetryController` without
    ``trace=``.

    A traced edge calls ``backend.submit(name, row, kind=kind,
    trace=ctx)``, which ``RetryController.submit`` does not accept: every
    request would fail ``MALFORMED_REQUEST``.  Behind this pass-through
    the edge's spans and the cluster's spans are both recorded, under
    different trace ids."""

    def __init__(self, backend: Any):
        self.backend = backend

    def submit(self, name: str, row: np.ndarray, kind: str = "predict", trace: Any = None):
        return self.backend.submit(name, row, kind)


class Deployment:
    def __init__(self, model_bytes: dict[str, bytes], trace_sample: int | None):
        owners = {shard_for_name(name, N_SHARDS) for name in A.NAMES}
        if len(owners) < N_SHARDS:
            raise RuntimeError(
                f"shard balance: names {A.NAMES} hash onto shards {sorted(owners)} "
                f"only; every one of {N_SHARDS} shards must own a name")
        t0 = time.perf_counter()
        self.registry = ModelRegistry()
        self.models = {name: pickle.loads(b) for name, b in model_bytes.items()}
        for name in A.NAMES:
            self.registry.register(name, self.models[name], promote=True)
        t1 = time.perf_counter()
        self.tracer = Tracer(ring_size=SPAN_RING) if trace_sample else None
        self.cluster = ShardedServingCluster(
            self.registry, n_shards=N_SHARDS, route="hash",
            tracer=self.tracer, trace_sample=trace_sample or 1)
        self.supervisor = ShardSupervisor(self.cluster)
        self.supervisor.start()
        self.retry = RetryController(self.cluster)
        t2 = time.perf_counter()
        backend = DropTrace(self.retry) if self.tracer is not None else self.retry
        self.edge = AsyncServeServer(
            backend, port=0, tracer=self.tracer,
            trace_sample=trace_sample or 1).start()
        t3 = time.perf_counter()
        self.times = {"register_s": t1 - t0, "spawn_s": t2 - t1, "bind_s": t3 - t2}
        self.v1 = {name: self.registry.production_version(name) for name in A.NAMES}
        self.v2: dict[str, int] = {}
        self._storm: threading.Thread | None = None
        self._storm_stop = threading.Event()
        self.kills = 0
        self.flips = 0

    # ------------------------------------------------------------------ #
    def storm_prepare(self) -> dict[str, int]:
        for name, model in self.models.items():
            n = model.n_estimators // 2
            self.v2[name] = self.cluster.register(name, model.truncated(n))
        return self.v2

    def storm_start(self) -> None:
        self._storm_stop.clear()
        self._storm = threading.Thread(target=self._storm_loop, name="storm", daemon=True)
        self._storm.start()

    def _storm_loop(self) -> None:
        start = time.monotonic()
        tick = 0
        while not self._storm_stop.wait(max(0.0, start + tick + 1 - time.monotonic())):
            tick += 1
            for name in A.NAMES:
                if self.registry.production_version(name) == self.v1[name]:
                    self.registry.promote(name, self.v2[name])
                else:
                    self.registry.rollback(name)
            self.flips += 1
            if tick % 2 == 0:
                live = self.cluster.live_shards()
                want = (tick // 2) % N_SHARDS
                victim = want if want in live else (live[0] if live else None)
                if victim is not None:
                    self.cluster.kill_shard(victim)
                    self.kills += 1

    def kill(self, shard: int, timeout: float = 5.0) -> None:
        """Kill one shard and return once the cluster has seen it die."""
        self.cluster.kill_shard(shard)
        deadline = time.monotonic() + timeout
        while shard in self.cluster.live_shards() and time.monotonic() < deadline:
            time.sleep(0.001)

    def storm_stop(self, timeout: float = 30.0) -> dict[str, int]:
        self._storm_stop.set()
        if self._storm is not None:
            self._storm.join(timeout)
        self._wait_live(timeout)
        return {"kills": self.kills, "flips": self.flips}

    def _wait_live(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while len(self.cluster.live_shards()) < self.cluster.n_shards:
            if time.monotonic() > deadline:
                raise RuntimeError("shards were not respawned in time")
            time.sleep(0.01)

    def stats(self) -> dict[str, Any]:
        self._wait_live(30.0)
        st = self.cluster.stats()
        tot = st.total
        res = self.retry.stats()
        sup = self.supervisor.stats()
        return {
            "batcher": {
                "batches": tot.batches, "mean_batch_rows": tot.mean_batch_rows,
                "size_flushes": tot.size_flushes, "deadline_flushes": tot.deadline_flushes,
                "p50_ms": tot.p50_ms, "p99_ms": tot.p99_ms, "abandoned": tot.abandoned,
            },
            "cache": {
                "hit_rate": tot.hit_rate, "hits": tot.cache_hits,
                "evictions": tot.cache_evictions, "invalidations": tot.cache_invalidations,
            },
            "cluster": {
                "shard_requests": {str(sid): gw.total.requests for sid, gw in st.per_shard.items()},
                "steals": st.steals,
                "live_shards": len(self.cluster.live_shards()),
            },
            "retry": {
                "retries": res.retries, "recovered": res.recovered, "exhausted": res.exhausted,
                "failed_fast": res.failed_fast, "breaker_opens": res.breaker_opens,
            },
            "supervisor": {"respawns": sup.respawns, "respawn_failures": sup.respawn_failures},
            "edge": self.edge.counters(),
            "storm": {"kills": self.kills, "flips": self.flips},
        }

    def close(self) -> None:
        self._storm_stop.set()
        if self._storm is not None:
            self._storm.join(30.0)
        self.edge.close()
        self.supervisor.stop()
        self.cluster.close()


# ---------------------------------------------------------------------- #
# in-process layer measurements
# ---------------------------------------------------------------------- #
def closed_loop(submit, requests: list[tuple[str, np.ndarray, str]],
                warm: list[tuple[str, np.ndarray, str]] = ()) -> dict[str, Any]:
    """Drive ``submit(name, row, kind) -> ticket`` with ``WINDOW`` requests
    outstanding: this thread submits, one collector thread waits on the
    tickets in order.  ``warm`` requests go first, untimed, so lazily
    built services and fresh workers do not count against the rung."""
    for ticket in [submit(*req) for req in warm]:
        ticket.result(timeout=60.0)
    n = len(requests)
    t_sub = np.empty(n)
    t_done = np.empty(n)
    values: list[Any] = [None] * n
    slots = threading.Semaphore(WINDOW)
    tickets: queue.SimpleQueue = queue.SimpleQueue()
    failure: list[BaseException] = []

    def collect() -> None:
        for i in range(n):
            ticket = tickets.get()
            try:
                values[i] = ticket.result(timeout=60.0)
            except BaseException as exc:  # recorded; the run then fails loudly
                failure.append(exc)
            t_done[i] = time.perf_counter()
            slots.release()

    collector = threading.Thread(target=collect, name="ladder-collect")
    collector.start()
    t0 = time.perf_counter()
    for i, (name, row, kind) in enumerate(requests):
        slots.acquire()
        t_sub[i] = time.perf_counter()
        tickets.put(submit(name, row, kind))
    collector.join()
    if failure:
        raise RuntimeError(f"{len(failure)} ladder requests failed: {failure[0]!r}")
    lat = (t_done - t_sub) * 1e3
    return {"rps": n / (t_done[-1] - t0), "p50_ms": float(np.percentile(lat, 50)),
            "p99_ms": float(np.percentile(lat, 99)), "values": values}


def direct(models: dict, requests) -> dict[str, Any]:
    n = len(requests)
    lat = np.empty(n)
    values = []
    t0 = time.perf_counter()
    for i, (name, row, kind) in enumerate(requests):
        t = time.perf_counter()
        if kind == "predict":
            values.append(float(models[name].predict_many([row[None, :]])[0][0]))
        else:
            m, v = models[name].predict_dist_many([row[None, :]])[0]
            values.append((float(m[0]), float(v[0])))
        lat[i] = time.perf_counter() - t
    elapsed = time.perf_counter() - t0
    lat *= 1e3
    return {"rps": n / elapsed, "p50_ms": float(np.percentile(lat, 50)),
            "p99_ms": float(np.percentile(lat, 99)), "values": values}


def kernel_rungs(models: dict, pools: dict, seconds: float) -> dict[str, float]:
    """Rows/s of ``predict_many`` over ``m`` single-row blocks — the call a
    flush of ``m`` single-row requests makes — per model kind."""
    out = {}
    per = seconds / (2 * len(KERNEL_SIZES))
    for kind in ("rf", "xgb"):
        names = [n for n in A.NAMES if n.endswith(kind)]
        for m in KERNEL_SIZES:
            rows = 0
            busy = 0.0
            for name in names:
                pool = pools[A.platform_of(name)]
                model = models[name]
                start = 0
                t_end = time.perf_counter() + per / len(names)
                while True:
                    idx = (start + np.arange(m)) % pool.shape[0]
                    blocks = [pool[i][None, :] for i in idx]
                    t = time.perf_counter()
                    model.predict_many(blocks)
                    busy += time.perf_counter() - t
                    rows += m
                    start += m
                    if time.perf_counter() >= t_end:
                        break
            out[f"{kind}.rows_per_s.{m}"] = rows / busy
    return out


def run_layers(assets: A.Assets, seed: int, n_requests: int, kernel_s: float) -> dict[str, Any]:
    registry = ModelRegistry()
    for name, model in assets.models().items():
        registry.register(name, model, promote=True)
    models = {name: registry.get(name) for name in A.NAMES}
    kernel = kernel_rungs(models, assets.pools, kernel_s)

    traffic = A.Traffic(assets.size.pool, seed)
    plan = traffic.requests(n_requests)
    requests = [(name, assets.row(name, idx), kind) for name, idx, kind in plan]
    warm = [(name, assets.row(name, idx), kind) for name, idx, kind in traffic.requests(WARM)]
    expected = [
        float(assets.refs[name]["predict"][idx]) if kind == "predict"
        else tuple(float(x) for x in assets.refs[name]["dist"][idx])
        for name, idx, kind in plan
    ]

    rungs: dict[str, dict[str, Any]] = {}
    rungs["direct"] = direct(models, requests)

    batchers = {name: MicroBatcher(models[name]) for name in A.NAMES}
    try:
        rungs["batcher"] = closed_loop(
            lambda name, row, kind: batchers[name].submit(row, kind=kind), requests, warm)
    finally:
        for b in batchers.values():
            b.close()
    with ServingGateway(registry) as gateway:
        rungs["gateway"] = closed_loop(gateway.submit, requests, warm)
    for transport in ("pipe", "socket"):
        with ShardedServingCluster(registry, n_shards=N_SHARDS, route="hash",
                                   transport=transport) as cluster:
            rungs[f"cluster_{transport}"] = closed_loop(cluster.submit, requests, warm)
    with ShardedServingCluster(registry, n_shards=N_SHARDS, route="hash") as cluster:
        retry = RetryController(cluster)
        rungs["retry"] = closed_loop(retry.submit, requests, warm)

    out: dict[str, Any] = {"kernel": kernel, "rungs": {}}
    for rung, res in rungs.items():
        mismatches = sum(v != e for v, e in zip(res.pop("values"), expected))
        out["rungs"][rung] = {**res, "mismatches": mismatches, "requests": len(requests)}
    return out


# ---------------------------------------------------------------------- #
def main() -> None:
    assets = A.read(sys.argv[1])
    # Shard workers are forked while this thread waits for the next
    # command, and a forked child closes sys.stdin first thing: read
    # through sys.stdin, the child would block forever on the buffer lock
    # this thread holds.  So commands arrive on a private copy of fd 0.
    commands = os.fdopen(os.dup(0), "r")
    proto = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)
    os.dup2(2, 1)  # stray prints (ours or a library's) must not corrupt the protocol
    sys.stdin = open(os.devnull)
    sys.stdout = sys.stderr
    dep: Deployment | None = None
    for line in commands:
        cmd = json.loads(line)
        op = cmd["op"]
        try:
            if op in ("start", "stop") and dep is not None:
                dep.close()
                dep = None
            if op == "start":
                dep = Deployment(assets.model_bytes, cmd.get("trace_sample"))
                reply: Any = {"port": dep.edge.port, **dep.times}
            elif op == "stop":
                reply = {}
            elif op == "stats":
                reply = dep.stats()
            elif op == "storm_prepare":
                reply = dep.storm_prepare()
            elif op == "storm_start":
                dep.storm_start()
                reply = {}
            elif op == "storm_stop":
                reply = dep.storm_stop()
            elif op == "kill":
                dep.kill(int(cmd["shard"]))
                reply = {}
            elif op == "spans":
                reply = dep.cluster.trace_spans()
            elif op == "layers":
                reply = run_layers(assets, int(cmd["seed"]), int(cmd["requests"]),
                                   float(cmd["kernel_s"]))
            elif op == "exit":
                break
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # answered, so the benchmark can fail the run
            traceback.print_exc()
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    if dep is not None:
        dep.close()
    try:
        proto.write("{}\n")
        proto.flush()
    except BrokenPipeError:
        pass  # the benchmark process is already gone


if __name__ == "__main__":
    main()
