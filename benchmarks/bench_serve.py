"""Overhead gates for the serving stack's observational planes.

Three planes promise to watch the serving path without slowing it down by
more than 5 %, and this bench holds each to it:

* **monitor** — a monitored vs an unmonitored gateway replaying one
  single-row stream; then injected drift must raise a PSI alert that
  auto-rolls production back to v1.
* **faults** — a ``RetryController``-wrapped vs a bare replicated
  cluster; then a kill storm under a ``ShardSupervisor`` records the
  time-to-first-success p50/p99, and a malformed request must fail fast
  with zero retries.
* **obs** — a traced (1-in-8 sampled) vs an untraced gateway; then one
  traced request must reassemble into ≥ 6 distinct stages across a
  socket-transport cluster, and the Prometheus/JSON exports must agree
  exactly with ``ClusterStats``.

All three overhead numbers come from one helper, :func:`paired_overhead`,
and every replay it times is checked ``np.array_equal`` against direct
per-request predicts before any number is reported.

Each run appends one entry holding ``monitor``, ``faults`` and ``obs`` to
``benchmarks/results/BENCH_serve.json``.  Earlier entries also hold six
throughput scenarios that stopped recording: ``forest``, ``gbm``,
``gateway``, ``cluster``, ``net`` and ``transport``.  Each was one ~0.1 s
run with no repeat and no bound, and ``cluster`` sent all of its traffic
to one shard.  ``benchmarks/e2e`` measures the same layers with repeats,
bounds and a bit-identity check on every reply (the ``ladder.batcher``,
``ladder.gateway``, ``ladder.cluster_pipe``, ``ladder.cluster_socket`` and
``ladder.edge`` rungs).  The committed history is left as it is.

Runs standalone (``python benchmarks/bench_serve.py``) or via an explicit
pytest path (``pytest benchmarks/bench_serve.py``).
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import monotonic, perf_counter, sleep

import numpy as np

from repro.cli import make_serve_model, record_trajectory_entry
from repro.serve.registry import ModelRegistry

RESULTS_DIR = Path(__file__).parent / "results"

KIND = "forest"
N_TRAIN = 3000
N_FEATURES = 12
N_TREES = 150
N_REQUESTS = 2000
N_SHARDS = 2
MAX_BATCH = 256
SEED = 0
MAX_OVERHEAD_PCT = 5.0
TRACE_SAMPLE = 8
N_KILLS = 5
PAIRS = 7          # adjacent plain/treated pairs per round (monitor, obs)
FAULT_PAIRS = 5    # fewer for the slower cluster replays


def _timed(replay) -> tuple[float, np.ndarray]:
    """One replay: set up and tear down off the clock, run with GC off."""
    with replay() as run:
        # a GC cycle landing inside one replay but not the other would
        # swamp the microseconds under test
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            out = run()
            return perf_counter() - t0, out
        finally:
            gc.enable()


def paired_overhead(plain, treated, reference, repeats, budget_pct, label):
    """Median-pair overhead of ``treated`` over ``plain``, in percent.

    A replay is a zero-argument callable returning a context manager
    whose value is the zero-argument function to time; it returns the
    replayed results, which must be ``np.array_equal`` to ``reference``
    every time.  One round runs ``repeats`` *adjacent* plain/treated
    pairs: background load on a shared box comes in slices longer than
    one replay, and adjacent pairs see the same slice, where an unpaired
    best-of-N can hand one side a quiet slice and report the weather as
    overhead.  The median pair is the result, so the reported times and
    percentage describe one measurement.  A round over ``budget_pct`` is
    retried up to three rounds in all (noisy neighbours), never against
    a looser budget.  Returns ``(overhead_pct, plain_s, treated_s,
    rounds)``.
    """
    for rounds in range(1, 4):
        pairs = []
        for _ in range(repeats):
            times = []
            for side, replay in (("plain", plain), ("treated", treated)):
                seconds, out = _timed(replay)
                if not np.array_equal(out, reference):  # hard gate: survives python -O
                    raise RuntimeError(f"{label}: {side} replay is not bit-identical")
                times.append(seconds)
            t_plain, t_treated = times
            pairs.append((100.0 * (t_treated - t_plain) / t_plain, t_plain, t_treated))
        pairs.sort()
        overhead_pct, t_plain, t_treated = pairs[len(pairs) // 2]
        if overhead_pct <= budget_pct:
            return overhead_pct, t_plain, t_treated, rounds
    raise RuntimeError(
        f"{label} overhead {overhead_pct:.2f}% exceeds the "
        f"{budget_pct:.1f}% budget ({rounds} rounds)"
    )


def _rows(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(0, 1, (n, N_FEATURES))


def _reference(model, rows: np.ndarray) -> np.ndarray:
    """Direct per-request predicts: the bit-identity yardstick."""
    return np.array([model.predict(row[None, :])[0] for row in rows])


def _stream(submit, flush, rows: np.ndarray, timeout: float = 30.0) -> np.ndarray:
    tickets = [submit(KIND, row) for row in rows]
    flush()
    return np.array([t.result(timeout=timeout) for t in tickets])


def _served(n_requests: int):
    model = make_serve_model(KIND, N_TRAIN, N_FEATURES, N_TREES, SEED)
    rows = _rows(n_requests, SEED + 1)
    registry = ModelRegistry()
    registry.register(KIND, model, promote=True)
    return model, rows, registry


def monitor_gate() -> dict:
    """Monitoring plane: overhead at the sampled production config, then
    injected drift must trigger the rollback policy."""
    from repro.ml.uncertainty import epistemic_sample
    from repro.serve.monitor import MonitoringPlane, PsiThresholdRule
    from repro.serve.router import ServingGateway

    model, rows, registry = _served(N_REQUESTS)
    v1 = registry.production_version(KIND)
    X_train = _rows(N_TRAIN, SEED)
    registry.set_reference(KIND, X_train, eu=epistemic_sample(model, X_train))
    v2 = registry.register(
        KIND, make_serve_model(KIND, N_TRAIN, N_FEATURES, N_TREES, SEED + 1))

    def gateway():
        return ServingGateway(registry, max_batch=MAX_BATCH, cache_entries=1)

    @contextmanager
    def plain():
        with gateway() as gw:
            yield lambda: _stream(gw.submit, gw.flush, rows)

    alerts = []

    @contextmanager
    def monitored():
        # the high-rate production configuration: profile every 2nd
        # request (sample=2 — a strided window estimates the same
        # population; the stride keeps monitor cost flat as request rates
        # grow), evaluate the policy every 512 profiled rows.  Drift
        # profile only: the stream is all `predict` traffic, so an EU tap
        # could never observe anything, and a drift-only plane lets the
        # gateway skip the per-ticket result dispatch it would not use
        plane = MonitoringPlane(
            registry, window=512, min_window=128, eval_every=512, sample=2)
        plane.watch(KIND, reference=X_train)
        plane.add_rule(PsiThresholdRule(threshold=0.25, action="alert"), names=[KIND])
        with gateway() as gw:
            plane.attach(gw)
            yield lambda: _stream(gw.submit, gw.flush, rows)
            if gw.tap_errors:
                raise RuntimeError(f"monitor tap raised {gw.tap_errors} time(s)")
        alerts.extend(plane.events)  # spurious alerts from any replay count

    overhead_pct, t_plain, t_monitored, rounds = paired_overhead(
        plain, monitored, _reference(model, rows), PAIRS, MAX_OVERHEAD_PCT, "monitor")

    # --- detection + auto-rollback under injected drift --------------- #
    # not overhead-gated, so the plane runs at full rate and a responsive
    # cadence; the trailing evaluate() makes the outcome independent of
    # where the stream ends between cadence points
    registry.promote(KIND, v2)  # production v2, rollback target v1
    plane = MonitoringPlane(registry, window=512, min_window=128, eval_every=256)
    plane.watch(KIND)
    plane.add_rule(PsiThresholdRule(threshold=0.25, action="rollback"), names=[KIND])
    with gateway() as gw:
        plane.attach(gw)
        _stream(gw.submit, gw.flush, rows * 1.8 + 1.2)  # the whole population moved
        plane.evaluate(KIND)
    events = [
        {"rule": e.rule, "action": e.action, "value": round(e.value, 4)}
        for e in plane.events
    ]
    if not any(e["action"] == "rollback" for e in events):
        raise RuntimeError("injected drift did not trigger the rollback policy")
    if registry.production_version(KIND) != v1:
        raise RuntimeError("auto-rollback did not restore the previous production")

    return {
        "model": KIND,
        "n_trees": N_TREES,
        "n_requests": N_REQUESTS,
        "repeats": PAIRS,
        "rounds": rounds,
        "profile_sample": 2,   # overhead config: every 2nd request profiled
        "plain_s": round(t_plain, 4),
        "monitored_s": round(t_monitored, 4),
        "plain_rps": round(N_REQUESTS / t_plain, 1),
        "monitored_rps": round(N_REQUESTS / t_monitored, 1),
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "in_dist_alerts": len(alerts),
        "drift_events": events,
        "rolled_back_to": v1,
        "max_psi": plane.status()[KIND].get("max_psi"),
    }


def faults_gate() -> dict:
    """Resilience plane: retry-wrapper overhead on a replicated cluster,
    then kill-storm recovery under a supervisor and a fail-fast check."""
    from repro.serve.errors import ErrorCode, code_of
    from repro.serve.resilience import RetryController, ShardSupervisor
    from repro.serve.shard import ShardedServingCluster

    n_requests = N_REQUESTS // 2
    model, rows, registry = _served(n_requests)
    ref = _reference(model, rows)

    def cluster():
        return ShardedServingCluster(
            registry, n_shards=N_SHARDS, route="replicated",
            max_batch=MAX_BATCH, max_delay=0.002, cache_entries=1,
        )

    # --- overhead: bare vs retry-wrapped submits on one cluster ------- #
    with cluster() as bare:
        retry = RetryController(bare, deadline_s=60.0, seed=SEED)

        def plain():
            return nullcontext(lambda: _stream(bare.submit, bare.flush, rows, 60.0))

        def wrapped():
            return nullcontext(lambda: _stream(retry.submit, bare.flush, rows, 60.0))

        overhead_pct, t_bare, t_wrapped, rounds = paired_overhead(
            plain, wrapped, ref, FAULT_PAIRS, MAX_OVERHEAD_PCT, "faults")
        happy = retry.stats()
    if happy.retries or happy.failed_fast:
        raise RuntimeError("happy-path stream should never retry or fail")

    # --- recovery: kill/respawn storm under supervisor + retry -------- #
    recovery_s: list[float] = []
    with cluster() as fleet:
        retry = RetryController(fleet, deadline_s=60.0, seed=SEED)
        with ShardSupervisor(fleet, check_interval_s=0.02) as sup:
            sup.start()
            for k in range(N_KILLS):
                victim = fleet.live_shards()[k % N_SHARDS]
                fleet.kill_shard(victim)
                t0 = perf_counter()
                got = retry.predict(KIND, rows[k], timeout=60.0)
                recovery_s.append(perf_counter() - t0)
                if got != ref[k]:
                    raise RuntimeError("recovered result is not bit-identical")
                deadline = monotonic() + 30.0
                while len(fleet.live_shards()) < N_SHARDS:
                    if monotonic() > deadline:
                        raise RuntimeError(f"supervisor never respawned shard {victim}")
                    sleep(0.01)
            sup_stats = sup.stats()

        # malformed input: coded 4xx, zero retries, fails fast
        before = retry.stats()
        try:
            retry.predict(KIND, np.zeros((2, 2, 2)), timeout=5.0)
        except Exception as exc:
            if code_of(exc) is not ErrorCode.MALFORMED_REQUEST:
                raise RuntimeError(
                    f"malformed request coded {code_of(exc).name}, "
                    "expected MALFORMED_REQUEST"
                )
        else:
            raise RuntimeError("malformed request did not fail")
        recovery = retry.stats()
        if recovery.retries != before.retries:
            raise RuntimeError("malformed request must never be retried")

    rec_ms = 1e3 * np.asarray(recovery_s)
    return {
        "model": KIND,
        "n_trees": N_TREES,
        "n_requests": n_requests,
        "n_shards": N_SHARDS,
        "repeats": FAULT_PAIRS,
        "rounds": rounds,
        "bare_s": round(t_bare, 4),
        "wrapped_s": round(t_wrapped, 4),
        "bare_rps": round(n_requests / t_bare, 1),
        "wrapped_rps": round(n_requests / t_wrapped, 1),
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "n_kills": N_KILLS,
        "recovery_p50_ms": round(float(np.percentile(rec_ms, 50)), 3),
        "recovery_p99_ms": round(float(np.percentile(rec_ms, 99)), 3),
        "recovery_max_ms": round(float(rec_ms.max()), 3),
        "respawns": sup_stats.respawns,
        "respawn_failures": sup_stats.respawn_failures,
        "retries": recovery.retries,
        "recovered": recovery.recovered,
        "failed_fast": recovery.failed_fast,
        "exhausted": recovery.exhausted,
    }


def obs_gate() -> dict:
    """Observability plane: tracing overhead at the sampled production
    config, then cross-process trace completeness and exact metrics
    agreement on a socket-transport cluster."""
    from repro.serve.obs import MetricsRegistry, Tracer, to_prometheus
    from repro.serve.router import ServingGateway
    from repro.serve.shard import ShardedServingCluster

    model, rows, registry = _served(N_REQUESTS)
    ref = _reference(model, rows)

    @contextmanager
    def plain():
        with ServingGateway(registry, max_batch=MAX_BATCH, cache_entries=1) as gw:
            yield lambda: _stream(gw.submit, gw.flush, rows)

    spans = []  # (recorded, dropped) per traced replay

    @contextmanager
    def traced():
        # auto-born traces sampled 1-in-TRACE_SAMPLE: the stride keeps span
        # cost flat as request rates grow; explicitly carried trace ids are
        # never sampled, so on-demand request forensics stay exact
        tracer = Tracer()
        with ServingGateway(
            registry, max_batch=MAX_BATCH, cache_entries=1,
            tracer=tracer, trace_sample=TRACE_SAMPLE,
        ) as gw:
            yield lambda: _stream(gw.submit, gw.flush, rows)
        recorded = sum(tracer.recorded().values())
        if recorded == 0:
            raise RuntimeError("traced replay recorded no spans")
        spans.append((recorded, sum(tracer.dropped().values())))

    overhead_pct, t_plain, t_traced, rounds = paired_overhead(
        plain, traced, ref, PAIRS, MAX_OVERHEAD_PCT, "obs")
    spans_recorded, spans_dropped = spans[-1]  # the sampling stride is fixed

    # --- completeness: one traced request across a socket cluster ----- #
    with ShardedServingCluster(
        registry, n_shards=N_SHARDS, route="hash", transport="socket",
        max_batch=MAX_BATCH, max_delay=0.002, cache_entries=1,
        tracer=Tracer(),
    ) as cluster:
        ctx = cluster._tracer.start_trace()
        got = cluster.submit(KIND, rows[0], trace=ctx).result(timeout=30.0)
        if got != ref[0]:
            raise RuntimeError("traced cluster result is not bit-identical")
        dump = cluster.trace_spans(ctx.trace_id)
        stages = sorted({(s["component"], s["stage"]) for s in dump["spans"]})
        if len(stages) < 6:
            raise RuntimeError(
                f"trace reassembled only {len(stages)} distinct stages "
                f"({stages}); need >= 6 across gateway/batcher/cluster/worker"
            )

        # export agreement: both formats from one snapshot, values read
        # straight off cluster.stats() — any drift is a hard failure
        reg = MetricsRegistry().add_backend(cluster)
        snapshot = reg.collect()
        st = cluster.stats()
        fam = snapshot["families"]
        agree = {
            "repro_serve_requests_total": float(st.total.requests),
            "repro_cluster_steals_total": float(st.steals),
            "repro_gateway_tap_errors_total": float(st.tap_errors_total),
            "repro_cluster_shards_live": float(len(st.per_shard)),
        }
        for name, want in agree.items():
            value = fam[name]["samples"][0][2]
            if value != want:
                raise RuntimeError(
                    f"metrics snapshot {name}={value} "
                    f"disagrees with cluster.stats()={want}"
                )
        prom = to_prometheus(snapshot)
        if reg.prometheus() != prom:
            raise RuntimeError("registry prometheus() drifted from its snapshot")
        for name in agree:
            if name not in prom:
                raise RuntimeError(f"{name} missing from Prometheus text")

    return {
        "model": KIND,
        "n_trees": N_TREES,
        "n_requests": N_REQUESTS,
        "n_shards": N_SHARDS,
        "repeats": PAIRS,
        "rounds": rounds,
        "trace_sample": TRACE_SAMPLE,  # overhead config: 1-in-N auto traces
        "plain_s": round(t_plain, 4),
        "traced_s": round(t_traced, 4),
        "plain_rps": round(N_REQUESTS / t_plain, 1),
        "traced_rps": round(N_REQUESTS / t_traced, 1),
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "spans_recorded": spans_recorded,
        "spans_dropped": spans_dropped,
        "trace_stages": ["/".join(s) for s in stages],
        "distinct_stages": len(stages),
        "metrics_agree": sorted(agree),
    }


def run() -> dict:
    entry: dict = {}
    for name, gate in (("monitor", monitor_gate), ("faults", faults_gate),
                       ("obs", obs_gate)):
        t0 = perf_counter()
        entry[name] = gate()
        entry[name]["bench_wall_s"] = round(perf_counter() - t0, 2)
    record_trajectory_entry(entry, RESULTS_DIR)

    m, f, o = entry["monitor"], entry["faults"], entry["obs"]
    table = "\n".join([
        "SERVE (observational planes: paired-median overhead gates, "
        f"budget {MAX_OVERHEAD_PCT:.0f}%)",
        f"monitor: {m['plain_rps']:.0f} -> {m['monitored_rps']:.0f} req/s "
        f"monitored ({m['overhead_pct']:+.2f}%); injected drift PSI "
        f"{m['max_psi']:.2f} -> auto-rollback to v{m['rolled_back_to']}",
        f"faults: {f['bare_rps']:.0f} -> {f['wrapped_rps']:.0f} req/s "
        f"retry-wrapped ({f['overhead_pct']:+.2f}%); {f['n_kills']} kill storms: "
        f"recovery p50 {f['recovery_p50_ms']:.0f} ms / p99 "
        f"{f['recovery_p99_ms']:.0f} ms, {f['respawns']} respawns",
        f"obs: {o['plain_rps']:.0f} -> {o['traced_rps']:.0f} req/s traced "
        f"1-in-{o['trace_sample']} ({o['overhead_pct']:+.2f}%); cross-process "
        f"trace reassembled {o['distinct_stages']} stages over {o['n_shards']} "
        f"socket shards, {o['spans_recorded']} spans recorded / "
        f"{o['spans_dropped']} dropped, exports agree with ClusterStats on "
        f"{len(o['metrics_agree'])} families",
    ])
    print("\n" + table)
    (RESULTS_DIR / "serve.txt").write_text(table + "\n")
    return entry


def test_serve_bench():
    # every gate raises inside its own function; reaching the asserts
    # means bit-identity, the budgets and the plane-specific checks held
    entry = run()
    for name in ("monitor", "faults", "obs"):
        assert entry[name]["overhead_pct"] <= MAX_OVERHEAD_PCT
    assert entry["faults"]["exhausted"] == 0
    assert entry["obs"]["distinct_stages"] >= 6
    assert entry["obs"]["spans_recorded"] > 0


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
