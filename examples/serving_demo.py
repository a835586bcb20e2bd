"""Serving the I/O models: registry, micro-batching, and cached rollout.

Walks the full serving story on a simulated Theta workload:

1. fit a forest on the historical window and **register** it (the registry
   freezes every array the model owns — from then on it is an immutable,
   promotable artifact),
2. stand up an :class:`~repro.serve.service.InferenceService` and stream
   single-job requests through the **micro-batcher**, checking the answers
   are bit-identical to direct predicts,
3. replay duplicate jobs against the **prediction cache** (HPC streams are
   ~30 % duplicates, §VI.A — hits are free),
4. stage a retrained v2, **promote** it (cache invalidates itself), watch
   the same request get the new answer, then **rollback**,
5. front *two* per-system models (Theta + Cori — per-system drift, §VIII)
   with one :class:`~repro.serve.router.ServingGateway`, promote and roll
   back the Theta model **while traffic flows** to both, with a per-name
   batch limit set before the name's first request,
6. scale past one process: a two-shard
   :class:`~repro.serve.shard.ShardedServingCluster` warm-starts gateway
   replicas from the same registry (forked workers inherit the frozen
   models), hash-routes each name's traffic to its owning shard, applies
   a promote/rollback broadcast cluster-wide, and fans one large batch row-parallel across
   both worker processes — all of it bit-identical to direct predicts,
7. close the loop with the **online monitoring plane**: a
   :class:`~repro.serve.monitor.MonitoringPlane` taps the gateway,
   windows the live feature stream against the registry's
   training-reference snapshot, and when simulator-injected drift (a
   shifted application mix + noisier I/O weather — the paper's §VIII
   deployment scenario) pushes the windowed PSI over threshold, the
   policy engine auto-rolls production back; a retrained challenger then
   earns its promotion through shadow scoring on labeled outcomes.

Run with ``PYTHONPATH=src python examples/serving_demo.py``.
"""

import threading
import time
from dataclasses import replace

import numpy as np

from repro.config import preset
from repro.data import build_dataset, feature_matrix, temporal_split
from repro.ml.forest import RandomForestRegressor
from repro.ml.uncertainty import epistemic_sample
from repro.serve import (
    InferenceService,
    ModelRegistry,
    MonitoringPlane,
    PsiThresholdRule,
    ServingGateway,
    ShadowWinnerRule,
    ShardedServingCluster,
)

print("simulating a Theta-like workload ...")
dataset = build_dataset(preset("theta", n_jobs=3000, seed=7))
X, _names = feature_matrix(dataset, "posix")
y = dataset.y
train, test = temporal_split(dataset.start_time, cutoff_frac=0.7)

print("fitting v1 forest on the historical window ...")
v1_model = RandomForestRegressor(n_estimators=120, max_depth=12, random_state=0)
v1_model.fit(X[train], y[train])

registry = ModelRegistry()
v1 = registry.register("io-throughput", v1_model, promote=True)
print(f"registered + promoted version {v1} "
      f"({registry.get_version('io-throughput').n_frozen_arrays} arrays frozen)")

with InferenceService(registry, "io-throughput", max_batch=64, max_delay=0.005) as svc:
    # --- micro-batched scoring of "arriving" jobs --------------------- #
    arriving = X[test[:500]]
    tickets = [svc.submit(row) for row in arriving]
    svc.flush()
    served = np.array([t.result(timeout=10.0) for t in tickets])
    direct = np.array([v1_model.predict(row[None, :])[0] for row in arriving])
    assert np.array_equal(served, direct)
    print(f"scored {len(arriving)} jobs micro-batched, bit-identical to direct predicts")

    # --- duplicate jobs hit the cache --------------------------------- #
    for row in arriving[:100]:  # resubmitted job signatures
        svc.predict(row, timeout=10.0)
    stats = svc.stats()
    print(f"after replaying 100 duplicates: {stats.summary()}")

    # --- staged rollout: promote v2, then roll back ------------------- #
    probe = arriving[0]
    v2_model = RandomForestRegressor(n_estimators=120, max_depth=12, random_state=1)
    v2_model.fit(X[np.concatenate([train, test[:500]])], y[np.concatenate([train, test[:500]])])
    v2 = registry.register("io-throughput", v2_model)
    print(f"staged version {v2} (production still v{registry.production_version('io-throughput')})")

    p1 = svc.predict(probe, timeout=10.0)
    registry.promote("io-throughput", v2)
    p2 = svc.predict(probe, timeout=10.0)
    assert p2 == v2_model.predict(probe[None, :])[0]
    registry.rollback("io-throughput")
    p3 = svc.predict(probe, timeout=10.0)
    assert p3 == p1
    print(f"probe job: v1={p1:.4f}  v2={p2:.4f}  rollback={p3:.4f}")
    print(f"final stats: {svc.stats().summary()}")

# --- multi-model gateway: per-system models under one front door ------ #
print("\nsimulating a Cori-like workload for a second per-system model ...")
cori = build_dataset(preset("cori", n_jobs=2500, seed=11))
Xc, _ = feature_matrix(cori, "posix")
yc = cori.y
cori_model = RandomForestRegressor(n_estimators=100, max_depth=12, random_state=3)
cori_model.fit(Xc[:2000], yc[:2000])
registry.register("cori-throughput", cori_model, promote=True)

with ServingGateway(registry, max_batch=64, max_delay=0.005) as gw:
    gw.configure("cori-throughput", max_batch=32)  # per-name override

    theta_rows, cori_rows = X[test[:200]], Xc[2000:2200]
    stop = threading.Event()
    errors: list[Exception] = []

    def pump(name: str, rows: np.ndarray) -> None:
        i = 0
        while not stop.is_set():
            try:
                gw.predict(name, rows[i % len(rows)], timeout=10.0)
            except Exception as exc:  # any serving error fails the demo below
                errors.append(exc)
                return
            i += 1

    pumps = [
        threading.Thread(target=pump, args=("io-throughput", theta_rows)),
        threading.Thread(target=pump, args=("cori-throughput", cori_rows)),
    ]
    for t in pumps:
        t.start()

    # stage change under live two-model traffic: promote Theta v2, roll back
    time.sleep(0.15)
    registry.promote("io-throughput", v2)
    time.sleep(0.15)
    registry.rollback("io-throughput")
    time.sleep(0.10)
    stop.set()
    for t in pumps:
        t.join()
    assert not errors, errors

    # quiesced: each name still answers bit-identically to its own model
    theta_probe, cori_probe = theta_rows[0], cori_rows[0]
    assert gw.predict("io-throughput", theta_probe, timeout=10.0) == \
        v1_model.predict(theta_probe[None, :])[0]
    assert gw.predict("cori-throughput", cori_probe, timeout=10.0) == \
        cori_model.predict(cori_probe[None, :])[0]
    print("gateway served 2 models through promote/rollback under traffic, zero errors")
    print(gw.stats().summary())
    print("per-name limits: " + ", ".join(
        f"{n}: batch={gw.service(n).batcher.max_batch}" for n in gw.names()
    ))

# --- sharded cluster: the same registry served from worker processes -- #
print("\nspawning a 2-shard serving cluster from the registry snapshot ...")
with ShardedServingCluster(registry, n_shards=2, max_batch=64, max_delay=0.005) as cluster:
    owners = {name: cluster.shard_of(name) for name in registry.names()}
    print(f"hash routing: {owners}")

    # interleaved two-name stream, bit-identical to the models themselves
    mixed = [("io-throughput", r) for r in X[test[:150]]]
    mixed += [("cori-throughput", r) for r in Xc[2000:2150]]
    tickets = [(name, cluster.submit(name, row)) for name, row in mixed]
    cluster.flush()
    served = np.array([t.result(timeout=10.0) for _, t in tickets])
    direct = np.array([
        (v1_model if name == "io-throughput" else cori_model).predict(row[None, :])[0]
        for name, row in mixed
    ])
    assert np.array_equal(served, direct)
    print(f"served {len(mixed)} requests across 2 shard processes, bit-identical")

    # a stage change broadcasts to every shard before returning
    probe = X[test[0]]
    registry.promote("io-throughput", v2)
    assert cluster.predict("io-throughput", probe, timeout=10.0) == \
        v2_model.predict(probe[None, :])[0]
    registry.rollback("io-throughput")
    assert cluster.predict("io-throughput", probe, timeout=10.0) == \
        v1_model.predict(probe[None, :])[0]
    print("promote/rollback broadcast held cluster-wide")
    print(cluster.stats().summary())

# row-parallel fan-out of one big batch over a replicated cluster
with ShardedServingCluster(
    registry, n_shards=2, route="replicated", max_batch=512, max_delay=0.005
) as cluster:
    block = X[test[:400]]
    fanned = cluster.predict_block("io-throughput", block, timeout=10.0)
    assert np.array_equal(fanned, v1_model.predict(block))
    print(f"replicated mode fanned a {block.shape[0]}-row block across both shards, "
          "bit-identical to one predict call")

# --- §7 online monitoring: drift detection, auto-rollback, shadow ----- #
print("\nstanding up the online monitoring plane ...")
# the training pipeline files a reference snapshot next to the model:
# the feature sample drift is scored against, and the corpus's EU
# distribution novel jobs are tagged against (§VIII's AU/EU split)
registry.set_reference(
    "io-throughput", X[train],
    eu=epistemic_sample(v1_model, X[train]), names=_names,
)

# inject §VIII-style deployment drift with the simulator's own knobs: the
# application mix shifts toward the large ML/analysis codes and novel
# applications (feature-stream drift the PSI windows catch), while the
# I/O weather turns hostile (noisier throughput, so the old model's live
# error genuinely degrades — what the retrained challenger fixes)
base_cfg = preset("theta", n_jobs=1200, seed=7)
drift_cfg = replace(
    base_cfg,
    seed=77,
    workload=replace(
        base_cfg.workload,
        family_weights={"ior": 0.01, "hacc": 0.05, "qb": 0.04, "pwx": 0.05,
                        "writer": 0.05, "montage": 0.05, "enzo": 0.15,
                        "cosmoflow": 0.60},
        ood_fraction=0.30,
        deployment_cutoff=0.0,
    ),
    platform=replace(base_cfg.platform, noise_sigma=0.08),
    weather=replace(base_cfg.weather, ou_sigma=0.20, degradations_per_year=40.0),
)
drifted = build_dataset(drift_cfg)
Xd, _ = feature_matrix(drifted, "posix")
yd = drifted.y

registry.promote("io-throughput", v2)  # v2 takes production; v1 is the fallback
# window/threshold calibrated to the platform: consecutive healthy
# 256-job windows of this workload peak near PSI 0.18 (jobs arrive in
# campaign bursts, so small windows are lumpy), while the injected drift
# scores > 2 — the rule fires on the regime change, not the lumpiness
plane = MonitoringPlane(registry, window=256, min_window=256, eval_every=64,
                        cooldown_s=5.0)
plane.watch("io-throughput")
plane.add_rule(PsiThresholdRule(threshold=0.5, action="rollback"),
               names=["io-throughput"])

with ServingGateway(registry, max_batch=64, max_delay=0.005) as gw:
    plane.attach(gw)

    # healthy traffic first: the window fills, no rule fires
    for row in X[test[:300]]:
        gw.predict("io-throughput", row, timeout=10.0)
    healthy_psi = plane.status()["io-throughput"].get("max_psi", 0.0)
    assert not plane.events, list(plane.events)

    # the workload moves: drifted jobs stream in, the windowed PSI crosses
    # threshold, and the policy rolls production back to the fallback
    for row in Xd[:200]:
        gw.predict("io-throughput", row, timeout=10.0)
    drift_psi = plane.status()["io-throughput"]["max_psi"]
    assert plane.events, "injected drift did not trigger the PSI rule"
    event = plane.events[0]
    assert registry.production_version("io-throughput") == v1
    print(f"healthy window PSI {healthy_psi:.3f} -> drifted {drift_psi:.3f}: "
          f"[{event.rule}] {event.detail}")

    # novel-job tagging on the same drifted stream (per-request EU)
    for row in Xd[:50]:
        gw.predict_dist("io-throughput", row, timeout=10.0)
    st = plane.status()["io-throughput"]
    print(f"EU tap: {st['eu_novel']}/{st['eu_observed']} drifted jobs tagged novel "
          f"(corpus rate would be ~1%)")

    # champion-challenger: retrain on the drifted window, stage it, and
    # let shadow scoring on labeled outcomes earn the promotion
    v3_model = RandomForestRegressor(n_estimators=120, max_depth=12, random_state=5)
    fit_idx = np.concatenate([train, test[:300]])
    X_v3 = np.vstack([X[fit_idx], Xd[:400]])
    v3_model.fit(X_v3, np.concatenate([y[fit_idx], yd[:400]]))
    # the retrain ships WITH its reference: the new corpus covers the
    # drifted regime, and re-watching resets the drift window against it —
    # otherwise the still-armed PSI rule would keep scoring the new regime
    # as drifted and roll back the very promotion the shadow validates
    registry.set_reference(
        "io-throughput", X_v3, eu=epistemic_sample(v3_model, X_v3), names=_names,
    )
    plane.watch("io-throughput")
    v3 = registry.register("io-throughput", v3_model)
    plane.shadow("io-throughput", v3, fraction=0.5, min_outcomes=40)
    plane.add_rule(ShadowWinnerRule(), names=["io-throughput"])

    for row, outcome in zip(Xd[400:600], yd[400:600]):
        gw.predict("io-throughput", row, timeout=10.0)   # mirrored to v3
        plane.record_outcome("io-throughput", row, outcome)  # label lands later
    fired = plane.evaluate("io-throughput")
    shadow_event = next(e for e in plane.events if e.rule == "shadow-winner")
    assert registry.production_version("io-throughput") == v3
    print(f"[{shadow_event.rule}] {shadow_event.detail}")
    print(f"monitoring plane: {len(plane.events)} events, "
          f"0 tap errors ({gw.tap_errors}), production ended on v{v3} "
          "with every serving number bit-identical along the way")
