"""Tier-1 test configuration.

Registers the serve-stack markers so its tests can be selected or
excluded while still running in the default tier-1 sweep:

* ``serve`` — the whole batched-inference layer (registry, micro-batcher,
  cache, service); every serve-stack test carries it, so
  ``-m "serve or gateway or shard"`` (the verify skill's smoke target) is
  the one-flag serve regression gate.
* ``gateway`` — multi-model :class:`ServingGateway` routing, per-name
  configuration and fleet-wide stats.
* ``shard`` — the process-sharded :class:`ShardedServingCluster`: worker
  warm-start from the inherited (``fork``) or pickled (``spawn``)
  registry snapshot, hash/replicated routing, broadcast mutations,
  crash containment.  These tests start worker processes (one test uses
  ``spawn``, the rest ``fork``); they stay tier-1 but are the ones to
  deselect (``-m "not shard"``) on platforms where subprocesses are
  awkward.
* ``monitor`` — the online error-source monitoring plane
  (:mod:`repro.serve.monitor`): windowed drift/EU scoring, shadow
  champion–challenger evaluation, and the policy engine's
  alert/promote/rollback actions.  Its contracts are the ones these
  tests pin: purely observational (monitored serving bit-identical to
  unmonitored), bounded-memory ring windows, deterministic under an
  injected clock.
* ``faults`` — the operational error taxonomy and resilience plane
  (:mod:`repro.serve.errors` / :mod:`repro.serve.resilience`): coded
  error vocabulary at every boundary, retry/backoff/circuit-breaker
  trajectories (pure functions of injected clock + seed), and
  fault-injection storms (kill-during-flight with supervisor respawn —
  every request bit-identical or coded non-retryable, never hung).
* ``net`` — the asyncio network front door (:mod:`repro.serve.net`):
  frame-protocol fuzzing (truncated/oversized/malformed frames answer
  with a coded wire error or a clean close, never a hang), FIFO response
  order per connection, bit-identity across the wire, and
  admission-control shedding (structured ``OVERLOADED``).
* ``transport`` — the pluggable shard transport layer
  (:mod:`repro.serve.transport`): binary ndarray frame round-trips
  (hypothesis-driven over dtypes/orders/shapes), the envelope+blob
  socket codec's type parity with the pipe, the listener handshake,
  pipe-vs-socket cluster bit-identity, and per-submitter FIFO with
  several submitter threads on one socket cluster.  Tests that fork
  worker processes also carry ``shard``.
* ``obs`` — the observability plane (:mod:`repro.serve.obs`): bounded
  span rings with exemplar capture, the frozen span vocabulary, the
  unified metrics registry (Prometheus/JSON exports agree with
  ``ClusterStats`` exactly), structured trace-correlated logging, and
  the end-to-end trace-completeness witness (≥ 6 distinct stages
  reassembled by trace id across a socket cluster) plus the
  traced == untraced bit-identity soak.  Tests that fork worker
  processes also carry ``shard``/``net``.
  The smoke target is
  ``-m "serve or gateway or shard or monitor or faults or net or transport or obs"``.
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "serve: batched inference service tests (registry/micro-batcher/cache); tier-1",
    )
    config.addinivalue_line(
        "markers",
        "gateway: multi-model serving gateway tests; tier-1",
    )
    config.addinivalue_line(
        "markers",
        "shard: process-sharded serving cluster tests (fork worker processes); tier-1",
    )
    config.addinivalue_line(
        "markers",
        "monitor: online monitoring plane tests (drift/EU/shadow/policy); tier-1",
    )
    config.addinivalue_line(
        "markers",
        "faults: error taxonomy + resilience plane tests (fault injection); tier-1",
    )
    config.addinivalue_line(
        "markers",
        "net: asyncio network front door tests (frames/FIFO/admission); tier-1",
    )
    config.addinivalue_line(
        "markers",
        "transport: pluggable shard transport tests (codec/handshake/FIFO); tier-1",
    )
    config.addinivalue_line(
        "markers",
        "obs: observability plane tests (tracing/metrics/logging); tier-1",
    )
