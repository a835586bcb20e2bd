"""Tests for the observability plane (``repro.serve.obs``).

The plane's standing contracts, pinned here:

* **Observational only** — traced serving is bit-identical to untraced
  serving (the serve stack's oldest invariant extends to the newest
  plane), and span recording can never fail a request.
* **Frozen vocabularies** — the span ``COMPONENTS``/``STAGES`` sets and
  the ``METRICS`` catalogue follow the coded-error discipline: names may
  be added, never renamed; unknown names are refused loudly.
* **Bounded memory, accounted loss** — span rings, the logger tail, and
  latency samples all evict with a ``dropped`` counter, never silently;
  p99+ outliers survive ring churn through the exemplar store.
* **Deterministic under injected clocks** — a counter clock yields exact,
  reproducible span trees and log lines.
* **One snapshot, two exports** — Prometheus text and JSON render the
  same ``collect()`` object, and every exported value equals the
  authoritative ``GatewayStats``/``ClusterStats`` counter exactly.

The end-to-end class forks shard workers and opens sockets (marked
``shard``/``net`` as well); everything else runs on stubs and injected
clocks.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ModelRegistry, RetryController, ServingGateway
from repro.serve.errors import ErrorCode, coded, to_wire
from repro.serve.net import AsyncServeServer, ServeClient
from repro.serve.obs import (
    COMPONENTS,
    METRIC_NAMES,
    METRICS,
    MetricsRegistry,
    STAGES,
    Span,
    SpanRing,
    StructuredLogger,
    Tracer,
    to_json,
    to_prometheus,
)
from repro.serve.obs.trace import _EXEMPLARS_PER_STAGE
from repro.serve.shard import ShardCrashedError, ShardedServingCluster
from repro.serve.stats import (
    ClusterStats,
    GatewayStats,
    ServerStats,
    _MERGED_SAMPLE_CAP,
    sum_stats,
)

pytestmark = [pytest.mark.serve, pytest.mark.obs]

D = 5


class CounterClock:
    """Deterministic clock: each call returns the next integer float."""

    def __init__(self, t: float = 0.0):
        self.t = float(t)
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        self.t += 1.0
        return self.t

    def sleep(self, dt: float) -> None:
        self.sleeps.append(dt)
        self.t += dt


class LinearModel:
    """Row-wise dot products: bit-identical for any batch blocking."""

    def __init__(self, d: int = D):
        self.w = np.linspace(1.0, 2.0, d)

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        return np.array([float(np.dot(r, self.w)) for r in X])


def _rows(n, seed=0):
    return np.random.default_rng(seed).normal(0, 1, (n, D))


def _span(trace_id="t", component="batcher", stage="score", start=0.0,
          end=1.0, meta=None):
    return Span(trace_id, component, stage, start, end, meta)


def _gateway(tracer=None, trace_sample=1, max_batch=8):
    reg = ModelRegistry()
    reg.register("lin", LinearModel(), promote=True)
    return ServingGateway(
        reg, max_batch=max_batch, cache_entries=1,
        tracer=tracer, trace_sample=trace_sample,
    )


# --------------------------------------------------------------------- #
# span rings: bounded, accounted, exemplar-preserving
# --------------------------------------------------------------------- #
class TestSpanRing:
    def test_bounded_with_drop_accounting(self):
        ring = SpanRing(capacity=4)
        for i in range(10):
            ring.add(_span(start=float(i), end=float(i) + 0.5))
        assert len(ring.snapshot()) == 4
        assert ring.dropped == 6
        assert ring.recorded == 10
        # the survivors are the newest four, oldest first
        assert [s.start for s in ring.snapshot()] == [6.0, 7.0, 8.0, 9.0]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SpanRing(capacity=0)

    def test_exemplars_survive_ring_churn(self):
        ring = SpanRing(capacity=2)
        slow = _span(trace_id="slow", start=0.0, end=100.0)
        ring.add(slow)
        for i in range(50):  # fast spans churn the tiny ring
            ring.add(_span(start=float(i), end=float(i) + 0.001))
        assert slow not in ring.snapshot()       # evicted from the ring...
        assert slow in ring.exemplars()          # ...but retained as outlier

    def test_exemplars_are_the_true_slowest_per_stage(self):
        ring = SpanRing(capacity=4)
        # ascending durations force the floor-replace path on every add
        # past the first _EXEMPLARS_PER_STAGE spans
        for i in range(20):
            ring.add(_span(start=0.0, end=float(i + 1)))
        durations = sorted(s.duration for s in ring.exemplars())
        expect = [float(i + 1) for i in range(20 - _EXEMPLARS_PER_STAGE, 20)]
        assert durations == expect

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1, max_size=64,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_ring_accounting_and_exemplar_properties(self, durations):
        """For any duration sequence: ``recorded`` counts every add,
        ``dropped`` counts exactly the overflow, and the exemplar store
        holds a multiset containing the true top-k durations."""
        cap = 4
        ring = SpanRing(capacity=cap)
        for i, dur in enumerate(durations):
            ring.add(_span(start=0.0, end=dur))
        assert ring.recorded == len(durations)
        assert ring.dropped == max(0, len(durations) - cap)
        kept = sorted(s.duration for s in ring.exemplars())
        want = sorted(durations)[-_EXEMPLARS_PER_STAGE:]
        assert kept == want


# --------------------------------------------------------------------- #
# tracer: determinism, frozen vocabulary, queries
# --------------------------------------------------------------------- #
class TestTracer:
    def test_deterministic_under_injected_clock(self):
        def run():
            tr = Tracer(clock=CounterClock())
            ctx = tr.start_trace()
            t0 = ctx.now()
            ctx.record("gateway", "route", t0, ctx.now(), meta={"name": "lin"})
            ctx.record("batcher", "score", ctx.now(), ctx.now())
            return [
                (s.component, s.stage, s.start, s.end, s.meta)
                for s in tr.spans(ctx.trace_id)
            ]

        first = run()
        assert first == run()
        assert first == [
            ("batcher", "score", 3.0, 4.0, None),
            ("gateway", "route", 1.0, 2.0, {"name": "lin"}),
        ]

    def test_frozen_vocabulary_refuses_unknown_names(self):
        tr = Tracer(clock=CounterClock())
        ctx = tr.start_trace()
        with pytest.raises(ValueError, match="unknown span component"):
            ctx.record("frobnicator", "route", 0.0, 1.0)
        with pytest.raises(ValueError, match="unknown span stage"):
            ctx.record("gateway", "warp", 0.0, 1.0)
        assert tr.spans() == []  # a refused span records nothing

    def test_vocabulary_is_the_documented_set(self):
        # frozen like the ErrorCode numbers: additions append, renames fail
        assert COMPONENTS == {
            "edge", "gateway", "batcher", "cluster", "worker", "resilience",
        }
        assert STAGES == {
            "parse", "admission", "queue_wait", "flush", "route", "steal",
            "transport", "score", "respond", "retry",
        }

    def test_trace_ids_unique_and_adopted_verbatim(self):
        tr = Tracer()
        a, b = tr.start_trace(), tr.start_trace()
        assert a.trace_id != b.trace_id
        assert tr.context("wire-id-7").trace_id == "wire-id-7"

    def test_spans_filter_and_export_shape(self):
        tr = Tracer(clock=CounterClock())
        ca, cb = tr.start_trace(), tr.start_trace()
        ca.record("gateway", "route", 0.0, 1.0)
        cb.record("batcher", "flush", 1.0, 3.0)
        assert [s.trace_id for s in tr.spans(ca.trace_id)] == [ca.trace_id]
        dump = tr.export(cb.trace_id)
        assert set(dump) == {"spans", "dropped", "recorded"}
        (span,) = dump["spans"]
        assert set(span) >= {"trace", "component", "stage", "start", "end", "pid"}
        assert dump["recorded"] == {"batcher": 1, "gateway": 1}
        assert dump["dropped"] == {"batcher": 0, "gateway": 0}

    def test_slowest_is_sorted_and_deduplicated(self):
        tr = Tracer(ring_size=4, clock=CounterClock())
        ctx = tr.start_trace()
        for i in range(12):  # exemplars overlap the live ring
            ctx.record("batcher", "score", 0.0, float(i + 1))
        top = tr.slowest(5)
        assert [s.duration for s in top] == [12.0, 11.0, 10.0, 9.0, 8.0]
        assert len({id(s) for s in top}) == len(top)


# --------------------------------------------------------------------- #
# the frozen metric catalogue + the two exporters
# --------------------------------------------------------------------- #
class TestMetricsCatalogue:
    def test_catalogue_names_are_frozen(self):
        """Append-only: renaming or dropping any of these fails the PR."""
        assert METRIC_NAMES >= {
            "repro_serve_requests_total",
            "repro_serve_rows_total",
            "repro_serve_batches_total",
            "repro_serve_completed_total",
            "repro_serve_flushes_total",
            "repro_serve_abandoned_total",
            "repro_serve_cache_hits_total",
            "repro_serve_cache_misses_total",
            "repro_serve_cache_evictions_total",
            "repro_serve_cache_invalidations_total",
            "repro_serve_cache_entries",
            "repro_serve_latency_seconds",
            "repro_serve_latency_samples_dropped_total",
            "repro_serve_models",
            "repro_gateway_tap_errors_total",
            "repro_cluster_steals_total",
            "repro_cluster_shards_live",
            "repro_edge_connections_total",
            "repro_edge_requests_total",
            "repro_edge_submitted_total",
            "repro_edge_responses_total",
            "repro_edge_shed_total",
            "repro_edge_wire_errors_total",
            "repro_edge_in_flight",
            "repro_resilience_submits_total",
            "repro_resilience_retries_total",
            "repro_resilience_recovered_total",
            "repro_resilience_failed_fast_total",
            "repro_resilience_exhausted_total",
            "repro_resilience_breaker_opens_total",
            "repro_resilience_breaker_probes_total",
            "repro_resilience_exhausted_total",
            "repro_monitor_events_total",
            "repro_obs_spans_total",
            "repro_obs_spans_dropped_total",
        }
        kinds = {spec.kind for spec in METRICS}
        assert kinds == {"counter", "gauge", "summary"}
        assert all(spec.name.startswith("repro_") for spec in METRICS)
        assert all(spec.help for spec in METRICS)

    def test_collect_emits_only_catalogue_names(self):
        with _gateway(tracer=Tracer()) as gw:
            for row in _rows(6, seed=1):
                gw.submit("lin", row)
            gw.flush()
            reg = MetricsRegistry().add_backend(gw).add_tracer(gw._tracer)
            snap = reg.collect()
        assert set(snap["families"]) <= METRIC_NAMES

    def test_both_exports_render_the_same_snapshot(self):
        with _gateway(tracer=Tracer()) as gw:
            for row in _rows(4, seed=2):
                gw.submit("lin", row)
            gw.flush()
            reg = MetricsRegistry().add_backend(gw).add_tracer(gw._tracer)
            snap = reg.collect()
        assert json.loads(to_json(snap)) == snap
        prom = to_prometheus(snap)
        for name in snap["families"]:
            assert f"# HELP {name} " in prom
            assert f"# TYPE {name} " in prom
            assert f"\n{name}" in prom or prom.startswith(name)

    def test_exports_agree_with_gateway_stats_exactly(self):
        with _gateway(tracer=Tracer()) as gw:
            rows = _rows(12, seed=3)
            for row in rows:
                gw.submit("lin", row).result(timeout=20.0)
            reg = MetricsRegistry().add_backend(gw).add_tracer(gw._tracer)
            snap = reg.collect()
            st_ = gw.stats()
        fam = snap["families"]

        def value(name, labels=None):
            for suffix, lab, val in fam[name]["samples"]:
                if suffix == "" and lab == (labels or {}):
                    return val
            raise AssertionError(f"no bare sample for {name} {labels}")

        assert value("repro_serve_requests_total") == st_.total.requests == len(rows)
        assert value("repro_serve_completed_total") == st_.total.completed
        assert value("repro_serve_abandoned_total") == st_.total.abandoned == 0
        assert value("repro_gateway_tap_errors_total") == st_.tap_errors == 0
        assert (
            value("repro_serve_latency_samples_dropped_total")
            == st_.total.latency_dropped
        )
        assert value("repro_obs_spans_total", {"component": "gateway"}) == len(rows)

    def test_resilience_and_event_sources(self):
        clock = CounterClock()

        class OneEvent:
            code = ErrorCode.SHARD_CRASHED

        cluster = ScriptedTraceCluster([ShardCrashedError("x"), 5.0])
        rc = RetryController(
            cluster, clock=clock, sleep=clock.sleep, deadline_s=100.0
        )
        assert rc.predict("m", np.zeros(3)) == 5.0
        reg = (
            MetricsRegistry()
            .add_resilience(rc)
            .add_events(lambda: [OneEvent(), OneEvent()])
        )
        fam = reg.collect()["families"]
        assert fam["repro_resilience_retries_total"]["samples"][0][2] == 1
        assert fam["repro_resilience_recovered_total"]["samples"][0][2] == 1
        (sample,) = fam["repro_monitor_events_total"]["samples"]
        assert sample[1] == {"code": "SHARD_CRASHED"} and sample[2] == 2


# --------------------------------------------------------------------- #
# gateway tracing: birth, sampling, bit-identity
# --------------------------------------------------------------------- #
class TestGatewayTracing:
    def test_auto_born_trace_records_the_in_process_stages(self):
        tracer = Tracer()
        with _gateway(tracer=tracer) as gw:
            row = _rows(1, seed=4)[0]
            gw.submit("lin", row).result(timeout=20.0)
        stages = {(s.component, s.stage) for s in tracer.spans()}
        assert stages >= {
            ("gateway", "route"),
            ("batcher", "queue_wait"),
            ("batcher", "flush"),
            ("batcher", "score"),
        }
        # every span of the request shares the one auto-born trace id
        assert len({s.trace_id for s in tracer.spans()}) == 1

    def test_traced_serving_is_bit_identical_to_untraced(self):
        rows = _rows(64, seed=5)
        with _gateway() as plain:
            ref = np.array([plain.submit("lin", r).result(timeout=20.0)
                            for r in rows])
        with _gateway(tracer=Tracer()) as traced:
            got = np.array([traced.submit("lin", r).result(timeout=20.0)
                            for r in rows])
        assert np.array_equal(got, ref)

    def test_trace_sample_strides_auto_births(self):
        tracer = Tracer()
        with _gateway(tracer=tracer, trace_sample=4) as gw:
            for row in _rows(16, seed=6):
                gw.submit("lin", row).result(timeout=20.0)
        # submissions 0, 4, 8, 12 are traced; the rest record nothing
        assert len({s.trace_id for s in tracer.spans()}) == 4

    def test_explicit_context_is_always_traced_never_sampled(self):
        tracer = Tracer()
        with _gateway(tracer=tracer, trace_sample=1_000_000) as gw:
            rows = _rows(3, seed=7)
            gw.submit("lin", rows[0]).result(timeout=20.0)  # sampled slot 0
            ctx = tracer.start_trace("explicit-1")
            gw.submit("lin", rows[1], trace=ctx).result(timeout=20.0)
            gw.submit("lin", rows[2]).result(timeout=20.0)  # not sampled
        assert any(s.trace_id == "explicit-1" for s in tracer.spans())

    def test_trace_sample_validated(self):
        with pytest.raises(ValueError):
            _gateway(tracer=Tracer(), trace_sample=0)


# --------------------------------------------------------------------- #
# stats satellites: summary symmetry, accounted latency loss
# --------------------------------------------------------------------- #
def _stats(**kw) -> ServerStats:
    base = dict(
        requests=0, rows=0, batches=0, completed=0, size_flushes=0,
        deadline_flushes=0, manual_flushes=0, abandoned=0, cache_hits=0,
        cache_misses=0, cache_evictions=0, cache_invalidations=0,
        cache_entries=0, total_latency_s=0.0,
    )
    base.update(kw)
    return ServerStats(**base)


class TestStatsSatellites:
    def test_server_summary_reports_abandoned(self):
        assert "abandoned=3" in _stats(abandoned=3).summary()

    def test_gateway_summary_reports_tap_errors(self):
        gs = GatewayStats(per_name={"lin": _stats(requests=2)}, tap_errors=4)
        assert "tap_errors=4" in gs.summary()

    def test_cluster_summary_reports_every_rollup_level(self):
        cs = ClusterStats(
            per_shard={
                0: GatewayStats(per_name={"a": _stats()}, tap_errors=2),
                1: GatewayStats(per_name={"b": _stats()}, tap_errors=0),
            },
            tap_errors=1,
            steals=5,
        )
        text = cs.summary()
        assert "steals=5" in text
        assert "tap_errors=3" in text         # parent 1 + shards 2 + 0
        assert "shard 0" in text and "tap_errors=2" in text
        assert cs.tap_errors_total == 3

    def test_sum_stats_decimation_is_accounted_as_dropped(self):
        per_source = _MERGED_SAMPLE_CAP // 2 + 1
        snaps = [
            _stats(latency_samples=tuple(float(i) for i in range(per_source)))
            for _ in range(3)
        ]
        merged = sum_stats(snaps)
        total_in = 3 * per_source
        assert len(merged.latency_samples) <= _MERGED_SAMPLE_CAP
        # every decimated-away sample lands in the dropped counter
        assert merged.latency_dropped == total_in - len(merged.latency_samples)
        assert merged.latency_dropped > 0

    def test_sum_stats_under_cap_drops_nothing(self):
        snaps = [_stats(latency_samples=(0.1, 0.2)) for _ in range(2)]
        merged = sum_stats(snaps)
        assert merged.latency_samples == (0.1, 0.2, 0.1, 0.2)
        assert merged.latency_dropped == 0


# --------------------------------------------------------------------- #
# resilience: one trace across every attempt, a span per retry
# --------------------------------------------------------------------- #
class FakeTicket:
    def __init__(self, value=None, error=None):
        self.shard_id = 0
        self._value, self._error = value, error

    def done(self):
        return True

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value


class ScriptedTraceCluster:
    """Scripted outcomes; accepts (and remembers) the trace kwarg."""

    route = "replicated"

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.submits = 0
        self.traces: list = []

    def live_shards(self):
        return [0]

    def shard_of(self, name):
        return 0

    def submit(self, name, row, kind="predict", trace=None):
        self.traces.append(trace)
        out = self.outcomes[min(self.submits, len(self.outcomes) - 1)]
        self.submits += 1
        if isinstance(out, BaseException):
            return FakeTicket(error=out)
        return FakeTicket(value=out)

    def submit_block(self, name, X, kind="predict"):
        return self.submit(name, X, kind)


class TestResilienceTracing:
    def _controller(self, cluster, clock, tracer):
        return RetryController(
            cluster, deadline_s=100.0, base_delay_s=0.01, max_delay_s=0.25,
            jitter=0.0, seed=7, breaker_threshold=100,
            clock=clock, sleep=clock.sleep, tracer=tracer,
        )

    def test_retry_spans_share_one_trace_across_attempts(self):
        clock = CounterClock()
        tracer = Tracer(clock=clock)
        cluster = ScriptedTraceCluster([ShardCrashedError("x")] * 2 + [42.0])
        rc = self._controller(cluster, clock, tracer)
        assert rc.predict("m", np.zeros(3)) == 42.0
        spans = tracer.spans()
        assert [(s.component, s.stage) for s in spans] == [
            ("resilience", "retry")
        ] * 2
        assert [s.meta["attempt"] for s in spans] == [1, 2]
        assert all(s.meta["code"] == int(ErrorCode.SHARD_CRASHED) for s in spans)
        # one logical request, one trace id, monotone per-process times
        assert len({s.trace_id for s in spans}) == 1
        assert all(s.end > s.start for s in spans)
        # every resubmission carried the same context down to the cluster
        ids = {t.trace_id for t in cluster.traces if t is not None}
        assert ids == {spans[0].trace_id}

    def test_untraced_controller_passes_bare_submits(self):
        clock = CounterClock()
        cluster = ScriptedTraceCluster([1.0])
        rc = RetryController(cluster, clock=clock, sleep=clock.sleep)
        assert rc.predict("m", np.zeros(3)) == 1.0
        assert cluster.traces == [None]  # duck-typed backends stay untouched

    @given(n_failures=st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_retry_span_trees_well_formed_for_any_failure_run(self, n_failures):
        """For any length of transient-failure run: exactly one retry span
        per re-attempt, attempts numbered 1..n, timestamps monotone in
        record order, all spans under a single trace id, and the span
        count agreeing with the controller's own ``retries`` counter."""
        clock = CounterClock()
        tracer = Tracer(clock=clock)
        cluster = ScriptedTraceCluster(
            [ShardCrashedError("x")] * n_failures + [7.0]
        )
        rc = self._controller(cluster, clock, tracer)
        assert rc.predict("m", np.zeros(3)) == 7.0
        spans = tracer.spans()
        assert len(spans) == n_failures == rc.stats().retries
        assert [s.meta["attempt"] for s in spans] == list(
            range(1, n_failures + 1)
        )
        assert len({s.trace_id for s in spans}) <= 1
        times = [t for s in spans for t in (s.start, s.end)]
        assert times == sorted(times)
        assert all(s.component in COMPONENTS and s.stage in STAGES
                   for s in spans)


# --------------------------------------------------------------------- #
# structured logging
# --------------------------------------------------------------------- #
class TestStructuredLogger:
    def test_deterministic_json_lines_under_injected_clock(self):
        stream = io.StringIO()
        log = StructuredLogger(stream=stream, clock=CounterClock())
        log.info("flush", rows=8)
        log.warn("slow", name="lin")
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert lines == [
            {"event": "flush", "level": "info", "rows": 8, "ts": 1.0},
            {"event": "slow", "level": "warn", "name": "lin", "ts": 2.0},
        ]

    def test_trace_correlation_accepts_id_or_context(self):
        log = StructuredLogger(clock=CounterClock())
        ctx = Tracer().start_trace("corr-1")
        assert log.log("info", "a", trace=ctx)["trace"] == "corr-1"
        assert log.log("info", "b", trace="corr-2")["trace"] == "corr-2"
        assert "trace" in log.tail()[0]

    def test_coded_error_embeds_the_wire_image(self):
        log = StructuredLogger(clock=CounterClock())
        exc = coded(ConnectionError("shard 1 died"), ErrorCode.SHARD_CRASHED)
        rec = log.error("submit failed", exc=exc)
        assert rec["error"] == to_wire(exc)
        assert rec["error"]["code"] == int(ErrorCode.SHARD_CRASHED)
        assert rec["error"]["retryable"] is True

    def test_tail_ring_bounded_with_drop_accounting(self):
        log = StructuredLogger(clock=CounterClock(), ring=2)
        for i in range(5):
            log.info("e", i=i)
        assert [r["i"] for r in log.tail()] == [3, 4]
        assert log.dropped == 3

    def test_level_filter_counts_suppressed(self):
        stream = io.StringIO()
        log = StructuredLogger(stream=stream, clock=CounterClock(), level="warn")
        assert log.debug("noise") is None
        assert log.info("noise") is None
        assert log.error("boom")["level"] == "error"
        assert log.suppressed == 2
        assert stream.getvalue().count("\n") == 1

    def test_unknown_levels_refused(self):
        with pytest.raises(ValueError):
            StructuredLogger(level="whisper")
        with pytest.raises(ValueError):
            StructuredLogger().log("shout", "e")


# --------------------------------------------------------------------- #
# the wire error payload: trace key only when traced
# --------------------------------------------------------------------- #
class TestWireTraceKey:
    def test_untraced_payload_shape_stays_frozen(self):
        wire = to_wire(coded(ValueError("bad"), ErrorCode.MALFORMED_REQUEST))
        assert "trace" not in wire
        assert set(wire) == {
            "code", "name", "category", "severity", "retryable", "type",
            "detail",
        }

    def test_traced_error_ships_its_join_key(self):
        exc = coded(ConnectionError("died"), ErrorCode.SHARD_CRASHED)
        exc.trace_id = "join-key-9"
        assert to_wire(exc)["trace"] == "join-key-9"


# --------------------------------------------------------------------- #
# end-to-end: socket cluster behind the TCP edge, one shared tracer
# --------------------------------------------------------------------- #
@pytest.mark.shard
@pytest.mark.net
class TestEndToEnd:
    @pytest.fixture()
    def traced_stack(self):
        reg = ModelRegistry()
        reg.register("lin", LinearModel(), promote=True)
        tracer = Tracer()
        with ShardedServingCluster(
            reg, n_shards=2, transport="socket", max_batch=8, max_delay=0.05,
            tracer=tracer,
        ) as cluster:
            with AsyncServeServer(cluster, tracer=tracer) as srv:
                yield cluster, srv, tracer

    def test_one_request_yields_a_complete_cross_process_trace(
        self, traced_stack
    ):
        cluster, srv, tracer = traced_stack
        model = LinearModel()
        rows = _rows(9, seed=8)
        with ServeClient(srv.host, srv.port) as client:
            for row in rows[:-1]:  # warm both shards' services
                client.send("lin", row)
            client.drain()
            client.send("lin", rows[-1], trace_id="e2e-trace-1")
            got = client.recv()
            assert got == float(model.predict(rows[-1][None, :])[0])
            dump = client.trace("e2e-trace-1")
            prom = client.metrics("prom")
            snap = client.metrics("json")
            slowest = client.slowest(5)
        spans = dump["spans"]
        assert all(s["trace"] == "e2e-trace-1" for s in spans)
        stages = {(s["component"], s["stage"]) for s in spans}
        assert len(stages) >= 6, f"incomplete trace: {sorted(stages)}"
        assert stages >= {
            ("edge", "parse"), ("edge", "admission"), ("edge", "respond"),
            ("cluster", "transport"), ("batcher", "score"),
        }
        # spans from at least two processes reassembled under one id
        assert len({s["pid"] for s in spans}) >= 2
        # the wire exports agree with the authoritative counters exactly
        st_ = cluster.stats()
        fam = snap["families"]

        def value(name):
            (sample,) = [s for s in fam[name]["samples"] if s[0] == ""]
            return sample[2]

        assert value("repro_serve_requests_total") == st_.total.requests
        assert value("repro_cluster_steals_total") == st_.steals
        assert value("repro_gateway_tap_errors_total") == st_.tap_errors_total
        assert value("repro_cluster_shards_live") == 2
        assert "repro_serve_requests_total" in prom
        assert "repro_obs_spans_total" in prom
        # slowest-span forensics come back duration-sorted
        durs = [s["end"] - s["start"] for s in slowest]
        assert durs == sorted(durs, reverse=True) and len(slowest) <= 5

    def test_traced_wire_serving_is_bit_identical(self, traced_stack):
        cluster, srv, tracer = traced_stack
        model = LinearModel()
        rows = _rows(40, seed=9)
        with ServeClient(srv.host, srv.port) as client:
            for i, row in enumerate(rows):
                client.send("lin", row, trace_id=f"soak-{i}")
            got = np.array(client.drain())
        assert np.array_equal(got, model.predict(rows))
        # every explicit trace id is retrievable afterwards
        assert any(s.trace_id == "soak-0" for s in tracer.spans())

    def test_trace_survives_kill_and_respawn(self, traced_stack):
        """Spans recorded after a shard dies and is respawned are still
        well-formed and still reassemble by id — a worker's rings die
        with it, never corrupting the parent's."""
        cluster, srv, tracer = traced_stack
        model = LinearModel()
        rows = _rows(6, seed=10)
        with ServeClient(srv.host, srv.port) as client:
            for row in rows[:3]:
                client.send("lin", row)
            client.drain()
            victim = cluster.live_shards()[0]
            cluster.kill_shard(victim)
            cluster.respawn([victim])
            client.send("lin", rows[3], trace_id="post-respawn")
            assert client.recv() == float(model.predict(rows[3][None, :])[0])
            dump = client.trace("post-respawn")
        spans = dump["spans"]
        assert spans, "respawned stack recorded no spans"
        assert all(s["component"] in COMPONENTS and s["stage"] in STAGES
                   for s in spans)
        assert all(s["end"] >= s["start"] for s in spans)
