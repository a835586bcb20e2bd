"""Tests for the ``Backend`` contract (``repro.serve.backend``).

Every front door — the in-process gateway, the sharded cluster, and the
retry controller decorating either — answers the same calls the same
way: predicts bit-identical to the model, ``submit(..., trace=)``
accepted, ``with`` closes, a second ``close()`` is a no-op.  The deployed
shape, edge → ``RetryController`` → 2-shard cluster, is driven over the
wire: its ``metrics`` op reads the cluster and the controller, and one
tracer shared by edge and cluster joins edge, cluster and worker spans
under one trace id.  Behind a retry controller the wrapped cluster's
``trace_sample`` holds: a trace is born once, where it is sampled — and
an edge that shares the cluster's tracer decides for the whole stack.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.serve import (
    Backend,
    ModelRegistry,
    RetryController,
    ServingGateway,
    ShardedServingCluster,
    Tracer,
)
from repro.serve.backend import UNSAMPLED
from repro.serve.errors import ErrorCode, classify_exception
from repro.serve.net import AsyncServeServer, ServeClient

pytestmark = [pytest.mark.serve]


@pytest.fixture(scope="module")
def forest():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (400, 6))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2]
    return RandomForestRegressor(n_estimators=12, max_depth=6, random_state=1).fit(X, y)


@pytest.fixture()
def registry(forest):
    reg = ModelRegistry()
    reg.register("forest", forest, promote=True)
    return reg


def _rows(n, seed):
    return np.random.default_rng(seed).normal(0, 1, (n, 6))


def _per_row(model, rows):
    """Direct per-request predicts: the serve stack's bit-identity reference."""
    return [model.predict(row[None, :])[0] for row in rows]


def _cluster(registry, **kw):
    return ShardedServingCluster(registry, n_shards=2, max_batch=8, max_delay=0.005, **kw)


def _gateway(registry):
    return ServingGateway(registry, max_batch=8, max_delay=0.005), []


def _pipe_cluster(registry):
    return _cluster(registry), []


def _retry_over_cluster(registry):
    cluster = _cluster(registry)
    return RetryController(cluster, deadline_s=30.0), [cluster]


def _retry_over_gateway(registry):
    gateway, _ = _gateway(registry)
    return RetryController(gateway, deadline_s=30.0), [gateway]


@pytest.fixture(params=[
    pytest.param(_gateway, id="gateway", marks=pytest.mark.gateway),
    pytest.param(_pipe_cluster, id="pipe-cluster", marks=pytest.mark.shard),
    pytest.param(_retry_over_cluster, id="retry-over-cluster",
                 marks=[pytest.mark.shard, pytest.mark.faults]),
    pytest.param(_retry_over_gateway, id="retry-over-gateway",
                 marks=[pytest.mark.gateway, pytest.mark.faults]),
])
def front_door(request, registry):
    backend, owned = request.param(registry)
    yield backend
    backend.close()
    for inner in owned:  # whoever constructs a backend closes it
        inner.close()


# --------------------------------------------------------------------- #
# contract conformance
# --------------------------------------------------------------------- #
class TestConformance:
    def test_predicts_are_bit_identical_to_the_model(self, front_door, forest):
        assert isinstance(front_door, Backend)
        X = _rows(6, seed=1)
        for row in X:
            assert front_door.predict("forest", row, timeout=30.0) == (
                forest.predict(row[None, :])[0])
            mean, var = front_door.predict_dist("forest", row, timeout=30.0)
            ref_m, ref_v = forest.predict_dist(row[None, :])
            assert (mean, var) == (ref_m[0], ref_v[0])
        assert np.array_equal(
            front_door.predict_block("forest", X, timeout=30.0), forest.predict(X))

    def test_submit_accepts_a_trace_context(self, front_door, forest):
        row = _rows(1, seed=2)[0]
        ctx = Tracer().start_trace()
        got = front_door.submit("forest", row, trace=ctx).result(30.0)
        assert got == forest.predict(row[None, :])[0]
        block = front_door.submit_block("forest", row[None, :], trace=ctx).result(30.0)
        assert np.array_equal(block, forest.predict(row[None, :]))

    def test_with_closes_and_a_second_close_is_a_no_op(self, front_door, forest):
        row = _rows(1, seed=3)[0]
        ref = forest.predict(row[None, :])[0]
        with front_door as backend:
            assert backend is front_door
            assert backend.predict("forest", row, timeout=30.0) == ref
        with pytest.raises(Exception) as info:
            front_door.predict("forest", row, timeout=30.0)
        assert classify_exception(info.value) is ErrorCode.CLOSED
        front_door.close()
        # a decorator never closes what it wraps: its constructor's job
        if front_door.wrapped is not None:
            assert front_door.wrapped.predict("forest", row, timeout=30.0) == ref


# --------------------------------------------------------------------- #
# the deployed shape over the wire: edge -> RetryController -> cluster
# --------------------------------------------------------------------- #
@pytest.mark.shard
@pytest.mark.net
@pytest.mark.faults
@pytest.mark.obs
class TestDeployedShape:
    @staticmethod
    @contextmanager
    def _deployed(registry, tracer=None):
        with _cluster(registry, tracer=tracer) as cluster:
            rc = RetryController(cluster, deadline_s=30.0)
            with AsyncServeServer(rc, tracer=tracer) as edge:
                yield cluster, rc, edge

    def test_metrics_op_reads_the_cluster_and_the_controller(self, registry):
        with self._deployed(registry) as (cluster, rc, edge), \
                ServeClient(edge.host, edge.port) as client:
            for row in _rows(12, seed=4):
                client.send("forest", row)
            client.drain()
            fam = client.metrics("json")["families"]

            def value(name):
                (sample,) = fam[name]["samples"]
                return sample[2]

            assert value("repro_serve_requests_total") == cluster.stats().total.requests == 12
            assert value("repro_resilience_submits_total") == rc.stats().submits == 12
            assert value("repro_cluster_shards_live") == 2

    def test_traced_replies_are_bit_identical_and_join_one_trace(self, registry, forest):
        # one tracer shared by the edge and the cluster
        rows = _rows(16, seed=5)
        with self._deployed(registry, Tracer()) as (_, _, edge), \
                ServeClient(edge.host, edge.port) as client:
            for row in rows[:-1]:
                client.send("forest", row)
            client.send("forest", rows[-1], trace_id="deployed-1")
            got = np.array(client.drain())
            dump = client.trace("deployed-1")
        assert np.array_equal(got, _per_row(forest, rows))
        spans = dump["spans"]
        assert spans and all(s["trace"] == "deployed-1" for s in spans)
        assert {"edge", "cluster", "worker"} <= {s["component"] for s in spans}


# --------------------------------------------------------------------- #
# sampling is decided once, where the trace is born
# --------------------------------------------------------------------- #
@pytest.mark.shard
@pytest.mark.faults
@pytest.mark.obs
def test_retry_honours_the_wrapped_trace_sample(registry, forest):
    tracer = Tracer()
    rows = _rows(41, seed=6)
    with ShardedServingCluster(registry, n_shards=1, max_batch=8, max_delay=0.005,
                               tracer=tracer, trace_sample=4) as cluster:
        # the backoff sleep brings the killed shard back before the retry
        rc = RetryController(cluster, deadline_s=30.0,
                             sleep=lambda _s: cluster.respawn())
        got = [rc.predict("forest", row, timeout=30.0) for row in rows[:40]]
        assert got == _per_row(forest, rows[:40])
        births = {s.trace_id for s in tracer.spans(component="cluster")}
        assert len(births) == 10  # 1-in-4 of 40, not one per request

        cluster.kill_shard(0)
        deadline = time.monotonic() + 10.0
        while cluster.live_shards() and time.monotonic() < deadline:
            time.sleep(0.005)
        # submit 41 is sampled (stride 4), fails on the dead shard, retries
        assert rc.predict("forest", rows[40], timeout=30.0) == _per_row(forest, rows[40:])[0]
        (retry,) = tracer.spans(component="resilience")
        attempts = [s for s in tracer.spans(component="cluster")
                    if s.trace_id == retry.trace_id and s.stage == "route"]
        assert len(attempts) == 2  # both attempts ride the one trace
        assert retry.trace_id not in births
        assert rc.stats().retries == 1


@pytest.mark.shard
@pytest.mark.net
@pytest.mark.obs
def test_the_edge_samples_once_for_the_whole_stack(registry, forest):
    # edge -> RetryController -> cluster, one tracer, stride 4 at both
    # ends: a request the edge samples out must not be born again below
    tracer = Tracer()
    rows = _rows(30, seed=7)
    with ShardedServingCluster(registry, n_shards=1, max_batch=8, max_delay=0.005,
                               tracer=tracer, trace_sample=4) as cluster:
        rc = RetryController(cluster, deadline_s=30.0)
        with AsyncServeServer(rc, tracer=tracer, trace_sample=4) as edge, \
                ServeClient(edge.host, edge.port) as client:
            for row in rows:
                client.send("forest", row)
            got = np.array(client.drain())
    assert np.array_equal(got, _per_row(forest, rows))
    traced = {s.trace_id for s in tracer.spans()}
    assert len(traced) == math.ceil(len(rows) / 4)
    assert {s.trace_id for s in tracer.spans(component="cluster")} == traced


@pytest.mark.obs
def test_an_unsampled_request_traces_nothing_below(registry, forest):
    # a gateway that would trace every request (stride 1) honours the
    # upstream decision, directly and through a retry controller
    tracer = Tracer()
    row = _rows(1, seed=8)[0]
    with ServingGateway(registry, max_batch=8, max_delay=0.005, tracer=tracer) as gw:
        rc = RetryController(gw, deadline_s=30.0)
        for backend in (gw, rc):
            assert backend.submit("forest", row, trace=UNSAMPLED).result(30.0) == \
                _per_row(forest, [row])[0]
    assert tracer.spans() == []
