"""Tests for the pluggable shard transport layer (``repro.serve.transport``).

The transport is plumbing, never arithmetic: a cluster on the socket
transport must produce values bit-identical (``np.array_equal``) to the
pipe transport, to a single-process gateway, and to direct predicts —
including through the network front door.  Binary ndarray frames must
round-trip every dtype/order/shape without touching a byte of the
buffer, every channel failure must surface as the one coded
``TransportError`` (510 TRANSPORT_ERROR), and concurrent submitters
on one socket cluster each see their own stream in order.
"""

import os
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AsyncServeServer,
    ModelRegistry,
    ServeClient,
    ServingGateway,
    ShardCrashedError,
    ShardedServingCluster,
)
from repro.serve.errors import CodedError, ErrorCode, classify_exception, code_of
from repro.serve.net.protocol import (
    decode_ndarray,
    encode_binary_frame,
    encode_ndarray,
    recv_any_frame,
)
from repro.serve.shard import shard_for_name
from repro.serve.transport import (
    SHARD_MAX_FRAME_BYTES,
    PipeTransport,
    SocketListener,
    SocketTransport,
    TransportError,
    connect_worker_transport,
    make_worker_transport,
)

pytestmark = [pytest.mark.serve, pytest.mark.transport]

D = 6


class LinearModel:
    """Deterministic stand-in: row-wise dot products, so every expected
    value is computable to the bit regardless of batch grouping."""

    def __init__(self, d: int = D, scale: float = 1.0):
        self.w = np.linspace(1.0, 2.0, d) * scale
        self.w2 = np.linspace(0.5, 1.5, d) * scale

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        return np.array([float(np.dot(r, self.w)) for r in X])

    def predict_dist(self, X):
        X = np.asarray(X, dtype=float)
        mean = np.array([float(np.dot(r, self.w)) for r in X])
        var = np.array([float(np.dot(r**2, self.w2)) + 1.0 for r in X])
        return mean, var


class SlowBlockModel(LinearModel):
    """Scoring a multi-row block takes 0.3 s; single rows stay fast."""

    def predict(self, X):
        if np.asarray(X).shape[0] > 1:
            time.sleep(0.3)
        return super().predict(X)


def _rows(n, seed=0):
    return np.random.default_rng(seed).normal(0, 1, (n, D))


def _registry(names=("alpha", "beta")):
    reg = ModelRegistry()
    models = {}
    for i, name in enumerate(names):
        models[name] = LinearModel(scale=1.0 + 0.25 * i)
        reg.register(name, models[name], promote=True)
    return reg, models


def _cluster(reg, **kw):
    kw.setdefault("n_shards", 2)
    kw.setdefault("max_batch", 16)
    kw.setdefault("max_delay", 0.002)
    return ShardedServingCluster(reg, **kw)


# ---------------------------------------------------------------------- #
# binary ndarray frames
# ---------------------------------------------------------------------- #
_DTYPES = st.sampled_from(["<f8", "<f4", "<i8", "<i4", "<u2", "|b1"])


class TestNdarrayCodec:
    @given(
        dtype=_DTYPES,
        shape=st.lists(st.integers(0, 5), min_size=0, max_size=3),
        order=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_preserves_bytes_shape_order(self, dtype, shape, order, seed):
        rng = np.random.default_rng(seed)
        arr = (rng.normal(0, 100, size=shape) if np.dtype(dtype).kind == "f"
               else rng.integers(0, 100, size=shape))
        arr = np.asarray(arr.astype(dtype), order=order)
        out = decode_ndarray(encode_ndarray(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)
        assert out.tobytes() == arr.tobytes()  # bit-level, catches -0.0/NaN
        if arr.ndim >= 2 and all(s > 1 for s in arr.shape):
            assert out.flags["F_CONTIGUOUS"] == arr.flags["F_CONTIGUOUS"]

    def test_decoded_array_is_writable(self):
        out = decode_ndarray(encode_ndarray(np.arange(6.0).reshape(2, 3)))
        out[0, 0] = 99.0  # a frombuffer view would raise here

    def test_zero_row_block_survives(self):
        arr = np.empty((0, 7))
        out = decode_ndarray(encode_ndarray(arr))
        assert out.shape == (0, 7) and out.dtype == arr.dtype

    def test_non_finite_values_are_bit_exact(self):
        arr = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])
        out = decode_ndarray(encode_ndarray(arr))
        assert out.tobytes() == arr.tobytes()

    def test_object_dtype_refused(self):
        with pytest.raises(Exception):
            encode_ndarray(np.array([object()], dtype=object))

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_decode_garbage_is_total(self, blob):
        """Any byte string either decodes or raises the coded
        MALFORMED_REQUEST — never a stray struct/numpy exception."""
        try:
            out = decode_ndarray(blob)
        except Exception as exc:
            assert code_of(exc) is ErrorCode.MALFORMED_REQUEST
        else:
            assert isinstance(out, np.ndarray)

    def test_truncated_buffer_is_coded(self):
        data = encode_ndarray(np.arange(16.0))
        with pytest.raises(ValueError) as err:
            decode_ndarray(data[:-8])
        assert code_of(err.value) is ErrorCode.MALFORMED_REQUEST


# ---------------------------------------------------------------------- #
# socket message codec over a socketpair (no processes)
# ---------------------------------------------------------------------- #
@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    ta, tb = SocketTransport(a), SocketTransport(b)
    try:
        yield ta, tb
    finally:
        ta.close()
        tb.close()


class TestSocketCodec:
    def _round_trip(self, pair, msg):
        ta, tb = pair
        ta.send(msg)
        return tb.recv()

    def test_submit_shaped_message(self, pair):
        row = np.random.default_rng(3).normal(0, 1, D)
        got = self._round_trip(pair, ("submit", 17, "alpha", row, "predict"))
        assert got[:3] == ("submit", 17, "alpha")
        assert np.array_equal(got[3], row) and got[3].tobytes() == row.tobytes()
        assert got[4] == "predict"

    def test_type_parity_with_pipe(self, pair):
        """The socket decode must hand back the same *types* a pickle
        round-trip would — np.float64 stays np.float64, tuples stay
        tuples, bytes stay bytes."""
        msg = (
            "result", 1, True,
            (np.float64(1.5), np.float64(2.5)),   # predict_dist single
            np.int64(7), b"\x00raw", [1, (2.0, "x")], {"k": [1, 2]},
        )
        got = self._round_trip(pair, msg)
        ref = pickle.loads(pickle.dumps(msg))
        assert type(got) is tuple and len(got) == len(ref)
        for g, r in zip(got, ref):
            assert type(g) is type(r)
        assert got == ref

    def test_exception_payload_keeps_its_code(self, pair):
        exc = CodedError("model blew up", code=ErrorCode.SCORING_FAILED)
        got = self._round_trip(pair, ("result", 2, False, exc))
        assert isinstance(got[3], CodedError)
        assert classify_exception(got[3]) is ErrorCode.SCORING_FAILED

    def test_fortran_and_empty_arrays(self, pair):
        msgs = (
            ("nd", np.asfortranarray(np.arange(12.0).reshape(3, 4))),
            ("nd", np.zeros((0, 5))),
        )
        for msg in msgs:
            got = self._round_trip(pair, msg)
            assert np.array_equal(got[1], msg[1])
            assert got[1].flags["F_CONTIGUOUS"] == msg[1].flags["F_CONTIGUOUS"]

    def test_eof_is_transport_error(self, pair):
        ta, tb = pair
        ta.close()
        with pytest.raises(TransportError) as err:
            tb.recv()
        assert classify_exception(err.value) is ErrorCode.TRANSPORT_ERROR
        assert err.value.code.retryable  # channel loss is worth a retry

    def test_oversize_frame_is_transport_error(self):
        a, b = socket.socketpair()
        ta = SocketTransport(a)
        tb = SocketTransport(b, max_frame_bytes=64)
        try:
            ta.send(("blob", b"\x00" * 4096))
            with pytest.raises(TransportError):
                tb.recv()
        finally:
            ta.close()
            tb.close()

    def test_blob_without_envelope_is_protocol_violation(self):
        a, b = socket.socketpair()
        tb = SocketTransport(b)
        try:
            a.sendall(encode_binary_frame(b"stray"))
            with pytest.raises(TransportError):
                tb.recv()
        finally:
            a.close()
            tb.close()

    def test_default_cap_admits_model_sized_frames(self):
        # the shard cap must dwarf the 8 MiB network-edge cap: register
        # legitimately ships whole pickled models
        assert SHARD_MAX_FRAME_BYTES >= (1 << 30)


class TestPipeTransportUnit:
    def test_round_trip_and_eof(self):
        import multiprocessing as mp

        a, b = mp.Pipe()
        ta, tb = PipeTransport(a), PipeTransport(b)
        row = np.arange(4.0)
        ta.send(("submit", 0, "m", row, "predict"))
        got = tb.recv()
        assert got[:3] == ("submit", 0, "m") and np.array_equal(got[3], row)
        ta.close()
        with pytest.raises(TransportError):
            tb.recv()
        tb.close()

    def test_send_after_close_is_transport_error(self):
        import multiprocessing as mp

        a, b = mp.Pipe()
        ta = PipeTransport(a)
        ta.close()
        with pytest.raises(TransportError):
            ta.send(("ping",))
        b.close()


@pytest.fixture(params=["pipe", "socket"])
def channel(request):
    """A connected transport pair of each kind: (near, far)."""
    if request.param == "pipe":
        import multiprocessing as mp

        a, b = mp.Pipe()
        ends = PipeTransport(a), PipeTransport(b)
    else:
        a, b = socket.socketpair()
        ends = SocketTransport(a), SocketTransport(b)
    try:
        yield ends
    finally:
        for end in ends:
            end.close()


class TestReady:
    """``ready()`` is true exactly when ``recv`` would not block."""

    def test_idle_channel_is_not_ready(self, channel):
        near, far = channel
        assert not far.ready()
        assert not near.ready()

    def test_queued_message_is_ready_until_received(self, channel):
        near, far = channel
        near.send(("submit", 0, "m", np.arange(3.0), "predict"))
        assert far.ready()
        assert far.recv()[:3] == ("submit", 0, "m")
        assert not far.ready()

    def test_peer_close_is_ready_and_recv_raises(self, channel):
        near, far = channel
        near.close()
        assert far.ready()
        with pytest.raises(TransportError):
            far.recv()

    def test_own_close_is_ready(self, channel):
        near, far = channel
        far.close()
        assert far.ready()


# ---------------------------------------------------------------------- #
# listener handshake
# ---------------------------------------------------------------------- #
class TestHandshake:
    def test_token_hello_round_trip(self):
        lst = SocketListener()
        out = {}

        def worker():
            out["t"] = make_worker_transport(("socket", lst.address, lst.token))

        th = threading.Thread(target=worker)
        th.start()
        parent = lst.accept(timeout=10.0)
        th.join(timeout=10.0)
        lst.close()
        try:
            parent.send(("ping", 123))
            assert out["t"].recv() == ("ping", 123)
        finally:
            parent.close()
            out["t"].close()

    def test_wrong_token_rejected(self):
        lst = SocketListener()

        def impostor():
            try:
                connect_worker_transport(lst.address, "not-the-token")
            except TransportError:
                pass

        th = threading.Thread(target=impostor)
        th.start()
        try:
            with pytest.raises(TransportError):
                lst.accept(timeout=10.0)
        finally:
            th.join(timeout=10.0)
            lst.close()

    def test_accept_timeout_is_transport_error(self):
        lst = SocketListener()
        try:
            with pytest.raises(TransportError):
                lst.accept(timeout=0.05)
        finally:
            lst.close()


# ---------------------------------------------------------------------- #
# cluster identity across transports (forks worker processes)
# ---------------------------------------------------------------------- #
@pytest.mark.shard
class TestClusterTransportIdentity:
    def test_constructor_rejects_unknown_transport(self):
        reg, _ = _registry()
        with pytest.raises(ValueError):
            ShardedServingCluster(reg, n_shards=2, transport="carrier-pigeon")

    def test_hash_route_socket_identical_to_pipe_and_direct(self):
        rows = _rows(80, seed=21)
        got = {}
        for transport in ("pipe", "socket"):
            reg, models = _registry()
            with _cluster(reg, route="hash", transport=transport) as cluster:
                tickets = [
                    cluster.submit(name, r)
                    for r in rows for name in ("alpha", "beta")
                ]
                cluster.flush()
                got[transport] = np.array([t.result(timeout=30.0) for t in tickets])
        ref = np.array([
            float(models[name].predict(r[None, :])[0])
            for r in rows for name in ("alpha", "beta")
        ])
        assert np.array_equal(got["pipe"], ref)
        assert np.array_equal(got["socket"], ref)
        assert np.array_equal(got["socket"], got["pipe"])

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    def test_worker_scores_once_its_channel_is_empty(self, transport):
        # the worker flushes as soon as no further message is waiting, so
        # a lone request never waits out the batcher's deadline
        reg, models = _registry(("alpha",))
        row = _rows(1, seed=23)[0]
        with _cluster(reg, n_shards=1, max_delay=600.0, transport=transport) as cluster:
            cluster.stats()  # a round trip: the worker is up
            got = cluster.predict("alpha", row, timeout=1.0)
            assert cluster.stats().total.deadline_flushes == 0
        assert got == float(models["alpha"].predict(row[None, :])[0])

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    def test_a_submit_then_an_op_does_not_wait_out_max_delay(self, transport):
        # the op reply leaves the channel empty: the worker must flush
        # then too, not only after a submit
        reg = ModelRegistry()
        model = SlowBlockModel()
        reg.register("slow", model, promote=True)
        rows = _rows(5, seed=24)
        with _cluster(reg, n_shards=1, max_delay=600.0, transport=transport) as cluster:
            cluster.stats()  # a round trip: the worker is up
            block = cluster.submit_block("slow", rows[:4])
            ticket = cluster.submit("slow", rows[4])
            cluster.stats()
            assert ticket.result(timeout=3.0) == float(model.predict(rows[4:])[0])
            assert np.array_equal(block.result(timeout=3.0), model.predict(rows[:4]))

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    def test_a_burst_is_answered_in_fewer_messages_in_submit_order(self, transport):
        reg = ModelRegistry()
        model = SlowBlockModel()
        reg.register("slow", model, promote=True)
        rows = _rows(40, seed=25)
        with _cluster(reg, n_shards=1, max_delay=600.0, transport=transport) as cluster:
            handle = cluster._shards[0]
            answers: list[list[int]] = []
            recv = handle.transport.recv

            def counting_recv():
                msg = recv()
                answers.append([req_id for _, req_id, _ in msg])
                return msg

            handle.transport.recv = counting_recv
            cluster.stats()  # the reader's next recv() is the counting one
            answers.clear()
            # the slow block holds the worker while the burst queues up
            block = cluster.submit_block("slow", rows[:4])
            singles = [cluster.submit("slow", r) for r in rows[4:20]]
            unknown = cluster.submit("no-such-model", rows[20])
            singles += [cluster.submit("slow", r) for r in rows[21:]]
            got = [t.result(timeout=30.0) for t in singles]
            assert np.array_equal(block.result(timeout=30.0), model.predict(rows[:4]))
            with pytest.raises(LookupError) as err:
                unknown.result(timeout=30.0)
            assert code_of(err.value) is ErrorCode.UNKNOWN_MODEL
            req_ids = [r for msg in answers for r in msg]
            assert req_ids == sorted(req_ids)  # FIFO, the error in its place
            assert len(req_ids) == 1 + 36
            assert len(answers) < 36  # one message per drain, not per row
            status = f"/proc/{handle.process.pid}/status"
            if os.path.exists(status):
                with open(status) as fh:
                    threads = [ln for ln in fh if ln.startswith("Threads:")]
                assert threads == ["Threads:\t1\n"]  # no responder, no timer
        ref = [float(model.predict(r[None, :])[0])
               for r in np.concatenate([rows[4:20], rows[21:]])]
        assert got == ref

    def test_replicated_block_fanout_socket_identical(self):
        reg, models = _registry()
        X = _rows(97, seed=22)  # odd count: uneven chunks must reassemble
        with _cluster(reg, route="replicated", transport="socket",
                      max_batch=64) as cluster:
            assert np.array_equal(
                cluster.predict_block("alpha", X, timeout=30.0),
                models["alpha"].predict(X),
            )
            m, v = cluster.submit_block("beta", X, kind="predict_dist").result(30.0)
            mr, vr = models["beta"].predict_dist(X)
            assert np.array_equal(m, mr) and np.array_equal(v, vr)

    @pytest.mark.net
    def test_socket_cluster_through_network_front_door(self):
        """The acceptance gate end to end: TCP edge -> socket-transport
        cluster -> worker gateways, still bit-identical."""
        rows = _rows(60, seed=23)
        reg, models = _registry()
        with _cluster(reg, route="hash", transport="socket") as cluster:
            with AsyncServeServer(cluster) as server:
                with ServeClient(server.host, server.port) as client:
                    for r in rows:
                        client.send("alpha", r)
                        client.send("beta", r)
                    got = np.array(client.drain())
        ref = np.array([
            float(models[name].predict(r[None, :])[0])
            for r in rows for name in ("alpha", "beta")
        ])
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------- #
# concurrent submitters on one socket cluster (forks worker processes)
# ---------------------------------------------------------------------- #
def _hot_names(n_shards=2):
    """Names all owned by one shard: every submitter contends for the
    same worker's FIFO responder."""
    target = shard_for_name("alpha", n_shards)
    names = ["alpha"]
    i = 0
    while len(names) < 2:
        cand = f"hot-{i}"
        if shard_for_name(cand, n_shards) == target:
            names.append(cand)
        i += 1
    return names


@pytest.mark.shard
class TestConcurrentSubmitters:
    def test_fifo_witness_soak_per_submitter(self):
        """4 submitter threads on a socket cluster: every submitter's
        stream completes losslessly, in order, bit-identical — the other
        threads' interleaving must be invisible in each thread's
        observed sequence."""
        names = _hot_names()
        reg, models = _registry(names)
        n_threads, n_rows = 4, 80
        results = [None] * n_threads
        errors = []

        with _cluster(reg, route="hash", transport="socket",
                      max_delay=0.003) as cluster:

            def submitter(tid):
                rng = np.random.default_rng(100 + tid)
                rows = rng.normal(0, 1, (n_rows, D))
                name = names[tid % len(names)]
                try:
                    tickets = [cluster.submit(name, r) for r in rows]
                    cluster.flush(name)
                    got = [t.result(timeout=30.0) for t in tickets]
                    results[tid] = (name, rows, got)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append((tid, exc))

            threads = [threading.Thread(target=submitter, args=(i,))
                       for i in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)

        assert not errors, errors
        for tid in range(n_threads):
            name, rows, got = results[tid]
            assert len(got) == n_rows  # lossless
            ref = [float(models[name].predict(r[None, :])[0]) for r in rows]
            assert got == ref  # in order and bit-identical

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    def test_concurrent_large_blocks_do_not_deadlock(self, transport):
        """Blocks and answers bigger than the channel's buffers, from
        three threads at once: the worker sends its own answers, so the
        parent's reader must never wait behind a sender that is blocked
        on a full channel."""
        reg, models = _registry(("alpha",))
        X = _rows(60_000, seed=26)
        ref = models["alpha"].predict(X)
        results, errors = [], []
        with _cluster(reg, n_shards=1, transport=transport) as cluster:

            def submitter():
                try:
                    for _ in range(3):
                        results.append(cluster.predict_block("alpha", X, timeout=10.0))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=submitter, daemon=True) for _ in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30.0)
            stuck = any(th.is_alive() for th in threads)
            if stuck:
                cluster.kill_shard(0)  # frees the blocked senders, so close() returns
        assert not stuck
        assert not errors, errors
        assert len(results) == 9 and all(np.array_equal(r, ref) for r in results)


# ---------------------------------------------------------------------- #
# fault containment on the socket transport (forks worker processes)
# ---------------------------------------------------------------------- #
@pytest.mark.shard
@pytest.mark.faults
class TestSocketFaults:
    def test_kill_during_flight_fails_pending_then_respawns(self):
        reg, models = _registry(("alpha",))
        rows = _rows(40, seed=41)
        with _cluster(reg, n_shards=1, route="hash", transport="socket",
                      max_delay=0.05, max_batch=256) as cluster:
            tickets = [cluster.submit("alpha", r) for r in rows]
            cluster.kill_shard(0)
            outcomes = []
            for t in tickets:
                try:
                    outcomes.append(("ok", t.result(timeout=30.0)))
                except ShardCrashedError as exc:
                    assert classify_exception(exc) is ErrorCode.SHARD_CRASHED
                    outcomes.append(("crashed", None))
            # no hangs: every ticket resolved one way or the other; a
            # kill mid-flight must fail at least the queued tail
            assert any(kind == "crashed" for kind, _ in outcomes)
            assert cluster.respawn() == 1
            t = cluster.submit("alpha", rows[0])
            cluster.flush()
            assert t.result(timeout=30.0) == float(
                models["alpha"].predict(rows[0][None, :])[0])

    def test_worker_send_failure_classifies_as_transport_error(self):
        """The taxonomy gate: a snapped socket surfaces as the coded
        TRANSPORT_ERROR, not an anonymous OSError."""
        a, b = socket.socketpair()
        t = SocketTransport(a)
        b.close()
        big = ("x", b"\x00" * (1 << 22))  # overflow the send buffer
        with pytest.raises(TransportError) as err:
            for _ in range(64):
                t.send(big)
        assert classify_exception(err.value) is ErrorCode.TRANSPORT_ERROR
        t.close()
