"""Tests for the asyncio network front door (``repro.serve.net``).

The edge adds transport, never arithmetic: every value a client reads
must be bit-identical (``np.array_equal``) to the in-process ticket's
result, responses leave each connection strictly in request order, and a
misbehaving peer — malformed JSON, truncated frames, absurd length
headers, mid-request disconnects, raw garbage — gets a coded wire error
or a clean close, never a hang and never a dead server.  Admission
control sheds with a structured ``OVERLOADED`` instead of queueing
unboundedly, and a shed request still occupies its FIFO slot.

The model is a deterministic linear stand-in (exact dot products), so
every expected value is computable to the bit without training.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ModelRegistry, ServingGateway
from repro.serve.errors import CodedError, ErrorCode, code_of
from repro.serve.net import (
    MAX_FRAME_BYTES,
    AsyncServeServer,
    ServeClient,
    decode_payload,
    decode_value,
    encode_frame,
    encode_value,
    parse_request,
    recv_frame,
    request_frame,
)

pytestmark = [pytest.mark.serve, pytest.mark.net]

D = 5


class LinearModel:
    """Deterministic stand-in estimator: row-wise dot products, so the
    result is bit-identical no matter how rows are blocked into batches
    (a full-matrix ``@`` would pick a different BLAS summation path for
    different block shapes)."""

    def __init__(self, d: int = D):
        self.w = np.linspace(1.0, 2.0, d)
        self.w2 = np.linspace(0.5, 1.5, d)

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        return np.array([float(np.dot(r, self.w)) for r in X])

    def predict_dist(self, X):
        X = np.asarray(X, dtype=float)
        mean = np.array([float(np.dot(r, self.w)) for r in X])
        var = np.array([float(np.dot(r**2, self.w2)) + 1.0 for r in X])
        return mean, var


def _rows(n, seed=0):
    return np.random.default_rng(seed).normal(0, 1, (n, D))


@pytest.fixture()
def model():
    return LinearModel()


@pytest.fixture()
def gateway(model):
    reg = ModelRegistry()
    reg.register("lin", model, promote=True)
    with ServingGateway(reg, max_batch=32, cache_entries=1) as gw:
        yield gw


@pytest.fixture()
def server(gateway):
    with AsyncServeServer(gateway) as srv:
        yield srv


def _raw_conn(server, timeout=10.0):
    sock = socket.create_connection((server.host, server.port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


# ---------------------------------------------------------------------- #
class TestWireIdentity:
    def test_pipelined_stream_bit_identical(self, server, model):
        rows = _rows(200, seed=1)
        ref = model.predict(rows)
        with ServeClient(server.host, server.port) as client:
            for row in rows:
                client.send("lin", row)
            got = np.array(client.drain())
        assert np.array_equal(got, ref)

    def test_predict_dist_single_and_block(self, server, model):
        rows = _rows(40, seed=2)
        ref_m, ref_v = model.predict_dist(rows)
        with ServeClient(server.host, server.port) as client:
            mean, var = client.predict_dist("lin", rows[0])
            assert (mean, var) == (float(ref_m[0]), float(ref_v[0]))
            got_m, got_v = client.call("lin", rows, kind="predict_dist")
            assert np.array_equal(got_m, ref_m)
            assert np.array_equal(got_v, ref_v)

    def test_block_predict_bit_identical(self, server, model):
        rows = _rows(64, seed=3)
        with ServeClient(server.host, server.port) as client:
            got = client.predict("lin", rows)
        assert np.array_equal(got, model.predict(rows))

    def test_counters_balance(self, server):
        rows = _rows(20, seed=4)
        with ServeClient(server.host, server.port) as client:
            for row in rows:
                client.send("lin", row)
            client.drain()
        c = server.counters()
        assert c["requests"] == c["submitted"] == c["responses"] == len(rows)
        assert c["shed"] == 0 and c["wire_errors"] == 0
        assert c["connections"] == 1


# ---------------------------------------------------------------------- #
class TestFifo:
    def test_responses_in_request_order(self, server):
        """Raw frames out of one connection carry ascending request ids —
        the batcher's FIFO witness extends to the wire."""
        rows = _rows(100, seed=5)
        sock = _raw_conn(server)
        try:
            for i, row in enumerate(rows):
                sock.sendall(request_frame(1000 + i, "lin", row, "predict"))
            ids = []
            for _ in range(len(rows)):
                msg = recv_frame(sock)
                assert msg is not None and msg["ok"]
                ids.append(msg["id"])
        finally:
            sock.close()
        assert ids == [1000 + i for i in range(len(rows))]

    def test_interleaved_clients_stay_isolated(self, server, model):
        rows_a, rows_b = _rows(60, seed=6), _rows(60, seed=7)
        with ServeClient(server.host, server.port) as a, \
                ServeClient(server.host, server.port) as b:
            for ra, rb in zip(rows_a, rows_b):
                a.send("lin", ra)
                b.send("lin", rb)
            got_b = np.array(b.drain())
            got_a = np.array(a.drain())
        assert np.array_equal(got_a, model.predict(rows_a))
        assert np.array_equal(got_b, model.predict(rows_b))

    def test_error_responses_hold_their_fifo_slot(self, server, model):
        """A rejected request answers in sequence, not out of band."""
        rows = _rows(3, seed=8)
        sock = _raw_conn(server)
        try:
            sock.sendall(request_frame(0, "lin", rows[0], "predict"))
            sock.sendall(request_frame(1, "nope", rows[1], "predict"))
            sock.sendall(request_frame(2, "lin", rows[2], "predict"))
            msgs = [recv_frame(sock) for _ in range(3)]
        finally:
            sock.close()
        assert [m["id"] for m in msgs] == [0, 1, 2]
        assert [m["ok"] for m in msgs] == [True, False, True]
        assert msgs[1]["error"]["code"] == int(ErrorCode.UNKNOWN_MODEL)


# ---------------------------------------------------------------------- #
class TestRequestErrors:
    def test_unknown_model_conn_survives(self, server, model):
        row = _rows(1, seed=9)[0]
        with ServeClient(server.host, server.port) as client:
            with pytest.raises(CodedError) as err:
                client.predict("nope", row)
            assert err.value.code is ErrorCode.UNKNOWN_MODEL
            assert client.predict("lin", row) == float(model.predict(row[None, :])[0])

    @pytest.mark.parametrize(
        "msg",
        [
            {"id": 1, "name": "lin", "kind": "sing", "row": [0.0] * D},
            {"id": 1, "kind": "predict", "row": [0.0] * D},            # no name
            {"id": 1, "name": "", "row": [0.0] * D},                   # empty name
            {"id": 1, "name": "lin"},                                  # no row(s)
            {"id": 1, "name": "lin", "row": [0.0] * D, "rows": [[0.0] * D]},
            {"id": 1, "name": "lin", "row": [[0.0] * D]},              # 2-D "row"
            {"id": 1, "name": "lin", "rows": [0.0] * D},               # 1-D "rows"
            {"id": 1, "name": "lin", "row": ["x"] * D},                # non-numeric
            {"id": True, "name": "lin", "row": [0.0] * D},             # bool id
        ],
    )
    def test_invalid_request_coded_400_conn_survives(self, server, model, msg):
        row = _rows(1, seed=10)[0]
        sock = _raw_conn(server)
        try:
            sock.sendall(encode_frame(msg))
            reply = recv_frame(sock)
            assert reply is not None and not reply["ok"]
            assert reply["error"]["code"] == int(ErrorCode.MALFORMED_REQUEST)
            assert reply["error"]["retryable"] is False
            # the stream is still framed: a good request answers normally
            sock.sendall(request_frame(7, "lin", row, "predict"))
            good = recv_frame(sock)
            assert good["ok"] and good["id"] == 7
            assert good["value"] == float(model.predict(row[None, :])[0])
        finally:
            sock.close()

    def test_missing_id_answers_with_null_id(self, server):
        sock = _raw_conn(server)
        try:
            sock.sendall(encode_frame({"name": "lin", "row": [0.0] * D}))
            reply = recv_frame(sock)
            assert reply is not None and not reply["ok"]
            assert reply["id"] is None
            assert reply["error"]["code"] == int(ErrorCode.MALFORMED_REQUEST)
        finally:
            sock.close()


# ---------------------------------------------------------------------- #
class TestWireErrors:
    def _expect_error_then_close(self, sock, code=ErrorCode.MALFORMED_REQUEST):
        reply = recv_frame(sock)
        assert reply is not None and not reply["ok"]
        assert reply["error"]["code"] == int(code)
        assert recv_frame(sock) is None  # server closed after the reply
        return reply

    def test_malformed_json_coded_then_closed(self, server, model):
        sock = _raw_conn(server)
        try:
            payload = b"{not json!"
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            self._expect_error_then_close(sock)
        finally:
            sock.close()
        # the server itself survives the bad peer
        row = _rows(1, seed=11)[0]
        with ServeClient(server.host, server.port) as client:
            assert client.predict("lin", row) == float(model.predict(row[None, :])[0])

    def test_non_object_payload_coded_then_closed(self, server):
        sock = _raw_conn(server)
        try:
            payload = b"[1,2,3]"
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            self._expect_error_then_close(sock)
        finally:
            sock.close()

    def test_oversized_header_refused_before_allocation(self, server):
        sock = _raw_conn(server)
        try:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            reply = self._expect_error_then_close(sock, ErrorCode.FRAME_TOO_LARGE)
            # the coded message names the limit and the knob to raise it
            assert str(MAX_FRAME_BYTES) in reply["error"]["detail"]
            assert "max_frame_bytes" in reply["error"]["detail"]
        finally:
            sock.close()
        assert server.counters()["wire_errors"] >= 1

    def test_binary_frame_refused_on_json_edge(self, server):
        """The shard transport's binary flag is not part of the public
        edge protocol — a flagged frame is a malformed request there."""
        from repro.serve.net import encode_binary_frame

        sock = _raw_conn(server)
        try:
            sock.sendall(encode_binary_frame(b"\x00" * 16))
            self._expect_error_then_close(sock)
        finally:
            sock.close()
        assert server.counters()["wire_errors"] >= 1

    def test_truncated_frame_is_a_clean_close(self, server):
        """A peer dying mid-frame reads as a disconnect — no error frame,
        no hang, nothing submitted."""
        sock = _raw_conn(server)
        try:
            sock.sendall(struct.pack(">I", 100) + b"only ten b")
            sock.shutdown(socket.SHUT_WR)
            assert recv_frame(sock) is None
        finally:
            sock.close()
        assert server.counters()["submitted"] == 0

    def test_disconnect_mid_burst_releases_budget(self, server, gateway):
        """A client that vanishes with requests in flight must not leak
        the admission budget."""
        rows = _rows(30, seed=12)
        sock = _raw_conn(server)
        for i, row in enumerate(rows):
            sock.sendall(request_frame(i, "lin", row, "predict"))
        sock.close()  # gone before any response
        gateway.flush()
        deadline = time.monotonic() + 10.0
        while server.counters()["in_flight"] > 0:
            assert time.monotonic() < deadline, "in-flight budget leaked"
            time.sleep(0.01)

    def test_garbage_storm_never_hangs_server(self, server, model):
        rng = np.random.default_rng(13)
        for _ in range(25):
            blob = rng.integers(0, 256, size=int(rng.integers(1, 64))).astype(
                np.uint8).tobytes()
            sock = _raw_conn(server, timeout=10.0)
            try:
                sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)
                # drain whatever the server answers until it closes; a
                # hang trips the socket timeout and fails the test
                while sock.recv(4096):
                    pass
            finally:
                sock.close()
        row = _rows(1, seed=14)[0]
        with ServeClient(server.host, server.port) as client:
            assert client.predict("lin", row) == float(model.predict(row[None, :])[0])


# ---------------------------------------------------------------------- #
class TestAdmissionControl:
    def _slow_gateway(self, model):
        reg = ModelRegistry()
        reg.register("lin", model, promote=True)
        # no size trigger: only the edge's collector flushes, so tickets
        # stay in flight long enough for an unthrottled burst to overrun
        # any budget
        return ServingGateway(reg, max_batch=10_000, cache_entries=1)

    def test_server_budget_sheds_overloaded(self, model):
        rows = _rows(50, seed=15)
        with self._slow_gateway(model) as gw:
            with AsyncServeServer(gw, max_in_flight=4) as srv:
                with ServeClient(srv.host, srv.port) as client:
                    for row in rows:
                        client.send("lin", row)
                    served, shed = [], 0
                    for i in range(len(rows)):
                        try:
                            served.append((i, client.recv()))
                        except CodedError as exc:
                            assert exc.code is ErrorCode.OVERLOADED
                            assert exc.code.retryable
                            shed += 1
                counters = srv.counters()
        assert shed > 0
        assert counters["shed"] == shed
        assert counters["submitted"] == len(served)
        assert len(served) + shed == len(rows)
        ref = model.predict(rows)
        for i, value in served:
            assert value == ref[i]  # non-shed answers stay bit-identical

    def test_per_connection_cap_protects_neighbours(self, model):
        rows = _rows(20, seed=16)
        with self._slow_gateway(model) as gw:
            with AsyncServeServer(
                gw, max_in_flight=1024, max_pending_per_conn=2
            ) as srv:
                with ServeClient(srv.host, srv.port) as hog, \
                        ServeClient(srv.host, srv.port) as neighbour:
                    for row in rows:
                        hog.send("lin", row)
                    neighbour.send("lin", rows[0])
                    outcomes = []
                    for _ in range(len(rows)):
                        try:
                            outcomes.append(("ok", hog.recv()))
                        except CodedError as exc:
                            outcomes.append(("shed", exc.code))
                    # the hog is capped...
                    assert sum(1 for kind, _ in outcomes if kind == "shed") > 0
                    assert all(
                        code is ErrorCode.OVERLOADED
                        for kind, code in outcomes if kind == "shed"
                    )
                    # ...and the neighbour still gets its exact answer
                    assert neighbour.recv() == float(model.predict(rows[0][None, :])[0])

    def test_constructor_rejects_empty_budgets(self, gateway):
        with pytest.raises(ValueError):
            AsyncServeServer(gateway, max_in_flight=0)
        with pytest.raises(ValueError):
            AsyncServeServer(gateway, max_pending_per_conn=0)


# ---------------------------------------------------------------------- #
class TestClientTimeout:
    """Regression: ``ServeClient.recv`` used to leak the raw
    ``socket.timeout`` when the server was slow — callers saw an uncoded
    exception and the retry plane could not classify it."""

    @pytest.fixture()
    def slow_server(self):
        """A stand-in server that answers each request only after being
        released — real frames, controllable delay."""
        from repro.serve.net.protocol import ok_response

        release = threading.Event()
        lst = socket.create_server(("127.0.0.1", 0))
        host, port = lst.getsockname()[:2]

        def serve():
            conn, _ = lst.accept()
            try:
                while True:
                    msg = recv_frame(conn)
                    if msg is None:
                        return
                    release.wait(timeout=30.0)
                    conn.sendall(ok_response(msg["id"], 7.5))
            except OSError:
                pass
            finally:
                conn.close()

        th = threading.Thread(target=serve, daemon=True)
        th.start()
        try:
            yield host, port, release
        finally:
            release.set()
            lst.close()
            th.join(timeout=10.0)

    def test_recv_timeout_is_coded_deadline_exceeded(self, slow_server):
        host, port, release = slow_server
        with ServeClient(host, port) as client:
            client.send("lin", np.zeros(D))
            with pytest.raises(CodedError) as err:
                client.recv(timeout=0.05)
            assert code_of(err.value) is ErrorCode.DEADLINE_EXCEEDED
            assert err.value.code.retryable  # the retry plane may resubmit
            # the request is still pending — a late response is not lost
            assert client.outstanding == 1
            release.set()
            assert client.recv(timeout=10.0) == 7.5
            assert client.outstanding == 0

    def test_per_call_override_restores_connection_default(self, slow_server):
        host, port, release = slow_server
        release.set()
        with ServeClient(host, port, timeout=9.0) as client:
            client.send("lin", np.zeros(D))
            assert client.recv(timeout=5.0) == 7.5
            assert client._sock.gettimeout() == 9.0


# ---------------------------------------------------------------------- #
class TestProtocolUnit:
    @given(st.binary(max_size=256))
    @settings(max_examples=200, deadline=None)
    def test_decode_payload_total(self, blob):
        """Any byte string either parses to a dict or raises the coded
        MALFORMED_REQUEST — never another exception type."""
        try:
            out = decode_payload(blob)
        except Exception as exc:
            assert code_of(exc) is ErrorCode.MALFORMED_REQUEST
        else:
            assert isinstance(out, dict)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_floats_round_trip_bit_identical(self, values):
        """JSON repr round-trips IEEE-754 doubles exactly — the invariant
        the wire's bit-identity guarantee rests on."""
        arr = np.asarray(values, dtype=float)
        frame = request_frame(0, "lin", arr, "predict")
        msg = decode_payload(frame[4:])
        _, _, _, decoded, single = parse_request(msg)
        assert single and np.array_equal(decoded, arr)

    def test_value_shapes_round_trip(self):
        rows = _rows(6, seed=17)
        m = LinearModel()
        cases = [
            ("predict", True, float(m.predict(rows)[0])),
            ("predict", False, m.predict(rows)),
            ("predict_dist", True, (1.5, 0.25)),
            ("predict_dist", False, m.predict_dist(rows)),
        ]
        for kind, single, value in cases:
            wire = encode_value(kind, single, value)
            back = decode_value(kind, single, wire)
            if kind == "predict" and not single:
                assert np.array_equal(back, value)
            elif kind == "predict_dist" and not single:
                assert np.array_equal(back[0], value[0])
                assert np.array_equal(back[1], value[1])
            else:
                assert back == value

    def test_parse_request_accepts_both_shapes(self):
        row = _rows(1, seed=18)[0]
        req_id, name, kind, arr, single = parse_request(
            decode_payload(request_frame(3, "lin", row, "predict_dist")[4:])
        )
        assert (req_id, name, kind, single) == (3, "lin", "predict_dist", True)
        assert np.array_equal(arr, row)
        block = _rows(4, seed=19)
        *_, arr2, single2 = parse_request(
            decode_payload(request_frame(4, "lin", block, "predict")[4:])
        )
        assert not single2 and np.array_equal(arr2, block)
