"""Operational error taxonomy: frozen codes, classification, wire format.

Pins the vocabulary's wire-stability contract (numbers, severities, and
retryable flags never change once shipped), the annotation-first
classifier, the dict round-trip every boundary speaks, and — most
load-bearing — that the codes actually *survive the plumbing*: pickling
through worker pipes, the batcher's private-copy exception isolation,
and the registry/batcher/gateway raises that adopted them.
"""

from __future__ import annotations

import copy
import json
import pickle

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher, _private_exception
from repro.serve.errors import (
    CodedError,
    ErrorCode,
    classify_exception,
    code_of,
    coded,
    ensure_code,
    from_wire,
    to_wire,
)
from repro.serve.registry import ModelRegistry
from repro.serve.router import ServingGateway
from repro.serve.shard import ShardCrashedError, _picklable_exception

pytestmark = [pytest.mark.serve, pytest.mark.faults]


class _Linear:
    """Tiny deterministic stand-in estimator."""

    def fit(self, X, y):
        return self

    def predict(self, X):
        return np.asarray(X, dtype=float).sum(axis=1)


class TestVocabulary:
    # the shipped vocabulary, frozen: a changed number/severity/retryable
    # here is a wire-protocol break, not a refactor
    FROZEN = {
        "MALFORMED_REQUEST": (400, "error", False),
        "UNKNOWN_MODEL": (404, "error", False),
        "UNKNOWN_VERSION": (405, "error", False),
        "NO_PRODUCTION": (406, "error", False),
        "INVALID_MUTATION": (409, "error", False),
        "FRAME_TOO_LARGE": (413, "error", False),
        "INTERNAL": (500, "error", False),
        "SHARD_CRASHED": (503, "critical", True),
        "DEADLINE_EXCEEDED": (504, "warning", True),
        "CLOSED": (507, "error", False),
        "CIRCUIT_OPEN": (508, "warning", True),
        "RESPAWN_FAILED": (509, "critical", True),
        "TRANSPORT_ERROR": (510, "critical", True),
        "OVERLOADED": (513, "warning", True),
        "SLO_BREACH": (514, "warning", False),
        "AUTOSCALE_FAILED": (515, "critical", True),
        "MODEL_RESOLUTION_FAILED": (600, "error", False),
        "SCORING_FAILED": (601, "error", False),
        "REPLICA_DIVERGENCE": (602, "critical", False),
        "REFERENCE_MISSING": (603, "warning", False),
        "POLICY_ACTION_FAILED": (604, "warning", False),
        "DRIFT_DETECTED": (610, "warning", False),
        "OOD_DETECTED": (611, "warning", False),
    }

    def test_shipped_codes_are_frozen(self):
        got = {c.name: (int(c), c.severity, c.retryable) for c in ErrorCode}
        for name, spec in self.FROZEN.items():
            assert got[name] == spec, f"{name} changed — wire-protocol break"

    def test_every_code_has_a_category(self):
        for code in ErrorCode:
            assert code.category in ("client", "transient", "model")

    def test_categories_follow_integer_ranges(self):
        for code in ErrorCode:
            expected = {4: "client", 5: "transient", 6: "model"}[int(code) // 100]
            assert code.category == expected

    def test_client_codes_are_never_retryable(self):
        # resubmitting the same bytes cannot fix a malformed request
        for code in ErrorCode:
            if code.category == "client":
                assert not code.retryable, f"{code.name} must not be retryable"

    def test_internal_is_not_retryable(self):
        # an error nobody classified must never be blind-retried
        assert not ErrorCode.INTERNAL.retryable

    def test_codes_are_ints(self):
        assert ErrorCode.UNKNOWN_MODEL == 404
        assert ErrorCode(503) is ErrorCode.SHARD_CRASHED


class TestClassification:
    def test_annotation_wins_over_type_heuristics(self):
        exc = coded(ValueError("not actually malformed"), ErrorCode.SCORING_FAILED)
        assert classify_exception(exc) is ErrorCode.SCORING_FAILED

    def test_int_annotation_is_coerced(self):
        exc = ValueError("x")
        exc.code = 504
        assert classify_exception(exc) is ErrorCode.DEADLINE_EXCEEDED

    def test_unknown_int_annotation_falls_through(self):
        exc = ValueError("x")
        exc.code = 999
        assert classify_exception(exc) is ErrorCode.MALFORMED_REQUEST

    @pytest.mark.parametrize("exc,expected", [
        (TimeoutError("t"), ErrorCode.DEADLINE_EXCEEDED),
        (BrokenPipeError("p"), ErrorCode.SHARD_CRASHED),
        (ConnectionResetError("c"), ErrorCode.SHARD_CRASHED),
        (EOFError(), ErrorCode.SHARD_CRASHED),
        (LookupError("m"), ErrorCode.UNKNOWN_MODEL),
        (KeyError("k"), ErrorCode.UNKNOWN_MODEL),
        (ValueError("v"), ErrorCode.MALFORMED_REQUEST),
        (TypeError("t"), ErrorCode.MALFORMED_REQUEST),
        (RuntimeError("r"), ErrorCode.INTERNAL),
        (ZeroDivisionError(), ErrorCode.INTERNAL),
    ])
    def test_type_heuristics(self, exc, expected):
        assert classify_exception(exc) is expected
        assert code_of(exc) is expected

    def test_shard_crashed_error_is_coded_by_class(self):
        assert classify_exception(ShardCrashedError("down")) is ErrorCode.SHARD_CRASHED

    def test_ensure_code_annotates_in_place(self):
        exc = RuntimeError("boom")
        assert ensure_code(exc) is exc
        assert exc.code is ErrorCode.INTERNAL

    def test_ensure_code_default_replaces_only_the_internal_fallback(self):
        assert ensure_code(RuntimeError("x"), ErrorCode.SCORING_FAILED).code \
            is ErrorCode.SCORING_FAILED
        # a type the classifier already understands keeps its mapping
        assert ensure_code(ValueError("x"), ErrorCode.SCORING_FAILED).code \
            is ErrorCode.MALFORMED_REQUEST
        # an explicit upstream annotation always wins
        exc = coded(RuntimeError("x"), ErrorCode.REPLICA_DIVERGENCE)
        assert ensure_code(exc, ErrorCode.SCORING_FAILED).code \
            is ErrorCode.REPLICA_DIVERGENCE

    def test_coded_error_type(self):
        err = CodedError("refusing traffic", code=ErrorCode.CIRCUIT_OPEN)
        assert classify_exception(err) is ErrorCode.CIRCUIT_OPEN
        assert "refusing traffic" in str(err)


class TestWireFormat:
    def test_to_wire_from_exception(self):
        w = to_wire(coded(LookupError("no model 'x'"), ErrorCode.UNKNOWN_MODEL))
        assert w == {
            "code": 404, "name": "UNKNOWN_MODEL", "category": "client",
            "severity": "error", "retryable": False, "type": "LookupError",
            "detail": "no model 'x'",
        }

    def test_to_wire_from_bare_code(self):
        w = to_wire(ErrorCode.SHARD_CRASHED, detail="shard 2 died")
        assert w["type"] == "ErrorCode"
        assert w["retryable"] is True
        assert w["detail"] == "shard 2 died"

    def test_wire_payload_is_json_safe(self):
        for code in ErrorCode:
            json.dumps(to_wire(code))

    def test_roundtrip(self):
        original = coded(TimeoutError("too slow"), ErrorCode.DEADLINE_EXCEEDED)
        back = from_wire(to_wire(original))
        assert back.code is ErrorCode.DEADLINE_EXCEEDED
        assert back.wire_type == "TimeoutError"
        assert "too slow" in str(back)

    def test_unknown_code_degrades_to_internal(self):
        err = from_wire({"code": 999, "detail": "from the future"})
        assert err.code is ErrorCode.INTERNAL
        assert "from the future" in str(err)

    def test_garbage_payload_degrades_to_internal(self):
        assert from_wire({}).code is ErrorCode.INTERNAL
        assert from_wire({"code": "nope"}).code is ErrorCode.INTERNAL


class TestCodeSurvivesPlumbing:
    def test_pickle_roundtrip_keeps_code(self):
        exc = coded(ValueError("bad row"), ErrorCode.MALFORMED_REQUEST)
        assert pickle.loads(pickle.dumps(exc)).code is ErrorCode.MALFORMED_REQUEST

    def test_private_exception_copy_keeps_code(self):
        # the batcher hands every ticket its own copy of a shared failure;
        # the copy must stay classifiable
        exc = coded(RuntimeError("resolution"), ErrorCode.MODEL_RESOLUTION_FAILED)
        clone = _private_exception(exc)
        assert clone is not exc
        assert classify_exception(clone) is ErrorCode.MODEL_RESOLUTION_FAILED

    def test_picklable_exception_flattening_keeps_code(self):
        class Unpicklable(RuntimeError):
            def __init__(self, lock):
                super().__init__("worker failure")
                self.lock = lock

        import threading
        exc = coded(Unpicklable(threading.Lock()), ErrorCode.SCORING_FAILED)
        flat = _picklable_exception(exc)
        assert type(flat) is RuntimeError  # flattened for the pipe
        assert classify_exception(flat) is ErrorCode.SCORING_FAILED
        pickle.dumps(flat)

    def test_copy_keeps_code(self):
        exc = coded(LookupError("x"), ErrorCode.UNKNOWN_VERSION)
        assert copy.copy(exc).code is ErrorCode.UNKNOWN_VERSION


class TestBoundaryAdoption:
    """The existing exception types keep raising — now coded."""

    def test_registry_unknown_name(self):
        with pytest.raises(LookupError) as info:
            ModelRegistry().get("ghost")
        assert code_of(info.value) is ErrorCode.UNKNOWN_MODEL

    def test_registry_unknown_version(self):
        reg = ModelRegistry()
        reg.register("m", _Linear().fit(np.zeros((2, 2)), np.zeros(2)))
        with pytest.raises(LookupError) as info:
            reg.promote("m", 99)
        assert code_of(info.value) is ErrorCode.UNKNOWN_VERSION

    def test_registry_no_production(self):
        reg = ModelRegistry()
        reg.register("m", _Linear().fit(np.zeros((2, 2)), np.zeros(2)))
        with pytest.raises(LookupError) as info:
            reg.get("m")
        assert code_of(info.value) is ErrorCode.NO_PRODUCTION

    def test_monitor_watch_without_reference(self):
        from repro.serve.monitor import MonitoringPlane

        reg = ModelRegistry()
        reg.register("m", _Linear().fit(np.zeros((2, 2)), np.zeros(2)),
                     promote=True)
        plane = MonitoringPlane(reg)
        with pytest.raises(ValueError) as info:
            plane.watch("m")
        assert code_of(info.value) is ErrorCode.REFERENCE_MISSING

    def test_registry_invalid_mutation(self):
        reg = ModelRegistry()
        reg.register("m", _Linear().fit(np.zeros((2, 2)), np.zeros(2)), promote=True)
        with pytest.raises(ValueError) as info:
            reg.unregister("m", 1)  # cannot drop production
        assert code_of(info.value) is ErrorCode.INVALID_MUTATION

    def test_batcher_malformed_kind_and_shape(self):
        with MicroBatcher(_Linear(), max_batch=4) as mb:
            with pytest.raises(ValueError) as info:
                mb.submit(np.zeros(3), kind="explain")
            assert code_of(info.value) is ErrorCode.MALFORMED_REQUEST
            with pytest.raises(ValueError) as info:
                mb.submit(np.zeros((2, 2, 2)))
            assert code_of(info.value) is ErrorCode.MALFORMED_REQUEST

    def test_batcher_closed(self):
        mb = MicroBatcher(_Linear(), max_batch=4)
        mb.close()
        with pytest.raises(RuntimeError) as info:
            mb.submit(np.zeros(3))
        assert code_of(info.value) is ErrorCode.CLOSED

    def test_batcher_scoring_failure_is_coded(self):
        class Broken:
            def predict(self, X):
                raise RuntimeError("model exploded")

        with MicroBatcher(Broken(), max_batch=64) as mb:
            ticket = mb.submit(np.zeros(3))
            mb.flush()
            with pytest.raises(RuntimeError) as info:
                ticket.result(timeout=5.0)
            assert code_of(info.value) is ErrorCode.SCORING_FAILED

    def test_batcher_model_resolution_failure_is_coded(self):
        def resolve():
            raise LookupError("no production version")

        with MicroBatcher(resolve, max_batch=64) as mb:
            ticket = mb.submit(np.zeros(3))
            mb.flush()
            with pytest.raises(LookupError) as info:
                ticket.result(timeout=5.0)
            assert code_of(info.value) is ErrorCode.UNKNOWN_MODEL  # annotated upstream

    def test_gateway_unknown_model_and_closed(self):
        reg = ModelRegistry()
        gw = ServingGateway(reg)
        with pytest.raises(LookupError) as info:
            gw.submit("ghost", np.zeros(3))
        assert code_of(info.value) is ErrorCode.UNKNOWN_MODEL
        gw.close()
        with pytest.raises(RuntimeError) as info:
            gw.submit("ghost", np.zeros(3))
        assert code_of(info.value) is ErrorCode.CLOSED

    def test_monitor_event_to_wire_embeds_error_payload(self):
        from repro.serve.monitor.policy import MonitorEvent

        event = MonitorEvent(
            at=1.0, name="m", rule="psi>0.25", action="alert",
            value=0.41, detail="windowed PSI 0.41", code=ErrorCode.DRIFT_DETECTED,
        )
        w = event.to_wire()
        assert w["error"]["code"] == 610
        assert w["error"]["category"] == "model"
        json.dumps(w)
        # uncoded legacy events serialize without an error payload
        legacy = MonitorEvent(at=1.0, name="m", rule="r", action="alert",
                              value=0.0, detail="d")
        assert "error" not in legacy.to_wire()
