"""Operational error taxonomy: coded, classified, machine-actionable.

The repo reproduces the paper's taxonomy of *model* error sources
(application, noise, drift, OoD); this module is its operational
counterpart for the serving stack.  Before it, the serve layer's failures
were an ad-hoc zoo — ``ShardCrashedError``, malformed-ticket
``ValueError``s, registry ``LookupError``s, policy ``*-failed`` events —
and every consumer (a retry controller, an alerting rule, a future
network edge) had to re-diagnose each failure from its message string.

:class:`ErrorCode` is the frozen shared vocabulary.  Codes live in three
numeric category ranges, mirroring the HTTP convention every operator
already reads fluently:

* **4xx — client/request** (never retryable): the request itself is
  wrong; resubmitting the same bytes reproduces the same failure.
* **5xx — transient/infra** (retryable unless shutdown): the serving
  substrate hiccuped; the same request against a recovered substrate
  (a respawned shard, a lapsed breaker) is expected to succeed.
* **6xx — model/data**: the model or its monitoring contract failed —
  scoring raised, a replica diverged, drift/OoD was detected.

Every code carries ``severity`` and ``retryable`` — exactly the two
decisions a retry controller and an alerting pipeline need to make
without parsing prose.  The vocabulary is **adopted, not imposed**: the
existing exception types keep raising exactly as before (no test or
caller breaks), but each boundary annotates its exceptions with a
``code`` attribute, :func:`classify_exception` maps any unannotated
exception to its closest code, and :func:`to_wire`/:func:`from_wire`
give every error one structured dict form for pipes, JSON edges, and
:class:`~repro.serve.monitor.policy.MonitorEvent` payloads.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any

__all__ = [
    "CodedError",
    "ErrorCode",
    "classify_exception",
    "code_of",
    "coded",
    "ensure_code",
    "from_wire",
    "to_wire",
]

# category ranges: [lo, hi) -> label.  Frozen alongside the codes — a
# consumer may rely on integer-range checks alone ("is this 4xx?").
_CATEGORIES = (
    (400, 500, "client"),
    (500, 600, "transient"),
    (600, 700, "model"),
)


class ErrorCode(IntEnum):
    """The frozen coded vocabulary (value, severity, retryable).

    Values are wire-stable: codes may be *added*, but an existing code's
    number, severity, and retryable flag never change — retry policies
    and dashboards depend on them across versions.  The full catalogue
    with originating boundaries lives in ``docs/errors.md``.
    """

    # --- 4xx: client/request (resubmitting the same bytes cannot help) ---
    MALFORMED_REQUEST = (400, "error", False)
    UNKNOWN_MODEL = (404, "error", False)
    UNKNOWN_VERSION = (405, "error", False)
    NO_PRODUCTION = (406, "error", False)
    INVALID_MUTATION = (409, "error", False)
    FRAME_TOO_LARGE = (413, "error", False)  # wire frame exceeds the byte cap

    # --- 5xx: transient/infra (a recovered substrate should succeed) ----
    INTERNAL = (500, "error", False)  # unclassified: never blind-retried
    SHARD_CRASHED = (503, "critical", True)
    DEADLINE_EXCEEDED = (504, "warning", True)
    CLOSED = (507, "error", False)  # deliberate shutdown, not an outage
    CIRCUIT_OPEN = (508, "warning", True)
    RESPAWN_FAILED = (509, "critical", True)
    TRANSPORT_ERROR = (510, "critical", True)  # parent<->worker channel failed
    OVERLOADED = (513, "warning", True)  # admission control shed the request
    SLO_BREACH = (514, "warning", False)  # retired: raised by nothing, number reserved
    AUTOSCALE_FAILED = (515, "critical", True)  # retired: raised by nothing, number reserved

    # --- 6xx: model/data (the scoring or monitoring contract failed) ----
    MODEL_RESOLUTION_FAILED = (600, "error", False)
    SCORING_FAILED = (601, "error", False)
    REPLICA_DIVERGENCE = (602, "critical", False)
    REFERENCE_MISSING = (603, "warning", False)
    POLICY_ACTION_FAILED = (604, "warning", False)
    DRIFT_DETECTED = (610, "warning", False)
    OOD_DETECTED = (611, "warning", False)

    severity: str
    retryable: bool

    def __new__(cls, value: int, severity: str, retryable: bool) -> "ErrorCode":
        obj = int.__new__(cls, value)
        obj._value_ = value
        obj.severity = severity
        obj.retryable = retryable
        return obj

    @property
    def category(self) -> str:
        for lo, hi, label in _CATEGORIES:
            if lo <= self._value_ < hi:
                return label
        raise ValueError(f"code {self._value_} outside every category range")


class CodedError(RuntimeError):
    """An error born coded — raised where no richer exception type fits
    (a circuit refusing traffic, a wire-format reconstruction)."""

    def __init__(self, message: str = "", code: ErrorCode = ErrorCode.INTERNAL):
        super().__init__(message)
        self.code = code


def coded(exc: BaseException, code: ErrorCode) -> BaseException:
    """Annotate ``exc`` with ``code`` and return it — the raising idiom
    is ``raise coded(LookupError(...), ErrorCode.UNKNOWN_MODEL)``.

    The attribute rides the exception through pickling (worker pipes) and
    :func:`~repro.serve.batcher._private_exception` copies alike, because
    both round-trip ``__dict__``.
    """
    exc.code = code  # type: ignore[attr-defined]
    return exc


def classify_exception(exc: BaseException) -> ErrorCode:
    """Map any exception to its closest code.

    An explicit ``code`` annotation always wins — boundaries that know
    their failure mode say so precisely.  Unannotated exceptions fall to
    type heuristics, and anything unrecognized is :data:`ErrorCode.INTERNAL`
    — which is deliberately **not** retryable: an error nobody classified
    must never be blind-retried into amplification.
    """
    existing = getattr(exc, "code", None)
    if isinstance(existing, ErrorCode):
        return existing
    if isinstance(existing, int):
        try:
            return ErrorCode(existing)
        except ValueError:
            pass
    if isinstance(exc, TimeoutError):
        return ErrorCode.DEADLINE_EXCEEDED
    if isinstance(exc, (BrokenPipeError, ConnectionError, EOFError)):
        return ErrorCode.SHARD_CRASHED
    if isinstance(exc, LookupError):
        return ErrorCode.UNKNOWN_MODEL
    if isinstance(exc, (ValueError, TypeError)):
        return ErrorCode.MALFORMED_REQUEST
    return ErrorCode.INTERNAL


def code_of(exc: BaseException) -> ErrorCode:
    """The exception's code (annotation first, classification fallback)."""
    return classify_exception(exc)


def ensure_code(exc: BaseException, default: ErrorCode | None = None) -> BaseException:
    """Annotate ``exc`` in place unless a boundary already did.

    ``default`` overrides the type-heuristic fallback for boundaries that
    know their context better than the generic classifier (a scoring loop
    tags unrecognized failures :data:`ErrorCode.SCORING_FAILED`, not
    ``INTERNAL``) — but an *explicit* upstream annotation still wins.
    """
    if not isinstance(getattr(exc, "code", None), ErrorCode):
        code = classify_exception(exc)
        if default is not None and code is ErrorCode.INTERNAL:
            code = default
        try:
            exc.code = code  # type: ignore[attr-defined]
        except AttributeError:
            pass  # slotted foreign exception: classify_exception still works
    return exc


def to_wire(exc: BaseException | ErrorCode, detail: str | None = None) -> dict[str, Any]:
    """One structured dict per error — the shape every boundary speaks.

    Stable keys: ``code`` (int), ``name``, ``category``, ``severity``,
    ``retryable``, ``type`` (the original exception class, or
    ``"ErrorCode"`` for a bare code), ``detail`` (human prose).  JSON-safe
    by construction, so the same payload serves pipes, monitor events,
    and the future network edge.

    An exception carrying a string ``trace_id`` (stamped by a traced
    network edge — see :mod:`repro.serve.obs`) additionally ships it
    under ``"trace"``, the join key between an error payload and the
    request's span dump.  The key is **only** present on traced errors,
    so the untraced payload shape above stays frozen byte-for-byte.
    """
    if isinstance(exc, ErrorCode):
        code, exc_type = exc, "ErrorCode"
        detail = detail if detail is not None else ""
        trace_id = None
    else:
        code, exc_type = classify_exception(exc), type(exc).__name__
        detail = detail if detail is not None else str(exc)
        trace_id = getattr(exc, "trace_id", None)
    wire = {
        "code": int(code),
        "name": code.name,
        "category": code.category,
        "severity": code.severity,
        "retryable": code.retryable,
        "type": exc_type,
        "detail": detail,
    }
    if isinstance(trace_id, str):
        wire["trace"] = trace_id
    return wire


def from_wire(payload: dict[str, Any]) -> CodedError:
    """Reconstruct a raisable coded exception from its wire dict.

    An unknown code number (a newer peer's vocabulary) degrades to
    :data:`ErrorCode.INTERNAL` rather than failing the decode — the
    payload's prose still reaches the operator.
    """
    try:
        code = ErrorCode(int(payload["code"]))
    except (KeyError, ValueError, TypeError):
        code = ErrorCode.INTERNAL
    detail = str(payload.get("detail", ""))
    exc_type = payload.get("type", "ErrorCode")
    message = f"{code.name}({int(code)}): {detail}" if detail else f"{code.name}({int(code)})"
    err = CodedError(message, code=code)
    err.wire_type = str(exc_type)  # type: ignore[attr-defined]
    return err
