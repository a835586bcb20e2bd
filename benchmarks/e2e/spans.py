"""Span statistics for the traced run: duration and self time per stage.

Spans come from ``ShardedServingCluster.trace_spans()`` — the parent's
tracer (shared with the edge) merged with every worker's.  Timestamps
are per-process clocks, so spans are only compared within one
``(pid, trace id)`` group.  Within a group, span B is a child of span A
when B starts inside A (later than A, or at the same time but ending
earlier); A's self time is its duration minus the part of it covered by
its children.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

import numpy as np

PAIRS = (
    ("edge", "parse"), ("edge", "admission"), ("edge", "respond"),
    ("gateway", "route"),
    ("batcher", "queue_wait"), ("batcher", "flush"), ("batcher", "score"),
    ("cluster", "route"), ("cluster", "transport"),
    ("worker", "respond"),
    ("resilience", "retry"),
)


def _self_time(span: dict[str, Any], group: list[dict[str, Any]]) -> float:
    start, end = span["start"], span["end"]
    covered = []
    for other in group:
        if other is span or not (start <= other["start"] < end):
            continue
        if other["start"] == start and other["end"] >= end:
            continue  # same start, not shorter: a sibling or the parent
        covered.append((other["start"], min(other["end"], end)))
    busy = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(covered):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                busy += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        busy += cur_hi - cur_lo
    return (end - start) - busy


def stage_stats(spans: list[dict[str, Any]]) -> dict[tuple[str, str], dict[str, float]]:
    """``{(component, stage): {count, p50_ms, p99_ms, self_p50_ms}}``."""
    groups: dict[tuple[Any, str], list[dict[str, Any]]] = defaultdict(list)
    for s in spans:
        groups[(s.get("pid"), s["trace"])].append(s)
    dur: dict[tuple[str, str], list[float]] = defaultdict(list)
    own: dict[tuple[str, str], list[float]] = defaultdict(list)
    for group in groups.values():
        for s in group:
            key = (s["component"], s["stage"])
            dur[key].append(s["end"] - s["start"])
            own[key].append(_self_time(s, group))
    out = {}
    for key in PAIRS:
        d = np.asarray(dur.get(key, []), dtype=float) * 1e3
        o = np.asarray(own.get(key, []), dtype=float) * 1e3
        out[key] = {
            "count": int(d.size),
            "p50_ms": float(np.percentile(d, 50)) if d.size else float("nan"),
            "p99_ms": float(np.percentile(d, 99)) if d.size else float("nan"),
            "self_p50_ms": float(np.percentile(o, 50)) if o.size else float("nan"),
        }
    return out
