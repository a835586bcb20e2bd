"""Aggregated serving counters, snapshotted as immutable values.

:class:`ServerStats` is one served name's point-in-time view;
:class:`GatewayStats` is the multi-model roll-up the
:class:`~repro.serve.router.ServingGateway` exposes — per-name snapshots
plus a field-wise total, so fleet dashboards and per-model debugging read
from the same object.  :class:`ClusterStats` stacks one more level: the
per-shard :class:`GatewayStats` of a
:class:`~repro.serve.shard.ShardedServingCluster`, rolled up both by name
(across shards) and into one fleet total.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

__all__ = ["ClusterStats", "GatewayStats", "ResilienceStats", "ServerStats", "sum_stats"]

# cap on a rolled-up latency sample (sum_stats concatenates per-source
# bounded rings; a wide fleet roll-up is decimated back under this, so
# the bounded-memory invariant survives aggregation at any fan-in)
_MERGED_SAMPLE_CAP = 16384


@dataclass(frozen=True)
class ServerStats:
    """One point-in-time view of a served name's traffic and cache behaviour."""

    requests: int           # submissions seen for the name (incl. cache hits)
    rows: int               # rows that reached the batcher
    batches: int            # flushes executed
    completed: int          # requests whose flush finished scoring
    size_flushes: int
    deadline_flushes: int   # deprecated: no deadline timer, always 0
    manual_flushes: int     # flush(), close() and first-waiter flushes
    abandoned: int          # deprecated: no ticket tombstones, always 0
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_invalidations: int
    cache_entries: int
    total_latency_s: float  # summed enqueue→completion time of completed requests
    # latency samples lost to ring overwrite or roll-up decimation — the
    # silent-loss satellite: eviction is counted, never invisible
    latency_dropped: int = 0
    # bounded ring of recent per-request latencies (seconds) — the sample
    # behind the tail percentiles; () on snapshots that predate the ring
    latency_samples: tuple[float, ...] = ()

    @property
    def hit_rate(self) -> float:
        seen = self.cache_hits + self.cache_misses
        return self.cache_hits / seen if seen else 0.0

    @property
    def mean_batch_rows(self) -> float:
        return self.rows / self.batches if self.batches else 0.0

    @property
    def mean_latency_ms(self) -> float:
        # total_latency_s only accumulates when a flush finishes, so the
        # denominator must be the completed count — dividing by submitted
        # requests would understate latency whenever tickets are pending
        return 1e3 * self.total_latency_s / self.completed if self.completed > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        """The ``q``-th latency percentile in ms over the bounded sample
        (0.0 with no samples — dashboards poll before traffic arrives)."""
        if not self.latency_samples:
            return 0.0
        return 1e3 * float(np.percentile(np.asarray(self.latency_samples), q))

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50.0)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99.0)

    @property
    def p999_ms(self) -> float:
        return self.percentile_ms(99.9)

    def summary(self) -> str:
        return (
            f"requests={self.requests} batches={self.batches} "
            f"(size={self.size_flushes} deadline={self.deadline_flushes} "
            f"manual={self.manual_flushes}, mean {self.mean_batch_rows:.1f} rows) "
            f"abandoned={self.abandoned} "
            f"cache hit-rate={self.hit_rate:.1%} "
            f"mean latency={self.mean_latency_ms:.2f}ms"
            + (f" p50={self.p50_ms:.2f} p99={self.p99_ms:.2f} "
               f"p999={self.p999_ms:.2f}ms" if self.latency_samples else "")
        )


def sum_stats(snapshots: Iterable[ServerStats]) -> ServerStats:
    """Counter-wise sum of snapshots (ratios recompute from the summed
    counters, so e.g. the result's ``hit_rate`` is the traffic-weighted
    aggregate rate, not a mean of per-snapshot rates).

    An empty iterable sums to the all-zero snapshot, and every ratio
    property guards its denominator — so a gateway that has served
    nothing, or a cluster whose every shard is dead, rolls up to
    well-defined 0.0 ratios instead of NaN/ZeroDivision (edge-case
    tested; dashboards poll stats long before traffic arrives)."""
    snapshots = list(snapshots)
    sums = {
        f.name: sum(getattr(s, f.name) for s in snapshots)
        for f in fields(ServerStats)
        if f.name != "latency_samples"
    }
    sums["total_latency_s"] = float(sums["total_latency_s"])
    # latency samples concatenate (each source ring is bounded, so the
    # union is the honest cross-source percentile sample), then decimate
    # by even striding when a wide fan-in would outgrow the cap — an
    # unbiased thinning that keeps the roll-up's memory bounded too
    merged: list[float] = []
    for s in snapshots:
        merged.extend(s.latency_samples)
    if len(merged) > _MERGED_SAMPLE_CAP:
        stride = -(-len(merged) // _MERGED_SAMPLE_CAP)  # ceil division
        thinned = merged[::stride]
        # decimated-away samples are dropped samples — account for them
        sums["latency_dropped"] += len(merged) - len(thinned)
        merged = thinned
    sums["latency_samples"] = tuple(merged)
    return ServerStats(**sums)


@dataclass(frozen=True)
class ResilienceStats:
    """Point-in-time view of the resilience plane's recovery work.

    Snapshotted by :meth:`repro.serve.resilience.RetryController.stats` and
    :meth:`repro.serve.resilience.ShardSupervisor.stats`; counters a field
    does not apply to are simply zero (a controller never respawns, a
    supervisor never retries requests).
    """

    submits: int = 0            # requests accepted by the retry front door
    retries: int = 0            # re-submissions performed (attempts - submits)
    recovered: int = 0          # requests that succeeded after >= 1 retry
    failed_fast: int = 0        # non-retryable coded failures (zero retries)
    exhausted: int = 0          # retryable failures that ran out of deadline
    breaker_opens: int = 0      # closed -> open transitions across all shards
    breaker_probes: int = 0     # half-open trial requests allowed through
    breaker_closes: int = 0     # half-open -> closed recoveries
    respawns: int = 0           # shard workers rebuilt by the supervisor
    respawn_failures: int = 0   # respawn attempts that raised

    def summary(self) -> str:
        return (
            f"submits={self.submits} retries={self.retries} "
            f"recovered={self.recovered} failed_fast={self.failed_fast} "
            f"exhausted={self.exhausted} breaker(open={self.breaker_opens} "
            f"probe={self.breaker_probes} close={self.breaker_closes}) "
            f"respawns={self.respawns} respawn_failures={self.respawn_failures}"
        )


@dataclass(frozen=True)
class GatewayStats:
    """Per-name snapshots plus their field-wise aggregate."""

    per_name: dict[str, ServerStats]
    # monitoring-tap exceptions swallowed by this gateway (observational
    # failures must not fail requests, but they must not vanish either)
    tap_errors: int = 0

    @property
    def total(self) -> ServerStats:
        return sum_stats(self.per_name.values())

    def summary(self) -> str:
        lines = [f"{name}: {s.summary()}" for name, s in sorted(self.per_name.items())]
        lines.append(
            f"TOTAL ({len(self.per_name)} models): {self.total.summary()} "
            f"tap_errors={self.tap_errors}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class ClusterStats:
    """Per-shard gateway snapshots plus cross-shard roll-ups.

    ``per_shard`` keys are shard ids (dead shards simply have no entry);
    ``per_name`` merges each name's counters across every shard that
    served it — under hash routing a name normally lives on one shard,
    under replication on all of them — and ``total`` is the whole fleet.
    """

    per_shard: dict[int, GatewayStats]
    # the parent cluster's own tap failures (shard-local ones live on the
    # per-shard GatewayStats; tap_errors_total folds both levels)
    tap_errors: int = 0
    # deprecated, always 0: work stealing was removed; the field stays
    # because the frozen metric repro_cluster_steals_total reads it
    steals: int = 0

    @property
    def per_name(self) -> dict[str, ServerStats]:
        merged: dict[str, list[ServerStats]] = {}
        for gw in self.per_shard.values():
            for name, snap in gw.per_name.items():
                merged.setdefault(name, []).append(snap)
        return {name: sum_stats(snaps) for name, snaps in merged.items()}

    @property
    def total(self) -> ServerStats:
        return sum_stats(gw.total for gw in self.per_shard.values())

    @property
    def tap_errors_total(self) -> int:
        """Tap failures across every rollup level: the parent cluster's
        own plus each shard gateway's."""
        return self.tap_errors + sum(gw.tap_errors for gw in self.per_shard.values())

    def summary(self) -> str:
        lines = [
            f"shard {sid}: {gw.total.summary()} tap_errors={gw.tap_errors}"
            for sid, gw in sorted(self.per_shard.items())
        ]
        lines.append(
            f"CLUSTER ({len(self.per_shard)} shards, "
            f"{len(self.per_name)} names): {self.total.summary()} "
            f"steals={self.steals} tap_errors={self.tap_errors_total}"
        )
        return "\n".join(lines)
