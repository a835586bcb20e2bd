"""The monitoring plane: one tap wiring profiles, taps, shadows, policy.

:class:`MonitoringPlane` implements the serve layer's tap protocol
(:meth:`~repro.serve.router.ServingGateway.add_tap`) and multiplexes it
across per-name monitor state:

* every submitted row lands in the name's
  :class:`~repro.serve.monitor.profile.StreamProfile` (windowed PSI/KS
  against the registry's reference snapshot),
* every scored ``predict_dist`` result feeds the
  :class:`~repro.serve.monitor.uncertainty.UncertaintyTap` (per-job
  novelty tags + windowed EU quantiles),
* every scored ``predict`` result is offered to the name's
  :class:`~repro.serve.monitor.shadow.ShadowScorer` (champion–challenger
  mirroring), and
* every ``eval_every`` observations the
  :class:`~repro.serve.monitor.policy.PolicyEngine` runs the name's
  rules and executes what they return.

Contracts (test-enforced):

* **observational** — the plane never touches tickets, values, or queue
  order; monitored serving is ``np.array_equal`` to unmonitored serving.
  Tap exceptions never escape (the gateway swallows and counts them).
* **bounded memory** — ring-buffer windows, bounded event deque.
* **deterministic** — evaluation cadence counts observations (not wall
  time); the injected clock only stamps events and drives cooldowns, so
  tests replay exact trajectories.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import numpy as np

from repro.serve.errors import ErrorCode, coded
from repro.serve.monitor.policy import NameState, PolicyEngine
from repro.serve.monitor.profile import StreamProfile
from repro.serve.monitor.shadow import ShadowScorer
from repro.serve.monitor.uncertainty import UncertaintyTap
from repro.serve.registry import ModelRegistry

__all__ = ["MonitoringPlane"]


class _NameMonitor:
    """Per-name monitor state (guarded by the plane's lock)."""

    __slots__ = ("profile", "tap", "shadow", "observed", "next_eval_at")

    def __init__(self, profile: StreamProfile | None, tap: UncertaintyTap | None,
                 eval_every: int):
        self.profile = profile
        self.tap = tap
        self.shadow: ShadowScorer | None = None
        # request tally driving the sample stride (and, with no profile,
        # the eval cadence); racing increments may drop a count, which
        # only jitters the stride — monitoring accuracy, not correctness
        self.observed = 0
        self.next_eval_at = eval_every


class MonitoringPlane:
    """Attachable, per-name online monitor over a gateway or cluster.

    Parameters
    ----------
    registry:
        Source of reference snapshots and target of policy actions.
    clock:
        Monotonic time source (inject a fake for deterministic tests).
    window, min_window, n_bins:
        Defaults for each watched name's :class:`StreamProfile` and
        :class:`UncertaintyTap` windows.
    eval_every:
        Policy evaluation cadence in *observations per name* — counting
        requests instead of seconds keeps detection deterministic for a
        given stream.
    sample:
        Deterministic profiling stride: every ``sample``-th request per
        name feeds the drift profile (1 = every request).  A windowed PSI
        over a strided sample of the stream estimates the same population
        — the standard dial for keeping monitor cost flat as request
        rates grow.  EU/shadow observation is unaffected.
    cooldown_s, max_events:
        Forwarded to the :class:`PolicyEngine`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        clock: Callable[[], float] = time.monotonic,
        window: int = 512,
        min_window: int = 64,
        n_bins: int = 10,
        eval_every: int = 64,
        sample: int = 1,
        cooldown_s: float = 30.0,
        max_events: int = 1024,
    ):
        if eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if sample < 1:
            raise ValueError("sample must be >= 1")
        self.registry = registry
        self.policy = PolicyEngine(
            registry, clock=clock, cooldown_s=cooldown_s, max_events=max_events
        )
        self.window = int(window)
        self.min_window = int(min_window)
        self.n_bins = int(n_bins)
        self.eval_every = int(eval_every)
        self.sample = int(sample)
        self._monitors: dict[str, _NameMonitor] = {}
        self._lock = threading.Lock()
        self._attached: list[Any] = []

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def watch(
        self,
        name: str,
        reference: np.ndarray | None = None,
        reference_eu: np.ndarray | None = None,
        names: list[str] | None = None,
    ) -> None:
        """Start monitoring one served name.

        Without explicit arrays the reference comes from the registry's
        :meth:`~repro.serve.registry.ModelRegistry.set_reference` snapshot
        — the normal production path, where the training pipeline files
        the baseline next to the model it describes.  A name with neither
        is refused: a drift monitor without a reference has nothing to
        drift *from*.
        """
        ref = None if reference is not None else self.registry.get_reference(name)
        if reference is None and ref is not None:
            reference = ref.X
            names = list(ref.names) if (names is None and ref.names) else names
            reference_eu = ref.eu if reference_eu is None else reference_eu
        profile = None
        if reference is not None:
            profile = StreamProfile(
                reference, names=names, window=self.window,
                min_window=self.min_window, n_bins=self.n_bins,
            )
        tap = None
        if reference_eu is not None:
            tap = UncertaintyTap(reference_eu, window=self.window)
        if profile is None and tap is None:
            raise coded(
                ValueError(
                    f"no reference for {name!r}: pass reference=/reference_eu= "
                    f"or call registry.set_reference(name, ...) first"
                ),
                ErrorCode.REFERENCE_MISSING,
            )
        with self._lock:
            old = self._monitors.get(name)
            self._monitors[name] = _NameMonitor(profile, tap, self.eval_every)
        old_consumed = old is not None and (
            old.tap is not None or old.shadow is not None
        )
        if (tap is not None) != old_consumed:
            # result consumption changed in either direction — a re-watch
            # can also RETIRE an EU tap/shadow, and the front doors must
            # stop paying the per-ticket dispatch for it
            self._reattach()

    def unwatch(self, name: str) -> None:
        with self._lock:
            monitor = self._monitors.pop(name, None)
        if monitor is not None and (monitor.tap is not None or monitor.shadow is not None):
            self._reattach()  # maybe the last result consumer just left

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._monitors)

    def shadow(
        self,
        name: str,
        challenger_version: int,
        fraction: float = 0.25,
        shadow_window: int = 256,
        min_outcomes: int = 32,
    ) -> ShadowScorer:
        """Shadow-score a staged version under the name's live traffic.

        Reference lifecycle: a challenger retrained *because the stream
        drifted* should arrive together with a refreshed reference —
        ``registry.set_reference`` with the new training corpus, then
        re-``watch`` the name (which also resets the drift window).  A
        drift rule left armed with the old model's reference keeps
        scoring the new regime as drifted and, once its cooldown lapses,
        will roll back the very promotion the shadow just validated.
        """
        scorer = ShadowScorer(
            self.registry, name, challenger_version,
            fraction=fraction, window=shadow_window, min_outcomes=min_outcomes,
        )
        with self._lock:
            monitor = self._monitors.get(name)
            if monitor is None:
                raise LookupError(f"{name!r} is not watched (call watch first)")
            monitor.shadow = scorer
        self._reattach()  # the front doors must start delivering results
        return scorer

    def unshadow(self, name: str) -> None:
        had_shadow = False
        with self._lock:
            monitor = self._monitors.get(name)
            if monitor is not None:
                had_shadow = monitor.shadow is not None
                monitor.shadow = None
        if had_shadow:
            self._reattach()  # maybe the last result consumer just left

    def add_rule(self, rule: Any, names: list[str] | None = None) -> None:
        self.policy.add_rule(rule, names=names)

    def attach(self, front: Any) -> "MonitoringPlane":
        """Hook into a gateway or cluster front door (``add_tap``)."""
        front.add_tap(self)
        self._attached.append(front)
        return self

    def detach(self) -> None:
        for front in self._attached:
            try:
                front.remove_tap(self)
            except Exception:
                pass
        self._attached.clear()

    def wants_results(self) -> bool:
        """Whether any watched name consumes scored results (EU tap or
        shadow).  A drift-only plane returns False and the gateway then
        skips the per-ticket result dispatch for it entirely."""
        with self._lock:
            return any(
                m.tap is not None or m.shadow is not None
                for m in self._monitors.values()
            )

    def _reattach(self) -> None:
        # result-consumption may have changed (a shadow arrived, an EU tap
        # appeared with a new watch) — have every front door rebuild its
        # dispatch views
        for front in list(self._attached):
            try:
                front.remove_tap(self)
                front.add_tap(self)
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # tap protocol (called by the gateway/cluster; must never raise into
    # the serving path — the callers swallow, but stay cheap regardless)
    # ------------------------------------------------------------------ #
    def on_request(self, name: str, row: np.ndarray, kind: str) -> None:
        # serving hot path: every gateway submission passes through here,
        # and the ≤5% overhead contract is enforced by benchmarks/bench_serve.py
        # — keep this to one dict probe, one ring write, one counter
        monitor = self._monitors.get(name)
        if monitor is None:
            return
        profile = monitor.profile
        if profile is not None:
            monitor.observed += 1
            if self.sample > 1 and monitor.observed % self.sample:
                return  # strided out of the profile sample
            # copy=False: the gateway/cluster tap contract hands us rows
            # that are private to the serving stack (the ticket's block)
            profile.observe(row, copy=False)
            seen = profile.n_observed
        else:
            monitor.observed += 1 if np.ndim(row) == 1 else int(np.shape(row)[0])
            seen = monitor.observed
        if seen < monitor.next_eval_at:  # common path: one int compare, no lock
            return
        with self._lock:
            if seen < monitor.next_eval_at:  # another submitter took this slot
                return
            monitor.next_eval_at = seen + self.eval_every
        # policy actions (rollback broadcast, cache invalidation) run
        # outside the plane lock so concurrent submitters keep observing
        self.evaluate(name)

    def on_result(self, name: str, kind: str, block: np.ndarray, value: Any) -> None:
        monitor = self._monitors.get(name)
        if monitor is None:
            return
        tap = monitor.tap
        if tap is not None and kind == "predict_dist":
            _, var = value
            with self._lock:
                tap.observe(np.sqrt(np.maximum(np.atleast_1d(
                    np.asarray(var, dtype=float)), 0.0)))
        shadow = monitor.shadow
        if shadow is not None:
            shadow.on_result(kind, block, value)

    # ------------------------------------------------------------------ #
    # feedback + evaluation
    # ------------------------------------------------------------------ #
    def record_outcome(self, name: str, row: np.ndarray, outcome: float) -> None:
        """Ground-truth feedback for the name's shadow comparison."""
        with self._lock:
            monitor = self._monitors.get(name)
            shadow = monitor.shadow if monitor is not None else None
        if shadow is not None:
            shadow.record_outcome(row, outcome)

    def state(self, name: str) -> NameState:
        with self._lock:
            monitor = self._monitors.get(name)
            if monitor is None:
                raise LookupError(f"{name!r} is not watched")
            return NameState(
                name=name, registry=self.registry,
                profile=monitor.profile, tap=monitor.tap, shadow=monitor.shadow,
            )

    def evaluate(self, name: str | None = None) -> list[Any]:
        """Run the policy now for one name (or every watched name)."""
        names = [name] if name is not None else self.names()
        fired = []
        for n in names:
            try:
                state = self.state(n)
            except LookupError:
                continue
            events = self.policy.evaluate(state)
            if any(e.action == "promote" for e in events):
                # the challenger IS production now — the comparison is
                # settled, and a lingering shadow would re-fire forever
                self.unshadow(n)
            fired.extend(events)
        return fired

    @property
    def events(self):
        """The policy's bounded audit trail."""
        return self.policy.events

    # ------------------------------------------------------------------ #
    def status(self) -> dict[str, dict[str, Any]]:
        """Per-name monitoring summary for dashboards and benches."""
        out: dict[str, dict[str, Any]] = {}
        for name in self.names():
            state = self.state(name)
            entry: dict[str, Any] = {}
            if state.profile is not None:
                entry["n_observed"] = state.profile.n_observed
                entry["window_fill"] = state.profile.window_fill
                report = state.profile.drift(ks=True)
                if report is not None:
                    entry["max_psi"] = round(report.max_psi, 4)
                    entry["max_ks"] = round(report.max_ks, 4)
                    entry["worst"] = [
                        (n, round(v, 4)) for n, v in report.worst(3)
                    ]
            if state.tap is not None:
                entry["eu_observed"] = state.tap.n_observed
                entry["eu_novel"] = state.tap.n_novel
                entry["eu_novel_fraction"] = round(state.tap.novel_fraction(), 4)
            if state.shadow is not None:
                report = state.shadow.report()
                entry["shadow"] = {
                    "challenger_version": report.challenger_version,
                    "mirrored": report.mirrored,
                    "disagreement_mean": round(report.disagreement_mean, 4),
                    "n_outcomes": report.n_outcomes,
                    "champion_error": round(report.champion_error, 4),
                    "challenger_error": round(report.challenger_error, 4),
                    "challenger_wins": report.challenger_wins,
                }
            out[name] = entry
        return out
