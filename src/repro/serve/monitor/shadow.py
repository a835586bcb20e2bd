"""Champion–challenger shadow scoring over the registry's staged versions.

The registry's staged rollout (register → promote) assumes somebody
validated the staged version before traffic moved.  :class:`ShadowScorer`
is that somebody, online: it mirrors a deterministic fraction of the
production stream against a *staged* (non-production) version and keeps
two windowed signals —

* **disagreement** — |production − challenger| per mirrored request,
  available immediately and label-free (a challenger that answers wildly
  differently deserves scrutiny before any error number exists), and
* **windowed error** — |prediction − outcome| for each side on the rows
  whose ground truth has arrived (HPC I/O throughput labels land in
  hindsight, when the job's Darshan log is processed).

The challenger never *changes* the serving path: mirrored rows are
rescored against the frozen staged artifact (registered models are
immutable and lock-free to score), so production numbers stay
bit-identical whether or not a shadow runs.  It does *cost* the serving
path compute, though — the mirror runs inside the flush's result hook,
so a mirrored request's challenger predict happens on the scoring thread
before its ticket completes.  ``fraction`` is the dial: it bounds the
extra scoring to ``fraction`` of production volume (an async mirror that
moves this off the flush thread is a ROADMAP follow-up).  A
:class:`~repro.serve.monitor.policy.ShadowWinnerRule` promotes the
challenger only when its windowed error beats production's with enough
labeled evidence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.serve.monitor.ring import ScalarWindow
from repro.serve.registry import ModelRegistry

__all__ = ["ShadowReport", "ShadowScorer"]


@dataclass(frozen=True)
class ShadowReport:
    """Point-in-time champion–challenger comparison."""

    name: str
    challenger_version: int
    mirrored: int            # production requests rescored by the challenger
    disagreement_mean: float  # windowed mean |production - challenger|
    n_outcomes: int          # labeled rows scored so far
    champion_error: float    # windowed mean |champion - outcome|
    challenger_error: float  # windowed mean |challenger - outcome|
    min_outcomes: int

    @property
    def challenger_wins(self) -> bool:
        """True iff the challenger's windowed error beats production's,
        with at least ``min_outcomes`` labeled rows of evidence."""
        return (
            self.n_outcomes >= self.min_outcomes
            and self.challenger_error < self.champion_error
        )


class ShadowScorer:
    """Mirror a fraction of one name's production traffic to a staged version.

    Parameters
    ----------
    registry, name:
        The registry and served name; the champion is whatever version is
        *production at observation time* (a promote mid-shadow is scored
        as the traffic actually was).
    challenger_version:
        The staged version under evaluation.  Must exist; may not be the
        production version (shadowing production against itself measures
        nothing).
    fraction:
        Target share of production requests to mirror.  Mirroring is
        deterministic — every ``round(1/fraction)``-th observed request —
        so two identical streams shadow identically (no RNG in the
        serving path).
    window:
        Ring-buffer size for each windowed signal.
    min_outcomes:
        Labeled rows required before :attr:`ShadowReport.challenger_wins`
        may be true.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        name: str,
        challenger_version: int,
        fraction: float = 0.25,
        window: int = 256,
        min_outcomes: int = 32,
    ):
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.registry = registry
        self.name = name
        self.challenger_version = int(challenger_version)
        # resolve now: a missing version must fail at shadow setup, not on
        # the first mirrored request inside a tap (where errors are muted)
        self._challenger = registry.get(name, self.challenger_version)
        if registry.production_version(name) == self.challenger_version:
            raise ValueError(
                f"version {challenger_version} of {name!r} is already production"
            )
        self.stride = max(1, round(1.0 / float(fraction)))
        self.min_outcomes = int(min_outcomes)
        self._seen = 0
        # guards the counters/windows: concurrent flushes may observe at
        # once.  Scoring itself stays outside the lock — registered models
        # are frozen and lock-free to predict with
        self._lock = threading.Lock()
        self._disagreement = ScalarWindow(window)
        self._champion_err = ScalarWindow(window)
        self._challenger_err = ScalarWindow(window)

    # ------------------------------------------------------------------ #
    def on_result(self, kind: str, block: np.ndarray, value) -> None:
        """Observe one scored production request; maybe mirror it.

        ``block``/``value`` are exactly what the gateway scored and
        returned.  Only ``predict`` traffic mirrors (a mean/variance pair
        has no single number to disagree about).
        """
        if kind != "predict":
            return
        with self._lock:
            seen = self._seen
            self._seen = seen + 1
        if seen % self.stride != 0:
            return
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            block = block[None, :]
        challenger_pred = np.asarray(self._challenger.predict(block), dtype=float)
        production_pred = np.atleast_1d(np.asarray(value, dtype=float))
        deltas = np.abs(production_pred - challenger_pred)
        with self._lock:
            self._disagreement.push_many(deltas)

    def record_outcome(self, row: np.ndarray, outcome: float) -> None:
        """Feed one labeled row (ground truth arrived in hindsight).

        Champion (current production) and challenger both score the row;
        their absolute errors extend the windowed error signals.  Label
        feedback is independent of the mirroring stride — every label is
        evidence, however sparse the mirror."""
        arr = np.asarray(row, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        champ = float(self.registry.get(self.name).predict(arr)[0])
        chall = float(self._challenger.predict(arr)[0])
        outcome = float(outcome)
        with self._lock:
            self._champion_err.push(abs(champ - outcome))
            self._challenger_err.push(abs(chall - outcome))

    # ------------------------------------------------------------------ #
    def report(self) -> ShadowReport:
        with self._lock:
            return ShadowReport(
                name=self.name,
                challenger_version=self.challenger_version,
                mirrored=self._disagreement.n_total,
                disagreement_mean=self._disagreement.mean(),
                n_outcomes=self._champion_err.n_total,
                champion_error=self._champion_err.mean(),
                challenger_error=self._challenger_err.mean(),
                min_outcomes=self.min_outcomes,
            )
