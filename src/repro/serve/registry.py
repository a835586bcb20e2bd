"""Versioned model registry with freeze-on-register and staged rollout.

The serving layer never mutates a model and never lets anyone else mutate
one either: :func:`freeze_arrays` walks every ndarray an estimator owns
(tree node arrays, packed-arena arrays, binner edges, scaler statistics)
and marks it read-only.  Immutability is what makes the rest of the stack
safe — the :mod:`repro.ml.binning` identity-keyed LRU requires frozen
arrays to rule out staleness, the micro-batcher can score one model from
many threads without locks, and a registered version can be promoted or
rolled back at any time knowing it is exactly the artifact that was
validated.

Rollout is staged: :meth:`ModelRegistry.register` only stores a version;
traffic moves when :meth:`~ModelRegistry.promote` points the production
alias at it.  Promotions push the previous production version onto a
history stack, so :meth:`~ModelRegistry.rollback` is O(1) and loses
nothing.  Listeners (the prediction cache) are notified on every stage
change.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.serve.errors import ErrorCode, coded

__all__ = ["ModelRegistry", "ModelVersion", "ReferenceSnapshot", "freeze_arrays"]


def freeze_arrays(obj: Any) -> int:
    """Recursively mark every ndarray reachable from ``obj`` read-only.

    Walks attribute dicts of repro-owned objects (estimators, tree nodes,
    packs, binners) plus plain containers; foreign objects are left alone
    so the walk stays bounded.  Returns the number of arrays frozen.
    Freezing is idempotent and never copies.
    """
    frozen = 0
    seen: set[int] = set()
    stack = [obj]
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        if isinstance(cur, np.ndarray):
            if cur.flags.writeable:
                cur.setflags(write=False)
                frozen += 1
        elif isinstance(cur, dict):
            stack.extend(cur.values())
        elif isinstance(cur, (list, tuple, set)):
            stack.extend(cur)
        elif type(cur).__module__.startswith("repro") and hasattr(cur, "__dict__"):
            stack.extend(vars(cur).values())
    return frozen


def _refuse_fit(*_a: Any, **_k: Any) -> None:
    """Module-level ``fit`` replacement for registered models.

    Lives at module scope (not as a closure inside :func:`_seal_fit`) so a
    sealed model stays picklable — snapshot/shard workflows serialize
    registered versions, and pickle resolves this sentinel by qualified
    name where a closure would fail the whole dump.
    """
    raise RuntimeError(
        "model is registered and immutable — refit a clone(), then "
        "register it as a new version"
    )


def _seal_fit(model: Any) -> None:
    """Make ``fit`` on a registered model raise instead of silently
    rebinding fresh arrays past the frozen ones.

    ``freeze_arrays`` protects the arrays a version holds *now*; a refit
    would swap in brand-new trees/binner under the registered version —
    and the version-keyed prediction cache would keep serving pre-refit
    numbers for it.  Shadow the instance's ``fit`` so the mistake fails
    loudly; train a :func:`repro.ml.base.clone` instead.  Best-effort: a
    model without a settable attribute dict keeps its fit.
    """
    if not callable(getattr(model, "fit", None)):
        return
    try:
        model.fit = _refuse_fit
    except AttributeError:
        pass


@dataclass(frozen=True)
class ModelVersion:
    """One immutable registry entry."""

    name: str
    version: int
    model: Any
    n_frozen_arrays: int


@dataclass(frozen=True)
class ReferenceSnapshot:
    """Frozen training-reference sample the monitoring plane scores against.

    ``X`` is a feature sample drawn from the corpus the production model
    was fitted on — the baseline for windowed PSI/KS on the live request
    stream.  ``eu`` is an optional epistemic-uncertainty sample over the
    same corpus (see :func:`repro.ml.uncertainty.epistemic_sample`): the
    quantiles novel jobs are tagged against, per the paper's AU/EU split.
    Both arrays are stored read-only, like every other registered
    artifact, and ride :meth:`ModelRegistry.snapshot` so shard replicas
    monitor against the same baseline as the parent.
    """

    X: np.ndarray
    eu: np.ndarray | None = None
    names: tuple[str, ...] | None = None


@dataclass
class _Entry:
    versions: dict[int, ModelVersion] = field(default_factory=dict)
    next_version: int = 1
    production: int | None = None
    history: list[int] = field(default_factory=list)  # previous production versions
    reference: ReferenceSnapshot | None = None


class ModelRegistry:
    """Thread-safe store of fitted estimators under versioned names.

    ``register`` freezes the model (see :func:`freeze_arrays`) and, when
    the estimator has a lazy packed arena, builds it eagerly so serving
    threads never race on first-use construction.  ``promote``/``rollback``
    move the production alias; listeners registered via ``add_listener``
    are called as ``fn(name, version, action)`` after every stage change
    (``promote``, ``rollback``, ``unregister``) — the prediction cache
    uses this to invalidate.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        self._listeners: list[Callable[[str, int, str], None]] = []

    # ------------------------------------------------------------------ #
    def register(
        self, name: str, model: Any, promote: bool = False, version: int | None = None
    ) -> int:
        """Store ``model`` under ``name``; returns the new version number.

        The model must already be fitted (it needs a ``predict``); the
        registry takes ownership — every array it holds becomes read-only.
        ``version`` pins an explicit number instead of the next sequential
        one — the shard-replication path uses this so every worker's
        replica files a broadcast model under exactly the version the
        parent assigned (``next_version`` advances past the pin).
        """
        if not callable(getattr(model, "predict", None)):
            raise coded(TypeError(f"model {type(model).__name__} has no predict()"),
                        ErrorCode.INVALID_MUTATION)
        ensure = getattr(model, "_ensure_pack", None)
        if callable(ensure):
            ensure()  # pre-warm the arena before it is frozen and shared
        n_frozen = freeze_arrays(model)
        _seal_fit(model)
        with self._lock:
            entry = self._entries.setdefault(name, _Entry())
            if version is None:
                version = entry.next_version
            elif version in entry.versions:
                raise coded(ValueError(f"{name!r} already has a version {version}"),
                            ErrorCode.INVALID_MUTATION)
            elif version < 1:
                raise coded(ValueError("version must be >= 1"),
                            ErrorCode.INVALID_MUTATION)
            entry.next_version = max(entry.next_version, version + 1)
            entry.versions[version] = ModelVersion(name, version, model, n_frozen)
        if promote:
            self.promote(name, version)
        return version

    def promote(self, name: str, version: int) -> None:
        """Point production traffic for ``name`` at ``version``."""
        with self._lock:
            entry = self._get_entry(name)
            if version not in entry.versions:
                raise coded(LookupError(f"{name!r} has no version {version}"),
                            ErrorCode.UNKNOWN_VERSION)
            if entry.production == version:
                return
            if entry.production is not None:
                entry.history.append(entry.production)
            entry.production = version
        self._notify(name, version, "promote")

    def rollback(self, name: str) -> int:
        """Revert ``name`` to the previous production version; returns it."""
        with self._lock:
            entry = self._get_entry(name)
            if not entry.history:
                raise coded(
                    LookupError(f"{name!r} has no previous production version"),
                    ErrorCode.INVALID_MUTATION,
                )
            version = entry.history.pop()
            entry.production = version
        self._notify(name, version, "rollback")
        return version

    def unregister(self, name: str, version: int) -> None:
        """Drop a retired version so continuous retrain loops don't leak.

        The production version is refused (promote or rollback away from
        it first); the dropped version also leaves the rollback history.
        Listeners are notified with action ``"unregister"`` — the
        prediction cache reclaims the dropped version's entries, which
        would otherwise linger until LRU eviction in exactly the
        continuous-retrain loops this method exists for.
        """
        with self._lock:
            entry = self._get_entry(name)
            if version not in entry.versions:
                raise coded(LookupError(f"{name!r} has no version {version}"),
                            ErrorCode.UNKNOWN_VERSION)
            if entry.production == version:
                raise coded(
                    ValueError(f"cannot unregister production version {version} of {name!r}"),
                    ErrorCode.INVALID_MUTATION,
                )
            del entry.versions[version]
            entry.history = [v for v in entry.history if v != version]
        self._notify(name, version, "unregister")

    # ------------------------------------------------------------------ #
    def set_reference(
        self,
        name: str,
        X: np.ndarray,
        eu: np.ndarray | None = None,
        names: list[str] | None = None,
    ) -> ReferenceSnapshot:
        """Attach a training-reference snapshot to a registered name.

        The monitor plane scores the name's live request stream against
        this baseline (windowed PSI/KS over ``X``, EU quantiles over
        ``eu``).  Arrays are privately copied and frozen read-only — a
        reference is as immutable as the model it describes.  Listeners
        are notified with action ``"set_reference"`` (version 0, there is
        no version to carry): a sharded cluster uses this to broadcast
        the new baseline to every worker replica.
        """
        X = np.array(X, dtype=float)
        if X.ndim != 2:
            raise coded(ValueError(f"reference X must be 2-D, got ndim={X.ndim}"),
                        ErrorCode.MALFORMED_REQUEST)
        X.setflags(write=False)
        if eu is not None:
            eu = np.array(eu, dtype=float).ravel()
            eu.setflags(write=False)
        ref = ReferenceSnapshot(
            X=X, eu=eu, names=tuple(names) if names is not None else None
        )
        with self._lock:
            self._get_entry(name).reference = ref
        self._notify(name, 0, "set_reference")
        return ref

    def get_reference(self, name: str) -> ReferenceSnapshot | None:
        """The name's training-reference snapshot, or ``None`` if unset."""
        with self._lock:
            return self._get_entry(name).reference

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Picklable replica of the whole registry state.

        Maps each name to its models (by version), the production alias,
        the rollback history, the version counter and the reference —
        everything :meth:`restore` needs to rebuild an exact replica in
        another process.  Models are the registered (frozen, fit-sealed)
        objects themselves, not copies, and the dict holds no lock, so a
        forked process can inherit it as is.  It also pickles, for a
        ``spawn`` start: :func:`_seal_fit` installs a module-level
        sentinel rather than a closure.
        """
        with self._lock:
            return {
                name: {
                    "models": {v: mv.model for v, mv in entry.versions.items()},
                    "production": entry.production,
                    "history": list(entry.history),
                    "next_version": entry.next_version,
                    "reference": entry.reference,
                }
                for name, entry in self._entries.items()
            }

    def restore(self, state: dict[str, dict[str, Any]]) -> None:
        """Rebuild a :meth:`snapshot` into this (fresh) registry.

        Every model goes back through the full :meth:`register` path.
        A snapshot that crossed a pickle (a ``spawn`` start) has lost
        NumPy's read-only flag, so the freeze/seal/pack warm-up must run
        again for the immutability contract to hold in the restored
        process; on an inherited (``fork``) snapshot the models are
        already frozen, sealed and packed, and the same path is an
        idempotent no-op.  Stage aliases are reinstated directly (no
        listener notifications: a restore is initial state, not a stage
        *change*).  Only meaningful on an empty registry — pinned version
        numbers collide otherwise.
        """
        for name, entry_state in state.items():
            for version in sorted(entry_state["models"]):
                self.register(name, entry_state["models"][version], version=version)
            with self._lock:
                entry = self._entries.setdefault(name, _Entry())
                entry.production = entry_state["production"]
                entry.history = list(entry_state["history"])
                entry.next_version = max(entry.next_version, entry_state["next_version"])
            reference = entry_state.get("reference")
            if reference is not None:
                # after the entry exists (a snapshot may carry a reference
                # with zero versions — every version unregistered after
                # set_reference).  A pickled snapshot has lost the
                # read-only flag, same as the models — re-enter through
                # set_reference so the restored arrays are frozen
                # (restore is initial state: pre-restore listeners on a
                # fresh registry are by construction none)
                self.set_reference(
                    name, reference.X, eu=reference.eu,
                    names=list(reference.names) if reference.names else None,
                )

    # ------------------------------------------------------------------ #
    def get(self, name: str, version: int | None = None) -> Any:
        """The production model for ``name`` (or a specific version)."""
        return self.get_version(name, version).model

    def get_version(self, name: str, version: int | None = None) -> ModelVersion:
        with self._lock:
            entry = self._get_entry(name)
            if version is None:
                if entry.production is None:
                    raise coded(
                        LookupError(f"{name!r} has no production version (promote one)"),
                        ErrorCode.NO_PRODUCTION,
                    )
                version = entry.production
            if version not in entry.versions:
                raise coded(LookupError(f"{name!r} has no version {version}"),
                            ErrorCode.UNKNOWN_VERSION)
            return entry.versions[version]

    def production_version(self, name: str) -> int:
        return self.get_version(name).version

    def versions(self, name: str) -> list[int]:
        with self._lock:
            return sorted(self._get_entry(name).versions)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def add_listener(self, fn: Callable[[str, int, str], None]) -> None:
        with self._lock:
            self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[str, int, str], None]) -> None:
        """Deregister a listener (no-op when absent) — services call this
        on close so a long-lived registry never accumulates dead callbacks."""
        with self._lock:
            try:
                self._listeners.remove(fn)
            except ValueError:
                pass

    # ------------------------------------------------------------------ #
    def _get_entry(self, name: str) -> _Entry:
        entry = self._entries.get(name)
        if entry is None:
            raise coded(LookupError(f"unknown model name {name!r}"),
                        ErrorCode.UNKNOWN_MODEL)
        return entry

    def _notify(self, name: str, version: int, action: str) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for fn in listeners:
            fn(name, version, action)
