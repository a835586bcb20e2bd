"""LRU prediction cache keyed on request bytes and model version.

Serving the taxonomy models means scoring a stream in which the same job
signature appears again and again (§VI.A measured ~30 % duplicate jobs on
Theta/Cori), so memoizing per-request results pays.  The key is

    (model name, model version, request kind, blake2b(dtype·shape·bytes))

— a *content* digest of the request plus the exact model version, so a
promote can never serve a stale number even before invalidation runs.
Invalidation on promote/rollback exists to reclaim memory, not for
correctness.  Cached array results are handed out read-only, matching the
registry's freeze contract.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable

import numpy as np

__all__ = ["PredictionCache", "request_digest"]


def request_digest(block: np.ndarray) -> bytes:
    """Content digest of one request block (dtype, shape, raw bytes)."""
    block = np.ascontiguousarray(block)
    h = hashlib.blake2b(digest_size=16)
    dtype = block.dtype
    # ``dtype.str`` is ~20x cheaper than ``str(dtype)``, but it reads
    # ``|V<n>`` for every structured dtype of one itemsize, so those keep
    # the full field description
    h.update((dtype.str if dtype.names is None else str(dtype)).encode())
    h.update(str(block.shape).encode())
    h.update(block.tobytes())
    return h.digest()


class PredictionCache:
    """Bounded LRU of per-request prediction results with hit/miss counters."""

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> tuple[bool, Any]:
        """(found, value); counts a hit or a miss and refreshes recency."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return True, self._data[key]
            self.misses += 1
            return False, None

    def put(self, key: Hashable, value: Any) -> None:
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)  # shared across hits, like the registry
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.evictions += 1

    def invalidate(self, name: str | None = None, version: int | None = None) -> int:
        """Drop entries for one model name (or everything); returns count.

        With ``version``, only that version's entries go — the surgical
        form ``unregister`` wants, which reclaims a dropped version's
        memory without evicting the production version's warm hits.
        """
        with self._lock:
            if name is None:
                dropped = len(self._data)
                self._data.clear()
            else:
                # only tuple keys carry a model name; foreign-keyed entries
                # (the cache is usable standalone) are never name-matched
                stale = [
                    k for k in self._data
                    if isinstance(k, tuple) and k and k[0] == name
                    and (version is None or (len(k) > 1 and k[1] == version))
                ]
                for k in stale:
                    del self._data[k]
                dropped = len(stale)
            self.invalidations += dropped
            return dropped
