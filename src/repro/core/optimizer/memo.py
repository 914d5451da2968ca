"""Alpha-independent search work, reusable across searches.

The memory weight ``alpha`` enters a search only in Eq. 7's
``total = latency + alpha * memory`` and in what follows from it: each
boundary class's representative and the beam.  Everything before that
point is a function of the operator type and the cluster alone, so a
process that runs many searches (the serving daemon) can keep it:

* **spaces** — per operator type, the enumerated spec space with its
  Eq. 7 latency and memory arrays and each spec's boundary class
  (:class:`~repro.core.optimizer.candidates.OperatorSpace`);
* **traffic** — per edge, the Eq. 8-9 forward + backward
  ``(intra-node, inter-node)`` element matrices between two candidate
  sets.  They depend on the sets' boundary layouts only, never on alpha
  or the profiler's fitted latency models.  A matrix repeats few values
  (an 8-device pair has under 256 distinct counts), so each is kept as
  its distinct values plus a small integer code per cell and rebuilt
  exactly on use, in about an eighth of the bytes.

Both tiers hold arrays and tuples only, never spec or boundary objects,
and both are bounded LRUs of fixed size, so a long-lived process keeps a
small, fixed memory footprint.  Keys are content-derived (type keys,
class digests), so a memo can be shared across optimizers, profilers of
the same fabric and models.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

import numpy as np

# A transformer search at one (model shape, devices, batch) setting reads
# 10 operator spaces and 16 edge matrices under 14 distinct traffic keys
# (counted for opt-6.7b, llama2-7b and bloom-7b1 at 4, 8 and 16 devices;
# opt-6.7b and bloom-7b1 share every key).  The 14 keys of an 8-device
# setting pack into 124 KB (976 KB unpacked).

#: Operator-type spaces kept: six settings.
SPACE_ENTRIES = 64
#: Edge traffic entries kept: three settings, so searches cycling through
#: opt-6.7b, llama2-7b and bloom-7b1 at one device count and batch (two
#: settings, 28 keys) hit on every edge after the first cycle.
TRAFFIC_ENTRIES = 48


class _LRU:
    """A thread-safe bounded mapping evicting the least recently used."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)


class _TrafficLRU(_LRU):
    """The traffic tier: matrix tuples stored as (distinct values, codes)."""

    def get(self, key: Hashable) -> Optional[Tuple[np.ndarray, ...]]:
        packed = super().get(key)
        if packed is None:
            return None
        return tuple(values[codes] for values, codes in packed)

    def put(self, key: Hashable, matrices: Tuple[np.ndarray, ...]) -> None:
        packed = []
        for matrix in matrices:
            values, codes = np.unique(matrix, return_inverse=True)
            dtype = np.min_scalar_type(max(len(values) - 1, 0))
            packed.append((values, codes.astype(dtype).reshape(matrix.shape)))
        super().put(key, tuple(packed))


class SearchMemo:
    """The alpha-free work of past searches: operator spaces and edge traffic.

    Each :class:`~repro.core.optimizer.strategy.PrimeParOptimizer` gets a
    fresh memo unless one is passed in; the serving daemon's
    :class:`~repro.serve.service.PlanService` keeps one for its lifetime.
    Callers compute a missing entry outside the lock, so two threads
    missing the same key may both compute it; the results are identical.

    Attributes:
        spaces: Operator-type key → ``OperatorSpace``
            (see :func:`~repro.core.optimizer.candidates.space_key`).
        traffic: Edge key → ``(intra, inter)`` element matrices
            (see :func:`~repro.core.optimizer.dp.edge_cost_matrix`).
    """

    def __init__(self) -> None:
        self.spaces = _LRU(SPACE_ENTRIES)
        self.traffic = _TrafficLRU(TRAFFIC_ENTRIES)
