"""Content-keyed, budget-bounded caching of experiment intermediates.

Every experiment module re-derives the same intermediates over and over:
table2, table3, fig3 and the ablations all synthesize the same cohort
``Record`` objects and re-train identical per-(config, subject, version)
detectors.  Both derivations are *deterministic* -- records come from a
fresh RNG keyed on (dataset seed, subject, purpose) and training re-seeds
its RNGs from the config -- so caching them is purely an optimization:
cached and uncached runs produce bit-identical results, and so do runs
whose entries were evicted and re-derived.

Keys are content keys: every knob that influences the value is part of
the key (``ExperimentConfig`` is a frozen dataclass, hence hashable).
The cache is process-local; parallel :class:`~repro.experiments.runner.
CohortRunner` workers each maintain their own.

Residency is bounded: each entry is priced by :func:`entry_cost`
(records, streams and detectors expose ``nbytes``-style costs), and when
the resident total exceeds ``max_bytes`` the least-recently-used entries
are evicted.  Long ablation sweeps therefore hold a working set instead
of every record they ever synthesized.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "EXPERIMENT_CACHE",
    "ExperimentCache",
    "cache_disabled",
    "entry_cost",
    "set_cache_budget",
]

#: Default residency budget of the process-wide cache.  Large enough that
#: quick/test configurations never evict; a full 12-subject sweep (whose
#: synthesized records alone run to hundreds of megabytes) recycles its
#: least-recently-used entries instead of growing without bound.
DEFAULT_CACHE_BYTES = 128 * 1024 * 1024


def entry_cost(value: Any) -> int:
    """Approximate resident size of a cached value, in bytes.

    Uses the value's own ``nbytes`` when it has one (NumPy arrays,
    :class:`~repro.signals.dataset.Record`,
    :class:`~repro.attacks.scenario.LabeledStream`,
    :class:`~repro.core.detector.SIFTDetector`).  Containers (dict,
    list, tuple, set) are priced by *recursing* into their members and
    summing: a shallow ``sys.getsizeof`` would bill a dict of arrays at
    ~64 B regardless of the hundreds of megabytes it pins, so budget
    eviction would never fire for composite values.  Scalars and other
    leaves fall back to ``sys.getsizeof``.  Costs are budget heuristics,
    not exact heap accounting; every entry is billed at least one byte
    so unpriceable values still count toward the budget.
    """
    return max(1, _cost(value, set()))


def _cost(value: Any, seen: set[int]) -> int:
    """Recursive cost of one value; ``seen`` guards shared/cyclic refs.

    An object reachable twice is billed once -- it is resident once --
    and reference cycles terminate instead of recursing forever.
    """
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        if id(value) in seen:
            return 0
        seen.add(id(value))
        return int(nbytes)
    if isinstance(value, (str, bytes, bytearray, memoryview)):
        # Sized leaves: getsizeof is exact enough, and iterating a str
        # yields strs (infinite recursion without this case).
        return int(sys.getsizeof(value))
    if isinstance(value, (Mapping, list, tuple, set, frozenset)):
        if id(value) in seen:
            return 0
        seen.add(id(value))
        total = int(sys.getsizeof(value))  # the container's own overhead
        items: Iterable[Any]
        if isinstance(value, Mapping):
            items = (member for pair in value.items() for member in pair)
        else:
            items = iter(value)
        for member in items:
            total += _cost(member, seen)
        return total
    return int(sys.getsizeof(value))


@dataclass
class ExperimentCache:
    """An LRU memo table with hit/miss/eviction accounting.

    ``max_bytes`` bounds the resident total of entry costs (``None`` =
    unbounded).  Entries are evicted least-recently-used first; a lookup
    hit refreshes recency.  An entry whose own cost exceeds the whole
    budget is created, returned, and immediately dropped -- it would
    otherwise pin the cache at over-budget residency.
    """

    enabled: bool = True
    max_bytes: int | None = DEFAULT_CACHE_BYTES
    _store: OrderedDict[Hashable, tuple[Any, int]] = field(
        default_factory=OrderedDict
    )
    _resident_bytes: int = 0
    _hits: int = 0
    _misses: int = 0
    _evictions: int = 0

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The cached value for ``key``, creating it via ``factory``."""
        if not self.enabled:
            return factory()
        try:
            value, _ = self._store[key]
        except KeyError:
            self._misses += 1
            value = factory()
            self._insert(key, value)
        else:
            self._hits += 1
            self._store.move_to_end(key)
        return value

    def _insert(self, key: Hashable, value: Any) -> None:
        self._store[key] = (value, cost := entry_cost(value))
        self._resident_bytes += cost
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Pop LRU entries until residency fits the budget."""
        if self.max_bytes is None:
            return
        while self._resident_bytes > self.max_bytes and self._store:
            _, (_, cost) = self._store.popitem(last=False)
            self._resident_bytes -= cost
            self._evictions += 1

    def clear(self) -> None:
        """Drop all cached values and reset the statistics counters.

        Counters reset too (via :meth:`reset_stats`): sweep drivers clear
        the cache between configurations, and carrying hit/miss counts
        across a clear made ``stats()`` report stale hit rates for the
        runs that followed.
        """
        self._store.clear()
        self._resident_bytes = 0
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (cached values survive)."""
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/size/eviction/residency counters, for diagnostics.

        ``resident_bytes`` is the summed :func:`entry_cost` of live
        entries; ``max_bytes`` echoes the configured budget (-1 when
        unbounded, so the mapping stays ``dict[str, int]``).
        """
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._store),
            "evictions": self._evictions,
            "resident_bytes": self._resident_bytes,
            "max_bytes": -1 if self.max_bytes is None else int(self.max_bytes),
        }


#: The process-wide cache the pipeline helpers consult.
EXPERIMENT_CACHE = ExperimentCache()


def set_cache_budget(max_bytes: int | None) -> int | None:
    """Set the process-wide cache budget; returns the previous budget.

    ``None`` removes the bound.  Shrinking the budget evicts immediately.
    :class:`~repro.experiments.runner.CohortRunner` calls this in every
    worker process so ``--cache-budget-mb`` governs each worker's local
    cache, not just the parent's.
    """
    previous = EXPERIMENT_CACHE.max_bytes
    EXPERIMENT_CACHE.max_bytes = max_bytes
    EXPERIMENT_CACHE._evict_over_budget()
    return previous


class cache_disabled:
    """Context manager: run a block with the experiment cache bypassed."""

    def __enter__(self) -> ExperimentCache:
        self._was_enabled = EXPERIMENT_CACHE.enabled
        EXPERIMENT_CACHE.enabled = False
        return EXPERIMENT_CACHE

    def __exit__(self, *exc_info) -> None:
        EXPERIMENT_CACHE.enabled = self._was_enabled
