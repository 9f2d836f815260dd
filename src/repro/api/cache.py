"""Fingerprint-keyed result cache for the serving tier.

Interactive traffic repeats itself: the same boost/seed/eval queries are
issued again and again against a slowly-changing graph.  A
:class:`ResultCache` makes the repeat near-free by memoizing whole
:class:`~repro.api.result.QueryResult` envelopes, keyed on

``(query fingerprint, graph version, model, rng_seed)``

* the **fingerprint** already binds algorithm, parameters, budget
  (minus the ``workers`` execution hint), diffusion model, RNG seed and
  the graph's probability signature, so it is the semantic identity of
  the query,
* the **graph version** (:attr:`repro.graphs.DiGraph.version`) is the
  invalidation signal: any in-place probability update bumps it and
  every cached entry for the old graph silently becomes unreachable.

Worker and host counts are not in the key: every sample is drawn from
the query's RNG, so they change where an answer is computed, never the
answer.  An entry cached at ``workers=1`` serves the same query at
``workers=2`` or in a ``hosts=`` session.

Only queries with an explicit ``rng_seed`` are cacheable: without one
the query consumes ambient entropy and two runs are *supposed* to
differ.  Entries are bounded LRU; hits move an entry to the back, and
inserting past ``capacity`` evicts the front.  Hit/miss/eviction
counters are exposed for the serving front end's ``/stats``.

The cache stores (and returns) the original ``QueryResult`` object —
envelope-identical to the uncached run by construction, including its
recorded timings.  Treat results as read-only, which every consumer of
the session API already does.  Thread-safe: the HTTP front end reads
the counters on one thread while another runs queries, and one cache
may back several sessions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .result import QueryResult

__all__ = ["ResultCache"]

CacheKey = Tuple[str, int, str, int]


class ResultCache:
    """Bounded LRU cache of :class:`QueryResult` envelopes.

    Parameters
    ----------
    capacity:
        Maximum number of cached envelopes; the least recently used is
        evicted on overflow.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, QueryResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key_for(
        fingerprint: str, graph_version: int, query
    ) -> Optional[CacheKey]:
        """The cache key of a stamped query, or ``None`` if uncacheable.

        ``None`` means the query carries no ``rng_seed`` — its answer is
        entropy-dependent and must be recomputed every time.
        """
        if query.rng_seed is None:
            return None
        return (fingerprint, int(graph_version), query.model, int(query.rng_seed))

    def get(self, key: Optional[CacheKey]) -> Optional[QueryResult]:
        """The cached envelope under ``key`` (bumped to most-recent), or
        ``None`` on a miss.  ``key=None`` (uncacheable) counts as a miss
        of its own kind and is not tallied."""
        if key is None:
            return None
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(self, key: Optional[CacheKey], result: QueryResult) -> None:
        """Insert ``result`` under ``key`` (no-op for uncacheable keys)."""
        if key is None:
            return
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Persistence (NDJSON snapshots across server restarts)
    # ------------------------------------------------------------------
    def save(self, path) -> int:
        """Snapshot every entry to ``path`` as NDJSON; returns the count.

        One line per entry, LRU order (least recent first, so a later
        :meth:`load` reconstructs the same eviction order)::

            {"key": [fingerprint, graph_version, model, rng_seed],
             "result": {...QueryResult.to_dict()...}}

        The write is atomic (temp file + rename): a SIGTERM snapshot
        that dies mid-write never truncates the previous snapshot.
        """
        import json
        import os

        path = str(path)
        with self._lock:
            lines = [
                json.dumps(
                    {"key": list(key), "result": result.to_dict()},
                    separators=(",", ":"),
                )
                for key, result in self._entries.items()
            ]
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp, path)
        return len(lines)

    def load(self, path, graph_version: Optional[int] = None) -> Dict[str, int]:
        """Merge a :meth:`save` snapshot into the cache.

        ``graph_version`` (when given) is the currently-served graph's
        version: entries snapshotted under any other version are
        **dropped** — their results describe probabilities that no
        longer exist, and version-keyed lookups could never hit them
        anyway.  So are entries of any other key shape, such as the
        five-field keys (with a worker count) of older snapshots, which
        may hold answers of the retired chunk-seeded sample stream.
        Returns ``{"loaded": ..., "dropped": ...}``.  Entries
        beyond capacity evict LRU as usual; a missing file loads
        nothing.
        """
        import json
        import os

        loaded = dropped = 0
        if not os.path.exists(str(path)):
            return {"loaded": 0, "dropped": 0}
        with open(str(path), "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                raw_key = entry["key"]
                if len(raw_key) != 4:
                    dropped += 1
                    continue
                key: CacheKey = (
                    str(raw_key[0]), int(raw_key[1]), str(raw_key[2]),
                    int(raw_key[3]),
                )
                if graph_version is not None and key[1] != int(graph_version):
                    dropped += 1
                    continue
                result = QueryResult.from_dict(entry["result"])
                with self._lock:
                    self._entries[key] = result
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                loaded += 1
        return {"loaded": loaded, "dropped": dropped}

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable counters for the serving front end."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }
