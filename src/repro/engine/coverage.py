"""Flat coverage index and vectorized greedy max-coverage.

Every selection phase of the reproduction — the IMM doubling rounds, the
final max-coverage pick, SSA's selection/validation split and the μ arm of
PRR-Boost — reduces to the same primitive: over a collection of sampled
node sets, pick ``k`` nodes covering the most sets.  The pre-index code
paid a Python dict/heap rebuild over lists of frozensets for *every* call;
this module keeps the whole collection in two flat int32 CSR arrays

* set → members (``indptr`` / ``values``), appended to incrementally as
  samples arrive, and
* node → containing sets (the inverted index), rebuilt lazily when stale
  by one counting sort: :func:`~repro.graphs.digraph.stable_order`
  radix-sorts the member ids as 16-bit digits (one pass up to 65,536
  nodes, two above), so a rebuild is linear in the collection,

so each greedy run is a dense-gain argmax loop with decrement-on-cover
updates.  The gains start as the member counts of the prefix, the
non-candidates' are zeroed once per call, and each pick subtracts the
members of the sets it newly covers (``np.subtract.at``), so a pick makes
no n-sized pass but its argmax.  A non-candidate's gain stays ≤ 0, so the
argmax is still the smallest-id best candidate whenever any candidate
gains.  The index survives across IMM doubling rounds — a warm restart
appends the new samples and re-runs the kernel instead of rebuilding from
Python sets — and it remembers its last pick: a capped IMM run ends with
a pick on the collection its last doubling round already picked on, and
that pick is returned again instead of recomputed.

The candidate pool is an n-sized bool mask (:func:`candidate_mask`).  A
query builds its read-only non-seed mask once (:func:`non_seed_mask`,
microseconds at 20,000 nodes) and passes that one object to every pick
it makes, which is also what the remembered pick is keyed on: a pick is
remembered only for a pool that cannot change between two calls, every
node (``None``) or a read-only mask.

The kernel is pinned to the exact outputs of the legacy heap greedy
(:func:`repro.im.greedy.legacy_greedy_max_coverage`): both choose, per
round, the node of maximum current gain with ties broken toward the
smallest node id, and both stop when no candidate adds coverage.
``tests/test_selection.py`` enforces the equivalence on seeded instances.

This module is part of :mod:`repro.engine` and must stay importable
without :mod:`repro.core` (engine is the bottom architectural seam).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.digraph import stable_order
from .traversal import frontier_edge_positions

__all__ = [
    "CoverageIndex",
    "SetsView",
    "candidate_mask",
    "csr_to_frozensets",
    "non_seed_mask",
]

_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_I64 = np.empty(0, dtype=np.int64)


def csr_to_frozensets(counts: np.ndarray, values: np.ndarray) -> List[frozenset]:
    """Materialize a ``(counts, values)`` member CSR as frozensets.

    The inverse convenience of :meth:`CoverageIndex.extend_csr`, for the
    callers that still speak list-of-frozensets: row ``i`` is
    ``values[sum(counts[:i]) : sum(counts[:i+1])]``.
    """
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return [
        frozenset(values[offsets[i] : offsets[i + 1]].tolist())
        for i in range(counts.size)
    ]


def candidate_mask(n: int, candidates) -> Optional[np.ndarray]:
    """A candidate pool as an ``n``-sized bool mask (``None``: every node).

    A bool array is the mask itself and is returned as it is; its size
    must be ``n``.  Any other pool (a set, a sequence or an array of ids)
    is converted into a new read-only mask, dropping ids outside
    ``[0, n)``.
    """
    if candidates is None:
        return None
    if isinstance(candidates, np.ndarray):
        if candidates.dtype == bool:
            if candidates.size != n:
                raise ValueError(
                    f"candidate mask has {candidates.size} entries, "
                    f"expected {n}"
                )
            return candidates
        ids = candidates.astype(np.int64, copy=False)
    else:
        try:
            ids = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
        except (TypeError, ValueError):
            ids = np.fromiter((int(c) for c in candidates), dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[ids[(ids >= 0) & (ids < n)]] = True
    mask.flags.writeable = False
    return mask


def non_seed_mask(n: int, seeds: Iterable[int]) -> np.ndarray:
    """The read-only ``n``-sized candidate mask of every node not in
    ``seeds`` (ids outside ``[0, n)`` are ignored)."""
    mask = ~candidate_mask(n, tuple(seeds))
    mask.flags.writeable = False
    return mask


class CoverageIndex:
    """Sampled node sets over ``[0, n)`` as one flat int32 CSR.

    Appends are O(set size); the consolidated CSR and the inverted index
    are (re)built lazily and cached until the next append.  Members of one
    set must be unique (sets, or arrays produced by a deduplicating
    traversal) — duplicates would double-count gains.
    """

    __slots__ = (
        "n",
        "_chunks",
        "_chunk_counts",
        "_num_sets",
        "_total_members",
        "_version",
        "_flat_version",
        "_flat",
        "_inv_version",
        "_inv",
        "_pick",
    )

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = int(n)
        self._version = 0
        self._flat_version = -1
        self._flat: Tuple[np.ndarray, np.ndarray, np.ndarray] = (
            _EMPTY_I32,
            np.zeros(1, dtype=np.int64),
            _EMPTY_I32,
        )
        self._inv_version = -1
        self._inv: Tuple[np.ndarray, np.ndarray] = (
            np.zeros(self.n + 1, dtype=np.int64),
            _EMPTY_I32,
        )
        self.clear()

    def clear(self) -> None:
        """Reset to the empty state (equivalent to a fresh index over ``n``).

        The one definition of "empty" (``__init__`` delegates here).
        Warm facades (:class:`repro.api.Session`) recycle one index across
        queries instead of re-allocating; a cleared index is
        indistinguishable from a new one to every kernel — the version
        bump invalidates the cached consolidated/inverted views and the
        remembered pick — so selection outputs are unaffected by recycling.
        """
        self._chunks: List[np.ndarray] = []
        self._chunk_counts: List[int] = []  # per-set sizes (plain ints)
        self._num_sets = 0
        self._total_members = 0
        self._version += 1
        self._pick = None

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def total_members(self) -> int:
        return self._total_members

    def __len__(self) -> int:
        return self._num_sets

    def append_array(self, members: np.ndarray) -> None:
        """Append one set given as an array of unique node ids."""
        arr = np.asarray(members, dtype=np.int32)
        self._chunks.append(arr)
        self._chunk_counts.append(arr.size)
        self._num_sets += 1
        self._total_members += int(arr.size)
        self._version += 1

    def append(self, members: Iterable[int]) -> None:
        """Append one set from any iterable of unique node ids."""
        if isinstance(members, np.ndarray):
            self.append_array(members)
            return
        seq = members if isinstance(members, (frozenset, set, list, tuple)) else list(members)
        arr = np.fromiter(seq, dtype=np.int32, count=len(seq))
        self.append_array(arr)

    def extend(self, sets: Iterable[Iterable[int]]) -> None:
        """Append many sets (order preserved)."""
        for s in sets:
            self.append(s)

    def extend_csr(self, counts: np.ndarray, values: np.ndarray) -> None:
        """Bulk-append ``len(counts)`` sets packed in one flat array.

        ``values[sum(counts[:i]) : sum(counts[:i+1])]`` holds set ``i`` —
        the shape worker processes ship back to avoid per-set pickling.
        """
        counts = np.asarray(counts, dtype=np.int64)
        values = np.asarray(values, dtype=np.int32)
        if int(counts.sum()) != values.size:
            raise ValueError("counts do not add up to values size")
        self._chunks.append(values)
        self._chunk_counts.extend(counts.tolist())
        self._num_sets += int(counts.size)
        self._total_members += int(values.size)
        self._version += 1

    # ------------------------------------------------------------------
    # Consolidated views
    # ------------------------------------------------------------------
    def _consolidated(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, indptr, set_ids)`` — the set→member CSR plus the set
        id owning each flat slot."""
        if self._flat_version != self._version:
            values = (
                np.concatenate(self._chunks) if self._chunks else _EMPTY_I32
            ).astype(np.int32, copy=False)
            counts = np.fromiter(
                self._chunk_counts, dtype=np.int64, count=len(self._chunk_counts)
            )
            indptr = np.zeros(self._num_sets + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            set_ids = np.repeat(
                np.arange(self._num_sets, dtype=np.int32), counts
            )
            # Re-chunk so repeated consolidation stays O(1).
            self._chunks = [values]
            self._flat = (values, indptr, set_ids)
            self._flat_version = self._version
        return self._flat

    def _inverted(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(inv_indptr, inv_sets)`` — node → ids of sets containing it."""
        if self._inv_version != self._version:
            values, _indptr, set_ids = self._consolidated()
            counts = np.bincount(values, minlength=self.n)
            inv_indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=inv_indptr[1:])
            self._inv = (inv_indptr, set_ids[stable_order(values, self.n)])
            self._inv_version = self._version
        return self._inv

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def greedy(
        self,
        k: int,
        candidates=None,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], int]:
        """Greedy max-coverage over the first ``limit`` sets (all when None).

        Returns ``(chosen, covered)`` exactly like the legacy heap greedy:
        per round the maximum-gain node (smallest id on ties), stopping
        early when no candidate covers a fresh set.  ``candidates`` is
        any pool :func:`candidate_mask` takes; an ``n``-sized bool mask
        is used as it is.

        When the pool is ``None`` or a read-only mask, which cannot change
        between two calls, the pick is remembered, keyed on the index
        version, ``k``, the prefix length and the pool object: asking
        again before the next append or :meth:`clear` returns it without
        recomputing.  Any other pool is picked on afresh every call.
        """
        m = self._num_sets if limit is None else min(int(limit), self._num_sets)
        if k <= 0 or m == 0:
            return [], 0
        key = (self._version, k, m)
        remember = candidates is None or (
            isinstance(candidates, np.ndarray) and not candidates.flags.writeable
        )
        if remember and self._pick is not None:
            pick_key, pick_pool, chosen, total = self._pick
            if pick_key == key and pick_pool is candidates:
                return list(chosen), total
        values, indptr, _set_ids = self._consolidated()
        inv_indptr, inv_sets = self._inverted()
        gain = np.bincount(values[: indptr[m]], minlength=self.n)
        allowed = candidate_mask(self.n, candidates)
        if allowed is not None:
            gain *= allowed  # from here on a non-candidate's gain is <= 0
        covered = np.zeros(m, dtype=bool)
        chosen: List[int] = []
        total = 0
        for _ in range(k):
            best = int(np.argmax(gain))
            if gain[best] <= 0:
                break
            chosen.append(best)
            sids = inv_sets[inv_indptr[best] : inv_indptr[best + 1]]
            if m < self._num_sets:
                sids = sids[sids < m]
            new = sids[~covered[sids]]
            covered[new] = True
            total += int(new.size)
            pos, _counts = frontier_edge_positions(indptr, new.astype(np.int64))
            if pos.size:
                np.subtract.at(gain, values[pos], 1)
        self._pick = (key, candidates, chosen, total) if remember else None
        return list(chosen), total

    def coverage_count(
        self, nodes: Iterable[int], start: int = 0, stop: Optional[int] = None
    ) -> int:
        """Number of sets in ``[start, stop)`` intersecting ``nodes``."""
        stop = self._num_sets if stop is None else min(int(stop), self._num_sets)
        start = max(int(start), 0)
        if stop <= start or self._num_sets == 0:
            return 0
        mask = np.zeros(self.n, dtype=bool)
        ids = np.fromiter(
            (int(v) for v in nodes if 0 <= int(v) < self.n), dtype=np.int64
        )
        if ids.size == 0:
            return 0
        mask[ids] = True
        values, indptr, set_ids = self._consolidated()
        lo, hi = int(indptr[start]), int(indptr[stop])
        hit = mask[values[lo:hi]]
        if not hit.any():
            return 0
        covered = np.bincount(
            set_ids[lo:hi][hit].astype(np.int64) - start, minlength=stop - start
        )
        return int(np.count_nonzero(covered))

    # ------------------------------------------------------------------
    # Set materialization (compat with frozenset-based callers)
    # ------------------------------------------------------------------
    def set_at(self, i: int) -> frozenset:
        """Materialize set ``i`` as a frozenset."""
        values, indptr, _set_ids = self._consolidated()
        return frozenset(values[indptr[i] : indptr[i + 1]].tolist())

    def sets_view(self) -> "SetsView":
        """A lazy ``Sequence[FrozenSet[int]]`` over the whole index."""
        return SetsView(self)


class SetsView:
    """Sequence adapter: the index's sets, materialized on access.

    Keeps list-of-frozensets compatibility (``len``, iteration, indexing,
    slicing) for callers of :func:`repro.im.imm.imm_sampling` without
    paying for frozensets nobody reads.  The view is live: sets appended
    to the index later are visible through it.
    """

    __slots__ = ("index",)

    def __init__(self, index: CoverageIndex) -> None:
        self.index = index

    def __len__(self) -> int:
        return self.index.num_sets

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.index.set_at(j) for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.index.set_at(i)

    def __iter__(self):
        for i in range(len(self)):
            yield self.index.set_at(i)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SetsView({len(self)} sets over n={self.index.n})"
