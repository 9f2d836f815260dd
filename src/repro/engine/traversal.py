"""Frontier-based CSR traversal primitives.

All engine traversals share the same building blocks: expand a frontier of
node ids into the flat CSR positions of their incident edges, mask those
positions, and dedupe the discovered endpoints into the next frontier —
no per-neighbour Python loop anywhere.  :func:`next_level_frontier` is
the level step the lane-parallel 0-1 BFS passes share (PRR phase I and
both phase-II distance passes), over int16 distance planes encoded by
:data:`DIST_BASE`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "frontier_edge_positions",
    "first_occurrence",
    "unique_sorted",
    "grow_reachable",
    "next_level_frontier",
    "DIST_BASE",
]

_EMPTY = np.empty(0, dtype=np.int64)

# Lane distance planes (int16, one entry per ``lane * n + node`` key)
# hold ``DIST_BASE - d`` for a key at distance ``d``: the all-zero plane
# a batch starts from reads as unreached (``d = DIST_BASE``, past every
# bound), and a batch restores it by zeroing the keys it wrote.
DIST_BASE = np.int16(np.iinfo(np.int16).max)


def frontier_edge_positions(
    indptr: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR positions of all edges incident to ``frontier`` nodes.

    Returns ``(positions, counts)`` where ``positions`` lists every CSR slot
    in frontier order (each node's slice contiguous and in CSR order) and
    ``counts[i]`` is the degree of ``frontier[i]`` — so
    ``np.repeat(frontier, counts)`` aligns nodes with their positions.
    """
    if frontier.size == 1:  # single-node frontiers dominate sparse BFS
        u = frontier[0]
        start = int(indptr[u])
        count = int(indptr[u + 1]) - start
        return (
            np.arange(start, start + count, dtype=np.int64),
            np.array([count], dtype=np.int64),
        )
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, counts
    cum = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    return np.repeat(starts, counts) + offsets, counts


def first_occurrence(values: np.ndarray) -> np.ndarray:
    """Unique elements of ``values`` in order of first appearance.

    Mirrors the discovery order of the scalar BFS loops (scan order, first
    hit wins), which keeps vectorized traversals bit-for-bit aligned with
    their per-edge predecessors.
    """
    if values.size <= 1:
        return values
    _, idx = np.unique(values, return_index=True)
    return values[np.sort(idx)]


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted unique elements; sorts ``values`` in place.

    A sort + neighbour-diff is ~2-3x cheaper than ``np.unique`` on the
    few-thousand-element frontiers the engine dedupes per BFS level.  Use
    only where frontier order is free (any traversal order samples the
    same set); :func:`first_occurrence` is the order-preserving variant.
    """
    if values.size <= 1:
        return values
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def grow_reachable(
    tails: np.ndarray,
    heads: np.ndarray,
    reached: np.ndarray,
    traversable: np.ndarray | None = None,
) -> np.ndarray:
    """Fixed-point reachability: grow ``reached`` (a bool mask, modified in
    place) along edges ``tails[i] -> heads[i]``, optionally restricted to
    ``traversable`` edges.  O(edges × diameter) scatter passes."""
    while True:
        grow = reached[tails] & ~reached[heads]
        if traversable is not None:
            grow &= traversable
        if not grow.any():
            return reached
        reached[heads[grow]] = True


def next_level_frontier(
    dist: np.ndarray,
    n: int,
    level: np.ndarray,
    lanes: np.ndarray,
    live: np.ndarray,
    pool: np.ndarray,
    deferred: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The next frontier of a lane-parallel Dial's 0-1 BFS in which every
    lane keeps its own distance level (keys are ``lane * n + node``).

    ``dist`` is a :data:`DIST_BASE`-encoded plane.  ``lanes`` are the
    lanes of the frontier just processed, ``live`` its candidates over
    weight-0 edges (at their lane's level), ``deferred`` its candidates
    over weight-1 edges (one level up).  A lane of
    ``lanes`` without live candidates has finished its level: it moves
    up (``level`` is updated in place) and takes its pooled keys whose
    ``dist`` is still that level — a pooled key improved since was
    processed at the lower level.  Other lanes keep their keys pooled.
    Returns ``(frontier, pool)``; every lane processes the frontiers of
    a solo run, in the same order, without waiting for the others.
    """
    moving = np.zeros(level.size, dtype=bool)
    moving[lanes] = True
    moving[live // n] = False
    pool = np.concatenate([pool, deferred])
    pulled = moving[pool // n]
    up = pool[pulled]
    level[moving] += 1
    up = up[dist[up] == DIST_BASE - level[up // n]]
    return np.concatenate([live, up]), pool[~pulled]
