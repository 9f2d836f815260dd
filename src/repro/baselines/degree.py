"""Degree-based boosting baselines (Section VII).

``HighDegreeGlobal`` iteratively picks the node with the highest *weighted
degree*; the paper evaluates four weighted-degree definitions and reports
the best:

1. sum of influence probabilities on outgoing edges ``Σ p_uv``,
2. the same with already-selected heads discounted,
3. sum of the boost gaps on incoming edges ``Σ (p'_vu − p_vu)``,
4. the same with already-selected tails discounted.

``HighDegreeLocal`` restricts candidates to nodes close to the seeds,
expanding hop-by-hop until ``k`` nodes are available.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Set

import numpy as np

from ..engine.traversal import frontier_edge_positions
from ..graphs.digraph import CSRView, DiGraph

__all__ = ["high_degree_global", "high_degree_local", "weighted_degree_variants"]


class WeightedDegree(NamedTuple):
    """A node's score sums ``p`` over its outgoing edges (``outgoing``) or
    ``p' − p`` over its incoming ones; ``discounted`` leaves out the edges
    whose other end is already selected."""

    outgoing: bool
    discounted: bool


_VARIANTS = (
    WeightedDegree(outgoing=True, discounted=False),
    WeightedDegree(outgoing=True, discounted=True),
    WeightedDegree(outgoing=False, discounted=False),
    WeightedDegree(outgoing=False, discounted=True),
)


def weighted_degree_variants() -> tuple:
    """The four weighted-degree definitions, in candidate-set order."""
    return _VARIANTS


def _slice_sums(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights[indptr[v]:indptr[v + 1]].sum()`` for every row ``v``,
    rounded exactly as numpy sums one slice.

    ``np.add.reduceat`` adds a segment's tail onto its first element,
    while a slice's ``sum()`` adds the whole slice onto zero — so every
    segment gets a leading zero (which also gives empty rows a 0.0)."""
    starts = indptr[:-1]
    padded = np.insert(weights, starts, 0.0)
    return np.add.reduceat(padded, starts + np.arange(starts.size))


def _kept_sums(
    rows: CSRView, weights: np.ndarray, members: np.ndarray, picked: np.ndarray
) -> np.ndarray:
    """Per member row, its weights over edges to unpicked nodes added left
    to right in CSR order, as Python's ``sum()`` adds them: ``np.bincount``
    accumulates each row's entries in order, and a dropped edge adds 0.0
    (with no edges at all it counts in ints, hence the cast)."""
    pos, counts = frontier_edge_positions(rows.indptr, members)
    kept = np.where(picked[rows.nodes[pos]], 0.0, weights[pos])
    owner = np.repeat(np.arange(members.size), counts)
    return np.bincount(owner, weights=kept, minlength=members.size).astype(float)


def _select(
    graph: DiGraph, pool: np.ndarray, k: int, variant: WeightedDegree
) -> List[int]:
    """Greedy picks of ``variant`` from ``pool``: each pick is the
    highest-scoring unpicked node, ties to the first in pool order.

    A discounted pick rescores only the rows with an edge to it, from
    scratch: subtracting its weight from running totals would round
    differently and flip exact ties.
    """
    out, inc = graph.out_csr(), graph.in_csr()
    if variant.outgoing:
        rows, reverse, weights = out, inc, out.p
    else:
        rows, reverse, weights = inc, out, inc.pp - inc.p
    picked = np.zeros(graph.n, dtype=bool)
    if variant.discounted:
        scores = _kept_sums(rows, weights, pool, picked)
    else:
        scores = _slice_sums(rows.indptr, weights)[pool]
    slot = np.full(graph.n, -1, dtype=np.int64)
    slot[pool] = np.arange(pool.size)
    result: List[int] = []
    for _ in range(min(k, pool.size)):
        i = int(np.argmax(scores))
        best = int(pool[i])
        result.append(best)
        scores[i] = -np.inf
        picked[best] = True
        if variant.discounted:
            touched = reverse.nodes[reverse.indptr[best] : reverse.indptr[best + 1]]
            touched = np.unique(touched[(slot[touched] >= 0) & ~picked[touched]])
            scores[slot[touched]] = _kept_sums(rows, weights, touched, picked)
    return result


def high_degree_global(
    graph: DiGraph, seeds: Iterable[int], k: int
) -> List[List[int]]:
    """Return the four HighDegreeGlobal candidate boost sets.

    Callers evaluate each with Monte Carlo and keep the best — mirroring the
    paper, which reports "the maximum boost of influence among four
    solutions".
    """
    pool = np.setdiff1d(np.arange(graph.n), np.fromiter(set(seeds), dtype=np.int64))
    return [_select(graph, pool, k, variant) for variant in _VARIANTS]


def _nodes_within_hops(graph: DiGraph, seeds: Set[int], k: int) -> List[int]:
    """Expand outward from the seeds hop-by-hop until >= k candidates."""
    current = set(seeds)
    frontier = set(seeds)
    candidates: List[int] = []
    while frontier and len(candidates) < k:
        next_frontier: Set[int] = set()
        for u in frontier:
            for v in graph.out_neighbors(u):
                v = int(v)
                if v not in current:
                    current.add(v)
                    next_frontier.add(v)
                    candidates.append(v)
        frontier = next_frontier
    if len(candidates) < k:
        # Not enough nodes near seeds; pad with the remaining nodes.
        for v in range(graph.n):
            if v not in current:
                candidates.append(v)
                if len(candidates) >= k:
                    break
    return candidates


def high_degree_local(
    graph: DiGraph, seeds: Iterable[int], k: int
) -> List[List[int]]:
    """HighDegreeLocal: the four variants restricted to seed-adjacent nodes."""
    pool = np.array(_nodes_within_hops(graph, set(seeds), k), dtype=np.int64)
    return [_select(graph, pool, k, variant) for variant in _VARIANTS]
