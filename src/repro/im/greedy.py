"""Greedy maximum coverage and CELF lazy greedy.

Both the IMM node-selection phase and the lower-bound arm of PRR-Boost
reduce to the same primitive: given a collection of sampled node sets, pick
``k`` nodes covering the most sets.  Plain greedy gives the classical
``1 - 1/e`` guarantee for this (submodular) objective.

:func:`greedy_max_coverage` now runs on the flat
:class:`repro.engine.coverage.CoverageIndex` (dense-gain argmax with
decrement-on-cover, no per-set Python objects); the pre-index heap
implementation is kept verbatim as :func:`legacy_greedy_max_coverage` — the
seeded-equivalence oracle, same pattern as
:mod:`repro.engine.reference`.  The two produce identical outputs (same
picks, same smallest-id tie-breaks); ``tests/test_selection.py`` enforces
it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..engine.coverage import CoverageIndex, SetsView

__all__ = ["greedy_max_coverage", "legacy_greedy_max_coverage", "lazy_greedy"]


def greedy_max_coverage(
    sets: Sequence[Iterable[int]],
    k: int,
    candidates: Set[int] | None = None,
) -> Tuple[List[int], int]:
    """Pick up to ``k`` nodes greedily maximizing the number of covered sets.

    Parameters
    ----------
    sets:
        The sampled sets; empty sets are allowed (they can never be covered
        but still count toward the collection size a caller divides by).
        A :class:`~repro.engine.coverage.SetsView` reuses its backing
        index directly; other sequences are loaded into a fresh index.
    k:
        Cardinality budget.
    candidates:
        Optional restriction of pickable nodes (e.g. non-seeds).

    Returns
    -------
    (chosen, covered):
        The chosen nodes (may be fewer than ``k`` when no candidate adds
        coverage) and the number of covered sets.
    """
    if k <= 0:
        return [], 0
    if isinstance(sets, SetsView):
        return sets.index.greedy(k, candidates, limit=len(sets))
    # Dense arrays need a universe size; derive it in the same single pass
    # that converts the sets (works for one-shot iterables too).
    arrays = []
    top = -1
    for node_set in sets:
        seq = node_set if isinstance(node_set, (frozenset, set, list, tuple)) else list(node_set)
        arr = np.fromiter(seq, dtype=np.int64, count=len(seq))
        if arr.size:
            top = max(top, int(arr.max()))
        arrays.append(arr)
    if top < 0:
        return [], 0
    index = CoverageIndex(top + 1)
    for arr in arrays:
        index.append_array(arr)
    return index.greedy(k, candidates)


def legacy_greedy_max_coverage(
    sets: Sequence[Iterable[int]],
    k: int,
    candidates: Set[int] | None = None,
) -> Tuple[List[int], int]:
    """The pre-index dict/heap greedy — seeded-equivalence oracle.

    Lazy-greedy with a max-heap of stale upper bounds; valid because
    coverage gain is submodular (gains only shrink).
    """
    if k <= 0:
        return [], 0
    # Inverted index: node -> list of set ids containing it.
    inverted: dict[int, list[int]] = {}
    for set_id, node_set in enumerate(sets):
        for node in node_set:
            if candidates is None or node in candidates:
                inverted.setdefault(node, []).append(set_id)

    gain = {node: len(ids) for node, ids in inverted.items()}
    covered = [False] * len(sets)
    chosen: List[int] = []
    total_covered = 0

    heap = [(-g, node) for node, g in gain.items()]
    heapq.heapify(heap)
    while heap and len(chosen) < k:
        neg_gain, node = heapq.heappop(heap)
        fresh = sum(1 for sid in inverted[node] if not covered[sid])
        if fresh != -neg_gain:
            if fresh > 0:
                heapq.heappush(heap, (-fresh, node))
            continue
        if fresh == 0:
            break
        chosen.append(node)
        total_covered += fresh
        for sid in inverted[node]:
            covered[sid] = True
    return chosen, total_covered


def lazy_greedy(
    candidates: Sequence[int],
    k: int,
    marginal_gain: Callable[[int, List[int]], float],
) -> List[int]:
    """CELF lazy greedy for a generic monotone objective.

    ``marginal_gain(v, chosen)`` must return the gain of adding ``v`` to the
    already ``chosen`` list.  For submodular objectives the CELF shortcut is
    exact; for the (non-submodular) boost objective it is the heuristic the
    paper's greedy node selection uses, re-evaluating the top candidate
    before accepting it.
    """
    if k <= 0 or not candidates:
        return []
    chosen: List[int] = []
    # Entries are (-gain, candidate, round_evaluated).
    heap: list[tuple[float, int, int]] = []
    for v in candidates:
        heap.append((-marginal_gain(v, chosen), v, 0))
    heapq.heapify(heap)

    current_round = 0
    while heap and len(chosen) < k:
        neg_gain, v, evaluated_at = heapq.heappop(heap)
        if evaluated_at == current_round:
            if -neg_gain <= 0.0:
                break
            chosen.append(v)
            current_round += 1
        else:
            fresh = marginal_gain(v, chosen)
            heapq.heappush(heap, (-fresh, v, current_round))
    return chosen
