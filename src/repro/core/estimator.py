"""Estimation of the boost of influence over collections of PRR-graphs.

Implements the two estimators of Section IV

* ``Δ̂_R(B) = (n/|R|) · Σ_R f_R(B)``   (Equation 2),
* ``μ̂_R(B) = (n/|R|) · Σ_R f⁻_R(B)``  (submodular lower bound),

and the greedy node-selection over ``Δ̂`` used by Line 4 of Algorithm 2.
Non-boostable PRR-graphs contribute 0 to both sums but *do* count in ``|R|``
— the estimators divide by the total number of sampled roots.

Two implementations coexist:

* the **arena kernels** — collections held in a :class:`~repro.core.prr.PRRArena`
  are evaluated batch-vectorized: one fixed-point reachability pass over the
  concatenated edge arrays of *all* graphs per greedy round (graphs cannot
  interfere because their arena node ranges are disjoint), with activation
  counts tallied by ``(graph, node)``-keyed bincounts.  Sequences of
  :class:`PRRGraph` objects are converted to an arena once up front.
* the **legacy per-graph loops** (``legacy_estimate_delta`` / ``legacy_estimate_mu``
  / ``legacy_greedy_delta_selection``) — kept verbatim as seeded-equivalence
  oracles, the same pattern as
  :mod:`repro.engine.reference`.  ``tests/test_selection.py`` pins the arena
  kernels to their exact outputs (identical chosen sets, tie-breaks and
  estimates).
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, List, Sequence, Set, Tuple, Union

import numpy as np

from ..engine.traversal import grow_reachable
from .prr import PRRArena, PRRGraph

__all__ = [
    "estimate_delta",
    "estimate_mu",
    "greedy_delta_selection",
    "legacy_estimate_delta",
    "legacy_estimate_mu",
    "legacy_greedy_delta_selection",
    "CollectionStats",
    "collection_stats",
]

Collection = Union[PRRArena, Sequence[PRRGraph]]


def _as_arena(prr_graphs: Collection, n: int) -> PRRArena:
    if isinstance(prr_graphs, PRRArena):
        return prr_graphs
    return PRRArena.from_graphs(n, prr_graphs)


def _boost_mask(n: int, boost: AbstractSet[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    ids = [int(v) for v in boost if 0 <= int(v) < n]
    if ids:
        mask[ids] = True
    return mask


def _forward_reached(arena: PRRArena, boosted: np.ndarray) -> np.ndarray:
    """Super-seed forward reachability across all boostable graphs at once."""
    flat = arena.flat()
    reached = np.zeros(flat["total_nodes"], dtype=bool)
    reached[flat["node_base"][flat["boostable"]]] = True
    traversable = ~arena.edge_boost | boosted[flat["edge_head_global"]]
    grow_reachable(flat["edge_src"], flat["edge_dst"], reached, traversable)
    return reached


def estimate_delta(
    prr_graphs: Collection, n: int, boost: AbstractSet[int]
) -> float:
    """``Δ̂_R(B)`` — unbiased estimate of the boost of influence ``Δ_S(B)``,
    from one vectorized reachability pass over all graphs."""
    arena = _as_arena(prr_graphs, n)
    if len(arena) == 0:
        return 0.0
    flat = arena.flat()
    reached = _forward_reached(arena, _boost_mask(n, boost))
    roots = flat["root_arena"][flat["boostable"]]
    covered = int(np.count_nonzero(reached[roots]))
    return n * covered / len(arena)


def estimate_mu(
    prr_graphs: Collection, n: int, boost: AbstractSet[int]
) -> float:
    """``μ̂_R(B)`` — estimate of the submodular lower bound ``μ(B)``."""
    arena = _as_arena(prr_graphs, n)
    if len(arena) == 0:
        return 0.0
    hit = _boost_mask(n, boost)[arena.crit_nodes]
    covered = int(np.unique(arena.flat()["crit_gid"][hit]).size)
    return n * covered / len(arena)


def legacy_estimate_delta(
    prr_graphs: Sequence[PRRGraph], n: int, boost: AbstractSet[int]
) -> float:
    """Per-graph ``Δ̂`` loop — the pre-arena oracle."""
    if not prr_graphs:
        return 0.0
    covered = sum(1 for g in prr_graphs if g.f(boost))
    return n * covered / len(prr_graphs)


def legacy_estimate_mu(
    prr_graphs: Sequence[PRRGraph], n: int, boost: AbstractSet[int]
) -> float:
    """Per-graph ``μ̂`` loop — the pre-arena oracle."""
    if not prr_graphs:
        return 0.0
    covered = sum(1 for g in prr_graphs if g.f_lower(boost))
    return n * covered / len(prr_graphs)


def _distinct_graph_counts(
    gid: np.ndarray, head: np.ndarray, mask: np.ndarray, n: int
) -> np.ndarray:
    """``counts[v]`` = number of distinct graphs with a masked edge headed
    at global node ``v`` (several parallel crossings in one graph count
    once, matching the per-graph set semantics of the legacy loop)."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return np.zeros(n, dtype=np.int64)
    keys = np.unique(gid[idx] * n + head[idx])
    return np.bincount(keys % n, minlength=n)


def greedy_delta_selection(
    prr_graphs: Collection,
    n: int,
    k: int,
    candidates: Set[int] | None = None,
) -> Tuple[List[int], float]:
    """Greedily build ``B`` maximizing ``Δ̂_R(B)`` (NodeSelection, Line 4).

    Each round evaluates, for every still-inactive boostable PRR-graph, the
    set ``A_R(B)`` of single nodes whose addition would activate the root —
    but across *all* graphs at once: forward (super-seed) and backward
    (root) reachability are two shared fixed-point passes over the arena's
    concatenated edge arrays, grown incrementally as ``B`` gains nodes
    (reachability is monotone in ``B``), and a live-upon-boost edge
    crossing from the forward into the backward region marks its head as
    activating for its graph.  When no single node activates any root
    (supermodular stall) the same machinery counts *frontier* edges
    (forward region → anywhere unreached) instead, so multi-step chains
    stay completable — identical to the legacy per-graph logic.

    Returns the chosen boost set and its ``Δ̂`` estimate; output is pinned
    to :func:`legacy_greedy_delta_selection` (same picks, same
    smallest-id tie-breaks, same estimate).
    """
    arena = _as_arena(prr_graphs, n)
    total = len(arena)
    if k <= 0 or total == 0:
        return [], 0.0
    flat = arena.flat()
    src = flat["edge_src"]
    dst = flat["edge_dst"]
    head = flat["edge_head_global"]
    gid = flat["edge_gid"]
    eboost = arena.edge_boost
    root_arena = flat["root_arena"]
    boostable = flat["boostable"]
    roots_pos = root_arena[boostable]

    fwd = np.zeros(flat["total_nodes"], dtype=bool)
    fwd[flat["node_base"][boostable]] = True
    bwd = np.zeros(flat["total_nodes"], dtype=bool)
    bwd[roots_pos] = True
    boosted = np.zeros(n, dtype=bool)
    allowed = None
    if candidates is not None:
        allowed = np.zeros(n, dtype=bool)
        allowed[[int(c) for c in candidates if 0 <= int(c) < n]] = True

    traversable = ~eboost
    grow_reachable(src, dst, fwd, traversable)
    grow_reachable(dst, src, bwd, traversable)

    chosen: List[int] = []
    for _round in range(k):
        # Edges of graphs whose root is already activated drop out; the
        # remaining live-upon-boost edges with unboosted heads are the
        # activation candidates.
        eligible = eboost & ~boosted[head] & fwd[src] & ~fwd[root_arena[gid]]
        counts = _distinct_graph_counts(gid, head, eligible & bwd[dst], n)
        if allowed is not None:
            counts[~allowed] = 0
        if not counts.any():
            # Supermodular stall: no single node finishes any root.  Expand
            # reachability instead — boost the node that unlocks the most
            # frontier edges, so multi-step chains become completable.
            counts = _distinct_graph_counts(gid, head, eligible & ~fwd[dst], n)
            if allowed is not None:
                counts[~allowed] = 0
        if not counts.any():
            break
        # argmax breaks ties toward the smallest node id.
        best = int(np.argmax(counts))
        chosen.append(best)
        boosted[best] = True
        traversable |= eboost & (head == best)
        grow_reachable(src, dst, fwd, traversable)
        grow_reachable(dst, src, bwd, traversable)

    activated = int(np.count_nonzero(fwd[roots_pos]))
    return sorted(chosen), n * activated / total


FrozenOptions = frozenset


def legacy_greedy_delta_selection(
    prr_graphs: Sequence[PRRGraph],
    n: int,
    k: int,
    candidates: Set[int] | None = None,
) -> Tuple[List[int], float]:
    """Per-graph greedy ``Δ̂`` selection — the pre-arena oracle.

    Each round recomputes, for every still-inactive boostable PRR-graph, the
    set ``A_R(B)`` of single nodes whose addition would activate the root
    (two linear traversals per graph), tallies the counts into a dense
    array, and takes the argmax.
    """
    if k <= 0 or not prr_graphs:
        return [], 0.0
    boost: set[int] = set()
    active = [False] * len(prr_graphs)
    activated_count = 0
    allowed = np.ones(n, dtype=bool)
    if candidates is not None:
        allowed[:] = False
        allowed[list(candidates)] = True
    # Cache each graph's current activation options.
    options: List[FrozenOptions] = [None] * len(prr_graphs)  # type: ignore[assignment]

    for _round in range(k):
        counts = np.zeros(n, dtype=np.int64)
        for idx, g in enumerate(prr_graphs):
            if active[idx] or not g.is_boostable:
                continue
            acts = g.activating_nodes(boost)
            options[idx] = acts
            if acts:
                counts[list(acts)] += 1
        counts[~allowed] = 0
        if not counts.any():
            # Supermodular stall: see greedy_delta_selection.
            for idx, g in enumerate(prr_graphs):
                if active[idx] or not g.is_boostable:
                    continue
                frontier = g.frontier_nodes(boost)
                if frontier:
                    counts[list(frontier)] += 1
            counts[~allowed] = 0
            options = [None] * len(prr_graphs)  # type: ignore[assignment]
        if not counts.any():
            break
        # argmax breaks ties toward the smallest node id.
        best = int(np.argmax(counts))
        boost.add(best)
        for idx, g in enumerate(prr_graphs):
            if active[idx] or not g.is_boostable:
                continue
            if options[idx] is not None and best in options[idx]:
                active[idx] = True
                activated_count += 1
    estimate = n * activated_count / len(prr_graphs)
    return sorted(boost), estimate


class CollectionStats:
    """Aggregate statistics of a PRR-graph collection (Tables 2 and 3)."""

    __slots__ = (
        "total",
        "activated",
        "hopeless",
        "boostable",
        "uncompressed_edges",
        "compressed_edges",
        "critical_nodes",
        "stored_bytes",
    )

    def __init__(self) -> None:
        self.total = 0
        self.activated = 0
        self.hopeless = 0
        self.boostable = 0
        self.uncompressed_edges = 0
        self.compressed_edges = 0
        self.critical_nodes = 0
        self.stored_bytes = 0

    def add(self, graph: PRRGraph) -> None:
        self.total += 1
        if graph.status == "activated":
            self.activated += 1
        elif graph.status == "hopeless":
            self.hopeless += 1
        else:
            self.boostable += 1
            self.uncompressed_edges += graph.uncompressed_edges
            self.compressed_edges += graph.num_edges
            self.critical_nodes += len(graph.critical)
            self.stored_bytes += graph.estimated_bytes

    @property
    def avg_uncompressed_edges(self) -> float:
        """Mean edges explored per boostable PRR-graph before compression."""
        return self.uncompressed_edges / self.boostable if self.boostable else 0.0

    @property
    def avg_compressed_edges(self) -> float:
        """Mean edges per boostable PRR-graph after compression."""
        return self.compressed_edges / self.boostable if self.boostable else 0.0

    @property
    def compression_ratio(self) -> float:
        """Uncompressed-to-compressed edge ratio (the Table 2/3 headline)."""
        if self.compressed_edges == 0:
            return 0.0
        return self.uncompressed_edges / self.compressed_edges

    @property
    def avg_critical_nodes(self) -> float:
        return self.critical_nodes / self.boostable if self.boostable else 0.0

    @property
    def memory_mb(self) -> float:
        """Estimated megabytes holding all boostable PRR-graphs.

        The analogue of the parenthesised numbers in the paper's Tables 2/3
        (additional memory for boostable PRR-graphs).
        """
        return self.stored_bytes / (1024.0 * 1024.0)


def _arena_stats(arena: PRRArena) -> CollectionStats:
    stats = CollectionStats()
    codes = arena.status_codes
    stats.total = int(codes.size)
    stats.activated = int(np.count_nonzero(codes == 0))
    stats.hopeless = int(np.count_nonzero(codes == 1))
    stats.boostable = int(np.count_nonzero(codes == 2))
    boostable = codes == 2
    edge_counts = np.diff(arena.edge_indptr)[boostable]
    node_counts = np.diff(arena.node_indptr)[boostable]
    crit_counts = np.diff(arena.crit_indptr)[boostable]
    stats.uncompressed_edges = int(arena.uncomp_edges[boostable].sum())
    stats.compressed_edges = int(edge_counts.sum())
    stats.critical_nodes = int(crit_counts.sum())
    # Same per-graph formula as PRRGraph.estimated_bytes, summed.
    stats.stored_bytes = int(
        17 * edge_counts.sum() + 8 * node_counts.sum() + 8 * crit_counts.sum()
    )
    return stats


def collection_stats(prr_graphs: Union[PRRArena, Iterable[PRRGraph]]) -> CollectionStats:
    """Compute :class:`CollectionStats` over ``prr_graphs``.

    Arena input is reduced with vectorized sums; iterables of
    :class:`PRRGraph` objects keep the per-graph accumulation.
    """
    if isinstance(prr_graphs, PRRArena):
        return _arena_stats(prr_graphs)
    stats = CollectionStats()
    for g in prr_graphs:
        stats.add(g)
    return stats
