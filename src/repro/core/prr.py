"""Potentially Reverse Reachable (PRR) graphs — Definition 3 / Algorithm 1.

A PRR-graph for a root ``r`` is sampled by fixing every edge of ``G`` to one
of three states:

* **live** with probability ``p``,
* **live-upon-boost** with probability ``p' − p``,
* **blocked** with probability ``1 − p'``,

and keeping the minimal subgraph containing all non-blocked paths from seeds
to ``r``.  The estimator identities are (Lemma 1 / Section IV-C):

* ``Δ_S(B) = n · E[f_R(B)]`` where ``f_R(B) = 1`` iff ``r`` is inactive
  without boosting but active upon boosting ``B``;
* ``μ(B) = n · E[f⁻_R(B)] ≤ Δ_S(B)`` where ``f⁻_R(B) = I(B ∩ C_R ≠ ∅)``
  and ``C_R = {v : f_R({v}) = 1}`` is the *critical node set* — a submodular
  lower bound.

Sampling runs on the shared vectorized engine
(:class:`repro.engine.SamplingEngine`): phase I is a frontier-based backward
0–1 BFS over the in-CSR with edge states held in a flat ``int8`` array
keyed by dense edge id (no per-edge ``(u, v)`` dict), and the batch entry
points (:func:`sample_prr_batch`, :func:`sample_critical_batch`) amortize
engine setup across hundreds of roots.  :func:`sample_prr_lanes` is the
lane-parallel fast path: whole lane batches explore at once over per-lane
hashed worlds (bit-for-bit the ``world_seed`` single-sample path, pinned
in ``tests/test_lanes.py``), and each batch is compressed in one pass
into arena payload arrays.  This module keeps the domain side:

* :class:`PRRGraph` — the compressed graph with ``f_R`` evaluation and
  incremental "which single node would activate the root" queries used by
  the greedy selection over ``Δ̂``, all mask-vectorized,
* :class:`PRRArena` — a whole *collection* of compressed PRR-graphs in
  shared flat arrays (node-global CSR, edge CSR with arena-global
  endpoints, critical-set CSR, per-graph status codes), so the selection
  and estimation kernels in :mod:`repro.core.estimator` evaluate
  ``f``/``f⁻``/``A_R`` batch-vectorized across *all* graphs at once and
  worker processes ship a handful of large arrays instead of pickled
  object lists.  :class:`PRRGraph` stays available as a lazy per-graph
  view (``arena[i]``),
* :func:`compress_lanes` — phase II (super-seed merge, dead-node removal,
  live shortcut edges to the root) for a whole lane batch, or a slice of
  at most :data:`COMPRESS_SLICE_EDGES` phase-I edges of it, at once: both
  0-1 BFS passes, the edge dedupe and the cleanup run over all lanes in
  disjoint ``lane * n + node`` key ranges, and the result is the arena
  payload arrays of those lanes.  It is the only compressor: single samples
  (:func:`prr_graph_from_phase1`, :meth:`PRRArena.add_phase1`) go
  through it as one-lane batches, and ``tests/test_compression_oracle.py``
  checks it against brute-force ``f_R(B)`` on tiny graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import SamplingEngine
from ..engine import world as engine_world
from ..engine.batch import ACTIVATED, BOOSTABLE, HOPELESS, PhaseOneResult
from ..engine.hashing import hash_draw as _hash_draw
from ..engine.lanes import (
    CODE_ACTIVATED,
    CODE_BOOSTABLE,
    CODE_HOPELESS,
    LANE_BYTES,
    LanePhase1,
    batch_lanes,
    draw_lane_inputs,
)
from ..engine.traversal import (
    DIST_BASE,
    frontier_edge_positions,
    grow_reachable,
    next_level_frontier,
    unique_sorted,
)

from ..graphs.digraph import DiGraph

__all__ = [
    "EdgeState",
    "PRRGraph",
    "PRRArena",
    "sample_prr_graph",
    "sample_prr_batch",
    "sample_prr_arena",
    "sample_prr_lanes",
    "sample_critical_set",
    "sample_critical_batch",
    "prr_graph_from_phase1",
    "compress_lanes",
    "COMPRESS_SLICE_EDGES",
    "ACTIVATED",
    "HOPELESS",
    "BOOSTABLE",
]


class EdgeState:
    """Edge states of the deterministic copy ``g`` (Definition 3).

    The values are the engine's encoding — a single source of truth for
    the flat ``int8`` state arrays.
    """

    LIVE = engine_world.LIVE
    BOOST = engine_world.BOOST  # live-upon-boost
    BLOCKED = engine_world.BLOCKED


_EMPTY_IDS = np.empty(0, dtype=np.int64)

# Phase-I edges per compression slice: one per 64 bytes of the lane
# budget (2^17 at 8 MiB).  Phase II holds ~100 bytes of transient arrays
# per edge, so a slice stays near 13 MB however many edges the lanes of a
# batch kept (a ~210-lane digg-like batch at k=20 keeps ~60k).
COMPRESS_SLICE_EDGES = LANE_BYTES // 64

# Transient bytes a PRR lane batch holds per phase-I edge it keeps (phase
# I's per-pass chunks, their concatenation and phase II), the term that
# sizes PRR batches next to their int16 plane: see sample_prr_lanes.
_PRR_EDGE_BYTES = 128


@dataclass
class PRRGraph:
    """A sampled (and, when boostable, compressed) PRR-graph.

    Local node ids: ``0`` is the merged super-seed; the root is
    ``root_local``.  ``node_globals[local]`` maps back to graph node ids
    (``-1`` for the super-seed).  Edges are stored as parallel arrays; an
    edge is traversable for boost set ``B`` when it is live, or when it is
    live-upon-boost and its head's global id is in ``B``.
    """

    root: int
    status: str
    node_globals: List[int] = field(default_factory=list)
    edge_src: List[int] = field(default_factory=list)
    edge_dst: List[int] = field(default_factory=list)
    edge_boost: List[bool] = field(default_factory=list)
    root_local: int = -1
    critical: FrozenSet[int] = frozenset()
    uncompressed_nodes: int = 0
    uncompressed_edges: int = 0
    _arrays: Optional[Tuple[np.ndarray, ...]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def is_boostable(self) -> bool:
        return self.status == BOOSTABLE

    @property
    def estimated_bytes(self) -> int:
        """Approximate storage footprint of the compressed graph.

        Counts the edge arrays (two ints and a flag per edge), the
        local-to-global map, and the critical set — the quantities behind
        the paper's Table 2/3 memory columns.
        """
        return (
            len(self.edge_src) * 17  # src + dst (8 each) + boost flag
            + len(self.node_globals) * 8
            + len(self.critical) * 8
        )

    @property
    def num_nodes(self) -> int:
        return len(self.node_globals)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    # ------------------------------------------------------------------
    def _edge_arrays(self) -> Tuple[np.ndarray, ...]:
        """Cached numpy views of the edge lists plus per-edge head globals."""
        if self._arrays is None:
            src = np.asarray(self.edge_src, dtype=np.int64)
            dst = np.asarray(self.edge_dst, dtype=np.int64)
            boost = np.asarray(self.edge_boost, dtype=bool)
            globals_ = np.asarray(self.node_globals, dtype=np.int64)
            head_globals = globals_[dst] if dst.size else _EMPTY_IDS
            self._arrays = (src, dst, boost, globals_, head_globals)
        return self._arrays

    def _boosted_heads(self, boost: AbstractSet[int]) -> np.ndarray:
        """Per-edge mask: the edge's head is in the boost set."""
        _src, _dst, _eb, _globals, head_globals = self._edge_arrays()
        if not boost or head_globals.size == 0:
            return np.zeros(head_globals.size, dtype=bool)
        return np.isin(head_globals, np.fromiter(boost, dtype=np.int64))

    def _forward_reachable(self, boosted_heads: np.ndarray) -> np.ndarray:
        """Nodes reachable from the super-seed via traversable edges."""
        src, dst, edge_boost, _globals, _hg = self._edge_arrays()
        traversable = ~edge_boost | boosted_heads
        reached = np.zeros(self.num_nodes, dtype=bool)
        reached[0] = True
        return grow_reachable(src, dst, reached, traversable)

    def _backward_reachable(self, boosted_heads: np.ndarray) -> np.ndarray:
        """Nodes from which the root is reachable via traversable edges.

        The edge ``u -> v`` is traversable when live, or when its head ``v``
        is boosted.
        """
        src, dst, edge_boost, _globals, _hg = self._edge_arrays()
        traversable = ~edge_boost | boosted_heads
        reached = np.zeros(self.num_nodes, dtype=bool)
        reached[self.root_local] = True
        return grow_reachable(dst, src, reached, traversable)

    def f(self, boost: AbstractSet[int]) -> bool:
        """Evaluate ``f_R(B)``: root activated upon boosting ``B``.

        Always ``False`` for non-boostable graphs (activated roots need no
        boost; hopeless roots cannot be activated with ``≤ k`` boosts).
        """
        if not self.is_boostable:
            return False
        boosted_heads = self._boosted_heads(boost)
        return bool(self._forward_reachable(boosted_heads)[self.root_local])

    def f_lower(self, boost: AbstractSet[int]) -> bool:
        """Evaluate ``f⁻_R(B) = I(B ∩ C_R ≠ ∅)`` (the submodular proxy)."""
        if not self.is_boostable:
            return False
        return not self.critical.isdisjoint(boost)

    def frontier_nodes(self, boost: AbstractSet[int]) -> FrozenSet[int]:
        """Heads of boost edges leaving the super-seed's reachable region.

        Boosting any of them strictly enlarges the region even when no
        single node activates the root outright — the tie-break the greedy
        ``Δ̂`` selection uses to make progress on supermodular chains, where
        every single-node marginal gain is zero.
        """
        if not self.is_boostable:
            return frozenset()
        boosted_heads = self._boosted_heads(boost)
        forward = self._forward_reachable(boosted_heads)
        if forward[self.root_local]:
            return frozenset()
        src, dst, edge_boost, _globals, head_globals = self._edge_arrays()
        crossing = edge_boost & forward[src] & ~forward[dst] & ~boosted_heads
        return frozenset(np.unique(head_globals[crossing]).tolist())

    def activating_nodes(self, boost: AbstractSet[int]) -> FrozenSet[int]:
        """``A_R(B) = {v : f_R(B ∪ {v}) = 1}`` — single-node completions.

        Computed with two linear traversals: let ``Z`` be the super-seed's
        forward-traversable region and ``Y`` the root's backward region;
        adding ``v`` helps exactly when some live-upon-boost edge crosses
        from ``Z`` into ``v ∈ Y`` (a simple path enters ``v`` once, so only
        one of ``v``'s boost in-edges can be on it).

        Returns an empty set when the root is already activated by ``B``.
        ``A_R(∅)`` is exactly the critical set ``C_R``.
        """
        if not self.is_boostable:
            return frozenset()
        boosted_heads = self._boosted_heads(boost)
        forward = self._forward_reachable(boosted_heads)
        if forward[self.root_local]:
            return frozenset()
        backward = self._backward_reachable(boosted_heads)
        src, dst, edge_boost, _globals, head_globals = self._edge_arrays()
        crossing = edge_boost & forward[src] & backward[dst] & ~boosted_heads
        return frozenset(np.unique(head_globals[crossing]).tolist())


# ----------------------------------------------------------------------
# Sampling (engine-backed)
# ----------------------------------------------------------------------
def prr_graph_from_phase1(result: PhaseOneResult, k: int) -> PRRGraph:
    """Assemble a :class:`PRRGraph` from a raw phase-I exploration."""
    arena = PRRArena(1)  # n only guards merges; this arena is never merged
    arena.add_phase1(result, k)
    return arena[0]


def sample_prr_graph(
    graph: DiGraph,
    seeds: AbstractSet[int],
    k: int,
    rng: np.random.Generator,
    root: int | None = None,
    world_seed: int | None = None,
) -> PRRGraph:
    """Sample one PRR-graph (Algorithm 1 + Phase-II compression).

    Parameters mirror the paper: ``k`` drives the distance pruning (paths
    needing more than ``k`` live-upon-boost edges can never become live).
    ``world_seed`` (optional) fixes the entire deterministic world by
    hashing, so repeated calls with the same seed and root see identical
    edge states regardless of ``k`` — used by paired ablations.
    """
    engine = SamplingEngine.for_graph(graph)
    r = int(rng.integers(graph.n)) if root is None else int(root)
    seed_set = seeds if isinstance(seeds, frozenset) else frozenset(int(s) for s in seeds)
    if r in seed_set:
        return PRRGraph(root=r, status=ACTIVATED)
    result = engine.prr_phase1(
        engine.seeds_mask(seed_set), r, k, rng=rng, world_seed=world_seed
    )
    return prr_graph_from_phase1(result, k)


def sample_prr_batch(
    graph: DiGraph,
    seeds: AbstractSet[int],
    k: int,
    rng: np.random.Generator,
    count: int,
    roots: Sequence[int] | None = None,
) -> List[PRRGraph]:
    """Sample ``count`` PRR-graphs, looping phase I over one shared engine.

    Equivalent to ``count`` :func:`sample_prr_graph` calls on the same RNG;
    the engine's stamp buffers and seed mask are reused across the batch.
    """
    engine = SamplingEngine.for_graph(graph)
    mask = engine.seeds_mask(seeds)
    out: List[PRRGraph] = []
    for i in range(count):
        r = int(rng.integers(graph.n)) if roots is None else int(roots[i])
        if mask[r]:
            out.append(PRRGraph(root=r, status=ACTIVATED))
            continue
        result = engine.prr_phase1(mask, r, k, rng=rng)
        out.append(prr_graph_from_phase1(result, k))
    return out


def sample_prr_lanes(
    graph: DiGraph,
    seeds: AbstractSet[int],
    k: int,
    rng: Optional[np.random.Generator],
    count: int,
    roots: Sequence[int] | None = None,
    world_seeds: Sequence[int] | None = None,
    arena: Optional[PRRArena] = None,
) -> PRRArena:
    """Sample ``count`` PRR-graphs with the multi-source lane kernel.

    Sample ``i``'s world is fixed by hashing its world seed, so it is
    bit-for-bit the graph :func:`sample_prr_graph` returns for
    ``root=roots[i], world_seed=world_seeds[i]`` (``tests/test_lanes.py``
    pins this), whatever the batch it rides in.  Roots and world seeds
    not passed in are two upfront draws from ``rng``
    (:func:`~repro.engine.lanes.draw_lane_inputs`) — a different, equally
    valid stream than :func:`sample_prr_arena`, which stays the
    RNG-consumption oracle.  Each lane batch runs phase I on the engine
    and is compressed into arena payload arrays by :func:`compress_lanes`,
    one pass per slice of at most :data:`COMPRESS_SLICE_EDGES` phase-I
    edges; no per-sample Python objects.  A batch holds as many roots as
    fit :data:`~repro.engine.lanes.LANE_BYTES` with their int16 plane
    (two bytes per lane and node) and :data:`_PRR_EDGE_BYTES` per phase-I
    edge a lane of the call's earlier batches kept on average — at most
    four times their lanes; before the first batch, per edge of the
    graph.
    """
    engine = SamplingEngine.for_graph(graph)
    mask = engine.seeds_mask(seeds)
    n = graph.n
    all_roots, all_seeds = draw_lane_inputs(rng, n, count, roots, world_seeds)
    parts = []
    lo = kept = 0
    while lo < count:
        # Transients per lane: before the first batch, every edge of the
        # graph once; then the mean kept edges of the batches so far,
        # trusted for at most four times as many lanes as they hold.
        if lo:
            width = min(4 * lo, batch_lanes(n, "prr", _PRR_EDGE_BYTES * kept / lo))
        else:
            width = batch_lanes(n, "prr", _PRR_EDGE_BYTES * graph.m)
        hi = min(count, lo + width)
        ph = engine.prr_phase1_lanes(mask, all_roots[lo:hi], k, all_seeds[lo:hi])
        dist = engine.lane_arena(2 * (hi - lo) * n).view(np.int16)
        parts += [
            (n, *compress_lanes(part, k, n, dist))
            for part in ph.slices(COMPRESS_SLICE_EDGES)
        ]
        kept += int(ph.edge_indptr[-1])
        lo = hi
    if arena is None:
        return PRRArena.from_payloads(parts) if parts else PRRArena(graph.n)
    if parts:
        arena.extend_arena(PRRArena.from_payloads(parts))
    return arena


def sample_critical_set(
    graph: DiGraph,
    seeds: AbstractSet[int],
    rng: np.random.Generator,
    root: int | None = None,
) -> Tuple[str, FrozenSet[int], int]:
    """Sample only the critical node set ``C_R`` (PRR-Boost-LB fast path).

    A node is critical when a seed-to-root path exists with exactly one
    live-upon-boost edge whose head is that node, so the backward search can
    stop at distance 1 regardless of ``k`` (Section V-C).

    Returns ``(status, critical_set, explored_edges)``; the critical set is
    empty for activated/hopeless roots, which still count as samples for the
    ``μ̂`` estimator.
    """
    return SamplingEngine.for_graph(graph).critical_set(seeds, rng, root=root)


def sample_critical_batch(
    graph: DiGraph,
    seeds: AbstractSet[int],
    rng: np.random.Generator,
    count: int,
) -> List[Tuple[str, FrozenSet[int], int]]:
    """Sample ``count`` critical sets on one shared engine (lane-driven;
    :meth:`~repro.engine.SamplingEngine.critical_set` is the oracle)."""
    return SamplingEngine.for_graph(graph).sample_critical_batch(seeds, rng, count)


# ----------------------------------------------------------------------
# Phase II compression, one vectorized pass per lane batch
# ----------------------------------------------------------------------
_EMPTY_EB = np.empty(0, dtype=bool)


def _lookup(keys: np.ndarray, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(index, found)`` of ``queries`` in the sorted unique ``keys``."""
    idx = np.searchsorted(keys, queries)
    found = idx < keys.size
    found[found] = keys[idx[found]] == queries[found]
    return idx, found


def _bfs01(
    dist: np.ndarray,
    n: int,
    num: int,
    sources: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    boost: np.ndarray,
    k: int,
    touched: list,
) -> None:
    """0-1 shortest distances ``<= k`` from ``sources`` along the key-space
    edges ``tails -> heads`` (weight 1 on ``boost`` edges), written into
    the :data:`~repro.engine.traversal.DIST_BASE`-encoded int16 plane
    ``dist`` (zero, unreached, except at ``sources``, at distance 0) for
    keys ``lane * n + node`` of ``num`` lanes.  Every key written is
    appended to ``touched``.

    Dial's algorithm with every lane at its own level, as in the phase-I
    lane kernel (:func:`~repro.engine.traversal.next_level_frontier`).
    """
    size = tails.size
    if size == 0:
        return
    # Group the edges by tail: one sort of (tail, position) keys.
    key = tails * size
    key += np.arange(size)
    key.sort()
    tails, order = np.divmod(key, size)
    del key
    heads = heads[order]
    boost = boost[order]
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(tails[1:], tails[:-1], out=first[1:])
    run_indptr = np.append(np.flatnonzero(first), size)
    run_keys = tails[run_indptr[:-1]]
    del tails, order, first
    level = np.zeros(num, dtype=np.int64)
    pool = _EMPTY_IDS
    f = sources
    while f.size:
        f = unique_sorted(f)
        ri, found = _lookup(run_keys, f)
        pos, _counts = frontier_edge_positions(run_indptr, ri[found])
        h = heads.take(pos)
        w = boost.take(pos)
        e_level = level.take(h // n)
        e_code = DIST_BASE - e_level
        upd = dist[h] < e_code - w
        upd &= ~w | (e_level < k)  # a boost edge at level k leads past k
        # Boost writes first, so a key reached both ways keeps the live
        # distance.
        step = np.flatnonzero(upd & w)
        nxt = h.take(step)
        dist[nxt] = e_code.take(step) - 1
        step = np.flatnonzero(upd & ~w)
        live = h.take(step)
        dist[live] = e_code.take(step)
        touched += [nxt, live]
        f, pool = next_level_frontier(dist, n, level, f // n, live, pool, nxt)


def compress_lanes(
    ph: LanePhase1, k: int, n: int, dist: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Phase II for a whole lane batch: merge the super-seed, prune,
    shortcut and clean up every boostable lane's phase-I graph at once.

    Returns the batch's arena payload arrays, in
    ``PRRArena.payload()[1:]`` order.  Each graph comes out as the
    paper's Figure 2 compression: local id 0 is the super-seed, the
    other nodes are numbered in global id order, edges are sorted by
    ``(src, dst, boost)`` with the super-seed's out-edges last.  Lanes
    live in disjoint ``lane * n + node`` key ranges (the Δ̂ kernels'
    trick), so both 0-1 BFS passes, the dedupe and the cleanup run over
    all lanes together.  ``dist`` is an all-zero int16 scratch plane of
    at least ``lanes * n`` entries, read and written
    :data:`~repro.engine.traversal.DIST_BASE`-encoded; it is zeroed
    again on return.
    """
    num = int(ph.roots.size)
    roots = ph.roots
    lane_ids = np.arange(num, dtype=np.int64)
    e_counts = np.diff(ph.edge_indptr)
    s_counts = np.diff(ph.seed_indptr)
    status = np.where(
        ph.activated, CODE_ACTIVATED, np.where(s_counts == 0, CODE_HOPELESS, CODE_BOOSTABLE)
    ).astype(np.int8)
    un_nodes = np.where(ph.activated, 0, ph.node_count).astype(np.int64)
    un_edges = np.where(ph.activated, 0, e_counts).astype(np.int64)
    root_keys = lane_ids * n + roots

    boostable = status == CODE_BOOSTABLE
    if not boostable.any():  # nothing to compress (most single samples)
        no_ids = np.empty(0, dtype=np.int32)
        return (
            roots, status, np.full(num, -1, dtype=np.int64), un_nodes, un_edges,
            np.zeros(num + 1, dtype=np.int64), no_ids,
            np.zeros(num + 1, dtype=np.int64), no_ids, no_ids, _EMPTY_EB,
            np.zeros(num + 1, dtype=np.int64), no_ids,
        )

    # Phase-I edges and seeds of the boostable lanes, as key-space arrays.
    use = np.repeat(boostable, e_counts)
    base = np.repeat(lane_ids[boostable] * n, e_counts[boostable])
    tails = base + ph.edge_src[use]
    heads = base + ph.edge_dst[use]
    w = ph.edge_boost[use]
    del use, base
    seed_keys = np.repeat(lane_ids[boostable] * n, s_counts[boostable])
    seed_keys += ph.seed_nodes[np.repeat(boostable, s_counts)]

    # d_seed: min #boost edges from any seed (forward), capped at k.
    touched = [seed_keys]
    dist[seed_keys] = DIST_BASE  # distance 0
    try:
        _bfs01(dist, n, num, seed_keys, tails, heads, w, k, touched)
        ds_tail = DIST_BASE - dist[tails]
        ds_head = DIST_BASE - dist[heads]
        ds_root = DIST_BASE - dist[root_keys]
    finally:
        for chunk in touched:
            dist[chunk] = 0
    # Defensive (phase I catches live seed->root paths): a root in the
    # merged region is activated.  A root more than k boosts from every
    # seed makes its graph hopeless.
    hit = (status == CODE_BOOSTABLE) & (ds_root == 0)
    status[hit] = CODE_ACTIVATED
    un_nodes[hit] = 0
    un_edges[hit] = 0
    status[(status == CODE_BOOSTABLE) & (ds_root > k)] = CODE_HOPELESS
    boostable = status == CODE_BOOSTABLE

    # From here on only edges between nodes within k boosts of a seed,
    # into the unmerged region, can matter: a node on a path through any
    # other edge is more than k boosts from the seeds and the root.
    useful = (ds_head != 0) & (ds_head <= k) & (ds_tail <= k)
    useful &= boostable[tails // n]
    tails, heads, w = tails[useful], heads[useful], w[useful]
    ds_tail, ds_head = ds_tail[useful], ds_head[useful]
    el = tails // n
    merged_tail = ds_tail == 0

    # d'_root: min #boost edges to the root avoiding the merged region —
    # a backward pass over reversed edges that never enters it.
    start = root_keys[boostable]
    touched = [start]
    dist[start] = DIST_BASE  # distance 0
    try:
        rev = ~merged_tail
        _bfs01(dist, n, num, start, heads[rev], tails[rev], w[rev], k, touched)
        dr_tail = DIST_BASE - dist[tails]
        dr_head = DIST_BASE - dist[heads]
    finally:
        for chunk in touched:
            dist[chunk] = 0

    # Critical nodes: boost edge from the merged region into v, plus a
    # live path from v to the root (both measured before the shortcut
    # rewrite).
    crit = unique_sorted(heads[w & merged_tail & (dr_head == 0)])

    # Nodes on a <= k-boost super-seed -> root path.
    kept_tail = ~merged_tail & (dr_tail <= k - ds_tail)
    kept_head = dr_head <= k - ds_head
    lane_root = root_keys[el]
    # The live-shortcut rule: a non-root node with a live path to the root
    # keeps no out-edges and gains a direct live edge to the root.
    short_tail = kept_tail & (dr_tail == 0) & (tails != lane_root)
    short_head = kept_head & (dr_head == 0) & (heads != lane_root)
    keep = (merged_tail | (kept_tail & ~short_tail)) & kept_head & (tails != lane_root)
    shortcut = unique_sorted(np.concatenate([tails[short_tail], heads[short_head]]))

    # Deduplicate (lane, src, dst, boost) in one sort, over node ids
    # n + 1 wide so the super-seed (id n) sorts after every real source.
    m = n + 1
    e_lane = el[keep]
    e_src = np.where(merged_tail[keep], n, tails[keep] - e_lane * n)
    enc = ((e_lane * m + e_src) * m + (heads[keep] - e_lane * n)) * 2 + w[keep]
    s_lane, s_node = np.divmod(shortcut, n)
    enc_short = ((s_lane * m + s_node) * m + roots[s_lane]) * 2
    enc = unique_sorted(np.concatenate([enc, enc_short]))
    e_boost = (enc & 1).astype(bool)
    pair = enc >> 1
    src_key = pair // m  # lane * m + src
    dst_key = src_key - src_key % m + pair % m  # lane * m + dst

    # Cleanup: keep only nodes on super-seed -> root paths, over compact
    # ids of the nodes left.  The root stays alive exactly when the
    # super-seed reaches it (which keeps the super-seed alive too); a
    # lane where it does not is hopeless and keeps no alive node.
    nodes = unique_sorted(np.concatenate([src_key, dst_key]))
    src_id = np.searchsorted(nodes, src_key)
    dst_id = np.searchsorted(nodes, dst_key)
    from_super = nodes % m == n
    grow_reachable(src_id, dst_id, from_super)
    root_id, root_in = _lookup(nodes, lane_ids * m + roots)
    root_in &= boostable
    to_root = np.zeros(nodes.size, dtype=bool)
    to_root[root_id[root_in]] = True
    grow_reachable(dst_id, src_id, to_root)
    alive = from_super & to_root
    root_alive = np.zeros(num, dtype=bool)
    root_alive[root_in] = alive[root_id[root_in]]
    status[boostable & ~root_alive] = CODE_HOPELESS
    boostable = status == CODE_BOOSTABLE

    # Local ids: super-seed 0, the rest in global id order.
    real = alive & (nodes % m != n)
    real_lane, real_node = np.divmod(nodes[real], m)
    real_counts = np.bincount(real_lane, minlength=num)
    local = np.zeros(nodes.size, dtype=np.int64)
    firsts = np.cumsum(real_counts) - real_counts
    local[real] = np.arange(real_lane.size) - firsts[real_lane] + 1
    node_counts = np.where(boostable, real_counts + 1, 0)
    node_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(node_counts, out=node_indptr[1:])
    node_globals = np.full(int(node_indptr[-1]), -1, dtype=np.int32)
    node_globals[node_indptr[real_lane] + local[real]] = real_node

    live_edge = alive[src_id] & alive[dst_id]
    edge_counts = np.bincount(src_key[live_edge] // m, minlength=num)
    edge_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(edge_counts, out=edge_indptr[1:])
    root_local = np.full(num, -1, dtype=np.int64)
    root_local[boostable] = local[root_id[boostable]]

    crit_lane, crit = np.divmod(crit[boostable[crit // n]], n)
    crit_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(np.bincount(crit_lane, minlength=num), out=crit_indptr[1:])
    return (
        roots,
        status,
        root_local,
        un_nodes,
        un_edges,
        node_indptr,
        node_globals,
        edge_indptr,
        local[src_id[live_edge]].astype(np.int32),
        local[dst_id[live_edge]].astype(np.int32),
        e_boost[live_edge],
        crit_indptr,
        crit.astype(np.int32),
    )


# ----------------------------------------------------------------------
# PRRArena: a whole collection in shared flat arrays
# ----------------------------------------------------------------------
_STATUS_CODE = {ACTIVATED: 0, HOPELESS: 1, BOOSTABLE: 2}
_STATUS_NAME = (ACTIVATED, HOPELESS, BOOSTABLE)
_CODE_BOOSTABLE = 2


class PRRArena:
    """All compressed PRR-graphs of a collection, stored flat.

    Canonical storage (one entry per graph ``i`` of ``len(self)``):

    * ``roots``/``status``/``root_local``/``uncomp_nodes``/``uncomp_edges``
      — per-graph scalars (``status`` is an int8 code, see
      ``status_names``),
    * ``node_indptr`` → ``node_globals`` — the local→global node map
      (int32; slot 0 of every boostable graph is the merged super-seed,
      stored as ``-1``),
    * ``edge_indptr`` → ``edge_src_local``/``edge_dst_local``/``edge_boost``
      — edges in *graph-local* ids (so arenas merge by plain
      concatenation),
    * ``crit_indptr`` → ``crit_nodes`` — the critical node sets ``C_R``.

    Derived, cached per consolidation: arena-global edge endpoints
    (local id + the graph's node base), per-edge head global ids and graph
    ids, per-graph root positions — the arrays the vectorized selection
    kernels in :mod:`repro.core.estimator` run on.  Appends buffer into
    Python lists and consolidate lazily, so building an arena during IMM
    sampling is O(sample size) amortized.

    The arena is a read-only sequence of :class:`PRRGraph` views:
    ``arena[i]`` materializes graph ``i`` on demand (compat with every
    object-based caller), and ``payload()``/``from_payload`` move whole
    collections between processes as a handful of large arrays.
    """

    status_names = _STATUS_NAME

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.clear()

    def clear(self) -> None:
        """Reset to the empty state (equivalent to a fresh arena over ``n``).

        The one definition of "empty": ``__init__`` delegates here, and
        warm facades (:class:`repro.api.Session`) call it to recycle one
        arena across queries — a cleared arena is indistinguishable from
        a new one to the samplers and estimators.
        """
        self._roots = np.empty(0, dtype=np.int64)
        self._status = np.empty(0, dtype=np.int8)
        self._root_local = np.empty(0, dtype=np.int64)
        self._un_nodes = np.empty(0, dtype=np.int64)
        self._un_edges = np.empty(0, dtype=np.int64)
        self._node_indptr = np.zeros(1, dtype=np.int64)
        self._node_globals = np.empty(0, dtype=np.int32)
        self._edge_indptr = np.zeros(1, dtype=np.int64)
        self._edge_src = np.empty(0, dtype=np.int32)
        self._edge_dst = np.empty(0, dtype=np.int32)
        self._edge_boost = np.empty(0, dtype=bool)
        self._crit_indptr = np.zeros(1, dtype=np.int64)
        self._crit_nodes = np.empty(0, dtype=np.int32)
        # Pending per-graph appends, consolidated lazily.
        self._p_scalars: List[Tuple[int, int, int, int, int]] = []
        self._p_nodes: List[np.ndarray] = []
        self._p_esrc: List[np.ndarray] = []
        self._p_edst: List[np.ndarray] = []
        self._p_eboost: List[np.ndarray] = []
        self._p_crit: List[np.ndarray] = []
        self._derived = None

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def _append(
        self,
        root: int,
        code: int,
        node_globals: np.ndarray,
        esrc: np.ndarray,
        edst: np.ndarray,
        eboost: np.ndarray,
        root_local: int,
        critical: np.ndarray,
        un_nodes: int,
        un_edges: int,
    ) -> None:
        self._p_scalars.append(
            (int(root), code, int(root_local), int(un_nodes), int(un_edges))
        )
        self._p_nodes.append(np.asarray(node_globals, dtype=np.int32))
        self._p_esrc.append(np.asarray(esrc, dtype=np.int32))
        self._p_edst.append(np.asarray(edst, dtype=np.int32))
        self._p_eboost.append(np.asarray(eboost, dtype=bool))
        self._p_crit.append(np.asarray(critical, dtype=np.int32))
        self._derived = None

    def add_activated(self, root: int) -> None:
        self._append(root, 0, _EMPTY_IDS, _EMPTY_IDS, _EMPTY_IDS, _EMPTY_EB, -1, _EMPTY_IDS, 0, 0)

    def add_phase1(self, result: PhaseOneResult, k: int) -> None:
        """Append one phase-I exploration, compressed as a one-lane batch
        of :func:`compress_lanes`."""
        lane = LanePhase1(
            roots=np.array([result.root], dtype=np.int64),
            activated=np.array([result.activated]),
            edge_indptr=np.array([0, result.edge_src.size], dtype=np.int64),
            edge_src=result.edge_src,
            edge_dst=result.edge_dst,
            edge_boost=result.edge_boost,
            seed_indptr=np.array([0, result.seeds_found.size], dtype=np.int64),
            seed_nodes=result.seeds_found,
            node_count=np.array([result.node_count], dtype=np.int64),
            explored=np.array([result.explored_edges], dtype=np.int64),
        )
        # The lane's key space is its own node ids; size the scratch
        # plane to the largest one instead of the graph.
        size = 1 + max(
            result.root,
            int(result.edge_src.max(initial=0)),
            int(result.edge_dst.max(initial=0)),
        )
        dist = np.zeros(size, dtype=np.int16)
        (roots, status, root_local, un_nodes, un_edges, _ni, node_globals,
         _ei, esrc, edst, eboost, _ci, crit) = compress_lanes(lane, k, size, dist)
        self._append(
            int(roots[0]), int(status[0]), node_globals, esrc, edst, eboost,
            int(root_local[0]), crit, int(un_nodes[0]), int(un_edges[0]),
        )

    def add_graph(self, prr: PRRGraph) -> None:
        """Append an existing :class:`PRRGraph` object."""
        code = _STATUS_CODE[prr.status]
        if code != _CODE_BOOSTABLE:
            self._append(
                prr.root, code, _EMPTY_IDS, _EMPTY_IDS, _EMPTY_IDS, _EMPTY_EB, -1,
                _EMPTY_IDS, prr.uncompressed_nodes, prr.uncompressed_edges,
            )
            return
        crit = np.fromiter(sorted(prr.critical), dtype=np.int32, count=len(prr.critical))
        self._append(
            prr.root,
            code,
            np.asarray(prr.node_globals, dtype=np.int32),
            np.asarray(prr.edge_src, dtype=np.int32),
            np.asarray(prr.edge_dst, dtype=np.int32),
            np.asarray(prr.edge_boost, dtype=bool),
            prr.root_local,
            crit,
            prr.uncompressed_nodes,
            prr.uncompressed_edges,
        )

    @classmethod
    def from_graphs(cls, n: int, graphs: Iterable[PRRGraph]) -> "PRRArena":
        arena = cls(n)
        for g in graphs:
            arena.add_graph(g)
        return arena

    # ------------------------------------------------------------------
    # Consolidation
    # ------------------------------------------------------------------
    @staticmethod
    def _cat(values: np.ndarray, chunks: List[np.ndarray], dtype) -> np.ndarray:
        return np.concatenate([values] + chunks).astype(dtype, copy=False)

    @staticmethod
    def _extend_indptr(
        indptr: np.ndarray, chunks: List[np.ndarray]
    ) -> np.ndarray:
        counts = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks))
        return np.concatenate([indptr, indptr[-1] + np.cumsum(counts)])

    def _commit(self) -> None:
        if not self._p_scalars:
            return
        scal = np.array(self._p_scalars, dtype=np.int64)
        self._roots = np.concatenate([self._roots, scal[:, 0]])
        self._status = np.concatenate(
            [self._status, scal[:, 1].astype(np.int8)]
        )
        self._root_local = np.concatenate([self._root_local, scal[:, 2]])
        self._un_nodes = np.concatenate([self._un_nodes, scal[:, 3]])
        self._un_edges = np.concatenate([self._un_edges, scal[:, 4]])
        self._node_indptr = self._extend_indptr(self._node_indptr, self._p_nodes)
        self._node_globals = self._cat(self._node_globals, self._p_nodes, np.int32)
        self._edge_indptr = self._extend_indptr(self._edge_indptr, self._p_esrc)
        self._edge_src = self._cat(self._edge_src, self._p_esrc, np.int32)
        self._edge_dst = self._cat(self._edge_dst, self._p_edst, np.int32)
        self._edge_boost = self._cat(self._edge_boost, self._p_eboost, bool)
        self._crit_indptr = self._extend_indptr(self._crit_indptr, self._p_crit)
        self._crit_nodes = self._cat(self._crit_nodes, self._p_crit, np.int32)
        self._p_scalars = []
        self._p_nodes = []
        self._p_esrc = []
        self._p_edst = []
        self._p_eboost = []
        self._p_crit = []
        self._derived = None

    # ------------------------------------------------------------------
    # Read access (consolidating lazily)
    # ------------------------------------------------------------------
    @property
    def num_graphs(self) -> int:
        return self._roots.size + len(self._p_scalars)

    def __len__(self) -> int:
        return self.num_graphs

    def __bool__(self) -> bool:
        # A sampled-but-empty arena is still truthy context-wise; mirror
        # list semantics instead (empty collection is falsy).
        return self.num_graphs > 0

    @property
    def roots(self) -> np.ndarray:
        self._commit()
        return self._roots

    @property
    def status_codes(self) -> np.ndarray:
        self._commit()
        return self._status

    @property
    def root_local(self) -> np.ndarray:
        self._commit()
        return self._root_local

    @property
    def uncomp_nodes(self) -> np.ndarray:
        self._commit()
        return self._un_nodes

    @property
    def uncomp_edges(self) -> np.ndarray:
        self._commit()
        return self._un_edges

    @property
    def node_indptr(self) -> np.ndarray:
        self._commit()
        return self._node_indptr

    @property
    def node_globals(self) -> np.ndarray:
        self._commit()
        return self._node_globals

    @property
    def edge_indptr(self) -> np.ndarray:
        self._commit()
        return self._edge_indptr

    @property
    def edge_src_local(self) -> np.ndarray:
        self._commit()
        return self._edge_src

    @property
    def edge_dst_local(self) -> np.ndarray:
        self._commit()
        return self._edge_dst

    @property
    def edge_boost(self) -> np.ndarray:
        self._commit()
        return self._edge_boost

    @property
    def crit_indptr(self) -> np.ndarray:
        self._commit()
        return self._crit_indptr

    @property
    def crit_nodes(self) -> np.ndarray:
        self._commit()
        return self._crit_nodes

    def flat(self):
        """The derived arena-global arrays the selection kernels run on.

        Returns a dict with ``node_base``, ``total_nodes``, ``edge_src`` /
        ``edge_dst`` (arena-global node positions), ``edge_head_global``
        (graph node id of each edge's head), ``edge_gid`` (owning graph of
        each edge), ``root_arena`` (arena position of each boostable
        graph's root, ``-1`` otherwise) and ``boostable`` (per-graph
        mask).  Cached until the next append.
        """
        self._commit()
        if self._derived is None:
            node_base = self._node_indptr[:-1]
            edge_counts = np.diff(self._edge_indptr)
            ebase = np.repeat(node_base, edge_counts)
            esrc = self._edge_src.astype(np.int64) + ebase
            edst = self._edge_dst.astype(np.int64) + ebase
            head_global = (
                self._node_globals[edst].astype(np.int64)
                if edst.size
                else _EMPTY_IDS
            )
            gcount = self._roots.size
            edge_gid = np.repeat(
                np.arange(gcount, dtype=np.int64), edge_counts
            )
            boostable = self._status == _CODE_BOOSTABLE
            root_arena = np.where(
                boostable, node_base + self._root_local, -1
            )
            crit_gid = np.repeat(
                np.arange(gcount, dtype=np.int64), np.diff(self._crit_indptr)
            )
            self._derived = {
                "node_base": node_base,
                "total_nodes": int(self._node_indptr[-1]),
                "edge_src": esrc,
                "edge_dst": edst,
                "edge_head_global": head_global,
                "edge_gid": edge_gid,
                "root_arena": root_arena,
                "boostable": boostable,
                "crit_gid": crit_gid,
            }
        return self._derived

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def critical_array(self, i: int) -> np.ndarray:
        """Critical node set of graph ``i`` as a sorted int32 array.

        Graphs still in the pending buffer are served directly — a
        sample-then-read loop (the single-sample ``SetSampler`` protocol)
        must not pay a full consolidation per sample.
        """
        if i < 0:
            i += self.num_graphs
        committed = self._roots.size
        if i >= committed:
            return self._p_crit[i - committed]
        return self._crit_nodes[self._crit_indptr[i] : self._crit_indptr[i + 1]]

    def critical_frozenset(self, i: int) -> FrozenSet[int]:
        return frozenset(self.critical_array(i).tolist())

    def critical_csr(self, start: int = 0, stop: Optional[int] = None):
        """``(counts, values)`` of the critical sets of graphs
        ``[start, stop)`` — the payload the μ maximization consumes."""
        self._commit()
        stop = self._roots.size if stop is None else stop
        lo, hi = int(self._crit_indptr[start]), int(self._crit_indptr[stop])
        counts = np.diff(self._crit_indptr[start : stop + 1])
        return counts, self._crit_nodes[lo:hi]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        self._commit()
        if i < 0:
            i += self._roots.size
        if not 0 <= i < self._roots.size:
            raise IndexError(i)
        code = int(self._status[i])
        if code != _CODE_BOOSTABLE:
            return PRRGraph(
                root=int(self._roots[i]),
                status=_STATUS_NAME[code],
                uncompressed_nodes=int(self._un_nodes[i]),
                uncompressed_edges=int(self._un_edges[i]),
            )
        nlo, nhi = self._node_indptr[i], self._node_indptr[i + 1]
        elo, ehi = self._edge_indptr[i], self._edge_indptr[i + 1]
        return PRRGraph(
            root=int(self._roots[i]),
            status=BOOSTABLE,
            node_globals=self._node_globals[nlo:nhi].tolist(),
            edge_src=self._edge_src[elo:ehi].tolist(),
            edge_dst=self._edge_dst[elo:ehi].tolist(),
            edge_boost=self._edge_boost[elo:ehi].tolist(),
            root_local=int(self._root_local[i]),
            critical=self.critical_frozenset(i),
            uncompressed_nodes=int(self._un_nodes[i]),
            uncompressed_edges=int(self._un_edges[i]),
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PRRArena({len(self)} graphs over n={self.n})"

    # ------------------------------------------------------------------
    # Merge / IPC
    # ------------------------------------------------------------------
    def extend_arena(self, other: "PRRArena") -> None:
        """Append all graphs of ``other`` (plain array concatenation)."""
        if other.n != self.n:
            raise ValueError("arena node counts differ")
        self._commit()
        other._commit()
        self._roots = np.concatenate([self._roots, other._roots])
        self._status = np.concatenate([self._status, other._status])
        self._root_local = np.concatenate([self._root_local, other._root_local])
        self._un_nodes = np.concatenate([self._un_nodes, other._un_nodes])
        self._un_edges = np.concatenate([self._un_edges, other._un_edges])
        self._node_globals = np.concatenate([self._node_globals, other._node_globals])
        self._node_indptr = np.concatenate(
            [self._node_indptr, self._node_indptr[-1] + other._node_indptr[1:]]
        )
        self._edge_src = np.concatenate([self._edge_src, other._edge_src])
        self._edge_dst = np.concatenate([self._edge_dst, other._edge_dst])
        self._edge_boost = np.concatenate([self._edge_boost, other._edge_boost])
        self._edge_indptr = np.concatenate(
            [self._edge_indptr, self._edge_indptr[-1] + other._edge_indptr[1:]]
        )
        self._crit_nodes = np.concatenate([self._crit_nodes, other._crit_nodes])
        self._crit_indptr = np.concatenate(
            [self._crit_indptr, self._crit_indptr[-1] + other._crit_indptr[1:]]
        )
        self._derived = None

    def payload(self) -> tuple:
        """The consolidated arrays — cheap to pickle across processes."""
        self._commit()
        return (
            self.n,
            self._roots,
            self._status,
            self._root_local,
            self._un_nodes,
            self._un_edges,
            self._node_indptr,
            self._node_globals,
            self._edge_indptr,
            self._edge_src,
            self._edge_dst,
            self._edge_boost,
            self._crit_indptr,
            self._crit_nodes,
        )

    @classmethod
    def from_payload(cls, payload: tuple) -> "PRRArena":
        arena = cls(payload[0])
        (
            _n,
            arena._roots,
            arena._status,
            arena._root_local,
            arena._un_nodes,
            arena._un_edges,
            arena._node_indptr,
            arena._node_globals,
            arena._edge_indptr,
            arena._edge_src,
            arena._edge_dst,
            arena._edge_boost,
            arena._crit_indptr,
            arena._crit_nodes,
        ) = payload
        return arena

    @classmethod
    def from_payloads(cls, payloads: Sequence[tuple]) -> "PRRArena":
        """Merge many payloads with one concatenation per array.

        Linear in total size — the merge path for chunked parallel
        generation (repeated :meth:`extend_arena` would re-copy the
        accumulated arrays once per chunk).
        """
        if not payloads:
            raise ValueError("need at least one payload")
        arena = cls(payloads[0][0])
        for p in payloads:
            if p[0] != arena.n:
                raise ValueError("arena node counts differ")
        # Payload layout: see payload().  Fields 1-5 are per-graph scalar
        # arrays, 6/8/12 are indptrs (offset before concatenation), the
        # rest are flat value arrays.
        for field_idx, attr in (
            (1, "_roots"), (2, "_status"), (3, "_root_local"),
            (4, "_un_nodes"), (5, "_un_edges"),
            (7, "_node_globals"), (9, "_edge_src"), (10, "_edge_dst"),
            (11, "_edge_boost"), (13, "_crit_nodes"),
        ):
            setattr(arena, attr, np.concatenate([p[field_idx] for p in payloads]))
        for field_idx, attr in (
            (6, "_node_indptr"), (8, "_edge_indptr"), (12, "_crit_indptr"),
        ):
            parts = [np.zeros(1, dtype=np.int64)]
            offset = 0
            for p in payloads:
                indptr = p[field_idx]
                parts.append(indptr[1:] + offset)
                offset += int(indptr[-1])
            setattr(arena, attr, np.concatenate(parts))
        return arena


def sample_prr_arena(
    graph: DiGraph,
    seeds: AbstractSet[int],
    k: int,
    rng: np.random.Generator,
    count: int,
    roots: Sequence[int] | None = None,
    arena: Optional[PRRArena] = None,
) -> PRRArena:
    """Sample ``count`` PRR-graphs straight into a :class:`PRRArena`.

    Consumes the RNG exactly like :func:`sample_prr_batch` (the two are
    interchangeable sample-for-sample); the arena path skips every
    per-graph Python object.
    """
    engine = SamplingEngine.for_graph(graph)
    mask = engine.seeds_mask(seeds)
    if arena is None:
        arena = PRRArena(graph.n)
    for i in range(count):
        r = int(rng.integers(graph.n)) if roots is None else int(roots[i])
        if mask[r]:
            arena.add_activated(r)
            continue
        arena.add_phase1(engine.prr_phase1(mask, r, k, rng=rng), k)
    return arena
