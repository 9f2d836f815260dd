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
in ``tests/test_lanes.py``) and compress straight into the arena.  This
module keeps the domain side:

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
* :func:`_compress_core` — phase II (super-seed merge, dead-node removal,
  live shortcut edges to the root) returning plain arrays, shared by the
  object path and the arena path so seeded equivalence is testable
  end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import SamplingEngine
from ..engine import world as engine_world
from ..engine.batch import ACTIVATED, BOOSTABLE, HOPELESS, PhaseOneResult
from ..engine.hashing import hash_draw as _hash_draw
from ..engine.lanes import draw_lane_inputs
from ..engine.traversal import grow_reachable

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
    if result.activated:
        return PRRGraph(root=result.root, status=ACTIVATED)
    if result.seeds_found.size == 0:
        return PRRGraph(
            root=result.root,
            status=HOPELESS,
            uncompressed_nodes=result.node_count,
            uncompressed_edges=int(result.edge_src.size),
        )
    return _graph_from_core(
        result.root,
        _compress_core(
            result.root,
            result.seeds_found,
            result.edge_src,
            result.edge_dst,
            result.edge_boost,
            k,
            result.node_count,
        ),
    )


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


def _extend_arena_from_lanes(arena: PRRArena, ph, k: int) -> None:
    """Append one lane batch to ``arena`` — phase-II compression straight
    from the lane output slices, no :class:`PhaseOneResult` objects."""
    edge_indptr = ph.edge_indptr
    seed_indptr = ph.seed_indptr
    for i in range(ph.roots.size):
        root = int(ph.roots[i])
        if ph.activated[i]:
            arena.add_activated(root)
            continue
        lo, hi = int(edge_indptr[i]), int(edge_indptr[i + 1])
        slo, shi = int(seed_indptr[i]), int(seed_indptr[i + 1])
        if shi == slo:
            arena.add_hopeless(root, int(ph.node_count[i]), hi - lo)
            continue
        arena.add_core(
            root,
            _compress_core(
                root,
                ph.seed_nodes[slo:shi],
                ph.edge_src[lo:hi],
                ph.edge_dst[lo:hi],
                ph.edge_boost[lo:hi],
                k,
                int(ph.node_count[i]),
            ),
        )


def sample_prr_lanes(
    graph: DiGraph,
    seeds: AbstractSet[int],
    k: int,
    rng: Optional[np.random.Generator],
    count: int,
    roots: Sequence[int] | None = None,
    world_seeds: Sequence[int] | None = None,
    arena: Optional[PRRArena] = None,
    lane_width: int = 64,
) -> PRRArena:
    """Sample ``count`` PRR-graphs with the multi-source lane kernel.

    ``lane_width`` roots advance per frontier step; each sample's world is
    fixed by hashing a per-lane seed, so sample ``i`` is bit-for-bit the
    graph :func:`sample_prr_graph` returns for ``root=roots[i],
    world_seed=world_seeds[i]`` (``tests/test_lanes.py`` pins this).
    Roots and world seeds not passed in are two upfront draws from
    ``rng`` (:func:`~repro.engine.lanes.draw_lane_inputs`) — a different,
    equally valid stream than :func:`sample_prr_arena`, which stays the
    RNG-consumption oracle.  Compression lands straight in the arena; no
    per-sample Python objects.
    """
    engine = SamplingEngine.for_graph(graph)
    mask = engine.seeds_mask(seeds)
    if arena is None:
        arena = PRRArena(graph.n)
    all_roots, all_seeds = draw_lane_inputs(rng, graph.n, count, roots, world_seeds)
    done = 0
    while done < count:
        b = min(lane_width, count - done)
        ph = engine.prr_phase1_lanes(
            mask, all_roots[done : done + b], k, all_seeds[done : done + b]
        )
        _extend_arena_from_lanes(arena, ph, k)
        done += b
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
# Phase II compression (vectorized over the collected edge arrays)
# ----------------------------------------------------------------------
_BIG = np.int64(1) << 40


def _bfs01_arrays(
    nn: int,
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray:
    """0-1 shortest distances from ``starts`` by scatter-min relaxation.

    Converges in O(diameter) passes of O(edges) vectorized work — the
    compressed graphs are small and shallow, so this beats the deque BFS
    it replaced by a wide margin.
    """
    dist = np.full(nn, _BIG, dtype=np.int64)
    dist[starts] = 0
    while True:
        cand = dist[tails] + weights
        relax = cand < dist[heads]
        if not relax.any():
            return dist
        np.minimum.at(dist, heads[relax], cand[relax])


# ``_compress_core`` return shape: (status, node_globals, edge_src,
# edge_dst, edge_boost, root_local, critical, uncompressed_nodes,
# uncompressed_edges) — plain arrays, consumed by both the PRRGraph
# object path and the PRRArena append path.
_CoreResult = Tuple[
    str, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, np.ndarray, int, int
]
_EMPTY_EB = np.empty(0, dtype=bool)


def _core_non_boostable(
    status: str, un_nodes: int, un_edges: int
) -> _CoreResult:
    return (status, _EMPTY_IDS, _EMPTY_IDS, _EMPTY_IDS, _EMPTY_EB, -1, _EMPTY_IDS, un_nodes, un_edges)


def _graph_from_core(root: int, core: _CoreResult) -> PRRGraph:
    """Materialize a :class:`PRRGraph` object from ``_compress_core`` output."""
    status, ng, es, ed, eb, rl, crit, un_nodes, un_edges = core
    if status == ACTIVATED:
        return PRRGraph(root=root, status=ACTIVATED)
    if status == HOPELESS:
        return PRRGraph(
            root=root,
            status=HOPELESS,
            uncompressed_nodes=un_nodes,
            uncompressed_edges=un_edges,
        )
    return PRRGraph(
        root=root,
        status=BOOSTABLE,
        node_globals=ng.tolist(),
        edge_src=es.tolist(),
        edge_dst=ed.tolist(),
        edge_boost=eb.tolist(),
        root_local=rl,
        critical=frozenset(crit.tolist()),
        uncompressed_nodes=un_nodes,
        uncompressed_edges=un_edges,
    )


def _compress_core(
    r: int,
    seeds_found: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    boost: np.ndarray,
    k: int,
    uncompressed_nodes: int,
) -> _CoreResult:
    """Phase II: merge the super-seed, prune, shortcut, and clean up.

    Operates on the phase-I edge arrays with a compacted local id space;
    the super-seed is local id ``nn`` during the rewrite and becomes 0 in
    the output, matching the paper's Figure 2 compression.  Returns plain
    arrays (see ``_CoreResult``) so the arena path never constructs
    Python lists.
    """
    num_edges = int(src.size)
    nodes = np.unique(np.concatenate([src, dst, seeds_found, [r]]))
    nn = int(nodes.size)
    ls = np.searchsorted(nodes, src)
    ld = np.searchsorted(nodes, dst)
    lseeds = np.searchsorted(nodes, seeds_found)
    lr = int(np.searchsorted(nodes, r))
    wi = boost.astype(np.int64)

    def hopeless() -> _CoreResult:
        return _core_non_boostable(HOPELESS, uncompressed_nodes, num_edges)

    # dS: min #boost-edges from any seed (forward direction).
    d_seed = _bfs01_arrays(nn, ls, ld, wi, lseeds)
    if d_seed[lr] == 0:  # defensive; Phase I should have caught this
        return _core_non_boostable(ACTIVATED, 0, 0)
    merged = d_seed == 0

    # d'_r: min #boost-edges to the root avoiding the super-seed — a
    # backward relaxation over reversed edges that never enters the merged
    # region.
    rev = ~merged[ls]
    d_root = _bfs01_arrays(
        nn, ld[rev], ls[rev], wi[rev], np.array([lr], dtype=np.int64)
    )

    # Critical nodes: boost edge from the merged region into v, plus a live
    # path from v to the root (both measured before the shortcut rewrite).
    crit_edges = boost & merged[ls] & ~merged[ld] & (d_root[ld] == 0)
    critical = nodes[np.unique(ld[crit_edges])]

    # Nodes that can sit on a <=k-boost path from super-seed to root.
    kept = ~merged & (d_seed + d_root <= k)
    if not kept[lr]:
        # Root unreachable within budget after exact accounting.
        return hopeless()

    # Rebuild edges over {super-seed} ∪ kept, applying the live-shortcut
    # rule: a non-root node with a live path to the root keeps no out-edges
    # and gains a direct live edge to the root.
    shortcut = kept & (d_root == 0)
    shortcut[lr] = False
    src_merged = merged[ls]
    keep_edge = (
        (src_merged | (kept[ls] & ~shortcut[ls])) & kept[ld] & (ls != lr)
    )
    super_id = nn  # local id of the super-seed during the rewrite
    src_key = np.where(src_merged[keep_edge], super_id, ls[keep_edge])
    # Deduplicate (src, dst, boost) triples via integer encoding.
    enc = (src_key * (nn + 1) + ld[keep_edge]) * 2 + wi[keep_edge]
    shortcut_ids = np.flatnonzero(shortcut)
    enc = np.unique(
        np.concatenate([enc, (shortcut_ids * (nn + 1) + lr) * 2])
    )
    e_pair = enc >> 1
    e_src = e_pair // (nn + 1)
    e_dst = e_pair % (nn + 1)
    e_boost = (enc & 1).astype(bool)

    # Cleanup: keep only nodes on super-seed -> root paths.
    from_super = np.zeros(nn + 1, dtype=bool)
    from_super[super_id] = True
    grow_reachable(e_src, e_dst, from_super)
    to_root = np.zeros(nn + 1, dtype=bool)
    to_root[lr] = True
    grow_reachable(e_dst, e_src, to_root)
    alive = from_super & to_root
    if not (alive[lr] and alive[super_id]):
        return hopeless()
    edge_alive = alive[e_src] & alive[e_dst]

    # Local id assignment: super-seed = 0, the rest ordered by global id.
    alive_real = np.flatnonzero(alive[:nn])
    local_out = np.zeros(nn + 1, dtype=np.int64)
    local_out[alive_real] = np.arange(1, alive_real.size + 1)
    local_out[super_id] = 0

    node_globals = np.concatenate(
        [np.array([-1], dtype=np.int64), nodes[alive_real]]
    )
    return (
        BOOSTABLE,
        node_globals,
        local_out[e_src[edge_alive]],
        local_out[e_dst[edge_alive]],
        e_boost[edge_alive],
        int(local_out[lr]),
        critical,
        uncompressed_nodes,
        num_edges,
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

    def add_hopeless(self, root: int, un_nodes: int, un_edges: int) -> None:
        self._append(
            root, 1, _EMPTY_IDS, _EMPTY_IDS, _EMPTY_IDS, _EMPTY_EB, -1, _EMPTY_IDS, un_nodes, un_edges
        )

    def add_core(self, root: int, core: _CoreResult) -> None:
        """Append one ``_compress_core`` result."""
        status, ng, es, ed, eb, rl, crit, un_nodes, un_edges = core
        if status == ACTIVATED:
            self.add_activated(root)
        elif status == HOPELESS:
            self.add_hopeless(root, un_nodes, un_edges)
        else:
            self._append(root, 2, ng, es, ed, eb, rl, crit, un_nodes, un_edges)

    def add_phase1(self, result: PhaseOneResult, k: int) -> None:
        """Append one phase-I exploration, compressing when boostable.

        Mirrors :func:`prr_graph_from_phase1` without constructing a
        :class:`PRRGraph`.
        """
        if result.activated:
            self.add_activated(result.root)
            return
        if result.seeds_found.size == 0:
            self.add_hopeless(
                result.root, result.node_count, int(result.edge_src.size)
            )
            return
        self.add_core(
            result.root,
            _compress_core(
                result.root,
                result.seeds_found,
                result.edge_src,
                result.edge_dst,
                result.edge_boost,
                k,
                result.node_count,
            ),
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
