"""Multi-source lane-parallel traversal kernels.

The single-sample engine paths spend most of their time in per-BFS-level
numpy call overhead: a sparse RR-set or critical-set traversal touches a
handful of edges per level, so the ~µs fixed cost of every vectorized op
dwarfs the actual array work.  The kernels here amortize that cost by
advancing ``B`` roots ("lanes") per frontier step at once over the shared
CSR: all per-level operations run on the *union* of the lanes' frontiers,
flattened into one index space of ``lane * n + node`` keys over stacked
``(B, n)`` stamp planes.

Independence across lanes comes from per-lane splitmix64 world hashing
(:func:`repro.engine.world.lane_uniforms`): lane ``b``'s edge states are a
pure function of ``(lane_seeds[b], u, v)``, i.e. each lane samples the
deterministic world fixed by its seed.  Two consequences:

* traversal order is free — merging lanes into shared frontier steps
  cannot change any lane's sample, which is what makes lane batching
  *exact* rather than approximate;
* a lane's sample is bit-for-bit the one the single-sample engine draws
  for the same ``world_seed``, so world-seeded lane PRR sampling is pinned
  to :func:`repro.core.prr.sample_prr_graph` (``tests/test_lanes.py``),
  while RNG-driven callers get fresh hashed worlds per sample — a
  different, equally valid stream with the same distribution as the
  single-sample RNG paths (the seeded distributional oracles).

The seed-independent part of every edge's hash input is precomputed per
graph (:attr:`SamplingEngine._in_hash`, via
:func:`repro.engine.hashing.edge_hash_base`), so a lane draw is one
gather + multiply-add + finalizer over the frontier slice.  The RR kernel
additionally compares raw 64-bit hashes against precomputed integer
thresholds ``round(p · 2^64)`` instead of converting to float — the same
Bernoulli(p) draw to within 2^-53, taken where no bit-parity contract
exists; the PRR kernels keep the exact float comparison of
:func:`~repro.engine.hashing.hash_draw`.

RNG-driven backward draws take every sample's ``(root, world_seed)``
pair from the generator upfront (:func:`draw_lane_inputs`, the one
definition of that consumption order); after that, sample ``i`` is a
pure function of its pair, however the pairs are sliced into lane
batches, pool chunks or remote jobs.

A lane batch holds as many lanes as fit :data:`LANE_BYTES` of scratch
(:func:`batch_lanes`, at least one): :data:`ENTRY_BYTES` per ``(lane,
node)`` entry of the kernel's planes, plus, for PRR batches, an estimate
of the batch's transient arrays per lane.  Wider batches share their
frontier passes among more roots, so they cost fewer passes per sample.
Every plane is a view of the engine's one zero-filled scratch buffer
(:meth:`~repro.engine.batch.SamplingEngine.lane_arena`), as bool, int16
or float64, so an engine's lane scratch stays within the budget
whatever mix of kernels runs.  A zero byte means idle: every kernel
zeroes the entries it set before returning, also when it raises, and
int16 distance planes are :data:`~repro.engine.traversal.DIST_BASE`
encoded so that zero reads as unreached.

Kernels (each takes the owning :class:`~repro.engine.batch.SamplingEngine`
for its CSR arrays and scratch buffers):

* :func:`rr_member_lanes` — one RR-set per lane, returned as a per-lane
  CSR (``counts, members``) ready for
  :meth:`repro.engine.coverage.CoverageIndex.extend_csr`,
* :func:`prr_phase1_lanes` — backward PRR exploration (Algorithm 1 phase
  I, Dial's 0–1 BFS with every lane at its own distance level) for ``B``
  roots at once, collecting per-lane edge / seed arrays for phase-II
  compression (:func:`repro.core.prr.compress_lanes`, one pass per
  batch, or per edge-bounded slice of it),
* :func:`critical_lanes` — critical node sets ``C_R`` (boost-distance-1
  exploration + one batched live-reachability fixed point across all
  lanes),
* :func:`ic_cascade_lanes` / :func:`lt_cascade_lanes` — forward cascades
  of the pluggable diffusion models (:mod:`repro.engine.models`): every
  lane runs the same seed set through its own hashed world (IC edge
  draws against model-resolved thresholds; LT per-node thresholds
  ``hash_draw(seed, v, v)`` with float-exact weight accumulation), which
  is what lets the outgoing-boost and LT variants ride the same planes
  as the paper's model.

Status codes follow :data:`repro.core.prr.PRRArena.status_names` order:
0 = activated, 1 = hopeless, 2 = boostable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .hashing import SEED_MULT, TWO64, splitmix_finalize
from .traversal import (
    DIST_BASE,
    frontier_edge_positions,
    next_level_frontier,
    unique_sorted,
)

__all__ = [
    "LANE_WIDTH",
    "LANE_BYTES",
    "ENTRY_BYTES",
    "LanePhase1",
    "batch_lanes",
    "draw_lane_seeds",
    "draw_lane_inputs",
    "rr_member_lanes",
    "prr_phase1_lanes",
    "critical_lanes",
    "ic_cascade_lanes",
    "lt_cascade_lanes",
    "CODE_ACTIVATED",
    "CODE_HOPELESS",
    "CODE_BOOSTABLE",
]

# The block in which critical draws take their (root, world_seed) pairs
# from the RNG (draw_lane_inputs; the stream contract core.parallel._draw
# reproduces).  It sizes no batch.
LANE_WIDTH = 64

# Scratch bytes a lane batch may span (see batch_lanes): 419 critical and
# 838 RR lanes on a 10k-node graph, wide enough that a frontier pass's
# numpy call overhead is shared by hundreds of samples.  On the perfbench
# workloads (2-core Xeon VM) twice this budget cut the lbimm-10k-w1 query
# p50 further, 0.13 -> 0.08 s, but raised peak RSS by +13% there and by
# +22% on prr-digg-w1, against +7% each at this budget.
LANE_BYTES = 1 << 23

# Plane bytes per (lane, node) entry of each kernel: a bool visited plane
# (RR, IC cascades), a bool plane plus a float64 accumulator (LT), an
# int16 distance plane (PRR, and critical sets, whose live-reachability
# region reuses the same bytes as a bool view once phase I has zeroed
# them).
ENTRY_BYTES = {"rr": 1, "ic": 1, "lt": 9, "critical": 2, "prr": 2}

CODE_ACTIVATED = 0
CODE_HOPELESS = 1
CODE_BOOSTABLE = 2

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_INT64_MAX = np.iinfo(np.int64).max


def batch_lanes(n: int, kernel: str, transient: float = 0) -> int:
    """Lanes per batch of ``kernel`` (a key of :data:`ENTRY_BYTES`) on an
    ``n``-node graph: as many as fit :data:`LANE_BYTES` with their planes
    and ``transient`` further bytes each, at least one."""
    per_lane = n * ENTRY_BYTES[kernel] + transient
    return max(1, int(LANE_BYTES // max(per_lane, 1)))


def draw_lane_seeds(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` per-lane world seeds: uniform non-negative int64 draws
    (hashing treats them as uint64)."""
    return rng.integers(_INT64_MAX, size=count, dtype=np.int64).astype(np.uint64)


def draw_lane_inputs(
    rng: Optional[np.random.Generator],
    n: int,
    count: int,
    roots: Optional[Sequence[int]] = None,
    world_seeds: Optional[Sequence[int]] = None,
    block: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every sample's ``(root, world_seed)`` pair of a backward lane draw.

    Per block of ``block`` samples (default: the whole draw is one
    block), ``rng`` yields uniform roots over ``[0, n)`` first, then the
    block's world seeds.  RR and PRR draws are one block; critical draws
    use :data:`LANE_WIDTH` blocks.  ``roots`` or ``world_seeds`` passed
    in are used as given and not drawn.
    """
    for name, given in (("roots", roots), ("world_seeds", world_seeds)):
        if given is not None and len(given) < count:
            raise ValueError(f"need {count} {name}, got {len(given)}")
    if roots is None or world_seeds is None:
        if rng is None:
            raise ValueError("rng is required when roots or world_seeds are not given")
        drawn_roots = np.empty(count, dtype=np.int64) if roots is None else None
        drawn_seeds = np.empty(count, dtype=np.uint64) if world_seeds is None else None
        step = block or max(count, 1)
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            if drawn_roots is not None:
                drawn_roots[lo:hi] = rng.integers(n, size=hi - lo)
            if drawn_seeds is not None:
                drawn_seeds[lo:hi] = draw_lane_seeds(rng, hi - lo)
        roots = drawn_roots if roots is None else roots
        world_seeds = drawn_seeds if world_seeds is None else world_seeds
    return (
        np.asarray(roots, dtype=np.int64)[:count],
        np.asarray(world_seeds).astype(np.uint64, copy=False)[:count],
    )


def _lane_draw_ints(
    lane_seeds: np.ndarray, e_lane: np.ndarray, edge_hash: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """Raw 64-bit hash per (lane, CSR position) pair.

    ``splitmix_finalize(seed·A + base)`` — bit-for-bit the pre-division
    integer of ``hash_draw(seed, u, v)`` for the edge at ``pos``.
    """
    with np.errstate(over="ignore"):
        x = lane_seeds[e_lane] * SEED_MULT + edge_hash.take(pos)
    return splitmix_finalize(x)


def _lane_csr(lanes: np.ndarray, num_lanes: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(counts, order)`` grouping flat per-lane rows by lane id."""
    counts = np.bincount(lanes, minlength=num_lanes)
    if num_lanes <= np.iinfo(np.uint16).max:
        lanes = lanes.astype(np.uint16)  # stable sorts of 16-bit keys are radix sorts
    order = np.argsort(lanes, kind="stable")
    return counts, order


# ----------------------------------------------------------------------
# Reverse-reachable sets
# ----------------------------------------------------------------------
def rr_member_lanes(
    engine, roots: np.ndarray, lane_seeds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One RR-set per lane, all lanes advanced per frontier step.

    Lane ``b`` samples the world fixed by ``lane_seeds[b]``: edge
    ``u -> v`` is live iff its 64-bit hash falls below ``round(p · 2^64)``.
    Returns ``(counts, members)`` — lane ``b``'s members are
    ``members[sum(counts[:b]) : sum(counts[:b+1])]``, sorted per lane.

    The visited plane is a bool view of the engine's lane arena; touched
    entries are cleared on exit, so repeated batches cost no fresh
    O(B·n) allocation.
    """
    n = engine.n
    num = int(roots.size)
    in_indptr = engine._in_indptr
    in_nodes = engine._in_nodes
    edge_hash = engine._in_hash
    thr = engine._in_thr64
    lane_seeds = lane_seeds.astype(np.uint64, copy=False)
    visited = engine.lane_arena(num * n).view(bool)
    lane = np.arange(num, dtype=np.int64)
    node = roots.astype(np.int64, copy=False)
    key = lane * n + node
    visited[key] = True
    key_chunks = [key]
    try:
        while node.size:
            pos, counts = frontier_edge_positions(in_indptr, node)
            if pos.size == 0:
                break
            e_lane = np.repeat(lane, counts)
            hit = _lane_draw_ints(lane_seeds, e_lane, edge_hash, pos) < thr.take(pos)
            if not hit.any():
                break
            srcs = in_nodes.take(pos[hit])
            key = e_lane[hit] * n + srcs
            key = key[~visited[key]]
            if key.size == 0:
                break
            key = unique_sorted(key)
            visited[key] = True
            key_chunks.append(key)
            lane = key // n
            node = key - lane * n
    finally:
        # Restore the shared plane even on interrupt/OOM — the engine is
        # cached on the graph, so leaked marks would corrupt every later
        # sample.
        for chunk in key_chunks:
            visited[chunk] = False
    keys = np.concatenate(key_chunks) if len(key_chunks) > 1 else key_chunks[0]
    lane_all = keys // n
    counts, order = _lane_csr(lane_all, num)
    return counts, (keys - lane_all * n)[order]


# ----------------------------------------------------------------------
# Backward PRR exploration (phase I)
# ----------------------------------------------------------------------
@dataclass
class LanePhase1:
    """Per-lane raw phase-I output, flattened into lane-grouped CSRs.

    The per-lane analogue of :class:`repro.engine.batch.PhaseOneResult`:
    lane ``i``'s collected non-blocked edges are
    ``edge_src[edge_indptr[i]:edge_indptr[i+1]]`` (etc.), its discovered
    seeds ``seed_nodes[seed_indptr[i]:seed_indptr[i+1]]`` (unique,
    sorted).  Activated lanes have empty slices — their exploration is
    discarded exactly like the single-sample early return.
    """

    roots: np.ndarray
    activated: np.ndarray
    edge_indptr: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_boost: np.ndarray
    seed_indptr: np.ndarray
    seed_nodes: np.ndarray
    node_count: np.ndarray
    explored: np.ndarray

    def slices(self, max_edges: int) -> Iterator["LanePhase1"]:
        """The batch as runs of consecutive lanes holding at most
        ``max_edges`` edges each (a lane with more gets a run of its own).
        Every array of a run is a view, the rebased indptrs aside."""
        num = self.roots.size
        lo = 0
        while lo < num:
            end = self.edge_indptr[lo] + max_edges
            hi = int(np.searchsorted(self.edge_indptr, end, side="right")) - 1
            hi = min(max(hi, lo + 1), num)
            e0, e1 = self.edge_indptr[lo], self.edge_indptr[hi]
            s0, s1 = self.seed_indptr[lo], self.seed_indptr[hi]
            yield LanePhase1(
                roots=self.roots[lo:hi],
                activated=self.activated[lo:hi],
                edge_indptr=self.edge_indptr[lo : hi + 1] - e0,
                edge_src=self.edge_src[e0:e1],
                edge_dst=self.edge_dst[e0:e1],
                edge_boost=self.edge_boost[e0:e1],
                seed_indptr=self.seed_indptr[lo : hi + 1] - s0,
                seed_nodes=self.seed_nodes[s0:s1],
                node_count=self.node_count[lo:hi],
                explored=self.explored[lo:hi],
            )
            lo = hi


def prr_phase1_lanes(
    engine,
    seeds_mask: np.ndarray,
    roots: np.ndarray,
    k: int,
    lane_seeds: np.ndarray,
) -> LanePhase1:
    """Backward 0–1 BFS from ``B`` roots at once, distance-``> k`` pruned.

    Runs Dial's algorithm for all lanes at once: every pass processes the
    union of the lanes' current frontiers as flat ``lane * n + node``
    keys, each lane at its own distance level.  Since each lane's world
    is fixed by its seed, the shared schedule yields, per lane, exactly
    the edge and seed sets (and node counts) of a solo world-seeded
    :meth:`~repro.engine.batch.SamplingEngine.prr_phase1` run, in the
    order the lane explored them.

    Roots that are seeds come back activated without exploration.  The
    per-lane ``explored`` edge counters of lanes that activate *during*
    level 0 may exceed the solo path's (the shared pass finishes before
    the activation takes effect) — diagnostics only; every arena-visible
    output is identical.  The int16 distance plane (a view of the engine's
    lane arena) is zeroed again before returning, also when the pass loop
    raises.
    """
    if k + 1 >= int(DIST_BASE):
        raise ValueError("k exceeds the lane kernel's int16 distance range")
    n = engine.n
    num = int(roots.size)
    lane_seeds = lane_seeds.astype(np.uint64, copy=False)
    roots = roots.astype(np.int64, copy=False)
    seed_roots = seeds_mask[roots]
    activated = seed_roots.copy()
    dist = engine.lane_arena(2 * num * n).view(np.int16)
    init = np.flatnonzero(~activated) * n + roots[~activated]
    dist[init] = DIST_BASE  # distance 0
    out = _Phase1Chunks(touched=[init])
    try:
        _prr_level_loop(engine, seeds_mask, k, lane_seeds, activated, dist, init, out)
    finally:
        # Restore the shared plane even on interrupt/OOM — the engine is
        # cached on the graph, so stale marks would corrupt later batches.
        touched = _drain(out.touched)
        dist[touched] = 0

    node_count, explored = _lane_counters(engine, touched, out.done, seed_roots)
    edge_indptr, edge_src, edge_dst, edge_boost = _lane_edges(out, activated, n)
    skeys = unique_sorted(_drain(out.seeds))
    s_lane, seed_nodes = np.divmod(skeys, n)
    live = ~activated[s_lane]
    s_counts = np.bincount(s_lane[live], minlength=num)
    seed_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(s_counts, out=seed_indptr[1:])

    return LanePhase1(
        roots=roots,
        activated=activated,
        edge_indptr=edge_indptr,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_boost=edge_boost,
        seed_indptr=seed_indptr,
        seed_nodes=seed_nodes[live],
        node_count=node_count,
        explored=explored,
    )


def _lane_counters(engine, touched, done, seed_roots) -> Tuple[np.ndarray, np.ndarray]:
    """Per-lane ``(node_count, explored)``, one bincount each: distinct
    discovered keys (a seed root counts itself), and the in-degrees of
    the processed keys."""
    n = engine.n
    num = seed_roots.size
    node_count = np.bincount(unique_sorted(touched) // n, minlength=num) + seed_roots
    lane, node = np.divmod(_drain(done), n)
    indptr = engine._in_indptr
    degree = indptr[node + 1] - indptr[node]
    explored = np.bincount(lane, weights=degree, minlength=num).astype(np.int64)
    return node_count, explored


def _lane_edges(out, activated, n):
    """``(edge_indptr, src, dst, boost)``: the kept edges of the lanes that
    did not activate, grouped by lane in exploration order."""
    num = activated.size
    lane, srcs = np.divmod(_drain(out.src), n)
    lane[activated[lane]] = num  # sorts after every live lane, then dropped
    counts, order = _lane_csr(lane, num + 1)
    del lane
    order = order[: order.size - counts[num]]
    edge_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts[:num], out=edge_indptr[1:])
    return (
        edge_indptr,
        srcs.take(order),
        _drain(out.dst).take(order),
        _drain(out.boost, bool).take(order),
    )


def _drain(chunks: list, dtype=np.int64) -> np.ndarray:
    """The concatenation of ``chunks``, which is emptied (the chunks are
    released as soon as the caller drops the result's inputs)."""
    if not chunks:
        return np.empty(0, dtype=dtype)
    out = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    chunks.clear()
    return out


@dataclass
class _Phase1Chunks:
    """Per-pass outputs of :func:`_prr_level_loop`, concatenated once at
    the end: keys whose distance left the sentinel, processed frontier
    keys, kept edges (source keys, head nodes, boost flags) and the keys
    of discovered seeds."""

    touched: list
    done: list = field(default_factory=list)
    src: list = field(default_factory=list)
    dst: list = field(default_factory=list)
    boost: list = field(default_factory=list)
    seeds: list = field(default_factory=list)


def _prr_level_loop(engine, seeds_mask, k, lane_seeds, activated, dist, init, out) -> None:
    """Dial's 0-1 BFS of :func:`prr_phase1_lanes`, each lane at its own
    distance level (split out so the caller can guarantee plane
    restoration around it).

    A pass processes every lane's current frontier.  A lane's live-edge
    candidates stay at its level for the next pass; its boost-edge
    candidates wait in a pool until the lane runs out of live candidates
    and moves up a level (to ``k`` at most).  So each lane processes the
    frontiers of a solo run in the same order, and no lane waits for the
    others to finish a level.  Every distance write is a strict
    improvement: a key is queued at most once per level and never after
    it was processed, and a pooled key improved since fails the ``dist
    == level`` check when its lane moves up.  No processed-mark plane is
    kept.
    """
    n = engine.n
    num = activated.size
    in_indptr = engine._in_indptr
    in_nodes = engine._in_nodes
    in_p = engine._in_p
    in_pp = engine._in_pp
    edge_hash = engine._in_hash
    with np.errstate(over="ignore"):
        seed_mult = lane_seeds * SEED_MULT  # the per-lane half of every draw
    level = np.zeros(num, dtype=np.int64)  # each lane's distance level
    pool = _EMPTY_I64  # boost candidates of lanes not yet at their level
    f = init
    while f.size:
        f = unique_sorted(f)
        out.done.append(f)
        lane, node = np.divmod(f, n)
        pos, counts = frontier_edge_positions(in_indptr, node)
        e_lane = lane.repeat(counts)
        e_level = level.take(e_lane)
        # hash_draw(lane seed, src, head) of every frontier edge.
        x = seed_mult.take(e_lane)
        x += edge_hash.take(pos)
        draws = splitmix_finalize(x).astype(np.float64)
        draws /= TWO64
        live = draws < in_p.take(pos)
        boost = draws < in_pp.take(pos)
        boost &= ~live
        boost &= e_level < k  # a boost edge at level k leads past k
        kept = np.flatnonzero(live | boost)
        srcs = in_nodes.take(pos.take(kept))
        e_lane = e_lane.take(kept)
        e_level = e_level.take(kept)
        boost = boost.take(kept)
        g = e_lane * n
        g += srcs
        out.src.append(g)
        out.dst.append(node.repeat(counts).take(kept))
        out.boost.append(boost)
        is_seed = seeds_mask.take(srcs)
        activating = False
        if is_seed.any():
            out.seeds.append(g[is_seed])
            # A live edge from a seed at level 0 activates its lane's root
            # without boosting.
            act = e_lane[is_seed & ~boost & (e_level == 0)]
            activated[act] = True
            activating = act.size > 0
        # Scatter the new distances (boost edges first, so a key reached
        # both ways this pass keeps the live distance), DIST_BASE-encoded.
        e_code = DIST_BASE - e_level
        upd = dist[g] < e_code - boost
        out.touched.append(g[upd])
        upd &= ~is_seed  # seeds are never expanded
        step = np.flatnonzero(upd & boost)
        nxt = g.take(step)
        dist[nxt] = e_code.take(step) - 1
        step = np.flatnonzero(upd & ~boost)
        live = g.take(step)
        dist[live] = e_code.take(step)
        f, pool = next_level_frontier(dist, n, level, lane, live, pool, nxt)
        if activating:
            f = f[~activated[f // n]]


# ----------------------------------------------------------------------
# Critical sets
# ----------------------------------------------------------------------
def critical_lanes(
    engine,
    seeds_mask: np.ndarray,
    roots: np.ndarray,
    lane_seeds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Critical node sets ``C_R`` for ``B`` roots at once.

    Phase I capped at boost-distance 1, then one live-reachability fixed
    point grown across *all* boostable lanes simultaneously (the per-lane
    regions live in disjoint ``lane * n + node`` key ranges, so a single
    :func:`grow_reachable` pass serves every lane).  Returns
    ``(status_codes, counts, members, explored)`` with the critical sets
    as a lane-grouped CSR of sorted unique node ids.
    """
    n = engine.n
    num = int(roots.size)
    ph = prr_phase1_lanes(engine, seeds_mask, roots, 1, lane_seeds)
    status = np.full(num, CODE_BOOSTABLE, dtype=np.int8)
    status[ph.activated] = CODE_ACTIVATED
    no_seeds = ~ph.activated & (np.diff(ph.seed_indptr) == 0)
    status[no_seeds] = CODE_HOPELESS
    boostable = status == CODE_BOOSTABLE
    counts = np.zeros(num, dtype=np.int64)
    members = _EMPTY_I64
    if boostable.any():
        el = np.repeat(
            np.arange(num, dtype=np.int64), np.diff(ph.edge_indptr)
        )
        use = boostable[el]
        el = el[use]
        es = ph.edge_src[use]
        ed = ph.edge_dst[use]
        eb = ph.edge_boost[use]
        # The live-reachability region is a bool view of the bytes phase
        # I used as its distance plane (zero again now), tracking what we
        # set so the bytes can be zeroed on exit.
        region = engine.lane_arena(num * n).view(bool)
        s_lane = np.repeat(
            np.arange(num, dtype=np.int64), np.diff(ph.seed_indptr)
        )
        s_use = boostable[s_lane]
        seed_keys = s_lane[s_use] * n + ph.seed_nodes[s_use]
        region[seed_keys] = True
        touched = [seed_keys]
        try:
            live = ~eb
            tails = el[live] * n + es[live]
            heads = el[live] * n + ed[live]
            while True:
                grow = region[tails] & ~region[heads]
                if not grow.any():
                    break
                new = np.unique(heads[grow])
                region[new] = True
                touched.append(new)
            # Defensive (phase I catches live seed->root paths): a root
            # inside its live region is activated.
            root_hit = (
                region[np.arange(num, dtype=np.int64) * n + ph.roots] & boostable
            )
            if root_hit.any():
                status[root_hit] = CODE_ACTIVATED
                boostable = status == CODE_BOOSTABLE
            crit = (
                eb
                & region[el * n + es]
                & ~seeds_mask[ed]
                & boostable[el]
            )
        finally:
            for chunk in touched:  # zero the shared bytes again
                region[chunk] = False
        if crit.any():
            keys = unique_sorted(el[crit] * n + ed[crit])
            lane = keys // n
            counts = np.bincount(lane, minlength=num)
            members = keys - lane * n
    return status, counts, members, ph.explored


# ----------------------------------------------------------------------
# Forward cascades (the pluggable diffusion-model layer)
# ----------------------------------------------------------------------
def _cascade_members(key_chunks, n, num, members):
    """``(sizes, counts, values)`` from the visited-key chunks of a
    cascade kernel; the member CSR is skipped when ``members`` is False
    (the estimator paths only consume sizes)."""
    keys = np.concatenate(key_chunks) if len(key_chunks) > 1 else key_chunks[0]
    sizes = np.bincount(keys // n, minlength=num)
    if not members:
        return sizes, sizes, None
    # Keys are lane * n + node, so one flat sort yields the lane-grouped
    # CSR with members node-ascending inside each lane.
    keys = np.sort(keys)
    return sizes, sizes, keys - (keys // n) * n


def ic_cascade_lanes(
    engine,
    seed_idx: np.ndarray,
    thr: np.ndarray,
    lane_seeds: np.ndarray,
    members: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One IC cascade per lane, all lanes advanced per frontier step.

    Lane ``b`` runs the Independent Cascade in the world fixed by
    ``lane_seeds[b]``: out-edge ``u -> v`` fires iff
    ``hash_draw(lane_seeds[b], u, v) < thr[pos]``, where ``thr`` is the
    per-out-CSR-position effective probability of the diffusion model
    under the active boost set (incoming-boost: ``p'`` where the head is
    boosted; outgoing-boost: ``p'`` where the tail is boosted).  Every
    lane starts from the same ``seed_idx`` (sorted node ids).

    Returns ``(sizes, counts, values)``: per-lane activated-set sizes
    (seeds included), and — when ``members`` is True — the activated
    sets as a lane-grouped CSR of sorted node ids (``counts`` equals
    ``sizes``; ``values`` is None otherwise).  Lane ``b``'s activated
    set is a pure function of ``(seed_idx, thr, lane_seeds[b])`` — the
    single-sample hashed evaluator and any lane batch agree bit-for-bit.
    """
    n = engine.n
    num = int(lane_seeds.size)
    out_indptr = engine._out_indptr
    out_nodes = engine._out_nodes
    edge_hash = engine._out_hash
    lane_seeds = lane_seeds.astype(np.uint64, copy=False)
    visited = engine.lane_arena(num * n).view(bool)
    lane = np.repeat(np.arange(num, dtype=np.int64), seed_idx.size)
    node = np.tile(seed_idx, num)
    key = lane * n + node
    visited[key] = True
    key_chunks = [key]
    try:
        while node.size:
            pos, counts = frontier_edge_positions(out_indptr, node)
            if pos.size == 0:
                break
            e_lane = np.repeat(lane, counts)
            draws = (
                _lane_draw_ints(lane_seeds, e_lane, edge_hash, pos).astype(
                    np.float64
                )
                / TWO64
            )
            hit = draws < thr.take(pos)
            if not hit.any():
                break
            heads = out_nodes.take(pos[hit])
            key = e_lane[hit] * n + heads
            key = key[~visited[key]]
            if key.size == 0:
                break
            key = unique_sorted(key)
            visited[key] = True
            key_chunks.append(key)
            lane = key // n
            node = key - lane * n
    finally:
        # Restore the shared plane even on interrupt/OOM — the engine is
        # cached on the graph, so leaked marks would corrupt later batches.
        for chunk in key_chunks:
            visited[chunk] = False
    return _cascade_members(key_chunks, n, num, members)


def lt_cascade_lanes(
    engine,
    seed_idx: np.ndarray,
    weights: np.ndarray,
    lane_seeds: np.ndarray,
    members: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One boosted-LT cascade per lane over per-lane hashed thresholds.

    Lane ``b``'s world is the threshold vector
    ``θ_v = hash_draw(lane_seeds[b], v, v)``
    (:func:`repro.engine.world.lane_node_thresholds`); ``weights`` is the
    per-out-CSR-position incoming weight under the active boost set
    (``pp`` where the head is boosted, else ``p``).  Each level
    accumulates the frontier's outgoing weight into inactive heads — in
    frontier-node-ascending × CSR order per lane, the same order the
    sorted-frontier solo evaluator uses, so the float accumulation is
    bit-for-bit reproducible — then activates every touched node whose
    clipped mass reaches its threshold.

    Same return shape as :func:`ic_cascade_lanes`.
    """
    n = engine.n
    num = int(lane_seeds.size)
    out_indptr = engine._out_indptr
    out_nodes = engine._out_nodes
    node_hash = engine._node_hash
    lane_seeds = lane_seeds.astype(np.uint64, copy=False)
    # Two planes in disjoint parts of the lane arena: the float64
    # accumulator first (8-byte aligned), then the bool active plane.
    arena = engine.lane_arena(9 * num * n)
    acc = arena[: 8 * num * n].view(np.float64)
    active = arena[8 * num * n :].view(bool)
    lane = np.repeat(np.arange(num, dtype=np.int64), seed_idx.size)
    node = np.tile(seed_idx, num)
    key = lane * n + node
    active[key] = True
    key_chunks = [key]
    acc_chunks: list = []
    try:
        while node.size:
            pos, counts = frontier_edge_positions(out_indptr, node)
            if pos.size == 0:
                break
            e_lane = np.repeat(lane, counts)
            key = e_lane * n + out_nodes.take(pos)
            inactive = ~active[key]
            key = key[inactive]
            if key.size == 0:
                break
            # Accumulate BEFORE deduping: np.add.at applies in element
            # order, so per (lane, head) the contributions arrive in
            # frontier order × CSR order — the solo evaluator's order.
            np.add.at(acc, key, weights.take(pos[inactive]))
            acc_chunks.append(key)
            touched = unique_sorted(key.copy())
            t_lane = touched // n
            t_node = touched - t_lane * n
            with np.errstate(over="ignore"):
                x = lane_seeds[t_lane] * SEED_MULT + node_hash.take(t_node)
            theta = splitmix_finalize(x).astype(np.float64) / TWO64
            key = touched[np.minimum(acc[touched], 1.0) >= theta]
            if key.size == 0:
                break
            active[key] = True
            key_chunks.append(key)
            lane = key // n
            node = key - lane * n
    finally:
        for chunk in key_chunks:
            active[chunk] = False
        for chunk in acc_chunks:
            acc[chunk] = 0.0
    return _cascade_members(key_chunks, n, num, members)
