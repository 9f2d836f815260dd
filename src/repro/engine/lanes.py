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

Kernels (each takes the owning :class:`~repro.engine.batch.SamplingEngine`
for its CSR arrays and scratch buffers):

* :func:`rr_member_lanes` — one RR-set per lane, returned as a per-lane
  CSR (``counts, members``) ready for
  :meth:`repro.engine.coverage.CoverageIndex.extend_csr`,
* :func:`prr_phase1_lanes` — backward PRR exploration (Algorithm 1 phase
  I, Dial's 0–1 BFS) for ``B`` roots at once, collecting per-lane edge /
  seed arrays for phase-II compression,
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

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .hashing import SEED_MULT, TWO64, splitmix_finalize
from .traversal import frontier_edge_positions, unique_sorted

__all__ = [
    "LANE_WIDTH",
    "RR_LANE_WIDTH",
    "CASCADE_LANE_WIDTH",
    "LanePhase1",
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

# Default number of roots advanced per lane batch.  PRR lanes keep B
# moderate (their distance planes are int64); RR lanes go wider — the
# visited plane is one bool per (lane, node) and deeper batches amortize
# the per-level call overhead further.  Forward cascades start every lane
# from the same (possibly large) seed set, so their frontiers are wide
# from level 0 and a moderate width amortizes enough.
LANE_WIDTH = 64
RR_LANE_WIDTH = 512
CASCADE_LANE_WIDTH = 64

CODE_ACTIVATED = 0
CODE_HOPELESS = 1
CODE_BOOSTABLE = 2

_BIG = np.int16(np.iinfo(np.int16).max)  # lane distance sentinel
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_INT64_MAX = np.iinfo(np.int64).max


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

    Uses the engine's reusable visited plane; touched entries are cleared
    on exit, so repeated batches cost no fresh O(B·n) allocation.
    """
    n = engine.n
    num = int(roots.size)
    in_indptr = engine._in_indptr
    in_nodes = engine._in_nodes
    edge_hash = engine._in_hash
    thr = engine._in_thr64
    lane_seeds = lane_seeds.astype(np.uint64, copy=False)
    visited = engine._lane_plane(num)
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


def prr_phase1_lanes(
    engine,
    seeds_mask: np.ndarray,
    roots: np.ndarray,
    k: int,
    lane_seeds: np.ndarray,
) -> LanePhase1:
    """Backward 0–1 BFS from ``B`` roots at once, distance-``> k`` pruned.

    Runs Dial's algorithm in lockstep over all lanes: every distance level
    ``d`` processes the union of the lanes' level-``d`` frontiers as flat
    ``lane * n + node`` keys.  Since each lane's world is fixed by its
    seed, the lockstep schedule yields, per lane, exactly the edge and
    seed sets (and node counts) of a solo world-seeded
    :meth:`~repro.engine.batch.SamplingEngine.prr_phase1` run.

    Roots that are seeds come back activated without exploration.  The
    per-lane ``explored`` edge counters of lanes that activate *during*
    level 0 may exceed the solo path's (the lockstep frontier finishes its
    merged step before the activation takes effect) — diagnostics only;
    every arena-visible output is identical.
    """
    if k + 1 >= int(_BIG):
        raise ValueError("k exceeds the lane kernel's int16 distance range")
    n = engine.n
    num = int(roots.size)
    lane_seeds = lane_seeds.astype(np.uint64, copy=False)
    roots = roots.astype(np.int64, copy=False)
    activated = seeds_mask[roots].copy()
    dist, proc = engine._prr_planes(num)
    lane_ids = np.arange(num, dtype=np.int64)
    node_count = np.ones(num, dtype=np.int64)
    explored = np.zeros(num, dtype=np.int64)
    el_chunks: list = []
    es_chunks: list = []
    ed_chunks: list = []
    eb_chunks: list = []
    sl_chunks: list = []
    sn_chunks: list = []

    init = lane_ids[~activated] * n + roots[~activated]
    dist[init] = 0
    touched_chunks: list = [init]  # keys whose planes need restoring
    buckets: list = [[] for _ in range(k + 2)]
    if init.size:
        buckets[0].append(init)

    try:
        _prr_level_loop(
            engine, seeds_mask, k, lane_seeds, num, activated, dist, proc,
            node_count, explored, buckets, touched_chunks,
            el_chunks, es_chunks, ed_chunks, eb_chunks, sl_chunks, sn_chunks,
        )
    finally:
        # Restore the shared planes even on interrupt/OOM — the engine is
        # cached on the graph, so stale marks would corrupt later batches.
        for chunk in touched_chunks:
            dist[chunk] = _BIG
            proc[chunk] = False

    if el_chunks:
        el = np.concatenate(el_chunks)
        es = np.concatenate(es_chunks)
        ed = np.concatenate(ed_chunks)
        eb = np.concatenate(eb_chunks)
        live_lane = ~activated[el]
        el, es, ed, eb = el[live_lane], es[live_lane], ed[live_lane], eb[live_lane]
    else:
        el = es = ed = _EMPTY_I64
        eb = np.empty(0, dtype=bool)
    e_counts, e_order = _lane_csr(el, num)
    edge_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(e_counts, out=edge_indptr[1:])

    if sl_chunks:
        skeys = np.concatenate(
            [sl * n + sn for sl, sn in zip(sl_chunks, sn_chunks)]
        )
        skeys = unique_sorted(skeys[~activated[skeys // n]])
        s_lane = skeys // n
        seed_nodes = skeys - s_lane * n
        s_counts = np.bincount(s_lane, minlength=num)
    else:
        seed_nodes = _EMPTY_I64
        s_counts = np.zeros(num, dtype=np.int64)
    seed_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(s_counts, out=seed_indptr[1:])

    return LanePhase1(
        roots=roots,
        activated=activated,
        edge_indptr=edge_indptr,
        edge_src=es[e_order],
        edge_dst=ed[e_order],
        edge_boost=eb[e_order],
        seed_indptr=seed_indptr,
        seed_nodes=seed_nodes,
        node_count=node_count,
        explored=explored,
    )


def _prr_level_loop(
    engine, seeds_mask, k, lane_seeds, num, activated, dist, proc,
    node_count, explored, buckets, touched_chunks,
    el_chunks, es_chunks, ed_chunks, eb_chunks, sl_chunks, sn_chunks,
) -> None:
    """Dial's level loop of :func:`prr_phase1_lanes` (split out so the
    caller can guarantee plane restoration around it)."""
    n = engine.n
    in_indptr = engine._in_indptr
    in_nodes = engine._in_nodes
    in_p = engine._in_p
    in_pp = engine._in_pp
    edge_hash = engine._in_hash
    for d in range(k + 1):
        pending = buckets[d]
        while pending:
            f = np.concatenate(pending) if len(pending) > 1 else pending[0]
            pending.clear()
            ok = ~proc[f] & (dist[f] == d) & ~activated[f // n]
            f = f[ok]
            if f.size == 0:
                continue
            f = unique_sorted(f)
            proc[f] = True
            lane = f // n
            node = f - lane * n
            pos, counts = frontier_edge_positions(in_indptr, node)
            e_lane = np.repeat(lane, counts)
            explored += np.bincount(e_lane, minlength=num)
            if pos.size == 0:
                continue
            heads = np.repeat(node, counts)
            srcs = in_nodes.take(pos)
            draws = (
                _lane_draw_ints(lane_seeds, e_lane, edge_hash, pos).astype(
                    np.float64
                )
                / TWO64
            )
            live = draws < in_p.take(pos)
            w = ~live & (draws < in_pp.take(pos))
            keep = (live | w) if d < k else live
            if not keep.any():
                continue
            e_lane = e_lane[keep]
            srcs = srcs[keep]
            heads = heads[keep]
            wk = w[keep]
            el_chunks.append(e_lane)
            es_chunks.append(srcs)
            ed_chunks.append(heads)
            eb_chunks.append(wk)
            is_seed = seeds_mask[srcs]
            if is_seed.any():
                if d == 0:
                    # Live edge from a seed at distance 0: those lanes'
                    # roots activate without boosting.
                    act = e_lane[is_seed & ~wk]
                    if act.size:
                        activated[np.unique(act)] = True
                sl_chunks.append(e_lane[is_seed])
                sn_chunks.append(srcs[is_seed])
            src_keys = e_lane * n + srcs
            for boost_step in (False, True):
                sel = wk if boost_step else ~wk
                g = src_keys[sel]
                if g.size == 0:
                    continue
                dv = d + 1 if boost_step else d
                fresh = dist[g] == _BIG
                if fresh.any():
                    fresh_keys = np.unique(g[fresh])
                    node_count += np.bincount(fresh_keys // n, minlength=num)
                    touched_chunks.append(fresh_keys)
                np.minimum.at(dist, g, dv)
                cand = g[(~is_seed[sel]) & (dist[g] == dv) & ~proc[g]]
                if cand.size:
                    (buckets[dv] if boost_step else pending).append(cand)


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
        # Borrow the engine's visited plane for the live-reachability
        # region (the RR kernel is never active concurrently), tracking
        # what we set so the plane can be restored on exit.
        region = engine._lane_plane(num)
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
            for chunk in touched:  # restore the shared plane
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
    visited = engine._lane_plane(num)
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
    active = engine._lane_plane(num)
    acc = engine._acc_plane(num)
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
