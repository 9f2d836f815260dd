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

The RR and critical-set kernels do not run a draw batch by batch: they
stream it through one batch width of lane *slots* (:class:`_Slots`).
Samples finish after very different numbers of passes — a 12,000-sample
critical draw on the 10k/52k bench graph is active in 2.4 passes per
sample on average, its slowest samples in 25 or more — so a batch spends most of its
passes on a few stragglers.  Instead, once :data:`REFILL_SHARE` of the
slots hold finished samples, the kernel zeroes those samples' plane
entries and hands the slots the draw's next roots, in bulk.  That draw
took 563 frontier passes as 29 batches and takes 85 streamed, on the
same arena.  Outputs come back in sample order: a finished sample's
rows move to ``sample * n + node`` keys (:class:`_Stream`), and the
draw's finished prefix is emitted once it holds a slot set.  A draw
that fits its slots runs as one batch.  PRR batches
(:func:`repro.core.prr.sample_prr_lanes`) are one fill each.

Every plane is a view of the engine's one zero-filled scratch buffer
(:meth:`~repro.engine.batch.SamplingEngine.lane_arena`), as bool, int16
or float64, so an engine's lane scratch stays within the budget
whatever mix of kernels runs.  A zero byte means idle: every kernel
zeroes the entries it set before returning, also when it raises, and
int16 distance planes are :data:`~repro.engine.traversal.DIST_BASE`
encoded so that zero reads as unreached.

Kernels (each takes the owning :class:`~repro.engine.batch.SamplingEngine`
for its CSR arrays and scratch buffers):

* :func:`rr_member_lanes` — one RR-set per root, streamed, returned as
  a per-sample CSR (``counts, members``) ready for
  :meth:`repro.engine.coverage.CoverageIndex.extend_csr`,
* :func:`prr_phase1_lanes` — backward PRR exploration (Algorithm 1 phase
  I, Dial's 0–1 BFS with every sample at its own distance level),
  streamed, collecting per-lane edge / seed arrays for phase-II
  compression (:func:`repro.core.prr.compress_lanes`, one pass per
  batch, or per edge-bounded slice of it),
* :func:`critical_lanes` — critical node sets ``C_R`` (streamed
  boost-distance-1 exploration, then one live-reachability frontier BFS
  per group of finished samples across all their boostable lanes),
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

from contextlib import closing
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .hashing import SEED_MULT, TWO64, splitmix_finalize
from .traversal import (
    DIST_BASE,
    frontier_edge_positions,
    group_by_tail,
    next_level_frontier,
    sorted_lookup,
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

# A streamed draw refills its free lane slots once at least
# 1/REFILL_SHARE of them are free (see _Slots.refill_due).  Medians of 11
# interleaved draws on the 2-core VM, at 1/4, 1/16 and 1/64: 12,000
# critical sets on the 10k/52k graph 68.7, 64.0 and 62.9 ms; 1,500 on the
# 20k/130k graph 85.8, 82.6 and 80.9 ms; 256 there 21.8, 16.3 and 17.3 ms;
# 40,000 RR sets on the 10k graph 188.9, 175.3 and 176.7 ms.
REFILL_SHARE = 16

# Plane bytes per (lane, node) entry of each kernel: a bool visited plane
# (RR, IC cascades), a bool plane plus a float64 accumulator (LT), an
# int16 distance plane (PRR, and critical sets, which run the PRR phase-I
# kernel on it and mark their live-reachability regions in its top bit,
# see _REGION).
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
# Lane slots: streaming a draw through a fixed set of lanes
# ----------------------------------------------------------------------
class _Slots:
    """The lane slots a draw's samples stream through: one batch of the
    ``kernel`` (:func:`batch_lanes`), or the whole draw if it is smaller.

    Slot ``s`` runs sample ``sample[s]`` (``-1``: idle) on the plane
    entries ``s * n + node``.  Samples ``0 .. width-1`` take slots ``0 ..
    width-1``, so a draw that fits its slots runs as one batch, with no
    bookkeeping per pass.  While samples wait, the kernel checks after each
    pass whether :meth:`refill_due`; if so, it retires the finished slots'
    samples (zeroes their plane entries and moves their outputs to ``sample
    * n + node`` keys, see :class:`_Stream`) and :meth:`refill` hands the
    slots the next waiting samples.  :meth:`ready` names the samples to
    emit: the draw's finished prefix, once it holds a slot set.
    """

    def __init__(self, n: int, num: int, kernel: str, skip=None) -> None:
        self.n = n
        self.num = num
        self.width = min(batch_lanes(n, kernel), num)
        self.sample = np.arange(self.width, dtype=np.int64)
        waiting = np.arange(self.width, num, dtype=np.int64)
        # Samples that never take a slot (PRR seed roots) are skipped.
        self.queue = waiting if skip is None else waiting[~skip[self.width :]]
        self.taken = 0  # queue entries that got a slot
        self.refills = 0
        self.first_live = 0  # every sample below it has finished
        self.emitted = 0  # samples handed out in groups

    @property
    def waiting(self) -> bool:
        return self.taken < self.queue.size

    def refill_due(self, frontier: np.ndarray) -> Optional[np.ndarray]:
        """The busy slots (those holding ``frontier`` keys) as a mask, when
        enough of the others are free to refill them; else ``None``."""
        busy = np.zeros(self.width, dtype=bool)
        busy[frontier // self.n] = True
        free = self.width - np.count_nonzero(busy)
        return busy if free >= max(1, self.width // REFILL_SHARE) else None

    def shift(self) -> np.ndarray:
        """Per slot, what turns its ``slot * n + node`` keys into ``sample
        * n + node`` keys."""
        return (self.sample - np.arange(self.width)) * self.n

    def refill(self, busy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Give the slots that are not ``busy`` (retired already) the next
        waiting samples; returns the ``(slots, samples)`` paired."""
        free = np.flatnonzero(~busy)
        samples = self.queue[self.taken : self.taken + free.size]
        self.taken += samples.size
        slots = free[: samples.size]
        self.sample[free] = -1
        self.sample[slots] = samples
        self.refills += 1
        live = self.sample[self.sample >= 0]
        self.first_live = int(live.min()) if live.size else self.num
        return slots, samples

    def ready(self, final: bool = False) -> Optional[Tuple[int, int]]:
        """The ``[lo, hi)`` samples to emit now, if any: the draw's
        finished prefix once it holds a slot set, and once the draw is
        ``final``, all the rest (an empty draw is one empty range)."""
        lo = self.emitted
        hi = self.num if final else self.first_live
        if hi - lo < (1 if final and lo else self.width):
            return None
        self.emitted = hi
        return lo, hi


class _Stream:
    """One per-pass output of a streamed kernel, as chunks of columns:
    ``slot * n + node`` keys and columns aligned with them (``live``),
    until :meth:`retire` or :meth:`convert` moves them to ``sample * n +
    node`` keys (``done``), from which :meth:`take` hands out the rows of
    finished samples."""

    def __init__(self, *dtypes) -> None:
        self.dtypes = dtypes
        self.live = [[] for _ in dtypes]
        self.done = [[] for _ in dtypes]

    def append(self, *arrays) -> None:
        for chunks, a in zip(self.live, arrays):
            chunks.append(a)

    def retire(self, slots: _Slots, finished: np.ndarray, plane: np.ndarray) -> None:
        """Zero the ``plane`` entries of the samples in ``finished`` slots
        and move their keys to sample space (a stream of keys alone); the
        other keys stay live, as the keys of entries still set.  (The live
        keys change last, so a failure midway leaves every set entry in
        them.)"""
        if not slots.refills and finished.all():
            for chunk in self.live[0]:
                plane[chunk] = 0
            self.convert(slots)
            return
        keys = _join(self.live[0])
        kept = []
        if not finished.all():
            fin = finished[keys // slots.n]
            kept = [keys[~fin]]
            keys = keys[fin]
        plane[keys] = 0
        self.done[0].append(keys + slots.shift()[keys // slots.n])
        self.live = [kept]

    def convert(self, slots: _Slots) -> None:
        """Move every live row to sample space (before :meth:`_Slots.refill`
        pairs a slot with another sample)."""
        if slots.refills:
            cols = [_join(c, t) for c, t in zip(self.live, self.dtypes)]
            cols[0] = cols[0] + slots.shift()[cols[0] // slots.n]
            self.live = [[c] for c in cols]
        for done, live in zip(self.done, self.live):
            done += live
        self.live = [[] for _ in self.dtypes]

    def take(self, n: int, lo: int, hi: int, last: bool) -> List[np.ndarray]:
        """The rows of samples ``[lo, hi)`` (all retired ones when
        ``last``), keys rebased to lanes ``0 .. hi-lo-1``.  Each column's
        chunks are released as soon as they are joined."""
        cols = [_drain(c, t) for c, t in zip(self.done, self.dtypes)]
        if not last:
            inside = cols[0] < hi * n
            for done, c in zip(self.done, cols):
                done.append(c[~inside])
            cols = [c[inside] for c in cols]
        if lo:
            cols[0] = cols[0] - lo * n
        return cols


def _join(chunks: list, dtype=np.int64) -> np.ndarray:
    """The concatenation of ``chunks``."""
    if not chunks:
        return np.empty(0, dtype=dtype)
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def _drain(chunks: list, dtype=np.int64) -> np.ndarray:
    """:func:`_join` of ``chunks``, which is emptied (the chunks are
    released as soon as the caller drops the result's inputs)."""
    out = _join(chunks, dtype)
    chunks.clear()
    return out


# ----------------------------------------------------------------------
# Reverse-reachable sets
# ----------------------------------------------------------------------
def rr_member_lanes(
    engine, roots: np.ndarray, lane_seeds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One RR-set per root, all running samples advanced per frontier step.

    Sample ``i`` samples the world fixed by ``lane_seeds[i]``: edge ``u ->
    v`` is live iff its 64-bit hash falls below ``round(p · 2^64)``.  The
    samples stream through one RR batch of lane slots (:func:`batch_lanes`):
    a slot whose sample has no frontier left takes the next root (see
    :class:`_Slots`).  Returns ``(counts, members)`` — sample
    ``i``'s members are ``members[sum(counts[:i]) : sum(counts[:i+1])]``,
    the root first, then each BFS level's new members in ascending order.

    The visited plane is a bool view of the engine's lane arena, one entry
    per slot and node; a retired sample's entries are cleared before its
    slot is reused and every entry is clear on exit, so repeated draws cost
    no fresh O(slots·n) allocation.
    """
    n = engine.n
    in_indptr = engine._in_indptr
    in_nodes = engine._in_nodes
    edge_hash = engine._in_hash
    thr = engine._in_thr64
    roots = roots.astype(np.int64, copy=False)
    lane_seeds = lane_seeds.astype(np.uint64, copy=False)
    lanes = _Slots(n, int(roots.size), "rr")
    width = lanes.width
    slot_seeds = lane_seeds[:width].copy()
    visited = engine.lane_arena(width * n).view(bool)
    lane = np.arange(width, dtype=np.int64)
    node = roots[:width]
    key = lane * n + node
    visited[key] = True
    keys = _Stream(np.int64)
    keys.append(key)
    parts = []
    try:
        while True:
            pos, counts = frontier_edge_positions(in_indptr, node)
            e_lane = np.repeat(lane, counts)
            hit = _lane_draw_ints(slot_seeds, e_lane, edge_hash, pos) < thr.take(pos)
            key = e_lane[hit] * n + in_nodes.take(pos[hit])
            key = unique_sorted(key[~visited[key]])
            visited[key] = True
            keys.append(key)
            busy = lanes.refill_due(key) if lanes.waiting else None
            if busy is not None:
                keys.retire(lanes, ~busy, visited)
                new, samples = lanes.refill(busy)
                slot_seeds[new] = lane_seeds[samples]
                init = new * n + roots[samples]
                visited[init] = True
                keys.append(init)
                key = np.concatenate([key, init])
                _rr_group(keys, lanes, lanes.ready(), parts)
            if not key.size:
                break
            lane = key // n
            node = key - lane * n
        keys.retire(lanes, np.ones(width, dtype=bool), visited)
    finally:
        # Restore the shared plane even on interrupt/OOM — the engine is
        # cached on the graph, so leaked marks would corrupt every later
        # sample.
        for chunk in keys.live[0]:
            visited[chunk] = False
    _rr_group(keys, lanes, lanes.ready(final=True), parts)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([c for c, _ in parts]), np.concatenate([v for _, v in parts])


def _rr_group(keys: _Stream, lanes: _Slots, ready, parts: list) -> None:
    """Append the ``(counts, members)`` of the ``ready`` samples, if any,
    to ``parts``."""
    if ready is not None:
        lo, hi = ready
        (k,) = keys.take(lanes.n, lo, hi, hi == lanes.num)
        lane = k // lanes.n
        counts, order = _lane_csr(lane, hi - lo)
        parts.append((counts, (k - lane * lanes.n)[order]))


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
) -> Iterator[LanePhase1]:
    """Backward 0–1 BFS from every root of a draw, distance-``> k`` pruned.

    Runs Dial's algorithm for all running samples at once: every pass
    processes the union of their current frontiers as flat ``slot * n +
    node`` keys, each sample at its own distance level.  Since each
    sample's world is fixed by its seed, the shared schedule yields, per
    sample, exactly the edge and seed sets (and node counts) of a solo
    world-seeded :meth:`~repro.engine.batch.SamplingEngine.prr_phase1`
    run, in the order the sample explored them.

    The samples stream through one PRR batch of lane slots
    (:func:`batch_lanes`): a slot whose sample activates, or has no
    frontier and nothing pooled left, takes the next root (see
    :class:`_Slots`).
    Yields the draw as :class:`LanePhase1` groups of consecutive samples
    in sample order: its finished prefix whenever that holds at least a
    slot set, and the rest at the end; a draw that fits its slots comes
    back as one group.  Between groups the plane of the running samples
    is live in the lane arena: a consumer may only use the arena as
    :func:`critical_lanes` does.

    Roots that are seeds come back activated without exploration and
    never take a freed slot.  The per-sample ``explored`` edge counters
    of samples that activate *during* level 0 may exceed the solo path's
    (the shared pass finishes before the activation takes effect) —
    diagnostics only; every arena-visible output is identical.  The
    int16 distance plane (a view of the engine's lane arena) is zeroed
    again before the last group, and when the pass loop raises or the
    consumer closes the generator.
    """
    if k + 1 >= int(DIST_BASE):
        raise ValueError("k exceeds the lane kernel's int16 distance range")
    n = engine.n
    roots = roots.astype(np.int64, copy=False)
    lane_seeds = lane_seeds.astype(np.uint64, copy=False)
    seed_roots = seeds_mask[roots]
    activated = seed_roots.copy()
    lanes = _Slots(n, int(roots.size), "prr", skip=seed_roots)
    dist = engine.lane_arena(2 * lanes.width * n).view(np.int16)
    out = _Phase1Chunks()
    try:
        ready = _prr_level_loop(
            engine, seeds_mask, k, roots, lane_seeds, activated, dist, lanes, out
        )
        for lo, hi in ready:
            yield _phase1_group(engine, out, roots, activated, seed_roots, lo, hi)
    finally:
        # Restore the shared plane even on interrupt/OOM — the engine is
        # cached on the graph, so stale marks would corrupt later batches.
        for chunk in out.touched.live[0]:
            dist[chunk] = 0


class _Phase1Chunks:
    """Per-pass outputs of :func:`_prr_level_loop`: keys whose distance
    left the sentinel, processed frontier keys, kept edges (source keys,
    head nodes, boost flags) and the keys of discovered seeds."""

    def __init__(self) -> None:
        self.touched = _Stream(np.int64)
        self.done = _Stream(np.int64)
        self.edges = _Stream(np.int64, np.int64, bool)
        self.seeds = _Stream(np.int64)

    def retire(self, lanes: _Slots, finished: np.ndarray, dist: np.ndarray) -> None:
        self.touched.retire(lanes, finished, dist)
        for stream in (self.done, self.edges, self.seeds):
            stream.convert(lanes)


def _phase1_group(engine, out, roots, activated, seed_roots, lo, hi) -> LanePhase1:
    """The :class:`LanePhase1` of samples ``[lo, hi)``, all retired."""
    n = engine.n
    num = hi - lo
    last = hi == roots.size
    activated = activated[lo:hi]
    node_count, explored = _lane_counters(
        engine, *out.touched.take(n, lo, hi, last), *out.done.take(n, lo, hi, last),
        seed_roots[lo:hi],
    )
    edge_indptr, edge_src, edge_dst, edge_boost = _lane_edges(
        out.edges.take(n, lo, hi, last), activated, n
    )
    (skeys,) = out.seeds.take(n, lo, hi, last)
    s_lane, seed_nodes = np.divmod(unique_sorted(skeys), n)
    live = ~activated[s_lane]
    s_counts = np.bincount(s_lane[live], minlength=num)
    seed_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(s_counts, out=seed_indptr[1:])
    return LanePhase1(
        roots=roots[lo:hi],
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
    lane, node = np.divmod(done, n)
    indptr = engine._in_indptr
    degree = indptr[node + 1] - indptr[node]
    explored = np.bincount(lane, weights=degree, minlength=num).astype(np.int64)
    return node_count, explored


def _lane_edges(cols: list, activated, n):
    """``(edge_indptr, src, dst, boost)``: the kept edges of the lanes that
    did not activate, grouped by lane in exploration order, from the
    ``[src keys, dst, boost]`` columns (released as they are used)."""
    num = activated.size
    lane, srcs = np.divmod(cols.pop(0), n)
    lane[activated[lane]] = num  # sorts after every live lane, then dropped
    counts, order = _lane_csr(lane, num + 1)
    del lane
    order = order[: order.size - counts[num]]
    edge_indptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts[:num], out=edge_indptr[1:])
    return edge_indptr, srcs.take(order), cols.pop(0).take(order), cols.pop(0).take(order)


def _prr_level_loop(
    engine, seeds_mask, k, roots, lane_seeds, activated, dist, lanes, out
) -> Iterator[Tuple[int, int]]:
    """Dial's 0-1 BFS of :func:`prr_phase1_lanes`, each slot's sample at
    its own distance level; yields the ``[lo, hi)`` groups of samples it
    has finished and retired (split out so the caller can guarantee plane
    restoration around it).

    A pass processes every running sample's current frontier.  A sample's
    live-edge candidates stay at its level for the next pass; its
    boost-edge candidates wait in a pool until it runs out of live
    candidates and moves up a level (to ``k`` at most).  So each sample
    processes the frontiers of a solo run in the same order, and none
    waits for the others to finish a level.  Every distance write is a
    strict improvement: a key is queued at most once per level and never
    after it was processed, and a pooled key improved since fails the
    ``dist == level`` check when its sample moves up.  No processed-mark
    plane is kept.  A sample is finished when it activates, or when it
    has no frontier left (a sample's pool only outlives its frontier when
    it activated; those keys are dropped before the slot is reused).
    """
    n = engine.n
    width = lanes.width
    in_indptr = engine._in_indptr
    in_nodes = engine._in_nodes
    in_p = engine._in_p
    in_pp = engine._in_pp
    edge_hash = engine._in_hash
    with np.errstate(over="ignore"):
        seed_mult = lane_seeds[:width] * SEED_MULT  # the per-slot half of every draw
    level = np.zeros(width, dtype=np.int64)  # each slot's distance level
    lane_act = activated[:width].copy()  # whether each slot's sample activated
    pool = _EMPTY_I64  # boost candidates of samples not yet at their level
    f = np.flatnonzero(~lane_act) * n + roots[:width][~lane_act]
    dist[f] = DIST_BASE  # distance 0
    out.touched.append(f)
    while True:
        if f.size:
            f = unique_sorted(f)
            out.done.append(f)
            lane, node = np.divmod(f, n)
            pos, counts = frontier_edge_positions(in_indptr, node)
            e_lane = lane.repeat(counts)
            e_level = level.take(e_lane)
            # hash_draw(sample seed, src, head) of every frontier edge.
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
            out.edges.append(g, node.repeat(counts).take(kept), boost)
            is_seed = seeds_mask.take(srcs)
            activating = False
            if is_seed.any():
                out.seeds.append(g[is_seed])
                # A live edge from a seed at level 0 activates its sample's
                # root without boosting.
                act = e_lane[is_seed & ~boost & (e_level == 0)]
                lane_act[act] = True
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
                f = f[~lane_act[f // n]]
        busy = lanes.refill_due(f) if lanes.waiting else None
        if busy is not None:
            _retire_samples(lanes, ~busy, lane_act, activated, dist, out)
            pool = pool[busy[pool // n]]  # activated samples' boost candidates
            new, samples = lanes.refill(busy)
            with np.errstate(over="ignore"):
                seed_mult[new] = lane_seeds[samples] * SEED_MULT
            level[new] = 0
            lane_act[new] = False
            init = new * n + roots[samples]
            dist[init] = DIST_BASE
            out.touched.append(init)
            f = np.concatenate([f, init])
            ready = lanes.ready()
            if ready is not None:
                yield ready
        if not f.size:
            break
    _retire_samples(lanes, np.ones(width, dtype=bool), lane_act, activated, dist, out)
    ready = lanes.ready(final=True)
    if ready is not None:
        yield ready


def _retire_samples(lanes, finished, lane_act, activated, dist, out) -> None:
    """Retire the samples of the ``finished`` slots: record their
    activation, zero their plane entries, move their outputs to sample
    space."""
    held = lanes.sample[finished]
    activated[held[held >= 0]] = lane_act[finished][held >= 0]
    out.retire(lanes, finished, dist)


# ----------------------------------------------------------------------
# Critical sets
# ----------------------------------------------------------------------
def critical_lanes(
    engine,
    seeds_mask: np.ndarray,
    roots: np.ndarray,
    lane_seeds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Critical node sets ``C_R`` for every root of a draw.

    Phase I capped at boost-distance 1, streamed through one batch of
    lane slots (:func:`prr_phase1_lanes`), then per group of finished
    samples one live-reachability pass over the group's boostable lanes,
    at most one batch of them at a time: their regions live in disjoint
    ``rank * n + node`` key ranges, so one frontier BFS
    (:func:`_grow_region`) serves them all.  Returns ``(status_codes,
    counts, members, explored)`` with the critical sets as a lane-grouped
    CSR of sorted unique node ids.
    """
    width = batch_lanes(engine.n, "critical")
    groups = prr_phase1_lanes(engine, seeds_mask, roots, 1, lane_seeds)
    with closing(groups):
        parts = [_critical_sets(engine, ph, seeds_mask, width) for ph in groups]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


# A critical region is marked in bit 15 of the phase-I distance plane,
# which DIST_BASE encoding never sets: the plane's other bits still hold
# the distances of the samples running meanwhile.
_REGION = np.int16(-(1 << 15))
_DISTANCE = np.int16((1 << 15) - 1)


def _critical_sets(engine, ph: LanePhase1, seeds_mask: np.ndarray, width: int):
    """``(status_codes, counts, members, explored)`` of one phase-I group,
    its boostable lanes ``width`` at a time."""
    n = engine.n
    num = int(ph.roots.size)
    status = np.full(num, CODE_BOOSTABLE, dtype=np.int8)
    status[np.diff(ph.seed_indptr) == 0] = CODE_HOPELESS
    status[ph.activated] = CODE_ACTIVATED
    lanes = np.flatnonzero(status == CODE_BOOSTABLE)
    found = [_EMPTY_I64]
    for lo in range(0, lanes.size, width):
        chunk = lanes[lo : lo + width]
        plane = engine.lane_arena(2 * chunk.size * n).view(np.int16)
        found.append(_critical_keys(ph, chunk, seeds_mask, n, plane, status))
    keys = np.concatenate(found)
    lane = keys // n
    return status, np.bincount(lane, minlength=num), keys - lane * n, ph.explored


def _critical_keys(ph, lanes, seeds_mask, n, plane, status) -> np.ndarray:
    """The sorted ``lane * n + node`` keys of the critical sets of the
    boostable ``lanes`` of ``ph``.  Lane ``lanes[r]``'s live region is
    marked at the keys ``r * n + node`` of ``plane`` (see
    :data:`_REGION`) and unmarked before returning.  A root found inside
    its live region is activated instead (defensive: phase I catches live
    seed->root paths)."""
    rank = np.arange(lanes.size, dtype=np.int64)
    pos, counts = frontier_edge_positions(ph.edge_indptr, lanes)
    edge_rank = rank.repeat(counts)
    heads = ph.edge_dst.take(pos)
    boost = ph.edge_boost.take(pos)
    tails = edge_rank * n + ph.edge_src.take(pos)
    pos, counts = frontier_edge_positions(ph.seed_indptr, lanes)
    seed_keys = rank.repeat(counts) * n + ph.seed_nodes.take(pos)
    marked = [seed_keys]
    try:
        plane[seed_keys] |= _REGION
        _grow_region(plane, tails[~boost], edge_rank[~boost] * n + heads[~boost], marked)
        inside = plane[tails] < 0
        root_hit = plane[rank * n + ph.roots[lanes]] < 0
    finally:
        for keys in marked:
            plane[keys] &= _DISTANCE
    status[lanes[root_hit]] = CODE_ACTIVATED
    crit = boost & inside & ~seeds_mask[heads] & ~root_hit[edge_rank]
    keys = unique_sorted(edge_rank[crit] * n + heads[crit])
    r = keys // n
    return lanes[r] * n + (keys - r * n)


def _grow_region(plane, tails, heads, marked: list) -> None:
    """Mark (:data:`_REGION`) every key of ``plane`` reachable from the
    marked ``marked[0]`` keys along the edges ``tails -> heads``,
    appending the new keys of each round to ``marked``.

    A frontier BFS over the edges grouped by tail once
    (:func:`~repro.engine.traversal.group_by_tail`), as
    :func:`repro.core.prr._bfs01` runs its passes: each round expands
    only the keys the previous one reached.
    """
    if not tails.size:
        return
    run_keys, run_indptr, order = group_by_tail(tails)
    del tails  # a caller's temporary: free it before the gather
    heads = heads[order]
    del order
    f = marked[0]
    while f.size:
        run, found = sorted_lookup(run_keys, f)
        pos, _counts = frontier_edge_positions(run_indptr, run[found])
        f = heads.take(pos)
        f = unique_sorted(f[plane[f] >= 0])
        plane[f] |= _REGION
        marked.append(f)


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
