"""The :class:`SamplingEngine`: batched, array-based Monte-Carlo sampling.

One engine instance per graph owns

* reusable stamp buffers (visited marks, distances, processed flags) so a
  single sample costs no O(n) allocation,
* one zero-filled lane scratch arena (:meth:`SamplingEngine.lane_arena`)
  that every lane kernel's planes view, at most
  :data:`~repro.engine.lanes.LANE_BYTES` whatever mix of kernels runs,
* an :class:`~repro.engine.world.EdgeStateArray` for PRR worlds,
* the three hot-path samplers: forward cascades (``simulate`` /
  ``cascades``), backward RR sets (``rr_set`` / ``sample_rr_batch``)
  and backward PRR exploration (``prr_phase1`` / ``critical_set`` /
  ``sample_critical_batch``; PRR-graph assembly lives above in
  :mod:`repro.core.prr`, which loops ``prr_phase1`` for its batches).

Forward cascades are parameterized by a pluggable
:class:`~repro.engine.models.DiffusionModel` (``model=`` on
``simulate`` / ``cascades`` / ``simulate_batch`` / ``estimate_sigma`` /
``estimate_boost`` / ``simulate_hashed`` / ``cascade_lane_csr``):
incoming-boost IC (the default, and the only semantics the backward
samplers serve), the outgoing-boost IC variant, and boosted LT all run
on the same frontier traversal, hashed worlds and lane planes.

Every Monte Carlo estimate goes through one loop, :meth:`SamplingEngine.cascades`:
one lane seed per world, drawn from the caller's RNG by
:func:`~repro.engine.lanes.draw_lane_seeds`, and as many hashed worlds
per frontier step as fit the lane budget.  The single-cascade
``simulate`` instead consumes the RNG draw-for-draw like the pre-engine
pure-Python simulator, as ``rr_set`` does for RR sets and PRR sampling
does when ``world_seed`` pins the world by hashing.  RNG-driven
PRR/critical sampling draws edge states per frontier slice instead of
per edge, so for a given generator state it samples a *different but
equally valid* world — only the distribution is preserved.

Batch forms run on the lane kernels of :mod:`repro.engine.lanes`:
``sample_rr_batch`` (default mode) and ``sample_critical_batch`` advance
their running samples per frontier step over per-lane hashed worlds, in
as many lane slots as fit :data:`~repro.engine.lanes.LANE_BYTES` of
planes (:func:`~repro.engine.lanes.batch_lanes`; 838 RR or 419 critical
slots on a 10k-node graph; a slot whose sample finished takes the next
root), all viewed in the engine's one scratch arena
(:meth:`SamplingEngine.lane_arena`), and the CSR entry points
(``rr_lane_csr``, ``critical_lane_csr``, ``prr_phase1_lanes``) hand
their flat output arrays straight to
:class:`~repro.engine.coverage.CoverageIndex` /
:class:`~repro.core.prr.PRRArena` without a per-sample Python
round-trip.  Lane batches draw a different (equally valid) stream than
looping the single-sample forms — the singles remain the seeded
distributional oracles, and ``sample_rr_batch(strict=True)`` still
reproduces ``count`` :meth:`SamplingEngine.rr_set` calls bit-for-bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .coverage import csr_to_frozensets
from .hashing import SEED_MULT, edge_hash_base, node_hash_base, splitmix_finalize
from .lanes import (
    LANE_WIDTH,
    LanePhase1,
    batch_lanes,
    critical_lanes,
    draw_lane_inputs,
    draw_lane_seeds,
    prr_phase1_lanes,
    rr_member_lanes,
)
from .models import resolve_model
from .traversal import first_occurrence, frontier_edge_positions, unique_sorted
from .world import BLOCKED, BOOST, EdgeStateArray

__all__ = [
    "SamplingEngine",
    "PhaseOneResult",
    "ACTIVATED",
    "HOPELESS",
    "BOOSTABLE",
    "STATUS_NAMES",
]

# Root classification of backward PRR / critical-set sampling.  The string
# values are shared with :mod:`repro.core.prr`, which re-exports them.
ACTIVATED = "activated"
HOPELESS = "hopeless"
BOOSTABLE = "boostable"

_INT64_MAX = np.iinfo(np.int64).max
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)

# Status-name lookup aligned with the lane kernels' int8 codes
# (0 = activated, 1 = hopeless, 2 = boostable).
STATUS_NAMES = (ACTIVATED, HOPELESS, BOOSTABLE)

# Guards the per-graph engine-cache slot of :meth:`SamplingEngine.for_graph`.
_FOR_GRAPH_LOCK = threading.Lock()

# Per-thread engine cache for non-main threads (id(graph) -> (engine,
# version)): the HTTP server's query thread and callers' own threads
# sample off the main thread, and the engine's stamp buffers are shared
# mutable scratch — so every such thread gets (and keeps, across calls) a
# private engine per graph.  Holding the engine keeps its graph alive, so
# the id key cannot be reused while the entry is live; the identity check
# below guards the eviction race anyway.
_THREAD_ENGINES = threading.local()
_THREAD_ENGINE_CAP = 8


@dataclass
class PhaseOneResult:
    """Raw outcome of the backward PRR exploration (Algorithm 1, phase I).

    ``edge_src``/``edge_dst``/``edge_boost`` are the collected non-blocked
    edges on paths within the boost budget; the domain layer
    (:mod:`repro.core.prr`) compresses them into a PRR-graph.
    """

    root: int
    activated: bool
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_boost: np.ndarray
    seeds_found: np.ndarray
    node_count: int
    explored_edges: int


class SamplingEngine:
    """Vectorized sampling over one :class:`~repro.graphs.digraph.DiGraph`."""

    __slots__ = (
        "graph", "n", "m",
        "_out_indptr", "_out_nodes", "_out_p", "_out_pp", "_out_eid",
        "_out_src", "_out_hash", "_node_hash",
        "_in_indptr", "_in_nodes", "_in_p", "_in_pp", "_in_eid",
        "_in_hash", "_in_thr64", "_arena", "_rr_dense",
        "_edge_states", "_visit", "_proc", "_dist", "_dist_stamp",
        "_region", "_stamp", "_seeds_key_mask", "_prr_kept",
    )

    def __init__(self, graph) -> None:
        self.graph = graph
        self.n = graph.n
        self.m = graph.m
        out = graph.out_csr()
        self._out_indptr = out.indptr
        self._out_nodes = out.nodes
        self._out_p = out.p
        self._out_pp = out.pp
        self._out_eid = out.eid
        inc = graph.in_csr()
        self._in_indptr = inc.indptr
        self._in_nodes = inc.nodes
        self._in_p = inc.p
        self._in_pp = inc.pp
        self._in_eid = inc.eid
        src, dst, p, pp = graph.edge_arrays()
        self._edge_states = EdgeStateArray(src, dst, p, pp)
        # Lane-kernel precomputation: the seed-independent hash base of
        # every in-CSR position (source, head) and the integer Bernoulli
        # thresholds round(p * 2^64) the RR lanes compare raw hashes to;
        # plus, for forward cascades, the out-CSR row owner of every
        # position (the edge's tail — the outgoing-boost model keys its
        # thresholds on it), the hash base of each out position, and the
        # per-node hash base behind LT's lane thresholds.  Store-backed
        # graphs persist these five arrays (written with the same hashing
        # functions, hence bit-identical), so opening a big store skips
        # the O(m) warm-up — and, under mmap, never pages the arrays in
        # until a traversal touches them.
        pre_fn = getattr(graph, "engine_precompute", None)
        pre = pre_fn() if pre_fn is not None else None
        if pre is not None:
            self._in_hash = pre["in_hash"]
            self._in_thr64 = pre["in_thr64"]
            self._out_src = pre["out_src"]
            self._out_hash = pre["out_hash"]
            self._node_hash = pre["node_hash"]
        else:
            heads = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self._in_indptr)
            )
            self._in_hash = edge_hash_base(self._in_nodes, heads)
            thr = np.minimum(self._in_p * 2.0**64, np.nextafter(2.0**64, 0))
            self._in_thr64 = thr.astype(np.uint64)
            self._out_src = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self._out_indptr)
            )
            self._out_hash = edge_hash_base(self._out_src, self._out_nodes)
            self._node_hash = node_hash_base(np.arange(self.n, dtype=np.int64))
        self._arena: Optional[np.ndarray] = None
        self._rr_dense: Optional[bool] = None  # learned on first lane batch
        # ((seeds, k), mean kept phase-I edges per lane, samples) of the
        # last PRR lane draw: sizes the first batch of the next one
        # (sample_prr_lanes).
        self._prr_kept: Optional[Tuple[tuple, float, int]] = None
        self._visit = np.zeros(self.n, dtype=np.int64)
        self._proc = np.zeros(self.n, dtype=np.int64)
        self._dist = np.zeros(self.n, dtype=np.int64)
        self._dist_stamp = np.zeros(self.n, dtype=np.int64)
        self._region = np.zeros(self.n, dtype=np.int64)
        self._stamp = 0
        self._seeds_key_mask: Optional[Tuple[FrozenSet[int], np.ndarray]] = None

    @classmethod
    def for_graph(cls, graph) -> "SamplingEngine":
        """The calling thread's cached engine for ``graph``.

        The engine's stamp buffers are shared mutable scratch, so one
        engine must never be driven by two threads at once.  ``for_graph``
        therefore keys its cache per thread:

        * the **main thread** uses the graph's ``_engine_cache`` slot (one
          engine per graph process-wide, exactly the pre-serving
          behaviour; a process-wide lock guards creation),
        * **other threads** — the HTTP server's query thread, callers'
          own threads — each keep a private thread-local engine per graph,
          built on first use and reused for the thread's lifetime, so a
          long-lived thread pays each graph's engine warm-up once.

        :meth:`repro.graphs.DiGraph.update_probabilities` clears the slot
        cache directly and bumps :attr:`~repro.graphs.DiGraph.version`;
        thread-local entries compare the version and rebuild.
        Process-based parallelism (:mod:`repro.core.parallel`) is
        unaffected: each forked worker is single-threaded and owns its
        copy."""
        if threading.current_thread() is threading.main_thread():
            engine = getattr(graph, "_engine_cache", None)
            if engine is None:
                with _FOR_GRAPH_LOCK:
                    engine = getattr(graph, "_engine_cache", None)
                    if engine is None:
                        engine = cls(graph)
                        try:
                            graph._engine_cache = engine
                        except AttributeError:  # graph without the cache slot
                            pass
            return engine
        cache = getattr(_THREAD_ENGINES, "cache", None)
        if cache is None:
            cache = _THREAD_ENGINES.cache = {}
        version = getattr(graph, "version", 0)
        entry = cache.get(id(graph))
        if entry is not None:
            engine, built_version = entry
            if engine.graph is graph and built_version == version:
                return engine
        engine = cls(graph)
        if len(cache) >= _THREAD_ENGINE_CAP:
            cache.pop(next(iter(cache)))
        cache[id(graph)] = (engine, version)
        return engine

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

    def lane_arena(self, nbytes: int) -> np.ndarray:
        """The first ``nbytes`` of the engine's zero-filled lane scratch, as
        uint8.  Every lane kernel views its planes in this one buffer (as
        bool, int16 or float64), so it grows to the largest batch's planes
        — at most :data:`~repro.engine.lanes.LANE_BYTES` unless a single
        lane needs more.  Borrowers must zero every byte they set before
        returning: the next batch, of any kernel, gets the same bytes."""
        arena = self._arena
        if arena is None or arena.size < nbytes:
            arena = self._arena = np.zeros(nbytes, dtype=np.uint8)
        return arena[:nbytes]

    def seeds_mask(self, seeds: AbstractSet[int]) -> np.ndarray:
        key = seeds if isinstance(seeds, frozenset) else frozenset(int(s) for s in seeds)
        cached = self._seeds_key_mask
        if cached is not None and cached[0] == key:
            return cached[1]
        mask = np.zeros(self.n, dtype=bool)
        mask[list(key)] = True
        self._seeds_key_mask = (key, mask)
        return mask

    # ------------------------------------------------------------------
    # Reverse-reachable sets
    # ------------------------------------------------------------------
    def _rr_members(
        self, rng: np.random.Generator, r: int, strict: bool = True
    ) -> np.ndarray:
        """Node ids of one RR-set, via frontier-vectorized backward BFS.

        With ``strict=True`` the draws are consumed draw-for-draw like the
        edge-wise lazy BFS: one uniform per in-edge of every frontier node,
        in frontier order.  With ``strict=False`` edges whose source is
        already in the set are skipped *before* drawing — the sampled
        distribution is unchanged (those draws can never add a node), but
        dense RR-sets cost far fewer uniforms and smaller frontier scans.
        """
        cur = self._next_stamp()
        visit = self._visit
        visit[r] = cur
        frontier = np.array([r], dtype=np.int64)
        chunks = [frontier]
        indptr = self._in_indptr
        nodes = self._in_nodes
        probs = self._in_p
        while frontier.size:
            pos, _counts = frontier_edge_positions(indptr, frontier)
            if pos.size == 0:
                break
            if strict:
                draws = rng.random(pos.size)
                hit = draws < probs.take(pos)
                cand = nodes.take(pos[hit])
                fresh = cand[visit.take(cand) != cur]
                if fresh.size == 0:
                    break
                frontier = first_occurrence(fresh)
            else:
                srcs = nodes.take(pos)
                unvisited = visit.take(srcs) != cur
                pos = pos[unvisited]
                if pos.size == 0:
                    break
                srcs = srcs[unvisited]
                draws = rng.random(pos.size)
                fresh = srcs[draws < probs.take(pos)]
                if fresh.size == 0:
                    break
                frontier = unique_sorted(fresh)
            visit[frontier] = cur
            chunks.append(frontier)
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    def rr_set(
        self, rng: np.random.Generator, root: int | None = None
    ) -> FrozenSet[int]:
        """One RR-set for ``root`` (uniform random root when omitted)."""
        r = int(rng.integers(self.n)) if root is None else int(root)
        return frozenset(self._rr_members(rng, r).tolist())

    def rr_members(
        self,
        rng: np.random.Generator,
        root: int | None = None,
        strict: bool = True,
    ) -> np.ndarray:
        """One RR-set as a member-id array (no frozenset materialization).

        Same sampling as :meth:`rr_set`; array-consuming callers (the
        coverage index) skip the Python set entirely.
        """
        r = int(rng.integers(self.n)) if root is None else int(root)
        return self._rr_members(rng, r, strict=strict)

    # Mean members per sample above which lane batching stops paying off:
    # dense traversals are array-work bound, so the single-sample hashed
    # loop evaluates them with less key arithmetic.  The choice only
    # affects speed — sample i is the RR-set of roots[i] in the world
    # fixed by seeds[i], a pure function both evaluators agree on.
    RR_DENSE_CUTOFF = 512

    def _rr_members_hashed(self, root: int, world_seed) -> np.ndarray:
        """One RR-set in the world fixed by ``world_seed`` — the
        single-sample evaluator of the lane kernel's pure function (same
        members, same order, no RNG)."""
        cur = self._next_stamp()
        visit = self._visit
        visit[root] = cur
        frontier = np.array([root], dtype=np.int64)
        chunks = [frontier]
        seed = np.uint64(world_seed)
        indptr = self._in_indptr
        nodes = self._in_nodes
        edge_hash = self._in_hash
        thr = self._in_thr64
        while frontier.size:
            pos, _counts = frontier_edge_positions(indptr, frontier)
            if pos.size == 0:
                break
            srcs = nodes.take(pos)
            unvisited = visit.take(srcs) != cur
            pos = pos[unvisited]
            if pos.size == 0:
                break
            srcs = srcs[unvisited]
            with np.errstate(over="ignore"):
                x = seed * SEED_MULT + edge_hash.take(pos)
            fresh = srcs[splitmix_finalize(x) < thr.take(pos)]
            if fresh.size == 0:
                break
            frontier = unique_sorted(fresh)
            visit[frontier] = cur
            chunks.append(frontier)
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    def rr_lane_csr(
        self,
        rng: Optional[np.random.Generator],
        count: int,
        roots: Sequence[int] | None = None,
        world_seeds: Sequence[int] | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` RR-sets via the lane kernel, as a ``(counts, members)``
        CSR — the shape :meth:`CoverageIndex.extend_csr` ingests directly.

        Roots (uniform) and per-sample world seeds not passed in are drawn
        from ``rng`` upfront — two generator calls total, see
        :func:`~repro.engine.lanes.draw_lane_inputs` — after which sample
        ``i`` is a pure function of ``(roots[i], world_seeds[i])``: the
        RR-set of that root in that hashed world.  The lane kernel
        streams the draw through as many lane slots as fit
        :data:`~repro.engine.lanes.LANE_BYTES` of visited plane (one byte
        per slot and node): a slot whose sample finished takes the next
        root.  On graphs whose RR-sets come back dense (mean size above
        :data:`RR_DENSE_CUTOFF`, learned from a 32-sample probe on a
        fresh engine and from every draw) the same samples are evaluated
        by the single-sample hashed loop instead, which wins once array
        work dominates call overhead.  The sampled distribution matches
        :meth:`rr_set`, the seeded distributional oracle.
        """
        if count <= 0:
            return _EMPTY_I64, _EMPTY_I64
        all_roots, all_seeds = draw_lane_inputs(
            rng, self.n, count, roots, world_seeds
        )
        width = batch_lanes(self.n, "rr")
        parts: List[Tuple[np.ndarray, np.ndarray]] = []
        done = 0
        if self._rr_dense is None:  # probe narrowly on a fresh graph
            done = min(32, width, count)
            parts.append(rr_member_lanes(self, all_roots[:done], all_seeds[:done]))
            self._rr_dense = parts[0][1].size > self.RR_DENSE_CUTOFF * done
        if done < count and self._rr_dense:
            members = [
                self._rr_members_hashed(int(r), s)
                for r, s in zip(all_roots[done:], all_seeds[done:])
            ]
            sizes = np.array([m.size for m in members], dtype=np.int64)
            parts.append((sizes, np.concatenate(members)))
        elif done < count:
            parts.append(rr_member_lanes(self, all_roots[done:], all_seeds[done:]))
            self._rr_dense = parts[-1][1].size > self.RR_DENSE_CUTOFF * (count - done)
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([c for c, _ in parts]),
            np.concatenate([v for _, v in parts]),
        )

    def sample_rr_batch(
        self,
        rng: np.random.Generator,
        count: int,
        roots: Sequence[int] | None = None,
        strict: bool = False,
    ) -> List[FrozenSet[int]]:
        """``count`` RR-sets in one batch.

        The default mode drives the multi-source lane kernel
        (:func:`repro.engine.lanes.rr_member_lanes`) through
        :meth:`rr_lane_csr`: a budget-sized batch of roots advances per
        frontier step over per-lane hashed worlds — same distribution as
        :meth:`rr_set`, a different (equally valid) stream.  Pass
        ``strict=True`` for batches bit-for-bit equal to ``count``
        :meth:`rr_set` calls on the same generator.
        """
        if strict:
            out = []
            for i in range(count):
                r = int(rng.integers(self.n)) if roots is None else int(roots[i])
                out.append(
                    frozenset(self._rr_members(rng, r, strict=True).tolist())
                )
            return out
        return csr_to_frozensets(*self.rr_lane_csr(rng, count, roots=roots))

    # ------------------------------------------------------------------
    # Forward cascades (pluggable diffusion models)
    # ------------------------------------------------------------------
    def simulate(
        self,
        seeds,
        boost,
        rng: np.random.Generator,
        model=None,
    ) -> set:
        """One cascade under ``model`` (default incoming-boost IC);
        returns the activated set.

        IC draws uniforms per frontier out-edge in frontier order — the
        same stream the edge-wise simulators consume — and LT draws only
        its per-node threshold vector, so seeded runs stay bit-for-bit
        comparable to the retained pure-Python oracles of each model.
        """
        return resolve_model(model).simulate(self, seeds, boost, rng)

    def _simulate_ic(
        self,
        thr: np.ndarray,
        seeds,
        rng: np.random.Generator,
    ) -> set:
        """Frontier-vectorized IC cascade under effective thresholds
        ``thr`` (any IC-family model resolves its boost rule into
        ``thr`` before calling)."""
        cur = self._next_stamp()
        visit = self._visit
        frontier = np.fromiter(set(seeds), dtype=np.int64)
        visit[frontier] = cur
        chunks = [frontier]
        indptr = self._out_indptr
        nodes = self._out_nodes
        while frontier.size:
            pos, _counts = frontier_edge_positions(indptr, frontier)
            if pos.size == 0:
                break
            draws = rng.random(pos.size)
            hit = draws < thr[pos]
            cand = nodes[pos[hit]]
            fresh = cand[visit[cand] != cur]
            if fresh.size == 0:
                break
            frontier = first_occurrence(fresh)
            visit[frontier] = cur
            chunks.append(frontier)
        return set(np.concatenate(chunks).tolist()) if len(chunks) > 1 else set(chunks[0].tolist())

    def cascades(
        self,
        seeds,
        boost,
        lane_seeds: np.ndarray,
        model=None,
        members: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The cascade of ``model`` in the world fixed by each lane seed —
        the one Monte Carlo loop behind every forward estimator.

        Worlds are evaluated as many per frontier step as the model's
        planes fit :data:`~repro.engine.lanes.LANE_BYTES` (one byte per
        lane and node for IC, nine for LT).  Returns ``(sizes,
        values)``: the activated-set size of every world and, with
        ``members``, the activated sets as one CSR of sorted node ids
        (counts are ``sizes``; ``values`` is None otherwise).  World
        ``i`` is a pure function of ``(seeds, boost, lane_seeds[i])``,
        so the same lane seeds replay the same worlds under any boost
        set — paired comparisons come free.
        """
        mdl = resolve_model(model)
        run = mdl.cascade_plan(self, seeds, boost)
        width = batch_lanes(self.n, mdl.lane_kernel)
        parts = [
            run(lane_seeds[lo : lo + width], members=members)
            for lo in range(0, lane_seeds.size, width)
        ]
        if not parts:
            return _EMPTY_I64, (_EMPTY_I64 if members else None)
        sizes = np.concatenate([s for s, _c, _v in parts])
        values = np.concatenate([v for _s, _c, v in parts]) if members else None
        return sizes, values

    def simulate_batch(
        self,
        seeds,
        boost,
        rng: np.random.Generator,
        runs: int,
        model=None,
    ) -> np.ndarray:
        """Cascade sizes of ``runs`` independent worlds under ``boost``,
        one hashed world per lane seed drawn from ``rng``
        (:func:`~repro.engine.lanes.draw_lane_seeds`)."""
        return self.cascades(seeds, boost, draw_lane_seeds(rng, runs), model)[0]

    def simulate_hashed(
        self, seeds, boost, world_seed: int, model=None
    ) -> set:
        """The activated set in the world fixed by ``world_seed`` — the
        single-sample evaluator of the cascade lane kernels' pure
        function (no RNG; same members for any lane batch containing
        this seed)."""
        return resolve_model(model).simulate_hashed(
            self, seeds, boost, world_seed
        )

    def cascade_lane_csr(
        self,
        seeds,
        boost,
        rng: np.random.Generator,
        count: int,
        model=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` activated sets via the cascade lane kernels, as a
        ``(counts, members)`` CSR of sorted node ids per sample.

        Sample ``i`` is the cascade of ``model`` in the world fixed by
        the ``i``-th seed drawn from ``rng`` — a pure function of
        ``(seeds, boost, world_seed)`` shared with
        :meth:`simulate_hashed`.
        """
        if count <= 0:
            return _EMPTY_I64, _EMPTY_I64
        return self.cascades(
            seeds, boost, draw_lane_seeds(rng, count), model, members=True
        )

    def estimate_sigma(
        self, seeds, boost, rng, runs: int = 1000, model=None
    ) -> float:
        """Monte Carlo ``σ_S(B)`` via :meth:`simulate_batch`."""
        if runs <= 0:
            raise ValueError("runs must be positive")
        return float(
            self.simulate_batch(seeds, boost, rng, runs, model=model).mean()
        )

    def estimate_boost(
        self, seeds, boost, rng, runs: int = 1000, model=None
    ) -> float:
        """Monte Carlo ``Δ_S(B)`` with common random numbers: the same
        ``runs`` lane seeds fix the worlds of both arms, ``B`` and ``∅``,
        so the variance of the paired difference stays small."""
        if runs <= 0:
            raise ValueError("runs must be positive")
        lane_seeds = draw_lane_seeds(rng, runs)
        boosted, _ = self.cascades(seeds, boost, lane_seeds, model)
        base, _ = self.cascades(seeds, (), lane_seeds, model)
        return int((boosted - base).sum()) / runs

    # ------------------------------------------------------------------
    # Backward PRR exploration
    # ------------------------------------------------------------------
    def prr_phase1(
        self,
        seeds_mask: np.ndarray,
        root: int,
        k: int,
        rng: Optional[np.random.Generator] = None,
        world_seed: Optional[int] = None,
    ) -> PhaseOneResult:
        """Backward 0–1 BFS from ``root`` with distance-``> k`` pruning.

        Processes whole distance levels at a time (Dial's algorithm over
        numpy frontiers); edge states come from the flat
        :class:`EdgeStateArray`, hashed from ``world_seed`` when given so
        the sampled world is independent of traversal order.
        """
        states = self._edge_states.new_world(rng=rng, world_seed=world_seed)
        cur = self._next_stamp()
        dist = self._dist
        dstamp = self._dist_stamp
        proc = self._proc
        dist[root] = 0
        dstamp[root] = cur
        node_count = 1
        buckets: List[List[np.ndarray]] = [[] for _ in range(k + 2)]
        buckets[0].append(np.array([root], dtype=np.int64))
        es_chunks: List[np.ndarray] = []
        ed_chunks: List[np.ndarray] = []
        ew_chunks: List[np.ndarray] = []
        seed_chunks: List[np.ndarray] = []
        explored = 0
        indptr = self._in_indptr
        sources = self._in_nodes
        in_eid = self._in_eid

        for d in range(k + 1):
            pending = buckets[d]
            while pending:
                f = pending.pop()
                ok = (proc[f] != cur) & (dstamp[f] == cur) & (dist[f] == d)
                f = f[ok]
                if f.size == 0:
                    continue
                if f.size > 1:
                    f = unique_sorted(f)
                proc[f] = cur
                pos, counts = frontier_edge_positions(indptr, f)
                explored += pos.size
                if pos.size == 0:
                    continue
                st = states.states(in_eid[pos])
                nonblocked = st != BLOCKED
                w = st == BOOST
                keep = nonblocked if d < k else nonblocked & ~w
                if not keep.any():
                    continue
                srcs = sources[pos[keep]]
                heads = np.repeat(f, counts)[keep]
                wk = w[keep]
                es_chunks.append(srcs)
                ed_chunks.append(heads)
                ew_chunks.append(wk)
                is_seed = seeds_mask[srcs]
                if is_seed.any():
                    if d == 0 and bool(np.any(is_seed & ~wk)):
                        # Live edge from a seed at distance 0: the root is
                        # activated without boosting.
                        return PhaseOneResult(
                            root, True, _EMPTY_I64, _EMPTY_I64, _EMPTY_BOOL,
                            _EMPTY_I64, node_count, explored,
                        )
                    seed_chunks.append(srcs[is_seed])
                for boost_step in (False, True):
                    group = srcs[wk] if boost_step else srcs[~wk]
                    if group.size == 0:
                        continue
                    dv = d + 1 if boost_step else d
                    stale = dstamp[group] != cur
                    if stale.any():
                        fresh_nodes = group[stale]
                        dist[fresh_nodes] = _INT64_MAX
                        dstamp[fresh_nodes] = cur
                        node_count += int(np.unique(fresh_nodes).size)
                    np.minimum.at(dist, group, dv)
                    cand = group[
                        (~seeds_mask[group]) & (dist[group] == dv) & (proc[group] != cur)
                    ]
                    if cand.size:
                        buckets[dv].append(cand) if boost_step else pending.append(cand)

        if seed_chunks:
            seeds_found = np.unique(np.concatenate(seed_chunks))
        else:
            seeds_found = _EMPTY_I64
        if es_chunks:
            edge_src = np.concatenate(es_chunks)
            edge_dst = np.concatenate(ed_chunks)
            edge_boost = np.concatenate(ew_chunks)
        else:
            edge_src, edge_dst, edge_boost = _EMPTY_I64, _EMPTY_I64, _EMPTY_BOOL
        return PhaseOneResult(
            root, False, edge_src, edge_dst, edge_boost,
            seeds_found, node_count, explored,
        )

    # ------------------------------------------------------------------
    # Critical sets (PRR-Boost-LB fast path)
    # ------------------------------------------------------------------
    def critical_members(
        self,
        seeds,
        rng: np.random.Generator,
        root: int | None = None,
    ) -> Tuple[str, np.ndarray, int]:
        """Sample one critical node set ``C_R`` as a sorted member array.

        Exploration is capped at boost-distance 1.  Returns ``(status,
        members, explored_edges)``; array-consuming callers (the coverage
        index) skip the frozenset of :meth:`critical_set`.
        """
        mask = self.seeds_mask(seeds)
        r = int(rng.integers(self.n)) if root is None else int(root)
        if mask[r]:
            return ACTIVATED, _EMPTY_I64, 0
        res = self.prr_phase1(mask, r, 1, rng=rng)
        if res.activated:
            return ACTIVATED, _EMPTY_I64, res.explored_edges
        if res.seeds_found.size == 0:
            return HOPELESS, _EMPTY_I64, res.explored_edges
        w = res.edge_boost
        live_tails = res.edge_src[~w]
        live_heads = res.edge_dst[~w]
        cur = self._next_stamp()
        region = self._region
        region[res.seeds_found] = cur
        while True:
            grow = (region[live_tails] == cur) & (region[live_heads] != cur)
            if not grow.any():
                break
            region[np.unique(live_heads[grow])] = cur
        if region[r] == cur:  # defensive; phase I catches live seed paths
            return ACTIVATED, _EMPTY_I64, res.explored_edges
        boost_tails = res.edge_src[w]
        boost_heads = res.edge_dst[w]
        crit = boost_heads[(region[boost_tails] == cur) & ~mask[boost_heads]]
        return BOOSTABLE, np.unique(crit), res.explored_edges

    def critical_set(
        self,
        seeds,
        rng: np.random.Generator,
        root: int | None = None,
    ) -> Tuple[str, FrozenSet[int], int]:
        """Sample only the critical node set ``C_R`` (exploration capped at
        boost-distance 1).  Returns ``(status, critical, explored_edges)``."""
        status, members, explored = self.critical_members(seeds, rng, root=root)
        return status, frozenset(members.tolist()), explored

    def prr_phase1_lanes(
        self,
        seeds_mask: np.ndarray,
        roots: np.ndarray,
        k: int,
        world_seeds: np.ndarray,
    ) -> LanePhase1:
        """Phase-I exploration for a whole lane batch of roots at once: at
        most one PRR batch of them (:func:`~repro.engine.lanes.batch_lanes`),
        one fill of the kernel's lane slots.

        ``world_seeds[i]`` fixes lane ``i``'s world exactly like the
        ``world_seed`` argument of :meth:`prr_phase1` — the per-lane
        output is bit-for-bit the solo result for the same seed.
        """
        roots = np.asarray(roots, dtype=np.int64)
        width = batch_lanes(self.n, "prr")
        if roots.size > width:
            raise ValueError(
                f"{roots.size} roots exceed one PRR lane batch ({width} on this graph)"
            )
        (group,) = prr_phase1_lanes(
            self, seeds_mask, roots, k,
            np.asarray(world_seeds).astype(np.uint64, copy=False),
        )
        return group

    def critical_lane_csr(
        self,
        seeds,
        rng: Optional[np.random.Generator],
        count: int,
        roots: Sequence[int] | None = None,
        world_seeds: Sequence[int] | None = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``count`` critical-set samples via the lane kernel.

        Returns ``(status_codes, counts, members, explored)``: int8 status
        codes (index :data:`STATUS_NAMES` for the string form), the
        critical sets as a lane-grouped ``(counts, members)`` CSR, and the
        per-sample explored-edge counters.  Distribution matches
        :meth:`critical_set`; roots and world seeds not passed in are
        drawn from ``rng`` one :data:`~repro.engine.lanes.LANE_WIDTH`
        block at a time.  Sample ``i`` is a pure function of its
        ``(root, world_seed)`` pair.  The lane kernel streams the draw
        through as many lane slots as fit
        :data:`~repro.engine.lanes.LANE_BYTES` of int16 distance plane
        (two bytes per slot and node): a slot whose sample finished takes
        the next root.
        """
        if count <= 0:
            return (
                np.empty(0, dtype=np.int8), _EMPTY_I64, _EMPTY_I64, _EMPTY_I64,
            )
        mask = self.seeds_mask(seeds)
        all_roots, all_seeds = draw_lane_inputs(
            rng, self.n, count, roots, world_seeds, block=LANE_WIDTH
        )
        return critical_lanes(self, mask, all_roots, all_seeds)

    def sample_critical_batch(
        self,
        seeds,
        rng: np.random.Generator,
        count: int,
    ) -> List[Tuple[str, FrozenSet[int], int]]:
        """``count`` critical-set samples via the lane kernel.

        Same distribution as ``count`` :meth:`critical_set` calls (the
        seeded oracle), sampled from per-lane hashed worlds instead of the
        generator's lazy stream; array-consuming callers should prefer
        :meth:`critical_lane_csr`, which skips the frozensets.
        """
        status, counts, values, explored = self.critical_lane_csr(
            seeds, rng, count
        )
        crits = csr_to_frozensets(counts, values)
        return [
            (STATUS_NAMES[status[i]], crits[i], int(explored[i]))
            for i in range(count)
        ]
