"""Unified vectorized sampling engine.

Every Monte-Carlo hot path of the reproduction — forward cascades of the
boosting model, backward reverse-reachable (RR) sets, and backward PRR-graph
exploration — runs on the primitives in this package:

* :mod:`repro.engine.hashing` — a numpy splitmix64 that fixes whole worlds
  by hashing (world, edge) pairs, vectorized over edge arrays,
* :mod:`repro.engine.world` — a flat ``int8`` edge-state store keyed by
  dense edge id (replacing the per-edge ``(u, v)`` tuple-dict cache),
* :mod:`repro.engine.traversal` — frontier-based CSR traversal primitives
  (mask-driven BFS over ``DiGraph``'s indptr/indices arrays),
* :mod:`repro.engine.lanes` — multi-source lane kernels: a batch of
  roots (as many as fit :data:`~repro.engine.lanes.LANE_BYTES` of
  planes) advances per frontier step over stacked ``(B, n)`` planes,
  all views of the engine's one scratch arena, each lane sampling the
  independent world fixed by its own splitmix64 seed; RR and critical
  draws stream through such a batch of lane slots, a slot whose sample
  finished taking the next root — the single-sample
  paths stay as seeded distributional oracles (bit-for-bit for
  world-seeded PRR lanes),
* :mod:`repro.engine.models` — the pluggable diffusion-model layer:
  :class:`DiffusionModel` instances (incoming-boost IC, outgoing-boost
  IC, boosted LT) resolve per-model edge thresholds and drive the
  forward-cascade kernels, so every diffusion semantics shares the
  frontier traversal, world hashing, and lane planes,
* :mod:`repro.engine.batch` — :class:`SamplingEngine`, the batch API
  (``sample_rr_batch``, ``cascades`` — the one Monte-Carlo loop behind
  ``simulate_batch`` and the σ / Δ estimators — ``sample_critical_batch``,
  ``prr_phase1`` and the lane CSR entry points ``rr_lane_csr`` /
  ``critical_lane_csr`` / ``prr_phase1_lanes`` consumed by
  :func:`repro.core.prr.sample_prr_lanes`) that reuses one set of
  buffers across hundreds of roots per call,
* :mod:`repro.engine.coverage` — :class:`CoverageIndex`, the selection
  side: sampled node sets in one flat int32 CSR with an inverted
  node→set CSR and a vectorized greedy max-coverage kernel (warm
  restarts across IMM doubling rounds).

:mod:`repro.engine.reference` keeps the pre-engine pure-Python samplers as
oracles for the seeded equivalence tests and the speedup benchmarks; it is
deliberately not imported here so production code never pays for it.

Concurrency contract
--------------------
:meth:`SamplingEngine.for_graph` is thread-safe *and thread-keyed*: the
main thread gets the per-graph cached engine (one instance process-wide,
creation guarded by a lock), while every other thread gets — and keeps
across calls — a private thread-local engine for the graph.  The engine
*itself* is never thread-safe (its stamp buffers are shared mutable
scratch), so this keying is what lets code off the main thread — an
HTTP handler thread of ``repro serve``, a caller's own threads — sample
over one graph through the ordinary sampler entry points.
Process-based parallelism (:mod:`repro.core.parallel`) is unaffected:
every local host is a forked process that inherits the graph
(copy-on-write) and builds its own engine and scratch buffers.

Supervision rides on the same property: when the runtime respawns a
crashed host, the new fork builds its private engine from the graph it
inherits — no coordinator-side engine state is shared, so a respawn (or
the degraded in-process serial fallback) cannot observe, or corrupt,
another thread's scratch.  Re-executed chunks are bit-identical because
every chunk's samples are a pure function of the roots and world seeds
it carries, through the hash-based worlds — no engine instance, thread,
or process identity leaks into the draw.
"""

from .batch import SamplingEngine, STATUS_NAMES
from .coverage import CoverageIndex, SetsView
from .hashing import hash_draw, hash_draw_array, hash_draw_pairs
from .lanes import LANE_BYTES, LANE_WIDTH, LanePhase1
from .models import (
    MODELS,
    DiffusionModel,
    model_names,
    resolve_model,
)
from .world import (
    BLOCKED,
    BOOST,
    LIVE,
    EdgeStateArray,
    lane_node_thresholds,
    lane_states,
    lane_uniforms,
)

__all__ = [
    "SamplingEngine",
    "CoverageIndex",
    "SetsView",
    "EdgeStateArray",
    "LanePhase1",
    "LANE_WIDTH",
    "LANE_BYTES",
    "STATUS_NAMES",
    "DiffusionModel",
    "MODELS",
    "resolve_model",
    "model_names",
    "hash_draw",
    "hash_draw_array",
    "hash_draw_pairs",
    "lane_uniforms",
    "lane_states",
    "lane_node_thresholds",
    "LIVE",
    "BOOST",
    "BLOCKED",
]
