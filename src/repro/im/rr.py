"""Reverse-Reachable (RR) sets for the Independent Cascade model.

An RR-set for a uniformly random root ``r`` is the random set of nodes that
would reach ``r`` in a sampled deterministic world.  The key identity
(Borgs et al.) is ``σ(S) = n · E[ I(R ∩ S ≠ ∅) ]``, which reduces influence
maximization to maximum coverage over sampled RR-sets.

Sampling runs on the shared vectorized engine.  The single-sample path
(:func:`random_rr_set`) draws one uniform per in-edge of a whole frontier
at a time, bit-for-bit matching the edge-wise lazy BFS it replaced — the
seeded oracle.  The batch forms drive the multi-source lane kernel
(:meth:`SamplingEngine.rr_lane_csr`): as many roots as fit
:data:`~repro.engine.lanes.LANE_BYTES` of visited plane (one byte per
lane and node) advance per frontier step over per-lane hashed worlds,
and member arrays flow into the
:class:`~repro.engine.coverage.CoverageIndex` as one CSR chunk.  Large
batches with ``workers > 1`` (fork platforms) or worker hosts are
evaluated by the runtime of :mod:`repro.core.parallel` instead, from the
same roots and world seeds, so they return the same sets.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

import numpy as np

from ..engine import SamplingEngine
from ..engine.coverage import CoverageIndex, csr_to_frozensets
from ..graphs.digraph import DiGraph

__all__ = ["random_rr_set", "RRSampler"]


def random_rr_set(
    graph: DiGraph, rng: np.random.Generator, root: int | None = None
) -> FrozenSet[int]:
    """Sample one RR-set via a lazy backward BFS from ``root``.

    Each incoming edge is examined at most once and is live with its base
    probability ``p``.  When ``root`` is None a uniform random root is drawn.
    """
    return SamplingEngine.for_graph(graph).rr_set(rng, root=root)


class RRSampler:
    """Adapter exposing RR-set sampling through the generic sampler protocol.

    The IMM sampling phase (:mod:`repro.im.imm`) works with any object that
    has an ``n`` attribute and a ``sample(rng)`` method returning a set of
    candidate nodes; this class provides that interface for classical
    influence maximization, plus the batched forms the sampling phases
    prefer.  ``sample_batch`` and ``sample_into`` share one CSR draw per
    request, so the legacy and vectorized selection paths see identical
    samples for identical RNG states.

    Batch draws go through :func:`repro.core.parallel.parallel_rr_csr`,
    which draws every sample's root and world seed from ``rng`` and
    evaluates them in process, on the local host pool (``workers >
    1``) or on remote hosts — the same sets either way.
    """

    def __init__(self, graph: DiGraph, workers: Optional[int] = None) -> None:
        self.graph = graph
        self.n = graph.n
        self._engine = SamplingEngine.for_graph(graph)
        # Lazy import: repro.core pulls in the im package during its own
        # initialization, so resolving at call level avoids the cycle.
        from ..core.parallel import resolve_sampler_workers

        self.workers = resolve_sampler_workers(workers)

    def sample(self, rng: np.random.Generator) -> FrozenSet[int]:
        """One RR-set for a uniformly random root (the seeded oracle)."""
        return self._engine.rr_set(rng)

    def _draw_csr(self, rng: np.random.Generator, count: int):
        from ..core import parallel

        return parallel.parallel_rr_csr(self.graph, count, rng, self.workers)

    def sample_batch(
        self, rng: np.random.Generator, count: int
    ) -> List[FrozenSet[int]]:
        """``count`` RR-sets via the lane kernel.

        Deterministic for a given RNG state and drawn from the same
        distribution as :meth:`sample` (a different, equally valid
        stream: per-sample hashed worlds instead of lazy generator
        draws).
        """
        return csr_to_frozensets(*self._draw_csr(rng, count))

    def sample_into(
        self, rng: np.random.Generator, count: int, index: CoverageIndex
    ) -> None:
        """Append ``count`` RR-sets straight into a coverage index.

        Same RNG consumption and sampled sets as :meth:`sample_batch`,
        but the lane kernel's member CSR goes into the flat index without
        a frozenset round-trip — the form the IMM/SSA sampling phases
        use.
        """
        counts, values = self._draw_csr(rng, count)
        index.extend_csr(counts, values.astype(np.int32, copy=False))
