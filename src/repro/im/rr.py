"""Reverse-Reachable (RR) sets for the Independent Cascade model.

An RR-set for a uniformly random root ``r`` is the random set of nodes that
would reach ``r`` in a sampled deterministic world.  The key identity
(Borgs et al.) is ``σ(S) = n · E[ I(R ∩ S ≠ ∅) ]``, which reduces influence
maximization to maximum coverage over sampled RR-sets.

Sampling runs on the shared vectorized engine.  The single-sample path
(:func:`random_rr_set`) draws one uniform per in-edge of a whole frontier
at a time, bit-for-bit matching the edge-wise lazy BFS it replaced — the
seeded oracle.  :class:`RRSampler` drives the multi-source lane kernel
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

from typing import FrozenSet, Optional

import numpy as np

from ..engine import SamplingEngine
from ..engine.coverage import CoverageIndex
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

    The IMM and SSA sampling phases (:mod:`repro.im.imm`,
    :mod:`repro.im.ssa`) work with any object that has an ``n`` attribute
    and a ``sample_into(rng, count, index)`` method; this class provides
    that interface for classical influence maximization.

    Draws go through :func:`repro.core.parallel.parallel_rr_csr`, which
    draws every sample's root and world seed from ``rng`` and evaluates
    them in process, on the local host pool (``workers > 1``) or on
    remote hosts — the same sets either way.
    """

    def __init__(self, graph: DiGraph, workers: Optional[int] = None) -> None:
        self.graph = graph
        self.n = graph.n
        # Lazy import: repro.core pulls in the im package during its own
        # initialization, so resolving at call level avoids the cycle.
        from ..core.parallel import resolve_sampler_workers

        self.workers = resolve_sampler_workers(workers)

    def _draw_csr(self, rng: np.random.Generator, count: int):
        from ..core import parallel

        return parallel.parallel_rr_csr(self.graph, count, rng, self.workers)

    def sample_into(
        self, rng: np.random.Generator, count: int, index: CoverageIndex
    ) -> None:
        """Append ``count`` RR-sets straight into a coverage index.

        Deterministic for a given RNG state and drawn from the same
        distribution as :func:`random_rr_set` (a different, equally
        valid stream: per-sample hashed worlds instead of lazy generator
        draws); the lane kernel's member CSR goes into the flat index
        without a frozenset round-trip.
        """
        counts, values = self._draw_csr(rng, count)
        index.extend_csr(counts, values.astype(np.int32, copy=False))
