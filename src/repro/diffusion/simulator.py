"""Monte Carlo simulation of the influence boosting model.

Provides

* :func:`simulate_spread` — one forward cascade, returns the activated set,
* :func:`estimate_sigma` — Monte Carlo estimate of the boosted influence
  spread ``σ_S(B)``,
* :func:`estimate_boost` — Monte Carlo estimate of ``Δ_S(B)`` using common
  random numbers (the same sampled worlds for ``B`` and ``∅``), which
  dramatically reduces the variance of the difference,
* :func:`exact_sigma` — exact ``σ_S(B)`` by enumerating all live/blocked
  worlds; exponential, only for tiny graphs (used as test ground truth).

Computing ``Δ_S(B)`` exactly is #P-hard (Theorem 1), hence simulation.

All Monte Carlo paths run on the shared vectorized engine
(:class:`repro.engine.SamplingEngine`): cascades are frontier BFS over the
out-CSR with numpy masks.  The estimators draw one lane seed per world from
the RNG and advance :data:`~repro.engine.lanes.CASCADE_LANE_WIDTH` hashed
worlds per frontier step (:meth:`~repro.engine.SamplingEngine.cascades`).
"""

from __future__ import annotations

from itertools import product
from typing import AbstractSet, Sequence

import numpy as np

from ..engine import SamplingEngine
from ..graphs.digraph import DiGraph

__all__ = [
    "simulate_spread",
    "estimate_sigma",
    "estimate_boost",
    "exact_sigma",
    "exact_boost",
]


def simulate_spread(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: np.random.Generator,
    model: str | None = None,
) -> set[int]:
    """Run one cascade; return the activated node set.

    ``model`` selects the diffusion semantics (``"ic"`` — the default
    incoming-boost IC — ``"ic_out"`` or ``"lt"``, see
    :mod:`repro.engine.models`).  Implementation note for the IC family:
    each edge is examined at most once (when its source first activates),
    sampling its outcome lazily — equivalent to sampling a whole
    deterministic world up front.
    """
    return SamplingEngine.for_graph(graph).simulate(
        seeds, boost, rng, model=model
    )


def estimate_sigma(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: np.random.Generator,
    runs: int = 1000,
    model: str | None = None,
) -> float:
    """Monte Carlo estimate of the boosted influence spread ``σ_S(B)``."""
    return SamplingEngine.for_graph(graph).estimate_sigma(
        seeds, boost, rng, runs, model=model
    )


def estimate_boost(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: np.random.Generator,
    runs: int = 1000,
    model: str | None = None,
) -> float:
    """Monte Carlo estimate of ``Δ_S(B) = σ_S(B) − σ_S(∅)``.

    Uses common random numbers: each run evaluates both the boosted and
    unboosted cascade in the *same* hashed world, fixed by one lane seed
    drawn from ``rng``, so the difference estimator has far lower
    variance than two independent ``estimate_sigma`` calls.  Because
    ``p' >= p``, the boosted world's live edges are a superset of the
    base world's under the IC family, so every per-run difference is
    non-negative.
    """
    return SamplingEngine.for_graph(graph).estimate_boost(
        seeds, boost, rng, runs, model=model
    )


def exact_sigma(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
) -> float:
    """Exact ``σ_S(B)`` by enumerating every live/blocked edge combination.

    Runs in ``O(2^m · (n + m))`` — strictly a test oracle for tiny graphs
    (``m`` up to ~16).
    """
    if graph.m > 20:
        raise ValueError("exact enumeration is limited to graphs with <= 20 edges")
    boost_set = set(boost)
    seed_list = list(seeds)
    src, dst, p, pp = graph.edge_arrays()
    effective = np.array(
        [pp[i] if int(dst[i]) in boost_set else p[i] for i in range(graph.m)]
    )
    expected = 0.0
    for outcome in product((0, 1), repeat=graph.m):
        prob = 1.0
        for i, live in enumerate(outcome):
            prob *= effective[i] if live else (1.0 - effective[i])
        if prob == 0.0:
            continue
        # BFS over live edges.
        adjacency: dict[int, list[int]] = {}
        for i, live in enumerate(outcome):
            if live:
                adjacency.setdefault(int(src[i]), []).append(int(dst[i]))
        reached = set(seed_list)
        stack = list(seed_list)
        while stack:
            u = stack.pop()
            for v in adjacency.get(u, ()):
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        expected += prob * len(reached)
    return expected


def exact_boost(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
) -> float:
    """Exact ``Δ_S(B)`` via two exact enumerations (tiny graphs only)."""
    return exact_sigma(graph, seeds, boost) - exact_sigma(graph, seeds, set())
