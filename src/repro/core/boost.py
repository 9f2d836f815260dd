"""PRR-Boost and PRR-Boost-LB (Algorithm 2 and Section V-C).

``prr_boost`` follows Algorithm 2:

1. run the IMM sampling phase against the *lower-bound* objective ``μ``
   (each sampled "set" is the critical-node set of a PRR-graph),
2. ``B_μ`` ← greedy max-coverage over critical sets,
3. ``B_Δ`` ← greedy selection maximizing ``Δ̂`` over the full PRR-graphs,
4. return whichever of the two has the larger estimated boost
   (the Sandwich Approximation applied on its lower-bound side).

``prr_boost_lb`` skips steps 3-4 and only ever materializes critical sets,
which makes generation cheaper and memory much smaller — the trade-off
studied in Figures 6/8/11.

Both run on the flat selection subsystem end to end: sampled PRR-graphs
accumulate in a :class:`~repro.core.prr.PRRArena` (never as Python object
lists), critical sets stream into the IMM phase's
:class:`~repro.engine.coverage.CoverageIndex`, and steps 2-4 are the
vectorized kernels of :mod:`repro.core.estimator`.  ``μ̂`` and ``Δ̂`` of
both arms come from :func:`estimate_mu`/:func:`estimate_delta` over the
same collection — one source of truth for the sandwich comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from ..engine.coverage import CoverageIndex
from ..graphs.digraph import DiGraph
from ..im.imm import imm_sampling
from . import parallel
from .estimator import (
    CollectionStats,
    collection_stats,
    estimate_delta,
    estimate_mu,
    greedy_delta_selection,
)
from .parallel import resolve_sampler_workers
from .prr import PRRArena
# Unused here, but perfbench/spans.py patches this name on this module.
from .prr import sample_prr_lanes  # noqa: F401

__all__ = [
    "BoostResult",
    "prr_boost",
    "prr_boost_core",
    "prr_boost_lb",
    "prr_boost_lb_core",
    "PRRSampler",
    "CriticalSetSampler",
]


class PRRSampler:
    """Sampler adapter: draws full PRR-graphs, exposes their critical sets.

    ``imm_sampling`` consumes the critical sets (that is the ``μ``
    maximization); the full graphs accumulate in :attr:`arena` so the
    ``Δ̂`` arm and the final comparison can reuse the same samples, exactly
    as Algorithm 2 reuses ``R``.  :attr:`graphs` exposes the arena's lazy
    :class:`PRRGraph` views for object-based callers (e.g. the sandwich
    ratio experiments).

    Every draw goes through
    :func:`~repro.core.parallel.parallel_prr_payloads`: the samples'
    roots and world seeds come from ``rng``, and the lane kernels
    evaluate them in process, on the local host pool or on remote
    hosts — the same arena payloads either way.
    """

    def __init__(
        self,
        graph: DiGraph,
        seeds: Set[int],
        k: int,
        workers: Optional[int] = None,
        arena: Optional[PRRArena] = None,
    ) -> None:
        self.graph = graph
        self.seeds = frozenset(seeds)
        self.k = k
        self.n = graph.n
        # A warm session may hand in a recycled (cleared) arena so repeated
        # queries skip the allocation; an empty arena behaves identically.
        self.arena = PRRArena(graph.n) if arena is None else arena
        self.workers = resolve_sampler_workers(workers)

    @property
    def graphs(self) -> PRRArena:
        """The sampled collection (a sequence of lazy PRRGraph views)."""
        return self.arena

    def sample_into(
        self, rng: np.random.Generator, count: int, index: CoverageIndex
    ) -> None:
        """``count`` PRR-graphs; critical sets go straight into ``index``
        as one CSR chunk (no frozensets), graphs into the arena."""
        start = len(self.arena)
        payloads = parallel.parallel_prr_payloads(
            self.graph, self.seeds, self.k, count, rng, self.workers
        )
        self.arena.extend_arena(PRRArena.from_payloads(payloads))
        index.extend_csr(*self.arena.critical_csr(start))


class CriticalSetSampler:
    """Sampler that generates only critical sets (PRR-Boost-LB fast path).

    Draws through :func:`~repro.core.parallel.parallel_critical_csr`,
    like :class:`PRRSampler`.
    """

    def __init__(
        self,
        graph: DiGraph,
        seeds: Set[int],
        workers: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.seeds = frozenset(seeds)
        self.n = graph.n
        self.workers = resolve_sampler_workers(workers)

    def sample_into(
        self, rng: np.random.Generator, count: int, index: CoverageIndex
    ) -> None:
        """``count`` critical sets appended as one CSR chunk (no
        frozensets)."""
        _status, counts, values, _explored = parallel.parallel_critical_csr(
            self.graph, self.seeds, count, rng, self.workers
        )
        index.extend_csr(counts, values.astype(np.int32, copy=False))


@dataclass
class BoostResult:
    """Outcome of PRR-Boost / PRR-Boost-LB.

    ``estimated_boost`` is the internal ``Δ̂`` (or ``μ̂`` for the LB variant)
    of the returned set — callers wanting unbiased numbers re-evaluate with
    Monte Carlo (:func:`repro.diffusion.estimate_boost`).
    """

    boost_set: List[int]
    estimated_boost: float
    mu_set: List[int] = field(default_factory=list)
    mu_estimate: float = 0.0
    delta_set: List[int] = field(default_factory=list)
    delta_estimate: float = 0.0
    num_samples: int = 0
    stats: Optional[CollectionStats] = None
    elapsed_seconds: float = 0.0


def _validate(graph: DiGraph, seeds, k: int, candidates=None):
    seed_set = set(int(s) for s in seeds)
    if not seed_set:
        raise ValueError("seed set must be non-empty")
    if k <= 0:
        raise ValueError("k must be positive")
    if candidates is None:
        candidates = {v for v in range(graph.n) if v not in seed_set}
    k = min(k, max(len(candidates), 1))  # budgets beyond the pool are moot
    return seed_set, candidates, k


def prr_boost_core(
    graph: DiGraph,
    seeds: Sequence[int] | Set[int],
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 200_000,
    workers: int | None = None,
    index: Optional[CoverageIndex] = None,
    arena: Optional[PRRArena] = None,
    candidates: Optional[Set[int]] = None,
) -> BoostResult:
    """Run PRR-Boost (Algorithm 2) and return the sandwich solution.

    This is the algorithm body; :func:`prr_boost` is the legacy-shaped
    entry point (a thin wrapper over a throwaway
    :class:`repro.api.Session`), and the session API dispatches here
    directly with its warm scratch state.

    Parameters
    ----------
    graph:
        Influence graph with base and boosted probabilities.
    seeds:
        The fixed seed set ``S``.
    k:
        Number of nodes to boost.
    epsilon, ell:
        Accuracy/confidence parameters; the paper's experiments use
        ``ε = 0.5``, ``ℓ = 1``.
    max_samples:
        Safety cap on the number of PRR-graphs (keeps worst-case
        parameterizations laptop-friendly).
    workers:
        With ``workers > 1`` (and fork available) the sampling phases
        dispatch to the persistent local host pool of
        :mod:`repro.core.parallel`; selection stays in-process.
    index, arena:
        Optional *empty* scratch containers to run on — a warm
        :class:`repro.api.Session` passes recycled ones so repeated
        queries skip allocation; results are identical either way.
    candidates:
        Optional precomputed candidate pool (all non-seed nodes) — the
        session caches it per seed set.  Content must equal the derived
        pool; it is never mutated.
    """
    start = time.perf_counter()
    seed_set, candidates, k = _validate(graph, seeds, k, candidates)

    ell_prime = ell * (1.0 + np.log(3.0) / np.log(max(graph.n, 2)))
    sampler = PRRSampler(graph, seed_set, k, workers=workers, arena=arena)
    if index is None:
        index = CoverageIndex(graph.n)
    imm_sampling(
        sampler, k, epsilon, ell_prime, rng, candidates=candidates,
        max_samples=max_samples, index=index,
    )
    arena = sampler.arena
    mu_set, _mu_covered = index.greedy(k, candidates)
    # One source of truth for both arms: μ̂ and Δ̂ of either candidate
    # set come from the vectorized estimators over the same arena.
    mu_estimate = estimate_mu(arena, graph.n, set(mu_set))
    delta_set, delta_estimate = greedy_delta_selection(
        arena, graph.n, k, candidates
    )
    mu_delta = estimate_delta(arena, graph.n, set(mu_set))

    if mu_delta >= delta_estimate:
        chosen, value = mu_set, mu_delta
    else:
        chosen, value = delta_set, delta_estimate

    return BoostResult(
        boost_set=sorted(chosen),
        estimated_boost=value,
        mu_set=sorted(mu_set),
        mu_estimate=mu_estimate,
        delta_set=sorted(delta_set),
        delta_estimate=delta_estimate,
        num_samples=len(arena),
        stats=collection_stats(arena),
        elapsed_seconds=time.perf_counter() - start,
    )


def prr_boost_lb_core(
    graph: DiGraph,
    seeds: Sequence[int] | Set[int],
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 200_000,
    workers: int | None = None,
    index: Optional[CoverageIndex] = None,
    candidates: Optional[Set[int]] = None,
) -> BoostResult:
    """Run PRR-Boost-LB: maximize only the lower bound ``μ``.

    Same approximation factor as PRR-Boost but faster generation and far
    lower memory, because each sample is just a (typically tiny) critical
    node set.  ``workers > 1`` dispatches sampling to the local host
    pool like :func:`prr_boost`; ``index``/``candidates`` are the
    optional warm-session scratch (see :func:`prr_boost_core`).
    :func:`prr_boost_lb` is the legacy-shaped wrapper.
    """
    start = time.perf_counter()
    seed_set, candidates, k = _validate(graph, seeds, k, candidates)

    ell_prime = ell * (1.0 + np.log(3.0) / np.log(max(graph.n, 2)))
    sampler = CriticalSetSampler(graph, seed_set, workers=workers)
    if index is None:
        index = CoverageIndex(graph.n)
    imm_sampling(
        sampler, k, epsilon, ell_prime, rng, candidates=candidates,
        max_samples=max_samples, index=index,
    )
    mu_set, mu_covered = index.greedy(k, candidates)
    num_samples = index.num_sets
    mu_estimate = graph.n * mu_covered / num_samples

    return BoostResult(
        boost_set=sorted(mu_set),
        estimated_boost=mu_estimate,
        mu_set=sorted(mu_set),
        mu_estimate=mu_estimate,
        num_samples=num_samples,
        elapsed_seconds=time.perf_counter() - start,
    )


def _run_boost_query(
    algorithm: str,
    graph: DiGraph,
    seeds: Sequence[int] | Set[int],
    k: int,
    rng: np.random.Generator,
    epsilon: float,
    ell: float,
    max_samples: int,
    workers: int | None,
) -> BoostResult:
    """Route a legacy free-function call through a throwaway session.

    The session API is the single dispatch surface now; the legacy entry
    points below build the equivalent typed query and run it on a
    default (throwaway, shared-runtime) :class:`repro.api.Session`, so
    both paths are one code path and stay bit-for-bit identical.
    """
    from ..api import BoostQuery, SamplingBudget, Session

    query = BoostQuery(
        algorithm=algorithm,
        seeds=tuple(int(s) for s in seeds),
        k=k,
        budget=SamplingBudget(
            max_samples=max_samples, epsilon=epsilon, ell=ell, workers=workers
        ),
    )
    with Session(graph, manage_runtime=False) as session:
        return session.run(query, rng=rng).raw


def prr_boost(
    graph: DiGraph,
    seeds: Sequence[int] | Set[int],
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 200_000,
    workers: int | None = None,
) -> BoostResult:
    """Run PRR-Boost (Algorithm 2) and return the sandwich solution.

    Thin wrapper over a throwaway :class:`repro.api.Session` — see
    :func:`prr_boost_core` for the parameters and the algorithm itself.
    Long-lived callers should hold a session and submit
    :class:`~repro.api.BoostQuery` objects instead.
    """
    return _run_boost_query(
        "prr_boost", graph, seeds, k, rng,
        epsilon, ell, max_samples, workers,
    )


def prr_boost_lb(
    graph: DiGraph,
    seeds: Sequence[int] | Set[int],
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 200_000,
    workers: int | None = None,
) -> BoostResult:
    """Run PRR-Boost-LB (lower bound only).

    Thin wrapper over a throwaway :class:`repro.api.Session` — see
    :func:`prr_boost_lb_core`.
    """
    return _run_boost_query(
        "prr_boost_lb", graph, seeds, k, rng,
        epsilon, ell, max_samples, workers,
    )
