"""Fixed-world evaluation: compare many boost sets on identical randomness.

Definition 3 of the paper fixes a deterministic copy of the graph ("world")
and reasons about reachability inside it.  The same trick makes *candidate
comparison* fair and low-variance: sample ``runs`` worlds once, then score
every candidate boost set against the same worlds — a paired experiment in
which estimator noise cancels when sets are compared.

The baselines' ``rank_candidates`` and the benchmark harness use this for
the baseline sweeps (HighDegree returns four candidate sets; evaluating them
on shared worlds removes the luck of independent Monte Carlo draws).  A
world is one lane seed, so a collection costs 8 bytes per world however
large the graph.
"""

from __future__ import annotations

from typing import AbstractSet, List, Sequence

import numpy as np

from ..engine import SamplingEngine
from ..engine.lanes import draw_lane_seeds
from ..graphs.digraph import DiGraph

__all__ = ["WorldCollection"]


class WorldCollection:
    """``runs`` sampled worlds over a graph with a fixed seed set.

    Each world is fixed by one lane seed (the hashed worlds of
    :meth:`SamplingEngine.cascades <repro.engine.SamplingEngine.cascades>`,
    drawn from ``rng`` exactly like :meth:`~repro.engine.SamplingEngine.estimate_boost`
    draws them); an edge is live for a boost set ``B`` when its hash draw
    falls below ``threshold(B)``, with the Definition 3 coupling
    (``draw < p`` live, ``p <= draw < p'`` live-upon-boost).

    The unboosted cascade size of each world is computed once at
    construction, so :meth:`boost` costs one cascade per world.
    """

    def __init__(
        self,
        graph: DiGraph,
        seeds: AbstractSet[int] | Sequence[int],
        rng: np.random.Generator,
        runs: int = 500,
    ) -> None:
        if runs <= 0:
            raise ValueError("runs must be positive")
        self.graph = graph
        self._engine = SamplingEngine.for_graph(graph)
        self.seed_idx = np.fromiter(set(seeds), dtype=np.int64)
        if self.seed_idx.size == 0:
            raise ValueError("seed set must be non-empty")
        self.runs = runs
        self._lane_seeds = draw_lane_seeds(rng, runs)
        self._base_sizes = self._sizes(())

    def _sizes(self, boost) -> np.ndarray:
        return self._engine.cascades(self.seed_idx, boost, self._lane_seeds)[0]

    @property
    def sigma_empty(self) -> float:
        """``σ_S(∅)`` estimated on these worlds."""
        return float(self._base_sizes.mean())

    def sigma(self, boost: AbstractSet[int] | Sequence[int]) -> float:
        """``σ_S(B)`` on these worlds."""
        return float(self._sizes(boost).mean())

    def boost(self, boost: AbstractSet[int] | Sequence[int]) -> float:
        """``Δ_S(B)`` as a paired difference against the cached base sizes."""
        boost_set = set(boost)
        if not boost_set:
            return 0.0
        return int((self._sizes(boost_set) - self._base_sizes).sum()) / self.runs

    def rank(
        self, candidates: Sequence[Sequence[int]]
    ) -> List[tuple[int, float]]:
        """Score candidate boost sets on shared worlds; best first.

        Returns ``(index, boost)`` pairs sorted descending by boost.
        """
        scored = [(i, self.boost(c)) for i, c in enumerate(candidates)]
        scored.sort(key=lambda item: -item[1])
        return scored
