"""MoreSeeds baseline (Section VII).

Adapts the IMM framework to pick ``k`` *additional seeds* maximizing the
marginal influence given the existing seed set, then returns those nodes as
the boost set.  The paper uses this to demonstrate that good extra seeds are
poor boosts: extra seeds gravitate to uncovered regions, while effective
boosts sit close to the existing seeds.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

import numpy as np

from ..engine.coverage import CoverageIndex
from ..graphs.digraph import DiGraph
from ..im.imm import imm_sampling
from ..im.rr import RRSampler

__all__ = ["more_seeds_baseline"]


class _MarginalRRSampler(RRSampler):
    """RR-sets that ignore roots already covered by the existing seeds.

    An RR-set whose node set intersects ``S`` contributes nothing to the
    marginal influence of extra seeds, so it is reported as an empty set
    (still counted by the estimator's denominator).
    """

    def __init__(
        self, graph: DiGraph, seeds: Set[int], workers: Optional[int] = None
    ) -> None:
        super().__init__(graph, workers)
        self.seeds = np.fromiter(seeds, dtype=np.int64, count=len(seeds))

    def sample_into(
        self, rng: np.random.Generator, count: int, index: CoverageIndex
    ) -> None:
        """``count`` RR-sets of one lane draw, each row that meets ``S``
        emptied (the row count is kept)."""
        counts, values = self._draw_csr(rng, count)
        rows = np.repeat(np.arange(counts.size), counts)
        met = np.zeros(counts.size, dtype=bool)
        met[rows[np.isin(values, self.seeds)]] = True
        index.extend_csr(
            np.where(met, 0, counts),
            values[~met[rows]].astype(np.int32, copy=False),
        )


def more_seeds_baseline(
    graph: DiGraph,
    seeds: Iterable[int],
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 100_000,
    workers: Optional[int] = None,
) -> List[int]:
    """Select ``k`` extra-seed nodes via IMM on marginal RR coverage.

    ``workers`` is where RR draws run (see :class:`~repro.im.rr.RRSampler`);
    the chosen nodes are the same at any worker count."""
    seed_set = set(seeds)
    candidates = {v for v in range(graph.n) if v not in seed_set}
    index = CoverageIndex(graph.n)
    imm_sampling(
        _MarginalRRSampler(graph, seed_set, workers), k, epsilon, ell, rng,
        candidates=candidates, max_samples=max_samples, index=index,
    )
    chosen, _covered = index.greedy(k, candidates)
    return chosen
