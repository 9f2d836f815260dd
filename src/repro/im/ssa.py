"""SSA-style adaptive sampling (Stop-and-Stare, Nguyen et al. 2016).

The paper notes that "other similar frameworks based on RR-sets (e.g.,
SSA/D-SSA) could also be applied" in place of IMM.  This module provides
that alternative: an adaptive doubling scheme that separates *selection*
samples from *validation* samples —

1. draw a pool of samples, greedily select ``k`` nodes on the first half,
2. estimate the selection's quality on the held-out second half ("stare"),
3. stop when the held-out estimate confirms the selection estimate to
   within ``epsilon``; otherwise double the pool.

The split removes the selection bias that makes naive reuse of training
samples overestimate coverage.  Constants are simplified relative to the
published SSA (which tunes three epsilons); the stopping rule is the same
in structure and the output plugs into everything that accepts IMM samples.

The pool lives in a :class:`repro.engine.coverage.CoverageIndex`: the
selection half is a prefix-limited greedy over the flat CSR and the
validation count is one masked scan — no list slicing, no per-round
rebuild.  Outputs are identical to the pre-index implementation.

Sampling throughput follows the sampler passed in: every pool extension
goes through the cheapest form the sampler offers (``sample_into`` →
``sample_batch`` → ``sample``), so the lane-kernel batches of
:class:`repro.im.rr.RRSampler` / :class:`repro.core.boost.
CriticalSetSampler` apply unchanged, and constructing those samplers
with ``workers > 1`` runs SSA's generation phase on the local host
pool with no change here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set

import numpy as np

from ..engine.coverage import CoverageIndex
from .imm import SetSampler, _extend_index
from .rr import RRSampler

__all__ = ["SSAResult", "ssa_sampling", "ssa", "ssa_core"]


@dataclass
class SSAResult:
    """Outcome of SSA-style sampling.

    ``estimate`` is the held-out (unbiased) estimate of the chosen set's
    objective; ``selection_estimate`` is the (optimistic) estimate on the
    selection half.
    """

    chosen: List[int]
    samples: Sequence[FrozenSet[int]]
    estimate: float
    selection_estimate: float
    rounds: int


def ssa_sampling(
    sampler: SetSampler,
    k: int,
    epsilon: float,
    rng: np.random.Generator,
    candidates: Set[int] | None = None,
    initial_samples: int = 256,
    max_samples: int = 200_000,
) -> SSAResult:
    """Run the stop-and-stare loop; return the chosen nodes and samples.

    Parameters
    ----------
    sampler:
        Any :class:`repro.im.imm.SetSampler` (RR-sets for influence
        maximization, critical sets for the boosting lower bound).
    epsilon:
        Agreement threshold: stop when the validation estimate is at least
        ``(1 − ε)`` times the selection estimate (both halves also need a
        minimum coverage count to rule out tiny-sample flukes).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    n = sampler.n
    index = CoverageIndex(n)
    size = max(initial_samples, 16)
    rounds = 0
    min_coverage = max(8, int(math.ceil(4.0 / epsilon)))

    while True:
        rounds += 1
        _extend_index(index, sampler, rng, size)
        half = index.num_sets // 2
        chosen, covered = index.greedy(k, candidates, limit=half)
        sel_est = n * covered / max(half, 1)
        val_covered = index.coverage_count(chosen, start=half)
        val_est = n * val_covered / max(index.num_sets - half, 1)

        enough_signal = covered >= min_coverage and val_covered >= min_coverage
        agrees = val_est >= (1.0 - epsilon) * sel_est and sel_est > 0
        if (enough_signal and agrees) or index.num_sets >= max_samples:
            return SSAResult(
                chosen=chosen,
                samples=index.sets_view(),
                estimate=val_est,
                selection_estimate=sel_est,
                rounds=rounds,
            )
        size = min(size * 2, max_samples)


def ssa_core(
    graph,
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    initial_samples: int = 256,
    max_samples: int = 200_000,
    workers: int | None = None,
) -> SSAResult:
    """Classical influence maximization with SSA over RR-sets.

    The RR-set sibling of :func:`repro.im.imm.imm_core`: runs the
    stop-and-stare loop on an :class:`~repro.im.rr.RRSampler` and returns
    the :class:`SSAResult` (held-out influence estimate included).
    ``workers > 1`` draws RR-sets on the local host pool.
    """
    sampler = RRSampler(graph, workers=workers)
    return ssa_sampling(
        sampler, k, epsilon, rng,
        initial_samples=initial_samples, max_samples=max_samples,
    )


def ssa(
    graph,
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    initial_samples: int = 256,
    max_samples: int = 200_000,
    workers: int | None = None,
) -> SSAResult:
    """Select ``k`` seeds with SSA (Stop-and-Stare) over RR-sets.

    Thin wrapper over a throwaway :class:`repro.api.Session` — see
    :func:`ssa_core`.  Long-lived callers should hold a session and
    submit ``SeedQuery(algorithm="ssa", ...)`` instead.
    """
    from ..api import SamplingBudget, SeedQuery, Session

    query = SeedQuery(
        algorithm="ssa",
        k=k,
        budget=SamplingBudget(
            max_samples=max_samples, epsilon=epsilon, workers=workers
        ),
        params={"initial_samples": initial_samples},
    )
    with Session(graph, manage_runtime=False) as session:
        return session.run(query, rng=rng).raw
