"""The IMM algorithm (Influence Maximization via Martingales, Tang et al. 2015).

The sampling phase estimates a lower bound on ``OPT`` by doubling searches,
then draws enough samples for the ``(1 − 1/e − ε)`` guarantee; the node
selection phase is greedy maximum coverage.  Both phases are written against
a generic *sampler* (``n`` attribute + ``sample_into(rng, count, index)``
appending sampled node sets) so the same machinery drives

* classical influence maximization with RR-sets (:class:`repro.im.rr.RRSampler`),
* the lower-bound maximization inside PRR-Boost, where the sampled sets are
  the critical-node sets of boostable PRR-graphs.

Selection runs on a :class:`repro.engine.coverage.CoverageIndex` that
persists across the doubling rounds: each round appends the newly drawn
samples to the flat CSR and re-runs the vectorized greedy kernel (a warm
restart), instead of rebuilding a Python dict/heap over the full sample
list from scratch — the dominant cost of the pre-index sampling phase.
Samplers stream member arrays straight into the index; the returned
sample collection is a lazy :class:`~repro.engine.coverage.SetsView`, so
frozensets are only materialized for callers that actually read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, List, Protocol, Sequence, Set

import numpy as np

from ..engine.coverage import CoverageIndex
from .rr import RRSampler

__all__ = [
    "SetSampler",
    "IMMResult",
    "imm_sampling",
    "imm",
    "imm_core",
    "estimate_influence",
    "log_binomial",
]


class SetSampler(Protocol):
    """Anything that can draw random node sets over ``n`` nodes into a
    :class:`CoverageIndex`, as flat member arrays (no Python sets)."""

    n: int

    def sample_into(
        self, rng: np.random.Generator, count: int, index: CoverageIndex
    ) -> None:  # pragma: no cover
        """Append ``count`` sampled sets to ``index``."""
        ...


def _extend_index(
    index: CoverageIndex,
    sampler: SetSampler,
    rng: np.random.Generator,
    target: int,
) -> None:
    """Grow ``index`` to ``target`` sets."""
    need = target - index.num_sets
    if need > 0:
        sampler.sample_into(rng, need, index)


def log_binomial(n: int, k: int) -> float:
    """``log C(n, k)`` computed stably via lgamma."""
    if k < 0 or k > n:
        return float("-inf")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


@dataclass
class IMMResult:
    """Outcome of an IMM run.

    Attributes
    ----------
    chosen:
        Selected nodes (seeds for IM, boost set for the μ arm of PRR-Boost).
    samples:
        The sampled sets (kept so callers can reuse them for re-estimation).
    coverage:
        Number of samples covered by ``chosen``.
    estimate:
        ``n * coverage / len(samples)`` — estimated influence (or boost lower
        bound).
    theta:
        Final number of samples drawn.
    """

    chosen: List[int]
    samples: Sequence[FrozenSet[int]] = field(repr=False)
    coverage: int
    estimate: float
    theta: int


def imm_sampling(
    sampler: SetSampler,
    k: int,
    epsilon: float,
    ell: float,
    rng: np.random.Generator,
    candidates=None,
    max_samples: int = 2_000_000,
    index: CoverageIndex | None = None,
) -> Sequence[FrozenSet[int]]:
    """IMM sampling phase: draw enough sets for the approximation guarantee.

    Implements Algorithm 2 of Tang et al. with the standard martingale
    bounds.  ``max_samples`` caps pathological parameterizations so the
    reproduction stays laptop-friendly; the cap is far above what the
    benchmark workloads need.

    ``candidates`` restricts every round's picks (any pool
    :meth:`CoverageIndex.greedy` takes; callers pass a node mask).
    ``index`` (optional, must be empty) receives every sample; callers that
    run further selections over the collection — e.g. the final
    max-coverage pick of :func:`imm` or PRR-Boost's μ arm — pass one in
    and reuse it, skipping any rebuild.  When the sample cap ends the
    doubling rounds, that final pick is the last round's, and the index
    returns it without recomputing.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    n = sampler.n
    log_n = math.log(max(n, 2))
    log_nk = log_binomial(n, k)

    if index is None:
        index = CoverageIndex(n)
    elif index.num_sets:
        raise ValueError("imm_sampling requires an empty index")
    lower_bound = 1.0

    eps_prime = math.sqrt(2.0) * epsilon
    # λ' from Tang et al. (2015), eq. for the doubling phase.
    lambda_prime = (
        (2.0 + 2.0 / 3.0 * eps_prime)
        * (log_nk + ell * log_n + math.log(max(math.log2(max(n, 2)), 1.0)))
        * n
        / (eps_prime**2)
    )

    max_rounds = max(int(math.log2(max(n, 2))), 1)
    for i in range(1, max_rounds):
        x = n / (2.0**i)
        theta_i = min(int(math.ceil(lambda_prime / x)), max_samples)
        _extend_index(index, sampler, rng, theta_i)
        chosen, covered = index.greedy(k, candidates)
        drawn = index.num_sets
        estimate = n * covered / drawn
        if estimate >= (1.0 + eps_prime) * x:
            lower_bound = estimate / (1.0 + eps_prime)
            break
        if drawn >= max_samples:
            lower_bound = max(estimate, 1.0)
            break
    else:
        lower_bound = max(lower_bound, 1.0)

    alpha = math.sqrt(ell * log_n + math.log(2.0))
    beta = math.sqrt((1.0 - 1.0 / math.e) * (log_nk + ell * log_n + math.log(2.0)))
    lambda_star = 2.0 * n * ((1.0 - 1.0 / math.e) * alpha + beta) ** 2 / (epsilon**2)
    theta = min(int(math.ceil(lambda_star / max(lower_bound, 1e-12))), max_samples)
    _extend_index(index, sampler, rng, theta)
    return index.sets_view()


def imm_core(
    graph,
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 2_000_000,
    workers: int | None = None,
) -> IMMResult:
    """Classical influence maximization: select ``k`` seeds with IMM.

    Returns an :class:`IMMResult`; ``result.estimate`` approximates the
    expected influence spread of the chosen seeds under the IC model.
    ``workers > 1`` draws the RR-sets on the local host pool
    (:mod:`repro.core.parallel`); selection stays in-process.

    This is the algorithm body; :func:`imm` is the legacy-shaped wrapper
    over a throwaway :class:`repro.api.Session`, and the session API
    dispatches here.  The coverage index is always private to the call:
    the returned ``samples`` view stays valid for as long as the caller
    holds the result, so no warm-session scratch is recycled into it.
    """
    index = CoverageIndex(graph.n)
    samples = imm_sampling(
        RRSampler(graph, workers=workers), k, epsilon, ell, rng,
        max_samples=max_samples, index=index,
    )
    chosen, covered = index.greedy(k)
    estimate = graph.n * covered / len(samples)
    return IMMResult(
        chosen=chosen,
        samples=samples,
        coverage=covered,
        estimate=estimate,
        theta=len(samples),
    )


def imm(
    graph,
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 2_000_000,
    workers: int | None = None,
) -> IMMResult:
    """Classical influence maximization: select ``k`` seeds with IMM.

    Thin wrapper over a throwaway :class:`repro.api.Session` — see
    :func:`imm_core` for the algorithm.  Long-lived callers should hold
    a session and submit :class:`~repro.api.SeedQuery` objects instead.
    """
    from ..api import SamplingBudget, SeedQuery, Session

    query = SeedQuery(
        algorithm="imm",
        k=k,
        budget=SamplingBudget(
            max_samples=max_samples, epsilon=epsilon, ell=ell, workers=workers
        ),
    )
    with Session(graph, manage_runtime=False) as session:
        return session.run(query, rng=rng).raw


def estimate_influence(
    samples: Sequence[FrozenSet[int]], n: int, seeds: Set[int]
) -> float:
    """``n · (fraction of samples intersecting seeds)`` — the RR identity."""
    if not samples:
        return 0.0
    covered = sum(1 for s in samples if s & seeds)
    return n * covered / len(samples)
