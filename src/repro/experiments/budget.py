"""Budget allocation between seeding and boosting (Figure 13).

The paper's scenario: a full budget buys ``max_seeds`` seeds; targeting one
seeder costs ``cost_ratio`` times as much as boosting one user.  For each
fraction of the budget spent on seeds, pick that many seeds with IMM, spend
the remainder on boosts via PRR-Boost, and evaluate the final *boosted
influence spread* with Monte Carlo.

Runs on one warm :class:`~repro.api.Session`: the whole sweep shares the
graph's engine (and, with ``workers > 1``, the local host pool)
across every seed-selection, boosting and evaluation query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..api import BoostQuery, EvalQuery, SamplingBudget, SeedQuery, Session
from ..graphs.digraph import DiGraph

__all__ = ["BudgetPoint", "budget_allocation_experiment"]


@dataclass
class BudgetPoint:
    """One allocation: seed fraction, derived counts, resulting spread."""

    seed_fraction: float
    num_seeds: int
    num_boosts: int
    spread: float


def budget_allocation_experiment(
    graph: DiGraph,
    max_seeds: int,
    cost_ratio: int,
    seed_fractions: Sequence[float],
    rng: np.random.Generator,
    mc_runs: int = 500,
    epsilon: float = 0.5,
    max_samples: int = 10_000,
    workers: int | None = None,
) -> List[BudgetPoint]:
    """Sweep the seed/boost budget split and measure the boosted spread."""
    # IMM seed selection keeps its free-function default sample cap; the
    # boosting phase runs under the experiment's tighter cap.
    imm_budget = SamplingBudget(max_samples=2_000_000, workers=workers)
    boost_budget = SamplingBudget(
        max_samples=max_samples, epsilon=epsilon, workers=workers
    )
    eval_budget = SamplingBudget(mc_runs=mc_runs)
    points: List[BudgetPoint] = []
    with Session(graph, manage_runtime=False) as session:
        for fraction in seed_fractions:
            num_seeds = max(1, int(round(fraction * max_seeds)))
            remaining_budget = (max_seeds - num_seeds) * cost_ratio
            num_boosts = int(remaining_budget)
            seeds = session.run(
                SeedQuery(algorithm="imm", k=num_seeds, budget=imm_budget),
                rng=rng,
            ).selected
            if num_boosts > 0:
                boost_set = session.run(
                    BoostQuery(
                        algorithm="prr_boost",
                        seeds=seeds,
                        k=min(num_boosts, graph.n - num_seeds),
                        budget=boost_budget,
                    ),
                    rng=rng,
                ).selected
            else:
                boost_set = []
            spread = session.run(
                EvalQuery(
                    seeds=seeds, boost=boost_set, metric="sigma",
                    budget=eval_budget,
                ),
                rng=rng,
            ).estimates["sigma"]
            points.append(
                BudgetPoint(
                    seed_fraction=float(fraction),
                    num_seeds=num_seeds,
                    num_boosts=len(boost_set),
                    spread=spread,
                )
            )
    return points
