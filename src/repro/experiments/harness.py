"""Shared experiment harness: workload setup, algorithm runners, tables.

Each benchmark in ``benchmarks/`` calls one function from this package and
prints the same rows/series the corresponding paper table or figure
reports.  Everything is deterministic given the ``seed`` arguments.

The harness runs on the session API: one warm
:class:`~repro.api.Session` per workload dispatches every algorithm
through the registry (PRR-Boost and PRR-Boost-LB as boost queries, the
baselines with ``evaluate=False`` so candidate ranking stays the paired
shared-world protocol below), which keeps RNG consumption — and thus
every published number — identical to the pre-session free-function
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..api import BoostQuery, EvalQuery, SamplingBudget, SeedQuery, Session
from ..api.algorithms import rank_candidates
from ..graphs.digraph import DiGraph

__all__ = [
    "Workload",
    "make_workload",
    "AlgorithmRun",
    "compare_algorithms",
    "format_table",
]


@dataclass
class Workload:
    """A dataset plus a seed set, ready for boosting experiments."""

    name: str
    graph: DiGraph
    seeds: List[int]
    seed_mode: str  # "influential" | "random"
    sigma_empty: float = 0.0


def make_workload(
    name: str,
    graph: DiGraph,
    num_seeds: int,
    seed_mode: str,
    rng: np.random.Generator,
    mc_runs: int = 500,
    imm_max_samples: int = 30_000,
    workers: int | None = None,
) -> Workload:
    """Pick seeds (IMM-influential or uniform-random) and measure ``σ_S(∅)``.

    Mirrors the paper's two seed settings: 50 influential seeds chosen by
    IMM, or sets of random seeds (the paper uses 500 on the full-size
    graphs; scale down proportionally).  ``imm_max_samples`` caps the RR
    sampling for seed selection — seed quality saturates long before the
    theoretical θ on these graph sizes.  ``workers > 1`` draws the IMM
    RR-sets on the local host pool.
    """
    if seed_mode not in ("influential", "random"):
        raise ValueError("seed_mode must be 'influential' or 'random'")
    with Session(graph, manage_runtime=False) as session:
        algorithm = "imm" if seed_mode == "influential" else "random"
        seeds = session.run(
            SeedQuery(
                algorithm=algorithm,
                k=num_seeds,
                budget=SamplingBudget(
                    max_samples=imm_max_samples, workers=workers
                ),
            ),
            rng=rng,
        ).selected
        sigma_empty = session.run(
            EvalQuery(
                seeds=seeds,
                metric="sigma",
                budget=SamplingBudget(mc_runs=mc_runs),
            ),
            rng=rng,
        ).estimates["sigma"]
    return Workload(
        name=name,
        graph=graph,
        seeds=seeds,
        seed_mode=seed_mode,
        sigma_empty=sigma_empty,
    )


@dataclass
class AlgorithmRun:
    """One algorithm's boost set plus its Monte-Carlo-evaluated boost."""

    algorithm: str
    k: int
    boost_set: List[int]
    boost: float
    seconds: float
    extra: Dict[str, float] = field(default_factory=dict)


def _evaluate_candidates(
    workload: Workload,
    candidate_sets: Sequence[List[int]],
    rng: np.random.Generator,
    mc_runs: int,
) -> tuple[List[int], float]:
    """Evaluate several boost sets on shared worlds; return the best.

    Delegates to :func:`repro.api.algorithms.rank_candidates` — the one
    paired-evaluation protocol shared with standalone baseline queries.
    """
    return rank_candidates(
        workload.graph, workload.seeds, candidate_sets, rng, mc_runs
    )


# Paper algorithm name -> (registry key, is_prr_family).  PRR queries get
# the caller's epsilon; baselines keep their own defaults, exactly as the
# free-function harness behaved.
_ALGORITHM_KEYS = {
    "PRR-Boost": ("prr_boost", True),
    "PRR-Boost-LB": ("prr_boost_lb", True),
    "HighDegreeGlobal": ("degree_global", False),
    "HighDegreeLocal": ("degree_local", False),
    "PageRank": ("pagerank", False),
    "MoreSeeds": ("more_seeds", False),
}


def compare_algorithms(
    workload: Workload,
    k: int,
    rng: np.random.Generator,
    algorithms: Iterable[str] = (
        "PRR-Boost",
        "PRR-Boost-LB",
        "HighDegreeGlobal",
        "HighDegreeLocal",
        "PageRank",
        "MoreSeeds",
    ),
    mc_runs: int = 1000,
    epsilon: float = 0.5,
    max_samples: int = 20_000,
    workers: int | None = None,
) -> List[AlgorithmRun]:
    """Run the Figure 5/10 comparison at one value of ``k``.

    Every returned boost value comes from the same Monte Carlo evaluator so
    algorithms are compared fairly, as in the paper's protocol (which uses
    20,000 simulations; pass a larger ``mc_runs`` to tighten).  With
    ``workers > 1`` the PRR sampling phases run on the local host
    pool; selection and evaluation stay in-process.
    """
    seeds = workload.seeds
    prr_budget = SamplingBudget(
        max_samples=max_samples, epsilon=epsilon, workers=workers
    )
    baseline_budget = SamplingBudget(
        max_samples=max_samples, mc_runs=mc_runs, workers=workers
    )
    runs: List[AlgorithmRun] = []
    with Session(workload.graph, manage_runtime=False) as session:
        for algorithm in algorithms:
            if algorithm not in _ALGORITHM_KEYS:
                raise ValueError(f"unknown algorithm {algorithm!r}")
            key, is_prr = _ALGORITHM_KEYS[algorithm]
            query = BoostQuery(
                algorithm=key,
                seeds=seeds,
                k=k,
                budget=prr_budget if is_prr else baseline_budget,
                params={} if is_prr else {"evaluate": False},
            )
            result = session.run(query, rng=rng)
            extra: Dict[str, float] = {}
            if is_prr:
                candidate_sets: Sequence[List[int]] = [result.selected]
                extra["samples"] = float(result.num_samples)
            else:
                candidate_sets = result.extra["candidate_sets"]
            boost_set, boost = _evaluate_candidates(
                workload, candidate_sets, rng, mc_runs
            )
            runs.append(
                AlgorithmRun(
                    algorithm=algorithm,
                    k=k,
                    boost_set=boost_set,
                    boost=boost,
                    seconds=result.timings["total"],
                    extra=extra,
                )
            )
    return runs


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table used by every benchmark printout."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
