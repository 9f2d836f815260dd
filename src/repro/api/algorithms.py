"""Built-in algorithm handlers for the session registry.

Importing :mod:`repro.api` registers every algorithm of the reproduction
under a short string key:

=================  ==========================================  ==========
key                implementation                              query
=================  ==========================================  ==========
``prr_boost``      :func:`repro.core.boost.prr_boost_core`     BoostQuery
``prr_boost_lb``   :func:`repro.core.boost.prr_boost_lb_core`  BoostQuery
``mc_greedy``      :func:`repro.core.mc_greedy.mc_greedy_boost`  BoostQuery
``degree_global``  :func:`repro.baselines.high_degree_global`  BoostQuery
``degree_local``   :func:`repro.baselines.high_degree_local`   BoostQuery
``pagerank``       :func:`repro.baselines.pagerank_baseline`   BoostQuery
``ppr``            :func:`repro.baselines.ppr_baseline`        BoostQuery
``more_seeds``     :func:`repro.baselines.more_seeds_baseline` BoostQuery
``imm``            :func:`repro.im.imm.imm_core`               SeedQuery
``ssa``            :func:`repro.im.ssa.ssa_core`               SeedQuery
``degree``         :func:`repro.im.seeds.select_seeds`         SeedQuery
``random``         :func:`repro.im.seeds.select_seeds`         SeedQuery
``evaluate``       engine Monte-Carlo estimators               EvalQuery
``tree_dp``        :func:`repro.trees.dp_boost`                TreeQuery
``tree_greedy``    :func:`repro.trees.greedy_boost`            TreeQuery
=================  ==========================================  ==========

The tree handlers are exact/deterministic (no sampling): the resolved
budget's ``epsilon`` doubles as DP-Boost's FPTAS accuracy parameter.

Baseline handlers generate their candidate boost sets and, by default,
Monte-Carlo rank them on shared sampled worlds, so ranking is a paired
experiment.  ``params={"evaluate": False}`` skips the ranking and
returns the raw candidate sets in ``extra["candidate_sets"]`` — the form
the experiment harness consumes to run its own paired evaluation across
*algorithms*.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..baselines import (
    high_degree_global,
    high_degree_local,
    more_seeds_baseline,
    pagerank_baseline,
    ppr_baseline,
)
from ..core.boost import prr_boost_core, prr_boost_lb_core
from ..core.mc_greedy import mc_greedy_boost
from ..diffusion.worlds import WorldCollection
from ..im.imm import imm_core
from ..im.seeds import select_seeds
from ..im.ssa import ssa_core
from .registry import register_algorithm
from .result import QueryResult

__all__: List[str] = ["rank_candidates"]


def _require_ic(query) -> None:
    """Guard for handlers specialized to the incoming-boost IC model.

    The backward samplers (RR / PRR / critical sets) and the heuristics
    built on them encode Definition 1's head-boosted semantics; asking
    them for another model is a contract error, not a silent fallback.
    ``evaluate`` and ``mc_greedy`` serve every registered model.
    """
    if query.model != "ic":
        raise ValueError(
            f"algorithm {query.algorithm!r} is specialized to the "
            f"incoming-boost IC model; got model={query.model!r} "
            "(use 'evaluate' or 'mc_greedy' for other diffusion models)"
        )


# ----------------------------------------------------------------------
# PRR-Boost family
# ----------------------------------------------------------------------
def _boost_envelope(query, res, estimates) -> QueryResult:
    extra = {}
    if res.stats is not None:
        # CollectionStats is a __slots__ class, not a dataclass.
        extra["stats"] = {
            name: getattr(res.stats, name) for name in res.stats.__slots__
        }
    return QueryResult(
        algorithm=query.algorithm,
        selected=list(res.boost_set),
        estimates=estimates,
        num_samples=res.num_samples,
        extra=extra,
        raw=res,
    )


@register_algorithm("prr_boost")
def _run_prr_boost(session, query, rng) -> QueryResult:
    _require_ic(query)
    budget = session.resolve_budget(query)
    res = prr_boost_core(
        session.graph, set(query.seeds), query.k, rng,
        epsilon=budget.epsilon, ell=budget.ell,
        max_samples=budget.max_samples,
        workers=budget.workers,
        index=session.scratch_index(), arena=session.scratch_arena(),
        candidates=session.candidates_for(query.seeds),
    )
    return _boost_envelope(query, res, {
        "boost": res.estimated_boost,
        "mu": res.mu_estimate,
        "delta": res.delta_estimate,
    })


@register_algorithm("prr_boost_lb")
def _run_prr_boost_lb(session, query, rng) -> QueryResult:
    _require_ic(query)
    budget = session.resolve_budget(query)
    res = prr_boost_lb_core(
        session.graph, set(query.seeds), query.k, rng,
        epsilon=budget.epsilon, ell=budget.ell,
        max_samples=budget.max_samples,
        workers=budget.workers,
        index=session.scratch_index(),
        candidates=session.candidates_for(query.seeds),
    )
    # Δ̂ is never computed here: the LB arm estimates only μ.
    return _boost_envelope(
        query, res, {"boost": res.estimated_boost, "mu": res.mu_estimate}
    )


@register_algorithm("mc_greedy")
def _run_mc_greedy(session, query, rng) -> QueryResult:
    # Simulated greedy works under every diffusion model: it only needs
    # the engine's Δ estimator, which is model-dispatched.  It runs on
    # the model's graph view (the LT-normalized copy for model="lt").
    budget = session.resolve_budget(query)
    chosen = mc_greedy_boost(
        session.graph_for(query.model), set(query.seeds), query.k, rng,
        runs=budget.mc_runs,
        candidates=query.param_dict.get("candidates"),
        model=query.model,
    )
    return QueryResult(
        algorithm=query.algorithm, selected=list(chosen), raw=chosen
    )


# ----------------------------------------------------------------------
# Heuristic baselines
# ----------------------------------------------------------------------
def rank_candidates(
    graph, seeds, candidate_sets: Sequence[List[int]], rng, mc_runs: int
) -> Tuple[List[int], float]:
    """Monte-Carlo pick of the best candidate boost set.

    The one paired-evaluation protocol of the reproduction (the
    experiment harness delegates here too): every candidate is scored on
    one sampled :class:`~repro.diffusion.worlds.WorldCollection`, so the
    ranking is paired, not at the mercy of independent draws.  Its worlds
    are the ones :func:`~repro.diffusion.estimate_boost` draws from the
    same ``rng``, so a single candidate gets exactly that estimate.
    """
    worlds = WorldCollection(graph, list(seeds), rng, runs=mc_runs)
    best_idx, best_boost = worlds.rank(candidate_sets)[0]
    return list(candidate_sets[best_idx]), float(best_boost)


def _register_baseline(name: str, generate) -> None:
    def handler(session, query, rng) -> QueryResult:
        _require_ic(query)
        budget = session.resolve_budget(query)
        candidate_sets = generate(session.graph, query, rng, budget)
        extra = {"candidate_sets": [list(c) for c in candidate_sets]}
        selected: List[int] = []
        estimates = {}
        if query.param_dict.get("evaluate", True):
            selected, boost = rank_candidates(
                session.graph, set(query.seeds), candidate_sets, rng,
                budget.mc_runs,
            )
            estimates = {"boost": boost}
        elif candidate_sets:
            selected = list(candidate_sets[0])
        return QueryResult(
            algorithm=query.algorithm,
            selected=selected,
            estimates=estimates,
            extra=extra,
            raw=candidate_sets,
        )

    handler.__name__ = f"_run_{name}"
    register_algorithm(name, handler)


_register_baseline(
    "degree_global",
    lambda graph, query, rng, budget: high_degree_global(
        graph, set(query.seeds), query.k
    ),
)
_register_baseline(
    "degree_local",
    lambda graph, query, rng, budget: high_degree_local(
        graph, set(query.seeds), query.k
    ),
)
_register_baseline(
    "pagerank",
    lambda graph, query, rng, budget: [
        pagerank_baseline(graph, set(query.seeds), query.k)
    ],
)
_register_baseline(
    "ppr",
    lambda graph, query, rng, budget: [
        ppr_baseline(graph, set(query.seeds), query.k)
    ],
)
_register_baseline(
    "more_seeds",
    lambda graph, query, rng, budget: [
        more_seeds_baseline(
            graph, set(query.seeds), query.k, rng,
            epsilon=budget.epsilon, ell=budget.ell,
            max_samples=budget.max_samples, workers=budget.workers,
        )
    ],
)


# ----------------------------------------------------------------------
# Seed selection
# ----------------------------------------------------------------------
@register_algorithm("imm")
def _run_imm(session, query, rng) -> QueryResult:
    _require_ic(query)
    budget = session.resolve_budget(query)
    res = imm_core(
        session.graph, query.k, rng,
        epsilon=budget.epsilon, ell=budget.ell,
        max_samples=budget.max_samples,
        workers=budget.workers,
    )
    return QueryResult(
        algorithm=query.algorithm,
        selected=list(res.chosen),
        estimates={"influence": res.estimate},
        num_samples=res.theta,
        extra={"coverage": res.coverage},
        raw=res,
    )


@register_algorithm("ssa")
def _run_ssa(session, query, rng) -> QueryResult:
    _require_ic(query)
    budget = session.resolve_budget(query)
    res = ssa_core(
        session.graph, query.k, rng,
        epsilon=budget.epsilon,
        initial_samples=query.param_dict.get("initial_samples", 256),
        max_samples=budget.max_samples,
        workers=budget.workers,
    )
    return QueryResult(
        algorithm=query.algorithm,
        selected=list(res.chosen),
        estimates={
            "influence": res.estimate,
            "selection_estimate": res.selection_estimate,
        },
        num_samples=len(res.samples),
        extra={"rounds": res.rounds},
        raw=res,
    )


def _register_seed_strategy(name: str) -> None:
    def handler(session, query, rng) -> QueryResult:
        _require_ic(query)
        budget = session.resolve_budget(query)
        chosen = select_seeds(
            session.graph, query.k, name, rng, max_samples=budget.max_samples
        )
        return QueryResult(
            algorithm=query.algorithm, selected=list(chosen), raw=chosen
        )

    handler.__name__ = f"_run_{name}_seeds"
    register_algorithm(name, handler)


_register_seed_strategy("degree")
_register_seed_strategy("random")


# ----------------------------------------------------------------------
# Tree algorithms (Section VI)
# ----------------------------------------------------------------------
@register_algorithm("tree_dp")
def _run_tree_dp(session, query, rng) -> QueryResult:
    _require_ic(query)
    budget = session.resolve_budget(query)
    tree = session.tree_for(query.seeds, getattr(query, "root", 0))
    from ..trees import dp_boost

    res = dp_boost(tree, query.k, epsilon=budget.epsilon)
    return QueryResult(
        algorithm=query.algorithm,
        selected=list(res.boost_set),
        estimates={
            "boost": float(res.boost),
            "dp_value": float(res.dp_value),
        },
        extra={
            "table_entries": int(res.table_entries),
            # The FPTAS rounding parameter δ, not an estimate of Δ.
            "delta_param": float(res.delta_param),
            "epsilon": float(budget.epsilon),
        },
        raw=res,
    )


@register_algorithm("tree_greedy")
def _run_tree_greedy(session, query, rng) -> QueryResult:
    _require_ic(query)
    tree = session.tree_for(query.seeds, getattr(query, "root", 0))
    from ..trees import greedy_boost

    res = greedy_boost(tree, query.k)
    return QueryResult(
        algorithm=query.algorithm,
        selected=list(res.boost_set),
        estimates={
            "boost": float(res.boost),
            "sigma": float(res.sigma),
            "sigma_empty": float(res.sigma_empty),
        },
        raw=res,
    )


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
@register_algorithm("evaluate")
def _run_evaluate(session, query, rng) -> QueryResult:
    budget = session.resolve_budget(query)
    seeds, boost = set(query.seeds), set(query.boost)
    # Model-dispatched: the warm engine of the query's diffusion model
    # (the LT-normalized view for model="lt") runs the estimator.
    engine = session.engine_for(query.model)
    if query.metric == "boost":
        value = engine.estimate_boost(
            seeds, boost, rng, runs=budget.mc_runs, model=query.model
        )
    else:
        value = engine.estimate_sigma(
            seeds, boost, rng, runs=budget.mc_runs, model=query.model
        )
    return QueryResult(
        algorithm=query.algorithm,
        selected=[],
        estimates={query.metric: float(value)},
        extra={"mc_runs": budget.mc_runs, "model": query.model},
        raw=float(value),
    )
