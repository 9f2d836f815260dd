"""Tests for the session-based query API (`repro.api`).

Covers the four contracts the redesign makes:

* **parity** — session queries and the legacy free-function wrappers
  return bit-for-bit identical selections under fixed seeds,
* **warm state** — recycled CoverageIndex/PRRArena scratch never leaks
  between queries (repeat runs of a seeded query are identical),
* **lifecycle** — close() releases the shared-memory runtime, is
  idempotent, fork-less platforms fall back to serial, and queries
  after close raise cleanly,
* **envelope** — every result serializes to JSON and round-trips its
  query.
"""

import json

import numpy as np
import pytest

from repro.api import (
    BoostQuery,
    EvalQuery,
    QueryResult,
    SamplingBudget,
    SeedQuery,
    Session,
    algorithm_names,
    get_algorithm,
    query_from_dict,
    register_algorithm,
)
from repro.core import prr_boost, prr_boost_lb
from repro.core.mc_greedy import mc_greedy_boost
from repro.graphs import learned_like, preferential_attachment
from repro.im import imm, ssa


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(17)
    return learned_like(preferential_attachment(120, 3, rng), rng, 0.2)


BUDGET = SamplingBudget(max_samples=800, mc_runs=200)


@pytest.fixture(scope="module")
def tree_graph():
    from repro.experiments.trees_exp import make_tree_workload

    tree = make_tree_workload(63, 5, np.random.default_rng(0))
    return tree.to_digraph(), sorted(tree.seeds)


class TestQueries:
    def test_seeds_normalized(self):
        q = BoostQuery(seeds=[5, 3, 3, 1], k=2)
        assert q.seeds == (1, 3, 5)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            BoostQuery(seeds=[], k=2)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            SeedQuery(k=0)

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError):
            EvalQuery(seeds=(0,), metric="spread")

    def test_round_trip(self):
        q = BoostQuery(
            seeds=(1, 2), k=3, algorithm="prr_boost_lb",
            budget=SamplingBudget(max_samples=123, workers=2),
            rng_seed=9, params={"initial_samples": 128},
        )
        clone = query_from_dict(json.loads(json.dumps(q.to_dict())))
        assert clone == q

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            query_from_dict({"type": "boost", "seeds": [1], "k": 1, "oops": 2})
        with pytest.raises(ValueError):
            query_from_dict({"type": "mystery"})

    def test_budget_round_trip(self):
        b = SamplingBudget(max_samples=10, epsilon=0.3, workers=4)
        assert SamplingBudget.from_dict(b.to_dict()) == b


class TestNodeIds:
    """Node ids outside ``0..n-1`` are rejected, never wrapped or left to
    crash inside a handler (the path 0 -> 1 -> 2 -> 3 has n = 4)."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.api import ResultCache
        from repro.graphs import constant_probability, path

        with Session(constant_probability(path(4), 0.5), cache=ResultCache()) as s:
            yield s

    @pytest.mark.parametrize(
        "make",
        [
            lambda: EvalQuery(seeds=[0], boost=[-1]),
            lambda: EvalQuery(seeds=[-4]),
            lambda: BoostQuery(seeds=(-4,), k=1, algorithm="prr_boost"),
        ],
        ids=["eval-boost", "eval-seeds", "prr_boost-seeds"],
    )
    def test_negative_ids_rejected_by_the_query(self, make):
        with pytest.raises(ValueError, match="non-negative"):
            make()

    @pytest.mark.parametrize(
        "query,bad",
        [
            (EvalQuery(seeds=[0], boost=[7], rng_seed=1), 7),
            (EvalQuery(seeds=[4], rng_seed=1), 4),
            (BoostQuery(seeds=(9,), k=1, algorithm="degree_global", rng_seed=1), 9),
            (BoostQuery(seeds=(0,), k=1, algorithm="mc_greedy", rng_seed=1,
                        params={"candidates": [1, 5]}), 5),
        ],
        ids=["eval-boost", "eval-seeds", "degree_global-seeds", "mc_greedy-candidates"],
    )
    def test_ids_past_the_graph_rejected_before_the_cache(self, session, query, bad):
        misses = session.cache.stats()["misses"]
        with pytest.raises(ValueError, match=f"node id {bad} "):
            session.run(query)
        assert session.cache.stats()["misses"] == misses

    def test_tree_root_past_the_graph_rejected(self, session):
        from repro.api import TreeQuery

        with pytest.raises(ValueError, match="node id 4 "):
            session.run(TreeQuery(seeds=[0], k=1, root=4))

    def test_last_node_is_valid(self, session):
        res = session.run(EvalQuery(seeds=[0], boost=[3], rng_seed=1,
                                    budget=SamplingBudget(mc_runs=50)))
        assert res.estimates["boost"] >= 0.0


class TestRegistry:
    def test_builtins_registered(self):
        names = algorithm_names()
        for key in (
            "prr_boost", "prr_boost_lb", "imm", "ssa", "mc_greedy",
            "degree_global", "degree_local", "pagerank", "more_seeds",
            "evaluate",
        ):
            assert key in names

    def test_unknown_algorithm(self, graph):
        with pytest.raises(KeyError):
            get_algorithm("oracle")
        with Session(graph) as session:
            with pytest.raises(KeyError):
                session.run(SeedQuery(k=2, algorithm="oracle"))

    def test_custom_registration(self, graph):
        @register_algorithm("first_k")
        def _first_k(session, query, rng):
            return QueryResult(
                algorithm=query.algorithm,
                selected=list(range(query.k)),
            )

        with Session(graph) as session:
            result = session.run(SeedQuery(k=3, algorithm="first_k"))
        assert result.selected == [0, 1, 2]
        assert result.fingerprint


class TestParity:
    """Session queries == legacy wrappers, bit for bit, under fixed seeds."""

    def test_prr_boost(self, graph):
        legacy = prr_boost(graph, {0, 1}, 5, np.random.default_rng(3),
                           max_samples=800)
        with Session(graph) as session:
            result = session.run(
                BoostQuery(seeds=(0, 1), k=5, budget=BUDGET, rng_seed=3)
            )
        assert result.selected == legacy.boost_set
        assert result.estimates["boost"] == legacy.estimated_boost
        assert result.num_samples == legacy.num_samples

    def test_prr_boost_lb(self, graph):
        legacy = prr_boost_lb(graph, {0, 1}, 5, np.random.default_rng(3),
                              max_samples=800)
        with Session(graph) as session:
            result = session.run(
                BoostQuery(seeds=(0, 1), k=5, algorithm="prr_boost_lb",
                           budget=BUDGET, rng_seed=3)
            )
        assert result.selected == legacy.boost_set
        assert result.estimates["mu"] == legacy.mu_estimate

    def test_imm(self, graph):
        legacy = imm(graph, 4, np.random.default_rng(5), max_samples=800)
        with Session(graph) as session:
            result = session.run(
                SeedQuery(k=4, algorithm="imm", budget=BUDGET, rng_seed=5)
            )
        assert result.selected == legacy.chosen
        assert result.num_samples == legacy.theta

    def test_ssa(self, graph):
        legacy = ssa(graph, 4, np.random.default_rng(5), max_samples=800)
        with Session(graph) as session:
            result = session.run(
                SeedQuery(k=4, algorithm="ssa", budget=BUDGET, rng_seed=5)
            )
        assert result.selected == legacy.chosen
        assert result.extra["rounds"] == legacy.rounds

    def test_mc_greedy(self, graph):
        legacy = mc_greedy_boost(graph, {0, 1}, 2, np.random.default_rng(2),
                                 runs=50, candidates=list(range(2, 12)))
        with Session(graph) as session:
            result = session.run(
                BoostQuery(
                    seeds=(0, 1), k=2, algorithm="mc_greedy",
                    budget=SamplingBudget(mc_runs=50),
                    params={"candidates": tuple(range(2, 12))},
                    rng_seed=2,
                )
            )
        assert result.selected == legacy


class TestWarmState:
    def test_repeat_query_identical(self, graph):
        """Recycled scratch must not leak state into the next query."""
        query = BoostQuery(seeds=(0, 1), k=5, budget=BUDGET, rng_seed=11)
        with Session(graph) as session:
            first = session.run(query)
            # interleave a different query shape to dirty the scratch
            session.run(
                BoostQuery(seeds=(2, 3), k=3, algorithm="prr_boost_lb",
                           budget=BUDGET, rng_seed=1)
            )
            second = session.run(query)
        assert first.selected == second.selected
        assert first.estimates == second.estimates
        assert first.fingerprint == second.fingerprint

    def test_scratch_recycled(self, graph):
        with Session(graph) as session:
            idx1 = session.scratch_index()
            idx1.append([1, 2])
            idx2 = session.scratch_index()
            assert idx2 is idx1
            assert idx2.num_sets == 0
            arena1 = session.scratch_arena()
            assert len(arena1) == 0
            assert session.scratch_arena() is arena1

    def test_run_many_shares_session(self, graph):
        queries = [
            SeedQuery(k=3, budget=BUDGET, rng_seed=1),
            BoostQuery(seeds=(0, 1), k=4, budget=BUDGET, rng_seed=2),
            EvalQuery(seeds=(0, 1), boost=(5, 6), budget=BUDGET, rng_seed=3),
        ]
        with Session(graph) as session:
            batch = session.run_many(queries)
            singles = [session.run(q) for q in queries]
        assert [r.selected for r in batch] == [r.selected for r in singles]
        assert [r.estimates for r in batch] == [r.estimates for r in singles]
        assert len(batch) == 3


class TestEnvelope:
    def test_json_serializable(self, graph):
        with Session(graph) as session:
            result = session.run(
                BoostQuery(seeds=(0, 1), k=3, budget=BUDGET, rng_seed=1)
            )
        payload = json.loads(result.to_json())
        assert payload["algorithm"] == "prr_boost"
        assert payload["selected"] == result.selected
        assert "total" in payload["timings"]
        assert payload["query"]["type"] == "boost"
        assert "stats" in payload["extra"]
        # the serialized query round-trips to the original
        assert query_from_dict(payload["query"]).seeds == (0, 1)

    def test_fingerprint_distinguishes(self, graph):
        with Session(graph) as session:
            a = session.run(BoostQuery(seeds=(0, 1), k=3, budget=BUDGET,
                                       rng_seed=1))
            b = session.run(BoostQuery(seeds=(0, 1), k=3, budget=BUDGET,
                                       rng_seed=2))
            c = session.run(BoostQuery(seeds=(0, 1), k=3, budget=BUDGET,
                                       rng_seed=1))
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint == c.fingerprint

    def test_eval_metrics(self, graph):
        with Session(graph) as session:
            sigma = session.run(
                EvalQuery(seeds=(0, 1), metric="sigma", budget=BUDGET,
                          rng_seed=4)
            )
            boost = session.run(
                EvalQuery(seeds=(0, 1), boost=(5, 6, 7), budget=BUDGET,
                          rng_seed=4)
            )
        assert sigma.estimates["sigma"] >= 2.0
        assert boost.estimates["boost"] >= 0.0

    def test_baseline_query(self, graph):
        with Session(graph) as session:
            result = session.run(
                BoostQuery(seeds=(0, 1), k=4, algorithm="degree_global",
                           budget=SamplingBudget(mc_runs=100), rng_seed=6)
            )
        assert len(result.extra["candidate_sets"]) == 4
        assert result.selected in result.extra["candidate_sets"]
        assert "boost" in result.estimates


ESTIMATE_KEYS = {
    "prr_boost": {"boost", "mu", "delta"},
    "prr_boost_lb": {"boost", "mu"},
    "mc_greedy": set(),
    "degree_global": {"boost"},
    "degree_local": {"boost"},
    "pagerank": {"boost"},
    "ppr": {"boost"},
    "more_seeds": {"boost"},
    "imm": {"influence"},
    "ssa": {"influence", "selection_estimate"},
    "degree": set(),
    "random": set(),
    "evaluate": {"boost"},
    "tree_dp": {"boost", "dp_value"},
    "tree_greedy": {"boost", "sigma", "sigma_empty"},
}


class TestEstimateKeys:
    """An envelope's ``estimates`` name only what its algorithm estimated."""

    @pytest.mark.parametrize("algorithm", sorted(ESTIMATE_KEYS))
    def test_keys(self, algorithm, graph, tree_graph):
        from repro.api import TreeQuery

        budget = SamplingBudget(max_samples=300, mc_runs=50)
        if algorithm.startswith("tree_"):
            graph, seeds = tree_graph
            query = TreeQuery(seeds=seeds, k=2, algorithm=algorithm, rng_seed=1)
        elif algorithm == "evaluate":
            query = EvalQuery(seeds=(0, 1), boost=(5,), budget=budget, rng_seed=1)
        elif algorithm in ("imm", "ssa", "degree", "random"):
            query = SeedQuery(k=2, algorithm=algorithm, budget=budget, rng_seed=1)
        else:
            query = BoostQuery(
                seeds=(0, 1), k=2, algorithm=algorithm, budget=budget,
                params={"candidates": tuple(range(2, 12))}, rng_seed=1,
            )
        with Session(graph) as session:
            result = session.run(query)
        assert set(result.estimates) == ESTIMATE_KEYS[algorithm]
        if algorithm == "tree_dp":
            assert result.extra["delta_param"] > 0


class TestLifecycle:
    def test_double_close_idempotent(self, graph):
        session = Session(graph)
        session.run(SeedQuery(k=2, budget=BUDGET, rng_seed=0))
        session.close()
        session.close()
        assert session.closed

    def test_run_after_close_raises(self, graph):
        session = Session(graph)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run(SeedQuery(k=2, budget=BUDGET))
        with pytest.raises(RuntimeError):
            session.run_many([SeedQuery(k=2, budget=BUDGET)])
        with pytest.raises(RuntimeError):
            session.scratch_index()

    def test_context_manager_closes(self, graph):
        with Session(graph) as session:
            pass
        assert session.closed

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="requires fork",
    )
    def test_close_releases_runtime(self, graph):
        from repro.core import parallel

        session = Session(graph)
        assert session.ensure_runtime(2)
        assert parallel.runtime_is_alive(graph)
        runtime = parallel._runtime
        hosts = [host.proc for host in runtime._hosts]
        session.close()
        assert not parallel.runtime_is_alive(graph)
        assert runtime._closed
        # the pool's host processes have exited
        assert hosts and not any(proc.is_alive() for proc in hosts)

    def test_unmanaged_session_keeps_runtime(self, graph):
        from repro.core import parallel

        with Session(graph) as owner:
            assert owner.ensure_runtime(2)
            with Session(graph, manage_runtime=False) as throwaway:
                throwaway.run(SeedQuery(k=2, budget=BUDGET, rng_seed=0))
            assert parallel.runtime_is_alive(graph)
        assert not parallel.runtime_is_alive(graph)

    def test_forkless_falls_back_to_serial(self, graph, monkeypatch):
        """Without fork, workers>1 budgets must run serially (and equal
        the serial results, since collections are worker-count pure)."""
        from repro.core import parallel

        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        budget = SamplingBudget(max_samples=800, workers=4)
        with Session(graph) as session:
            assert not session.ensure_runtime(4)
            parallel_q = session.run(
                BoostQuery(seeds=(0, 1), k=4, budget=budget, rng_seed=5)
            )
            serial_q = session.run(
                BoostQuery(seeds=(0, 1), k=4,
                           budget=SamplingBudget(max_samples=800), rng_seed=5)
            )
        assert parallel_q.selected == serial_q.selected

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="requires fork",
    )
    def test_workers_query_runs(self, graph):
        """A workers>1 query completes on the pool and is reproducible.

        (Parallel dispatch is a different — equally valid — sample
        stream than serial, so only the parallel run is compared to
        itself.)
        """
        budget = SamplingBudget(max_samples=600, workers=2)
        query = BoostQuery(seeds=(0, 1), k=4, budget=budget, rng_seed=9)
        with Session(graph) as session:
            first = session.run(query)
            second = session.run(query)
        assert 0 < len(first.selected) <= 4
        assert first.selected == second.selected

        from repro.core import parallel

        assert not parallel.runtime_is_alive(graph)

class TestTreeQueries:
    """TreeQuery routing: envelope, cache, admission."""

    def test_registered(self):
        names = algorithm_names()
        assert "tree_dp" in names
        assert "tree_greedy" in names
        assert "ppr" in names

    def test_round_trip(self):
        from repro.api import TreeQuery

        q = TreeQuery(seeds=(4, 2), k=3, root=1, algorithm="tree_greedy",
                      rng_seed=7, params={"initial_samples": 128})
        clone = query_from_dict(json.loads(json.dumps(q.to_dict())))
        assert clone == q
        assert q.seeds == (2, 4)

    def test_validation(self):
        from repro.api import TreeQuery

        with pytest.raises(ValueError):
            TreeQuery(seeds=(), k=1)
        with pytest.raises(ValueError):
            TreeQuery(seeds=(0,), k=0)
        with pytest.raises(ValueError):
            TreeQuery(seeds=(0,), k=1, root=-2)

    def test_envelope_and_cache(self, tree_graph):
        from repro.api import ResultCache, TreeQuery

        graph, seeds = tree_graph
        cache = ResultCache()
        with Session(graph, cache=cache) as session:
            q = TreeQuery(seeds=seeds, k=4, rng_seed=11)
            first = session.run(q)
            again = session.run(q)
        assert again is first  # rng-pinned deterministic query hits the cache
        assert cache.hits == 1
        assert first.selected and len(first.selected) <= 4
        assert first.estimates["boost"] >= first.estimates["dp_value"] - 1e-9
        assert first.extra["table_entries"] > 0
        assert first.fingerprint
        json.dumps(first.to_dict())  # envelope serializes

    def test_greedy_matches_dp_selection_quality(self, tree_graph):
        from repro.api import TreeQuery

        graph, seeds = tree_graph
        with Session(graph) as session:
            dp = session.run(TreeQuery(seeds=seeds, k=4, rng_seed=1))
            greedy = session.run(
                TreeQuery(seeds=seeds, k=4, algorithm="tree_greedy", rng_seed=1)
            )
        assert greedy.estimates["boost"] >= dp.estimates["boost"] * 0.95

    def test_admission_pricing(self, tree_graph):
        from repro.api import TreeQuery, estimate_cost

        graph, seeds = tree_graph
        with Session(graph) as session:
            dp_cost = estimate_cost(
                session,
                TreeQuery(seeds=seeds, k=4,
                          budget=SamplingBudget(epsilon=0.2)),
            )
            greedy_cost = estimate_cost(
                session,
                TreeQuery(seeds=seeds, k=4, algorithm="tree_greedy"),
            )
        assert dp_cost.samples == 0 and greedy_cost.samples == 0
        # DP tables scale with (1/eps)^2; greedy has a small constant.
        assert dp_cost.units > greedy_cost.units
        n, k = graph.n, 4
        assert dp_cost.units == pytest.approx(n * (k + 1) * 25.0)
        assert greedy_cost.units == pytest.approx(n * (k + 1) * 4.0)

    def test_admission_rejects_fine_epsilon(self, tree_graph):
        from repro.api import AdmissionPolicy, AdmissionRejected, TreeQuery

        graph, seeds = tree_graph
        policy = AdmissionPolicy(reject_units=graph.n * 5 * 10.0)
        with Session(graph, admission=policy) as session:
            with pytest.raises(AdmissionRejected):
                session.run(
                    TreeQuery(seeds=seeds, k=4,
                              budget=SamplingBudget(epsilon=0.01))
                )
            # coarse epsilon fits under the same policy
            ok = session.run(
                TreeQuery(seeds=seeds, k=4,
                          budget=SamplingBudget(epsilon=1.0))
            )
            assert ok.selected

    def test_non_tree_graph_rejected(self, graph):
        from repro.api import TreeQuery

        with Session(graph) as session:
            with pytest.raises(ValueError):
                session.run(TreeQuery(seeds=(0, 1), k=2))

    def test_run_many_overlap(self, tree_graph):
        from repro.api import TreeQuery

        graph, seeds = tree_graph
        with Session(graph) as session:
            queries = [
                TreeQuery(seeds=seeds, k=k, rng_seed=k) for k in (1, 2, 3)
            ]
            batch = session.run_many(queries)
            single = [session.run(q) for q in queries]
        assert [r.selected for r in batch] == [r.selected for r in single]


class TestPPRBaseline:
    def test_ppr_envelope(self, graph):
        from repro.baselines import ppr_baseline

        q = BoostQuery(seeds=(0, 5), k=4, algorithm="ppr", rng_seed=3,
                       budget=BUDGET, params={"evaluate": False})
        with Session(graph) as session:
            res = session.run(q)
        assert res.selected == ppr_baseline(graph, {0, 5}, 4)
        assert res.extra["candidate_sets"] == [res.selected]
        assert not set(res.selected) & {0, 5}

    def test_ppr_ranked(self, graph):
        q = BoostQuery(seeds=(0, 5), k=4, algorithm="ppr", rng_seed=3,
                       budget=BUDGET)
        with Session(graph) as session:
            res = session.run(q)
        assert "boost" in res.estimates
        assert len(res.selected) == 4

    def test_ppr_differs_from_global_pagerank(self, graph):
        from repro.baselines import pagerank_scores, ppr_scores

        personalized = ppr_scores(graph, {3})
        uniform = pagerank_scores(graph)
        assert personalized.sum() == pytest.approx(1.0, abs=1e-3)
        # restart mass concentrates on/near the seed
        assert personalized[3] > uniform[3]
