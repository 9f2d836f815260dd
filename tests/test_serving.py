"""Tests for the pipelined serving tier.

Covers the contracts the tier promises:

* **fingerprint stability** — identical across fresh sessions, worker
  counts, and cache on/off; sensitive to the graph's probabilities,
* **result cache** — hits return the same envelope at any worker count,
  LRU bounds hold, a graph mutation (``update_probabilities``)
  invalidates, snapshots with retired key shapes are dropped,
* **admission** — cost model ordering, reject/queue/caps,
  structured rejection envelopes,
* **run_many** — a batch answers exactly as a loop of ``Session.run``
  over its admitted queries, then its queued ones: envelopes, input
  positions, ambient-RNG order, and deadlines counted from batch
  submission,
* **serve front ends** — NDJSON line protocol and the HTTP endpoint.
"""

import io
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import (
    AdmissionPolicy,
    AdmissionRejected,
    BoostQuery,
    EvalQuery,
    ResultCache,
    SamplingBudget,
    SeedQuery,
    Session,
    estimate_cost,
    query_from_dict,
    serve_http,
    serve_ndjson,
)
from repro.graphs import learned_like, preferential_attachment


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(17)
    return learned_like(preferential_attachment(150, 3, rng), rng, 0.2)


def fresh_graph(seed=17, n=150):
    rng = np.random.default_rng(seed)
    return learned_like(preferential_attachment(n, 3, rng), rng, 0.2)


BUDGET = SamplingBudget(max_samples=600, mc_runs=100)
QUERY = BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=7)


def envelope_sans_timings(result):
    data = result.to_dict()
    data.pop("timings")
    return data


def run_loop(session, queries, rng=None, order=None):
    """What ``run_many`` must equal: each query answered by
    ``Session.run`` in ``order`` (default: batch order), each result in
    its query's batch position."""
    results = [None] * len(queries)
    for i in range(len(queries)) if order is None else order:
        results[i] = session.run(queries[i], rng=rng)
    return results


def assert_same_answers(got, want, queries):
    """Envelopes equal position by position, timings aside, and each
    answer sits in its own query's position."""
    assert [r.query for r in got] == [q.to_dict() for q in queries]
    assert [envelope_sans_timings(r) for r in got] == [
        envelope_sans_timings(r) for r in want
    ]


@pytest.fixture()
def probe(monkeypatch):
    """A test algorithm, ``"probe"``: it sleeps ``params["sleep_ms"]``,
    logs its query's ``k`` and picks one node with its RNG.  The
    returned log is the order a batch ran its probes in."""
    from repro.api import QueryResult, registry

    ran = []

    def handler(session, query, rng):
        time.sleep(query.param_dict.get("sleep_ms", 0) / 1000.0)
        ran.append(query.k)
        return QueryResult(query.algorithm, [int(rng.integers(session.graph.n))])

    monkeypatch.setitem(registry._REGISTRY, "probe", handler)
    return ran


class TestFingerprintStability:
    def test_identical_across_fresh_sessions(self, graph):
        with Session(graph, budget=BUDGET) as a:
            fa = a.run(QUERY).fingerprint
        with Session(graph, budget=BUDGET) as b:
            fb = b.run(QUERY).fingerprint
        assert fa == fb

    def test_identical_across_equal_graph_builds(self):
        with Session(fresh_graph(), budget=BUDGET) as a:
            fa = a.run(QUERY).fingerprint
        with Session(fresh_graph(), budget=BUDGET) as b:
            fb = b.run(QUERY).fingerprint
        assert fa == fb

    def test_identical_across_worker_counts(self, graph):
        base = SamplingBudget(max_samples=600, mc_runs=100)
        with Session(graph, budget=base) as session:
            plain = session.fingerprint_for(QUERY)
            for workers in (1, 2, 4):
                budget = SamplingBudget(
                    max_samples=600, mc_runs=100, workers=workers
                )
                q = BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=7, budget=budget)
                assert session.fingerprint_for(q) == plain

    def test_identical_with_and_without_cache(self, graph):
        with Session(graph, budget=BUDGET) as plain:
            f_plain = plain.run(QUERY).fingerprint
        with Session(graph, budget=BUDGET, cache=ResultCache()) as cached:
            f_miss = cached.run(QUERY).fingerprint
            f_hit = cached.run(QUERY).fingerprint
        assert f_plain == f_miss == f_hit

    def test_sensitive_to_probabilities(self):
        graph = fresh_graph()
        with Session(graph, budget=BUDGET) as session:
            before = session.run(QUERY).fingerprint
            _, _, p, pp = graph.edge_arrays()
            graph.update_probabilities(p * 0.5, pp)
            after = session.run(QUERY).fingerprint
        assert before != after

    def test_distinct_seeds_distinct_fingerprints(self, graph):
        with Session(graph, budget=BUDGET) as session:
            f7 = session.run(QUERY).fingerprint
            f8 = session.run(
                BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=8)
            ).fingerprint
        assert f7 != f8


class TestResultCache:
    def test_hit_returns_same_envelope(self, graph):
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            first = session.run(QUERY)
            second = session.run(QUERY)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_cached_and_uncached_envelopes_identical(self, graph):
        with Session(graph, budget=BUDGET) as plain:
            reference = envelope_sans_timings(plain.run(QUERY))
        with Session(graph, budget=BUDGET, cache=ResultCache()) as cached:
            miss = envelope_sans_timings(cached.run(QUERY))
            hit = envelope_sans_timings(cached.run(QUERY))
        assert reference == miss == hit

    def test_unseeded_queries_never_cached(self, graph):
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            rng = np.random.default_rng(3)
            session.run(SeedQuery(algorithm="degree", k=3), rng=rng)
            session.run(SeedQuery(algorithm="degree", k=3), rng=rng)
        assert len(cache) == 0 and cache.hits == 0

    def test_mutation_invalidates(self):
        graph = fresh_graph()
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            session.run(QUERY)
            _, _, p, pp = graph.edge_arrays()
            graph.update_probabilities(p * 0.5, pp)
            session.run(QUERY)
        assert cache.misses == 2 and cache.hits == 0

    def test_lru_bound_and_evictions(self, graph):
        cache = ResultCache(capacity=2)
        with Session(graph, budget=BUDGET, cache=cache) as session:
            for seed in (1, 2, 3):
                session.run(SeedQuery(algorithm="degree", k=2, rng_seed=seed))
        assert len(cache) == 2
        assert cache.evictions == 1
        stats = cache.stats()
        assert stats["size"] == 2 and stats["capacity"] == 2

    def test_worker_count_shares_entries(self, graph):
        # Every sample is drawn from the query's RNG, so a workers=1
        # answer is the workers=2 answer too.
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            first = session.run(QUERY)
            budget = SamplingBudget(max_samples=600, mc_runs=100, workers=2)
            again = session.run(
                BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=7, budget=budget)
            )
        assert again is first
        assert cache.hits == 1 and cache.misses == 1

    def test_cached_answers_keep_no_sample_collection(self, graph):
        """Entering the cache drops ``raw``: no coverage index or PRR
        arena stays reachable from the cache after distinct seed queries."""
        import gc
        import types

        from repro.core.prr import PRRArena
        from repro.engine.coverage import CoverageIndex

        cache = ResultCache()
        queries = [
            query
            for seed in (1, 2, 3)
            for query in (
                SeedQuery(algorithm="imm", k=3, rng_seed=seed),
                SeedQuery(algorithm="ssa", k=3, rng_seed=seed),
                BoostQuery(seeds=[1, 2, 3], k=3, rng_seed=seed),
            )
        ]
        with Session(graph, budget=BUDGET, cache=cache) as session:
            results = [session.run(query) for query in queries]
        assert len(cache) == len(queries)
        assert all(result.raw is None for result in results)
        # Follow object references from the cache, not into code.
        skip = (type, types.ModuleType, types.FunctionType,
                types.BuiltinFunctionType, types.MethodType)
        seen, stack = set(), [cache]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, skip):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (CoverageIndex, PRRArena))
            stack.extend(gc.get_referents(obj))

    def test_clear_keeps_counters(self, graph):
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            session.run(QUERY)
            session.run(QUERY)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1

    # The cached stream must be at least this much faster than the
    # uncached one: 70% of the 2.196x recorded on this stream by the
    # smoke run of the serving benchmark this test replaced, and never
    # below 1.5x.
    MIN_STREAM_SPEEDUP = max(1.5, 0.7 * 2.196)

    def test_cached_stream_speedup(self):
        """A mixed stream of eight distinct seeded queries, repeated for
        four rounds: with the cache on, rounds two to four are hits."""
        rng = np.random.default_rng(11)
        graph = learned_like(preferential_attachment(3000, 5, rng), rng, 0.1)
        seeds = tuple(int(v) for v in np.random.default_rng(2).choice(
            graph.n, size=5, replace=False))
        sampled = SamplingBudget(max_samples=512)
        mc = SamplingBudget(mc_runs=10)
        stream = [
            BoostQuery(seeds=seeds, k=5, algorithm="prr_boost_lb",
                       budget=sampled, rng_seed=1),
            SeedQuery(k=5, algorithm="imm", budget=sampled, rng_seed=2),
            BoostQuery(seeds=seeds, k=8, algorithm="prr_boost_lb",
                       budget=sampled, rng_seed=3),
            EvalQuery(seeds=seeds, boost=(1, 2, 3), budget=mc, rng_seed=4),
            SeedQuery(k=8, algorithm="ssa", budget=sampled, rng_seed=5),
            BoostQuery(seeds=seeds, k=5, algorithm="prr_boost_lb",
                       budget=sampled, rng_seed=6),
            EvalQuery(seeds=seeds, boost=(4, 5), metric="sigma",
                      budget=mc, rng_seed=7),
            SeedQuery(k=5, algorithm="imm", budget=sampled, rng_seed=8),
        ]

        def seconds(cache):
            with Session(graph, cache=cache) as session:
                start = time.perf_counter()
                for _ in range(4):
                    session.run_many(stream)
                return time.perf_counter() - start

        uncached = min(seconds(None) for _ in range(3))
        cached = min(seconds(ResultCache()) for _ in range(3))
        assert uncached / cached >= self.MIN_STREAM_SPEEDUP


class TestAdmission:
    def test_cost_ordering(self, graph):
        small = SamplingBudget(max_samples=100, mc_runs=10)
        big = SamplingBudget(max_samples=10_000, mc_runs=10)
        with Session(graph) as session:
            c_small = estimate_cost(
                session, BoostQuery(seeds=[1], k=2, budget=small)
            )
            c_big = estimate_cost(
                session, BoostQuery(seeds=[1], k=2, budget=big)
            )
            c_eval = estimate_cost(
                session,
                EvalQuery(seeds=[1], boost=[2],
                          budget=SamplingBudget(mc_runs=10_000)),
            )
        assert c_small.units < c_big.units
        assert c_eval.units > c_small.units
        assert c_small.to_dict()["units"] > 0

    def test_seed_strategies_priced_without_monte_carlo(self, graph):
        # The degree and random seed handlers simulate nothing, so their
        # price is one pass over the graph whatever mc_runs says.
        with Session(graph) as session:
            for mc_runs in (1, 100, 10_000):
                budget = SamplingBudget(mc_runs=mc_runs)
                for algorithm in ("degree", "random"):
                    cost = estimate_cost(
                        session, SeedQuery(algorithm=algorithm, k=5, budget=budget)
                    )
                    assert cost.units == graph.n + graph.m
                    assert cost.samples == 0

    def test_boost_baselines_priced_with_their_ranking(self, graph):
        # Every boost baseline, MoreSeeds included, ranks its candidate
        # sets by Monte Carlo unless its evaluate param is false: that is
        # mc_runs x m units on top of its own price.
        def units(session, algorithm, mc_runs, **params):
            query = BoostQuery(
                seeds=[1, 2, 3], k=3, algorithm=algorithm, params=params,
                budget=SamplingBudget(mc_runs=mc_runs),
            )
            return estimate_cost(session, query).units

        with Session(graph) as session:
            for algorithm in ("degree_global", "degree_local", "pagerank",
                              "ppr", "more_seeds"):
                ranked = units(session, algorithm, 300)
                unranked = units(session, algorithm, 300, evaluate=False)
                assert ranked - units(session, algorithm, 100) == (
                    pytest.approx(200 * graph.m)
                )
                assert ranked - unranked == pytest.approx(300 * graph.m)
                assert unranked == units(session, algorithm, 100, evaluate=False)

    def test_reject_raises_with_envelope(self, graph):
        policy = AdmissionPolicy(max_samples=10)
        with Session(graph, budget=BUDGET, admission=policy) as session:
            with pytest.raises(AdmissionRejected) as info:
                session.run(QUERY)
        envelope = info.value.envelope
        assert envelope["error"] == "rejected"
        assert envelope["admission"]["action"] == "reject"
        assert envelope["admission"]["cost"]["units"] > 0
        assert envelope["query"]["rng_seed"] == 7

    def test_reject_units_threshold(self, graph):
        policy = AdmissionPolicy(reject_units=1.0)
        with Session(graph, budget=BUDGET, admission=policy) as session:
            with pytest.raises(AdmissionRejected):
                session.run(QUERY)

    def test_run_many_envelope_mode_keeps_positions(self, graph):
        policy = AdmissionPolicy(max_samples=1000)
        heavy = BoostQuery(
            seeds=[1], k=2, rng_seed=1,
            budget=SamplingBudget(max_samples=50_000),
        )
        light = SeedQuery(algorithm="degree", k=2, rng_seed=2)
        with Session(graph, budget=BUDGET, admission=policy) as session:
            results = session.run_many(
                [heavy, light], on_reject="envelope"
            )
        assert results[0].extra["error"] == "rejected"
        assert results[1].selected

    def test_queued_queries_still_run(self, graph):
        policy = AdmissionPolicy(queue_units=1.0)  # everything queues
        with Session(graph, budget=BUDGET, admission=policy) as session:
            decision = policy.decide(session, QUERY)
            assert decision.action == "queue" and decision.admitted
            results = session.run_many([QUERY])
        assert results[0].selected

    def test_mc_runs_cap(self, graph):
        policy = AdmissionPolicy(max_mc_runs=10)
        query = EvalQuery(seeds=[1], boost=[2], rng_seed=1)
        with Session(graph, budget=BUDGET, admission=policy) as session:
            with pytest.raises(AdmissionRejected):
                session.run(query)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(reject_units=10.0, queue_units=20.0)

    def test_calibrated_converts_seconds(self, graph):
        with Session(graph, budget=BUDGET) as session:
            policy = AdmissionPolicy.calibrated(
                session, reject_seconds=10.0, queue_seconds=1.0
            )
        assert policy.reject_units > policy.queue_units > 0


class TestOverlappedRunMany:
    """``run_many`` answers a batch as a loop of ``Session.run`` would."""

    QUERIES = [
        BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=s) for s in range(4)
    ] + [
        SeedQuery(algorithm="imm", k=3, rng_seed=11),
        EvalQuery(seeds=[1, 2], boost=[4], rng_seed=5),
    ]

    def test_matches_serial_path(self, graph):
        with Session(graph, budget=BUDGET) as session:
            serial = run_loop(session, self.QUERIES)
        with Session(graph, budget=BUDGET) as session:
            batched = session.run_many(self.QUERIES)
        assert_same_answers(batched, serial, self.QUERIES)

    def test_matches_serial_path_with_workers(self, graph):
        budget = SamplingBudget(max_samples=600, mc_runs=100, workers=2)
        queries = [
            BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=s, budget=budget)
            for s in range(3)
        ]
        with Session(graph) as session:
            serial = run_loop(session, queries)
        with Session(graph) as session:
            batched = session.run_many(queries)
        assert_same_answers(batched, serial, queries)

    def test_ambient_rng_order_preserved(self, graph):
        # Unseeded queries consume the ambient stream in batch order;
        # seeded ones never touch it.
        mixed = [
            BoostQuery(seeds=[1, 2], k=3, rng_seed=1),
            SeedQuery(algorithm="random", k=3),
            BoostQuery(seeds=[1, 2], k=3),
            SeedQuery(algorithm="random", k=4),
        ]
        with Session(graph, budget=BUDGET) as session:
            serial = run_loop(session, mixed, rng=np.random.default_rng(9))
        with Session(graph, budget=BUDGET) as session:
            batched = session.run_many(mixed, rng=np.random.default_rng(9))
        assert_same_answers(batched, serial, mixed)

    def test_duplicate_queries_share_computation(self, graph):
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            results = session.run_many([QUERY, QUERY, QUERY])
        assert results[0] is results[1] is results[2]
        assert cache.misses == 1

    def test_empty_batch(self, graph):
        with Session(graph, budget=BUDGET) as session:
            assert session.run_many([]) == []

    def test_bad_on_reject_value(self, graph):
        with Session(graph, budget=BUDGET) as session:
            with pytest.raises(ValueError):
                session.run_many([QUERY], on_reject="nope")

    def test_run_iter_streams_in_order(self, graph):
        with Session(graph, budget=BUDGET) as session:
            reference = run_loop(session, self.QUERIES[:3])
        with Session(graph, budget=BUDGET) as session:
            streamed = list(session.run_iter(self.QUERIES[:3]))
        assert_same_answers(streamed, reference, self.QUERIES[:3])

    def test_deadline_counts_from_batch_submission(self, graph, probe):
        slow = SeedQuery(algorithm="probe", k=1, rng_seed=1,
                         params={"sleep_ms": 200})
        timed = SeedQuery(algorithm="probe", k=2, rng_seed=2, deadline_ms=100)
        with Session(graph) as session:
            assert session.run(timed).selected  # alone, it is in time
            results = session.run_many([slow, timed], on_error="envelope")
        assert results[0].selected
        assert results[1].extra["error"] == "timeout"
        assert results[1].extra["elapsed_ms"] >= 200
        assert probe == [2, 1]  # behind the slow query, it never started


class TestWireShapes:
    """The client-side halves of the wire protocol round-trip."""

    def test_result_round_trips_from_dict(self, graph):
        from repro.api import QueryResult

        with Session(graph, budget=BUDGET) as session:
            result = session.run(QUERY)
        wire = json.loads(result.to_json())
        back = QueryResult.from_dict(wire)
        assert back.to_dict() == result.to_dict()
        assert back.raw is None

    def test_result_from_dict_rejects_unknown_fields(self):
        from repro.api import QueryResult

        with pytest.raises(ValueError, match="unknown result fields"):
            QueryResult.from_dict({"algorithm": "imm", "raw": 1, "bogus": 2})

    def test_canonical_dict_drops_only_budget(self):
        with_budget = BoostQuery(seeds=[1, 2], k=3, rng_seed=5, budget=BUDGET)
        without = BoostQuery(seeds=[1, 2], k=3, rng_seed=5)
        assert "budget" in with_budget.to_dict()
        assert with_budget.canonical_dict() == without.canonical_dict()
        assert with_budget.canonical_dict() == without.to_dict()


class TestServeNDJSON:
    def test_line_protocol(self, graph):
        lines = [
            json.dumps({"type": "seed", "algorithm": "degree", "k": 3,
                        "rng_seed": 1}),
            json.dumps([
                {"type": "seed", "algorithm": "degree", "k": 2, "rng_seed": 2},
                {"type": "seed", "algorithm": "degree", "k": 2, "rng_seed": 3},
            ]),
            "not json",
            json.dumps({"type": "mystery"}),
        ]
        out = io.StringIO()
        with Session(graph, budget=BUDGET, cache=ResultCache()) as session:
            summary = serve_ndjson(
                session, io.StringIO("\n".join(lines) + "\n"), out
            )
        answers = [json.loads(l) for l in out.getvalue().splitlines()]
        assert len(answers) == 5  # 1 + 2 (batch) + 2 errors
        assert answers[0]["selected"] and answers[1]["selected"]
        assert answers[3]["error"] == "bad_request"
        assert answers[4]["error"] == "bad_request"
        assert summary["serve"]["requests"] == 4
        assert summary["serve"]["errors"] == 2
        assert summary["cache"]["misses"] >= 1

    def test_bad_node_ids_keep_stream_alive(self, graph):
        lines = [
            json.dumps({"type": "eval", "seeds": [0], "boost": [-1], "rng_seed": 1}),
            json.dumps({"type": "boost", "algorithm": "prr_boost", "seeds": [-4],
                        "k": 1, "rng_seed": 1}),
            json.dumps({"type": "eval", "seeds": [0], "boost": [graph.n],
                        "rng_seed": 1}),
            json.dumps({"type": "boost", "algorithm": "degree_global",
                        "seeds": [graph.n + 5], "k": 1, "rng_seed": 1}),
            json.dumps({"type": "eval", "seeds": [0], "boost": [graph.n - 1],
                        "rng_seed": 1}),
        ]
        out = io.StringIO()
        with Session(graph, budget=BUDGET) as session:
            summary = serve_ndjson(
                session, io.StringIO("\n".join(lines) + "\n"), out
            )
        answers = [json.loads(l) for l in out.getvalue().splitlines()]
        assert len(answers) == 5
        for answer, bad in zip(answers[:2], (-1, -4)):
            assert answer["error"] == "bad_request"
            assert f"got {bad}" in answer["detail"]
        for answer, bad in zip(answers[2:4], (graph.n, graph.n + 5)):
            assert answer["extra"]["error"] == "failed"
            assert f"ValueError: node id {bad} " in answer["extra"]["detail"]
        assert answers[4]["estimates"]["boost"] >= 0.0
        assert summary["serve"]["errors"] == 4
        assert summary["serve"]["results"] == 1

    def test_rejection_envelope_keeps_stream_alive(self, graph):
        policy = AdmissionPolicy(max_samples=10)
        lines = [
            json.dumps({"type": "boost", "algorithm": "prr_boost",
                        "seeds": [1, 2], "k": 3, "rng_seed": 1}),
            json.dumps({"type": "seed", "algorithm": "degree", "k": 2,
                        "rng_seed": 2,
                        "budget": {"max_samples": 10, "mc_runs": 20}}),
        ]
        out = io.StringIO()
        with Session(graph, budget=BUDGET, admission=policy) as session:
            summary = serve_ndjson(
                session, io.StringIO("\n".join(lines) + "\n"), out
            )
        answers = [json.loads(l) for l in out.getvalue().splitlines()]
        assert answers[0]["extra"]["error"] == "rejected"
        assert answers[1]["selected"]
        assert summary["serve"]["rejected"] == 1
        assert summary["serve"]["results"] == 1


class TestServeHTTP:
    @pytest.fixture()
    def server(self, graph):
        ready, stop = threading.Event(), threading.Event()
        session = Session(graph, budget=BUDGET, cache=ResultCache())
        thread = threading.Thread(
            target=serve_http,
            args=(session,),
            kwargs=dict(port=0, ready=ready, stop=stop),
            daemon=True,
        )
        thread.start()
        assert ready.wait(10), "server did not come up"
        yield f"http://127.0.0.1:{ready.port}"
        stop.set()
        thread.join(10)
        session.close()

    @staticmethod
    def _post(url, payload):
        request = urllib.request.Request(
            url + "/query",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def test_healthz(self, server):
        with urllib.request.urlopen(server + "/healthz", timeout=30) as resp:
            assert json.loads(resp.read()) == {"ok": True}

    def test_query_and_stats(self, server):
        single = self._post(
            server, {"type": "seed", "algorithm": "degree", "k": 3,
                     "rng_seed": 1}
        )
        assert single["selected"] and single["fingerprint"]
        batch = self._post(server, [
            {"type": "seed", "algorithm": "degree", "k": 3, "rng_seed": 1},
            {"type": "seed", "algorithm": "degree", "k": 2, "rng_seed": 2},
        ])
        assert isinstance(batch, list) and len(batch) == 2
        assert batch[0]["fingerprint"] == single["fingerprint"]
        with urllib.request.urlopen(server + "/stats", timeout=30) as resp:
            stats = json.loads(resp.read())
        assert stats["serve"]["requests"] == 2
        assert stats["cache"]["hits"] >= 1

    def test_posts_share_one_warm_engine(self, server, monkeypatch):
        # Query work runs on one long-lived thread, so its thread-local
        # engine serves every POST instead of one engine per request.
        from repro.engine import SamplingEngine

        built = []
        init = SamplingEngine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(threading.current_thread().name)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SamplingEngine, "__init__", counting_init)
        for seed in range(5):
            answer = self._post(server, {
                "type": "boost", "algorithm": "prr_boost_lb",
                "seeds": [1, 2, 3], "k": 2, "rng_seed": seed,
            })
            assert answer["num_samples"] > 0
        assert len(built) <= 1

    def test_concurrent_posts_answer_like_serial_runs(self, server, graph):
        # Concurrent requests queue for the one query thread, so the warm
        # scratch they share sees one query at a time: every answer equals
        # the same query run alone.  A short switch interval makes the
        # request threads interleave as often as the interpreter allows.
        from concurrent.futures import ThreadPoolExecutor

        payloads = [
            {"type": "boost", "algorithm": algorithm, "seeds": [1, 2, 3],
             "k": 2, "rng_seed": seed}
            for seed in range(4)
            for algorithm in ("prr_boost", "prr_boost_lb")
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as clients:
                answers = list(clients.map(
                    lambda payload: self._post(server, payload), payloads,
                    timeout=120,
                ))
        finally:
            sys.setswitchinterval(interval)
        with Session(graph, budget=BUDGET) as session:
            for payload, answer in zip(payloads, answers):
                alone = session.run(query_from_dict(payload)).to_dict()
                answer.pop("timings")
                alone.pop("timings")
                assert answer == alone

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(server + "/query", data=b"{broken")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(server + "/nope", timeout=30)
        assert info.value.code == 404


class TestDeadlines:
    """Per-query deadline_ms: pre/post checks, envelopes, identity."""

    def test_deadline_zero_raises_query_timeout(self, graph):
        from repro.api import QueryTimeout

        query = BoostQuery(seeds=[1, 2], k=3, rng_seed=7, deadline_ms=0)
        with Session(graph, budget=BUDGET) as session:
            with pytest.raises(QueryTimeout) as info:
                session.run(query)
        envelope = info.value.envelope
        assert envelope["extra"]["error"] == "timeout"
        assert envelope["extra"]["deadline_ms"] == 0
        assert envelope["selected"] == []
        assert envelope["query"]["deadline_ms"] == 0

    def test_run_many_on_error_envelope_keeps_positions(self, graph):
        good = SeedQuery(algorithm="degree", k=3, rng_seed=1)
        late = BoostQuery(seeds=[1, 2], k=3, rng_seed=7, deadline_ms=0)
        with Session(graph, budget=BUDGET) as session:
            results = session.run_many([good, late, good], on_error="envelope")
        assert results[0].selected and results[2].selected
        assert results[1].extra["error"] == "timeout"

    def test_generous_deadline_does_not_interfere(self, graph):
        plain = BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=7)
        timed = BoostQuery(
            seeds=[1, 2, 3], k=4, rng_seed=7, deadline_ms=600_000
        )
        with Session(graph, budget=BUDGET) as session:
            assert session.run(timed).selected == session.run(plain).selected

    def test_deadline_excluded_from_identity(self, graph):
        plain = BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=7)
        timed = BoostQuery(
            seeds=[1, 2, 3], k=4, rng_seed=7, deadline_ms=600_000
        )
        assert "deadline_ms" not in timed.canonical_dict()
        assert timed.to_dict()["deadline_ms"] == 600_000
        with Session(graph, budget=BUDGET) as session:
            assert session.fingerprint_for(timed) == session.fingerprint_for(plain)

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            BoostQuery(seeds=[1], k=2, deadline_ms=-1)

    def test_algorithm_failure_becomes_failed_envelope(self, graph):
        bad = EvalQuery(seeds=[0], boost=[graph.n + 5], rng_seed=3)
        with Session(graph, budget=BUDGET) as session:
            results = session.run_many([bad], on_error="envelope")
        assert results[0].extra["error"] == "failed"
        assert results[0].extra["exception"]


class TestServeHTTPStatusCodes:
    """The error-taxonomy -> HTTP status mapping of serve_http."""

    @pytest.fixture()
    def served(self, graph):
        ready, stop = threading.Event(), threading.Event()
        session = Session(
            graph, budget=BUDGET, admission=AdmissionPolicy(max_samples=5000)
        )
        thread = threading.Thread(
            target=serve_http,
            args=(session,),
            kwargs=dict(port=0, ready=ready, stop=stop),
            daemon=True,
        )
        thread.start()
        assert ready.wait(10), "server did not come up"
        yield f"http://127.0.0.1:{ready.port}", session
        stop.set()
        thread.join(10)
        session.close()

    @staticmethod
    def _post_raw(url, payload):
        request = urllib.request.Request(
            url + "/query",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_single_rejected_is_429(self, served):
        url, _session = served
        code, body = self._post_raw(url, {
            "type": "boost", "algorithm": "prr_boost", "seeds": [1, 2],
            "k": 3, "rng_seed": 1,
            "budget": {"max_samples": 999_999, "mc_runs": 10},
        })
        assert code == 429
        assert body["extra"]["error"] == "rejected"

    def test_single_timeout_is_504(self, served):
        url, _session = served
        code, body = self._post_raw(url, {
            "type": "boost", "algorithm": "prr_boost", "seeds": [1, 2],
            "k": 3, "rng_seed": 1, "deadline_ms": 0,
        })
        assert code == 504
        assert body["extra"]["error"] == "timeout"
        assert body["extra"]["deadline_ms"] == 0

    def test_single_failure_is_500(self, served):
        url, _session = served
        code, body = self._post_raw(url, {
            "type": "eval", "algorithm": "evaluate", "seeds": [0],
            "boost": [10_000_000], "rng_seed": 1,
        })
        assert code == 500
        assert body["extra"]["error"] == "failed"

    def test_mixed_batch_is_200_with_inline_envelopes(self, served):
        url, _session = served
        code, body = self._post_raw(url, [
            {"type": "seed", "algorithm": "degree", "k": 3, "rng_seed": 1},
            {"type": "boost", "algorithm": "prr_boost", "seeds": [1, 2],
             "k": 3, "rng_seed": 1, "deadline_ms": 0},
        ])
        assert code == 200
        assert body[0]["selected"]
        assert body[1]["extra"]["error"] == "timeout"

    def test_uniform_error_batch_carries_class_code(self, served):
        url, _session = served
        code, body = self._post_raw(url, [
            {"type": "boost", "algorithm": "prr_boost", "seeds": [1],
             "k": 2, "rng_seed": 1, "deadline_ms": 0},
            {"type": "boost", "algorithm": "prr_boost", "seeds": [2],
             "k": 2, "rng_seed": 2, "deadline_ms": 0},
        ])
        assert code == 504
        assert all(e["extra"]["error"] == "timeout" for e in body)

    def test_healthz_degraded_is_503(self, served):
        from repro.core import RuntimeHealth

        url, session = served
        # Shadow the session's health probe with a degraded snapshot:
        # the handler consults it per request.
        session.runtime_health = lambda: RuntimeHealth(
            workers=2, workers_alive=0, restarts=3, retries=5, degraded=True
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(url + "/healthz", timeout=30)
        assert info.value.code == 503
        body = json.loads(info.value.read())
        assert body["degraded"] is True
        assert body["runtime"]["restarts"] == 3
        with urllib.request.urlopen(url + "/stats", timeout=30) as resp:
            stats = json.loads(resp.read())
        assert stats["runtime"]["degraded"] is True
        del session.runtime_health
        with urllib.request.urlopen(url + "/healthz", timeout=30) as resp:
            assert json.loads(resp.read())["ok"] is True


class TestAdmissionDrain:
    """Queue-classed queries run after the admitted ones, in batch order.

    Each batch must answer as a loop of ``Session.run`` over its
    admitted queries, then its queued ones, with every answer in its
    query's position.
    """

    MIXED = [
        BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=s) for s in range(3)
    ] + [SeedQuery(algorithm="imm", k=3, rng_seed=9)]

    HEAVY = SamplingBudget(max_samples=600, mc_runs=100)
    LIGHT = SamplingBudget(mc_runs=1)

    @staticmethod
    def queue_heavy(graph, batch, queued):
        """A policy that queues exactly the queries at ``queued``."""
        with Session(graph, budget=BUDGET) as session:
            costs = [estimate_cost(session, q).units for q in batch]
            limit = max(costs[i] for i in range(len(batch)) if i not in queued)
            policy = AdmissionPolicy(queue_units=limit * 1.01)
            actions = [policy.decide(session, q).action for q in batch]
        assert [i for i, a in enumerate(actions) if a == "queue"] == queued
        return policy

    def test_queued_seeded_envelopes_match_serial(self, graph):
        policy = AdmissionPolicy(queue_units=1.0)  # everything queues
        with Session(graph, budget=BUDGET, admission=policy) as session:
            serial = run_loop(session, self.MIXED)
        with Session(graph, budget=BUDGET, admission=policy) as session:
            drained = session.run_many(self.MIXED)
        assert_same_answers(drained, serial, self.MIXED)

    def test_mixed_admit_and_queue_keeps_positions(self, graph):
        batch = [
            BoostQuery(seeds=[1, 2], k=3, rng_seed=5, budget=self.HEAVY),
            SeedQuery(algorithm="degree", k=3, rng_seed=4, budget=self.LIGHT),
            BoostQuery(seeds=[1, 2], k=3, rng_seed=6, budget=self.HEAVY),
            SeedQuery(algorithm="degree", k=2, rng_seed=4, budget=self.LIGHT),
        ]
        policy = self.queue_heavy(graph, batch, queued=[0, 2])
        with Session(graph, budget=BUDGET, admission=policy) as session:
            serial = run_loop(session, batch, order=[1, 3, 0, 2])
        with Session(graph, budget=BUDGET, admission=policy) as session:
            drained = session.run_many(batch)
        assert_same_answers(drained, serial, batch)

    def test_unseeded_queued_queries_stay_in_ambient_order(self, graph):
        policy = AdmissionPolicy(queue_units=1.0)
        mixed = [
            SeedQuery(algorithm="random", k=3),
            BoostQuery(seeds=[1, 2], k=3, rng_seed=1),
            BoostQuery(seeds=[1, 2], k=3),
            SeedQuery(algorithm="random", k=4),
        ]
        with Session(graph, budget=BUDGET, admission=policy) as session:
            serial = run_loop(session, mixed, rng=np.random.default_rng(3))
        with Session(graph, budget=BUDGET, admission=policy) as session:
            drained = session.run_many(mixed, rng=np.random.default_rng(3))
        assert_same_answers(drained, serial, mixed)

    def test_queued_queries_run_after_admitted_ones(self, graph):
        # Every query here is unseeded, so the ambient stream they share
        # shows the order they ran in.
        batch = [
            BoostQuery(seeds=[1, 2], k=3, budget=self.HEAVY),
            SeedQuery(algorithm="random", k=3, budget=self.LIGHT),
            BoostQuery(seeds=[1, 2], k=2, budget=self.HEAVY),
            SeedQuery(algorithm="random", k=4, budget=self.LIGHT),
        ]
        policy = self.queue_heavy(graph, batch, queued=[0, 2])
        with Session(graph, budget=BUDGET, admission=policy) as session:
            serial = run_loop(session, batch, np.random.default_rng(5),
                              order=[1, 3, 0, 2])
        with Session(graph, budget=BUDGET, admission=policy) as session:
            drained = session.run_many(batch, rng=np.random.default_rng(5))
        assert_same_answers(drained, serial, batch)

    def test_queued_duplicates_share_computation(self, graph):
        policy = AdmissionPolicy(queue_units=1.0)
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache,
                     admission=policy) as session:
            results = session.run_many([QUERY, QUERY])
        assert results[0] is results[1]
        assert cache.misses == 1


class TestCachePersistence:
    """NDJSON snapshots of the result cache across server restarts."""

    def fill(self, session, cache, seeds=(1, 2, 3)):
        queries = [
            BoostQuery(seeds=[1, 2], k=3, rng_seed=s) for s in seeds
        ]
        return [session.run(q) for q in queries]

    def test_save_load_round_trip(self, graph, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            originals = self.fill(session, cache)
            assert cache.save(path) == 3
        restored = ResultCache()
        report = restored.load(path, graph_version=graph.version)
        assert report == {"loaded": 3, "dropped": 0}
        with Session(graph, budget=BUDGET, cache=restored) as session:
            hits_before = restored.hits
            replays = self.fill(session, restored)
            assert restored.hits == hits_before + 3
        for a, b in zip(originals, replays):
            assert a.to_dict() == b.to_dict()  # timings included: cached

    def test_stale_graph_version_dropped(self, graph, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            self.fill(session, cache)
            cache.save(path)
        restored = ResultCache()
        report = restored.load(path, graph_version=graph.version + 1)
        assert report == {"loaded": 0, "dropped": 3}
        assert len(restored) == 0

    def test_load_respects_capacity(self, graph, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            self.fill(session, cache, seeds=(1, 2, 3, 4, 5))
            cache.save(path)
        small = ResultCache(capacity=2)
        report = small.load(path, graph_version=graph.version)
        assert report["loaded"] == 5
        assert len(small) == 2
        assert small.evictions == 3

    def test_missing_and_malformed_entries(self, tmp_path):
        cache = ResultCache()
        assert cache.load(tmp_path / "absent.ndjson") == {
            "loaded": 0, "dropped": 0,
        }
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"key": [1, 2], "result": {}}\n')
        assert cache.load(bad) == {"loaded": 0, "dropped": 1}

    def test_old_five_field_keys_dropped(self, graph, tmp_path):
        # Snapshots keyed with a worker count may hold answers of the
        # retired chunk-seeded stream: never serve them.
        path = tmp_path / "cache.ndjson"
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            self.fill(session, cache, seeds=(1,))
            cache.save(path)
        entry = json.loads(path.read_text())
        entry["key"].append(2)
        path.write_text(json.dumps(entry) + "\n")
        restored = ResultCache()
        report = restored.load(path, graph_version=graph.version)
        assert report == {"loaded": 0, "dropped": 1}
        assert len(restored) == 0

    def test_serve_cli_round_trips_snapshot(self, tmp_path):
        # End to end: one `repro serve` process snapshots on exit, the
        # next warm-starts from the file and answers from cache.
        import subprocess
        import sys

        snapshot = tmp_path / "serve-cache.ndjson"
        request = json.dumps({
            "type": "seed", "algorithm": "degree", "k": 3, "rng_seed": 1,
        }) + "\n"
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--dataset", "digg-like", "--max-samples", "400",
            "--mc-runs", "50", "--cache-file", str(snapshot),
        ]
        first = subprocess.run(
            cmd, input=request, capture_output=True, text=True, timeout=120,
        )
        assert first.returncode == 0, first.stderr
        assert json.loads(first.stdout.splitlines()[0])["selected"]
        assert "saved 1 entries" in first.stderr
        assert snapshot.exists()
        second = subprocess.run(
            cmd, input=request, capture_output=True, text=True, timeout=120,
        )
        assert second.returncode == 0, second.stderr
        assert "loaded 1, dropped 0 stale" in second.stderr
        first_answer = json.loads(first.stdout.splitlines()[0])
        second_answer = json.loads(second.stdout.splitlines()[0])
        assert first_answer == second_answer  # served from the snapshot
        summary = json.loads(second.stderr.splitlines()[-1])
        assert summary["cache"]["hits"] == 1
