"""Tests for the pipelined serving tier.

Covers the contracts the tier promises:

* **fingerprint stability** — identical across fresh sessions, worker
  counts, and cache on/off; sensitive to the graph's probabilities,
* **result cache** — hits return the same envelope at any worker count,
  LRU bounds hold, a graph mutation (``update_probabilities``)
  invalidates, snapshots with retired key shapes are dropped,
* **admission** — cost model ordering, reject/queue/caps,
  structured rejection envelopes,
* **overlapped run_many** — results bit-identical to the serial path,
  in input order, with non-seeded queries still consuming the ambient
  RNG in batch order,
* **serve front ends** — NDJSON line protocol and the HTTP endpoint.
"""

import io
import json
import threading
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

    def test_clear_keeps_counters(self, graph):
        cache = ResultCache()
        with Session(graph, budget=BUDGET, cache=cache) as session:
            session.run(QUERY)
            session.run(QUERY)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1


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
    QUERIES = [
        BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=s) for s in range(4)
    ] + [
        SeedQuery(algorithm="imm", k=3, rng_seed=11),
        EvalQuery(seeds=[1, 2], boost=[4], rng_seed=5),
    ]

    def test_matches_serial_path(self, graph):
        with Session(graph, budget=BUDGET) as session:
            serial = session.run_many(self.QUERIES, overlap=False)
        with Session(graph, budget=BUDGET) as session:
            overlapped = session.run_many(self.QUERIES)
        for a, b in zip(serial, overlapped):
            assert envelope_sans_timings(a) == envelope_sans_timings(b)

    def test_matches_serial_path_with_workers(self, graph):
        budget = SamplingBudget(max_samples=600, mc_runs=100, workers=2)
        queries = [
            BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=s, budget=budget)
            for s in range(3)
        ]
        with Session(graph) as session:
            serial = session.run_many(queries, overlap=False)
        with Session(graph) as session:
            overlapped = session.run_many(queries)
        for a, b in zip(serial, overlapped):
            assert envelope_sans_timings(a) == envelope_sans_timings(b)

    def test_ambient_rng_order_preserved(self, graph):
        # Non-seeded queries consume the ambient stream in batch order
        # whether or not seeded queries overlap around them.
        mixed = [
            BoostQuery(seeds=[1, 2], k=3, rng_seed=1),
            SeedQuery(algorithm="degree", k=3),
            BoostQuery(seeds=[1, 2], k=3, rng_seed=2),
            SeedQuery(algorithm="degree", k=4),
        ]
        with Session(graph, budget=BUDGET) as session:
            serial = session.run_many(
                mixed, rng=np.random.default_rng(9), overlap=False
            )
        with Session(graph, budget=BUDGET) as session:
            overlapped = session.run_many(
                mixed, rng=np.random.default_rng(9)
            )
        for a, b in zip(serial, overlapped):
            assert envelope_sans_timings(a) == envelope_sans_timings(b)

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
            reference = session.run_many(self.QUERIES[:3], overlap=False)
        with Session(graph, budget=BUDGET) as session:
            streamed = list(session.run_iter(self.QUERIES[:3]))
        for a, b in zip(reference, streamed):
            assert envelope_sans_timings(a) == envelope_sans_timings(b)


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
    """Queued-but-admitted work drains through the overlap lanes.

    ``run_many(overlap=True)`` no longer parks every queued query behind
    the whole admitted batch: seeded deferred queries are submitted to
    the lane pool as it drains, and only unseeded ones (which must
    consume the ambient RNG in batch order) stay at the serial tail.
    Either way the envelopes must match the serial reference run.
    """

    MIXED = [
        BoostQuery(seeds=[1, 2, 3], k=4, rng_seed=s) for s in range(3)
    ] + [SeedQuery(algorithm="imm", k=3, rng_seed=9)]

    def test_queued_seeded_envelopes_match_serial(self, graph):
        policy = AdmissionPolicy(queue_units=1.0)  # everything queues
        with Session(graph, budget=BUDGET, admission=policy) as session:
            serial = session.run_many(self.MIXED, overlap=False)
        with Session(graph, budget=BUDGET, admission=policy) as session:
            drained = session.run_many(self.MIXED)
        for a, b in zip(serial, drained):
            assert envelope_sans_timings(a) == envelope_sans_timings(b)

    def test_mixed_admit_and_queue_keeps_positions(self, graph):
        # Half the batch admits, half queues; positions and envelopes
        # are preserved regardless of which lane ran each query.
        light = SeedQuery(algorithm="degree", k=3, rng_seed=4)
        heavy = BoostQuery(
            seeds=[1, 2], k=3, rng_seed=5,
            budget=SamplingBudget(max_samples=600, mc_runs=100),
        )
        with Session(graph, budget=BUDGET) as session:
            cost = estimate_cost(session, heavy).units
        policy = AdmissionPolicy(queue_units=cost * 0.5)
        batch = [heavy, light, heavy, light]
        with Session(graph, budget=BUDGET, admission=policy) as session:
            serial = session.run_many(batch, overlap=False)
        with Session(graph, budget=BUDGET, admission=policy) as session:
            drained = session.run_many(batch)
        for a, b in zip(serial, drained):
            assert envelope_sans_timings(a) == envelope_sans_timings(b)

    def test_unseeded_queued_queries_stay_in_ambient_order(self, graph):
        policy = AdmissionPolicy(queue_units=1.0)
        mixed = [
            SeedQuery(algorithm="degree", k=3),
            BoostQuery(seeds=[1, 2], k=3, rng_seed=1),
            SeedQuery(algorithm="degree", k=4),
        ]
        with Session(graph, budget=BUDGET, admission=policy) as session:
            serial = session.run_many(
                mixed, rng=np.random.default_rng(3), overlap=False
            )
        with Session(graph, budget=BUDGET, admission=policy) as session:
            drained = session.run_many(mixed, rng=np.random.default_rng(3))
        for a, b in zip(serial, drained):
            assert envelope_sans_timings(a) == envelope_sans_timings(b)

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
