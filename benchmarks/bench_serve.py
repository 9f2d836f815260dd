"""Benchmark: sustained serving throughput of the pipelined tier.

Simulates the traffic the serving tier exists for — a warm session
answering a **mixed stream of repeated queries** (boost selection, seed
selection, Monte-Carlo evaluation) — and measures three things:

* **cached stream** — the stream arrives in rounds (every distinct query
  repeats once per round); the serving configuration (result cache on,
  overlapped ``run_many``) is timed against the PR-5 baseline (serial
  warm ``run_many``, no cache) over the *same* stream.  Cache hits are
  near-free, so sustained throughput multiplies with the repeat factor.
* **pipelined cold batch** — one batch of *distinct* seeded queries,
  cache off: overlapped ``run_many`` (lane threads sharing the
  shared-memory worker pool through tag-multiplexed submits) vs the
  serial loop, at each worker count.  This isolates the pipelining win:
  one query's selection phase runs while the others' sampling chunks
  occupy the pool.
* **envelope identity** — at every worker count, the cached, cache-hit
  and uncached runs of the same queries must produce identical envelopes
  (minus timings), and fingerprints must be identical *across* worker
  counts; both are asserted, so the benchmark doubles as the serving
  tier's end-to-end determinism check.

Results land in ``BENCH_serve.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]

``--smoke`` shrinks the workload and enforces the CI regression gate on
the cached-stream speedup: at least 70% of the committed
``smoke_baseline`` (and never below break-even), with one re-measure
before declaring a regression — the ``bench_lanes``/``bench_models``
pattern.  The pipelined-batch ratios are reported ungated in smoke mode
and on single-core hosts (overlap reclaims idle wait; a single core has
none to reclaim, so the ratio only measures contention); on multicore
hardware the full run asserts >= 1.5x at workers=2.  The full run's
committed numbers are the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.api import (
    BoostQuery,
    EvalQuery,
    ResultCache,
    SamplingBudget,
    SeedQuery,
    Session,
)
from repro.graphs import DiGraph, learned_like, preferential_attachment

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

FULL = {
    "n_nodes": 20_000,
    "pa_out_degree": 5,
    "mean_p": 0.1,
    "boost_samples": 2000,
    "seed_samples": 1024,
    "mc_runs": 20,
    "seed_count": 10,
    "rounds": 5,          # repeat factor of the cached stream
    "batch_repeats": 3,   # best-of repeats for the cold-batch arms
    "worker_counts": (1, 2, 4),
    "min_cache_speedup": 3.0,
    "min_pipeline_speedup_w2": 1.5,
}

SMOKE = {
    "n_nodes": 3_000,
    "pa_out_degree": 5,
    "mean_p": 0.1,
    "boost_samples": 512,
    "seed_samples": 512,
    "mc_runs": 10,
    "seed_count": 5,
    "rounds": 4,
    "batch_repeats": 2,
    "worker_counts": (1, 2),
    "min_cache_speedup": 1.5,   # absolute floor; the baseline gate is primary
    "min_pipeline_speedup_w2": None,  # reported, not gated, in smoke
}


def build_graph(cfg) -> DiGraph:
    rng = np.random.default_rng(11)
    return learned_like(
        preferential_attachment(cfg["n_nodes"], cfg["pa_out_degree"], rng),
        rng,
        cfg["mean_p"],
    )


def make_distinct_queries(cfg, graph, workers=None):
    """The distinct mixed workload: boost + seed + eval, all seeded.

    Every query carries an explicit ``rng_seed`` (the cacheable,
    overlappable form interactive clients send) and the given worker
    count in its budget.
    """
    seeds = tuple(
        int(v)
        for v in np.random.default_rng(2).choice(
            graph.n, size=cfg["seed_count"], replace=False
        )
    )
    boost_budget = SamplingBudget(
        max_samples=cfg["boost_samples"], workers=workers
    )
    seed_budget = SamplingBudget(
        max_samples=cfg["seed_samples"], workers=workers
    )
    mc_budget = SamplingBudget(mc_runs=cfg["mc_runs"], workers=workers)
    return [
        BoostQuery(seeds=seeds, k=5, algorithm="prr_boost_lb",
                   budget=boost_budget, rng_seed=1),
        SeedQuery(k=5, algorithm="imm", budget=seed_budget, rng_seed=2),
        BoostQuery(seeds=seeds, k=8, algorithm="prr_boost_lb",
                   budget=boost_budget, rng_seed=3),
        EvalQuery(seeds=seeds, boost=(1, 2, 3), budget=mc_budget, rng_seed=4),
        SeedQuery(k=8, algorithm="ssa", budget=seed_budget, rng_seed=5),
        BoostQuery(seeds=seeds, k=5, algorithm="prr_boost_lb",
                   budget=boost_budget, rng_seed=6),
        EvalQuery(seeds=seeds, boost=(4, 5), metric="sigma",
                  budget=mc_budget, rng_seed=7),
        SeedQuery(k=5, algorithm="imm", budget=seed_budget, rng_seed=8),
    ]


def envelope_key(result):
    data = result.to_dict()
    data.pop("timings")
    return data


def time_stream(graph, queries, rounds, *, cache, overlap):
    """Seconds to answer ``rounds`` repetitions of ``queries`` on one
    warm session; returns (seconds, session stats)."""
    with Session(graph, cache=cache) as session:
        session.ensure_runtime(session._effective_workers(queries))
        start = time.perf_counter()
        for _ in range(rounds):
            session.run_many(queries, overlap=overlap)
        elapsed = time.perf_counter() - start
        stats = session.stats()
    return elapsed, stats


def time_cold_batch(graph, queries, repeats, *, overlap):
    """Best-of-``repeats`` seconds for one cache-off batch (cold cache,
    warm engine/pool — the sustained-serving shape)."""
    best = float("inf")
    with Session(graph) as session:
        session.ensure_runtime(session._effective_workers(queries))
        for _ in range(repeats):
            start = time.perf_counter()
            session.run_many(queries, overlap=overlap)
            best = min(best, time.perf_counter() - start)
    return best


def check_identity(graph, cfg):
    """Assert the envelope-identity contract; returns the check summary.

    For every worker count: uncached, cached-miss and cached-hit runs of
    the same queries are envelope-identical (minus timings).  Across
    worker counts: fingerprints are identical (workers are an execution
    hint, not query identity).
    """
    fingerprints_by_workers = {}
    for workers in cfg["worker_counts"]:
        queries = make_distinct_queries(cfg, graph, workers=workers)
        with Session(graph) as session:
            uncached = [envelope_key(r) for r in session.run_many(queries)]
        with Session(graph, cache=ResultCache()) as session:
            first = [envelope_key(r) for r in session.run_many(queries)]
            second = [envelope_key(r) for r in session.run_many(queries)]
            hits = session.cache.hits
        assert uncached == first == second, (
            f"cached vs uncached envelopes differ at workers={workers}"
        )
        assert hits >= len(queries), (
            f"second round should be all cache hits at workers={workers}"
        )
        fingerprints_by_workers[workers] = [e["fingerprint"] for e in first]
    reference = next(iter(fingerprints_by_workers.values()))
    for workers, fingerprints in fingerprints_by_workers.items():
        assert fingerprints == reference, (
            f"fingerprints changed with worker count {workers}"
        )
    return {
        "cached_equals_uncached": True,
        "fingerprints_stable_across_workers": True,
        "worker_counts": list(cfg["worker_counts"]),
    }


def run(smoke: bool = False) -> dict:
    cfg = SMOKE if smoke else FULL
    graph = build_graph(cfg)
    print(f"graph: n={graph.n} m={graph.m}")

    identity = check_identity(graph, cfg)
    print("  envelope identity: cached == uncached at every worker count; "
          "fingerprints worker-independent")

    # --- sustained mixed stream: serving config vs PR-5 serial baseline
    stream_queries = make_distinct_queries(cfg, graph, workers=None)
    serial_s, _ = time_stream(
        graph, stream_queries, cfg["rounds"], cache=None, overlap=False
    )
    cached_s, cached_stats = time_stream(
        graph, stream_queries, cfg["rounds"], cache=ResultCache(),
        overlap=True,
    )
    total_queries = cfg["rounds"] * len(stream_queries)
    cache_speedup = serial_s / cached_s
    stream = {
        "distinct_queries": len(stream_queries),
        "rounds": cfg["rounds"],
        "total_queries": total_queries,
        "serial_s": round(serial_s, 4),
        "serving_s": round(cached_s, 4),
        "serial_qps": round(total_queries / serial_s, 2),
        "serving_qps": round(total_queries / cached_s, 2),
        "speedup": round(cache_speedup, 3),
        "cache": cached_stats.get("cache"),
    }
    print(
        f"  mixed stream x{cfg['rounds']}: serial {serial_s:.2f}s "
        f"({stream['serial_qps']:.1f} q/s) -> serving {cached_s:.2f}s "
        f"({stream['serving_qps']:.1f} q/s)  {cache_speedup:.2f}x"
    )

    # --- pipelined cold batch per worker count (cache off)
    pipelined = {}
    for workers in cfg["worker_counts"]:
        queries = make_distinct_queries(cfg, graph, workers=workers)
        serial_batch = time_cold_batch(
            graph, queries, cfg["batch_repeats"], overlap=False
        )
        overlap_batch = time_cold_batch(
            graph, queries, cfg["batch_repeats"], overlap=True
        )
        ratio = serial_batch / overlap_batch
        pipelined[f"workers_{workers}"] = {
            "serial_s": round(serial_batch, 4),
            "overlapped_s": round(overlap_batch, 4),
            "speedup": round(ratio, 3),
        }
        print(
            f"  cold batch workers={workers}: serial {serial_batch:.2f}s "
            f"-> overlapped {overlap_batch:.2f}s  {ratio:.2f}x"
        )

    results = {
        "description": (
            "Sustained serving throughput of the pipelined tier: a warm "
            "session answering a mixed repeated query stream with the "
            "result cache + overlapped run_many, vs the serial warm "
            "run_many baseline; plus the cache-off pipelining win per "
            "worker count, and the envelope-identity determinism check."
        ),
        "smoke": smoke,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in cfg.items()},
        "graph": {"n": graph.n, "m": graph.m},
        "hardware": {"cpu_count": os.cpu_count()},
        "stream": stream,
        "pipelined_cold_batch": pipelined,
        "identity": identity,
    }

    floor = cfg["min_cache_speedup"]
    assert cache_speedup >= floor, (
        f"cached-stream speedup regressed: {cache_speedup:.2f}x < {floor}x"
    )
    gate_w2 = cfg["min_pipeline_speedup_w2"]
    cores = os.cpu_count() or 1
    if gate_w2 is not None and "workers_2" in pipelined:
        measured = pipelined["workers_2"]["speedup"]
        if cores >= 2:
            assert measured >= gate_w2, (
                f"pipelined cold batch at workers=2 regressed: "
                f"{measured:.2f}x < {gate_w2}x"
            )
        else:
            # Overlap trades idle wait for concurrency; on a single core
            # there is no idle wait to reclaim, so the ratio only
            # measures contention overhead.  Record it, don't gate it.
            print(
                f"  (single-core host: workers=2 pipelining ratio "
                f"{measured:.2f}x recorded ungated — the >= {gate_w2}x "
                f"gate needs >= 2 cores)"
            )
    return results


def check_smoke_regression(results) -> int:
    """Gate the measured cached-stream speedup against the committed
    ``smoke_baseline`` (>= 70% of it, never below break-even)."""
    if not RESULT_PATH.exists():
        print("FAIL: no committed BENCH_serve.json baseline to gate against")
        return 1
    baseline = json.loads(RESULT_PATH.read_text()).get("smoke_baseline")
    if not baseline:
        print("FAIL: committed BENCH_serve.json has no smoke_baseline to gate against")
        return 1
    measured = results["stream"]["speedup"]
    reference = baseline["stream_speedup"]
    floor = max(1.0, 0.7 * reference)
    status = "ok" if measured >= floor else "REGRESSION"
    print(
        f"  gate stream: measured {measured:.2f}x, baseline "
        f"{reference:.2f}x, floor {floor:.2f}x -> {status}"
    )
    if measured < floor:
        print("SMOKE REGRESSION (> 30% below baseline): stream")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI: asserts envelope identity, gates the "
             "cached-stream speedup vs the committed baseline, skips the "
             "JSON write",
    )
    args = parser.parse_args()
    results = run(smoke=args.smoke)
    if args.smoke:
        status = check_smoke_regression(results)
        if status:
            # One retry before failing CI (noisy shared runners).
            print("gate failed; re-measuring once before declaring a regression")
            retry = run(smoke=True)
            if retry["stream"]["speedup"] > results["stream"]["speedup"]:
                results = retry
            status = check_smoke_regression(results)
        return status
    # The smoke-config measurement on this machine becomes the committed
    # baseline the CI gate compares against.
    smoke_results = run(smoke=True)
    results["smoke_baseline"] = {
        "stream_speedup": smoke_results["stream"]["speedup"]
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
