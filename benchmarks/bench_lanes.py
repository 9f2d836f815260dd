"""Micro-benchmark: lane kernels + shared-memory runtime vs the PR-2 paths.

Three sections, all on the repo's standard 10k-node / ~52k-edge
preferential-attachment graph with learned-like probabilities:

* **single_core** — samples/sec of the lane kernels
  (``rr_lane_csr`` / ``critical_lane_csr`` / ``sample_prr_lanes``)
  against the PR-2 engine's single-sample batch loops
  (``rr_members`` / ``critical_members`` / ``sample_prr_arena``), across
  three probability regimes.  The headline regime is mean p = 0.1 — the
  sparse-traversal regime of the paper's Flixster/Flickr datasets
  (avg p 0.058 / 0.013), where per-sample call overhead dominates and
  lanes shine.  The dense regime (mean p = 0.5, the paper's Twitter at
  0.608) is reported too: there traversals are array-bound, the RR lane
  path auto-falls back to its dense evaluator, and speedups are ~1x by
  design rather than silently unmeasured.
* **e2e_parallel** — wall-clock of full ``prr_boost`` runs with sampling
  dispatched to the persistent shared-memory runtime
  (``prr_boost(workers=...)``) vs the same algorithm built on the PR-2
  ``core/parallel`` path (serial ``sample_prr_arena`` loops; a fresh
  fork pool per sampling phase with pickled graph initargs and pickled
  payload results when workers > 1 — per-call pools are the only
  composition the old API offered).
* **scaling** — fixed-count ``parallel_prr_collection`` wall-clock by
  worker count, runtime vs legacy pool.  Near-linear scaling needs real
  cores; the JSON records ``hardware.cpu_count`` so single-core boxes
  (like CI) read as what they are.

Results land in ``BENCH_lanes.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_lanes.py [--smoke]

``--smoke`` shrinks the workload to a small graph, skips the JSON write,
and enforces the CI regression gate: each measured lane speedup must be
at least 70% of the committed ``smoke_baseline`` ratio (and at least
break even) — a >30% regression fails the run.  Speedup ratios compare
two arms on the same machine, so the gate transfers across hardware.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import time
from pathlib import Path

import numpy as np

from repro.core import prr_boost, sample_prr_arena, sample_prr_lanes
from repro.core.parallel import (
    fork_available,
    legacy_parallel_prr_collection,
    parallel_prr_collection,
    shutdown_runtime,
    _init_worker,
    _legacy_chunk_jobs,
    _worker_sample_graphs,
)
from repro.core.boost import PRRSampler, _validate
from repro.core.estimator import (
    collection_stats,
    estimate_delta,
    estimate_mu,
    greedy_delta_selection,
)
from repro.core.prr import PRRArena
from repro.engine import SamplingEngine
from repro.engine.coverage import CoverageIndex
from repro.graphs import learned_like, preferential_attachment
from repro.im.imm import imm_sampling

BENCH_SEED = 2017
RESULT_PATH = Path(__file__).parent.parent / "BENCH_lanes.json"

FULL = {
    "n_nodes": 10_000,
    "pa_out_degree": 4,  # ~52k edges
    "regimes": [0.05, 0.1, 0.5],
    "headline_regime": 0.1,
    "num_seeds": 20,
    "k": 5,
    "rr_samples": {0.05: 20_000, 0.1: 8_000, 0.5: 400},
    "critical_samples": {0.05: 8_000, 0.1: 4_000, 0.5: 400},
    "prr_samples": {0.05: 4_000, 0.1: 2_000, 0.5: 300},
    "e2e_max_samples": 4_000,
    "scaling_count": 4_096,
    "repeats": 3,
}
SMOKE = {
    "n_nodes": 2_000,
    "pa_out_degree": 3,
    "regimes": [0.1],
    "headline_regime": 0.1,
    "num_seeds": 10,
    "k": 3,
    "rr_samples": {0.1: 3_000},
    "critical_samples": {0.1: 1_500},
    "prr_samples": {0.1: 800},
    "e2e_max_samples": 1_000,
    "scaling_count": 0,  # skipped in smoke mode
    # Best-of-4 on both arms: the gate compares a same-machine speedup
    # ratio, and extra repeats keep scheduler jitter on shared CI runners
    # from moving the ratio anywhere near the 30% regression threshold.
    "repeats": 4,
}


def build_graph(cfg, mean_p):
    rng = np.random.default_rng(BENCH_SEED)
    return learned_like(
        preferential_attachment(cfg["n_nodes"], cfg["pa_out_degree"], rng),
        rng,
        mean_p,
    )


def top_degree_seeds(graph, count):
    return frozenset(np.argsort(graph.out_degrees())[-count:].tolist())


def best_seconds(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def rate_row(name, samples, loop_fn, lane_fn, repeats):
    loop_s = best_seconds(loop_fn, repeats)
    lane_s = best_seconds(lane_fn, repeats)
    row = {
        "samples": samples,
        "loop_per_sec": round(samples / loop_s, 1),
        "lane_per_sec": round(samples / lane_s, 1),
        "speedup": round(loop_s / lane_s, 2),
    }
    print(
        f"{name:>22}: loop {row['loop_per_sec']:>10.0f}/s"
        f" | lanes {row['lane_per_sec']:>10.0f}/s"
        f" | {row['speedup']:>6.2f}x"
    )
    return row


# ----------------------------------------------------------------------
# Single-core lane throughput
# ----------------------------------------------------------------------
def bench_single_core(cfg, results):
    out = {}
    for mean_p in cfg["regimes"]:
        graph = build_graph(cfg, mean_p)
        engine = SamplingEngine.for_graph(graph)
        seeds = top_degree_seeds(graph, cfg["num_seeds"])
        k = cfg["k"]
        regime = {}
        print(f"-- mean p {mean_p} (n={graph.n}, m={graph.m})")

        n_rr = cfg["rr_samples"][mean_p]

        def rr_loop():
            rng = np.random.default_rng(1)
            for _ in range(n_rr):
                engine.rr_members(rng, strict=False)

        def rr_lanes():
            engine.rr_lane_csr(np.random.default_rng(2), n_rr)

        regime["rr"] = rate_row("rr_sets", n_rr, rr_loop, rr_lanes, cfg["repeats"])

        n_crit = cfg["critical_samples"][mean_p]

        def crit_loop():
            rng = np.random.default_rng(3)
            for _ in range(n_crit):
                engine.critical_members(seeds, rng)

        def crit_lanes():
            engine.critical_lane_csr(seeds, np.random.default_rng(4), n_crit)

        regime["critical"] = rate_row(
            "critical_sets", n_crit, crit_loop, crit_lanes, cfg["repeats"]
        )

        n_prr = cfg["prr_samples"][mean_p]

        def prr_loop():
            sample_prr_arena(graph, seeds, k, np.random.default_rng(5), n_prr)

        def prr_lanes():
            sample_prr_lanes(graph, seeds, k, np.random.default_rng(6), n_prr)

        regime["prr_graphs"] = rate_row(
            "prr_graphs", n_prr, prr_loop, prr_lanes, cfg["repeats"]
        )
        out[f"p{mean_p}"] = regime
    results["single_core"] = out
    results["headline"] = out[f"p{cfg['headline_regime']}"]
    return out


# ----------------------------------------------------------------------
# E2E prr_boost: shared-memory runtime vs the PR-2 parallel path
# ----------------------------------------------------------------------
class _PR2PRRSampler:
    """PRR sampling exactly as PR 2 composed it: serial single-sample
    arena loops; when workers > 1, a fresh fork pool per sampling phase
    (pickled graph initargs, pickled arena payload results)."""

    def __init__(self, graph, seeds, k, workers):
        self.graph = graph
        self.seeds = frozenset(seeds)
        self.k = k
        self.n = graph.n
        self.arena = PRRArena(graph.n)
        self.workers = workers

    def sample_into(self, rng, count, index):
        start = len(self.arena)
        if self.workers > 1 and count >= 128 and fork_available():
            base = int(rng.integers(np.iinfo(np.int64).max))
            jobs = _legacy_chunk_jobs(count, base)
            ctx = mp.get_context("fork")
            with ctx.Pool(
                self.workers,
                initializer=_init_worker,
                initargs=(self.graph, self.seeds, self.k),
            ) as pool:
                parts = list(pool.imap_unordered(_worker_sample_graphs, jobs))
            parts.sort(key=lambda part: part[0])
            self.arena.extend_arena(
                PRRArena.from_payloads([p for _cid, p in parts])
            )
        else:
            sample_prr_arena(
                self.graph, self.seeds, self.k, rng, count, arena=self.arena
            )
        index.extend_csr(*self.arena.critical_csr(start))

    def sample(self, rng):
        self.sample_into(rng, 1, CoverageIndex(self.n))
        return self.arena.critical_frozenset(len(self.arena) - 1)


def _boost_run(graph, seeds, k, rng, max_samples, sampler):
    """Algorithm 2 with a pluggable sampler (selection identical across
    arms, so the timing difference is pure sampling/runtime)."""
    seed_set, candidates, k = _validate(graph, seeds, k)
    ell_prime = 1.0 * (1.0 + np.log(3.0) / np.log(max(graph.n, 2)))
    index = CoverageIndex(graph.n)
    imm_sampling(
        sampler, k, 0.5, ell_prime, rng, candidates=candidates,
        max_samples=max_samples, index=index,
    )
    arena = sampler.arena
    mu_set, _ = index.greedy(k, candidates)
    mu_estimate = estimate_mu(arena, graph.n, set(mu_set))
    delta_set, delta_estimate = greedy_delta_selection(arena, graph.n, k, candidates)
    mu_delta = estimate_delta(arena, graph.n, set(mu_set))
    chosen = mu_set if mu_delta >= delta_estimate else delta_set
    collection_stats(arena)
    return sorted(chosen)


def bench_e2e(cfg, results):
    mean_p = cfg["headline_regime"]
    graph = build_graph(cfg, mean_p)
    seeds = top_degree_seeds(graph, cfg["num_seeds"])
    k = cfg["k"]
    cap = cfg["e2e_max_samples"]
    hardware_workers = min(os.cpu_count() or 1, 8)
    out = {}
    for workers in sorted({1, 2, hardware_workers}):
        if workers > 1 and not fork_available():
            continue

        def legacy_run():
            sampler = _PR2PRRSampler(graph, seeds, k, workers)
            return _boost_run(
                graph, seeds, k, np.random.default_rng(7), cap, sampler
            )

        def runtime_run():
            return prr_boost(
                graph, seeds, k, np.random.default_rng(7),
                max_samples=cap, workers=workers,
            ).boost_set

        if workers > 1:
            runtime_run()  # warm the persistent pool (that is the point)
        legacy_s = best_seconds(legacy_run, cfg["repeats"])
        runtime_s = best_seconds(runtime_run, cfg["repeats"])
        row = {
            "legacy_seconds": round(legacy_s, 3),
            "runtime_seconds": round(runtime_s, 3),
            "speedup": round(legacy_s / runtime_s, 2),
        }
        out[f"workers{workers}"] = row
        print(
            f"  prr_boost e2e (workers={workers}): legacy {legacy_s:7.2f}s"
            f" | runtime {runtime_s:7.2f}s | {row['speedup']:5.2f}x"
        )
    results["e2e_parallel"] = {
        "regime": f"p{mean_p}",
        "max_samples": cap,
        **out,
    }
    return out


def bench_scaling(cfg, results):
    if not cfg["scaling_count"] or not fork_available():
        return
    mean_p = cfg["headline_regime"]
    graph = build_graph(cfg, mean_p)
    seeds = top_degree_seeds(graph, cfg["num_seeds"])
    k = cfg["k"]
    count = cfg["scaling_count"]
    rows = []
    for workers in (1, 2, 4, 8):
        runtime_s = best_seconds(
            lambda: parallel_prr_collection(
                graph, seeds, k, count, rng=1, workers=workers
            ),
            cfg["repeats"],
        )
        legacy_s = best_seconds(
            lambda: legacy_parallel_prr_collection(
                graph, seeds, k, count, master_seed=1, workers=workers
            ),
            cfg["repeats"],
        )
        rows.append(
            {
                "workers": workers,
                "runtime_seconds": round(runtime_s, 3),
                "legacy_seconds": round(legacy_s, 3),
                "speedup": round(legacy_s / runtime_s, 2),
            }
        )
        print(
            f"  prr_collection x{count} (workers={workers}):"
            f" legacy {legacy_s:7.2f}s | runtime {runtime_s:7.2f}s"
            f" | {rows[-1]['speedup']:5.2f}x"
        )
    results["scaling"] = {"count": count, "regime": f"p{mean_p}", "rows": rows}


# ----------------------------------------------------------------------
# Smoke regression gate
# ----------------------------------------------------------------------
_GATED = ("rr", "critical", "prr_graphs")


def check_smoke_regression(headline) -> int:
    if not RESULT_PATH.exists():
        print("no committed BENCH_lanes.json baseline; skipping gate")
        return 0
    baseline = json.loads(RESULT_PATH.read_text()).get("smoke_baseline")
    if not baseline:
        print("committed BENCH_lanes.json has no smoke_baseline; skipping gate")
        return 0
    failures = []
    for key in _GATED:
        measured = headline[key]["speedup"]
        floor = max(1.0, 0.7 * baseline[key])
        status = "ok" if measured >= floor else "REGRESSION"
        print(
            f"  gate {key}: measured {measured:.2f}x, baseline "
            f"{baseline[key]:.2f}x, floor {floor:.2f}x -> {status}"
        )
        if measured < floor:
            failures.append(key)
    if failures:
        print(f"SMOKE REGRESSION (> 30% below baseline): {failures}")
        return 1
    return 0


def run(smoke: bool = False):
    cfg = SMOKE if smoke else FULL
    results = {
        "config": {
            key: value
            for key, value in cfg.items()
            if not isinstance(value, dict)
        },
        "hardware": {"cpu_count": os.cpu_count(), "fork": fork_available()},
        "smoke": smoke,
    }
    single = bench_single_core(cfg, results)
    bench_e2e(cfg, results)
    bench_scaling(cfg, results)
    shutdown_runtime()
    headline = single[f"p{cfg['headline_regime']}"]
    if smoke:
        status = check_smoke_regression(headline)
        if status:
            # One retry before failing CI: on shared runners a noisy
            # neighbour can sink a whole measurement round; a genuine
            # regression fails both rounds.
            print("gate failed; re-measuring once before declaring a regression")
            retry = bench_single_core(cfg, {})[f"p{cfg['headline_regime']}"]
            for key in _GATED:
                if retry[key]["speedup"] > headline[key]["speedup"]:
                    headline[key] = retry[key]
            status = check_smoke_regression(headline)
        return results, status
    # The smoke-mode speedups measured on this machine become the
    # committed baseline the CI gate compares against.
    smoke_results, _ = run(smoke=True)  # type: ignore[misc]
    results["smoke_baseline"] = {
        key: smoke_results["single_core"][f"p{SMOKE['headline_regime']}"][key][
            "speedup"
        ]
        for key in _GATED
    }
    return results, 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small graph, no JSON write, fail on >30% speedup regression "
        "vs the committed baseline (CI mode)",
    )
    args = parser.parse_args()
    results, status = run(smoke=args.smoke)
    if not args.smoke and status == 0:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
