"""Micro-benchmark: warm-session vs cold per-call latency (`repro.api`).

Simulates the serving scenario the session API exists for: a stream of
*small repeated queries* against one graph.  Two arms answer the same
queries with the same RNG seeds:

* **warm** — one :class:`repro.api.Session` held open: the engine (CSR
  views, hash bases, thresholds, lane planes) is built once, selection
  scratch is recycled, every query pays only its own compute,
* **cold** — the per-call pattern the free functions had before the
  session API: each query rebuilds the `DiGraph` from its stored edge
  arrays and calls the legacy entry point, paying graph CSR construction
  + engine build (+ allocations) every time.

The headline *interactive mix* is the small-query traffic where cold
start dominates: IMM/SSA seed queries, PRR-Boost-LB, a Monte-Carlo
evaluation and a PageRank baseline query.  A larger ``prr_boost`` query
is reported alongside as the large-query reference — its sampling phase
dwarfs cold start by design, so its ratio is ~1x and shown, not hidden
(same policy as the dense regime in ``bench_lanes.py``).

Both arms must return **identical** selections/estimates (same seeds,
same streams) — asserted every round, so this benchmark doubles as an
end-to-end parity check of the wrapper == session contract.

Results land in ``BENCH_api.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_api.py [--smoke]

``--smoke`` shrinks the graph and repeat counts, skips the JSON write,
still asserts parity, and enforces the CI regression gate: the measured
interactive-mix speedup must be at least 70% of the committed
``smoke_baseline`` ratio (and at least the absolute 1.15x floor — the
1-CPU CI container is noisy).  A failing gate re-measures once before
declaring a regression, matching ``bench_lanes``/``bench_models``.  The
full run records its own smoke-config measurement as ``smoke_baseline``
in ``BENCH_api.json`` for future gates to compare against.
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
    SamplingBudget,
    SeedQuery,
    Session,
)
from repro.core import prr_boost, prr_boost_lb
from repro.diffusion import estimate_boost, estimate_sigma
from repro.graphs import DiGraph, learned_like, preferential_attachment
from repro.im import imm, ssa

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_api.json"

FULL = {
    "n_nodes": 20_000,
    "pa_out_degree": 5,
    "mean_p": 0.1,
    "rounds": 5,
    "seed_count": 10,
    "imm_samples": 256,
    "ssa_samples": 256,
    "lb_samples": 64,
    "boost_samples": 256,
    "mc_runs": 10,
    "min_speedup": 1.5,
}

SMOKE = {
    "n_nodes": 3_000,
    "pa_out_degree": 5,
    "mean_p": 0.1,
    "rounds": 3,
    "seed_count": 5,
    "imm_samples": 256,
    "ssa_samples": 256,
    "lb_samples": 64,
    "boost_samples": 64,
    "mc_runs": 10,
    "min_speedup": 1.15,
}


def build_graph(cfg) -> DiGraph:
    rng = np.random.default_rng(11)
    return learned_like(
        preferential_attachment(cfg["n_nodes"], cfg["pa_out_degree"], rng),
        rng,
        cfg["mean_p"],
    )


def make_workload(cfg, graph):
    """(name, query, cold_fn, interactive) rows; cold_fn(graph) must
    consume the same stream as the query under ``rng_seed`` and return
    the comparable selection/estimate for the parity assert."""
    seeds = tuple(
        int(v)
        for v in np.random.default_rng(2).choice(
            graph.n, size=cfg["seed_count"], replace=False
        )
    )
    k = 5

    def budget(**kw):
        return SamplingBudget(**kw)

    rows = [
        (
            "seed_imm",
            SeedQuery(k=k, algorithm="imm",
                      budget=budget(max_samples=cfg["imm_samples"]), rng_seed=0),
            lambda g: imm(g, k, np.random.default_rng(0),
                          max_samples=cfg["imm_samples"]).chosen,
            True,
        ),
        (
            "seed_ssa",
            SeedQuery(k=k, algorithm="ssa",
                      budget=budget(max_samples=cfg["ssa_samples"]), rng_seed=0),
            lambda g: ssa(g, k, np.random.default_rng(0),
                          max_samples=cfg["ssa_samples"]).chosen,
            True,
        ),
        (
            "prr_boost_lb",
            BoostQuery(seeds=seeds, k=k, algorithm="prr_boost_lb",
                       budget=budget(max_samples=cfg["lb_samples"]), rng_seed=0),
            lambda g: prr_boost_lb(g, set(seeds), k, np.random.default_rng(0),
                                   max_samples=cfg["lb_samples"]).boost_set,
            True,
        ),
        (
            "evaluate_boost",
            EvalQuery(seeds=seeds, boost=(1, 2, 3),
                      budget=budget(mc_runs=cfg["mc_runs"]), rng_seed=0),
            lambda g: {"boost": round(float(estimate_boost(
                g, set(seeds), {1, 2, 3}, np.random.default_rng(0),
                runs=cfg["mc_runs"])), 9)},
            True,
        ),
        (
            "evaluate_sigma",
            EvalQuery(seeds=seeds, boost=(1, 2, 3), metric="sigma",
                      budget=budget(mc_runs=cfg["mc_runs"]), rng_seed=0),
            lambda g: {"sigma": round(float(estimate_sigma(
                g, set(seeds), {1, 2, 3}, np.random.default_rng(0),
                runs=cfg["mc_runs"])), 9)},
            True,
        ),
        (
            "pagerank",
            BoostQuery(seeds=seeds, k=k, algorithm="pagerank",
                       params={"evaluate": False}, rng_seed=0),
            None,  # cold arm runs the same query on a throwaway session
            True,
        ),
        (
            "prr_boost (reference)",
            BoostQuery(seeds=seeds, k=k, algorithm="prr_boost",
                       budget=budget(max_samples=cfg["boost_samples"]),
                       rng_seed=0),
            lambda g: prr_boost(g, set(seeds), k, np.random.default_rng(0),
                                max_samples=cfg["boost_samples"]).boost_set,
            False,
        ),
    ]
    return rows


def _result_key(result):
    """Comparable payload of a warm QueryResult (selection or estimate)."""
    if result.selected:
        return list(result.selected)
    return {k: round(v, 9) for k, v in result.estimates.items()}


def _cold_key(value):
    """Cold-arm return values are already comparable (list or dict)."""
    return list(value) if isinstance(value, list) else value


def run(smoke: bool = False) -> dict:
    cfg = SMOKE if smoke else FULL
    base = build_graph(cfg)
    src, dst, p, pp = base.edge_arrays()

    def clone() -> DiGraph:
        # A fresh DiGraph re-sorts both CSRs and leaves the engine cache
        # empty — exactly the state a per-call server would start from.
        return DiGraph(base.n, src, dst, p, pp)

    workload = make_workload(cfg, base)
    warm_times = {name: [] for name, *_ in workload}
    cold_times = {name: [] for name, *_ in workload}

    session = Session(base)
    # Interleave warm/cold rounds so machine noise hits both arms alike.
    for _ in range(cfg["rounds"]):
        for name, query, cold_fn, _interactive in workload:
            t0 = time.perf_counter()
            warm_result = session.run(query)
            warm_times[name].append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            graph = clone()
            if cold_fn is None:
                with Session(graph, manage_runtime=False) as throwaway:
                    cold_value = _result_key(throwaway.run(query))
            else:
                cold_value = _cold_key(cold_fn(graph))
            cold_times[name].append(time.perf_counter() - t0)

            assert _result_key(warm_result) == cold_value, (
                f"warm/cold mismatch for {name}: "
                f"{_result_key(warm_result)} != {cold_value}"
            )
    session.close()

    rows = {}
    interactive_warm = interactive_cold = 0.0
    interactive_count = sum(1 for *_rest, interactive in workload if interactive)
    for name, _query, _cold_fn, interactive in workload:
        # Best-of-rounds, the methodology of bench_engine/bench_lanes:
        # the floor is the honest cost, the tail is container noise.
        warm_ms = min(warm_times[name]) * 1000
        cold_ms = min(cold_times[name]) * 1000
        rows[name] = {
            "warm_ms": round(warm_ms, 3),
            "cold_ms": round(cold_ms, 3),
            "speedup": round(cold_ms / warm_ms, 3),
            "interactive": interactive,
        }
        if interactive:
            interactive_warm += warm_ms
            interactive_cold += cold_ms

    aggregate = interactive_cold / interactive_warm
    results = {
        "description": (
            "Per-query latency of repeated small queries: one warm Session "
            "vs per-call graph+engine rebuild (legacy free functions). "
            "'interactive' rows form the headline aggregate; the prr_boost "
            "reference row is sampling-bound by design."
        ),
        "smoke": smoke,
        "config": cfg,
        "graph": {"n": base.n, "m": base.m},
        "hardware": {"cpu_count": os.cpu_count()},
        "queries": rows,
        "interactive_mix": {
            "warm_ms_per_query": round(interactive_warm / interactive_count, 3),
            "cold_ms_per_query": round(interactive_cold / interactive_count, 3),
            "speedup": round(aggregate, 3),
        },
    }

    print(f"graph: n={base.n} m={base.m}  rounds={cfg['rounds']}")
    for name, row in rows.items():
        tag = "" if row["interactive"] else "  [reference]"
        print(
            f"  {name:22s} warm {row['warm_ms']:8.1f} ms   "
            f"cold {row['cold_ms']:8.1f} ms   {row['speedup']:.2f}x{tag}"
        )
    print(
        f"  interactive mix: {results['interactive_mix']['speedup']:.2f}x "
        f"({results['interactive_mix']['cold_ms_per_query']:.1f} ms -> "
        f"{results['interactive_mix']['warm_ms_per_query']:.1f} ms per query)"
    )

    floor = cfg["min_speedup"]
    assert aggregate >= floor, (
        f"warm-session speedup regressed: {aggregate:.2f}x < {floor}x"
    )
    return results


def check_smoke_regression(results) -> int:
    """Gate the measured interactive-mix speedup against the committed
    ``smoke_baseline`` (>= 70% of it, never below break-even)."""
    if not RESULT_PATH.exists():
        print("FAIL: no committed BENCH_api.json baseline to gate against")
        return 1
    baseline = json.loads(RESULT_PATH.read_text()).get("smoke_baseline")
    if not baseline:
        print("FAIL: committed BENCH_api.json has no smoke_baseline to gate against")
        return 1
    measured = results["interactive_mix"]["speedup"]
    reference = baseline["interactive_mix"]
    floor = max(1.0, 0.7 * reference)
    status = "ok" if measured >= floor else "REGRESSION"
    print(
        f"  gate interactive_mix: measured {measured:.2f}x, baseline "
        f"{reference:.2f}x, floor {floor:.2f}x -> {status}"
    )
    if measured < floor:
        print("SMOKE REGRESSION (> 30% below baseline): interactive_mix")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI: asserts parity, gates the speedup "
             "against the committed smoke_baseline, skips the JSON write",
    )
    args = parser.parse_args()
    results = run(smoke=args.smoke)
    if args.smoke:
        status = check_smoke_regression(results)
        if status:
            # One retry before failing CI: on shared runners a noisy
            # neighbour can sink a whole measurement round; a genuine
            # regression fails both rounds.
            print("gate failed; re-measuring once before declaring a regression")
            retry = run(smoke=True)
            better = retry["interactive_mix"]["speedup"]
            if better > results["interactive_mix"]["speedup"]:
                results = retry
            status = check_smoke_regression(results)
        return status
    # The smoke-config measurement on this machine becomes the committed
    # baseline the CI gate compares against.
    smoke_results = run(smoke=True)
    results["smoke_baseline"] = {
        "interactive_mix": smoke_results["interactive_mix"]["speedup"]
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
