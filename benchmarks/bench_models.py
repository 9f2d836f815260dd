"""Micro-benchmark: the pluggable diffusion-model layer vs the legacy loops.

One row per registered diffusion model (incoming-boost IC, outgoing-boost
IC, boosted LT) on the repo's standard 10k-node / ~52k-edge
preferential-attachment graph: wall-clock of ``runs`` Monte-Carlo
cascades through the engine path ``model=`` dispatches to — the cascade
lane kernels of :mod:`repro.engine.lanes` for ``ic_out``/``lt``, the
per-world vectorized batch for the default ``ic`` — against the retained
pure-Python per-node loops of :mod:`repro.engine.reference` (the exact
code the engine replaced, kept as seeded oracles).

Arms are *interleaved* (loop, engine, loop, engine, ...) and each side
keeps its best of ``repeats`` rounds, so scheduler noise hits both arms
symmetrically and the reported ratio is a same-machine comparison.

Results land in ``BENCH_models.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_models.py [--smoke]

``--smoke`` shrinks the workload to a small graph and enforces the CI
regression gate: the measured ``ic_out``/``lt`` speedups must be at
least 70% of the committed ``smoke_baseline`` ratio (and at least break
even) — a >30% regression fails the run, with one re-measure before
declaring failure.  Speedup ratios compare two arms on the same machine,
so the gate transfers across hardware.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.diffusion import normalize_lt_weights
from repro.engine import SamplingEngine
from repro.engine.reference import (
    reference_simulate_lt_spread,
    reference_simulate_spread,
    reference_simulate_spread_outgoing,
)
from repro.graphs import learned_like, preferential_attachment

BENCH_SEED = 2017
RESULT_PATH = Path(__file__).parent.parent / "BENCH_models.json"

FULL = {
    "n_nodes": 10_000,
    "pa_out_degree": 4,  # ~52k edges
    "mean_p": 0.1,
    "num_seeds": 20,
    "num_boosts": 50,
    "sim_runs": 300,
    "repeats": 4,
}
SMOKE = {
    "n_nodes": 2_000,
    "pa_out_degree": 3,
    "mean_p": 0.1,
    "num_seeds": 10,
    "num_boosts": 25,
    "sim_runs": 100,
    # Best-of-4 on both arms: the gate compares a same-machine speedup
    # ratio, and extra repeats keep scheduler jitter on shared CI runners
    # from moving the ratio anywhere near the 30% regression threshold.
    "repeats": 4,
}

_LOOPS = {
    "ic": reference_simulate_spread,
    "ic_out": reference_simulate_spread_outgoing,
    "lt": reference_simulate_lt_spread,
}
_GATED = ("ic_out", "lt")


def build_graph(cfg):
    rng = np.random.default_rng(BENCH_SEED)
    return learned_like(
        preferential_attachment(cfg["n_nodes"], cfg["pa_out_degree"], rng),
        rng,
        cfg["mean_p"],
    )


def interleaved_best(loop_fn, engine_fn, repeats):
    """Best-of-``repeats`` seconds per arm, rounds interleaved."""
    best_loop = best_engine = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        loop_fn()
        best_loop = min(best_loop, time.perf_counter() - start)
        start = time.perf_counter()
        engine_fn()
        best_engine = min(best_engine, time.perf_counter() - start)
    return best_loop, best_engine


def bench_models(cfg, results):
    base_graph = build_graph(cfg)
    degrees = np.argsort(base_graph.out_degrees())
    seeds = frozenset(degrees[-cfg["num_seeds"] :].tolist())
    boost = frozenset(
        degrees[-(cfg["num_seeds"] + cfg["num_boosts"]) : -cfg["num_seeds"]].tolist()
    )
    runs = cfg["sim_runs"]
    out = {}
    for model in ("ic", "ic_out", "lt"):
        # Both arms run on the model's own graph view (LT normalizes).
        graph = normalize_lt_weights(base_graph) if model == "lt" else base_graph
        engine = SamplingEngine.for_graph(graph)
        loop = _LOOPS[model]

        def loop_arm():
            rng = np.random.default_rng(1)
            for _ in range(runs):
                loop(graph, seeds, boost, rng)

        def engine_arm():
            engine.simulate_batch(
                seeds, boost, np.random.default_rng(2), runs, model=model
            )

        loop_s, engine_s = interleaved_best(loop_arm, engine_arm, cfg["repeats"])
        row = {
            "runs": runs,
            "loop_per_sec": round(runs / loop_s, 1),
            "engine_per_sec": round(runs / engine_s, 1),
            "speedup": round(loop_s / engine_s, 2),
        }
        out[model] = row
        print(
            f"{model:>8}: loop {row['loop_per_sec']:>9.0f}/s"
            f" | engine {row['engine_per_sec']:>9.0f}/s"
            f" | {row['speedup']:>6.2f}x"
        )
    results["models"] = out
    return out


def check_smoke_regression(models) -> int:
    if not RESULT_PATH.exists():
        print("FAIL: no committed BENCH_models.json baseline to gate against")
        return 1
    baseline = json.loads(RESULT_PATH.read_text()).get("smoke_baseline")
    if not baseline:
        print("FAIL: committed BENCH_models.json has no smoke_baseline to gate against")
        return 1
    failures = []
    for key in _GATED:
        measured = models[key]["speedup"]
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
        "config": dict(cfg),
        "hardware": {"cpu_count": os.cpu_count()},
        "smoke": smoke,
    }
    models = bench_models(cfg, results)
    if smoke:
        status = check_smoke_regression(models)
        if status:
            # One retry before failing CI: on shared runners a noisy
            # neighbour can sink a whole measurement round; a genuine
            # regression fails both rounds.
            print("gate failed; re-measuring once before declaring a regression")
            retry = bench_models(cfg, {})
            for key in _GATED:
                if retry[key]["speedup"] > models[key]["speedup"]:
                    models[key] = retry[key]
            status = check_smoke_regression(models)
        return results, status
    # The smoke-mode speedups measured on this machine become the
    # committed baseline the CI gate compares against.
    smoke_results, _ = run(smoke=True)
    results["smoke_baseline"] = {
        key: smoke_results["models"][key]["speedup"] for key in _GATED
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
