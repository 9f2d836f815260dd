"""Micro-benchmark: vectorized DP-Boost vs the pinned loop oracle.

One row per tree size of the Figure-15 sweep (complete binary bidirected
trees, trivalency probabilities, IMM seeds) at the paper's finest
accuracy setting ε = 0.2: wall-clock of :func:`repro.trees.dp_boost`'s
level-batched numpy kernels against ``legacy_dp_boost`` — the exact loop
implementation the kernels replaced, kept verbatim in
:mod:`repro.trees.reference` as a seeded oracle.

Arms are *interleaved* (legacy, vectorized, legacy, ...) and each side
keeps its best of ``repeats`` rounds, so scheduler noise hits both arms
symmetrically and the reported ratio is a same-machine comparison.
Every timed round also asserts parity: identical boost sets and DP
values, boosts within 1e-9 — the two paths are bit-identical by
construction (same IEEE expression sequences), so any drift is a bug,
not noise.

Results land in ``BENCH_trees.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_trees.py [--smoke]

``--smoke`` shrinks the workload to tiny trees and enforces the CI
regression gate: each measured speedup must be at least 70% of the
committed ``smoke_baseline`` ratio (and at least break even) — a >30%
regression fails the run, with one re-measure before declaring failure.
The full run additionally asserts the aggregate sweep speedup (total
legacy seconds over total vectorized seconds) is at least 5x.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.experiments.trees_exp import make_tree_workload
from repro.trees.dp import dp_boost
from repro.trees.reference import legacy_dp_boost

BENCH_SEED = 2017
RESULT_PATH = Path(__file__).parent.parent / "BENCH_trees.json"

FULL = {
    # The Figure-15 size sweep at the paper's finest accuracy setting.
    "sizes": (127, 255, 511),
    "num_seeds": 10,
    "k": 10,
    "epsilon": 0.2,
    "repeats": 4,
    "min_aggregate_speedup": 5.0,
}
SMOKE = {
    "sizes": (63, 127),
    "num_seeds": 5,
    "k": 5,
    "epsilon": 0.2,
    # Best-of-4 on both arms: the gate compares a same-machine speedup
    # ratio, and extra repeats keep scheduler jitter on shared CI runners
    # from moving the ratio anywhere near the 30% regression threshold.
    "repeats": 4,
}


def _assert_parity(n, legacy_res, vec_res) -> None:
    assert vec_res.boost_set == legacy_res.boost_set, (
        f"n={n}: selection mismatch {vec_res.boost_set} vs {legacy_res.boost_set}"
    )
    assert vec_res.dp_value == legacy_res.dp_value, (
        f"n={n}: dp_value mismatch {vec_res.dp_value} vs {legacy_res.dp_value}"
    )
    assert abs(vec_res.boost - legacy_res.boost) <= 1e-9, (
        f"n={n}: boost mismatch {vec_res.boost} vs {legacy_res.boost}"
    )


def bench_trees(cfg, results):
    k, eps = cfg["k"], cfg["epsilon"]
    out = {}
    total_legacy = total_vec = 0.0
    for n in cfg["sizes"]:
        tree = make_tree_workload(
            n, cfg["num_seeds"], np.random.default_rng(BENCH_SEED)
        )
        best_legacy = best_vec = float("inf")
        for _ in range(cfg["repeats"]):
            start = time.perf_counter()
            legacy_res = legacy_dp_boost(tree, k, epsilon=eps)
            best_legacy = min(best_legacy, time.perf_counter() - start)
            start = time.perf_counter()
            vec_res = dp_boost(tree, k, epsilon=eps)
            best_vec = min(best_vec, time.perf_counter() - start)
            _assert_parity(n, legacy_res, vec_res)
        total_legacy += best_legacy
        total_vec += best_vec
        row = {
            "k": k,
            "epsilon": eps,
            "boost": round(float(vec_res.boost), 6),
            "table_entries": int(vec_res.table_entries),
            "legacy_s": round(best_legacy, 4),
            "vectorized_s": round(best_vec, 4),
            "speedup": round(best_legacy / best_vec, 2),
        }
        out[str(n)] = row
        print(
            f"n={n:>4}: legacy {row['legacy_s']:>7.3f}s"
            f" | vectorized {row['vectorized_s']:>7.3f}s"
            f" | {row['speedup']:>6.2f}x  (parity ok)"
        )
    aggregate = total_legacy / total_vec
    out["aggregate_speedup"] = round(aggregate, 2)
    print(f"aggregate sweep speedup: {aggregate:.2f}x")
    results["trees"] = out
    return out


def check_smoke_regression(trees, cfg) -> int:
    if not RESULT_PATH.exists():
        print("FAIL: no committed BENCH_trees.json baseline to gate against")
        return 1
    baseline = json.loads(RESULT_PATH.read_text()).get("smoke_baseline")
    if not baseline:
        print("FAIL: committed BENCH_trees.json has no smoke_baseline to gate against")
        return 1
    failures = []
    for n in cfg["sizes"]:
        key = str(n)
        if key not in baseline:
            continue
        measured = trees[key]["speedup"]
        floor = max(1.0, 0.7 * baseline[key])
        status = "ok" if measured >= floor else "REGRESSION"
        print(
            f"  gate n={key}: measured {measured:.2f}x, baseline "
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
        "config": {key: list(v) if isinstance(v, tuple) else v
                   for key, v in cfg.items()},
        "hardware": {"cpu_count": os.cpu_count()},
        "smoke": smoke,
    }
    trees = bench_trees(cfg, results)
    if smoke:
        status = check_smoke_regression(trees, cfg)
        if status:
            # One retry before failing CI: on shared runners a noisy
            # neighbour can sink a whole measurement round; a genuine
            # regression fails both rounds.
            print("gate failed; re-measuring once before declaring a regression")
            retry = bench_trees(cfg, {})
            for n in cfg["sizes"]:
                key = str(n)
                if retry[key]["speedup"] > trees[key]["speedup"]:
                    trees[key] = retry[key]
            status = check_smoke_regression(trees, cfg)
        return results, status
    aggregate = trees["aggregate_speedup"]
    if aggregate < cfg["min_aggregate_speedup"]:
        print(
            f"FAIL: aggregate sweep speedup {aggregate:.2f}x below the "
            f"required {cfg['min_aggregate_speedup']:.1f}x"
        )
        return results, 1
    # The smoke-mode speedups measured on this machine become the
    # committed baseline the CI gate compares against.
    smoke_results, _ = run(smoke=True)
    results["smoke_baseline"] = {
        str(n): smoke_results["trees"][str(n)]["speedup"]
        for n in SMOKE["sizes"]
    }
    return results, 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny trees, no JSON write, fail on >30% speedup regression "
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
