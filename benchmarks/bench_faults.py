"""Benchmark: recovery of the fault-tolerant runtime from a worker kill.

One host of the supervised local pool (:mod:`repro.core.parallel`) is
killed mid-run via the deterministic fault hooks
(:mod:`repro.testing.faults`).  The wall-clock of the recovered run is
compared to the fault-free run of the same collection, and the run is
checked: every array of the merged payload is bit-identical to the
serial path, the runtime reports ``restarts >= 1`` and is not degraded,
and no host process is alive after ``shutdown_runtime()``.

Results land in ``BENCH_faults.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_faults.py [--smoke]

``--smoke`` shrinks the workload and skips the JSON write; the checks
run in both modes.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import time
from pathlib import Path

import numpy as np

from repro.core.parallel import (
    get_runtime,
    parallel_prr_collection,
    runtime_health,
    shutdown_runtime,
)
from repro.graphs import DiGraph, learned_like, preferential_attachment
from repro.testing import faults

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

FULL = {
    "n_nodes": 10_000,
    "pa_out_degree": 5,
    "mean_p": 0.1,
    "seed_count": 10,
    "k": 5,
    "count": 4096,
    "workers": 2,
}

SMOKE = {
    "n_nodes": 3_000,
    "pa_out_degree": 5,
    "mean_p": 0.1,
    "seed_count": 5,
    "k": 5,
    "count": 2048,
    "workers": 2,
}


def build_graph(cfg) -> DiGraph:
    rng = np.random.default_rng(11)
    return learned_like(
        preferential_attachment(cfg["n_nodes"], cfg["pa_out_degree"], rng),
        rng,
        cfg["mean_p"],
    )


def make_seeds(cfg, graph):
    return frozenset(
        int(v)
        for v in np.random.default_rng(2).choice(
            graph.n, size=cfg["seed_count"], replace=False
        )
    )


def _collect(graph, seeds, cfg, rng=7):
    return parallel_prr_collection(
        graph, seeds, cfg["k"], cfg["count"],
        rng=rng, workers=cfg["workers"],
    )


def same_payload(got, want) -> bool:
    got, want = got.payload(), want.payload()
    return len(got) == len(want) and all(
        np.array_equal(a, b) for a, b in zip(got, want)
    )


def measure_recovery(graph, seeds, cfg) -> dict:
    """Kill one host mid-run; measure the recovered run and assert the
    payload identity + supervision-counter contract."""
    reference = parallel_prr_collection(
        graph, seeds, cfg["k"], cfg["count"], rng=7, workers=1
    )

    shutdown_runtime()
    get_runtime(graph, cfg["workers"])
    _collect(graph, seeds, cfg, rng=0)  # warm
    start = time.perf_counter()
    healthy = _collect(graph, seeds, cfg)
    healthy_s = time.perf_counter() - start
    assert same_payload(healthy, reference)
    shutdown_runtime()

    with faults.inject(kill_worker="any", kill_on_chunk=2):
        get_runtime(graph, cfg["workers"])
        start = time.perf_counter()
        recovered = _collect(graph, seeds, cfg)
        recovered_s = time.perf_counter() - start
        health = runtime_health(graph)
    assert health is not None and health.restarts >= 1, health
    assert not health.degraded, health
    assert same_payload(recovered, reference), (
        "recovered payload differs from the serial path"
    )
    shutdown_runtime()
    alive = mp.active_children()
    assert alive == [], f"hosts alive after shutdown: {alive}"
    return {
        "healthy_s": round(healthy_s, 4),
        "recovered_s": round(recovered_s, 4),
        "recovery_penalty_s": round(recovered_s - healthy_s, 4),
        "restarts": health.restarts,
        "retries": health.retries,
        "payload_bit_identical": True,
        "hosts_left": 0,
    }


def run(smoke: bool = False) -> dict:
    cfg = SMOKE if smoke else FULL
    graph = build_graph(cfg)
    seeds = make_seeds(cfg, graph)
    print(f"graph: n={graph.n} m={graph.m}  "
          f"count={cfg['count']} workers={cfg['workers']}")

    recovery = measure_recovery(graph, seeds, cfg)
    print(
        f"  recovery: healthy {recovery['healthy_s']:.3f}s -> one host "
        f"killed {recovery['recovered_s']:.3f}s "
        f"(+{recovery['recovery_penalty_s']:.3f}s, "
        f"{recovery['restarts']} restart(s), {recovery['retries']} "
        f"retried chunk(s)); payload bit-identical to serial"
    )
    return {
        "description": (
            "Recovery of the fault-tolerant local host pool: "
            "wall-clock + payload identity of a run that loses one "
            "host mid-flight, against the fault-free run."
        ),
        "smoke": smoke,
        "config": dict(cfg),
        "graph": {"n": graph.n, "m": graph.m},
        "hardware": {"cpu_count": os.cpu_count()},
        "recovery": recovery,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI: asserts recovery identity, restarts, "
             "no degradation and process hygiene; skips the JSON write",
    )
    args = parser.parse_args()
    results = run(smoke=args.smoke)
    if not args.smoke:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
