"""Out-of-core storage benchmark: mmap store vs in-memory backend.

Generates a synthetic edge list (a Hamiltonian ring so every node id
appears, plus uniform random extra edges), streams it through ``repro
ingest``'s pipeline into a binary graph store, then answers the same
query pair — IMM seed selection and PRR-Boost — once per backend:

* **mmap** — :func:`repro.storage.open_graph` zero-copy views,
* **memory** — the same store materialized into RAM.

Each arm runs in its *own subprocess* so ``ru_maxrss`` is an honest
per-backend peak-RSS measurement (the number the out-of-core design
exists to shrink), and the parent asserts the two arms' full result
envelopes — selections, sample counts, estimates, fingerprints — are
bit-identical: the storage tier may move bytes, never answers.  Both
arms run serial (workers=1) so the comparison is deterministic.

Results land in ``BENCH_storage.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_storage.py [--smoke]

The full run ingests a 1M-node / 5M-edge graph and requires the
in-memory arm's peak RSS to be at least ``min_rss_ratio`` times the
mmap arm's.  ``--smoke`` shrinks the graph and enforces the CI gate:
the measured RSS ratio must be at least 70% of the committed
``smoke_baseline`` (and at least break even), with one re-measure
before declaring failure — envelope identity is always a hard assert.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_SEED = 2017
RESULT_PATH = Path(__file__).parent.parent / "BENCH_storage.json"

FULL = {
    "ring_nodes": 1_000_000,
    "extra_edges": 4_000_000,
    "chunk_edges": 1 << 20,
    "max_samples": 2000,
    "k": 8,
    "boost_seeds": 4,
    "min_rss_ratio": 2.0,
}
SMOKE = {
    "ring_nodes": 100_000,
    "extra_edges": 400_000,
    "chunk_edges": 1 << 17,
    "max_samples": 400,
    "k": 4,
    "boost_seeds": 2,
}


# ----------------------------------------------------------------------
# Subprocess arms (invoked as `bench_storage.py --_arm ...`): each prints
# one JSON object to stdout and nothing else.
# ----------------------------------------------------------------------

def _peak_rss_bytes() -> int:
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return rss * 1024 if sys.platform != "darwin" else rss


def arm_ingest(args) -> dict:
    from repro.storage import ingest_edge_list

    start = time.perf_counter()
    # Subcritical constant probability: expected RR/PRR set sizes stay
    # small, so query scratch doesn't drown the storage-tier RSS signal.
    report = ingest_edge_list(
        args.input,
        args.store,
        prob="const:0.05",
        beta=2.0,
        chunk_edges=args.chunk_edges,
    )
    return {
        "ingest_s": round(time.perf_counter() - start, 3),
        "peak_rss_bytes": _peak_rss_bytes(),
        "n": report.n,
        "m": report.m,
        "chunks": report.chunks,
        "store_bytes": report.file_bytes,
    }


def arm_query(args) -> dict:
    from repro.api import BoostQuery, SamplingBudget, SeedQuery, Session
    from repro.storage import open_graph

    start = time.perf_counter()
    graph = open_graph(args.store, mode=args.mode)
    session = Session(graph)
    open_s = time.perf_counter() - start

    budget = SamplingBudget(max_samples=args.max_samples, workers=1)
    start = time.perf_counter()
    seeds = session.run(
        SeedQuery(k=args.k, algorithm="imm", budget=budget, rng_seed=11)
    )
    boost = session.run(
        BoostQuery(
            seeds=tuple(range(args.boost_seeds)),
            k=args.k,
            budget=budget,
            rng_seed=5,
        )
    )
    query_s = time.perf_counter() - start
    info = graph.storage_info()
    session.close()
    return {
        "mode": args.mode,
        "open_s": round(open_s, 4),
        "query_s": round(query_s, 3),
        "peak_rss_bytes": _peak_rss_bytes(),
        "array_bytes": info["array_bytes"],
        "resident_bytes": info["resident_bytes"],
        "envelope": {
            "seeds_selected": list(seeds.selected),
            "seeds_samples": seeds.num_samples,
            "seeds_fingerprint": seeds.fingerprint,
            "boost_selected": list(boost.selected),
            "boost_samples": boost.num_samples,
            "boost_estimate": boost.estimates["boost"],
            "boost_fingerprint": boost.fingerprint,
        },
    }


def _run_arm(argv: list) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__] + [str(a) for a in argv],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"arm {argv} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


# ----------------------------------------------------------------------
# Workload generation and the measurement round
# ----------------------------------------------------------------------

def generate_edge_list(path: Path, cfg: dict) -> float:
    """Write the synthetic edge list (gzip'd, SNAP-style header)."""
    rng = np.random.default_rng(BENCH_SEED)
    n = cfg["ring_nodes"]
    start = time.perf_counter()
    with gzip.open(path, "wt", compresslevel=1) as handle:
        handle.write(f"# synthetic ring+random benchmark graph, n={n}\n")
        ids = np.arange(n, dtype=np.int64)
        block = 1 << 19
        for lo in range(0, n, block):  # the ring: every id appears
            hi = min(lo + block, n)
            np.savetxt(
                handle,
                np.column_stack((ids[lo:hi], (ids[lo:hi] + 1) % n)),
                fmt="%d",
            )
        remaining = cfg["extra_edges"]
        while remaining:
            take = min(remaining, block)
            np.savetxt(
                handle,
                rng.integers(0, n, size=(take, 2)),
                fmt="%d",
            )
            remaining -= take
    return time.perf_counter() - start


def measure(cfg: dict, workdir: Path) -> dict:
    edges = workdir / "edges.txt.gz"
    store = workdir / "graph.rpgs"
    gen_s = generate_edge_list(edges, cfg)
    print(
        f"generated {cfg['ring_nodes'] + cfg['extra_edges']:,} edges "
        f"({edges.stat().st_size / 1e6:.1f} MB gz) in {gen_s:.1f}s"
    )

    ingest = _run_arm([
        "--_arm", "ingest", "--input", edges, "--store", store,
        "--chunk-edges", cfg["chunk_edges"],
    ])
    print(
        f"ingest: n={ingest['n']:,} m={ingest['m']:,} in "
        f"{ingest['ingest_s']:.1f}s over {ingest['chunks']} chunks, "
        f"peak RSS {ingest['peak_rss_bytes'] / 1e6:.0f} MB, "
        f"store {ingest['store_bytes'] / 1e6:.0f} MB"
    )

    arms = {}
    for mode in ("mmap", "memory"):
        arms[mode] = _run_arm([
            "--_arm", "query", "--store", store, "--mode", mode,
            "--max-samples", cfg["max_samples"], "--k", cfg["k"],
            "--boost-seeds", cfg["boost_seeds"],
        ])
        row = arms[mode]
        print(
            f"{mode:>6}: open {row['open_s']:.3f}s | query "
            f"{row['query_s']:.2f}s | peak RSS "
            f"{row['peak_rss_bytes'] / 1e6:.0f} MB"
        )

    # The storage tier must never change answers: full envelope identity.
    assert arms["mmap"]["envelope"] == arms["memory"]["envelope"], (
        "mmap and in-memory backends returned different envelopes:\n"
        f"{arms['mmap']['envelope']}\n{arms['memory']['envelope']}"
    )
    print("envelope identity: ok (imm seeds + prr_boost, serial)")

    rss_ratio = arms["memory"]["peak_rss_bytes"] / arms["mmap"]["peak_rss_bytes"]
    open_speedup = arms["memory"]["open_s"] / max(arms["mmap"]["open_s"], 1e-4)
    print(
        f"peak-RSS ratio (memory/mmap): {rss_ratio:.2f}x | "
        f"cold-open speedup: {open_speedup:.1f}x"
    )
    return {
        "generate_s": round(gen_s, 1),
        "ingest": ingest,
        "arms": arms,
        "rss_ratio": round(rss_ratio, 2),
        "open_speedup": round(open_speedup, 1),
    }


def run_round(cfg: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        return measure(cfg, Path(tmp))


def check_smoke_regression(round_result: dict) -> int:
    if not RESULT_PATH.exists():
        print("FAIL: no committed BENCH_storage.json baseline to gate against")
        return 1
    baseline = json.loads(RESULT_PATH.read_text()).get("smoke_baseline")
    if not baseline:
        print("FAIL: committed BENCH_storage.json has no smoke_baseline to gate against")
        return 1
    measured = round_result["rss_ratio"]
    floor = max(1.0, 0.7 * baseline["rss_ratio"])
    status = "ok" if measured >= floor else "REGRESSION"
    print(
        f"  gate rss_ratio: measured {measured:.2f}x, baseline "
        f"{baseline['rss_ratio']:.2f}x, floor {floor:.2f}x -> {status}"
    )
    if measured < floor:
        print("SMOKE REGRESSION (> 30% below baseline rss_ratio)")
        return 1
    return 0


def run(smoke: bool = False):
    cfg = SMOKE if smoke else FULL
    results = {
        "config": dict(cfg),
        "hardware": {"cpu_count": os.cpu_count()},
        "smoke": smoke,
    }
    round_result = run_round(cfg)
    results["storage"] = round_result
    if smoke:
        status = check_smoke_regression(round_result)
        if status:
            # One retry before failing CI: a noisy neighbour on a shared
            # runner can inflate the mmap arm's RSS for one round; a
            # genuine regression fails both rounds.
            print("gate failed; re-measuring once before declaring a regression")
            retry = run_round(cfg)
            if retry["rss_ratio"] > round_result["rss_ratio"]:
                results["storage"] = round_result = retry
            status = check_smoke_regression(round_result)
        return results, status
    if round_result["ingest"]["n"] < cfg["ring_nodes"]:
        print("FAIL: ingested graph smaller than configured")
        return results, 1
    if round_result["rss_ratio"] < cfg["min_rss_ratio"]:
        print(
            f"FAIL: peak-RSS ratio {round_result['rss_ratio']:.2f}x below "
            f"the required {cfg['min_rss_ratio']:.1f}x"
        )
        return results, 1
    # The smoke-mode ratio measured on this machine becomes the committed
    # baseline the CI gate compares against.
    smoke_results, _ = run(smoke=True)
    results["smoke_baseline"] = {
        "rss_ratio": smoke_results["storage"]["rss_ratio"],
    }
    return results, 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small graph, no JSON write, fail on >30% RSS-ratio "
        "regression vs the committed baseline (CI mode)",
    )
    parser.add_argument("--_arm", choices=("ingest", "query"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--input", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--mode", help=argparse.SUPPRESS)
    parser.add_argument("--chunk-edges", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--max-samples", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--k", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--boost-seeds", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args._arm == "ingest":
        print(json.dumps(arm_ingest(args)))
        return 0
    if args._arm == "query":
        print(json.dumps(arm_query(args)))
        return 0
    results, status = run(smoke=args.smoke)
    if not args.smoke and status == 0:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
