"""Distributed sampling benchmark: multi-host sharding vs local chunked.

Builds a graph store (Hamiltonian ring + uniform random extra edges —
the ``bench_storage`` workload), spawns N worker hosts as real
``repro dist-worker --graph-store ... --port 0`` subprocesses on
localhost, then answers the same workload per topology:

* **local** — one process, the chunked shared-memory runtime
  (``workers=2``, the stream the distributed merge must reproduce),
* **hosts=1/2/4** — ``Session(graph, hosts=...)`` sharding chunks over
  the worker subprocesses,
* **kill** — 2 hosts, one SIGKILL'd mid-query (as soon as it has
  answered its first chunk of the query workload): supervision must
  report the host loss and re-assign its chunks, and the envelope must
  not change.

Two measurements per topology: raw sampling throughput (a
``parallel_rr_csr`` draw, merged-array digest asserted identical) and
end-to-end IMM + PRR-Boost queries (full envelope asserted identical).
**Identity is the hard gate**; speedup ratios are reported but only
gated when the machine has cores to scale onto (``cpu_count >= 2``) —
on a single-core runner N localhost workers time-slice one core and
ratios hover around 1.0 by construction.

Results land in ``BENCH_dist.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_dist.py [--smoke]

``--smoke`` shrinks the store, runs hosts 1/2 only, and (multi-core
runners only) enforces the CI gate: 2-host e2e speedup at least 70% of
the committed ``smoke_baseline``, one re-measure before failing.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).parent.parent
RESULT_PATH = REPO / "BENCH_dist.json"
BENCH_SEED = 2017

FULL = {
    "ring_nodes": 1_000_000,
    "extra_edges": 4_000_000,
    "host_counts": [1, 2, 4],
    "max_samples": 2000,
    "sampling_count": 8192,
    "k": 8,
    "boost_seeds": 4,
    "workers_per_host": 1,
}
SMOKE = {
    "ring_nodes": 40_000,
    "extra_edges": 160_000,
    "host_counts": [1, 2],
    "max_samples": 1500,
    "sampling_count": 4096,
    "k": 4,
    "boost_seeds": 2,
    "workers_per_host": 1,
}


# ----------------------------------------------------------------------
# Store construction (bench_storage's ring+random workload)
# ----------------------------------------------------------------------

def build_store(cfg: dict, workdir: Path) -> Path:
    from repro.storage import ingest_edge_list

    edges = workdir / "edges.txt.gz"
    store = workdir / "graph.rpgs"
    rng = np.random.default_rng(BENCH_SEED)
    n = cfg["ring_nodes"]
    start = time.perf_counter()
    with gzip.open(edges, "wt", compresslevel=1) as handle:
        handle.write(f"# synthetic ring+random benchmark graph, n={n}\n")
        ids = np.arange(n, dtype=np.int64)
        block = 1 << 19
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            np.savetxt(
                handle,
                np.column_stack((ids[lo:hi], (ids[lo:hi] + 1) % n)),
                fmt="%d",
            )
        remaining = cfg["extra_edges"]
        while remaining:
            take = min(remaining, block)
            np.savetxt(handle, rng.integers(0, n, size=(take, 2)), fmt="%d")
            remaining -= take
    report = ingest_edge_list(edges, store, prob="const:0.05", beta=2.0)
    print(
        f"store: n={report.n:,} m={report.m:,} "
        f"({report.file_bytes / 1e6:.0f} MB) built in "
        f"{time.perf_counter() - start:.1f}s"
    )
    return store


# ----------------------------------------------------------------------
# Worker-host subprocesses
# ----------------------------------------------------------------------

class WorkerFleet:
    """N real ``repro dist-worker`` subprocesses on ephemeral ports."""

    def __init__(self, store: Path, count: int, workers_per_host: int):
        self.procs = []
        self.addrs = []
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        for _ in range(count):
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "dist-worker",
                    "--graph-store", str(store), "--port", "0",
                    "--workers", str(workers_per_host),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                env=env,
            )
            self.procs.append(proc)
        for proc in self.procs:
            ready = json.loads(proc.stdout.readline())
            info = ready["listening"]
            self.addrs.append(f"{info['host']}:{info['port']}")

    def kill_one(self, index: int = -1) -> None:
        self.procs[index].send_signal(signal.SIGKILL)

    def shutdown(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# Measurement arms (run in-parent, one fresh graph open per arm so the
# per-graph distributed binding never leaks between topologies)
# ----------------------------------------------------------------------

def sampling_digest(arrays) -> str:
    digest = hashlib.sha256()
    for block in arrays:
        block = np.ascontiguousarray(block)
        digest.update(str(block.dtype).encode())
        digest.update(block.tobytes())
    return digest.hexdigest()[:16]


def run_workload(session, cfg: dict, *, workers=None) -> dict:
    """The e2e query pair, timed; ``workers`` sets the local
    comparator's pool size (envelopes are the same at any count)."""
    from repro.api import BoostQuery, SamplingBudget, SeedQuery

    budget = SamplingBudget(max_samples=cfg["max_samples"], workers=workers)
    start = time.perf_counter()
    seeds = session.run(
        SeedQuery(k=cfg["k"], algorithm="imm", budget=budget, rng_seed=11)
    )
    boost = session.run(
        BoostQuery(
            seeds=tuple(range(cfg["boost_seeds"])),
            k=cfg["k"], budget=budget, rng_seed=5,
        )
    )
    e2e_s = time.perf_counter() - start
    return {
        "e2e_s": round(e2e_s, 3),
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


def time_sampling(graph, count: int) -> dict:
    from repro.core.parallel import parallel_rr_csr

    start = time.perf_counter()
    arrays = parallel_rr_csr(graph, count, BENCH_SEED)
    elapsed = time.perf_counter() - start
    return {
        "sampling_s": round(elapsed, 3),
        "samples_per_s": round(count / elapsed),
        "sampling_digest": sampling_digest(arrays),
    }


def arm_local(store: Path, cfg: dict) -> dict:
    from repro.api import Session
    from repro.core.parallel import parallel_rr_csr
    from repro.storage import open_graph

    graph = open_graph(store)
    start = time.perf_counter()
    arrays = parallel_rr_csr(graph, cfg["sampling_count"], BENCH_SEED,
                             workers=2)
    sampling_s = time.perf_counter() - start
    with Session(graph) as session:
        row = run_workload(session, cfg, workers=2)
    row.update(
        sampling_s=round(sampling_s, 3),
        samples_per_s=round(cfg["sampling_count"] / sampling_s),
        sampling_digest=sampling_digest(arrays),
    )
    return row


def kill_on_progress(session, fleet, done: threading.Event) -> None:
    """SIGKILL the last host once it has answered one more chunk than
    when this started, then wait (up to 10 s) for the coordinator to see
    the loss.  Gives up when ``done`` is set before the kill."""
    def chunks_done():
        return session.runtime_health().hosts[-1]["chunks_done"]

    start = chunks_done()
    while chunks_done() == start:
        if done.wait(0.002):
            return
    fleet.kill_one()
    deadline = time.monotonic() + 10.0
    while (session.runtime_health().restarts == 0
           and time.monotonic() < deadline):
        time.sleep(0.002)


def arm_hosts(store: Path, cfg: dict, host_count: int,
              kill_mid_run: bool = False) -> dict:
    from repro.api import Session
    from repro.storage import open_graph

    fleet = WorkerFleet(store, host_count, cfg["workers_per_host"])
    graph = open_graph(store)
    try:
        with Session(graph, hosts=fleet.addrs) as session:
            row = time_sampling(graph, cfg["sampling_count"])
            done = threading.Event()
            killer = None
            if kill_mid_run:
                killer = threading.Thread(
                    target=kill_on_progress, args=(session, fleet, done),
                    daemon=True,
                )
                killer.start()
            row.update(run_workload(session, cfg))
            done.set()
            if killer is not None:
                killer.join(timeout=30)
            health = session.runtime_health()
            row["health"] = health.to_dict() if health else None
        return row
    finally:
        fleet.shutdown()


def measure(cfg: dict, workdir: Path) -> dict:
    store = build_store(cfg, workdir)
    local = arm_local(store, cfg)
    print(
        f" local(w=2): sampling {local['sampling_s']:.2f}s "
        f"({local['samples_per_s']:,}/s) | e2e {local['e2e_s']:.2f}s"
    )

    arms = {"local": local}
    for count in cfg["host_counts"]:
        row = arm_hosts(store, cfg, count)
        arms[f"hosts={count}"] = row
        done = [h["chunks_done"] for h in row["health"]["hosts"]]
        print(
            f"   hosts={count}: sampling {row['sampling_s']:.2f}s "
            f"({row['samples_per_s']:,}/s) | e2e {row['e2e_s']:.2f}s | "
            f"chunks/host {done}"
        )
        # Hard gate: the shards merge back to the exact local stream.
        assert row["sampling_digest"] == local["sampling_digest"], (
            f"hosts={count} sampling digest diverged"
        )
        assert row["envelope"] == local["envelope"], (
            f"hosts={count} envelope diverged:\n"
            f"{row['envelope']}\n{local['envelope']}"
        )
    print("envelope identity: ok (imm + prr_boost, all host counts)")

    kill = arm_hosts(store, cfg, 2, kill_mid_run=True)
    arms["kill"] = kill
    assert kill["sampling_digest"] == local["sampling_digest"]
    assert kill["envelope"] == local["envelope"], "post-kill envelope diverged"
    h = kill["health"]
    print(
        f"   kill arm: e2e {kill['e2e_s']:.2f}s | hosts alive "
        f"{h['workers_alive']}/{h['workers']} | losses {h['restarts']} | "
        f"reassigned {h['retries']} | degraded {h['degraded']} | identity ok"
    )
    assert h["restarts"] >= 1, "kill arm never lost a host"

    speedups = {
        key: {
            "sampling": round(local["sampling_s"] / row["sampling_s"], 2),
            "e2e": round(local["e2e_s"] / row["e2e_s"], 2),
        }
        for key, row in arms.items()
        if key.startswith("hosts=")
    }
    for key, ratio in speedups.items():
        print(
            f"  speedup {key}: sampling {ratio['sampling']:.2f}x, "
            f"e2e {ratio['e2e']:.2f}x (vs local workers=2)"
        )
    return {"arms": arms, "speedups": speedups}


def run_round(cfg: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-dist-") as tmp:
        return measure(cfg, Path(tmp))


# ----------------------------------------------------------------------
# CI gate
# ----------------------------------------------------------------------

def check_smoke_regression(round_result: dict) -> int:
    cores = os.cpu_count() or 1
    measured = round_result["speedups"]["hosts=2"]["e2e"]
    if cores < 2:
        print(
            f"single-core runner: identity gated, speedup "
            f"({measured:.2f}x at 2 hosts) reported ungated"
        )
        return 0
    if not RESULT_PATH.exists():
        print("FAIL: no committed BENCH_dist.json baseline to gate against")
        return 1
    baseline = json.loads(RESULT_PATH.read_text()).get("smoke_baseline")
    if not baseline:
        print("FAIL: committed BENCH_dist.json has no smoke_baseline to gate against")
        return 1
    if baseline.get("cpu_count", 1) < 2:
        print(
            "baseline was recorded on a single-core machine; speedup gate "
            f"skipped (measured {measured:.2f}x at 2 hosts)"
        )
        return 0
    floor = 0.7 * baseline["e2e_speedup_2_hosts"]
    status = "ok" if measured >= floor else "REGRESSION"
    print(
        f"  gate 2-host e2e speedup: measured {measured:.2f}x, baseline "
        f"{baseline['e2e_speedup_2_hosts']:.2f}x, floor {floor:.2f}x "
        f"-> {status}"
    )
    return 0 if measured >= floor else 1


def run(smoke: bool = False):
    cfg = SMOKE if smoke else FULL
    results = {
        "config": dict(cfg),
        "hardware": {"cpu_count": os.cpu_count()},
        "smoke": smoke,
    }
    round_result = run_round(cfg)
    results["dist"] = round_result
    if smoke:
        status = check_smoke_regression(round_result)
        if status:
            # One retry before failing CI: localhost worker subprocesses
            # are at the mercy of runner scheduling noise; a genuine
            # regression fails both rounds.
            print("gate failed; re-measuring once before declaring a regression")
            retry = run_round(cfg)
            best = retry["speedups"]["hosts=2"]["e2e"]
            if best > round_result["speedups"]["hosts=2"]["e2e"]:
                results["dist"] = round_result = retry
            status = check_smoke_regression(round_result)
        return results, status
    # The smoke round measured on this machine becomes the committed
    # baseline the CI gate compares against.
    smoke_results, _ = run(smoke=True)
    results["smoke_baseline"] = {
        "e2e_speedup_2_hosts":
            smoke_results["dist"]["speedups"]["hosts=2"]["e2e"],
        "sampling_speedup_2_hosts":
            smoke_results["dist"]["speedups"]["hosts=2"]["sampling"],
        "cpu_count": os.cpu_count(),
    }
    return results, 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small store, hosts 1/2, no JSON write; on multi-core "
        "runners fail on >30% regression of the 2-host e2e speedup vs "
        "the committed baseline (identity is always a hard assert)",
    )
    args = parser.parse_args()
    results, status = run(smoke=args.smoke)
    if not args.smoke and status == 0:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
