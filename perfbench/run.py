"""The repository benchmark: four workloads through the public API.

Run one workload (the form BENCHMARK.json's ``command`` is called in)::

    python3 perfbench/run.py --workload prr-digg-w1 --seed 1 --seconds 20 --trace 0

or every workload, each in a fresh process, with a summary table::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout: it imports the program from ``src/``
and exits with code 2 when that is missing.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation; ``--trace 1`` installs the
outside-in wrappers of ``spans.py``, records spans on alternate pairs of
rounds, reports the per-layer metrics (and the tracing overhead against
the rounds in between, where the wrappers record nothing) and writes the
spans to ``.perfbench_work/<workload>-seed<seed>.spans.jsonl``.

Standard output carries one JSON row per metric, each with its
provenance (``workload, layer, metric, value, unit, sha, hardware``),
and ends with the result line ``{"correct", "attempted", "failed",
"metrics"}``.  A failed answer check makes ``correct`` false and the exit
code 1.  ``sha`` digests the measured sources under ``src/``, so it is
defined in checkouts that are not git repositories.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# A traced run traces every other pair of rounds (rounds 2-3, 6-7, ...),
# so traced and untraced rounds both cover the two graph versions that
# serve-20k-w2 alternates between; four rounds hold one traced pair.
MIN_ROUNDS = 4
PR_SET_CHILD_SUBREAPER = 36  # prctl option, <linux/prctl.h>
CHILD_EXIT_SECONDS = 20.0    # wait this long at exit before killing children

END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "throughput_qps": "queries/s",
    "samples_per_s": "samples/s",
    "boost_quality": "nodes",
    "peak_rss_mb": "MB",
}
# Reported as rows where they apply; not gated, because they do not exist
# on every workload (p90 needs ten queries beyond it) or are 0 when healthy.
REPORTED = {"query_p90_s": "s", "error_rate": "ratio", "seed_quality": "nodes"}

_LAYERS = (
    ("api.handler", "api.algorithms"), ("api.serve", "api.serve"),
    ("api.session", "api.session"), ("api.cache", "api.cache"),
    ("api.admission", "api.admission"), ("engine.coverage", "engine.coverage"),
    ("core.prr", "core.prr"), ("core.estimator", "core.estimator"),
    ("core.parallel", "core.parallel"), ("engine", "engine"), ("im", "im"),
    ("dist", "dist"), ("storage", "storage"), ("graphs", "graphs"),
    ("trace", "benchmark"),
)


def layer_of(metric: str) -> str:
    for prefix, layer in _LAYERS:
        if metric.startswith(prefix + "."):
            return layer
    return "end_to_end"


class Client:
    """The one closed-loop client: times each request as it sees it."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.requests = 0

    def call(self, fn, *args):
        self.requests += 1
        with self.tracer.request(self.requests):
            start = time.perf_counter()
            result = fn(*args)
            latency = time.perf_counter() - start
        return result, latency


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def hardware() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    # Fixed numpy calibration probe: recorded, never used to normalize.
    data = np.random.default_rng(0).random(1 << 20)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(data)
        block = data[: 256 * 256].reshape(256, 256)
        block @ block
        times.append(time.perf_counter() - start)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "calibration_s": statistics.median(times)}


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def prr_stats(answers) -> dict:
    """Compression counters from the PRR-Boost envelopes' collection stats."""
    total = boostable = compressed = uncompressed = 0
    for ans in answers:
        if ans.algorithm == "prr_boost" and not ans.failed:
            stats = ans.envelope["extra"]["stats"]
            total += stats["total"]
            boostable += stats["boostable"]
            compressed += stats["compressed_edges"]
            uncompressed += stats["uncompressed_edges"]
    per = max(boostable, 1)
    return {"core.prr.boostable_ratio": boostable / total if total else 0.0,
            "core.prr.compressed_edges": compressed / per,
            "core.prr.uncompressed_edges": uncompressed / per}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str):
    """Run one workload in this process; returns (metrics, attempted,
    failures, problems)."""
    from spans import PER_LAYER_UNITS, Tracer
    from workloads import WORKLOADS, check_answer

    tracer = Tracer()
    if trace:
        tracer.install()
    client = Client(tracer)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    workload = WORKLOADS[name](seed, scale, workdir, client)
    try:
        workload.generate()
        setups = []
        for i in range(workload.setup_repeats):
            last = i == workload.setup_repeats - 1
            with tracer.traced() if trace and last else nullcontext():
                start = time.perf_counter()
                workload.open()
                setups.append(time.perf_counter() - start)
            if not last:
                workload.close()
                # A closed session lingers in garbage cycles: collect it,
                # so peak RSS does not grow with the number of set-ups.
                gc.collect()
        tracer.probe = workload.counters
        workload.round()  # warm-up: lazy set-up finishes before timing

        answers, rounds = [], 0
        # The quality metrics score the first quality_rounds rounds.
        min_rounds = max(MIN_ROUNDS, workload.cfg["quality_rounds"])
        wall = {True: 0.0, False: 0.0}
        done = {True: 0, False: 0}
        start = time.perf_counter()
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            traced = trace and rounds % 4 >= 2
            began = time.perf_counter()
            with tracer.traced() if traced else nullcontext():
                got = workload.play()
            wall[traced] += time.perf_counter() - began
            done[traced] += len(got)
            answers += got
            rounds += 1
        elapsed = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layer = workload.layer_metrics()

        answer_problems = [check_answer(ans, workload.n) for ans in answers]
        workload_problems = workload.checks()
        quality = {} if trace else workload.quality()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if trace:
            tracer.uninstall()

    attempted = len(answers)
    bad = sum(1 for found in answer_problems if found)
    failures = min(attempted, bad + len(workload_problems))
    problems = [p for found in answer_problems for p in found] + workload_problems
    latencies = [math.inf if ans.failed else ans.latency for ans in answers]
    sampled = [ans for ans in answers
               if not ans.failed and not ans.hit and ans.envelope["num_samples"] > 0]
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(latencies),
        "throughput_qps": (attempted - bad) / elapsed,
        "samples_per_s": (sum(a.envelope["num_samples"] for a in sampled)
                          / max(sum(a.latency for a in sampled), 1e-12)),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failures / attempted,
        **quality,
    }
    if attempted >= 100:  # ten queries beyond the 90th percentile
        metrics["query_p90_s"] = percentile(latencies, 0.9)
    if trace:
        layers = tracer.metrics()
        layers.update(layer)
        layers.update(prr_stats(answers))
        traced_rate = done[True] / max(wall[True], 1e-12)
        plain_rate = done[False] / max(wall[False], 1e-12)
        layers["trace.overhead_ratio"] = traced_rate / plain_rate if plain_rate else 0.0
        metrics = {key: layers[key] for key in PER_LAYER_UNITS}
        tracer.write(WORK / f"{name}-seed{seed}.spans.jsonl")
    return metrics, attempted, failures, problems


def main_one(args) -> int:
    from spans import PER_LAYER_UNITS

    metrics, attempted, failures, problems = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    units = PER_LAYER_UNITS if args.trace else {**END_TO_END, **REPORTED}
    sha, hw = source_sha(), hardware()
    for metric, unit in units.items():
        if metric in metrics:
            print(json.dumps({"workload": args.workload, "layer": layer_of(metric),
                              "metric": metric, "value": metrics[metric], "unit": unit,
                              "sha": sha, "hardware": hw}))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    gated = PER_LAYER_UNITS if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failures,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in gated.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main_all(args) -> int:
    """Every workload, each in a fresh process so set-up and peak RSS
    never inherit a warm engine or pool."""
    from workloads import WORKLOADS

    correct, attempted, failed, merged = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else None
        if result is None:
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for line in lines[:-1]:
            row = json.loads(line)
            print(f"{name:16} {row['metric']:36} {row['value']:>14.6g} {row['unit']}")
        for metric, value in result["metrics"].items():
            merged[f"{name}:{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A forked pool worker that ships a result through shared memory
    starts a multiprocessing resource tracker of its own, and that
    tracker outlives the worker; adopted, it can be waited for."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # not Linux
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_pids() -> list:
    """Pids of this process's children, exited ones included (Linux)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except (OSError, ValueError):
            continue
        # The command name is in parentheses and may hold spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Registered to run last at exit, after the program's own exit handlers
    have shut its pools down.  What remains then are resource trackers:
    this process's own, which ends once its pipe is closed, and the
    adopted ones of exited workers.  Any still alive at the deadline is
    killed."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if tracker is not None and tracker._fd is not None:
        os.close(tracker._fd)  # end of file on its pipe: the tracker exits
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + CHILD_EXIT_SECONDS
    while True:
        alive = []
        for pid in child_pids():
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if not done:
                alive.append(pid)
        if not alive:
            return
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="prr-digg-w1, lbimm-10k-w1, serve-20k-w2, dist-20k-2host or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes exist for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    adopt_orphans()
    # Registered before the program is imported, so it runs after the
    # program's own exit handlers.
    atexit.register(stop_children)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    if args.workload == "all":
        return main_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
