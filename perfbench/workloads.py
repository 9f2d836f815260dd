"""The benchmark's workloads: inputs, set-up, query rounds and answer checks.

Every workload is a closed loop with one client, and every query carries
an ``rng_seed``.  Graphs, seed sets and query seeds all derive from the
workload seed; the program only ever receives the generated inputs.
Query-type counts are kept unequal and cache hits well under half of a
round, so a median never lands on a type or hit/miss boundary.

Each workload runs on one of the program's named graphs, built by the
program's own generators from a fixed recipe seed (``graph_shape``): the
digg-like dataset, the 10k/52k bench graph and the 20k/130k serving
graph.  The workload seed orders the edge list (which fixes the edge ids,
the sampling streams they hash into and the store layout) and picks
every query's ``rng_seed``.  How much work a query does and how good its
answer is depend on the particular hubs and strong edges of a graph, and
selection breaks ties toward the smallest node id: with a graph drawn
afresh per seed, or its nodes renumbered per seed, one seed's run
differed from another's by more than the metric bounds in median query
time and in answer quality.
"""

from __future__ import annotations

import io
import json
import math
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

# One-line reasons, recorded in BENCHMARK.json.
WHY = {
    "prr-digg-w1": "PRR-Boost on the digg-like graph at workers=1: phase-I lanes "
                   "and phase-II compression do nearly all the work",
    "lbimm-10k-w1": "IMM and PRR-Boost-LB on the 10k graph at workers=1: RR lanes, "
                    "critical lanes and coverage greedy, no compression",
    "serve-20k-w2": "NDJSON serving on the 20k store at workers=2: codec, cache, "
                    "admission, overlap lanes, chunk dispatch, MC and writes",
    "dist-20k-2host": "PRR-Boost, PRR-Boost-LB and IMM sharded over two localhost "
                      "dist-worker hosts",
}

# The graphs: the digg-like dataset as ``load_dataset`` and the CLI build
# it by default, and the preferential-attachment graphs with log-normal
# probabilities of the repository's micro-benchmarks (10k/52k as in
# bench_lanes, 20k/130k as in bench_serve).  The tiny ones exist for the
# self-test only.
DIGG = dict(dataset="digg-like", seed=7)
BENCH_10K = dict(n=10000, m=4, mean_p=0.1, seed=2017)
SERVE_20K = dict(n=20000, m=5, mean_p=0.1, seed=11)
TINY_10K = dict(n=600, m=3, mean_p=0.1, seed=2017)
TINY_20K = dict(n=800, m=3, mean_p=0.1, seed=11)

# Sizes per scale; "tiny" exists for the self-test only.  quality_rounds
# is the number of leading rounds whose answers the quality metrics
# score; every run plays at least that many.
CONFIG = {
    "prr-digg-w1": {
        "full": dict(graph=DIGG, seeds=20, k=20, samples=1000, quality_rounds=16,
                     mc_runs=200),
        "tiny": dict(graph=DIGG, seeds=5, k=5, samples=200, quality_rounds=2,
                     mc_runs=20),
    },
    "lbimm-10k-w1": {
        "full": dict(graph=BENCH_10K, seeds=20, k=20, k_imm=50, lb_samples=12000,
                     imm_samples=40000, quality_rounds=6, mc_runs=100),
        "tiny": dict(graph=TINY_10K, seeds=5, k=5, k_imm=5, lb_samples=600,
                     imm_samples=800, quality_rounds=1, mc_runs=20),
    },
    "serve-20k-w2": {
        "full": dict(graph=SERVE_20K, seeds=10, k=20, k_imm=50, k_small=5, k_rank=1,
                     lb_samples=1500, imm_samples=2000, pb_samples=300,
                     ssa_samples=4000, eval_runs=100, rank_runs=50,
                     quality_rounds=6, mc_runs=100),
        "tiny": dict(graph=TINY_20K, seeds=4, k=2, k_imm=4, k_small=2, k_rank=1,
                     lb_samples=1200, imm_samples=600, pb_samples=600,
                     ssa_samples=600, eval_runs=20, rank_runs=4,
                     quality_rounds=1, mc_runs=20),
    },
    "dist-20k-2host": {
        "full": dict(graph=SERVE_20K, seeds=10, k=20, k_imm=50, k_small=5,
                     lb_samples=2000, imm_samples=4000, pb_samples=600,
                     quality_rounds=4, mc_runs=100),
        "tiny": dict(graph=TINY_20K, seeds=4, k=2, k_imm=4, k_small=2,
                     lb_samples=1200, imm_samples=600, pb_samples=600,
                     quality_rounds=1, mc_runs=20),
    },
}

SRC = Path(__file__).resolve().parent.parent / "src"
QUALITY_SEED = 20170401   # the one Monte-Carlo stream of the quality metrics
WRITE_SCALE = 0.9         # serve writes alternate p and WRITE_SCALE * p
BETA = 2.0                # boosting parameter of every graph
HOST_READY_TIMEOUT = 60.0  # seconds for dist-worker hosts to print their ready line


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def graph_shape(recipe: dict):
    """A workload's graph as ``(n, src, dst, p, pp)``, the ``DiGraph``
    constructor arguments, built by the program's own generators."""
    from repro.datasets import load_dataset
    from repro.graphs import learned_like, preferential_attachment

    if "dataset" in recipe:
        graph = load_dataset(recipe["dataset"], seed=recipe["seed"], beta=BETA)
    else:
        rng = np.random.default_rng(recipe["seed"])
        graph = learned_like(preferential_attachment(recipe["n"], recipe["m"], rng),
                             rng, recipe["mean_p"], beta=BETA)
    return (graph.n, *graph.edge_arrays())


def reorder(graph_args, order: np.ndarray):
    """The ``DiGraph`` arguments of the same graph with its edges listed in
    ``order``."""
    n, src, dst, p, pp = graph_args
    return n, src[order], dst[order], p[order], pp[order]


# ----------------------------------------------------------------------
# Answers and checks
# ----------------------------------------------------------------------
@dataclass
class Answer:
    """One client-visible query outcome."""

    query: dict                 # wire form
    latency: float
    envelope: Optional[dict]    # None when the call raised
    graph: int = 0              # index of the graph version it was computed on
    hit: bool = False
    error: str = ""

    @property
    def algorithm(self) -> str:
        return self.query.get("algorithm", "")

    @property
    def kind(self) -> str:
        return self.query["type"]

    @property
    def failed(self) -> bool:
        """The call raised, or its envelope is an error (rejected, timeout,
        failed, degraded) or was computed on a degraded runtime's serial
        fallback, which measures that fallback instead of the pool or the
        hosts."""
        if self.envelope is None:
            return True
        extra = self.envelope.get("extra", {})
        return bool(self.envelope.get("error") or extra.get("error") or extra.get("degraded"))


def check_answer(ans: Answer, n: int) -> List[str]:
    """Problems with one answer (an empty list means it passed)."""
    label = f"{ans.algorithm} rng_seed={ans.query.get('rng_seed')}"
    if ans.failed:
        env = ans.envelope or {}
        return [f"{label}: failed: {ans.error or env.get('error') or env.get('extra')}"]
    env = ans.envelope
    problems = [
        f"{label}: estimate {key}={value} is not finite"
        for key, value in env["estimates"].items() if not math.isfinite(value)
    ]
    if ans.kind in ("boost", "seed"):
        selected, k = env["selected"], ans.query["k"]
        if len(selected) != k or len(set(selected)) != k:
            problems.append(f"{label}: {len(set(selected))} distinct nodes, expected {k}")
        if any(not 0 <= v < n for v in selected):
            problems.append(f"{label}: node id out of range")
        if ans.kind == "boost" and set(selected) & set(ans.query["seeds"]):
            problems.append(f"{label}: boosts a seed node")
    if ans.algorithm in ("prr_boost", "prr_boost_lb"):
        boost, mu = env["estimates"]["boost"], env["estimates"]["mu"]
        if boost < mu - 1e-9 * max(1.0, abs(mu)):
            problems.append(f"{label}: boost {boost} < sandwich lower bound mu {mu}")
    return problems


def same_answer(a: Optional[dict], b: Optional[dict]) -> bool:
    """Envelope equality, timings aside."""
    if a is None or b is None:
        return False
    strip = lambda env: {key: v for key, v in env.items() if key != "timings"}  # noqa: E731
    return strip(a) == strip(b)


def mean_quality(graphs, answers: List[Answer], algorithm: str,
                 runs: int) -> Dict[str, float]:
    """Mean MC Δ_S(B) over the distinct boost answers of ``algorithm`` and
    mean σ(S) over the distinct seed answers.

    Each answer is scored on the graph version it was computed on, with
    the edges in the shape's order and always the same MC stream.  The
    same worlds then score every answer of every seed's run, so the metric
    moves only when the answers do, not with Monte-Carlo noise.
    """
    from repro.diffusion import estimate_boost, estimate_sigma

    picked: Dict[str, list] = {"boost": [], "seed": []}
    for ans in answers:
        bucket = picked.get(ans.kind)
        if bucket is None or ans.failed:
            continue
        if ans.kind == "boost" and ans.algorithm != algorithm:
            continue
        key = (ans.graph, tuple(sorted(ans.query.get("seeds", ()))),
               tuple(sorted(ans.envelope["selected"])))
        if key not in bucket:
            bucket.append(key)
    out = {}
    if picked["boost"]:
        out["boost_quality"] = float(np.mean([
            estimate_boost(graphs[g], seeds, chosen, np.random.default_rng(QUALITY_SEED), runs)
            for g, seeds, chosen in picked["boost"]
        ]))
    if picked["seed"]:
        out["seed_quality"] = float(np.mean([
            estimate_sigma(graphs[g], chosen, (), np.random.default_rng(QUALITY_SEED), runs)
            for g, _none, chosen in picked["seed"]
        ]))
    return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Shared scaffolding; subclasses define the session and the rounds."""

    name = ""
    # setup_s is the median of this many set-ups.  The cheaper the set-up,
    # the more of them: one of a few milliseconds moves with every
    # scheduler hiccup on a shared host.
    setup_repeats = 41
    # boost_quality scores this algorithm's answers only: the small
    # prr_boost and degree_global answers of the mixed rounds differ in
    # quality by more than the metric's bound, so a mean over the mix
    # would move with the mix.
    quality_algorithm = "prr_boost_lb"

    def __init__(self, seed: int, scale: str, workdir: str, client) -> None:
        self.cfg = CONFIG[self.name][scale]
        self.workdir = workdir
        self.client = client
        self.input_rng = np.random.default_rng([seed, 0])
        self.query_rng = np.random.default_rng([seed, 1])
        self.session = None
        self.rounds: List[List[Answer]] = []

    # -- inputs -------------------------------------------------------
    def generate(self) -> None:
        cfg = self.cfg
        self.shape = graph_shape(cfg["graph"])
        self.n = self.shape[0]
        self.order = self.input_rng.permutation(len(self.shape[1]))
        self.graph_args = reorder(self.shape, self.order)
        # Nodes by out-degree, highest first.
        out_degree = np.bincount(self.shape[1], minlength=self.n)
        self.by_degree = [int(v) for v in np.argsort(-out_degree, kind="stable")]
        self.seed_set = sorted(self.by_degree[: cfg["seeds"]])

    def rng_seed(self) -> int:
        return int(self.query_rng.integers(1, 2**31))

    def budget(self, samples: int, workers: int = 1, mc_runs: int = 1000) -> dict:
        return {"max_samples": samples, "epsilon": 0.5, "ell": 1.0,
                "mc_runs": mc_runs, "workers": workers}

    def boost_query(self, algorithm: str, k: int, samples: int, **budget) -> dict:
        return {"type": "boost", "algorithm": algorithm, "seeds": self.seed_set,
                "k": k, "rng_seed": self.rng_seed(), "budget": self.budget(samples, **budget)}

    def seed_query(self, algorithm: str, k: int, samples: int, **budget) -> dict:
        return {"type": "seed", "algorithm": algorithm, "k": k,
                "rng_seed": self.rng_seed(), "budget": self.budget(samples, **budget)}

    # -- lifecycle ----------------------------------------------------
    def open(self) -> None:
        """Build the graph and open its session (engine warm-up)."""
        from repro.api import Session
        from repro.graphs import DiGraph

        self.session = Session(DiGraph(*self.graph_args))

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def run_query(self, query: dict, session=None) -> Answer:
        """One ``Session.run`` call, timed as the client sees it."""
        from repro.api import query_from_dict

        typed = query_from_dict(query)
        session = self.session if session is None else session
        try:
            result, latency = self.client.call(session.run, typed)
        except Exception as exc:  # a failed query is counted, not fatal
            return Answer(query, math.inf, None, error=f"{type(exc).__name__}: {exc}")
        return Answer(query, latency, result.to_dict())

    def round(self) -> List[Answer]:
        raise NotImplementedError

    def play(self) -> List[Answer]:
        answers = self.round()
        self.rounds.append(answers)
        return answers

    # -- outputs ------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Program counters read through its stats() surfaces."""
        return {}

    def layer_metrics(self) -> Dict[str, float]:
        health = self.session.runtime_health()
        return {
            "storage.resident_mb": self.session.graph.storage_info()["resident_bytes"] / 2**20,
            "core.parallel.degraded": float(bool(health and health.degraded)),
        }

    def rerun_check(self) -> List[str]:
        """Re-running the first timed query gives the same envelope."""
        first = self.rounds[0][0]
        again = self.run_query(first.query)
        if same_answer(first.envelope, again.envelope):
            return []
        return [f"{first.algorithm}: re-run with the same rng_seed changed the envelope"]

    def checks(self) -> List[str]:
        return self.rerun_check()

    def quality_graphs(self) -> list:
        from repro.graphs import DiGraph

        return [DiGraph(*self.shape)]

    def quality(self) -> Dict[str, float]:
        """Quality of the answers of the first ``quality_rounds`` rounds.

        Every run plays those rounds whatever its speed, so a change that
        only makes queries faster or slower scores the same answers."""
        answers = [ans for played in self.rounds[: self.cfg["quality_rounds"]]
                   for ans in played]
        return mean_quality(self.quality_graphs(), answers, self.quality_algorithm,
                            self.cfg["mc_runs"])


class PrrDigg(Workload):
    """``prr_boost`` (k=20, top-20 out-degree seeds) on digg-like,
    workers=1, one query a round."""

    name = "prr-digg-w1"
    quality_algorithm = "prr_boost"

    def round(self) -> List[Answer]:
        cfg = self.cfg
        return [self.run_query(self.boost_query("prr_boost", cfg["k"], cfg["samples"]))]


class LbImm(Workload):
    """``prr_boost_lb`` and ``imm`` at 3:1 on the 10k/52k graph, workers=1."""

    name = "lbimm-10k-w1"
    setup_repeats = 21

    def round(self) -> List[Answer]:
        cfg = self.cfg
        lb = lambda: self.boost_query("prr_boost_lb", cfg["k"], cfg["lb_samples"])  # noqa: E731
        imm = self.seed_query("imm", cfg["k_imm"], cfg["imm_samples"])
        return [self.run_query(q) for q in (lb(), imm, lb(), lb())]


class StoreWorkload(Workload):
    """A workload on the 20k/130k graph, opened from a graph store."""

    setup_repeats = 15

    def generate(self) -> None:
        from repro.graphs import DiGraph
        from repro.storage import save_graph

        super().generate()
        self.store = os.path.join(self.workdir, f"{self.name}.rpgs")
        save_graph(DiGraph(*self.graph_args), self.store)


class Serve(StoreWorkload):
    """NDJSON lines through ``serve_ndjson`` with cache, admission and writes.

    Writes alternate the graph's probabilities p with WRITE_SCALE * p, so
    answers carry graph version 0 (as stored) or 1 (scaled)."""

    name = "serve-20k-w2"

    def generate(self) -> None:
        from repro.graphs import boost_probability

        super().generate()
        p, pp = self.shape[3:]
        scaled = np.clip(p * WRITE_SCALE, 1e-6, 0.999)
        # Both versions' (p, pp) in the shape's edge order.
        self.probabilities = [(p, pp), (scaled, boost_probability(scaled, BETA))]
        self.version = 0
        # The eval query scores the top out-degree non-seed nodes.
        taken = set(self.seed_set)
        self.eval_boost = [v for v in self.by_degree if v not in taken][: self.cfg["k_small"]]
        self.hit_problems: List[str] = []

    def open(self) -> None:
        from repro.api import AdmissionPolicy, ResultCache, Session

        self.session = Session.from_store(
            self.store, mode="mmap", cache=ResultCache(capacity=4096),
            admission=AdmissionPolicy(reject_units=1e30, queue_units=1e30),
        )
        self.session.ensure_runtime(2)
        self.version = 0

    def write(self, version: int) -> None:
        self.version = version
        p, pp = self.probabilities[version]
        self.session.graph.update_probabilities(p[self.order], pp[self.order])

    def serve_line(self, payload) -> List[dict]:
        from repro.api import serve

        out = io.StringIO()
        serve.serve_ndjson(self.session, io.StringIO(json.dumps(payload) + "\n"), out)
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def send(self, payload) -> List[Answer]:
        queries = payload if isinstance(payload, list) else [payload]
        hits = self.session.cache.hits
        try:
            envelopes, latency = self.client.call(self.serve_line, payload)
        except Exception as exc:  # a failed line is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            return [Answer(q, math.inf, None, self.version, error=error) for q in queries]
        hit = self.session.cache.hits > hits
        return [Answer(q, latency, env, self.version, hit=hit)
                for q, env in zip(queries, envelopes)]

    def round(self) -> List[Answer]:
        cfg = self.cfg
        w2 = dict(workers=2)
        evaluate = {"type": "eval", "seeds": self.seed_set, "boost": self.eval_boost,
                    "metric": "boost", "rng_seed": self.rng_seed(),
                    "budget": self.budget(1000, mc_runs=cfg["eval_runs"], **w2)}
        line = [
            self.boost_query("prr_boost_lb", cfg["k"], cfg["lb_samples"], **w2),
            self.boost_query("prr_boost_lb", cfg["k"], cfg["lb_samples"], **w2),
            self.seed_query("imm", cfg["k_imm"], cfg["imm_samples"], **w2),
            self.seed_query("imm", cfg["k_imm"], cfg["imm_samples"], **w2),
            self.boost_query("prr_boost", cfg["k_small"], cfg["pb_samples"], **w2),
            evaluate,
        ]
        batch = self.send(line)
        answers = list(batch)
        for pos in (0, 2):  # repeats of two batched queries: cache hits
            (repeat,) = self.send(line[pos])
            if not repeat.hit or not same_answer(repeat.envelope, batch[pos].envelope):
                self.hit_problems.append(
                    f"{repeat.algorithm}: repeated line did not return the cached envelope")
            answers.append(repeat)
        # degree_global scores every node in Python per chosen node, so its
        # k stays small; its Monte-Carlo ranking is what the round needs.
        answers += self.send(self.boost_query("degree_global", cfg["k_rank"], 1000,
                                              mc_runs=cfg["rank_runs"], **w2))
        answers += self.send(self.seed_query("ssa", cfg["k"], cfg["ssa_samples"], **w2))
        self.write(1 - self.version)
        return answers

    def counters(self) -> Dict[str, float]:
        stats = self.session.cache.stats()
        health = self.session.runtime_health()
        return {
            "api.cache.hits": stats["hits"],
            "api.cache.misses": stats["misses"],
            "core.parallel.restarts": health.restarts if health else 0,
            "core.parallel.retries": health.retries if health else 0,
        }

    def rerun_check(self) -> List[str]:
        first = self.rounds[0][0]
        self.session.cache.clear()
        if self.version != first.graph:
            self.write(first.graph)
        again = self.run_query(first.query)
        if same_answer(first.envelope, again.envelope):
            return []
        return [f"{first.algorithm}: uncached re-run changed the envelope"]

    def checks(self) -> List[str]:
        return list(self.hit_problems) + self.rerun_check()

    def quality_graphs(self) -> list:
        from repro.graphs import DiGraph

        n, src, dst = self.shape[:3]
        return [DiGraph(n, src, dst, p, pp) for p, pp in self.probabilities]


class Dist(StoreWorkload):
    """Queries sharded over two localhost ``repro dist-worker`` hosts."""

    name = "dist-20k-2host"
    setup_repeats = 5

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.hosts: List[subprocess.Popen] = []

    def spawn_hosts(self) -> List[str]:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for _ in range(2):
            self.hosts.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "dist-worker", "--graph-store",
                 self.store, "--port", "0", "--workers", "1"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
            ))
        addrs = []
        deadline = time.monotonic() + HOST_READY_TIMEOUT
        for proc in self.hosts:
            ready, _w, _x = select.select([proc.stdout], [], [],
                                          max(deadline - time.monotonic(), 0))
            line = proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("dist-worker host did not report ready")
            info = json.loads(line)["listening"]
            addrs.append(f"{info['host']}:{info['port']}")
        return addrs

    def stop_hosts(self) -> None:
        for proc in self.hosts:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.hosts:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.hosts = []

    def open(self) -> None:
        from repro.api import Session

        tracer = self.client.tracer
        with tracer.span("dist.hosts_up"):
            addrs = self.spawn_hosts()
        with tracer.span("dist.connect"):
            self.session = Session.from_store(self.store, mode="mmap", hosts=addrs)

    def close(self) -> None:
        super().close()
        self.stop_hosts()

    def round(self) -> List[Answer]:
        cfg = self.cfg
        w2 = dict(workers=2)
        lb = lambda: self.boost_query("prr_boost_lb", cfg["k"], cfg["lb_samples"], **w2)  # noqa: E731
        queries = [lb(), self.seed_query("imm", cfg["k_imm"], cfg["imm_samples"], **w2), lb(),
                   self.boost_query("prr_boost", cfg["k_small"], cfg["pb_samples"], **w2), lb()]
        return [self.run_query(q) for q in queries]

    def counters(self) -> Dict[str, float]:
        health = self.session.runtime_health()
        return {"dist.host_losses": health.restarts, "dist.reassigned": health.retries}

    def checks(self) -> List[str]:
        """Re-run on the hosts, then against a local workers=2 session:
        the chunked stream must not depend on where chunks ran."""
        from repro.api import Session

        problems = self.rerun_check()
        firsts = {}
        for ans in self.rounds[0]:
            firsts.setdefault(ans.algorithm, ans)
        with Session.from_store(self.store) as local:
            for ans in firsts.values():
                again = self.run_query(ans.query, session=local)
                if not same_answer(ans.envelope, again.envelope):
                    problems.append(f"{ans.algorithm}: hosts and local workers=2 disagree")
        return problems


WORKLOADS = {cls.name: cls for cls in (PrrDigg, LbImm, Serve, Dist)}
