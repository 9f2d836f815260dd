"""Parallel sampling on a persistent pool of forked local hosts.

The paper parallelizes PRR-graph generation with OpenMP over eight
threads.  The Python analogue here is a process-based runtime built for
repeated use:

* **Graph by inheritance** — the pool forks its hosts, and each one
  reads the graph it inherited (copy-on-write): nothing is copied,
  pickled or published, and a pristine store stays one mmap'd
  page-cache image shared by every host.
* **Persistent hosts** — one pool per graph version survives across
  calls (IMM doubling rounds, repeated ``prr_boost`` runs, …).  A host
  answers each chunk as soon as it has computed it and the coordinator
  refills its window, so cheap chunks (activated/hopeless roots) never
  leave a host idling behind a static partition.
* **One transport** — local hosts speak the distributed protocol over a
  ``socket.socketpair()``, so the local pool and remote ``repro
  dist-worker`` hosts share one coordinator,
  :class:`repro.dist.DistributedRuntime`, the one transport subclass of
  :class:`ChunkExecutor`: one result format, and one liveness model, in
  which a host's death is an EOF.  Every :meth:`ChunkExecutor.run` gets
  its own tag, so concurrent callers — the serving tier's overlapped
  ``run_many`` lanes — pipeline their chunks onto one pool.

Determinism: one sampling stream.  Every draw first takes all of its
samples' ``(root, world_seed)`` pairs from the query's RNG, in the
order the in-process lane kernels consume it
(:func:`~repro.engine.lanes.draw_lane_inputs`), and evaluating a pair
is a pure function.  Only then does :func:`_run_chunks` decide where
the pairs are evaluated: in one in-process call (the default, and
always below :data:`PARALLEL_MIN_SAMPLES`), or sliced into
``(chunk_id, roots, world_seeds)`` jobs of at most :data:`CHUNK_SIZE`
samples on the local pool or a bound distributed runtime, merged in
chunk-id order.  A collection therefore depends only on the RNG state
and ``count`` — never on worker count, host count, chunk size,
scheduling, or whether a fallback ran.

The same contract makes the runtime *supervised* rather than merely
fail-fast.  :class:`ChunkExecutor` holds the bookkeeping — per-run
stashes merged in submission order, first-answer-wins delivery, the
:data:`MAX_TASK_RETRIES` bound, the degraded fallback — and a failure is
scoped to its run: a chunk that raises, or exhausts its retries, fails
the one ``run`` (query) it belongs to.  A lost chunk is re-executed
bit-identically elsewhere, a dead local host is respawned, and after
:data:`MAX_CONSECUTIVE_DEATHS` deaths of one host slot in a row the
runtime **degrades**: runs finish serially in-process, and later
dispatches bypass the pool — same results, no recovery storm.
:func:`runtime_health` snapshots the supervision counters
(:class:`RuntimeHealth`), and every recovery path is deterministically
drivable via :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import atexit
import itertools
import math
import multiprocessing as mp
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import LANE_WIDTH, SamplingEngine
from ..engine.coverage import csr_to_frozensets
from ..engine.lanes import draw_lane_inputs
from ..graphs.digraph import DiGraph
from .prr import PRRArena, sample_prr_lanes

__all__ = [
    "parallel_prr_collection",
    "parallel_critical_sets",
    "parallel_rr_csr",
    "ChunkExecutor",
    "RuntimeHealth",
    "runtime_health",
    "bind_distributed_runtime",
    "unbind_distributed_runtime",
    "distributed_runtime_for",
    "run_chunks_local",
    "get_runtime",
    "shutdown_runtime",
    "shutdown_runtime_for",
    "runtime_is_alive",
    "fork_available",
    "resolve_sampler_workers",
    "PARALLEL_MIN_SAMPLES",
]

# Samples per streamed chunk: small enough that stragglers rebalance,
# large enough that per-chunk overhead (one chunk and one result frame)
# stays negligible.  Only where samples are evaluated depends on it,
# never their values.
CHUNK_SIZE = 256

# Below this many samples a sampler dispatch stays in-process: a chunk
# round-trip costs more than two lane batches.
PARALLEL_MIN_SAMPLES = 512

# Supervision bounds, read at use time.  A lost chunk is resent at most
# MAX_TASK_RETRIES times.  A dead local host is respawned after
# RETRY_BACKOFF_BASE seconds, doubled per death of its slot in a row;
# after MAX_CONSECUTIVE_DEATHS such deaths the pool degrades to the
# in-process serial path instead of respawning further.
MAX_TASK_RETRIES = 3
RETRY_BACKOFF_BASE = 0.05
MAX_CONSECUTIVE_DEATHS = 3
# Straggler bound: a chunk still unanswered this many seconds after its
# host's previous answer is resent (its late duplicate, if any, is
# dropped on arrival).  Off: chunk cost is workload-dependent and a
# false positive doubles work.  When set, it catches lost results from
# hosts that stay alive and answer nothing after them.
TASK_TIMEOUT: Optional[float] = None


def fork_available() -> bool:
    """Whether the platform supports the fork start method."""
    return "fork" in mp.get_all_start_methods()


def resolve_sampler_workers(workers: int | None) -> int:
    """Effective worker count for a sampler: explicit value, or 1 (serial)
    when unset or the platform lacks fork."""
    if workers is None or workers <= 1 or not fork_available():
        return 1
    return int(workers)


def _resolve_workers(workers: int | None) -> int:
    return workers or min(os.cpu_count() or 1, 8)


Job = Tuple[int, np.ndarray, np.ndarray]  # (chunk_id, roots, world_seeds)


def _draw(kind: str, n: int, rng, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(root, world_seed)`` pair of a ``kind`` draw, taken from
    ``rng`` (a Generator, or an int seed) in the order the in-process
    lane kernel would take them: critical lanes draw per
    :data:`~repro.engine.LANE_WIDTH` block, RR and PRR lanes in one."""
    block = LANE_WIDTH if kind == "critical" else None
    return draw_lane_inputs(np.random.default_rng(rng), n, count, block=block)


def _chunk_jobs(roots: np.ndarray, world_seeds: np.ndarray) -> List[Job]:
    """Contiguous ``(chunk_id, roots, world_seeds)`` slices of one draw,
    each at most :data:`CHUNK_SIZE` samples.  Results merged in chunk-id
    order equal one in-process evaluation of the whole draw."""
    if roots.size == 0:
        return []
    num_chunks = math.ceil(roots.size / CHUNK_SIZE)
    return [
        (cid, r, s)
        for cid, (r, s) in enumerate(
            zip(np.array_split(roots, num_chunks),
                np.array_split(world_seeds, num_chunks))
        )
    ]


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _run_task(graph, kind: str, roots, world_seeds, params) -> List[np.ndarray]:
    """Evaluate the samples of ``(roots, world_seeds)`` on ``graph`` as a
    flat array list — a pure function of its arguments."""
    size = len(roots)
    if kind == "prr":
        seed_set, k = params
        arena = sample_prr_lanes(
            graph, frozenset(seed_set), k, None, size,
            roots=roots, world_seeds=world_seeds,
        )
        return list(arena.payload()[1:])  # n is implicit
    engine = SamplingEngine.for_graph(graph)
    if kind == "critical":
        (seed_set,) = params
        return list(engine.critical_lane_csr(
            frozenset(seed_set), None, size, roots=roots, world_seeds=world_seeds
        ))
    if kind == "rr":
        return list(engine.rr_lane_csr(
            None, size, roots=roots, world_seeds=world_seeds
        ))
    raise ValueError(f"unknown task kind: {kind}")


@dataclass(frozen=True)
class RuntimeHealth:
    """A point-in-time snapshot of the runtime's supervision state.

    ``workers`` is the summed capacity of the configured hosts (one per
    local host), ``workers_alive`` that of the hosts still connected;
    ``restarts`` counts local host respawns plus remote host losses,
    ``retries`` chunk re-assignments, and ``degraded`` whether the
    runtime has given up on its hosts and fallen back to the in-process
    path (results stay bit-identical — only throughput changes).
    ``hosts`` carries one counter dict per configured host.
    """

    workers: int
    workers_alive: int
    restarts: int
    retries: int
    degraded: bool
    hosts: Optional[Tuple[Dict[str, Any], ...]] = None

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "workers": int(self.workers),
            "workers_alive": int(self.workers_alive),
            "restarts": int(self.restarts),
            "retries": int(self.retries),
            "degraded": bool(self.degraded),
        }
        if self.hosts is not None:
            out["hosts"] = [dict(h) for h in self.hosts]
        return out


# ----------------------------------------------------------------------
# Chunk executor: the bookkeeping every remote backend shares
# ----------------------------------------------------------------------
class _Run:
    """One :meth:`ChunkExecutor.run` call's bookkeeping."""

    __slots__ = ("kind", "params", "jobs", "pending", "stash", "attempts",
                 "error")

    def __init__(self, kind: str, jobs: Sequence[Job], params: tuple) -> None:
        self.kind = kind
        self.params = params
        # chunk id -> (roots, world_seeds), in submission order: all a
        # resend or the degraded fallback needs to re-execute a chunk.
        self.jobs = {cid: (roots, seeds) for cid, roots, seeds in jobs}
        self.pending = set(self.jobs)  # chunk ids still owed an answer
        self.stash: Dict[int, List[np.ndarray]] = {}
        self.attempts: Dict[int, int] = {}  # resends per chunk id
        self.error: Optional[str] = None


class ChunkExecutor:
    """Runs a draw's ``(chunk_id, roots, world_seeds)`` jobs somewhere
    else and returns their results in submission order.

    The bookkeeping lives here and only here; a backend supplies the
    transport.  Every :meth:`run` gets an executor-unique tag, so
    concurrent callers (the serving tier's overlapped ``run_many``
    lanes) share one backend and each waits only on its own chunks.

    * **First answer wins** — :meth:`_deliver` stashes a chunk's result
      only while the chunk is owed; a late duplicate of a resent chunk is
      dropped (identical bytes anyway: a chunk is a pure function of its
      job).
    * **Bounded retries** — :meth:`_retry` allows a lost chunk
      :data:`MAX_TASK_RETRIES` resends.
    * **Failures are scoped to their run** — a chunk that raises
      (:meth:`_fail_run`) or exhausts its retries fails the one ``run``
      it belongs to; the executor stays open for every other caller.
    * **Degrade** — once the backend calls :meth:`_degrade`, every
      waiting or later run claims its unanswered chunks and evaluates
      them through :meth:`_fallback`: same results, by the determinism
      contract.  :attr:`active` turns false, so the entry points stop
      routing draws here.

    Subclasses implement :meth:`_send` (ship chunks of a run) and
    :meth:`_fallback`, and call :meth:`_deliver`, :meth:`_retry`,
    :meth:`_fail_run` and :meth:`_degrade` with :attr:`_cv` held.
    """

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._runs: Dict[int, _Run] = {}  # tag -> run
        self._tags = itertools.count()
        self._degraded = False
        self._closed = False
        self.retries = 0  # resends, over all runs

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def active(self) -> bool:
        """Whether chunk dispatch should route here (open, not degraded)."""
        return not self._closed and not self._degraded

    def run(
        self, kind: str, jobs: Sequence[Job], params: tuple
    ) -> List[List[np.ndarray]]:
        """Execute ``jobs`` and return their results in submission order.

        Thread-safe.  Raises :class:`RuntimeError` if a chunk of this run
        fails or the executor shuts down before the run completes.
        """
        run = _Run(kind, jobs, params)
        with self._cv:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is shut down")
            tag = next(self._tags)
            self._runs[tag] = run
        try:
            self._send(tag, run, list(run.jobs))
            with self._cv:
                # Every state change notifies; the timeout is a backstop.
                while run.pending and run.error is None and self.active:
                    self._cv.wait(0.5)
                if run.error is not None:
                    raise RuntimeError(run.error)
                if run.pending and self._closed:
                    raise RuntimeError(f"{type(self).__name__} is shut down")
                # Degraded: claim the unanswered chunks, so late answers
                # are no longer owed and nothing runs twice.
                claimed = [(cid, *run.jobs[cid])
                           for cid in run.jobs if cid in run.pending]
                run.pending.clear()
            if claimed:
                parts = self._fallback(kind, claimed, params)
                for (cid, _roots, _seeds), arrays in zip(claimed, parts):
                    run.stash[cid] = arrays
            return [run.stash[cid] for cid in run.jobs]
        finally:
            with self._cv:
                del self._runs[tag]

    # Backend hooks ----------------------------------------------------
    def _send(self, tag: int, run: _Run, cids: Sequence[int]) -> None:
        """Ship chunks ``cids`` of ``run`` (tagged ``tag``) to the
        backend.  Called without :attr:`_cv` held."""
        raise NotImplementedError

    def _fallback(
        self, kind: str, jobs: Sequence[Job], params: tuple
    ) -> List[List[np.ndarray]]:
        """Evaluate a degraded run's unanswered ``jobs`` (in submission
        order) without the backend."""
        raise NotImplementedError

    # Bookkeeping (caller holds _cv) ------------------------------------
    def _owed(self, tag: int, cid: int) -> Optional[_Run]:
        """The run still owed chunk ``cid`` of ``tag``, or ``None``."""
        run = self._runs.get(tag)
        if run is None or run.error is not None or cid not in run.pending:
            return None
        return run

    def _deliver(self, tag: int, cid: int, arrays: List[np.ndarray]) -> bool:
        """Stash the first answer for an owed chunk; ``False`` for a late
        duplicate or a chunk of a finished run."""
        run = self._owed(tag, cid)
        if run is None:
            return False
        run.pending.discard(cid)
        run.stash[cid] = arrays
        if not run.pending:
            self._cv.notify_all()
        return True

    def _retry(self, tag: int, cid: int, why: str) -> int:
        """Count one loss of chunk ``cid`` of ``tag``: the resend number
        (1, 2, ...) when the backend should resend it, ``0`` when it is
        no longer owed or has exhausted :data:`MAX_TASK_RETRIES`, which
        fails its run."""
        run = self._owed(tag, cid)
        if run is None:
            return 0
        attempts = run.attempts[cid] = run.attempts.get(cid, 0) + 1
        if attempts > MAX_TASK_RETRIES:
            self._fail_run(tag, f"chunk {cid} of run {tag} lost {attempts} "
                                f"times (last cause: {why}); "
                                "retries exhausted")
            return 0
        self.retries += 1
        return attempts

    def _fail_run(self, tag: int, why: str) -> None:
        """Fail run ``tag`` (if still running) with ``why``."""
        run = self._runs.get(tag)
        if run is not None and run.error is None:
            run.error = why
            self._cv.notify_all()

    def _degrade(self) -> None:
        self._degraded = True
        self._cv.notify_all()

    def _close(self) -> bool:
        """Mark the executor closed, failing waiting runs; whether this
        call closed it (so teardown runs once)."""
        with self._cv:
            if self._closed:
                return False
            self._closed = True
            self._cv.notify_all()
            return True


_runtime: Optional[Any] = None  # the local pool, a DistributedRuntime
_RUNTIME_LOCK = threading.Lock()


def get_runtime(graph: DiGraph, workers: int):
    """The cached local pool for ``graph`` (created/replaced on demand).

    One pool is kept alive at a time — repeated calls with the same
    graph (at its current :attr:`~repro.graphs.DiGraph.version`) and a
    compatible worker count reuse the warm pool, which is what makes
    multi-round algorithms (IMM doubling, repeated boosts) pay pool
    startup once per graph instead of once per call.  A version bump
    (in-place probability update) retires the pool: its hosts hold the
    pre-mutation arrays.  Thread-safe — overlap lanes race here on first
    parallel dispatch.
    """
    global _runtime
    with _RUNTIME_LOCK:
        if (
            _runtime is not None
            and not _runtime._closed
            and _runtime.graph is graph
            and _runtime.graph_version == getattr(graph, "version", 0)
            and _runtime.capacity >= workers
        ):
            return _runtime
        if _runtime is not None:
            _runtime.shutdown()
        from ..dist.coordinator import DistributedRuntime

        _runtime = DistributedRuntime.local(graph, workers)
        return _runtime


def shutdown_runtime() -> None:
    """Tear down the cached runtime (idempotent; also runs at exit)."""
    global _runtime
    if _runtime is not None:
        _runtime.shutdown()
        _runtime = None


def shutdown_runtime_for(graph) -> bool:
    """Tear down the cached runtime iff it is bound to ``graph``.

    The hook :meth:`repro.api.Session.close` uses to release the host
    processes it is responsible for without disturbing a runtime some
    other graph's caller still owns.  Returns whether a runtime was shut
    down.
    """
    global _runtime
    if _runtime is not None and _runtime.graph is graph:
        shutdown_runtime()
        return True
    return False


def runtime_is_alive(graph) -> bool:
    """Whether the cached runtime exists, is open, and serves ``graph``."""
    return _runtime is not None and not _runtime._closed and _runtime.graph is graph


def runtime_health(graph=None) -> Optional[RuntimeHealth]:
    """Supervision snapshot of the cached runtime, or ``None``.

    ``None`` means no runtime is live (serial configurations, fork-less
    platforms, post-shutdown) — or, when ``graph`` is given, that the
    live runtime serves a different graph.  A graph with a bound
    remote-host runtime reports that runtime's health instead (see
    :mod:`repro.dist`).  The session/serving tiers report
    this through ``Session.stats()`` and ``/healthz``.
    """
    if graph is not None:
        dist = distributed_runtime_for(graph)
        if dist is not None:
            return dist.health()
    rt = _runtime
    if rt is None or rt._closed:
        return None
    if graph is not None and rt.graph is not graph:
        return None
    return rt.health()


# ----------------------------------------------------------------------
# Distributed runtime binding
# ----------------------------------------------------------------------
# Graphs with a remote-host sampling runtime attached (repro.dist) are
# registered here so _run_chunks below can route batch work to the
# coordinator.  repro.dist imports this module for the executor and the
# job/payload contract, so this module imports repro.dist only when it
# builds a pool.  The registry holds ChunkExecutors that also report
# ``.health()``.
_DIST_RUNTIMES: Dict[int, Any] = {}
_DIST_LOCK = threading.Lock()


def bind_distributed_runtime(graph, runtime) -> None:
    """Route ``graph``'s chunked sampling through ``runtime``.

    Subsequent dispatched draws (``parallel_rr_csr`` and friends) go to
    the distributed coordinator instead of the local pool while the
    binding holds.  One binding per graph; rebinding replaces."""
    with _DIST_LOCK:
        _DIST_RUNTIMES[id(graph)] = runtime


def unbind_distributed_runtime(graph) -> bool:
    """Drop ``graph``'s distributed binding (idempotent)."""
    with _DIST_LOCK:
        return _DIST_RUNTIMES.pop(id(graph), None) is not None


def distributed_runtime_for(graph) -> Optional[Any]:
    """The distributed runtime bound to ``graph``, if any (even a
    degraded one, so health reports keep describing it)."""
    with _DIST_LOCK:
        return _DIST_RUNTIMES.get(id(graph))


atexit.register(shutdown_runtime)


def _run_chunks(
    graph: DiGraph, kind: str, rng, count: int, params: tuple, workers: int
) -> List[List[np.ndarray]]:
    """Draw ``count`` samples of ``kind`` from ``rng`` and evaluate them.

    The one dispatch decision of every sampler.  The whole draw runs as
    one in-process call, unless it has at least
    :data:`PARALLEL_MIN_SAMPLES` samples and either a distributed
    runtime is active for ``graph`` or ``workers > 1`` with fork; then
    its :func:`_chunk_jobs` run there and come back in chunk order.  The
    pairs are drawn before the decision, so every path returns the same
    arrays; a degraded runtime is bypassed the same way.
    """
    roots, world_seeds = _draw(kind, graph.n, rng, count)
    if count >= PARALLEL_MIN_SAMPLES:
        dist = distributed_runtime_for(graph)
        jobs = _chunk_jobs(roots, world_seeds)
        if dist is not None and dist.active:
            return dist.run(kind, jobs, params)
        if workers > 1 and fork_available():
            return run_chunks_local(graph, kind, jobs, params, workers)
    return [_run_task(graph, kind, roots, world_seeds, params)]


def run_chunks_local(
    graph: DiGraph,
    kind: str,
    jobs: Sequence[Job],
    params: tuple,
    workers: int,
) -> List[List[np.ndarray]]:
    """Run chunk jobs on the local pool, or serially in-process when
    ``workers <= 1`` / no fork — never through a distributed binding.
    This is what worker hosts and the degraded fallbacks call, so a
    host that happens to share an interpreter with a coordinator can
    never bounce its own chunks back over the wire."""
    if workers > 1 and fork_available() and len(jobs) > 1:
        rt = get_runtime(graph, workers)
        if not rt.degraded:
            return rt.run(kind, jobs, params)
    return [
        _run_task(graph, kind, roots, world_seeds, params)
        for _cid, roots, world_seeds in jobs
    ]


def _columns(parts: List[List[np.ndarray]]) -> tuple:
    """Chunk results joined array by array, in chunk order."""
    if len(parts) == 1:
        return tuple(parts[0])
    return tuple(np.concatenate(column) for column in zip(*parts))


# ----------------------------------------------------------------------
# Public sampling entry points
# ----------------------------------------------------------------------
# Each takes the query's RNG (a Generator, or an int seed) and returns
# the samples the in-process lane kernel draws from it, at any worker
# count, host count or chunk size.  ``workers=None`` means one per core.
def parallel_prr_payloads(
    graph: DiGraph,
    seeds,
    k: int,
    count: int,
    rng=0,
    workers: int | None = None,
) -> List[tuple]:
    """Chunk-ordered arena payloads for ``count`` PRR-graphs — the form
    :class:`repro.core.boost.PRRSampler` merges into its arena."""
    params = (tuple(frozenset(int(s) for s in seeds)), k)
    parts = _run_chunks(
        graph, "prr", rng, count, params, _resolve_workers(workers)
    )
    return [(graph.n, *arrays) for arrays in parts]


def parallel_prr_collection(
    graph: DiGraph,
    seeds,
    k: int,
    count: int,
    rng=0,
    workers: int | None = None,
) -> PRRArena:
    """Sample ``count`` PRR-graphs into one :class:`PRRArena`; index it
    for :class:`PRRGraph` views or feed it directly to the vectorized
    estimators."""
    return PRRArena.from_payloads(
        parallel_prr_payloads(graph, seeds, k, count, rng, workers)
    )


def parallel_critical_csr(
    graph: DiGraph,
    seeds,
    count: int,
    rng=0,
    workers: int | None = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``count`` critical sets (the PRR-Boost-LB payload) as
    ``(status_codes, counts, values, explored)``."""
    params = (tuple(frozenset(int(s) for s in seeds)),)
    return _columns(_run_chunks(
        graph, "critical", rng, count, params, _resolve_workers(workers)
    ))


def parallel_critical_sets(
    graph: DiGraph,
    seeds,
    count: int,
    rng=0,
    workers: int | None = None,
) -> List[FrozenSet[int]]:
    """:func:`parallel_critical_csr` as one frozenset per sample."""
    _status, counts, values, _explored = parallel_critical_csr(
        graph, seeds, count, rng, workers
    )
    return csr_to_frozensets(counts, values)


def parallel_rr_csr(
    graph: DiGraph,
    count: int,
    rng=0,
    workers: int | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` RR-sets as one ``(counts, values)`` CSR — the
    shape :meth:`repro.engine.coverage.CoverageIndex.extend_csr`
    ingests."""
    return _columns(
        _run_chunks(graph, "rr", rng, count, (), _resolve_workers(workers))
    )
