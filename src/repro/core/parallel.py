"""Parallel sampling on a persistent zero-copy shared-memory runtime.

The paper parallelizes PRR-graph generation with OpenMP over eight
threads.  The Python analogue here is a process-based runtime built for
repeated use:

* **Zero-copy graph publication** — the graph's CSR arrays and edge
  probabilities are written once into a single
  :mod:`multiprocessing.shared_memory` segment
  (:class:`SharedGraphRuntime`); workers attach by name and build their
  :class:`~repro.engine.SamplingEngine` over read-only views, so neither
  pool startup nor any task pays a per-worker graph pickle.
* **Persistent pull-scheduled workers** — one pool per graph survives
  across calls (IMM doubling rounds, repeated ``prr_boost`` runs, …).
  Tasks are small sample chunks on one shared queue; an idle worker
  steals the next chunk the moment it finishes, so cheap chunks
  (activated/hopeless roots) never leave a worker idling behind a static
  partition.
* **Tag-multiplexed runs** — every :meth:`ChunkExecutor.run` gets an
  executor-unique tag and a collector thread demultiplexes results per
  tag, so concurrent callers — the serving tier's overlapped
  ``run_many`` lanes — pipeline independent queries' sampling chunks
  onto one pool instead of taking turns.
* **Raw-buffer results** — workers sample with the lane kernels and ship
  flat arrays back (:class:`~repro.core.prr.PRRArena` payloads, critical
  or RR CSRs).  Large results travel through a per-result shared-memory
  segment — bytes, not pickled object graphs; small ones ride the result
  queue directly, which is cheaper than a segment round-trip.

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

One chunk executor: :class:`ChunkExecutor` holds the bookkeeping every
remote backend shares — per-run stashes merged in submission order,
first-answer-wins delivery, the :data:`MAX_TASK_RETRIES` bound, the
degraded fallback — and both the local pool
(:class:`SharedGraphRuntime`) and the multi-host coordinator
(:class:`repro.dist.DistributedRuntime`) subclass it, keeping only their
transport.  A failure is scoped to its run: a chunk that raises, or
exhausts its retries, fails the one ``run`` (query) it belongs to; the
executor stays open for every other caller.

Fault tolerance: the same determinism contract is what makes the
runtime *supervised* rather than merely fail-fast.  Workers announce
each chunk they pull (a claim message ahead of the result), so the
collector knows chunk ownership; a liveness sweep detects dead workers,
re-enqueues their unacknowledged chunks with bounded retries and
exponential backoff (re-executing a chunk is bit-identical — it is a
pure function of its roots and world seeds), and respawns replacements
against the already-published shared graph.  After
:data:`MAX_CONSECUTIVE_DEATHS` deaths of one worker slot in a row the
runtime **degrades** instead of raising: every run finishes its
remaining chunks serially in-process, and later dispatches bypass the
pool entirely — same results, no recovery storm.
:meth:`SharedGraphRuntime.health` snapshots the supervision counters
(:class:`RuntimeHealth`), and a process-wide shared-memory registry with
an ``atexit``/SIGTERM reaper (:func:`reap_shm_segments`) unlinks
orphaned ``repro-*`` segments even on abnormal exit.  Every recovery
path is deterministically drivable via :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import atexit
import heapq
import itertools
import math
import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import LANE_WIDTH, SamplingEngine
from ..engine.coverage import csr_to_frozensets
from ..engine.lanes import draw_lane_inputs
from ..graphs.digraph import CSRView, DiGraph
from ..testing import faults
from .prr import PRRArena, sample_prr_lanes

__all__ = [
    "parallel_prr_collection",
    "parallel_critical_sets",
    "parallel_rr_csr",
    "ChunkExecutor",
    "SharedGraphRuntime",
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
    "reap_shm_segments",
    "fork_available",
    "resolve_sampler_workers",
    "PARALLEL_MIN_SAMPLES",
]

# Samples per streamed chunk: small enough that stragglers rebalance,
# large enough that per-chunk overhead (one task and one result ship)
# stays negligible.  Only where samples are evaluated depends on it,
# never their values.
CHUNK_SIZE = 256

# Results below this many bytes ride the queue; larger ones go through a
# per-result shared-memory segment.
_SHM_RESULT_MIN = 1 << 18


# Below this many samples a sampler dispatch stays in-process: a chunk
# queue round-trip costs more than two lane batches.
PARALLEL_MIN_SAMPLES = 512

# Supervision bounds, read at use time.  A lost chunk is resent at most
# MAX_TASK_RETRIES times (by the local pool after an exponential backoff
# from RETRY_BACKOFF_BASE seconds); after MAX_CONSECUTIVE_DEATHS worker
# deaths with no successful result in between, the local pool degrades
# to the in-process serial path instead of respawning further.
MAX_TASK_RETRIES = 3
RETRY_BACKOFF_BASE = 0.05
MAX_CONSECUTIVE_DEATHS = 3
# Straggler bound: a *claimed* chunk with no result after this many
# seconds is resent (its late duplicate, if any, is dropped on arrival).
# Off: chunk cost is workload-dependent and a false positive doubles
# work.  When set, it catches lost results from workers that stay alive,
# which the liveness sweep cannot see.
TASK_TIMEOUT: Optional[float] = None

# How often the collector sweeps worker liveness / due retries when no
# results are arriving.  Bounds fault-detection latency, not result
# latency — waiting runs are woken when their last chunk arrives.
_POLL_INTERVAL = 0.2


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
# Shared-memory plumbing
# ----------------------------------------------------------------------
# Resource-tracker note: the runtime requires fork, so every process
# shares the master's tracker.  CPython's SharedMemory registers a name
# on open (a set add, idempotent across attachers) and unregisters it in
# unlink() — each segment here is unlinked exactly once by its consumer,
# so the ledger balances without any manual (un)registration.
#
# On top of that sits a process-wide *named-segment registry*: every
# segment is created under the ``repro-<master-pid>-…`` prefix and
# recorded in ``_shm_registry``; :func:`reap_shm_segments` (run at
# interpreter exit and on SIGTERM, callable any time after shutdown)
# unlinks whatever is left — including segments published by *workers*
# that died before the master could consume them, found by scanning
# ``/dev/shm`` for the shared prefix.  Normal operation unlinks every
# segment promptly; the reaper exists for abnormal exits.

_ArrayTable = List[Tuple[str, str, tuple, int]]

# The prefix is fixed at import time in the master, so forked workers
# inherit it and every segment of one process tree shares it.
_SHM_PREFIX = f"repro-{os.getpid():x}"
_shm_counter = itertools.count()
_shm_registry: set = set()
_SHM_REG_LOCK = threading.Lock()


def _create_shm(size: int) -> shared_memory.SharedMemory:
    """A fresh registered segment under this process tree's name prefix."""
    while True:
        name = f"{_SHM_PREFIX}-{os.getpid():x}-{next(_shm_counter):x}"
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - counter collision
            continue
        with _SHM_REG_LOCK:
            _shm_registry.add(name)
        return shm


def _unregister_shm(name: str) -> None:
    with _SHM_REG_LOCK:
        _shm_registry.discard(name)


def reap_shm_segments() -> List[str]:
    """Unlink every leftover ``repro-*`` segment of this process tree.

    Covers the registry (segments this process created) plus, on
    platforms exposing ``/dev/shm``, a prefix scan that also catches
    segments published by crashed workers.  Safe to call repeatedly;
    returns the names actually reaped.  Only call while no runtime of
    this process is live — the reaper cannot tell an orphan from a
    segment still in use by an open pool.
    """
    with _SHM_REG_LOCK:
        names = set(_shm_registry)
        _shm_registry.clear()
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        try:
            names.update(
                entry for entry in os.listdir(shm_dir)
                if entry.startswith(_SHM_PREFIX + "-")
            )
        except OSError:  # pragma: no cover - defensive
            pass
    reaped = []
    for name in sorted(names):
        try:
            seg = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            continue
        try:
            seg.close()
            seg.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - raced
            continue
        reaped.append(name)
    return reaped


_sigterm_installed = False


def _sigterm_reaper(signum, frame):  # pragma: no cover - signal path
    try:
        shutdown_runtime()
    except Exception:
        pass
    reap_shm_segments()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_sigterm_reaper() -> None:
    """Chain a SIGTERM reaper once, only over the default handler and
    only from the main thread — never clobber an application handler."""
    global _sigterm_installed
    if _sigterm_installed:
        return
    _sigterm_installed = True
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sigterm_reaper)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _publish_arrays(
    arrays: Dict[str, np.ndarray]
) -> Tuple[shared_memory.SharedMemory, _ArrayTable]:
    """Copy ``arrays`` into one fresh shared-memory segment.

    Returns the segment plus an offset table (name, dtype, shape, offset)
    that :func:`_attach_arrays` uses to rebuild zero-copy views.
    """
    table: _ArrayTable = []
    offset = 0
    contiguous = {}
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        contiguous[name] = arr
        table.append((name, arr.dtype.str, arr.shape, offset))
        offset += arr.nbytes
        offset = (offset + 63) & ~63  # 64-byte alignment
    shm = _create_shm(max(offset, 1))
    for (name, _dt, _shape, off), arr in zip(table, contiguous.values()):
        if arr.nbytes:
            dst = np.frombuffer(
                shm.buf, dtype=arr.dtype, count=arr.size, offset=off
            )
            dst[:] = arr.ravel()
    return shm, table


def _attach_arrays(
    shm: shared_memory.SharedMemory, table: _ArrayTable
) -> Dict[str, np.ndarray]:
    """Zero-copy read-only views of a published segment."""
    out = {}
    for name, dtype_str, shape, offset in table:
        dt = np.dtype(dtype_str)
        size = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(shm.buf, dtype=dt, count=size, offset=offset)
        arr = arr.reshape(shape)
        arr.flags.writeable = False
        out[name] = arr
    return out


def _ship_result(arrays: Sequence[np.ndarray]):
    """Package worker output: queue-inline when small, else one shared
    segment of raw buffers."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    total = sum(a.nbytes for a in arrays)
    if total < _SHM_RESULT_MIN:
        return ("q", arrays)
    named = {str(i): a for i, a in enumerate(arrays)}
    shm, table = _publish_arrays(named)
    shm.close()  # the master unlinks after copying out
    return ("shm", shm.name, table)


def _receive_result(msg) -> List[np.ndarray]:
    """Unpack :func:`_ship_result` output (copies out of shared memory)."""
    if msg[0] == "q":
        return list(msg[1])
    _tag, name, table = msg
    shm = shared_memory.SharedMemory(name=name)  # attach: not re-tracked
    views = _attach_arrays(shm, table)
    out = [np.array(views[str(i)], copy=True) for i in range(len(table))]
    del views
    shm.close()
    shm.unlink()
    _unregister_shm(name)
    return out


class _SharedGraphView:
    """Duck-typed :class:`DiGraph` over shared-memory array views.

    Exposes exactly what :class:`~repro.engine.SamplingEngine` and the
    samplers consume (``n``/``m``, the two CSR views, the flat edge
    arrays) without ever materializing a private copy of the graph.
    """

    def __init__(self, n: int, m: int, shm, arrays: Dict[str, np.ndarray]):
        self.n = n
        self.m = m
        self._shm = shm  # keeps the segment mapped
        self._a = arrays
        self._engine_cache = None

    def out_csr(self) -> CSRView:
        a = self._a
        return CSRView(
            a["out_indptr"], a["out_nodes"], a["out_p"], a["out_pp"], a["out_eid"]
        )

    def in_csr(self) -> CSRView:
        a = self._a
        return CSRView(
            a["in_indptr"], a["in_nodes"], a["in_p"], a["in_pp"], a["in_eid"]
        )

    def edge_arrays(self):
        a = self._a
        return a["src"], a["dst"], a["p"], a["pp"]


def _publishable_store_path(graph) -> Optional[str]:
    """The store path workers can attach to directly, if any.

    Only **pristine** store-backed graphs qualify: ``version == 0``
    means every array the workers would read is exactly what the file
    holds.  After an in-place probability update the live arrays diverge
    from the file (copy-on-write), so the runtime falls back to the
    shared-memory publication of the current arrays.
    """
    path = getattr(graph, "store_path", None)
    if path is None or getattr(graph, "version", 0) != 0:
        return None
    return path if os.path.exists(path) else None


def _graph_arrays(graph: DiGraph) -> Dict[str, np.ndarray]:
    out = graph.out_csr()
    inc = graph.in_csr()
    src, dst, p, pp = graph.edge_arrays()
    return {
        "out_indptr": out.indptr, "out_nodes": out.nodes, "out_p": out.p,
        "out_pp": out.pp, "out_eid": out.eid,
        "in_indptr": inc.indptr, "in_nodes": inc.nodes, "in_p": inc.p,
        "in_pp": inc.pp, "in_eid": inc.eid,
        "src": src, "dst": dst, "p": p, "pp": pp,
    }


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _run_task(graph, kind: str, roots, world_seeds, params) -> List[np.ndarray]:
    """Evaluate the samples of ``(roots, world_seeds)`` on ``graph`` (a
    view in workers, the real graph in process) as a flat array list —
    a pure function of its arguments."""
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


def _worker_main(
    source, n, m, task_queue, result_queue, worker_id, generation
) -> None:
    plan = faults.plan_from_env()  # inherited at fork; None in production
    if source[0] == "store":
        # mmap-backed graph: attach by path.  Every worker maps the same
        # file, so the page cache is shared across the pool and no copy
        # of the graph is ever serialized or published.
        from ..storage.store import open_graph

        view = open_graph(source[1], mode="mmap")
    else:
        _tag, shm_name, table = source
        shm = shared_memory.SharedMemory(name=shm_name)  # attach: not re-tracked
        view = _SharedGraphView(n, m, shm, _attach_arrays(shm, table))
    SamplingEngine.for_graph(view)  # warm the engine once
    chunk_index = 0
    while True:
        task = task_queue.get()
        if task is None:
            break
        task_id, kind, roots, world_seeds, params = task
        chunk_index += 1
        # Claim before computing: the collector learns chunk ownership,
        # so a death (or a vanished result) is attributable to exactly
        # one chunk and that chunk can be re-enqueued.
        result_queue.put(("claim", worker_id, task_id))
        action = (
            plan.action_for(worker_id, generation, chunk_index)
            if plan is not None
            else faults.NO_ACTION
        )
        if action.delay_s:
            time.sleep(action.delay_s)
        if action.kill:
            # Simulated hard crash mid-chunk (no result, no cleanup).  The
            # queue is closed first so the feeder thread drains the claim
            # to the master — modelling a worker that died *during* the
            # computation, after ownership was observable.  (A death in
            # the sub-millisecond window before the claim flushes is the
            # known-unattributable race documented on the runtime.)
            result_queue.close()
            result_queue.join_thread()
            os._exit(17)
        if action.drop:
            continue  # simulated lost result message
        try:
            msg = _ship_result(_run_task(view, kind, roots, world_seeds, params))
            result_queue.put(("res", worker_id, task_id, True, msg))
        except Exception as exc:  # surface, don't hang the master
            result_queue.put(("res", worker_id, task_id, False, repr(exc)))
    # Flush pending queue feeds, then exit without interpreter teardown:
    # the engine holds views into the shared segment, and unwinding them
    # through GC trips BufferError in SharedMemory.__del__.
    result_queue.close()
    result_queue.join_thread()
    os._exit(0)


@dataclass(frozen=True)
class RuntimeHealth:
    """A point-in-time snapshot of the runtime's supervision state.

    ``workers`` is the configured pool size, ``workers_alive`` how many
    processes currently pass ``is_alive``; ``restarts`` counts worker
    respawns, ``retries`` chunk re-enqueues, and ``degraded`` whether the
    runtime has given up on the pool and fallen back to the in-process
    serial path (results stay bit-identical — only throughput changes).

    For the distributed runtime the same fields are reinterpreted at
    host granularity — ``workers`` is the summed remote capacity,
    ``restarts`` counts host losses, ``retries`` chunk re-assignments —
    and ``hosts`` carries one counter dict per configured worker host.
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


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
class SharedGraphRuntime(ChunkExecutor):
    """A persistent worker pool bound to one graph's shared arrays.

    Construction publishes the graph once and forks ``workers``
    long-lived processes.  Every :meth:`~ChunkExecutor.run` puts its
    chunk tasks, tagged ``(tag, chunk_id)``, on the one shared task
    queue, and a collector thread demultiplexes the result queue back
    into the runs — that is what lets several queries' sampling phases
    share the pool *concurrently*, each lane running its selection phase
    the moment its own samples are complete.  A chunk that raises in a
    worker fails only its own run.

    Reused across calls via :func:`get_runtime`; :meth:`shutdown` (or
    interpreter exit) releases processes and shared memory.
    """

    def __init__(self, graph: DiGraph, workers: int) -> None:
        if not fork_available():
            raise RuntimeError("SharedGraphRuntime requires the fork start method")
        super().__init__()
        _install_sigterm_reaper()
        self.graph = graph
        self.graph_version = getattr(graph, "version", 0)
        self.workers = int(workers)
        self._ctx = mp.get_context("fork")
        # Publication: pristine store-backed graphs are published *by
        # path* — workers mmap the store file themselves, so pool startup
        # copies nothing and all workers share one page-cache image.
        # Everything else is copied once into a shared-memory segment.
        store_path = _publishable_store_path(graph)
        if store_path is not None:
            self._shm = None
            self._source: tuple = ("store", store_path)
        else:
            self._shm, table = _publish_arrays(_graph_arrays(graph))
            self._source = ("shm", self._shm.name, table)
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        # Supervision state, guarded by _cv (spawn/respawn of processes
        # happens outside it).
        self._inflight: Dict[int, Tuple[tuple, float]] = {}  # slot -> (task id, t)
        self._deferred: List[tuple] = []  # heap of (due, seq, tag, cid)
        self._deferred_seq = itertools.count()
        self._generation = [0] * self.workers
        self._dead_handled: set = set()
        self._restarts = 0
        # Per-slot run of deaths with no intervening result from that
        # slot.  A one-time burst (every worker killed at once) is one
        # death per slot and recovers; a slot whose respawns keep dying
        # is the hopeless-environment signal that triggers degradation.
        self._death_streak = [0] * self.workers
        self._procs: List[mp.process.BaseProcess] = [None] * self.workers
        for slot in range(self.workers):
            self._spawn(slot)
        self._collector = threading.Thread(
            target=self._collect_loop, name="runtime-collector", daemon=True
        )
        self._collector.start()

    def _spawn(self, slot: int) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self._source, self.graph.n, self.graph.m,
                self._tasks, self._results, slot, self._generation[slot],
            ),
            daemon=True,
        )
        proc.start()
        self._procs[slot] = proc

    @property
    def publication(self) -> str:
        """How workers attach to the graph: ``"store"`` (mmap by path)
        or ``"shm"`` (copied into a shared-memory segment)."""
        return self._source[0]

    def _send(self, tag: int, run: _Run, cids: Sequence[int]) -> None:
        for cid in cids:
            roots, world_seeds = run.jobs[cid]
            self._tasks.put(
                ((tag, cid), run.kind, roots, world_seeds, run.params)
            )

    def _fallback(
        self, kind: str, jobs: Sequence[Job], params: tuple
    ) -> List[List[np.ndarray]]:
        return run_chunks_local(self.graph, kind, jobs, params, 1)

    # ------------------------------------------------------------------
    # Collector + supervision
    # ------------------------------------------------------------------
    def _requeue(self, task_id: tuple, why: str) -> None:
        """Schedule a lost chunk for a resend after an exponential
        backoff (caller holds the cv)."""
        tag, cid = task_id
        attempt = self._retry(tag, cid, why)
        if not attempt:
            return
        due = time.monotonic() + RETRY_BACKOFF_BASE * (2 ** (attempt - 1))
        heapq.heappush(
            self._deferred, (due, next(self._deferred_seq), tag, cid)
        )

    def _service_deferred(self) -> None:
        """Resend due re-enqueued chunks that are still owed."""
        now = time.monotonic()
        ready = []
        with self._cv:
            while self._deferred and self._deferred[0][0] <= now:
                _due, _seq, tag, cid = heapq.heappop(self._deferred)
                run = self._owed(tag, cid)
                if run is not None:
                    ready.append((tag, run, cid))
        for tag, run, cid in ready:
            self._send(tag, run, [cid])

    def _sweep(self) -> None:
        """Detect dead workers; re-enqueue their chunks and respawn them.

        Each death increments its slot's death streak (reset by a result
        from that slot, so a one-time burst of deaths recovers); when a
        slot's respawns have died :data:`MAX_CONSECUTIVE_DEATHS` times in
        a row the runtime degrades — no further respawns, runs finish
        serially — which bounds the recovery storm a persistently
        crashing environment could otherwise cause.  With
        :data:`TASK_TIMEOUT` set, claimed chunks whose result never
        arrived (worker alive but wedged, or the result message lost) are
        re-enqueued too.
        """
        respawn: List[int] = []
        now = time.monotonic()
        with self._cv:
            if self._closed:
                return
            for slot, proc in enumerate(self._procs):
                if proc.is_alive() or slot in self._dead_handled:
                    continue
                self._dead_handled.add(slot)
                lost = self._inflight.pop(slot, None)
                if lost is not None:
                    self._requeue(lost[0], f"worker {slot} died")
                self._death_streak[slot] += 1
                if self._degraded:
                    continue
                if self._death_streak[slot] >= MAX_CONSECUTIVE_DEATHS:
                    self._degrade()
                    continue
                self._generation[slot] += 1
                self._restarts += 1
                respawn.append(slot)
            if TASK_TIMEOUT is not None:
                for slot, (task_id, claimed_at) in list(self._inflight.items()):
                    if now - claimed_at > TASK_TIMEOUT:
                        del self._inflight[slot]
                        self._requeue(task_id, f"no result within {TASK_TIMEOUT}s")
        for slot in respawn:
            self._spawn(slot)  # outside the lock: process start is slow
            with self._cv:
                self._dead_handled.discard(slot)

    def _collect_loop(self) -> None:
        """Drain the result queue into the runs (single reader).

        Runs until shutdown.  Claim messages maintain per-worker chunk
        ownership; between messages — and at least every
        :data:`_POLL_INTERVAL` seconds — the liveness sweep and the retry
        queue run.  Result payloads are copied out of (and their
        segments unlinked from) shared memory here, so answers for
        finished runs never leak segments.
        """
        last_sweep = time.monotonic()
        while not self._closed:
            self._service_deferred()
            try:
                msg = self._results.get(timeout=_POLL_INTERVAL)
            except Exception:
                msg = None
            now = time.monotonic()
            if msg is None or now - last_sweep >= _POLL_INTERVAL:
                self._sweep()
                last_sweep = now
            if msg is None:
                continue
            if msg[0] == "claim":
                _kind, wid, task_id = msg
                with self._cv:
                    prev = self._inflight.get(wid)
                    self._inflight[wid] = (task_id, time.monotonic())
                    if prev is not None and prev[0] != task_id:
                        # The worker moved on without ever shipping the
                        # previous chunk's result: treat it as lost.
                        self._requeue(
                            prev[0], f"worker {wid} superseded it unanswered"
                        )
                continue
            _kind, wid, (tag, cid), ok, payload = msg
            error = None
            if not ok:
                error = f"worker task ({tag}, {cid}) failed: {payload}"
            else:
                try:
                    arrays = _receive_result(payload)
                except Exception as exc:  # pragma: no cover - defensive
                    error = f"result unpack failed: {exc!r}"
            with self._cv:
                held = self._inflight.get(wid)
                if held is not None and held[0] == (tag, cid):
                    del self._inflight[wid]
                if 0 <= wid < len(self._death_streak):
                    self._death_streak[wid] = 0
                if error is None:
                    self._deliver(tag, cid, arrays)
                else:
                    self._fail_run(tag, error)

    def health(self) -> RuntimeHealth:
        """A consistent snapshot of the supervision counters."""
        with self._cv:
            return RuntimeHealth(
                workers=self.workers,
                workers_alive=sum(
                    p is not None and p.is_alive() for p in self._procs
                ),
                restarts=self._restarts,
                retries=self.retries,
                degraded=self._degraded,
            )

    def shutdown(self, timeout: float = 15.0) -> None:
        """Tear the pool down (idempotent, concurrency-safe, bounded).

        Total teardown wall-clock is capped by ``timeout``: the drain
        phase and the per-worker joins share one deadline, and workers
        still alive past it are terminated (then killed).  Safe against a
        half-dead pool — sentinels go onto the task queue regardless of
        which workers still live, a dead worker's sentinel is simply
        never consumed, and joins on already-dead processes return
        immediately.
        """
        if not self._close():
            return
        deadline = time.monotonic() + max(float(timeout), 0.1)
        self._collector.join(timeout=min(5.0, max(deadline - time.monotonic(), 0.1)))
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except Exception:  # pragma: no cover - broken queue
                pass
        # Drain in-flight results *while* workers wind down: a worker
        # mid-put must not block forever against a full pipe, and every
        # abandoned result's shared segment needs unlinking.  Bounded, and
        # tolerant of truncated/claim messages from dying workers.
        while time.monotonic() < deadline:
            try:
                msg = self._results.get(timeout=0.25)
            except Exception:
                if not any(p is not None and p.is_alive() for p in self._procs):
                    break
                continue
            if msg and msg[0] == "res" and msg[3]:
                try:
                    _receive_result(msg[4])
                except Exception:  # pragma: no cover - defensive
                    pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=0.5)
                if proc.is_alive():
                    proc.kill()
        # cancel_join_thread: never block interpreter exit on unflushed
        # queue buffers — every worker is gone by now.
        self._tasks.close()
        self._tasks.cancel_join_thread()
        self._results.close()
        self._results.cancel_join_thread()
        if self._shm is not None:  # store-published runtimes own no segment
            try:
                self._shm.close()
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            _unregister_shm(self._shm.name)


_runtime: Optional[SharedGraphRuntime] = None
_RUNTIME_LOCK = threading.Lock()


def get_runtime(graph: DiGraph, workers: int) -> SharedGraphRuntime:
    """The cached runtime for ``graph`` (created/replaced on demand).

    One runtime is kept alive at a time — repeated calls with the same
    graph (at its current :attr:`~repro.graphs.DiGraph.version`) and a
    compatible worker count reuse the warm pool, which is what makes
    multi-round algorithms (IMM doubling, repeated boosts) pay pool
    startup once per graph instead of once per call.  A version bump
    (in-place probability update) retires the pool: its published
    segment holds the pre-mutation arrays.  Thread-safe — overlap lanes
    race here on first parallel dispatch.
    """
    global _runtime
    with _RUNTIME_LOCK:
        if (
            _runtime is not None
            and not _runtime._closed
            and _runtime.graph is graph
            and _runtime.graph_version == getattr(graph, "version", 0)
            and _runtime.workers >= workers
        ):
            return _runtime
        if _runtime is not None:
            _runtime.shutdown()
        _runtime = SharedGraphRuntime(graph, workers)
        return _runtime


def shutdown_runtime() -> None:
    """Tear down the cached runtime (idempotent; also runs at exit)."""
    global _runtime
    if _runtime is not None:
        _runtime.shutdown()
        _runtime = None


def shutdown_runtime_for(graph) -> bool:
    """Tear down the cached runtime iff it is bound to ``graph``.

    The hook :meth:`repro.api.Session.close` uses to release worker
    processes and shared-memory segments it is responsible for without
    disturbing a runtime some other graph's caller still owns.  Returns
    whether a runtime was shut down.
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
    distributed runtime reports that runtime's host-granular health
    instead (see :mod:`repro.dist`).  The session/serving tiers report
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
# Graphs with a multi-host sampling runtime attached (repro.dist) are
# registered here so _run_chunks below can route batch work to the
# coordinator without this module ever importing repro.dist (dist
# imports parallel for the executor and the job/payload contract — the
# dependency only points one way).  The registry holds ChunkExecutors
# that also report ``.health()``.
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


# LIFO atexit: the reaper is registered first so it runs *after* the
# runtime shutdown below has unlinked everything it owns — catching only
# what an abnormal teardown left behind.
atexit.register(reap_shm_segments)
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
    """Run chunk jobs on the local shared runtime, or serially in-process
    when ``workers <= 1`` / no fork — never through a distributed
    binding.  This is what ``repro dist-worker`` hosts and both
    executors' degraded fallbacks call, so a worker process that
    happens to share an interpreter with a coordinator can never bounce
    its own chunks back over the wire."""
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
