"""Coordinator side of the distributed sampling runtime.

:class:`DistributedRuntime` satisfies the same duck-typed runtime
interface the chunk executor in :mod:`repro.core.parallel` dispatches to
(``submit``/``gather``/``run``/``health``/``shutdown``), but scatters
chunk jobs over TCP to remote worker hosts instead of local fork
workers:

* **Scatter** — each host gets a sliding window of chunks proportional
  to the worker capacity it reported at handshake, refilled as results
  stream back, so fast hosts naturally take more of the tail (the same
  dynamic balance the local runtime's shared queue gives).
* **Deterministic merge** — every job carries its samples' roots and
  world seeds, drawn from the query's RNG before dispatch; results are
  stashed by ``chunk_id`` and reassembled in submission order, so the
  merged payload is bit-identical to the in-process and single-host
  paths regardless of host count, chunk interleaving, or which host
  computed what.
* **Supervision** (the host-level analogue of the local pool's worker
  supervision) — a lost connection re-assigns that host's outstanding
  chunks to the survivors, each chunk at most ``max_chunk_retries``
  times; with no hosts left the runtime **degrades**: remaining and
  future chunks run on the local runtime instead, results unchanged.

The runtime is bound to a graph with
:func:`repro.core.parallel.bind_distributed_runtime` (the
``Session(hosts=...)`` constructor does this), after which every
chunked sampling entry point routes through it transparently.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.parallel import (
    MAX_TASK_RETRIES,
    Job,
    RuntimeHealth,
    _resolve_workers,
    run_chunks_local,
)
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    graph_fingerprint,
    publishable_store,
    recv_msg,
    send_msg,
    store_digest,
)

__all__ = ["DistributedRuntime", "parse_hosts"]

# Handshake must complete within this; after it, reads block until the
# host answers or the connection drops (liveness is EOF-driven, bounded
# by the OS keepalive/connection teardown).
_HANDSHAKE_TIMEOUT = 10.0

HostSpec = Union[str, Tuple[str, int]]


def parse_hosts(hosts: Union[str, Sequence[HostSpec]]) -> List[Tuple[str, int]]:
    """Normalize ``"h1:p1,h2:p2"`` / ``["h:p", (h, p)]`` to (host, port)
    pairs."""
    if isinstance(hosts, str):
        hosts = [h for h in hosts.split(",") if h.strip()]
    out: List[Tuple[str, int]] = []
    for spec in hosts:
        if isinstance(spec, str):
            host, _sep, port = spec.rpartition(":")
            if not host:
                raise ValueError(f"host spec {spec!r} is not host:port")
            out.append((host.strip(), int(port)))
        else:
            host, port = spec
            out.append((str(host), int(port)))
    if not out:
        raise ValueError("no worker hosts given")
    return out


class _Host:
    """One connected worker host: its socket, capacity and counters."""

    def __init__(self, addr: Tuple[str, int], sock: socket.socket,
                 workers: int) -> None:
        self.addr = addr
        self.sock = sock
        self.workers = max(1, int(workers))
        # Chunks in flight at once: enough to keep every remote core busy
        # plus a refill margin that hides one round-trip.
        self.window = 2 * self.workers + 2
        self.send_lock = threading.Lock()
        self.alive = True
        self.outstanding: Dict[Tuple[int, int], tuple] = {}
        self.chunks_done = 0
        self.chunks_lost = 0
        self.reader: Optional[threading.Thread] = None

    @property
    def label(self) -> str:
        return f"{self.addr[0]}:{self.addr[1]}"


class DistributedRuntime:
    """Shard chunk jobs across worker hosts; merge deterministically.

    Parameters
    ----------
    graph:
        The coordinator-side graph (used for the handshake fingerprint
        and as the degraded fallback's sampling substrate).
    hosts:
        Worker endpoints — ``"host:port,host:port"`` or a sequence of
        specs; every host must be serving the same graph replica
        (``repro dist-worker``) or construction fails.
    fallback_workers:
        Local parallelism of the degraded path (default: one per core,
        like the local runtime).
    max_chunk_retries:
        Re-assignments a single chunk survives before the whole
        submission fails (mirrors the local pool's task-retry bound).
    """

    def __init__(
        self,
        graph,
        hosts: Union[str, Sequence[HostSpec]],
        fallback_workers: Optional[int] = None,
        connect_timeout: float = _HANDSHAKE_TIMEOUT,
        max_chunk_retries: int = MAX_TASK_RETRIES,
    ) -> None:
        self.graph = graph
        self.max_chunk_retries = int(max_chunk_retries)
        self._fallback_workers = (
            _resolve_workers(None) if fallback_workers is None
            else max(1, int(fallback_workers))
        )
        self._cv = threading.Condition()
        self._queue: deque = deque()
        self._next_tag = 0
        self._pending: Dict[int, set] = {}
        self._order: Dict[int, List[int]] = {}
        self._stash: Dict[int, Dict[int, List[np.ndarray]]] = {}
        self._specs: Dict[int, tuple] = {}
        self._retries: Dict[Tuple[int, int], int] = {}
        self._failure: Optional[BaseException] = None
        self._degraded = False
        self._closed = False
        self.host_losses = 0
        self.reassignments = 0

        store = publishable_store(graph)
        hello = {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "fingerprint": graph_fingerprint(graph),
            "store_digest": store_digest(store) if store else None,
        }
        self._hosts: List[_Host] = []
        try:
            for addr in parse_hosts(hosts):
                self._hosts.append(
                    self._connect(addr, hello, connect_timeout)
                )
        except Exception:
            self.shutdown()
            raise
        for host in self._hosts:
            host.reader = threading.Thread(
                target=self._reader, args=(host,),
                name=f"repro-dist-{host.label}", daemon=True,
            )
            host.reader.start()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self, addr, hello, timeout) -> _Host:
        sock = socket.create_connection(addr, timeout=timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_msg(sock, hello)
            msg = recv_msg(sock)
            if msg is None:
                raise ProtocolError(f"{addr[0]}:{addr[1]} closed during "
                                    "handshake")
            header, _arrays = msg
            if header.get("type") == "error":
                raise ProtocolError(
                    f"{addr[0]}:{addr[1]} refused: {header.get('detail')}"
                )
            if header.get("type") != "welcome":
                raise ProtocolError(
                    f"{addr[0]}:{addr[1]} sent {header.get('type')!r} "
                    "instead of welcome"
                )
            sock.settimeout(None)
            return _Host(tuple(addr), sock, header.get("workers", 1))
        except BaseException:
            sock.close()
            raise

    def _reader(self, host: _Host) -> None:
        """Drain one host's result stream until it drops."""
        try:
            while True:
                msg = recv_msg(host.sock)
                if msg is None:
                    break
                header, arrays = msg
                mtype = header.get("type")
                if mtype == "result":
                    self._on_result(host, header["tag"], header["cid"],
                                    arrays)
                elif mtype == "chunk_error":
                    self._fail(RuntimeError(
                        f"worker host {host.label} failed chunk "
                        f"{header.get('cid')}: {header.get('detail')}"
                    ))
                    break
                else:
                    break
        except (ProtocolError, OSError, ValueError):
            pass
        self._host_lost(host)

    def _on_result(self, host: _Host, tag: int, cid: int,
                   arrays: List[np.ndarray]) -> None:
        with self._cv:
            host.outstanding.pop((tag, cid), None)
            pend = self._pending.get(tag)
            if pend is not None and cid in pend:
                # First answer wins; late duplicates from a half-dead
                # connection (chunk already re-assigned) are dropped —
                # both copies are identical bytes anyway.
                pend.discard(cid)
                self._stash[tag][cid] = arrays
                host.chunks_done += 1
            self._cv.notify_all()
        self._dispatch()

    def _host_lost(self, host: _Host) -> None:
        """Re-queue a dropped host's chunks; degrade when none remain."""
        with self._cv:
            if not host.alive or self._closed:
                return
            host.alive = False
            self.host_losses += 1
            orphans = list(host.outstanding.items())
            host.outstanding.clear()
            host.chunks_lost += len(orphans)
            for task_id, task in orphans:
                tag, cid = task_id
                if cid not in self._pending.get(tag, ()):  # already done
                    continue
                retries = self._retries.get(task_id, 0) + 1
                self._retries[task_id] = retries
                if retries > self.max_chunk_retries:
                    self._failure = RuntimeError(
                        f"chunk {cid} of tag {tag} lost "
                        f"{retries} times (last host {host.label})"
                    )
                    self._cv.notify_all()
                    return
                self.reassignments += 1
                self._queue.appendleft(task)
            if not any(h.alive for h in self._hosts):
                self._degraded = True
            self._cv.notify_all()
        try:
            host.sock.close()
        except OSError:
            pass
        self._dispatch()

    def _fail(self, exc: BaseException) -> None:
        with self._cv:
            if self._failure is None:
                self._failure = exc
            self._cv.notify_all()

    # ------------------------------------------------------------------
    # Scatter
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Refill every live host's window from the task queue."""
        with self._cv:
            if self._closed or self._degraded or self._failure is not None:
                return
            # Round-robin one chunk at a time so a batch smaller than one
            # host's window still spreads across every live host; the
            # windows then only cap in-flight depth.
            batches: Dict[int, List[tuple]] = {}
            progress = True
            while self._queue and progress:
                progress = False
                for idx, host in enumerate(self._hosts):
                    if not self._queue:
                        break
                    if not host.alive:
                        continue
                    assigned = len(host.outstanding)
                    if assigned >= host.window:
                        continue
                    task = self._queue.popleft()
                    host.outstanding[(task[0], task[1])] = task
                    batches.setdefault(idx, []).append(task)
                    progress = True
            assignments = [
                (self._hosts[idx], batch) for idx, batch in batches.items()
            ]
        for host, batch in assignments:
            # Group by tag so each frame carries one (kind, params).
            by_tag: Dict[int, List[tuple]] = {}
            for task in batch:
                by_tag.setdefault(task[0], []).append(task)
            try:
                with host.send_lock:
                    for tag, tasks in by_tag.items():
                        _t, _c, _r, _s, kind, params = tasks[0]
                        send_msg(host.sock, {
                            "type": "chunks",
                            "tag": tag,
                            "kind": kind,
                            "params": list(params),
                            "jobs": [task[1] for task in tasks],
                        }, [a for task in tasks for a in task[2:4]])
            except (OSError, ValueError):
                self._host_lost(host)

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def active(self) -> bool:
        """Whether chunk dispatch should route here (open, hosts left)."""
        return not self._closed and not self._degraded

    @property
    def capacity(self) -> int:
        """Summed remote worker capacity (all configured hosts)."""
        return sum(h.workers for h in self._hosts)

    @property
    def alive_capacity(self) -> int:
        return sum(h.workers for h in self._hosts if h.alive)

    def submit(self, kind: str, jobs: Sequence[Job], params: tuple) -> int:
        """Queue ``(chunk_id, roots, world_seeds)`` jobs for the hosts;
        returns the gather tag."""
        with self._cv:
            if self._closed:
                raise RuntimeError("distributed runtime is shut down")
            tag = self._next_tag
            self._next_tag += 1
            self._order[tag] = [cid for cid, _r, _s in jobs]
            self._pending[tag] = {cid for cid, _r, _s in jobs}
            self._stash[tag] = {}
            self._specs[tag] = (
                kind, params, {cid: (r, s) for cid, r, s in jobs},
            )
            for cid, roots, world_seeds in jobs:
                self._queue.append(
                    (tag, cid, roots, world_seeds, kind, params)
                )
        self._dispatch()
        return tag

    def gather(self, tag: int) -> List[List[np.ndarray]]:
        """Block until every chunk of ``tag`` answered; results in
        submission order.  On degradation the remaining chunks run on
        the local runtime — the merged payload is identical either way.
        """
        while True:
            with self._cv:
                if tag not in self._pending:
                    raise KeyError(f"unknown or already-gathered tag {tag}")
                if self._failure is not None:
                    raise RuntimeError(
                        "distributed sampling failed"
                    ) from self._failure
                if self._closed:
                    raise RuntimeError("distributed runtime is shut down")
                if not self._pending[tag]:
                    break
                if self._degraded:
                    claimed = self._claim_locked(tag)
                else:
                    self._cv.wait(0.2)
                    continue
            if claimed:
                kind, params, _jobs = self._specs[tag]
                parts = run_chunks_local(
                    self.graph, kind, claimed, params,
                    self._fallback_workers,
                )
                with self._cv:
                    for (cid, _roots, _seeds), arrays in zip(claimed, parts):
                        self._stash[tag][cid] = arrays
                        self._pending[tag].discard(cid)
                    self._cv.notify_all()
        with self._cv:
            order = self._order.pop(tag)
            stash = self._stash.pop(tag)
            self._pending.pop(tag)
            self._specs.pop(tag)
        return [stash[cid] for cid in order]

    def _claim_locked(self, tag: int) -> List[Job]:
        """Claim ``tag``'s unanswered chunks for local execution
        (degraded path).  Rebuilt from the submission spec — complete
        even for a chunk lost in a send race — and purged from the
        queue so nothing runs twice.  Caller holds the lock."""
        _kind, _params, job_specs = self._specs[tag]
        pend = self._pending[tag]
        claimed = [
            (cid, *job_specs[cid]) for cid in self._order[tag] if cid in pend
        ]
        self._queue = deque(
            task for task in self._queue
            if not (task[0] == tag and task[1] in pend)
        )
        return claimed

    def run(self, kind: str, jobs: Sequence[Job],
            params: tuple) -> List[List[np.ndarray]]:
        """submit + gather in one call (what the chunk executor uses)."""
        return self.gather(self.submit(kind, jobs, params))

    def health(self) -> RuntimeHealth:
        """Host-granular supervision snapshot (see
        :class:`~repro.core.parallel.RuntimeHealth`)."""
        with self._cv:
            return RuntimeHealth(
                workers=self.capacity,
                workers_alive=self.alive_capacity,
                restarts=self.host_losses,
                retries=self.reassignments,
                degraded=self._degraded,
                hosts=tuple(
                    {
                        "addr": h.label,
                        "alive": bool(h.alive),
                        "workers": int(h.workers),
                        "chunks_done": int(h.chunks_done),
                        "chunks_lost": int(h.chunks_lost),
                    }
                    for h in self._hosts
                ),
            )

    def shutdown(self) -> None:
        """Close every host connection (idempotent)."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        for host in getattr(self, "_hosts", []):
            try:
                with host.send_lock:
                    send_msg(host.sock, {"type": "bye"})
            except (OSError, ValueError):
                pass
            try:
                host.sock.close()
            except OSError:
                pass
        for host in getattr(self, "_hosts", []):
            if host.reader is not None:
                host.reader.join(timeout=5.0)
