"""Coordinator side of the distributed sampling runtime.

:class:`DistributedRuntime` is a
:class:`~repro.core.parallel.ChunkExecutor` — the same run / stash /
retry / degrade core the local pool uses — whose transport scatters
chunk jobs over TCP to remote worker hosts instead of local fork
workers:

* **Scatter** — each host gets a sliding window of chunks proportional
  to the worker capacity it reported at handshake, refilled as results
  stream back, so fast hosts naturally take more of the tail (the same
  dynamic balance the local runtime's shared queue gives).
* **Deterministic merge** — every job carries its samples' roots and
  world seeds, drawn from the query's RNG before dispatch; the executor
  stashes results by ``chunk_id`` and returns them in submission order,
  so the merged payload is bit-identical to the in-process and
  single-host paths regardless of host count, chunk interleaving, or
  which host computed what.
* **Supervision** (the host-level analogue of the local pool's worker
  supervision) — a lost connection re-assigns that host's outstanding
  chunks to the survivors, each chunk at most
  :data:`~repro.core.parallel.MAX_TASK_RETRIES` times; with no hosts
  left the runtime **degrades**: remaining and future chunks run on the
  local runtime instead, results unchanged.  A ``chunk_error`` from a
  host fails only the run (query) it belongs to; the host stays
  connected.

The runtime is bound to a graph with
:func:`repro.core.parallel.bind_distributed_runtime` (the
``Session(hosts=...)`` constructor does this), after which every
chunked sampling entry point routes through it transparently.
"""
from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.parallel import (
    ChunkExecutor,
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

# Seconds the connect + handshake may take; after it, reads block until
# the host answers or the connection drops (liveness is EOF-driven,
# bounded by the OS keepalive/connection teardown).
HANDSHAKE_TIMEOUT = 10.0

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
        self.outstanding: Set[Tuple[int, int]] = set()  # (tag, cid) unanswered
        self.chunks_done = 0
        self.chunks_lost = 0
        self.reader: Optional[threading.Thread] = None

    @property
    def label(self) -> str:
        return f"{self.addr[0]}:{self.addr[1]}"


class DistributedRuntime(ChunkExecutor):
    """Shard chunk jobs across worker hosts; merge deterministically.

    The run bookkeeping (submission-order merge, retries, failure scope,
    degraded fallback) is :class:`~repro.core.parallel.ChunkExecutor`'s;
    this class is the transport: the handshake, one reader thread per
    host, the host windows and host loss.

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
    """

    def __init__(
        self,
        graph,
        hosts: Union[str, Sequence[HostSpec]],
        fallback_workers: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.graph = graph
        self._fallback_workers = (
            _resolve_workers(None) if fallback_workers is None
            else max(1, int(fallback_workers))
        )
        self._queue: deque = deque()  # (tag, cid) awaiting a host window
        self.host_losses = 0

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
                self._hosts.append(self._connect(addr, hello))
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
    def _connect(self, addr, hello) -> _Host:
        sock = socket.create_connection(addr, timeout=HANDSHAKE_TIMEOUT)
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
        """Drain one host's answers until it drops.

        A ``chunk_error`` fails only the run it belongs to: that run's
        chunks are no longer owed by this host, and the connection stays
        open for every other run.
        """
        try:
            while True:
                msg = recv_msg(host.sock)
                if msg is None:
                    break
                header, arrays = msg
                mtype = header.get("type")
                if mtype not in ("result", "chunk_error"):
                    break
                tag = header["tag"]
                with self._cv:
                    if mtype == "result":
                        task = (tag, header["cid"])
                        host.outstanding.discard(task)
                        if self._deliver(*task, arrays):
                            host.chunks_done += 1
                    else:
                        self._fail_run(
                            tag, f"worker host {host.label} failed chunk "
                                 f"{header.get('cid')}: {header.get('detail')}"
                        )
                        host.outstanding = {
                            task for task in host.outstanding
                            if task[0] != tag
                        }
                self._dispatch()
        except (ProtocolError, OSError, ValueError, KeyError, TypeError):
            pass
        self._host_lost(host)

    def _host_lost(self, host: _Host) -> None:
        """Re-queue a dropped host's owed chunks; degrade when no host
        remains."""
        with self._cv:
            if not host.alive or self._closed:
                return
            host.alive = False
            self.host_losses += 1
            orphans = sorted(host.outstanding)
            host.outstanding.clear()
            host.chunks_lost += len(orphans)
            why = f"host {host.label} lost"
            self._queue.extendleft(reversed(
                [task for task in orphans if self._retry(*task, why)]
            ))
            if not any(h.alive for h in self._hosts):
                self._queue.clear()  # runs claim their chunks themselves
                self._degrade()
        try:
            host.sock.close()
        except OSError:
            pass
        self._dispatch()

    # ------------------------------------------------------------------
    # Scatter
    # ------------------------------------------------------------------
    def _send(self, tag: int, run, cids) -> None:
        with self._cv:
            self._queue.extend((tag, cid) for cid in cids)
        self._dispatch()

    def _fallback(self, kind: str, jobs, params: tuple):
        return run_chunks_local(
            self.graph, kind, jobs, params, self._fallback_workers
        )

    def _pop_owed(self) -> Optional[Tuple[int, int]]:
        """The next queued chunk still owed (caller holds the lock);
        chunks of failed, finished or degraded-and-claimed runs are
        dropped on the way."""
        while self._queue:
            task = self._queue.popleft()
            if self._owed(*task) is not None:
                return task
        return None

    def _frame(self, tag: int, cids: List[int]) -> tuple:
        """The ``chunks`` frame for chunks ``cids`` of run ``tag`` — one
        frame per run, so it carries one (kind, params) (caller holds
        the lock)."""
        run = self._runs[tag]
        header = {"type": "chunks", "tag": tag, "kind": run.kind,
                  "params": list(run.params), "jobs": cids}
        return header, [a for cid in cids for a in run.jobs[cid]]

    def _dispatch(self) -> None:
        """Refill every live host's window from the queue."""
        frames: Dict[_Host, Dict[int, List[int]]] = {}
        with self._cv:
            # Round-robin one chunk at a time so a batch smaller than one
            # host's window still spreads across every live host; the
            # windows then only cap in-flight depth.
            while self.active:
                hosts = [h for h in self._hosts
                         if h.alive and len(h.outstanding) < h.window]
                tasks = [task for task in (self._pop_owed() for _ in hosts)
                         if task is not None]
                if not tasks:
                    break
                for host, task in zip(hosts, tasks):
                    host.outstanding.add(task)
                    frames.setdefault(host, {}).setdefault(
                        task[0], []
                    ).append(task[1])
            sends = [
                (host, [self._frame(tag, cids) for tag, cids in by_tag.items()])
                for host, by_tag in frames.items()
            ]
        for host, host_frames in sends:
            try:
                with host.send_lock:
                    for header, arrays in host_frames:
                        send_msg(host.sock, header, arrays)
            except (OSError, ValueError):
                self._host_lost(host)

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Summed remote worker capacity (all configured hosts)."""
        return sum(h.workers for h in self._hosts)

    @property
    def alive_capacity(self) -> int:
        return sum(h.workers for h in self._hosts if h.alive)

    def health(self) -> RuntimeHealth:
        """Host-granular supervision snapshot (see
        :class:`~repro.core.parallel.RuntimeHealth`)."""
        with self._cv:
            return RuntimeHealth(
                workers=self.capacity,
                workers_alive=self.alive_capacity,
                restarts=self.host_losses,
                retries=self.retries,
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
        if not self._close():
            return
        for host in self._hosts:
            try:
                with host.send_lock:
                    send_msg(host.sock, {"type": "bye"})
            except (OSError, ValueError):
                pass
            try:
                host.sock.close()
            except OSError:
                pass
        for host in self._hosts:
            if host.reader is not None:
                host.reader.join(timeout=5.0)
