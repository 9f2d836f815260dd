"""Coordinator side of the sampling runtime: one transport for all hosts.

:class:`DistributedRuntime` is the one
:class:`~repro.core.parallel.ChunkExecutor` transport.  It drives two
kinds of worker host over one protocol (:mod:`repro.dist.protocol`):
**local hosts**, which :meth:`DistributedRuntime.local` forks (the pool
:func:`repro.core.parallel.get_runtime` keeps) and which each speak over
a ``socket.socketpair()``, and **remote hosts**, ``repro dist-worker``
processes reached over TCP after a handshake that refuses a replica of
another graph.

* **Scatter** — each host gets a sliding window of chunks proportional
  to its worker capacity, refilled as answers stream back, so fast
  hosts naturally take more of the tail.  Every job carries its roots
  and world seeds, and the executor merges results in submission order,
  so where a chunk ran never changes the merged payload.
* **Lost chunks** — a host answers chunks in the order it received
  them, so an answer that overtakes an owed chunk marks that chunk
  lost, and so does :data:`~repro.core.parallel.TASK_TIMEOUT` seconds of
  silence after the host's previous answer.  A lost chunk is
  re-assigned at most :data:`~repro.core.parallel.MAX_TASK_RETRIES`
  times.  A ``chunk_error`` fails only the run (query) it belongs to.
* **Host loss** — a host's death is an EOF on its socket, and its owed
  chunks are lost.  A local host is respawned (see :meth:`_respawn`)
  until its slot dies :data:`~repro.core.parallel.MAX_CONSECUTIVE_DEATHS`
  times in a row; then, or when no host is left, the runtime
  **degrades**: remaining and future chunks run in process (a remote
  runtime's on the local pool), results unchanged.

``Session(hosts=...)`` binds a remote runtime to its graph with
:func:`repro.core.parallel.bind_distributed_runtime`, after which every
chunked sampling entry point routes through it transparently.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import threading
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..core import parallel
from ..core.parallel import (
    ChunkExecutor,
    RuntimeHealth,
    _resolve_workers,
    fork_available,
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
from .worker import serve_local_host

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
    """One worker host: its socket, capacity, owed chunks and counters.

    A local host also keeps its process, slot, spawn generation and
    death streak (deaths with no answer in between)."""

    def __init__(self, label: str, sock: socket.socket, workers: int,
                 proc=None, slot: int = 0, generation: int = 0,
                 deaths: int = 0) -> None:
        self.label = label
        self.sock = sock
        self.workers = max(1, int(workers))
        # Chunks in flight at once: one per core, plus one queued that
        # hides the refill round-trip.  A deeper window would commit more
        # of a draw's tail to one host while another sits idle.
        self.window = self.workers + 1
        self.alive = True
        self.owed: Deque[Tuple[int, int]] = deque()  # (tag, cid), sent order
        # When the chunk at the head of ``owed`` started: the host's
        # previous answer, or its send to an idle host.
        self.clock = 0.0
        self.chunks_done = 0
        self.chunks_lost = 0
        self.reader: Optional[threading.Thread] = None
        self.proc = proc
        self.slot = slot
        self.generation = generation
        self.deaths = deaths

    def close(self) -> None:
        """Shut the socket both ways: this wakes the host's reader, and
        a local host reads EOF and exits."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _reap(proc, timeout: float = 1.0) -> None:
    """Join a local host's process, killing it past ``timeout``."""
    proc.join(timeout)
    if proc.is_alive():
        proc.kill()
        proc.join(1.0)


class DistributedRuntime(ChunkExecutor):
    """Shard chunk jobs across worker hosts; merge deterministically.

    The run bookkeeping (submission-order merge, retries, failure scope,
    degraded fallback) is :class:`~repro.core.parallel.ChunkExecutor`'s;
    this class is the transport: the hosts, one reader thread per host,
    the host windows, lost chunks and host loss.

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
        self._setup(graph, _resolve_workers(None) if fallback_workers is None
                    else max(1, int(fallback_workers)))
        store = publishable_store(graph)
        hello = {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "fingerprint": graph_fingerprint(graph),
            "store_digest": store_digest(store) if store else None,
        }
        self._open(self._connect(addr, hello) for addr in parse_hosts(hosts))

    @classmethod
    def local(cls, graph, workers: int) -> "DistributedRuntime":
        """``workers`` forked local hosts on ``graph``.

        Each host inherits the graph at fork (copy-on-write), so nothing
        is copied or published; the runtime records the graph version it
        forked at.  Its degraded fallback runs serially in process.
        """
        if not fork_available():
            raise RuntimeError("local hosts require the fork start method")
        pool = cls.__new__(cls)
        pool._setup(graph, 1)
        pool._open(pool._fork(slot) for slot in range(int(workers)))
        return pool

    def _setup(self, graph, fallback_workers: int) -> None:
        super().__init__()
        self.graph = graph
        self.graph_version = getattr(graph, "version", 0)
        self._fallback_workers = fallback_workers
        self._queue: deque = deque()  # (tag, cid) awaiting a host window
        self._hosts: List[_Host] = []
        # Serializes dispatches, so each host's owed order is the order
        # its chunks went out on the wire.
        self._send_lock = threading.Lock()
        self.restarts = 0  # local respawns plus remote host losses

    def _open(self, hosts) -> None:
        """Add ``hosts`` as they come up, then start reading them; if
        one fails, close those already up and raise."""
        try:
            self._hosts.extend(hosts)
        except Exception:
            self.shutdown()
            raise
        for host in self._hosts:
            self._start_reader(host)

    # ------------------------------------------------------------------
    # Hosts
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
            return _Host(f"{addr[0]}:{addr[1]}", sock,
                         header.get("workers", 1))
        except BaseException:
            sock.close()
            raise

    def _fork(self, slot: int, generation: int = 0, deaths: int = 0) -> _Host:
        """Fork local host ``slot``; the parent keeps only its own end of
        the socket pair, so the host's death is an EOF here."""
        ours, theirs = socket.socketpair()
        proc = mp.get_context("fork").Process(
            target=serve_local_host,
            args=(theirs, self.graph, slot, generation),
            name=f"repro-host-{slot}", daemon=True,
        )
        try:
            proc.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        return _Host(f"local:{slot}", ours, 1, proc, slot, generation, deaths)

    def _start_reader(self, host: _Host) -> None:
        host.reader = threading.Thread(
            target=self._reader, args=(host,),
            name=f"repro-host-{host.label}", daemon=True,
        )
        host.reader.start()

    def _respawn(self, dead: _Host) -> None:
        """Replace lost local host ``dead`` after a backoff that doubles
        with its slot's death streak — unless the graph was written since
        the pool forked: a new fork would inherit the new arrays."""
        backoff = parallel.RETRY_BACKOFF_BASE * 2 ** (dead.deaths - 1)
        with self._cv:
            self._cv.wait_for(lambda: self._closed, backoff)
            if (self._closed or self._degraded or
                    getattr(self.graph, "version", 0) != self.graph_version):
                self._degrade_if_hostless()
                return
            # Forked under the lock, so a shutdown cannot miss the host.
            try:
                host = self._fork(dead.slot, dead.generation + 1, dead.deaths)
            except OSError:  # no process to be had: the slot stays dead
                self._degrade_if_hostless()
                return
            self._hosts[dead.slot] = host
            self.restarts += 1
        self._start_reader(host)
        self._dispatch()

    def _degrade_if_hostless(self) -> None:
        """Degrade when no host is left (caller holds the lock)."""
        if not any(h.alive for h in self._hosts):
            self._queue.clear()  # runs claim their chunks themselves
            self._degrade()

    # ------------------------------------------------------------------
    # Answers and losses
    # ------------------------------------------------------------------
    def _reader(self, host: _Host) -> None:
        """Drain one host's answers until it drops.

        A ``chunk_error`` fails only the run it belongs to: that run's
        chunks are no longer owed by this host, and the connection stays
        open for every other run.
        """
        try:
            while True:
                timeout = parallel.TASK_TIMEOUT
                if timeout is not None and not self._answer_due(host, timeout):
                    continue
                msg = recv_msg(host.sock)
                if msg is None:
                    break
                header, arrays = msg
                mtype = header.get("type")
                if mtype not in ("result", "chunk_error"):
                    break
                tag, cid = header["tag"], header["cid"]
                with self._cv:
                    self._answered(host, (tag, cid))
                    if mtype == "result":
                        if self._deliver(tag, cid, arrays):
                            host.chunks_done += 1
                    else:
                        self._fail_run(
                            tag, f"worker host {host.label} failed chunk "
                                 f"{cid}: {header.get('detail')}"
                        )
                        host.owed = deque(t for t in host.owed if t[0] != tag)
                self._dispatch()
        except (ProtocolError, OSError, ValueError, KeyError, TypeError):
            pass
        self._host_lost(host)

    def _answered(self, host: _Host, task: Tuple[int, int]) -> None:
        """Settle ``host``'s owed chunks up to its answer for ``task``
        (caller holds the lock).  Hosts answer in the order they received
        chunks, so every chunk still owed ahead of ``task`` was lost."""
        host.clock = time.monotonic()
        host.deaths = 0
        if task not in host.owed:  # already given up on, or a failed run's
            return
        lost = []
        while host.owed[0] != task:
            lost.append(host.owed.popleft())
        host.owed.popleft()
        self._lose(host, lost, f"host {host.label} answered a later chunk")

    def _lose(self, host: _Host, tasks, why: str) -> None:
        """Re-queue ``host``'s lost chunks ahead of the queue, each within
        its retry bound (caller holds the lock)."""
        host.chunks_lost += len(tasks)
        self._queue.extendleft(reversed(
            [task for task in tasks if self._retry(*task, why)]
        ))

    def _answer_due(self, host: _Host, timeout: float) -> bool:
        """Wait for ``host``'s next answer.  Past ``timeout`` seconds after
        its previous answer (or the send to it while idle), give up on
        the chunk it owes first and return ``False``."""
        with self._cv:
            left = host.clock + timeout - time.monotonic() if host.owed else timeout
        if wait([host.sock], max(left, 0.0)):
            return True
        with self._cv:
            now = time.monotonic()
            if host.owed and now - host.clock >= timeout:
                host.clock = now
                self._lose(host, [host.owed.popleft()],
                           f"no answer from {host.label} within {timeout}s")
        self._dispatch()
        return False

    def _host_lost(self, host: _Host) -> None:
        """Re-queue a dropped host's owed chunks; respawn a local host or
        degrade when no host remains."""
        with self._cv:
            if not host.alive or self._closed:
                return
            host.alive = False
            lost = list(host.owed)
            host.owed.clear()
            self._lose(host, lost, f"host {host.label} lost")
            respawn = False
            if host.proc is None:
                self.restarts += 1
            else:
                host.deaths += 1
                if host.deaths >= parallel.MAX_CONSECUTIVE_DEATHS:
                    self._degrade()
                respawn = not self._degraded
            if not respawn:
                self._degrade_if_hostless()
        host.close()
        if host.proc is not None:
            _reap(host.proc)
        if respawn:
            self._respawn(host)
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
        with self._send_lock:
            with self._cv:
                # Round-robin one chunk at a time so a batch smaller than
                # one host's window still spreads across every live host;
                # the windows then only cap in-flight depth.
                while self.active:
                    hosts = [h for h in self._hosts
                             if h.alive and len(h.owed) < h.window]
                    tasks = [task for task in (self._pop_owed() for _ in hosts)
                             if task is not None]
                    if not tasks:
                        break
                    now = time.monotonic()
                    for host, task in zip(hosts, tasks):
                        if not host.owed:
                            host.clock = now
                        host.owed.append(task)
                        frames.setdefault(host, {}).setdefault(
                            task[0], []
                        ).append(task[1])
                sends = [
                    (host, [self._frame(tag, cids)
                            for tag, cids in by_tag.items()])
                    for host, by_tag in frames.items()
                ]
            for host, host_frames in sends:
                try:
                    for header, arrays in host_frames:
                        send_msg(host.sock, header, arrays)
                except (OSError, ValueError):
                    # The host's reader reads EOF and handles the loss.
                    try:
                        host.sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Summed worker capacity (all configured hosts)."""
        return sum(h.workers for h in self._hosts)

    def health(self) -> RuntimeHealth:
        """Host-granular supervision snapshot (see
        :class:`~repro.core.parallel.RuntimeHealth`)."""
        with self._cv:
            return RuntimeHealth(
                workers=self.capacity,
                workers_alive=sum(h.workers for h in self._hosts if h.alive),
                restarts=self.restarts,
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

    def shutdown(self, timeout: float = 15.0) -> None:
        """Close every host (idempotent, bounded by ``timeout``).

        Closing a host's socket ends it: a local host reads EOF and
        exits, and its process is joined (killed if it outlives the
        deadline); a remote host ends the session.
        """
        if not self._close():
            return
        deadline = time.monotonic() + max(float(timeout), 0.1)
        with self._cv:
            hosts = list(self._hosts)
        for host in hosts:
            host.close()
        for host in hosts:
            left = max(deadline - time.monotonic(), 0.1)
            if host.reader is not None:
                host.reader.join(left)
            if host.proc is not None:
                _reap(host.proc, left)
