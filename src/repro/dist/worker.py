"""Host side of the sampling runtime: one chunk loop, two kinds of host.

``repro dist-worker --graph-store graph.rpgs --port 9123`` runs a
remote host.  It opens its replica of the graph locally — for a
store-backed graph that is an mmap open with zero warm-up, because the
store persists the engine precompute — and serves one coordinator
connection at a time: handshake (fingerprint + store digest
validation), then a stream of ``chunks`` assignments, each answered with
one ``result`` frame per chunk.  A malformed ``chunks`` frame gets an
``error`` frame back and ends only its own session.

A local host (:func:`serve_local_host`) is a process the coordinator
forks; it inherits the graph (copy-on-write, so a pristine store stays
one page-cache image) and runs the same chunk loop on its end of a
``socket.socketpair()``, with no handshake.

A serial host answers each chunk as soon as it has computed it, in the
order it received them.  A remote host started with more workers runs
each ``chunks`` frame on its own local pool
(:func:`repro.core.parallel.run_chunks_local`), so a cluster multiplies
cores × hosts while every chunk stays a pure function of the roots and
world seeds it carries — which is what the determinism contract needs.
"""

from __future__ import annotations

import itertools
import os
import signal
import socket
import stat
import threading
import time
from collections import Counter
from typing import Any, Dict, Optional

import numpy as np

from ..core.parallel import (
    _resolve_workers,
    fork_available,
    run_chunks_local,
)
from ..engine import SamplingEngine
from ..testing import faults
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    graph_fingerprint,
    publishable_store,
    recv_msg,
    send_msg,
    store_digest,
)

__all__ = ["serve_worker", "serve_local_host"]


def _resolve_local_workers(workers: Optional[int]) -> int:
    """The chunk parallelism this host contributes: the explicit value,
    else one worker per core (capped like the local runtime), serial on
    fork-less platforms."""
    if not fork_available():
        return 1
    if workers is not None:
        return max(1, int(workers))
    return _resolve_workers(None)


def _decode_params(kind, params, n: int) -> tuple:
    """Rebuild the chunk-task params tuple from its JSON form."""
    if kind == "prr":
        seed_set, k = params
        decoded = (tuple(int(s) for s in seed_set), int(k))
        if decoded[1] < 0:
            raise ValueError(f"negative k {decoded[1]}")
    elif kind == "critical":
        (seed_set,) = params
        decoded = (tuple(int(s) for s in seed_set),)
    elif kind == "rr" and not params:
        return ()
    else:
        raise ValueError(f"unknown task kind {kind!r} or its params {params!r}")
    if not all(0 <= s < n for s in decoded[0]):
        raise ValueError(f"seed ids outside [0, {n})")
    return decoded


def _decode_chunks(header, arrays, n: int):
    """``(tag, kind, params, jobs)`` of a ``chunks`` frame over a graph of
    ``n`` nodes; a malformed frame raises :class:`ProtocolError`."""
    try:
        tag = int(header["tag"])
        kind = header["kind"]
        params = _decode_params(kind, header["params"], n)
        cids = [int(cid) for cid in header["jobs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed chunks frame: {exc}") from exc
    if len(arrays) != 2 * len(cids):
        raise ProtocolError(
            f"{len(cids)} jobs need {2 * len(cids)} arrays, got {len(arrays)}"
        )
    jobs = list(zip(cids, arrays[0::2], arrays[1::2]))
    for cid, roots, world_seeds in jobs:
        if (roots.dtype != np.int64 or world_seeds.dtype != np.uint64
                or roots.ndim != 1 or roots.shape != world_seeds.shape):
            raise ProtocolError(f"job {cid}: arrays are not matching "
                                "int64 roots and uint64 world seeds")
        if roots.size and (roots.min() < 0 or roots.max() >= n):
            raise ProtocolError(f"job {cid}: roots outside [0, {n})")
    return tag, kind, params, jobs


def _serve_chunks(conn, graph, workers: int, stats, next_msg,
                  compute=None) -> None:
    """Answer ``chunks`` frames until EOF or ``bye``.

    A serial host answers each chunk as soon as it is computed; a host
    with ``workers > 1`` runs a whole frame on its local pool first.  A
    chunk that raises gets a ``chunk_error``, and the rest of its frame
    (the same failed run) is skipped.  ``compute`` stands in for
    :func:`~repro.core.parallel.run_chunks_local`; a batch it returns no
    arrays for gets no answer.
    """
    while True:
        msg = next_msg()
        if msg is None:
            return
        header, arrays = msg
        if header.get("type") == "bye":
            return
        try:
            if header.get("type") != "chunks":
                raise ProtocolError(
                    f"unexpected message type {header.get('type')!r}"
                )
            tag, kind, params, jobs = _decode_chunks(header, arrays, graph.n)
        except ProtocolError as exc:
            send_msg(conn, {"type": "error", "detail": str(exc)})
            stats["errors"] += 1
            return
        run = compute or run_chunks_local
        batches = [jobs] if workers > 1 else [[job] for job in jobs]
        for batch in batches:
            try:
                parts = run(graph, kind, batch, params, workers)
            except Exception as exc:  # deterministic failures fail fast
                send_msg(conn, {
                    "type": "chunk_error",
                    "tag": tag,
                    "cid": batch[0][0],
                    "detail": f"{type(exc).__name__}: {exc}",
                })
                stats["errors"] += 1
                break
            for (cid, _roots, _seeds), out in zip(batch, parts):
                send_msg(conn, {"type": "result", "tag": tag, "cid": cid}, out)
                stats["chunks"] += 1


def _serve_connection(conn, graph, identity, workers: int, stats,
                      stop: Optional[threading.Event] = None) -> None:
    """One coordinator session: handshake, then chunk batches until EOF.

    ``stop`` (when given) is polled between frames; setting it drops the
    connection mid-session — the coordinator sees EOF and re-assigns any
    outstanding chunks, which is exactly how the fault-injection tests
    simulate a worker-host kill.
    """

    def _next_msg():
        import select

        while True:
            if stop is not None and stop.is_set():
                return None
            readable, _w, _x = select.select([conn], [], [], 0.25)
            if readable:
                return recv_msg(conn)

    msg = _next_msg()
    if msg is None:
        return
    header, _arrays = msg
    if header.get("type") != "hello":
        send_msg(conn, {"type": "error", "detail": "expected hello"})
        return
    if header.get("protocol") != PROTOCOL_VERSION:
        send_msg(conn, {
            "type": "error",
            "detail": f"protocol {header.get('protocol')} != "
                      f"{PROTOCOL_VERSION}",
        })
        return
    for key in ("fingerprint", "store_digest"):
        theirs, ours = header.get(key), identity.get(key)
        if theirs is not None and ours is not None and theirs != ours:
            send_msg(conn, {
                "type": "error",
                "detail": f"{key} mismatch: coordinator {theirs!r} != "
                          f"worker {ours!r}",
            })
            stats["rejected"] += 1
            return
    send_msg(conn, {
        "type": "welcome",
        "protocol": PROTOCOL_VERSION,
        "pid": os.getpid(),
        "workers": workers,
        "cores": os.cpu_count() or 1,
        "fingerprint": identity.get("fingerprint"),
    })
    stats["sessions"] += 1
    _serve_chunks(conn, graph, workers, stats, _next_msg)


def _drop_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but ``keep`` at ``/dev/null``, so a
    dead sibling host, or a dead coordinator, still reads as EOF.
    ``dup2``, not ``close``: an inherited Python socket object collected
    later would otherwise close whatever reused its number."""
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in map(int, os.listdir("/dev/fd")):
            try:
                if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:  # the listing's own directory descriptor
                continue
    finally:
        os.close(devnull)


def serve_local_host(sock: socket.socket, graph, slot: int,
                     generation: int) -> None:
    """Run one forked local host: answer chunks on ``sock`` until EOF.

    The host builds its own engine rather than use the inherited one,
    whose scratch another parent thread may have been mid-kernel on at
    fork time.  It alone reads the ``REPRO_FAULT_*`` plan
    (:mod:`repro.testing.faults`), counting the chunks it receives.
    """
    _drop_inherited_sockets(keep=sock.fileno())
    # The parent's SIGTERM handler (a server's cache snapshot) is not ours.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    graph._engine_cache = SamplingEngine(graph)
    plan = faults.plan_from_env()
    received = itertools.count(1)

    def compute(graph, kind, jobs, params, workers):  # one chunk per call
        action = plan.action_for(slot, generation, next(received))
        if action.delay_s:
            time.sleep(action.delay_s)
        if action.kill:
            os._exit(17)  # a hard crash holding its chunks
        if action.drop:
            return []  # no answer
        return run_chunks_local(graph, kind, jobs, params, workers)

    try:
        _serve_chunks(sock, graph, 1, Counter(), lambda: recv_msg(sock),
                      compute if plan is not None else None)
    except (ProtocolError, OSError):
        pass  # the coordinator went away mid-frame


def serve_worker(
    graph,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: Optional[int] = None,
    *,
    max_sessions: Optional[int] = None,
    ready=None,
    stop: Optional[threading.Event] = None,
) -> Dict[str, Any]:
    """Serve ``graph`` as one distributed-sampling worker host.

    Blocks until ``max_sessions`` coordinator sessions have been served
    (``None`` = forever), ``stop`` is set, or the thread is interrupted;
    returns the session/chunk counters.  ``ready`` (when given) is
    called once with ``{"host", "port", "workers"}`` as soon as the
    socket listens — with ``port=0`` that is how callers learn the
    ephemeral port.
    """
    workers = _resolve_local_workers(workers)
    store = publishable_store(graph)
    identity = {
        "fingerprint": graph_fingerprint(graph),
        "store_digest": store_digest(store) if store else None,
    }
    stats: Dict[str, Any] = {
        "sessions": 0, "chunks": 0, "errors": 0, "rejected": 0,
        "workers": workers,
    }
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(4)
        server.settimeout(0.2)
        bound = server.getsockname()
        if ready is not None:
            ready({"host": bound[0], "port": bound[1], "workers": workers})
        served = 0
        while max_sessions is None or served < max_sessions:
            if stop is not None and stop.is_set():
                break
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            served += 1
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                _serve_connection(conn, graph, identity, workers, stats,
                                  stop=stop)
            except (ProtocolError, OSError):
                # A torn connection (coordinator died mid-stream) ends
                # the session; the worker stays up for the next one.
                stats["errors"] += 1
            finally:
                conn.close()
    finally:
        server.close()
    return stats
