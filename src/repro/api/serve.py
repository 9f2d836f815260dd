"""Batch serving front ends over a warm :class:`~repro.api.Session`.

Two thin transports expose the serving tier (result cache, admission,
``run_many``) without any dependency beyond the stdlib:

* :func:`serve_ndjson` — newline-delimited JSON over arbitrary streams
  (stdin/stdout in the CLI).  Each input line is either one query object
  (the :meth:`~repro.api.queries._BaseQuery.to_dict` wire shape) or an
  array of them; each query produces exactly one NDJSON output line, in
  input order.  An array runs as one ``run_many`` batch: admitted
  queries first, then queue-classed ones, each answer in its query's
  position.
* :func:`serve_http` — a ``http.server``-based endpoint::

      POST /query    body = query object or array -> result / array
      GET  /stats    session + cache + serve counters
      GET  /healthz  liveness probe

  Requests are handled on server threads; query execution is serialized
  per request through a session lock, which keeps the shared warm
  scratch single-writer without a second queueing layer.

Error contract (both transports): every non-result outcome is a
structured envelope carrying one class of the error taxonomy
(:mod:`repro.api.result`) — ``bad_request`` for malformed input,
``rejected`` for admission refusals, ``timeout`` for missed
``deadline_ms`` budgets, ``failed`` for algorithm exceptions — and the
stream/server keeps going either way.  The NDJSON transport emits the
envelopes inline, one line per query, always.  The HTTP transport
additionally maps the classes to status codes (400 / 429 / 504 / 500):
a single-query POST gets its envelope's code, a batch POST answers 200
with inline envelopes unless the batch is malformed (400) or every
envelope carries the same error class (that class's code).
``GET /healthz`` turns 503 while the runtime is degraded.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from typing import Any, Dict, IO, List, Optional

from .admission import AdmissionRejected
from .queries import query_from_dict
from .result import ERROR_FAILED, ERROR_REJECTED, ERROR_TIMEOUT
from .session import Session

__all__ = ["serve_ndjson", "serve_http", "ServeStats"]


class ServeStats:
    """Thread-safe request counters shared by the front ends."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.results = 0
        self.rejected = 0
        self.errors = 0

    def count(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def to_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "requests": self.requests,
                "results": self.results,
                "rejected": self.rejected,
                "errors": self.errors,
            }


def _bad_request(detail: str) -> Dict[str, Any]:
    return {"error": "bad_request", "detail": detail}


_STATUS_BY_ERROR = {
    "bad_request": 400,
    ERROR_REJECTED: 429,   # the client may retry with a smaller budget
    ERROR_TIMEOUT: 504,    # the deadline elapsed before the answer
    ERROR_FAILED: 500,     # the algorithm raised
}


def _status_of(envelope: Dict[str, Any]) -> int:
    """The HTTP status an envelope maps to (200 for normal results)."""
    error = envelope.get("error")
    if error is None:
        extra = envelope.get("extra")
        if isinstance(extra, dict):
            error = extra.get("error")
    return _STATUS_BY_ERROR.get(error, 200)


def _answer(
    session: Session,
    payload: Any,
    stats: ServeStats,
    default_deadline_ms: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Run one decoded request payload; one envelope dict per query.

    A dict payload is a single query; a list payload is a batch handed to
    ``run_many``.  Admission rejections, deadline misses and algorithm
    failures all come back as their structured envelopes in-position
    (never as exceptions), so a batch with one bad member still answers
    the rest.  Queries without their own ``deadline_ms``
    inherit ``default_deadline_ms`` (the server-wide latency SLO).
    """
    batch = payload if isinstance(payload, list) else [payload]
    if not batch:
        return []
    queries = []
    for entry in batch:
        if not isinstance(entry, dict):
            stats.count("errors")
            return [_bad_request("each query must be a JSON object")]
        try:
            query = query_from_dict(entry)
        except (ValueError, TypeError) as exc:
            stats.count("errors")
            return [_bad_request(str(exc))]
        if default_deadline_ms is not None and query.deadline_ms is None:
            query = dataclasses.replace(query, deadline_ms=default_deadline_ms)
        queries.append(query)
    try:
        results = session.run_many(
            queries, on_reject="envelope", on_error="envelope"
        )
    except AdmissionRejected as exc:  # defensive; run_many envelopes these
        stats.count("rejected")
        return [exc.envelope]
    out = []
    for result in results:
        envelope = result.to_dict()
        error = envelope.get("extra", {}).get("error")
        if error == ERROR_REJECTED:
            stats.count("rejected")
        elif error is not None:
            stats.count("errors")
        else:
            stats.count("results")
        out.append(envelope)
    return out


def serve_ndjson(
    session: Session,
    in_stream: IO[str],
    out_stream: IO[str],
    default_deadline_ms: Optional[int] = None,
) -> Dict[str, Any]:
    """Answer NDJSON queries from ``in_stream`` on ``out_stream``.

    Blocks until the input stream is exhausted; returns the final serve
    stats (also what ``repro serve`` prints to stderr on exit).  Output
    is flushed per input line, so a pipe-connected client sees each
    answer as soon as its line completes.  Error envelopes (rejection,
    timeout, failure) stay inline — one output line per query, always.
    """
    stats = ServeStats()
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        stats.count("requests")
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            stats.count("errors")
            envelopes = [_bad_request(f"invalid JSON: {exc}")]
        else:
            envelopes = _answer(session, payload, stats, default_deadline_ms)
        for envelope in envelopes:
            out_stream.write(json.dumps(envelope) + "\n")
        out_stream.flush()
    summary = dict(session.stats())
    summary["serve"] = stats.to_dict()
    return summary


def serve_http(
    session: Session,
    host: str = "127.0.0.1",
    port: int = 8321,
    *,
    poll_interval: float = 0.5,
    ready: Optional[threading.Event] = None,
    stop: Optional[threading.Event] = None,
    default_deadline_ms: Optional[int] = None,
) -> Dict[str, Any]:
    """Serve the HTTP endpoint until interrupted (or ``stop`` is set).

    ``ready``/``stop`` exist for embedding (tests, background threads):
    ``ready`` is set once the socket is bound — read the bound port from
    ``ready.port`` when ``port=0`` asked for an ephemeral one.

    ``default_deadline_ms`` is the server-wide latency SLO: queries that
    do not carry their own ``deadline_ms`` inherit it.  Status codes
    follow the error taxonomy (429 rejected, 504 timeout, 500 failed);
    ``/healthz`` answers 503 with the supervision counters while the
    runtime is degraded.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    stats = ServeStats()
    session_lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        # Quiet by default: serving stderr is for the exit summary.
        def log_message(self, fmt, *args):  # noqa: D102
            pass

        def _send(self, code: int, payload: Any) -> None:
            body = json.dumps(payload).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            if self.path == "/healthz":
                health = session.runtime_health()
                if health is not None and health.degraded:
                    # Not-ready: load balancers should drain this
                    # replica — it still answers (serially), but at a
                    # fraction of its provisioned throughput.
                    self._send(
                        503,
                        {
                            "ok": False,
                            "degraded": True,
                            "runtime": health.to_dict(),
                        },
                    )
                    return
                payload: Dict[str, Any] = {"ok": True}
                if health is not None:
                    payload["runtime"] = health.to_dict()
                self._send(200, payload)
            elif self.path == "/stats":
                summary = dict(session.stats())
                summary["serve"] = stats.to_dict()
                self._send(200, summary)
            else:
                self._send(404, _bad_request(f"unknown path {self.path!r}"))

        def do_POST(self) -> None:  # noqa: N802
            if self.path != "/query":
                self._send(404, _bad_request(f"unknown path {self.path!r}"))
                return
            stats.count("requests")
            length = int(self.headers.get("Content-Length") or 0)
            try:
                payload = json.loads(self.rfile.read(length) or b"null")
            except json.JSONDecodeError as exc:
                stats.count("errors")
                self._send(400, _bad_request(f"invalid JSON: {exc}"))
                return
            with session_lock:
                envelopes = _answer(
                    session, payload, stats, default_deadline_ms
                )
            if isinstance(payload, list):
                # A malformed batch is the client's fault: 400.  A clean
                # batch answers 200 with the envelopes inline — unless
                # every envelope carries the same error class, in which
                # case that class's code is more useful to middleboxes
                # (e.g. an all-rejected burst surfaces as 429).
                statuses = {_status_of(e) for e in envelopes}
                if 400 in statuses:
                    code = 400
                elif len(statuses) == 1:
                    code = statuses.pop()
                else:
                    code = 200
                self._send(code, envelopes)
            else:
                self._send(_status_of(envelopes[0]), envelopes[0])

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    server.timeout = poll_interval
    try:
        if ready is not None:
            ready.port = server.server_address[1]  # type: ignore[attr-defined]
            ready.set()
        while stop is None or not stop.is_set():
            server.handle_request()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    summary = dict(session.stats())
    summary["serve"] = stats.to_dict()
    return summary
