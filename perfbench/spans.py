"""Outside-in span tracer for the benchmark's traced run (``--trace 1``).

The program has no spans of its own, so the benchmark installs wrappers
around the public functions of each layer and records a span per call.
A wrapper replaces the attribute where the program looks it up:

* class methods on the class (``SamplingEngine``, ``CoverageIndex``,
  ``PRRArena``, ``ResultCache``, ``AdmissionPolicy``, ``Session``,
  ``DiGraph``),
* lazily imported functions on their module (``repro.core.parallel``,
  ``repro.storage``, ``repro.api.serve``),
* names imported by value in the consumer's namespace
  (``repro.core.boost``; ``repro.im.imm`` is reached through
  ``sys.modules`` because the package attribute of that name is the
  ``imm`` function),
* algorithm handlers through ``register_algorithm``.

A span stores its name, start, end, parent and the id of the request it
belongs to.  Span stacks are per thread; a span that opens on a thread
with an empty stack (a ``run_many`` lane) is adopted by the innermost
open span of the client thread.  Spans stay in memory until the run
ends, when :meth:`Tracer.write` writes them out.  A span's self time is
its duration minus the part of it that its children cover, so on a
serial request the self times of all its spans add up to the request's
duration.

Forked pool workers and dist hosts run outside this process and are not
traced; ``core.parallel.dispatch`` is coordinator wall time, waiting
included.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

HANDLERS = ("prr_boost", "prr_boost_lb", "imm", "ssa", "evaluate", "degree_global")

# Span name -> per-layer metric holding the sum of its self times.
_TIME_METRICS = {
    "engine.prr_phase1_lanes": "engine.prr_phase1_lanes_s",
    "core.prr.compress": "core.prr.compress_s",
    "engine.critical_lane_csr": "engine.critical_lane_csr_s",
    "engine.rr_lane_csr": "engine.rr_lane_csr_s",
    "engine.coverage.greedy": "engine.coverage.greedy_s",
    "engine.coverage.extend": "engine.coverage.extend_s",
    "core.estimator.greedy_delta": "core.estimator.greedy_delta_s",
    "core.estimator.estimate": "core.estimator.estimate_s",
    "im.imm_sampling": "im.imm_sampling.self_s",
    "engine.mc": "engine.mc_s",
    "engine.warm": "engine.warm_s",
    "core.parallel.dispatch": "core.parallel.dispatch_s",
    "core.parallel.merge": "core.parallel.merge_s",
    "core.parallel.pool_start": "core.parallel.pool_start_s",
    "dist.hosts_up": "dist.hosts_up_s",
    "dist.connect": "dist.connect_s",
    "api.serve.codec": "api.serve.codec_s",
    "api.session.run": "api.session.overhead_s",
    "api.cache.lookup": "api.cache.lookup_s",
    "api.admission.decide": "api.admission.decide_s",
    "storage.open": "storage.open_s",
    "graphs.update_probabilities": "graphs.update_probabilities_s",
    "query": "trace.unattributed_s",
    **{f"api.handler.{h}": f"api.handler.{h}_s" for h in HANDLERS},
}

# Counters the workloads read from the program's own stats() surfaces.
PROBED_COUNTS = (
    "api.cache.hits",
    "api.cache.misses",
    "core.parallel.restarts",
    "core.parallel.retries",
    "dist.host_losses",
    "dist.reassigned",
)

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS: Dict[str, str] = {
    **{metric: "s" for metric in _TIME_METRICS.values()},
    "engine.prr_phase1_lanes.roots": "count",
    "core.prr.boostable_ratio": "ratio",
    "core.prr.compressed_edges": "edges",
    "core.prr.uncompressed_edges": "edges",
    "engine.critical_lane_csr.samples": "count",
    "engine.rr_lane_csr.samples": "count",
    "engine.coverage.greedy.calls": "count",
    "im.imm_sampling.calls": "count",
    "engine.mc_runs": "count",
    "core.parallel.chunks": "count",
    "core.parallel.degraded": "count",
    "api.session.lane_wait_s": "s",
    "api.cache.hit_ratio": "ratio",
    "api.admission.admitted": "count",
    "api.admission.queued": "count",
    "api.admission.rejected": "count",
    "storage.resident_mb": "MB",
    "trace.query_s": "s",
    "trace.overhead_ratio": "ratio",
    **{name: "count" for name in PROBED_COUNTS},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "children")

    def __init__(self, name: str, parent: Optional["Span"], query) -> None:
        self.name = name
        self.parent = parent
        self.query = query
        self.children: List[Span] = []
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the children's intervals."""
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class Tracer:
    """Wrapper installer, span recorder and per-layer aggregator."""

    def __init__(self) -> None:
        self.active = False
        self.query = None
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.probe: Optional[Callable[[], Dict[str, float]]] = None
        self.lane_wait = 0.0
        self._pid = os.getpid()
        self._main = threading.main_thread()
        self._main_stack: List[Span] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _enter(self, name: str) -> Span:
        stack = self._stack()
        adopted = not stack and stack is not self._main_stack
        if stack:
            parent = stack[-1]
        elif adopted and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, parent, self.query)
        if adopted and parent is not None and name.startswith("api.handler."):
            # A batched query's handler opened on a lane thread: the time
            # since its run_many call started is lane wait.
            with self._lock:
                self.lane_wait += span.start - parent.start
        stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span around a block the benchmark itself runs."""
        if not self.active:
            yield
            return
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    @contextmanager
    def request(self, query_id):
        """The root span of one client request."""
        if not self.active:
            yield
            return
        self.query = query_id
        span = self._enter("query")
        try:
            yield
        finally:
            self._exit(span)
            self.query = None

    @contextmanager
    def traced(self):
        """Record spans (and probe counter deltas) for the enclosed block."""
        before = self.probe() if self.probe else {}
        self.active = True
        try:
            yield
        finally:
            self.active = False
            after = self.probe() if self.probe else {}
            for key, value in after.items():
                self.counts[key] += value - before.get(key, 0)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, count=None) -> Callable:
        tracer = self
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer, span, bound.arguments, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, count))
        else:
            wrapped = self._wrap(raw, name, count)
        setattr(owner, attr, wrapped)
        self._restore.append(lambda: setattr(owner, attr, raw))

    def install(self) -> None:
        """Install every layer wrapper (undone by :meth:`uninstall`)."""
        from repro.api import AdmissionPolicy, ResultCache, Session
        from repro.api import algorithms, serve
        from repro.api.registry import get_algorithm, register_algorithm
        from repro.core import boost, parallel
        from repro.core.prr import PRRArena
        from repro.engine import CoverageIndex, SamplingEngine
        from repro.graphs import DiGraph
        import repro.storage as storage

        imm_module = sys.modules["repro.im.imm"]

        def add(key):
            def count(tracer, span, args, result):
                tracer.counts[key] += 1
            return count

        def add_arg(key, arg, fn=int):
            def count(tracer, span, args, result):
                tracer.counts[key] += fn(args[arg])
            return count

        def add_chunks(arg):
            def count(tracer, span, args, result):
                tracer.counts["core.parallel.chunks"] += math.ceil(
                    int(args[arg]) / parallel.CHUNK_SIZE
                )
            return count

        def add_mc_runs(arg):
            # Only the outermost Monte-Carlo span counts its runs:
            # rank_candidates delegates to the engine estimators.
            def count(tracer, span, args, result):
                if span.parent is None or span.parent.name != "engine.mc":
                    tracer.counts["engine.mc_runs"] += int(args[arg])
            return count

        def admission(tracer, span, args, result):
            key = {"admit": "admitted", "queue": "queued"}.get(result.action, "rejected")
            tracer.counts[f"api.admission.{key}"] += 1

        patches = [
            (SamplingEngine, "__init__", "engine.warm", None),
            (SamplingEngine, "prr_phase1_lanes", "engine.prr_phase1_lanes",
             add_arg("engine.prr_phase1_lanes.roots", "roots", len)),
            (SamplingEngine, "critical_lane_csr", "engine.critical_lane_csr",
             add_arg("engine.critical_lane_csr.samples", "count")),
            (SamplingEngine, "rr_lane_csr", "engine.rr_lane_csr",
             add_arg("engine.rr_lane_csr.samples", "count")),
            (SamplingEngine, "estimate_boost", "engine.mc", add_mc_runs("runs")),
            (SamplingEngine, "estimate_sigma", "engine.mc", add_mc_runs("runs")),
            (algorithms, "rank_candidates", "engine.mc", add_mc_runs("mc_runs")),
            (CoverageIndex, "greedy", "engine.coverage.greedy",
             add("engine.coverage.greedy.calls")),
            (CoverageIndex, "extend_csr", "engine.coverage.extend", None),
            (boost, "sample_prr_lanes", "core.prr.compress", None),
            (parallel, "sample_prr_lanes", "core.prr.compress", None),
            (boost, "imm_sampling", "im.imm_sampling", add("im.imm_sampling.calls")),
            (imm_module, "imm_sampling", "im.imm_sampling", add("im.imm_sampling.calls")),
            (boost, "greedy_delta_selection", "core.estimator.greedy_delta", None),
            (boost, "estimate_mu", "core.estimator.estimate", None),
            (boost, "estimate_delta", "core.estimator.estimate", None),
            (boost, "collection_stats", "core.estimator.estimate", None),
            (parallel, "parallel_prr_payloads", "core.parallel.dispatch", add_chunks("count")),
            (parallel, "parallel_rr_csr", "core.parallel.dispatch", add_chunks("count")),
            (parallel, "parallel_critical_csr", "core.parallel.dispatch", add_chunks("count")),
            (PRRArena, "from_payloads", "core.parallel.merge", None),
            (PRRArena, "extend_arena", "core.parallel.merge", None),
            (parallel, "get_runtime", "core.parallel.pool_start", None),
            (Session, "ensure_runtime", "core.parallel.pool_start", None),
            (Session, "run", "api.session.run", None),
            (Session, "run_many", "api.session.run", None),
            (serve, "serve_ndjson", "api.serve.codec", None),
            (ResultCache, "get", "api.cache.lookup", None),
            (ResultCache, "put", "api.cache.lookup", None),
            (AdmissionPolicy, "decide", "api.admission.decide", admission),
            (storage, "open_graph", "storage.open", None),
            (DiGraph, "update_probabilities", "graphs.update_probabilities", None),
        ]
        for owner, attr, name, count in patches:
            self._patch(owner, attr, name, count)
        for handler in HANDLERS:
            original = get_algorithm(handler)
            register_algorithm(handler, self._wrap(original, f"api.handler.{handler}"))
            self._restore.append(
                lambda h=handler, fn=original: register_algorithm(h, fn)
            )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def write(self, path) -> None:
        """Write every recorded span as a JSON line; ``parent`` is the
        line number (from 0) of the parent span, or null."""
        line = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": line.get(id(span.parent)), "query": span.query,
                }) + "\n")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def link(self) -> None:
        """Attach every recorded span to its parent's child list."""
        for span in self.spans:
            span.children = []
        for span in self.spans:
            if span.parent is not None:
                span.parent.children.append(span)

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics over the recorded spans and probed counters
        (setup-only and workload-level keys are filled in by the caller)."""
        self.link()
        out = {metric: 0.0 for metric in PER_LAYER_UNITS}
        for span in self.spans:
            metric = _TIME_METRICS.get(span.name)
            if metric is not None:
                out[metric] += span.self_time()
            if span.name == "query":
                out["trace.query_s"] += span.duration
        out.update(self.counts)
        out["api.session.lane_wait_s"] = self.lane_wait
        lookups = out["api.cache.hits"] + out["api.cache.misses"]
        out["api.cache.hit_ratio"] = out["api.cache.hits"] / lookups if lookups else 0.0
        return out
