"""The session facade: one warm surface over engine, runtime and algorithms.

A :class:`Session` binds a :class:`~repro.graphs.digraph.DiGraph` to all
the state that is expensive to build and cheap to keep:

* the graph's :class:`~repro.engine.SamplingEngine` (CSR views, per-edge
  hash bases and Bernoulli thresholds, reusable stamp/lane buffers) —
  built eagerly at session open, so the first query is as fast as the
  hundredth,
* the local host pool (:mod:`repro.core.parallel`) for
  queries with ``workers > 1`` — spun up on first use (or pre-warmed by
  :meth:`run_many`), torn down by :meth:`close`,
* recycled :class:`~repro.engine.coverage.CoverageIndex` /
  :class:`~repro.core.prr.PRRArena` scratch for the selection-heavy
  algorithms, cleared between queries instead of re-allocated,
* per-diffusion-model graph views (:meth:`Session.graph_for` /
  :meth:`Session.engine_for`): queries carry a ``model`` key
  (incoming-boost IC, outgoing-boost IC, or LT — see
  :mod:`repro.engine.models`), and the session keys its engine cache by
  model so e.g. the LT-normalized graph and its warm engine are built
  once and shared by every later LT query.

On top of that sits the serving tier:

* an optional :class:`~repro.api.cache.ResultCache` memoizes whole
  result envelopes for seeded queries, invalidated automatically when
  the graph's :attr:`~repro.graphs.DiGraph.version` moves (the
  session's graph signature, engine binding and per-model graph views
  refresh on the same signal),
* an optional :class:`~repro.api.admission.AdmissionPolicy` prices each
  query *before* sampling and rejects (or queues) over-budget work,
* :meth:`run_many` answers a batch in order on the calling thread:
  admitted queries first, then queue-classed ones, each failure folded
  into its own position on request.

Queries are typed objects (:mod:`repro.api.queries`) dispatched through
the string-keyed registry (:mod:`repro.api.registry`); every answer is a
uniform, JSON-serializable :class:`~repro.api.result.QueryResult`.

Sessions are context managers::

    with Session(graph, cache=ResultCache()) as session:
        seeds = session.run(SeedQuery(k=20, rng_seed=7)).selected
        boost = session.run(BoostQuery(seeds=seeds, k=50, rng_seed=7))
        delta = session.run(EvalQuery(seeds=seeds, boost=boost.selected,
                                      rng_seed=7))

Lifecycle contract: :meth:`close` is idempotent, releases the host
pool's processes (when this session's graph owns them), and any later
:meth:`run` raises ``RuntimeError``.  A session answers one query at a
time — the warm scratch is shared mutable state — so threads that share
one serialize their calls, as :func:`~repro.api.serve.serve_http` does
with its session lock.  Sampling parallelism lives below the session,
in the host pool.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..engine import SamplingEngine
from ..engine.coverage import CoverageIndex
from ..graphs.digraph import DiGraph
from .admission import (
    QUEUE,
    REJECT,
    AdmissionPolicy,
    AdmissionRejected,
    rejection_result,
)
from .cache import ResultCache
from .queries import Query, SamplingBudget
from .registry import get_algorithm
from .result import (
    QueryResult,
    QueryTimeout,
    failure_result,
    fingerprint_of,
)

__all__ = ["Session"]


def _package_version() -> str:
    # Imported lazily: repro/__init__ defines __version__ *after* it
    # imports this package, so the attribute only exists at query time.
    from .. import __version__

    return __version__


class Session:
    """A warm query facade bound to one influence graph.

    Parameters
    ----------
    graph:
        The influence graph every query of this session runs against.
    budget:
        Session-wide default :class:`SamplingBudget`, used by queries
        that do not carry their own.
    manage_runtime:
        When True (default), :meth:`close` tears down the local host
        pool if it is bound to this session's graph.  The
        legacy free-function wrappers pass False so a throwaway
        per-call session never kills the warm pool between calls.
    cache:
        Optional :class:`ResultCache`.  Seeded queries whose fingerprint,
        graph version, model and seed match a previous run — at any
        worker or host count — return the cached envelope without
        sampling.
    admission:
        Optional :class:`AdmissionPolicy`.  Every query is priced before
        it runs; rejection raises :exc:`AdmissionRejected` (or yields a
        rejection envelope in :meth:`run_many` with
        ``on_reject="envelope"``), and "queue"-classed queries run after
        the admitted queries of their batch.
    hosts:
        Optional worker-host endpoints (``"host:port,host:port"`` or a
        sequence) running ``repro dist-worker`` on replicas of this
        graph.  The session connects a
        :class:`~repro.dist.DistributedRuntime` eagerly (handshake
        failures raise here, not mid-query) and binds it to the graph,
        after which every chunked sampling dispatch shards across the
        hosts; results stay bit-identical to the local paths.
    """

    def __init__(
        self,
        graph: DiGraph,
        budget: Optional[SamplingBudget] = None,
        manage_runtime: bool = True,
        cache: Optional[ResultCache] = None,
        admission: Optional[AdmissionPolicy] = None,
        hosts=None,
    ) -> None:
        self.graph = graph
        self.default_budget = budget if budget is not None else SamplingBudget()
        self._manage_runtime = bool(manage_runtime)
        self.cache = cache
        self.admission = admission
        self._closed = False
        self.queries_run = 0
        # Warm the engine now: CSR views, splitmix64 hash bases, integer
        # thresholds and scratch planes are built once per graph and every
        # query (and every other session on the same graph) reuses them.
        SamplingEngine.for_graph(graph)
        self._scratch_index: Optional[CoverageIndex] = None
        self._scratch_arena = None  # repro.core.prr.PRRArena, built lazily
        self._candidates_cache: dict = {}
        self._tree_cache: dict = {}
        # Per-diffusion-model graph views, keyed by canonical model name.
        # IC-family models run on the session graph itself; the LT model
        # runs on the weight-normalized copy, built (and its engine
        # warmed) on first LT query — this is the engine-cache keying
        # that lets one warm session serve every diffusion semantics.
        self._model_graphs: dict = {"ic": graph, "ic_out": graph}
        self._graph_signature: Dict[str, float] = {}
        self._signature_version = -1
        self._signature()
        self._dist = None
        if hosts:
            from ..core.parallel import bind_distributed_runtime
            from ..dist import DistributedRuntime

            self._dist = DistributedRuntime(graph, hosts)
            bind_distributed_runtime(graph, self._dist)

    @classmethod
    def from_store(cls, path, mode: str = "mmap", **kwargs) -> "Session":
        """Open a session directly on an on-disk graph store.

        ``mode="mmap"`` (default) backs the graph — and the engine's
        precomputed arrays, warmed here at open — by zero-copy views
        over the store file, so session open cost and resident memory
        are both independent of graph size; ``mode="memory"``
        materializes the store into RAM first.  Remaining keyword
        arguments go to the :class:`Session` constructor.
        """
        from ..storage import open_graph

        return cls(open_graph(path, mode=mode), **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release session state (idempotent).

        Drops the recycled scratch and — for runtime-managing sessions —
        shuts down the local host pool when it is bound to this session's
        graph.
        The engine stays cached on the graph (it is plain process-local
        memory shared by design).
        """
        if self._closed:
            return
        self._closed = True
        self._scratch_index = None
        self._scratch_arena = None
        self._candidates_cache.clear()
        self._tree_cache.clear()
        self._model_graphs.clear()
        if self._dist is not None:
            from ..core.parallel import unbind_distributed_runtime

            unbind_distributed_runtime(self.graph)
            self._dist.shutdown()
            self._dist = None
        if self._manage_runtime:
            from ..core.parallel import shutdown_runtime_for

            shutdown_runtime_for(self.graph)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # ------------------------------------------------------------------
    # Warm state, keyed by the graph version
    # ------------------------------------------------------------------
    @property
    def engine(self) -> SamplingEngine:
        """The warm engine for the session graph (rebuilt transparently
        when the graph's probabilities are updated in place)."""
        return SamplingEngine.for_graph(self.graph)

    def _signature(self) -> Dict[str, float]:
        """The fingerprint's graph component, refreshed on version bumps.

        A probability update (:meth:`DiGraph.update_probabilities`) bumps
        the graph version; the next query recomputes the probability
        sums and drops the per-model graph views built from the old
        arrays, so fingerprints and LT-normalized copies always describe
        the graph a query actually ran on.  The version itself is *not*
        part of the signature — equal graphs give equal fingerprints
        across fresh processes — it is the cache key's invalidation
        field instead.
        """
        version = getattr(self.graph, "version", 0)
        if self._signature_version != version:
            src, dst, p, pp = self.graph.edge_arrays()
            self._graph_signature = {
                "n": int(self.graph.n),
                "m": int(self.graph.m),
                "p_sum": round(float(p.sum()), 9),
                "pp_sum": round(float(pp.sum()), 9),
            }
            self._model_graphs = {"ic": self.graph, "ic_out": self.graph}
            self._signature_version = version
        return self._graph_signature

    def fingerprint_for(self, query: Query) -> str:
        """The reproducibility fingerprint a query will be stamped with.

        Binds the query dict, its resolved budget *minus the ``workers``
        execution hint*, the graph signature and the package version.
        Workers are excluded because they only decide where samples are
        evaluated: every sample is drawn from the query's RNG, so a
        seeded query gets the same answer at any worker or host count.
        Fingerprints are stable across worker counts, hosts, fresh
        sessions, and cache on/off.
        """
        budget = self.resolve_budget(query).to_dict()
        budget.pop("workers", None)
        return fingerprint_of(
            {
                # canonical_dict drops the query's embedded budget — the
                # resolved one above is the binding copy.
                "query": query.canonical_dict(),
                "budget": budget,
                "graph": self._signature(),
                "version": _package_version(),
            }
        )

    # ------------------------------------------------------------------
    # Warm scratch
    # ------------------------------------------------------------------
    def scratch_index(self) -> CoverageIndex:
        """A cleared coverage index, recycled across this session's queries.

        Handlers whose results never alias the index (PRR-Boost's μ arm)
        use this instead of allocating; handlers that hand sample views to
        the caller (IMM/SSA's ``samples``) must NOT — they allocate their
        own so results outlive the next query.
        """
        self._check_open()
        if self._scratch_index is None:
            self._scratch_index = CoverageIndex(self.graph.n)
        else:
            self._scratch_index.clear()
        return self._scratch_index

    def scratch_arena(self):
        """A cleared PRR arena, recycled across this session's queries."""
        self._check_open()
        from ..core.prr import PRRArena

        if self._scratch_arena is None:
            self._scratch_arena = PRRArena(self.graph.n)
        else:
            self._scratch_arena.clear()
        return self._scratch_arena

    def graph_for(self, model=None) -> DiGraph:
        """The graph view queries under ``model`` run on, cached per model.

        IC-family models share the session graph; the LT model gets the
        weight-normalized copy (each node's incoming base weights scaled
        to sum ≤ 1), built once on first use.  Accepts a model name,
        alias, or instance; ``None`` means the default incoming-boost IC.
        """
        self._check_open()
        from ..engine.models import resolve_model

        mdl = resolve_model(model)
        self._signature()  # drop stale model views after a graph mutation
        graph = self._model_graphs.get(mdl.name)
        if graph is None:
            graph = mdl.prepare_graph(self.graph)
            self._model_graphs[mdl.name] = graph
        return graph

    def engine_for(self, model=None) -> SamplingEngine:
        """The warm engine serving ``model``'s graph view.

        The default model returns the session engine; other views get
        (and cache, via the graph's engine slot) their own engine, so a
        mixed query stream pays each model's warm-up exactly once.
        """
        return SamplingEngine.for_graph(self.graph_for(model))

    def candidates_for(self, seeds) -> set:
        """The non-seed candidate pool for ``seeds``, cached per seed set.

        Serving traffic repeats queries against a handful of seed sets;
        deriving ``{0..n-1} - seeds`` is O(n) per call, so the warm
        session memoizes it.  Consumers treat the pool as read-only
        (mask building and membership tests), so sharing one set object
        is safe and output-identical.
        """
        self._check_open()
        key = tuple(seeds)
        pool = self._candidates_cache.get(key)
        if pool is None:
            seed_set = set(key)
            pool = {v for v in range(self.graph.n) if v not in seed_set}
            if len(self._candidates_cache) >= 16:
                self._candidates_cache.clear()
            self._candidates_cache[key] = pool
        return pool

    def tree_for(self, seeds, root: int = 0):
        """The rooted :class:`~repro.trees.BidirectedTree` view for
        ``(seeds, root)``, cached per graph version.

        Building the rooted view is an O(n) BFS plus probability table
        assembly, and the tree handlers additionally reuse its cached
        :class:`~repro.trees.bidirected.TreePlan`; serving traffic
        repeats queries against a handful of seed sets, so the session
        memoizes the whole object.  Raises ``ValueError`` (from the tree
        constructor) when the session graph is not a bidirected tree.
        Entries are keyed by the graph version, so in-place probability
        updates invalidate them like every other warm view.
        """
        self._check_open()
        from ..trees.bidirected import BidirectedTree

        key = (tuple(sorted(int(s) for s in seeds)), int(root),
               getattr(self.graph, "version", 0))
        tree = self._tree_cache.get(key)
        if tree is None:
            tree = BidirectedTree(self.graph, key[0], root=int(root))
            if len(self._tree_cache) >= 16:
                self._tree_cache.clear()
            self._tree_cache[key] = tree
        return tree

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------
    def resolve_budget(self, query: Query) -> SamplingBudget:
        """The budget a query runs under (its own, else the session's)."""
        return query.budget if query.budget is not None else self.default_budget

    def _effective_workers(self, queries: Sequence[Query]) -> int:
        from ..core.parallel import resolve_sampler_workers

        best = 1
        for query in queries:
            budget = self.resolve_budget(query)
            best = max(best, resolve_sampler_workers(budget.workers))
        return best

    def ensure_runtime(self, workers: Optional[int] = None) -> bool:
        """Pre-warm the local host pool for ``workers`` (fork platforms).

        Returns whether a pool is (now) running for this graph; serial
        configurations and fork-less platforms return False and stay
        serial — queries then fall back transparently.
        """
        self._check_open()
        from ..core.parallel import (
            fork_available,
            get_runtime,
            resolve_sampler_workers,
        )

        effective = resolve_sampler_workers(workers)
        if effective <= 1 or not fork_available():
            return False
        get_runtime(self.graph, effective)
        return True

    def runtime_health(self):
        """Supervision snapshot of this graph's worker pool, or ``None``.

        ``None`` means no pool is live for this session's graph (serial
        configurations, fork-less platforms, pre-warm-up, post-close) —
        which callers should read as "healthy, trivially": there are no
        workers to lose.  A ``hosts=`` session reports its distributed
        runtime instead, with per-host counters.  See
        :class:`~repro.core.parallel.RuntimeHealth`.
        """
        from ..core.parallel import runtime_health

        return runtime_health(self.graph)

    def effective_parallelism(self, query=None) -> int:
        """How many sampling workers a query's chunks spread across.

        The admission cost model divides sampling work by this: the
        distributed runtime's summed remote capacity when hosts are
        attached (and healthy), else the query budget's resolved local
        worker count.  Always >= 1.
        """
        if self._dist is not None and self._dist.active:
            capacity = int(self._dist.capacity)
            if capacity > 0:
                return capacity
        from ..core.parallel import resolve_sampler_workers

        budget = (
            self.resolve_budget(query) if query is not None
            else self.default_budget
        )
        return max(1, resolve_sampler_workers(budget.workers))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _cache_key(self, query: Query):
        """The result-cache key for ``query`` (None when uncacheable)."""
        if self.cache is None or query.rng_seed is None:
            return None
        return ResultCache.key_for(
            self.fingerprint_for(query), getattr(self.graph, "version", 0), query
        )

    def _check_node_ids(self, query: Query) -> None:
        """Raise ``ValueError`` naming the first node id of ``query`` — a
        seed, a boost node, the tree root or a ``candidates`` param entry
        (mc_greedy's candidate pool) — that the session graph lacks."""
        ids = [*getattr(query, "seeds", ()), *getattr(query, "boost", ())]
        if hasattr(query, "root"):
            ids.append(query.root)
        ids.extend(query.param_dict.get("candidates") or ())
        n = self.graph.n
        for v in ids:
            if not 0 <= int(v) < n:
                raise ValueError(
                    f"node id {v} is out of range for a graph of {n} nodes"
                )

    def _run_admitted(
        self,
        query: Query,
        rng: Optional[np.random.Generator],
        started: float,
    ) -> QueryResult:
        """Cache-check, execute and stamp one already-admitted query.

        ``started`` is the ``perf_counter`` instant the query's
        ``deadline_ms`` counts from — batch submission time in
        :meth:`run_many`, so a deadline covers the wait behind earlier
        queries, not just compute.  The deadline is checked before
        running (a query whose budget is already spent is not started at
        all) and after (a result that arrives late is still cached — the
        work is valid and a retry may hit it — but :exc:`QueryTimeout` is
        raised, carrying the structured timeout envelope instead).
        """
        deadline_ms = getattr(query, "deadline_ms", None)
        if deadline_ms is not None:
            elapsed = (time.perf_counter() - started) * 1000.0
            if elapsed >= deadline_ms:
                raise QueryTimeout(query, deadline_ms, elapsed)
        self._check_node_ids(query)
        key = self._cache_key(query)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self.queries_run += 1
                return hit
        handler = get_algorithm(query.algorithm)
        if query.rng_seed is not None:
            rng = np.random.default_rng(query.rng_seed)
        elif rng is None:
            rng = np.random.default_rng()
        start = time.perf_counter()
        result = handler(self, query, rng)
        result.timings["total"] = time.perf_counter() - start
        result.query = query.to_dict()
        result.fingerprint = self.fingerprint_for(query)
        health = self.runtime_health()
        if health is not None and health.degraded:
            # Honest provenance: this envelope was computed on the serial
            # fallback of a degraded runtime.  Bit-identical to the
            # healthy path — only latency differed — so it is still
            # cacheable, marker included.
            result.extra["degraded"] = True
        self.queries_run += 1
        if self.cache is not None:
            self.cache.put(key, result)
        if deadline_ms is not None:
            elapsed = (time.perf_counter() - started) * 1000.0
            if elapsed > deadline_ms:
                raise QueryTimeout(query, deadline_ms, elapsed)
        return result

    def _guarded(
        self,
        query: Query,
        rng: Optional[np.random.Generator],
        started: float,
    ) -> QueryResult:
        """:meth:`_run_admitted`, with failures folded into envelopes.

        The ``on_error="envelope"`` execution arm: a deadline miss
        becomes the ``"timeout"`` envelope, an algorithm exception the
        ``"failed"`` one — positions in a batch stay aligned and one bad
        query cannot sink its batch.
        """
        try:
            return self._run_admitted(query, rng, started)
        except QueryTimeout as exc:
            return exc.result
        except Exception as exc:
            return failure_result(query, exc)

    def run(
        self, query: Query, rng: Optional[np.random.Generator] = None
    ) -> QueryResult:
        """Answer one typed query on the warm state.

        RNG resolution: an explicit ``query.rng_seed`` always wins (the
        reproducible, serializable form); otherwise the ambient ``rng``
        is consumed — the legacy free functions pass their caller's live
        generator through, which is what keeps wrapper results
        bit-for-bit identical to the pre-session API; with neither, the
        query runs on fresh OS entropy.

        With an admission policy installed, a rejected query raises
        :exc:`AdmissionRejected` before any sampling; "queue"-classed
        queries simply run (there is no batch to defer them behind).
        A query carrying ``deadline_ms`` raises :exc:`QueryTimeout` when
        the deadline elapses (measured from this call), whose
        ``.envelope`` is the structured ``"timeout"`` shape.
        """
        self._check_open()
        started = time.perf_counter()
        if self.admission is not None:
            decision = self.admission.decide(self, query)
            if decision.action == REJECT:
                raise AdmissionRejected(query, decision)
        return self._run_admitted(query, rng, started)

    def run_iter(
        self,
        queries: Iterable[Query],
        rng: Optional[np.random.Generator] = None,
        on_error: str = "raise",
    ) -> Iterator[QueryResult]:
        """Yield each query's result as soon as it completes, in order.

        The streaming form of :meth:`run_many` (serial execution, same
        RNG semantics, pool pre-warmed once) — what ``repro query
        --json`` uses to emit NDJSON per result instead of buffering the
        batch.  With ``on_error="envelope"``, a deadline miss or
        algorithm failure yields its structured envelope and the stream
        continues; deadlines count from each query's own start.
        """
        self._check_open()
        if on_error not in ("raise", "envelope"):
            raise ValueError("on_error must be 'raise' or 'envelope'")
        batch = list(queries)
        workers = self._effective_workers(batch)
        if workers > 1:
            self.ensure_runtime(workers)
        for query in batch:
            if on_error == "raise":
                yield self.run(query, rng=rng)
                continue
            try:
                yield self.run(query, rng=rng)
            except QueryTimeout as exc:
                yield exc.result
            except AdmissionRejected as exc:
                yield rejection_result(query, exc.decision)
            except Exception as exc:
                yield failure_result(query, exc)

    def run_many(
        self,
        queries: Iterable[Query],
        rng: Optional[np.random.Generator] = None,
        on_reject: str = "raise",
        on_error: str = "raise",
    ) -> List[QueryResult]:
        """Answer a batch of queries in order on shared warm state.

        The worker pool is pre-warmed once for the largest worker count
        any query in the batch asks for, so the first parallel query does
        not pay pool startup.  The queries then run one at a time on the
        calling thread, each exactly as :meth:`run` would answer it, and
        come back in input order.  Queries without a seed consume the
        ambient ``rng`` in the order they run (or fresh entropy when none
        is given); a repeat of a cacheable query — within the batch or
        across batches — is answered by the result cache.

        **Admission** (when a policy is installed): every query is priced
        before any runs.  Rejected queries raise by default;
        ``on_reject="envelope"`` slots a structured rejection envelope
        into their position instead.  Admitted queries run first, in
        batch order, then the "queue"-classed ones, in batch order.

        **Failures** (``on_error``): by default a deadline miss raises
        :exc:`QueryTimeout` and an algorithm exception propagates, both
        sinking the batch; ``on_error="envelope"`` slots the structured
        ``"timeout"`` / ``"failed"`` envelope into the failing query's
        position and the rest of the batch completes — the serving front
        end's mode.  Per-query ``deadline_ms`` counts from batch
        submission, so it bounds the wait behind earlier queries too.
        """
        self._check_open()
        if on_reject not in ("raise", "envelope"):
            raise ValueError("on_reject must be 'raise' or 'envelope'")
        if on_error not in ("raise", "envelope"):
            raise ValueError("on_error must be 'raise' or 'envelope'")
        started = time.perf_counter()
        batch = list(queries)
        if not batch:
            return []
        workers = self._effective_workers(batch)
        if workers > 1:
            self.ensure_runtime(workers)

        results: List[Optional[QueryResult]] = [None] * len(batch)
        admitted: List[int] = []
        deferred: List[int] = []
        for i, query in enumerate(batch):
            get_algorithm(query.algorithm)  # unknown algorithms fail the batch up front
            if self.admission is None:
                admitted.append(i)
                continue
            decision = self.admission.decide(self, query)
            if decision.action == REJECT:
                if on_reject == "raise":
                    raise AdmissionRejected(query, decision)
                results[i] = rejection_result(query, decision)
            elif decision.action == QUEUE:
                deferred.append(i)
            else:
                admitted.append(i)

        runner = self._guarded if on_error == "envelope" else self._run_admitted
        for i in admitted + deferred:
            results[i] = runner(batch[i], rng, started)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-serializable session counters for the serving front end."""
        out: Dict[str, object] = {
            "queries_run": self.queries_run,
            "graph": {
                "n": int(self.graph.n),
                "m": int(self.graph.m),
                "version": int(getattr(self.graph, "version", 0)),
            },
        }
        storage_info = getattr(self.graph, "storage_info", None)
        if storage_info is not None:
            # Capacity planning: backend (mmap vs memory), logical array
            # bytes, and how much of that is actually resident on the
            # process heap (≈0 for pristine store-backed graphs).
            out["storage"] = storage_info()
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        if self.admission is not None:
            out["admission"] = self.admission.to_dict()
        health = self.runtime_health()
        if health is not None:
            out["runtime"] = health.to_dict()
        return out
