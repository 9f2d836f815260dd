"""Compact directed influence graphs.

The :class:`DiGraph` class stores a directed graph in CSR (compressed sparse
row) form, once for the out-direction and once for the in-direction, together
with two probabilities per edge:

* ``p`` — the base influence probability of the Independent Cascade model,
* ``pp`` — the boosted probability ``p'`` used when the edge's head is boosted
  (Definition 1 of the paper), with ``pp >= p``.

All node ids are dense integers ``0..n-1``.  Topology is immutable once
built; use :class:`GraphBuilder` or :func:`DiGraph.from_edges` to construct
graphs.  The one sanctioned mutation is
:meth:`DiGraph.update_probabilities`, which replaces the edge
probabilities in place (same topology) and bumps the graph's
:attr:`~DiGraph.version` counter — the invalidation signal the serving
tier's result cache, the cached sampling engine, and the local host
pool key on.
"""

from __future__ import annotations

import mmap
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DiGraph", "GraphBuilder", "Edge", "CSRView"]

Edge = Tuple[int, int, float, float]


class CSRView(NamedTuple):
    """Raw CSR arrays of one direction of a :class:`DiGraph`.

    ``nodes[indptr[v]:indptr[v+1]]`` are the neighbours of ``v`` (targets
    in the out-view, sources in the in-view), ``p``/``pp`` the aligned edge
    probabilities, and ``eid`` the dense insertion-order edge id of each
    position — the key into flat per-edge state arrays.  The arrays are the
    graph's own storage: treat them as read-only.
    """

    indptr: np.ndarray
    nodes: np.ndarray
    p: np.ndarray
    pp: np.ndarray
    eid: np.ndarray


def _stable_order(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for node ids in ``[0, n)``.

    A stable sort has one answer, and numpy radix-sorts 16-bit keys: on
    graphs of up to 65,536 nodes the cast makes the sort about 9x faster
    than the merge sort int64 keys get.
    """
    if n <= 1 << 16:
        ids = ids.astype(np.uint16)
    return np.argsort(ids, kind="stable")


class DiGraph:
    """An immutable directed graph with base and boosted edge probabilities.

    Parameters
    ----------
    n:
        Number of nodes; ids are ``0..n-1``.
    sources, targets:
        Parallel integer arrays of edge endpoints.
    p:
        Base influence probabilities, one per edge, each in ``[0, 1]``.
    pp:
        Boosted influence probabilities ``p'``; must satisfy ``pp >= p``
        elementwise.  If omitted, ``pp = p`` (boosting has no effect).
    """

    __slots__ = (
        "n",
        "m",
        "_out_indptr",
        "_out_targets",
        "_out_p",
        "_out_pp",
        "_out_eid",
        "_in_indptr",
        "_in_sources",
        "_in_p",
        "_in_pp",
        "_in_eid",
        "_src",
        "_dst",
        "_p",
        "_pp",
        "_version",
        "_engine_cache",
        # Storage backend (out-of-core tier): the open GraphStore keeping
        # an mmap-backed graph's pages alive, the store's precomputed
        # engine arrays, and the dense-id -> original-id remap table.
        # All None for ordinary in-memory graphs.
        "_store",
        "_engine_pre",
        "_node_ids",
    )

    def __init__(
        self,
        n: int,
        sources: Sequence[int],
        targets: Sequence[int],
        p: Sequence[float],
        pp: Sequence[float] | None = None,
    ) -> None:
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        prob = np.asarray(p, dtype=np.float64)
        boosted = prob.copy() if pp is None else np.asarray(pp, dtype=np.float64)

        if not (src.shape == dst.shape == prob.shape == boosted.shape):
            raise ValueError("sources, targets, p and pp must have equal length")
        if n <= 0:
            raise ValueError("graph must have at least one node")
        if src.size and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any((prob < 0.0) | (prob > 1.0)):
            raise ValueError("base probabilities must lie in [0, 1]")
        if np.any((boosted < 0.0) | (boosted > 1.0)):
            raise ValueError("boosted probabilities must lie in [0, 1]")
        if np.any(boosted < prob - 1e-12):
            raise ValueError("boosted probability p' must be >= p on every edge")

        self.n = int(n)
        self.m = int(src.size)
        self._src = src
        self._dst = dst
        self._p = prob
        self._pp = boosted
        self._version = 0
        self._store = None
        self._engine_pre = None
        self._node_ids = None

        order = _stable_order(src, n)
        self._out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self._out_indptr, src + 1, 1)
        np.cumsum(self._out_indptr, out=self._out_indptr)
        self._out_targets = dst[order]
        self._out_p = prob[order]
        self._out_pp = boosted[order]
        self._out_eid = order

        order_in = _stable_order(dst, n)
        self._in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self._in_indptr, dst + 1, 1)
        np.cumsum(self._in_indptr, out=self._in_indptr)
        self._in_sources = src[order_in]
        self._in_p = prob[order_in]
        self._in_pp = boosted[order_in]
        self._in_eid = order_in

    # ------------------------------------------------------------------
    # Pickling: drop the cached sampling engine — it is pure derived
    # state (stamp buffers) that receivers rebuild on first use, and it
    # would otherwise dominate the serialized size.  The storage handle
    # and its precompute views are dropped too (an open mmap does not
    # travel between processes); the CSR arrays themselves pickle as
    # plain in-memory copies, so a receiver gets a working — if no
    # longer file-backed — graph.  The local sampling pool never
    # pickles a graph: its hosts inherit it at fork (see
    # :mod:`repro.core.parallel`).
    # ------------------------------------------------------------------
    _UNPICKLED_SLOTS = frozenset(("_engine_cache", "_store", "_engine_pre"))

    def __getstate__(self):
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._UNPICKLED_SLOTS and hasattr(self, name)
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        if not hasattr(self, "_version"):  # pickles from pre-version builds
            self._version = 0
        self._store = None
        self._engine_pre = None
        if not hasattr(self, "_node_ids"):  # pickles from pre-storage builds
            self._node_ids = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "DiGraph":
        """Build a graph from ``(u, v, p, pp)`` tuples."""
        edge_list = list(edges)
        if not edge_list:
            return cls(n, [], [], [], [])
        src, dst, p, pp = zip(*edge_list)
        return cls(n, src, dst, p, pp)

    @classmethod
    def _from_store(
        cls,
        n: int,
        m: int,
        arrays: Dict[str, np.ndarray],
        store=None,
        engine_pre: Optional[Dict[str, np.ndarray]] = None,
        node_ids: Optional[np.ndarray] = None,
    ) -> "DiGraph":
        """Adopt already-validated store arrays without copying.

        The backend constructor :func:`repro.storage.open_graph` uses:
        the store's CSR sections become the graph's arrays directly
        (mmap views in ``mmap`` mode), skipping the ``__init__`` sort and
        validation the store writer already performed.
        """
        graph = object.__new__(cls)
        graph.n = int(n)
        graph.m = int(m)
        graph._src = arrays["src"]
        graph._dst = arrays["dst"]
        graph._p = arrays["p"]
        graph._pp = arrays["pp"]
        graph._out_indptr = arrays["out_indptr"]
        graph._out_targets = arrays["out_nodes"]
        graph._out_p = arrays["out_p"]
        graph._out_pp = arrays["out_pp"]
        graph._out_eid = arrays["out_eid"]
        graph._in_indptr = arrays["in_indptr"]
        graph._in_sources = arrays["in_nodes"]
        graph._in_p = arrays["in_p"]
        graph._in_pp = arrays["in_pp"]
        graph._in_eid = arrays["in_eid"]
        graph._version = 0
        graph._engine_cache = None
        graph._store = store
        graph._engine_pre = dict(engine_pre) if engine_pre else None
        graph._node_ids = node_ids
        return graph

    # ------------------------------------------------------------------
    # Storage backend accessors
    # ------------------------------------------------------------------
    @property
    def store_path(self) -> Optional[str]:
        """Path of the backing graph store for mmap-backed graphs."""
        return self._store.path if self._store is not None else None

    @property
    def node_ids(self) -> Optional[np.ndarray]:
        """Dense-id → original-id remap table (store-opened graphs)."""
        return self._node_ids

    def engine_precompute(self) -> Optional[Dict[str, np.ndarray]]:
        """The store's persisted engine warm-up arrays, when still valid.

        Invalidated by :meth:`update_probabilities` (the thresholds
        depend on ``p``); the engine then recomputes from the live
        arrays as usual.
        """
        return self._engine_pre

    def memory_bytes(self) -> int:
        """Bytes of this graph's arrays resident on the process heap.

        File-backed arrays (views whose base chain ends in an mmap) are
        excluded — their pages live in the OS page cache, not the heap —
        so for an mmap-opened store this is ~0 while
        :meth:`array_bytes` still reports the full logical footprint.
        Shared backing buffers are counted once.
        """
        total = 0
        seen = set()
        for arr in self._storage_arrays():
            root = arr
            while isinstance(root, np.ndarray) and root.base is not None:
                root = root.base
            if isinstance(root, (np.memmap, mmap.mmap)):
                continue
            key = id(root)
            if key in seen:
                continue
            seen.add(key)
            total += root.nbytes if isinstance(root, np.ndarray) else arr.nbytes
        return int(total)

    def array_bytes(self) -> int:
        """Logical bytes of all graph arrays, regardless of backing."""
        return int(sum(arr.nbytes for arr in self._storage_arrays()))

    def storage_info(self) -> Dict[str, object]:
        """Capacity-planning snapshot: backend, paths, byte counters."""
        info: Dict[str, object] = {
            "backend": "mmap" if self._store is not None else "memory",
            "array_bytes": self.array_bytes(),
            "resident_bytes": self.memory_bytes(),
        }
        if self._store is not None:
            info["store_path"] = self._store.path
            info["store_bytes"] = int(self._store.file_bytes)
        return info

    def _storage_arrays(self) -> Iterator[np.ndarray]:
        for name in (
            "_src", "_dst", "_p", "_pp",
            "_out_indptr", "_out_targets", "_out_p", "_out_pp", "_out_eid",
            "_in_indptr", "_in_sources", "_in_p", "_in_pp", "_in_eid",
            "_node_ids",
        ):
            arr = getattr(self, name, None)
            if arr is not None:
                yield arr
        if self._engine_pre:
            yield from self._engine_pre.values()

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    def out_csr(self) -> CSRView:
        """Raw out-direction CSR arrays (for the sampling engine)."""
        return CSRView(
            self._out_indptr, self._out_targets, self._out_p, self._out_pp,
            self._out_eid,
        )

    def in_csr(self) -> CSRView:
        """Raw in-direction CSR arrays (for the sampling engine)."""
        return CSRView(
            self._in_indptr, self._in_sources, self._in_p, self._in_pp,
            self._in_eid,
        )

    def out_neighbors(self, u: int) -> np.ndarray:
        """Targets of edges leaving ``u``."""
        return self._out_targets[self._out_indptr[u] : self._out_indptr[u + 1]]

    def out_probs(self, u: int) -> np.ndarray:
        """Base probabilities of edges leaving ``u`` (aligned with neighbours)."""
        return self._out_p[self._out_indptr[u] : self._out_indptr[u + 1]]

    def out_boosted_probs(self, u: int) -> np.ndarray:
        """Boosted probabilities of edges leaving ``u``."""
        return self._out_pp[self._out_indptr[u] : self._out_indptr[u + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of edges entering ``v``."""
        return self._in_sources[self._in_indptr[v] : self._in_indptr[v + 1]]

    def in_probs(self, v: int) -> np.ndarray:
        """Base probabilities of edges entering ``v``."""
        return self._in_p[self._in_indptr[v] : self._in_indptr[v + 1]]

    def in_boosted_probs(self, v: int) -> np.ndarray:
        """Boosted probabilities of edges entering ``v``."""
        return self._in_pp[self._in_indptr[v] : self._in_indptr[v + 1]]

    def out_degree(self, u: int) -> int:
        return int(self._out_indptr[u + 1] - self._out_indptr[u])

    def in_degree(self, v: int) -> int:
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for all nodes."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for all nodes."""
        return np.diff(self._in_indptr)

    # ------------------------------------------------------------------
    # Edge-level accessors
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Edge]:
        """Iterate over ``(u, v, p, pp)`` in insertion order."""
        for i in range(self.m):
            yield (
                int(self._src[i]),
                int(self._dst[i]),
                float(self._p[i]),
                float(self._pp[i]),
            )

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(sources, targets, p, pp)`` arrays in insertion order."""
        return self._src, self._dst, self._p, self._pp

    def average_probability(self) -> float:
        """Mean base influence probability over edges (Table 1 statistic)."""
        if self.m == 0:
            return 0.0
        return float(self._p.mean())

    # ------------------------------------------------------------------
    # Versioning and in-place mutation
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter, 0 at construction.

        Bumped by every sanctioned mutation
        (:meth:`update_probabilities`), never by derived-copy
        transformations (those return fresh graphs at version 0).  Any
        state derived from the graph's arrays — the cached
        :class:`~repro.engine.SamplingEngine`, the local host pool's
        forked hosts, the serving tier's result cache —
        keys on ``(graph identity, version)`` and treats a bump as full
        invalidation.
        """
        return self._version

    def update_probabilities(
        self, p: Sequence[float], pp: Sequence[float] | None = None
    ) -> int:
        """Replace the edge probabilities in place (topology unchanged).

        The serving-tier mutation path: an interactive platform's graph
        changes slowly — edge weights are re-learned, topology is not —
        so this swaps in fresh ``p``/``pp`` arrays (insertion order, same
        validation as the constructor), bumps :attr:`version`, and drops
        the cached sampling engine.  Old engines, CSR views, and
        published runtime segments keep their previous arrays — stale but
        internally consistent; consumers notice via the version bump.
        Returns the new version.
        """
        prob = np.asarray(p, dtype=np.float64)
        boosted = prob.copy() if pp is None else np.asarray(pp, dtype=np.float64)
        if prob.shape != (self.m,) or boosted.shape != (self.m,):
            raise ValueError(f"expected {self.m} probabilities per array")
        if np.any((prob < 0.0) | (prob > 1.0)):
            raise ValueError("base probabilities must lie in [0, 1]")
        if np.any((boosted < 0.0) | (boosted > 1.0)):
            raise ValueError("boosted probabilities must lie in [0, 1]")
        if np.any(boosted < prob - 1e-12):
            raise ValueError("boosted probability p' must be >= p on every edge")
        self._p = prob
        self._pp = boosted
        # Fresh CSR-aligned arrays (not in-place writes): anything holding
        # the old views keeps a consistent pre-mutation snapshot.  For
        # mmap-backed graphs this is the copy-on-write step — the store
        # file stays untouched (its views are read-only) and the updated
        # probability arrays live on the heap from here on.
        self._out_p = prob[self._out_eid]
        self._out_pp = boosted[self._out_eid]
        self._in_p = prob[self._in_eid]
        self._in_pp = boosted[self._in_eid]
        self._version += 1
        self._engine_cache = None
        # The store's persisted engine thresholds are keyed to the old p.
        self._engine_pre = None
        return self._version

    def snapshot(self) -> "DiGraph":
        """The graph as it is now, at its :attr:`version`: a shallow copy
        that shares every array.  :meth:`update_probabilities` replaces the
        arrays instead of writing into them, so no later write reaches the
        copy.  The copy builds its own sampling engine."""
        copy = object.__new__(type(self))
        for name in self.__slots__:
            if name != "_engine_cache" and hasattr(self, name):
                setattr(copy, name, getattr(self, name))
        return copy

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_probabilities(
        self, p: Sequence[float], pp: Sequence[float] | None = None
    ) -> "DiGraph":
        """Copy of the graph with replaced probabilities (same topology)."""
        return DiGraph(self.n, self._src, self._dst, p, pp)

    def reverse(self) -> "DiGraph":
        """Graph with every edge reversed (probabilities preserved)."""
        return DiGraph(self.n, self._dst, self._src, self._p, self._pp)

    def is_bidirected_tree(self) -> bool:
        """True when the underlying undirected graph is a tree.

        Duplicate directions and parallel edges are collapsed before the
        check, matching the paper's definition of a bidirected tree.
        """
        undirected = set()
        for i in range(self.m):
            u, v = int(self._src[i]), int(self._dst[i])
            if u == v:
                return False
            undirected.add((min(u, v), max(u, v)))
        if len(undirected) != self.n - 1:
            return False
        # Check connectivity via union-find.
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        components = self.n
        for u, v in undirected:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                components -= 1
        return components == 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(n={self.n}, m={self.m})"


class GraphBuilder:
    """Incrementally accumulate edges, then :meth:`build` a :class:`DiGraph`.

    Duplicate edges are allowed during accumulation; :meth:`build` keeps the
    last occurrence of each ``(u, v)`` pair so callers can overwrite
    probabilities.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("graph must have at least one node")
        self.n = n
        self._edges: dict[Tuple[int, int], Tuple[float, float]] = {}

    def add_edge(self, u: int, v: int, p: float, pp: float | None = None) -> "GraphBuilder":
        """Add (or overwrite) the directed edge ``u -> v``."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise ValueError("self-loops are not allowed")
        self._edges[(u, v)] = (p, p if pp is None else pp)
        return self

    def add_bidirected_edge(
        self, u: int, v: int, p: float, pp: float | None = None
    ) -> "GraphBuilder":
        """Add both ``u -> v`` and ``v -> u`` with the same probabilities."""
        self.add_edge(u, v, p, pp)
        self.add_edge(v, u, p, pp)
        return self

    def __len__(self) -> int:
        return len(self._edges)

    def build(self) -> DiGraph:
        """Materialize the accumulated edges into a :class:`DiGraph`."""
        if not self._edges:
            return DiGraph(self.n, [], [], [], [])
        items = sorted(self._edges.items())
        src = [u for (u, _v), _ in items]
        dst = [v for (_u, v), _ in items]
        p = [pr for _, (pr, _ppr) in items]
        pp = [ppr for _, (_pr, ppr) in items]
        return DiGraph(self.n, src, dst, p, pp)
