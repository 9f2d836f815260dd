"""Tests for the out-of-core graph storage subsystem (`repro.storage`).

Covers the contracts the subsystem makes:

* **round trip** — save → mmap open reproduces every CSR array, edge
  probability, and the node-id remap table exactly,
* **ingest** — the streaming three-pass ingest is bit-identical to
  building the same graph in RAM, independent of chunk size, for every
  probability mode, with transparent gzip and SNAP-style comments,
* **engine parity** — the persisted engine-precompute section equals
  what a fresh in-memory :class:`SamplingEngine` computes,
* **envelope parity** — mmap-backed sessions answer queries
  bit-identically to in-memory sessions, and pool hosts (which inherit
  the graph at fork) answer as the in-process path does,
* **copy-on-write** — ``update_probabilities`` on an mmap graph never
  touches the store file,
* **format validation** — corrupted or truncated stores are rejected
  with :class:`StoreFormatError`, not garbage results.
"""

import gzip
import pickle

import numpy as np
import pytest

from repro.api import BoostQuery, SamplingBudget, SeedQuery, Session
from repro.core.parallel import fork_available, shutdown_runtime
from repro.datasets import load_graph
from repro.engine.batch import SamplingEngine
from repro.graphs import (
    DiGraph,
    learned_like,
    preferential_attachment,
    write_edge_list,
)
from repro.storage import (
    IngestReport,
    StoreFormatError,
    ingest_edge_list,
    is_store,
    open_graph,
    open_store,
    save_graph,
    store_info,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires fork start method"
)

ENGINE_NAMES = ("out_src", "out_hash", "in_hash", "in_thr64", "node_hash")


def make_graph(seed=3, n=80, deg=3, q=0.3):
    rng = np.random.default_rng(seed)
    return learned_like(preferential_attachment(n, deg, rng), rng, q)


def csr_tuple(graph):
    """Every derived CSR array of a graph, for exact comparison."""
    out = graph.out_csr()
    inc = graph.in_csr()
    src, dst, p, pp = graph.edge_arrays()
    return (
        src, dst, p, pp,
        out.indptr, out.nodes, out.p, out.pp, out.eid,
        inc.indptr, inc.nodes, inc.p, inc.pp, inc.eid,
    )


def assert_graphs_identical(a, b):
    assert (a.n, a.m) == (b.n, b.m)
    for x, y in zip(csr_tuple(a), csr_tuple(b)):
        assert np.array_equal(x, y)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_mmap_round_trip_exact(self, tmp_path, seed):
        g = make_graph(seed)
        path = tmp_path / "g.rpgs"
        info = save_graph(g, path)
        assert info["n"] == g.n and info["m"] == g.m and info["has_engine"]
        g2 = open_graph(path)
        assert_graphs_identical(g, g2)
        assert g2.version == 0
        assert g2.store_path == str(path)
        assert np.array_equal(g2.node_ids, np.arange(g.n))

    def test_memory_mode_detaches_from_file(self, tmp_path):
        g = make_graph(5)
        path = tmp_path / "g.rpgs"
        save_graph(g, path)
        g2 = open_graph(path, mode="memory")
        assert g2.store_path is None
        path.unlink()  # materialized graphs survive store deletion
        assert_graphs_identical(g, g2)

    def test_custom_node_ids_persist(self, tmp_path):
        g = DiGraph(3, [0, 1], [1, 2], [0.5, 0.4], [0.6, 0.5])
        ids = np.array([100, 205, 999], dtype=np.int64)
        path = tmp_path / "g.rpgs"
        save_graph(g, path, node_ids=ids)
        assert np.array_equal(open_graph(path).node_ids, ids)
        with pytest.raises(ValueError, match="node_ids"):
            save_graph(g, tmp_path / "h.rpgs", node_ids=ids[:2])

    def test_edgeless_graph(self, tmp_path):
        g = DiGraph(4, [], [], [], [])
        path = tmp_path / "empty.rpgs"
        save_graph(g, path)
        g2 = open_graph(path)
        assert (g2.n, g2.m) == (4, 0)

    def test_isolated_trailing_node(self, tmp_path):
        g = DiGraph(5, [0], [1], [0.5], [0.6])
        path = tmp_path / "g.rpgs"
        save_graph(g, path)
        assert open_graph(path).n == 5

    def test_is_store_and_info(self, tmp_path):
        g = make_graph(2, n=20)
        path = tmp_path / "g.rpgs"
        save_graph(g, path, meta={"origin": "test"})
        assert is_store(path)
        info = store_info(path)
        assert info["meta"]["origin"] == "test"
        assert info["file_bytes"] == path.stat().st_size
        other = tmp_path / "not_a_store.txt"
        other.write_text("0 1 0.5 0.6\n")
        assert not is_store(other)
        assert not is_store(tmp_path / "missing")

    def test_mmap_views_are_read_only(self, tmp_path):
        g = make_graph(4, n=30)
        path = tmp_path / "g.rpgs"
        save_graph(g, path)
        g2 = open_graph(path)
        src, _dst, p, _pp = g2.edge_arrays()
        with pytest.raises((ValueError, RuntimeError)):
            p[0] = 0.9


class TestEnginePrecompute:
    def test_stored_section_matches_fresh_engine(self, tmp_path):
        g = make_graph(9)
        path = tmp_path / "g.rpgs"
        save_graph(g, path)
        g2 = open_graph(path)
        pre = g2.engine_precompute()
        assert pre is not None and set(pre) == set(ENGINE_NAMES)
        fresh = SamplingEngine(g)  # computes from scratch
        for name in ENGINE_NAMES:
            assert np.array_equal(pre[name], getattr(fresh, f"_{name}")), name

    def test_engine_arrays_drive_identical_sampling(self, tmp_path):
        g = make_graph(11, n=120)
        path = tmp_path / "g.rpgs"
        save_graph(g, path)
        g2 = open_graph(path)
        e1, e2 = SamplingEngine(g), SamplingEngine(g2)
        for i in range(50):
            r1 = e1.rr_set(np.random.default_rng(i), i % g.n)
            r2 = e2.rr_set(np.random.default_rng(i), i % g.n)
            assert r1 == r2

    def test_store_without_engine_section(self, tmp_path):
        g = make_graph(13)
        path = tmp_path / "g.rpgs"
        info = save_graph(g, path, include_engine=False)
        assert not info["has_engine"]
        g2 = open_graph(path)
        assert g2.engine_precompute() is None
        # Engine warms from the mmap CSR arrays instead; same samples.
        e1, e2 = SamplingEngine(g), SamplingEngine(g2)
        assert e1.rr_set(np.random.default_rng(7), 3) == e2.rr_set(
            np.random.default_rng(7), 3
        )


class TestFormatValidation:
    def _store(self, tmp_path):
        path = tmp_path / "g.rpgs"
        save_graph(make_graph(1, n=25), path)
        return path

    def test_bad_magic_rejected(self, tmp_path):
        path = self._store(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="magic"):
            open_store(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self._store(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StoreFormatError):
            open_store(path)

    def test_corrupt_indptr_caught_by_validation(self, tmp_path):
        path = self._store(tmp_path)
        store = open_store(path, validate=False)
        spec = store.header.arrays["out_indptr"]
        raw = bytearray(path.read_bytes())
        # Stomp the final endpoint (indptr[-1] must equal m).
        raw[spec.offset + spec.nbytes - 8 : spec.offset + spec.nbytes] = (
            b"\xff" * 8
        )
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="out_indptr"):
            open_store(path)
        assert open_store(path, validate=False).n == 25  # header still fine

    def test_non_store_file_rejected(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 1 0.5 0.6\n")
        with pytest.raises(StoreFormatError):
            open_store(path)

    def test_bad_mode_rejected(self, tmp_path):
        path = self._store(tmp_path)
        with pytest.raises(ValueError, match="mode"):
            open_graph(path, mode="network")


class TestIngest:
    def _write_lines(self, path, lines, gzipped=False):
        data = "".join(lines).encode()
        path.write_bytes(gzip.compress(data) if gzipped else data)

    def test_ingest_matches_in_ram_build(self, tmp_path):
        """Gzip'd, comment-headed, shuffled sparse-id 4-column input
        ingested in tiny chunks equals the in-RAM DiGraph built from the
        same remapped edges — every CSR array bit for bit."""
        rng = np.random.default_rng(21)
        g = make_graph(21, n=60)
        ids = np.sort(rng.choice(10_000, size=g.n, replace=False))
        src, dst, p, pp = g.edge_arrays()
        order = rng.permutation(g.m)
        lines = ["# SNAP-style header\n", "# FromNodeId ToNodeId p pp\n"]
        for e in order:
            lines.append(
                f"{ids[src[e]]} {ids[dst[e]]} {p[e]:.17g} {pp[e]:.17g}\n"
            )
        inp = tmp_path / "edges.txt.gz"
        self._write_lines(inp, lines, gzipped=True)
        report = ingest_edge_list(inp, chunk_edges=7)
        assert isinstance(report, IngestReport)
        assert report.store_path == str(tmp_path / "edges.rpgs")
        assert (report.n, report.m) == (g.n, g.m)
        assert report.gzipped and report.comment_lines == 2
        assert report.columns == 4 and report.prob_mode == "file"
        assert (report.min_node_id, report.max_node_id) == (
            int(ids[0]), int(ids[-1]),
        )
        expected = DiGraph(
            g.n, src[order], dst[order], p[order], pp[order]
        )
        got = open_graph(report.store_path)
        assert_graphs_identical(expected, got)
        assert np.array_equal(got.node_ids, ids)

    def test_chunk_size_invariance(self, tmp_path):
        rng = np.random.default_rng(8)
        lines = [
            f"{rng.integers(0, 40)} {rng.integers(0, 40)} 0.3 0.5\n"
            for _ in range(200)
        ]
        inp = tmp_path / "e.txt"
        self._write_lines(inp, lines)
        a = tmp_path / "a.rpgs"
        b = tmp_path / "b.rpgs"
        ingest_edge_list(inp, a, chunk_edges=3)
        ingest_edge_list(inp, b, chunk_edges=10**6)
        assert a.read_bytes() == b.read_bytes()

    def test_weighted_cascade_mode(self, tmp_path):
        inp = tmp_path / "e.txt"
        self._write_lines(inp, ["0 2\n", "1 2\n", "0 1\n", "3 2\n"])
        report = ingest_edge_list(inp, beta=2.0)
        assert report.prob_mode == "wc"
        g = open_graph(report.store_path)
        _src, dst, p, pp = g.edge_arrays()
        indeg = np.bincount(dst, minlength=g.n).astype(np.float64)
        assert np.array_equal(p, 1.0 / indeg[dst])
        assert np.array_equal(pp, 1.0 - (1.0 - p) ** 2.0)

    def test_const_mode_overrides_columns(self, tmp_path):
        inp = tmp_path / "e.txt"
        self._write_lines(inp, ["0 1 0.9 0.95\n", "1 2 0.8 0.85\n"])
        report = ingest_edge_list(inp, prob="const:0.25")
        g = open_graph(report.store_path)
        _s, _d, p, pp = g.edge_arrays()
        assert np.all(p == 0.25) and np.all(pp == 0.25)

    def test_three_column_beta_none_means_pp_equals_p(self, tmp_path):
        inp = tmp_path / "e.txt"
        self._write_lines(inp, ["0 1 0.4\n", "1 0 0.2\n"])
        g = open_graph(ingest_edge_list(inp).store_path)
        _s, _d, p, pp = g.edge_arrays()
        assert np.array_equal(p, np.array([0.4, 0.2]))
        assert np.array_equal(pp, p)

    def test_malformed_line_named(self, tmp_path):
        inp = tmp_path / "e.txt"
        self._write_lines(inp, ["0 1 0.5 0.6\n", "2 bogus 0.5 0.6\n"])
        with pytest.raises(ValueError, match="malformed edge line"):
            ingest_edge_list(inp)

    def test_inconsistent_columns_rejected(self, tmp_path):
        # Chunks of one row: the second chunk's width must match the first.
        inp = tmp_path / "e.txt"
        self._write_lines(inp, ["0 1 0.5\n", "1 2\n"])
        with pytest.raises(ValueError, match="malformed edge line|column"):
            ingest_edge_list(inp, chunk_edges=1)

    def test_empty_input_rejected(self, tmp_path):
        inp = tmp_path / "e.txt"
        self._write_lines(inp, ["# only comments\n", "\n"])
        with pytest.raises(StoreFormatError, match="no edges"):
            ingest_edge_list(inp)

    def test_out_of_range_probability_rejected(self, tmp_path):
        inp = tmp_path / "e.txt"
        self._write_lines(inp, ["0 1 1.5\n"])
        with pytest.raises(StoreFormatError, match="outside"):
            ingest_edge_list(inp)

    def test_bad_prob_mode_rejected(self, tmp_path):
        inp = tmp_path / "e.txt"
        self._write_lines(inp, ["0 1\n"])
        with pytest.raises(ValueError, match="probability mode"):
            ingest_edge_list(inp, prob="learned")
        with pytest.raises(ValueError):
            ingest_edge_list(inp, prob="const:1.5")

    def test_ingested_store_fingerprints_like_helpers(self, tmp_path):
        """An ingested wc store and graphs.probabilities.weighted_cascade
        agree bit for bit, so session fingerprints match."""
        from repro.graphs.probabilities import weighted_cascade

        rng = np.random.default_rng(31)
        base = preferential_attachment(50, 3, rng)
        src, dst, _p, _pp = base.edge_arrays()
        inp = tmp_path / "e.txt"
        self._write_lines(
            inp, [f"{s} {d}\n" for s, d in zip(src, dst)]
        )
        expected = weighted_cascade(base, beta=2.0)
        got = open_graph(ingest_edge_list(inp, beta=2.0).store_path)
        assert_graphs_identical(expected, got)


class TestGraphWiring:
    def test_update_probabilities_copy_on_write(self, tmp_path):
        g = make_graph(17)
        path = tmp_path / "g.rpgs"
        save_graph(g, path)
        before = path.read_bytes()
        g2 = open_graph(path)
        _s, _d, p, pp = g2.edge_arrays()
        assert g2.update_probabilities(p * 0.5, pp * 0.5) == 1
        assert g2.version == 1
        assert g2.engine_precompute() is None  # thresholds keyed to old p
        assert path.read_bytes() == before  # store file untouched
        _s2, _d2, p2, _pp2 = g2.edge_arrays()
        assert np.array_equal(p2, p * 0.5)
        # A fresh open still sees the original probabilities.
        assert np.array_equal(open_graph(path).edge_arrays()[2], p)

    def test_memory_accounting(self, tmp_path):
        g = make_graph(19, n=100)
        path = tmp_path / "g.rpgs"
        save_graph(g, path)
        mm = open_graph(path)
        mem = open_graph(path, mode="memory")
        assert mm.memory_bytes() == 0  # every array lives in the mapping
        assert mem.memory_bytes() == mem.array_bytes() > 0
        assert mm.array_bytes() == mem.array_bytes()
        info = mm.storage_info()
        assert info["backend"] == "mmap"
        assert info["store_path"] == str(path)
        assert info["store_bytes"] == path.stat().st_size
        assert mem.storage_info()["backend"] == "memory"
        # In-RAM graphs report their footprint too.
        assert g.storage_info()["backend"] == "memory"
        assert g.memory_bytes() > 0
        # Copy-on-write moves the probability arrays onto the heap.
        _s, _d, p, pp = mm.edge_arrays()
        mm.update_probabilities(p * 0.5, pp * 0.5)
        assert mm.memory_bytes() > 0

    def test_pickle_round_trip_drops_mapping(self, tmp_path):
        g = make_graph(23)
        path = tmp_path / "g.rpgs"
        save_graph(g, path)
        g2 = pickle.loads(pickle.dumps(open_graph(path)))
        assert g2.store_path is None  # mappings don't cross pickles
        assert g2.engine_precompute() is None
        assert_graphs_identical(g, g2)
        assert np.array_equal(g2.node_ids, np.arange(g.n))


BUDGET_1 = SamplingBudget(max_samples=600, mc_runs=100, workers=1)
BUDGET_2 = SamplingBudget(max_samples=600, mc_runs=100, workers=2)


def run_envelope(graph, budget):
    with Session(graph) as session:
        seeds = session.run(SeedQuery(k=3, algorithm="imm", budget=budget,
                                      rng_seed=11))
        boost = session.run(BoostQuery(seeds=(0, 1), k=4, budget=budget,
                                       rng_seed=5))
    return (
        tuple(seeds.selected), seeds.num_samples, seeds.fingerprint,
        tuple(boost.selected), boost.num_samples,
        boost.estimates["boost"], boost.fingerprint,
    )


class TestEnvelopeParity:
    """mmap-backed sessions == in-memory sessions, bit for bit, at the
    same worker count (serial and chunked-parallel draw different,
    equally valid streams — cross-worker equality is not a contract)."""

    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stores") / "parity.rpgs"
        save_graph(make_graph(29, n=120), path)
        return path

    def test_serial_parity(self, store_path):
        mm = run_envelope(open_graph(store_path), BUDGET_1)
        mem = run_envelope(open_graph(store_path, mode="memory"), BUDGET_1)
        assert mm == mem

    @needs_fork
    def test_parallel_parity(self, store_path):
        try:
            mm = run_envelope(open_graph(store_path), BUDGET_2)
            mem = run_envelope(open_graph(store_path, mode="memory"),
                               BUDGET_2)
        finally:
            shutdown_runtime()
        assert mm == mem

    def test_parity_after_update(self, store_path):
        graphs = [
            open_graph(store_path),
            open_graph(store_path, mode="memory"),
        ]
        for g in graphs:
            _s, _d, p, pp = g.edge_arrays()
            g.update_probabilities(p * 0.7, pp)
        assert run_envelope(graphs[0], BUDGET_1) == run_envelope(
            graphs[1], BUDGET_1
        )


@needs_fork
class TestRuntimePublication:
    """Hosts evaluate chunks on the graph they inherit at fork: a pristine
    store's mapped file, a written store's copy-on-write arrays, or an
    in-memory graph.  Each answers as the in-process path does."""

    def test_pristine_store_publishes_by_path(self, tmp_path):
        path = tmp_path / "g.rpgs"
        save_graph(make_graph(37, n=150), path)
        g = open_graph(path)
        try:
            env = run_envelope(g, BUDGET_2)
        finally:
            shutdown_runtime()
        assert env[0]  # imm selected something
        assert env == run_envelope(g, BUDGET_1)

    def test_updated_store_falls_back_to_shm(self, tmp_path):
        path = tmp_path / "g.rpgs"
        save_graph(make_graph(41, n=150), path)
        g = open_graph(path)
        _s, _d, p, pp = g.edge_arrays()
        g.update_probabilities(p * 0.9, pp)
        try:
            env = run_envelope(g, BUDGET_2)
        finally:
            shutdown_runtime()
        assert env == run_envelope(g, BUDGET_1)

    def test_in_memory_graph_publishes_shm(self):
        g = make_graph(43, n=150)
        try:
            env = run_envelope(g, BUDGET_2)
        finally:
            shutdown_runtime()
        assert env == run_envelope(g, BUDGET_1)


class TestSessionIntegration:
    def test_from_store_and_stats(self, tmp_path):
        path = tmp_path / "g.rpgs"
        save_graph(make_graph(47, n=90), path)
        with Session.from_store(path) as session:
            result = session.run(
                SeedQuery(k=2, algorithm="imm", budget=BUDGET_1, rng_seed=3)
            )
            stats = session.stats()
        assert result.selected
        storage = stats["storage"]
        assert storage["backend"] == "mmap"
        assert storage["resident_bytes"] == 0
        assert storage["store_path"] == str(path)

    def test_fingerprint_identical_across_backends(self, tmp_path):
        path = tmp_path / "g.rpgs"
        save_graph(make_graph(53, n=90), path)
        with Session.from_store(path) as a, Session.from_store(
            path, mode="memory"
        ) as b:
            fa = a.run(SeedQuery(k=2, budget=BUDGET_1, rng_seed=1)).fingerprint
            fb = b.run(SeedQuery(k=2, budget=BUDGET_1, rng_seed=1)).fingerprint
        assert fa == fb


class TestLoadGraph:
    def test_dataset_name(self):
        g = load_graph("digg-like", seed=7)
        assert g.n > 0

    def test_store_path(self, tmp_path):
        g = make_graph(59, n=40)
        path = tmp_path / "g.rpgs"
        save_graph(g, path)
        assert_graphs_identical(g, load_graph(path))
        assert load_graph(path, mode="memory").store_path is None

    def test_edge_list_path(self, tmp_path):
        g = make_graph(61, n=40)
        path = tmp_path / "g.txt.gz"
        write_edge_list(g, path)
        g2 = load_graph(path)
        assert (g2.n, g2.m) == (g.n, g.m)

    def test_missing_source_named(self):
        with pytest.raises(FileNotFoundError, match="digg-like"):
            load_graph("no-such-thing")
