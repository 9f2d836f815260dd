"""Golden digests of the PRR and critical lane samplers.

``tests/golden/prr_lanes.json`` holds sha256 digests of every array the
samplers return for a fixed matrix of graphs, ``k``, RNG seeds and sample
counts:

* every :func:`~repro.core.prr.sample_prr_lanes` arena payload array,
* every :meth:`~repro.engine.SamplingEngine.critical_lane_csr` output
  (status codes, critical-set CSR, explored-edge counters),
* :func:`~repro.core.prr.prr_graph_from_phase1` and
  :meth:`~repro.core.prr.PRRArena.add_phase1` on world-seeded single
  samples.

The digests were recorded before the lane batches were sized by
:data:`~repro.engine.lanes.LANE_BUDGET` and before phase II compressed
whole batches at once.  Every sample is a pure function of its
``(root, world_seed)`` pair, so the digests must not depend on how many
lanes a batch holds: the lane-width tests re-run the matrix with the
budget patched to 1-lane, 7-lane, 64-lane and whole-draw batches, and
with phase II compressing each batch in slices of one lane or of a few
thousand edges.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import prr as prr_module
from repro.core.prr import PRRArena, prr_graph_from_phase1, sample_prr_lanes
from repro.datasets import load_dataset
from repro.engine import SamplingEngine
from repro.engine import lanes as lanes_module
from repro.graphs import learned_like, preferential_attachment

GOLDEN = Path(__file__).parent / "golden" / "prr_lanes.json"

GRAPHS = ("digg", "pa800")
KS = (1, 5, 20)
RNG_SEEDS = (1, 2)
COUNTS = (50, 1000)
SINGLE_KS = (5, 20)
SINGLE_SAMPLES = 12  # world-seeded single samples per graph and k


def build_graph(name: str):
    if name == "digg":
        return load_dataset("digg-like", seed=7, beta=2.0)
    rng = np.random.default_rng(11)
    return learned_like(preferential_attachment(800, 3, rng), rng, 0.3, beta=2.0)


def seed_set(graph, size: int = 20) -> frozenset:
    """The ``size`` highest out-degree nodes (ties to the smaller id)."""
    order = np.argsort(-graph.out_degrees(), kind="stable")
    return frozenset(int(v) for v in order[:size])


def digest(array) -> str:
    a = np.ascontiguousarray(np.asarray(array))
    h = hashlib.sha256()
    h.update(f"{a.dtype.str}|{a.shape}|".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def prr_case(graph, seeds, k: int, rng_seed: int, count: int) -> list:
    arena = sample_prr_lanes(graph, seeds, k, np.random.default_rng(rng_seed), count)
    return [digest(a) for a in arena.payload()[1:]]


def critical_case(graph, seeds, rng_seed: int, count: int) -> list:
    engine = SamplingEngine.for_graph(graph)
    out = engine.critical_lane_csr(seeds, np.random.default_rng(rng_seed), count)
    return [digest(a) for a in out]


def single_case(graph, seeds, k: int) -> list:
    """Digests of world-seeded phase-I results assembled both ways: as
    :class:`PRRGraph` objects and appended to an arena."""
    engine = SamplingEngine.for_graph(graph)
    mask = engine.seeds_mask(seeds)
    rng = np.random.default_rng(100 + k)
    fields = []
    arena = PRRArena(graph.n)
    for _ in range(SINGLE_SAMPLES):
        root = int(rng.integers(graph.n))
        world_seed = int(rng.integers(2**62))
        if mask[root]:
            continue
        result = engine.prr_phase1(mask, root, k, world_seed=world_seed)
        g = prr_graph_from_phase1(result, k)
        fields.append(repr((
            g.root, g.status, g.node_globals, g.edge_src, g.edge_dst,
            g.edge_boost, g.root_local, sorted(g.critical),
            g.uncompressed_nodes, g.uncompressed_edges,
        )))
        arena.add_phase1(result, k)
    h = hashlib.sha256("\n".join(fields).encode()).hexdigest()
    return [h] + [digest(a) for a in arena.payload()[1:]]


def compute_all() -> dict:
    out = {"prr": {}, "critical": {}, "single": {}}
    for name in GRAPHS:
        graph = build_graph(name)
        seeds = seed_set(graph)
        for k in KS:
            for rng_seed in RNG_SEEDS:
                for count in COUNTS:
                    out["prr"][f"{name}/k{k}/rng{rng_seed}/n{count}"] = prr_case(
                        graph, seeds, k, rng_seed, count
                    )
        for rng_seed in RNG_SEEDS:
            for count in COUNTS:
                out["critical"][f"{name}/rng{rng_seed}/n{count}"] = critical_case(
                    graph, seeds, rng_seed, count
                )
        for k in SINGLE_KS:
            out["single"][f"{name}/k{k}"] = single_case(graph, seeds, k)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def graphs():
    built = {name: build_graph(name) for name in GRAPHS}
    return {name: (g, seed_set(g)) for name, g in built.items()}


@pytest.fixture
def batch_width(monkeypatch):
    """Patch the lane budget so every PRR and critical batch on an
    ``n``-node graph holds ``width`` lanes (``None``: the whole draw),
    and record the batch sizes the kernels actually saw."""
    seen = []
    # PRR batches enter through the engine method, critical batches
    # through the lanes module's kernel.
    for owner, name in ((SamplingEngine, "prr_phase1_lanes"),
                        (lanes_module, "prr_phase1_lanes")):
        def spy(engine, seeds_mask, roots, *args, _inner=getattr(owner, name)):
            seen.append(len(roots))
            return _inner(engine, seeds_mask, roots, *args)

        monkeypatch.setattr(owner, name, spy)

    def set_width(width, n):
        if width is None:
            monkeypatch.setattr(lanes_module, "LANE_BUDGET", 10**12)
        else:
            # lane_batch floors the width at lanes.LANE_WIDTH; lowering it
            # here leaves the critical draw block alone, which the engine
            # and core.parallel import by value.
            monkeypatch.setattr(lanes_module, "LANE_WIDTH", min(width, lanes_module.LANE_WIDTH))
            monkeypatch.setattr(lanes_module, "LANE_BUDGET", width * n)
        seen.clear()
        return seen

    return set_width


def _assert_widths(seen, width, count):
    assert seen, "no lane batch ran"
    if width is None:
        assert max(seen) == count
    else:
        assert max(seen) == min(width, count)


class TestGoldenDigests:
    """The default lane budget reproduces every recorded digest."""

    def test_matrix_is_complete(self, golden):
        assert len(golden["prr"]) == len(GRAPHS) * len(KS) * len(RNG_SEEDS) * len(COUNTS)
        assert len(golden["critical"]) == len(GRAPHS) * len(RNG_SEEDS) * len(COUNTS)
        assert len(golden["single"]) == len(GRAPHS) * len(SINGLE_KS)

    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("k", KS)
    def test_prr_lanes(self, golden, graphs, name, k):
        graph, seeds = graphs[name]
        for rng_seed in RNG_SEEDS:
            for count in COUNTS:
                key = f"{name}/k{k}/rng{rng_seed}/n{count}"
                assert prr_case(graph, seeds, k, rng_seed, count) == golden["prr"][key], key

    @pytest.mark.parametrize("name", GRAPHS)
    def test_critical_lanes(self, golden, graphs, name):
        graph, seeds = graphs[name]
        for rng_seed in RNG_SEEDS:
            for count in COUNTS:
                key = f"{name}/rng{rng_seed}/n{count}"
                assert critical_case(graph, seeds, rng_seed, count) == golden["critical"][key], key

    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("k", SINGLE_KS)
    def test_single_samples(self, golden, graphs, name, k):
        graph, seeds = graphs[name]
        assert single_case(graph, seeds, k) == golden["single"][f"{name}/k{k}"]


class TestLaneWidthInvariance:
    """Batch width changes the time, never a digest.  1- and 7-lane
    batches replay the 50-sample cases; 64-lane and whole-draw batches
    replay every case."""

    @pytest.mark.parametrize("width", [1, 7, 64, None])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_prr_lanes(self, golden, graphs, batch_width, name, width):
        graph, seeds = graphs[name]
        counts = COUNTS if width in (64, None) else COUNTS[:1]
        for k in KS:
            for rng_seed in RNG_SEEDS:
                for count in counts:
                    seen = batch_width(width, graph.n)
                    key = f"{name}/k{k}/rng{rng_seed}/n{count}"
                    assert prr_case(graph, seeds, k, rng_seed, count) == golden["prr"][key], key
                    _assert_widths(seen, width, count)

    @pytest.mark.parametrize("slice_edges", [1, 3000])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_prr_compression_slices(self, golden, graphs, monkeypatch, name, slice_edges):
        """Compressing a batch lane by lane, or in runs of a few thousand
        edges, gives the payloads of one pass over the batch."""
        monkeypatch.setattr(prr_module, "COMPRESS_SLICE_EDGES", slice_edges)
        graph, seeds = graphs[name]
        counts = COUNTS if slice_edges > 1 else COUNTS[:1]
        for k in KS:
            for rng_seed in RNG_SEEDS:
                for count in counts:
                    key = f"{name}/k{k}/rng{rng_seed}/n{count}"
                    assert prr_case(graph, seeds, k, rng_seed, count) == golden["prr"][key], key

    @pytest.mark.parametrize("width", [1, 7, 64, None])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_critical_lanes(self, golden, graphs, batch_width, name, width):
        graph, seeds = graphs[name]
        counts = COUNTS if width in (64, None) else COUNTS[:1]
        for rng_seed in RNG_SEEDS:
            for count in counts:
                seen = batch_width(width, graph.n)
                key = f"{name}/rng{rng_seed}/n{count}"
                assert critical_case(graph, seeds, rng_seed, count) == golden["critical"][key], key
                _assert_widths(seen, width, count)
