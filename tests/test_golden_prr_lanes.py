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

The digests were recorded before the lane batches were sized by a byte
budget (:data:`~repro.engine.lanes.LANE_BYTES`) and before phase II
compressed whole batches at once.  Every sample is a pure function of its
``(root, world_seed)`` pair, so the digests must not depend on how many
lanes a batch holds or how many lane slots a critical draw streams
through: the lane-width tests re-run the matrix with the budget patched
to 1-, 7-, 64-lane and whole-draw batches and slot sets, and with phase
II compressing each batch in slices of one lane or of a few thousand
edges.
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
    """Patch the lane budget so every PRR batch and the slot set of every
    critical draw on an ``n``-node graph hold ``width`` lanes (``None``:
    the whole draw), and record, per phase-I kernel run, its samples and
    the lane slots they ran in."""
    seen = []

    # Each run of the phase-I kernel sets up its slots once: per batch of
    # a PRR draw, once for a whole critical draw.
    class Slots(lanes_module._Slots):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append((self.num, self.width))

    monkeypatch.setattr(lanes_module, "_Slots", Slots)

    def set_width(width, graph):
        # PRR and critical batches both span two plane bytes per lane and
        # node; PRR batches also budget their transients, which this
        # zeroes so that the plane alone sizes them, and start from the
        # unlearned first width, not one a smaller earlier draw taught.
        monkeypatch.setattr(prr_module, "_PRR_EDGE_BYTES", 0)
        budget = 10**12 if width is None else width * 2 * graph.n
        monkeypatch.setattr(lanes_module, "LANE_BYTES", budget)
        SamplingEngine.for_graph(graph)._prr_kept = None
        seen.clear()
        return seen

    return set_width


def _assert_batches(seen, width, count):
    """PRR draws: batches of ``width`` lanes (the last one may be short),
    each one fill of its slots."""
    assert seen, "no lane batch ran"
    slots = count if width is None else min(width, count)
    assert sum(roots for roots, _ in seen) == count
    assert all(used == roots for roots, used in seen)
    assert max(used for _, used in seen) == slots


def _assert_streamed(seen, width, count):
    """Critical draws: one kernel run streams the whole draw through
    exactly ``width`` slots (``count`` for a draw that fits)."""
    slots = count if width is None else min(width, count)
    assert seen == [(count, slots)]


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
    """Batch and slot width change the time, never a digest.  1- and
    7-lane widths replay the 50-sample cases; 64-lane and whole-draw
    widths replay every case."""

    @pytest.mark.parametrize("width", [1, 7, 64, None])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_prr_lanes(self, golden, graphs, batch_width, name, width):
        graph, seeds = graphs[name]
        counts = COUNTS if width in (64, None) else COUNTS[:1]
        for k in KS:
            for rng_seed in RNG_SEEDS:
                for count in counts:
                    seen = batch_width(width, graph)
                    key = f"{name}/k{k}/rng{rng_seed}/n{count}"
                    assert prr_case(graph, seeds, k, rng_seed, count) == golden["prr"][key], key
                    _assert_batches(seen, width, count)

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
                seen = batch_width(width, graph)
                key = f"{name}/rng{rng_seed}/n{count}"
                assert critical_case(graph, seeds, rng_seed, count) == golden["critical"][key], key
                _assert_streamed(seen, width, count)
