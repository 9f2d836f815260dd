"""Golden digests of the RR lanes and the default-IC cascade lanes.

``tests/golden/rr_cascades.json`` holds sha256 digests of every array
these samplers return for a fixed matrix of graphs, RNG seeds and sample
counts:

* :meth:`~repro.engine.SamplingEngine.rr_lane_csr` — the RR-set CSR
  ``(counts, members)``, evaluated both by the lane kernel and by the
  single-sample hashed loop of graphs whose RR-sets come back dense,
* :meth:`~repro.engine.SamplingEngine.cascades` of the default
  incoming-boost IC with ``members=True`` — the per-world sizes and the
  activated-set members — plus the exact ``estimate_boost`` number.

Every sample is a pure function of its root and world seed (its world
seed alone for a cascade), so the digests must not depend on how many
lanes a batch holds: the lane-width tests re-run the matrix with the
lane budget (:data:`~repro.engine.lanes.LANE_BYTES`) patched to 1-lane,
7-lane, 64-lane and whole-draw batches.

Regenerate (only when a sampler's semantics change on purpose) with
``PYTHONPATH=src python tests/test_golden_rr_cascades.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.engine import SamplingEngine
from repro.engine import batch as batch_module
from repro.engine import lanes as lanes_module
from repro.engine import models as models_module
from repro.engine.lanes import draw_lane_seeds
from repro.graphs import learned_like, preferential_attachment

GOLDEN = Path(__file__).parent / "golden" / "rr_cascades.json"

GRAPHS = ("digg", "bench10k", "pa150")
RNG_SEEDS = (1, 2)
COUNTS = (50, 1000)
BOOST_RUNS = 300


def build_graph(name: str):
    if name == "digg":
        return load_dataset("digg-like", seed=7, beta=2.0)
    if name == "bench10k":  # the 10k/52k micro-benchmark graph
        rng = np.random.default_rng(2017)
        return learned_like(preferential_attachment(10000, 4, rng), rng, 0.1, beta=2.0)
    rng = np.random.default_rng(5)
    return learned_like(preferential_attachment(150, 3, rng), rng, 0.3)


def seeds_and_boost(graph):
    """The 10 highest out-degree nodes as seeds, the next 10 as boost set."""
    order = np.argsort(-graph.out_degrees(), kind="stable")
    return [int(v) for v in order[:10]], [int(v) for v in order[10:20]]


def digest(array) -> str:
    a = np.ascontiguousarray(np.asarray(array))
    h = hashlib.sha256()
    h.update(f"{a.dtype.str}|{a.shape}|".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def rr_case(graph, rng_seed: int, count: int, dense=None) -> list:
    """RR-set digests on a fresh engine; ``dense`` forces the evaluator
    (``None``: the engine learns it from its first batch)."""
    engine = SamplingEngine(graph)
    engine._rr_dense = dense
    out = engine.rr_lane_csr(np.random.default_rng(rng_seed), count)
    return [digest(a) for a in out]


def cascade_case(graph, rng_seed: int, count: int) -> list:
    engine = SamplingEngine.for_graph(graph)
    seeds, boost = seeds_and_boost(graph)
    lane_seeds = draw_lane_seeds(np.random.default_rng(rng_seed), count)
    return [digest(a) for a in engine.cascades(seeds, boost, lane_seeds, members=True)]


def boost_case(graph) -> float:
    engine = SamplingEngine.for_graph(graph)
    seeds, boost = seeds_and_boost(graph)
    return engine.estimate_boost(seeds, boost, np.random.default_rng(3), BOOST_RUNS)


def compute_all() -> dict:
    out = {"rr": {}, "ic": {}, "ic_boost": {}}
    for name in GRAPHS:
        graph = build_graph(name)
        for rng_seed in RNG_SEEDS:
            for count in COUNTS:
                key = f"{name}/rng{rng_seed}/n{count}"
                out["rr"][key] = rr_case(graph, rng_seed, count)
                out["ic"][key] = cascade_case(graph, rng_seed, count)
        out["ic_boost"][name] = boost_case(graph)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def graphs():
    return {name: build_graph(name) for name in GRAPHS}


def cases():
    return [(s, c) for s in RNG_SEEDS for c in COUNTS]


class TestGoldenDigests:
    """The default batches reproduce every recorded digest."""

    def test_matrix_is_complete(self, golden):
        assert len(golden["rr"]) == len(GRAPHS) * len(RNG_SEEDS) * len(COUNTS)
        assert len(golden["ic"]) == len(GRAPHS) * len(RNG_SEEDS) * len(COUNTS)
        assert len(golden["ic_boost"]) == len(GRAPHS)

    @pytest.mark.parametrize("dense", [None, False, True], ids=["learned", "lanes", "dense"])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_rr_lane_csr(self, golden, graphs, name, dense):
        for rng_seed, count in cases():
            key = f"{name}/rng{rng_seed}/n{count}"
            assert rr_case(graphs[name], rng_seed, count, dense) == golden["rr"][key], key

    @pytest.mark.parametrize("name", GRAPHS)
    def test_ic_cascades(self, golden, graphs, name):
        for rng_seed, count in cases():
            key = f"{name}/rng{rng_seed}/n{count}"
            assert cascade_case(graphs[name], rng_seed, count) == golden["ic"][key], key

    @pytest.mark.parametrize("name", GRAPHS)
    def test_ic_estimate_boost(self, golden, graphs, name):
        assert boost_case(graphs[name]) == golden["ic_boost"][name]


@pytest.fixture
def batch_width(monkeypatch):
    """Patch the lane budget so every RR or IC batch on an ``n``-node
    graph holds ``width`` lanes (``None``: the whole draw), and record
    the batch sizes the kernels actually saw."""
    seen = []
    for owner, name in ((batch_module, "rr_member_lanes"),
                        (models_module, "ic_cascade_lanes")):
        def spy(engine, *args, _inner=getattr(owner, name), **kwargs):
            # RR kernels take (roots, lane_seeds), cascades (seed_idx,
            # thresholds, lane_seeds): the lane seeds come last.
            seen.append(len(args[-1]))
            return _inner(engine, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    def set_width(width, n):
        # RR and IC planes both span one byte per lane and node.
        budget = 10**12 if width is None else width * n
        monkeypatch.setattr(lanes_module, "LANE_BYTES", budget)
        seen.clear()
        return seen

    return set_width


def _assert_widths(seen, width, count):
    assert seen, "no lane batch ran"
    if width is None:
        assert max(seen) == count
    else:
        assert max(seen) == min(width, count)


class TestLaneWidthInvariance:
    """Batch width changes the time, never a digest.  1- and 7-lane
    batches replay the 50-sample cases; 64-lane and whole-draw batches
    replay every case.  The RR draws skip the engine's narrow probe batch
    (``dense=False``), so every batch has the patched width."""

    @pytest.mark.parametrize("width", [1, 7, 64, None])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_rr_lane_csr(self, golden, graphs, batch_width, name, width):
        graph = graphs[name]
        for rng_seed, count in cases():
            if count > 50 and width not in (64, None):
                continue
            seen = batch_width(width, graph.n)
            key = f"{name}/rng{rng_seed}/n{count}"
            assert rr_case(graph, rng_seed, count, dense=False) == golden["rr"][key], key
            _assert_widths(seen, width, count)

    @pytest.mark.parametrize("width", [1, 7, 64, None])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_ic_cascades(self, golden, graphs, batch_width, name, width):
        graph = graphs[name]
        for rng_seed, count in cases():
            if count > 50 and width not in (64, None):
                continue
            seen = batch_width(width, graph.n)
            key = f"{name}/rng{rng_seed}/n{count}"
            assert cascade_case(graph, rng_seed, count) == golden["ic"][key], key
            _assert_widths(seen, width, count)


if __name__ == "__main__":
    cases_ = compute_all()
    GOLDEN.write_text(json.dumps(cases_, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in cases_.values())} cases to {GOLDEN}")
