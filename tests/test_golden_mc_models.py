"""Frozen Monte Carlo numbers of the hashed-world models.

``tests/golden/mc_models.json`` holds, for the outgoing-boost IC and the
boosted LT models on two graphs, the exact estimates of
``estimate_sigma`` / ``estimate_boost`` and sha256 digests of the
``simulate_batch`` sizes and ``cascade_lane_csr`` arrays, each on a fixed
RNG seed.  Every model draws one lane seed per world from the RNG and
evaluates the worlds in lane batches sized by the engine's byte budget
(:data:`~repro.engine.lanes.LANE_BYTES`); the numbers must not depend
on how the estimators loop over those batches.

Regenerate (only when a model's semantics change on purpose) with
``PYTHONPATH=src python tests/test_golden_mc_models.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.engine import SamplingEngine, resolve_model
from repro.engine import lanes as lanes_module
from repro.graphs import learned_like, preferential_attachment

GOLDEN = Path(__file__).parent / "golden" / "mc_models.json"

MODELS = ("ic_out", "lt")
GRAPHS = ("digg", "pa300")
RUNS = 200  # one lane batch at the default budget; 1 to 200 in the width test


def build_graph(name: str):
    if name == "digg":
        return load_dataset("digg-like", seed=7, beta=2.0)
    rng = np.random.default_rng(31)
    return learned_like(preferential_attachment(300, 3, rng), rng, 0.2, beta=2.0)


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


def model_case(name: str, model: str) -> dict:
    graph = resolve_model(model).prepare_graph(build_graph(name))
    engine = SamplingEngine.for_graph(graph)
    seeds, boost = seeds_and_boost(graph)

    def rng(seed):
        return np.random.default_rng(seed)

    counts, members = engine.cascade_lane_csr(seeds, boost, rng(4), RUNS, model=model)
    return {
        "simulate_batch": digest(
            engine.simulate_batch(seeds, boost, rng(1), RUNS, model=model)
        ),
        "sigma": engine.estimate_sigma(seeds, boost, rng(2), RUNS, model=model),
        "boost": engine.estimate_boost(seeds, boost, rng(3), RUNS, model=model),
        "boost_one_node": engine.estimate_boost(
            seeds, boost[:1], rng(5), RUNS, model=model
        ),
        "lane_csr": [digest(counts), digest(members)],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", GRAPHS)
def test_model_numbers_match_golden(golden, name, model):
    assert model_case(name, model) == golden[f"{name}/{model}"]


@pytest.mark.parametrize("width", [1, 7, 64])
@pytest.mark.parametrize("model", MODELS)
def test_model_numbers_match_golden_at_width(golden, monkeypatch, model, width):
    """A budget that fits ``width`` lanes of the model's planes changes
    how many batches the worlds take, never a number."""
    name = "pa300"
    n = build_graph(name).n
    per_lane = n * lanes_module.ENTRY_BYTES[resolve_model(model).lane_kernel]
    monkeypatch.setattr(lanes_module, "LANE_BYTES", width * per_lane)
    assert model_case(name, model) == golden[f"{name}/{model}"]


if __name__ == "__main__":
    cases = {f"{name}/{model}": model_case(name, model) for name in GRAPHS for model in MODELS}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
