"""Frozen HighDegree candidate sets.

``tests/golden/degree_candidates.json`` holds the four weighted-degree
candidate sets that :func:`~repro.baselines.high_degree_global` and
:func:`~repro.baselines.high_degree_local` returned for a fixed matrix of
graphs, seed sets and ``k``.  The picks depend on exact float ties:
constant-probability and trivalency graphs give many nodes bit-equal
scores (the first node in pool order wins), and a score summed in another
order can round to the neighbouring float and flip a tie.  Any rewrite of
the scoring must reproduce every set.

Regenerate (only when the selection rule itself changes on purpose) with
``PYTHONPATH=src python tests/test_golden_degree.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import high_degree_global, high_degree_local
from repro.datasets import load_dataset
from repro.graphs import (
    constant_probability,
    learned_like,
    preferential_attachment,
    trivalency,
    weighted_cascade,
)

GOLDEN = Path(__file__).parent / "golden" / "degree_candidates.json"

KS = (1, 5, 20, 60)
FUNCTIONS = {"global": high_degree_global, "local": high_degree_local}


def _pa(n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    return preferential_attachment(n, m, rng), rng


def build_graph(name: str):
    if name == "digg":
        return load_dataset("digg-like", seed=7, beta=2.0)
    if name == "pa10k":
        g, rng = _pa(10000, 4, 2017)
        return learned_like(g, rng, 0.1, beta=2.0)
    if name == "pa150-learned":
        g, rng = _pa(150, 3, 5)
        return learned_like(g, rng, 0.25, beta=2.0)
    if name.startswith("pa150-c"):
        p = float(name[len("pa150-c"):])
        g, _rng = _pa(150, 3, 21)
        return constant_probability(g, p, beta=2.0)
    if name == "pa150-tri":
        g, rng = _pa(150, 3, 22)
        return trivalency(g, rng, beta=2.0)
    if name == "pa150-tri-dense":
        g, rng = _pa(150, 8, 24)
        return trivalency(g, rng, beta=2.0)
    if name == "pa150-wc-dense":
        g, _rng = _pa(150, 8, 25)
        return weighted_cascade(g, beta=2.0)
    if name == "pa150-wc":
        g, _rng = _pa(150, 3, 23)
        return weighted_cascade(g, beta=2.0)
    raise KeyError(name)


# (graph, number of seeds)
GRAPHS = (
    ("digg", 20),
    ("pa10k", 20),
    ("pa150-learned", 5),
    ("pa150-c0.05", 5),
    ("pa150-c0.1", 5),
    ("pa150-c0.3", 5),
    ("pa150-tri", 5),
    ("pa150-wc", 5),
    ("pa150-tri-dense", 5),
    ("pa150-wc-dense", 5),
)


def seed_set(graph, size: int) -> list:
    """The ``size`` highest out-degree nodes (ties to the smaller id)."""
    order = np.argsort(-graph.out_degrees(), kind="stable")
    return sorted(int(v) for v in order[:size])


def case_key(fn: str, name: str, k: int) -> str:
    return f"{fn}/{name}/k{k}"


def graph_cases(name: str, size: int) -> dict:
    graph = build_graph(name)
    seeds = seed_set(graph, size)
    return {
        case_key(fn, name, k): [list(map(int, s)) for s in select(graph, seeds, k)]
        for fn, select in FUNCTIONS.items()
        for k in KS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_matrix_is_complete(golden):
    assert len(golden) == len(GRAPHS) * len(KS) * len(FUNCTIONS)


@pytest.mark.parametrize("name,size", GRAPHS, ids=[g for g, _ in GRAPHS])
def test_candidate_sets_match_golden(golden, name, size):
    for key, sets in graph_cases(name, size).items():
        assert len(sets) == 4, key
        assert sets == golden[key], key


if __name__ == "__main__":
    cases = {}
    for name, size in GRAPHS:
        cases.update(graph_cases(name, size))
    lines = [f"  {json.dumps(key)}: {json.dumps(sets)}" for key, sets in sorted(cases.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
