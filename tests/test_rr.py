"""Unit tests for repro.im.rr (reverse-reachable sets)."""

import numpy as np
import pytest

from repro.engine.coverage import CoverageIndex
from repro.graphs import DiGraph, path, constant_probability
from repro.im import RRSampler, random_rr_set


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestRandomRRSet:
    def test_contains_root(self, rng):
        g = constant_probability(path(5), 0.5)
        rr = random_rr_set(g, rng, root=3)
        assert 3 in rr

    def test_deterministic_chain(self, rng):
        g = constant_probability(path(4), 1.0)
        rr = random_rr_set(g, rng, root=3)
        assert rr == {0, 1, 2, 3}

    def test_blocked_chain(self, rng):
        g = constant_probability(path(4), 0.0)
        rr = random_rr_set(g, rng, root=3)
        assert rr == {3}

    def test_random_root_in_range(self, rng):
        g = constant_probability(path(6), 0.3)
        for _ in range(20):
            rr = random_rr_set(g, rng)
            assert all(0 <= v < 6 for v in rr)

    def test_rr_identity_single_edge(self, rng):
        # sigma({0}) on 0 -> 1 with p: 1 + p.  RR identity: n * P[0 in RR].
        p = 0.4
        g = DiGraph(2, [0], [1], [p], [p])
        hits = sum(1 for _ in range(20000) if 0 in random_rr_set(g, rng))
        estimate = 2 * hits / 20000
        assert estimate == pytest.approx(1 + p, abs=0.03)


class TestRRSampler:
    def test_protocol(self, rng):
        g = constant_probability(path(5), 0.5)
        sampler = RRSampler(g)
        assert sampler.n == 5
        index = CoverageIndex(5)
        sampler.sample_into(rng, 3, index)
        assert index.num_sets == 3
        assert all(len(rr) >= 1 for rr in index.sets_view())
