"""Tests for parallel PRR-graph generation."""

import numpy as np
import pytest

from repro.core import (
    collection_stats,
    parallel_critical_sets,
    parallel_prr_collection,
)
from repro.graphs import learned_like, preferential_attachment


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(91)
    return learned_like(preferential_attachment(150, 3, rng), rng, 0.2)


class TestParallelPRR:
    def test_sequential_fallback_deterministic(self, graph):
        a = parallel_prr_collection(graph, {0, 1}, 5, 30, rng=4, workers=1)
        b = parallel_prr_collection(graph, {0, 1}, 5, 30, rng=4, workers=1)
        assert len(a) == len(b) == 30
        assert [g.root for g in a] == [g.root for g in b]

    def test_parallel_count_and_validity(self, graph):
        prrs = parallel_prr_collection(
            graph, {0, 1}, 5, 200, rng=4, workers=2
        )
        assert len(prrs) == 200
        stats = collection_stats(prrs)
        assert stats.total == 200
        # every boostable graph has a root local id and evaluates f(empty)=0
        for prr in prrs:
            if prr.is_boostable:
                assert not prr.f(set())

    def test_parallel_reproducible(self, graph):
        a = parallel_prr_collection(graph, {0}, 5, 128, rng=9, workers=2)
        b = parallel_prr_collection(graph, {0}, 5, 128, rng=9, workers=2)
        assert [g.root for g in a] == [g.root for g in b]

    def test_estimates_agree_with_sequential(self, graph):
        """Parallel and sequential sampling estimate the same quantity."""
        from repro.core.estimator import estimate_delta
        from repro.diffusion import estimate_boost

        rng = np.random.default_rng(5)
        boost = {10, 11, 12, 13, 14}
        par = parallel_prr_collection(graph, {0, 1}, 5, 3000, rng=1, workers=2)
        est_par = estimate_delta(par, graph.n, boost)
        mc = estimate_boost(graph, {0, 1}, boost, rng, runs=3000)
        assert est_par == pytest.approx(mc, abs=max(1.0, 0.5 * mc))


class TestParallelCritical:
    def test_count(self, graph):
        sets = parallel_critical_sets(graph, {0, 1}, 200, rng=2, workers=2)
        assert len(sets) == 200
        assert all(isinstance(s, frozenset) for s in sets)

    def test_sequential_fallback(self, graph):
        sets = parallel_critical_sets(graph, {0}, 20, rng=2, workers=1)
        assert len(sets) == 20
