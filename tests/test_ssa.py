"""Tests for the SSA-style adaptive sampler."""

import numpy as np
import pytest

from repro.api import SamplingBudget, SeedQuery, Session
from repro.core import prr_boost
from repro.core.boost import CriticalSetSampler
from repro.graphs import GraphBuilder, constant_probability, star
from repro.im import RRSampler, ssa_sampling


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestSSASampling:
    def test_star_hub_selected(self, rng):
        g = constant_probability(star(20, outward=True), 0.8)
        result = ssa_sampling(RRSampler(g), 1, 0.3, rng, max_samples=20000)
        assert result.chosen == [0]

    def test_validation_estimate_sane(self, rng):
        # hub + 19 leaves at p=0.5: sigma({0}) = 1 + 9.5
        g = constant_probability(star(20, outward=True), 0.5)
        result = ssa_sampling(RRSampler(g), 1, 0.2, rng, max_samples=50000)
        assert result.estimate == pytest.approx(10.5, rel=0.25)

    def test_rounds_grow_with_tight_epsilon(self, rng):
        g = constant_probability(star(30, outward=True), 0.2)
        loose = ssa_sampling(
            RRSampler(g), 1, 0.5, np.random.default_rng(1), max_samples=20000
        )
        tight = ssa_sampling(
            RRSampler(g), 1, 0.05, np.random.default_rng(1), max_samples=20000
        )
        assert len(tight.samples) >= len(loose.samples)

    def test_validation(self, rng):
        g = constant_probability(star(5), 0.5)
        with pytest.raises(ValueError):
            ssa_sampling(RRSampler(g), 0, 0.3, rng)
        with pytest.raises(ValueError):
            ssa_sampling(RRSampler(g), 1, 1.3, rng)

    def test_session_reports_the_capped_pool(self):
        """Admission prices an SSA query at its ``max_samples``; the query
        draws no more than that, whatever its ``initial_samples``."""
        g = constant_probability(star(30, outward=True), 0.2)
        query = SeedQuery(
            algorithm="ssa", k=5, budget=SamplingBudget(max_samples=300),
            params={"initial_samples": 1000}, rng_seed=1,
        )
        with Session(g) as session:
            assert session.run(query).num_samples == 300

    def test_with_critical_set_sampler(self, rng):
        """SSA drives the boosting lower bound, as the paper suggests."""
        b = GraphBuilder(12)
        b.add_edge(0, 1, 0.1, 0.9)
        for leaf in range(2, 12):
            b.add_edge(1, leaf, 1.0, 1.0)
        g = b.build()
        sampler = CriticalSetSampler(g, {0})
        result = ssa_sampling(
            sampler, 1, 0.3, rng, candidates={v for v in range(1, 12)},
            max_samples=30000,
        )
        assert result.chosen == [1]

    def test_agrees_with_prr_boost(self, rng):
        b = GraphBuilder(12)
        b.add_edge(0, 1, 0.1, 0.9)
        for leaf in range(2, 12):
            b.add_edge(1, leaf, 1.0, 1.0)
        g = b.build()
        imm_result = prr_boost(g, {0}, 1, rng, max_samples=4000)
        sampler = CriticalSetSampler(g, {0})
        ssa_result = ssa_sampling(
            sampler, 1, 0.3, rng, candidates=set(range(1, 12)), max_samples=30000
        )
        assert ssa_result.chosen == imm_result.boost_set
