"""Engine/legacy equivalence suite.

The vectorized :class:`repro.engine.SamplingEngine` replaced the edge-wise
pure-Python samplers (kept in :mod:`repro.engine.reference`).  These tests
pin the contract of that migration:

* bit-for-bit where the randomness is pinned — RR sets and forward
  cascades consume the RNG stream draw-for-draw like the reference, and
  PRR worlds fixed by ``world_seed`` see identical ``_hash_draw`` values,
* distributional elsewhere — RNG-driven PRR/critical sampling traverses in
  a different order, so only the estimated quantities must agree.
"""

import numpy as np
import pytest

from repro.core import (
    ACTIVATED,
    BOOSTABLE,
    HOPELESS,
    sample_critical_batch,
    sample_critical_set,
    sample_prr_batch,
    sample_prr_graph,
)
from repro.core.prr import _hash_draw
from repro.diffusion import estimate_sigma, simulate_lt_spread, simulate_spread
from repro.engine import SamplingEngine, hash_draw, hash_draw_array
from repro.engine.coverage import CoverageIndex
from repro.engine.reference import (
    reference_rr_set,
    reference_sample_critical_set,
    reference_sample_prr_graph,
    reference_simulate_lt_spread,
    reference_simulate_spread,
)
from repro.graphs import GraphBuilder, learned_like, preferential_attachment
from repro.im import RRSampler, random_rr_set


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(3)
    return learned_like(preferential_attachment(250, 3, rng), rng, 0.3)


def prr_signature(prr):
    """Order-independent identity of a PRR-graph."""
    return (
        prr.status,
        prr.root,
        sorted(prr.node_globals),
        prr.critical,
        frozenset(zip(prr.edge_src, prr.edge_dst, prr.edge_boost)),
        prr.uncompressed_nodes,
        prr.uncompressed_edges,
    )


class TestHashing:
    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 10_000, size=500)
        v = rng.integers(0, 10_000, size=500)
        for seed in (0, 1, 12345, 2**63):
            vec = hash_draw_array(seed, u, v)
            scalar = np.array(
                [hash_draw(seed, int(a), int(b)) for a, b in zip(u, v)]
            )
            assert np.array_equal(vec, scalar)

    def test_hash_draw_is_the_legacy_hash(self):
        # core.prr._hash_draw must remain the same function the pre-engine
        # sampler used, so fixed world seeds reproduce historical worlds.
        assert _hash_draw is hash_draw
        assert _hash_draw(1, 2, 3) == hash_draw(1, 2, 3)


class TestRRBitwise:
    def test_stream_and_sets_match_reference(self, graph):
        r_ref = np.random.default_rng(42)
        r_eng = np.random.default_rng(42)
        ref = [reference_rr_set(graph, r_ref) for _ in range(100)]
        eng = [random_rr_set(graph, r_eng) for _ in range(100)]
        assert ref == eng
        assert r_ref.bit_generator.state == r_eng.bit_generator.state

    def test_strict_batch_equals_sequential(self, graph):
        r_one = np.random.default_rng(7)
        r_batch = np.random.default_rng(7)
        engine = SamplingEngine.for_graph(graph)
        singles = [random_rr_set(graph, r_one) for _ in range(80)]
        batch = engine.sample_rr_batch(r_batch, 80, strict=True)
        assert singles == batch
        assert r_one.bit_generator.state == r_batch.bit_generator.state

    def test_throughput_batch_same_distribution(self, graph):
        """The default batch mode skips uniforms for edges into reached
        nodes; the RR identity n·P[v ∈ R] must be unaffected."""
        samples = 4000
        strict = SamplingEngine.for_graph(graph).sample_rr_batch(
            np.random.default_rng(31), samples, strict=True
        )
        index = CoverageIndex(graph.n)
        RRSampler(graph).sample_into(np.random.default_rng(32), samples, index)
        fast = list(index.sets_view())
        mean_strict = np.mean([len(s) for s in strict])
        mean_fast = np.mean([len(s) for s in fast])
        # mean RR size == expected influence of a uniform seed; generous
        # tolerance for Monte Carlo noise
        assert mean_fast == pytest.approx(mean_strict, rel=0.15)
        hit_strict = sum(1 for s in strict if 0 in s) / samples
        hit_fast = sum(1 for s in fast if 0 in s) / samples
        assert hit_fast == pytest.approx(hit_strict, abs=0.05)

    def test_fixed_root(self, graph):
        r_ref = np.random.default_rng(5)
        r_eng = np.random.default_rng(5)
        for root in (0, 10, 200):
            assert reference_rr_set(graph, r_ref, root=root) == random_rr_set(
                graph, r_eng, root=root
            )


class TestCascadeBitwise:
    def test_simulate_matches_reference(self, graph):
        r_ref = np.random.default_rng(9)
        r_eng = np.random.default_rng(9)
        for _ in range(50):
            ref = reference_simulate_spread(graph, {0, 1}, {5, 6}, r_ref)
            eng = simulate_spread(graph, {0, 1}, {5, 6}, r_eng)
            assert ref == eng
        assert r_ref.bit_generator.state == r_eng.bit_generator.state

    def test_estimate_sigma_stream_compatible(self, graph):
        # estimate_sigma draws one lane seed per world from the generator
        # and nothing else, so the same generator seed gives the same
        # estimate.
        est1 = estimate_sigma(graph, {0, 1}, {5}, np.random.default_rng(11), runs=200)
        est2 = estimate_sigma(graph, {0, 1}, {5}, np.random.default_rng(11), runs=200)
        assert est1 == est2

    def test_lt_matches_reference(self, graph):
        r_ref = np.random.default_rng(13)
        r_eng = np.random.default_rng(13)
        for _ in range(30):
            ref = reference_simulate_lt_spread(graph, {0}, {3, 4}, r_ref)
            eng = simulate_lt_spread(graph, {0}, {3, 4}, r_eng)
            assert ref == eng
        assert r_ref.bit_generator.state == r_eng.bit_generator.state


class TestPRRWorldSeedEquivalence:
    def test_same_worlds_same_graphs(self, graph):
        seeds = frozenset({0, 1, 2})
        rng = np.random.default_rng(0)
        for root in range(3, 60):
            for world_seed in (5, 99):
                for k in (1, 2, 4):
                    ref = reference_sample_prr_graph(
                        graph, seeds, k, rng, root=root, world_seed=world_seed
                    )
                    eng = sample_prr_graph(
                        graph, seeds, k, rng, root=root, world_seed=world_seed
                    )
                    assert prr_signature(ref) == prr_signature(eng)

    def test_f_evaluations_agree(self, graph):
        seeds = frozenset({0, 1})
        rng = np.random.default_rng(0)
        probes = [set(), {10}, {10, 20}, {30, 40, 50}]
        for root in range(5, 40):
            ref = reference_sample_prr_graph(
                graph, seeds, 3, rng, root=root, world_seed=root
            )
            eng = sample_prr_graph(graph, seeds, 3, rng, root=root, world_seed=root)
            for boost in probes:
                assert ref.f(boost) == eng.f(boost)
                assert ref.f_lower(boost) == eng.f_lower(boost)
                assert ref.activating_nodes(boost) == eng.activating_nodes(boost)

    def test_batch_equals_sequential(self, graph):
        seeds = frozenset({0, 1})
        r_one = np.random.default_rng(21)
        r_batch = np.random.default_rng(21)
        singles = [sample_prr_graph(graph, seeds, 3, r_one) for _ in range(60)]
        batch = sample_prr_batch(graph, seeds, 3, r_batch, 60)
        assert [prr_signature(a) for a in singles] == [
            prr_signature(b) for b in batch
        ]
        assert r_one.bit_generator.state == r_batch.bit_generator.state


class TestForcedStates:
    """Degenerate probabilities pin every edge state, so the RNG-driven
    engine paths must match the reference exactly."""

    LIVE = (1.0, 1.0)
    BOOST = (0.0, 1.0)
    BLOCKED = (0.0, 0.0)

    def figure2_graph(self):
        builder = GraphBuilder(9)
        for u, v, (p, pp) in [
            (7, 4, self.LIVE), (4, 1, self.BOOST), (1, 0, self.LIVE),
            (7, 3, self.BOOST), (3, 0, self.LIVE), (4, 5, self.BOOST),
            (5, 2, self.BOOST), (2, 0, self.LIVE), (1, 5, self.LIVE),
            (4, 6, self.LIVE), (8, 2, self.LIVE),
        ]:
            builder.add_edge(u, v, p, pp)
        return builder.build()

    def test_critical_set_matches_reference(self):
        g = self.figure2_graph()
        ref = reference_sample_critical_set(
            g, frozenset({7}), np.random.default_rng(0), root=0
        )
        eng = sample_critical_set(g, frozenset({7}), np.random.default_rng(0), root=0)
        assert ref == eng
        assert eng[0] == BOOSTABLE
        assert eng[1] == {1, 3}

    def test_critical_batch_statuses(self):
        g = self.figure2_graph()
        rng = np.random.default_rng(1)
        batch = sample_critical_batch(g, frozenset({7}), rng, 40)
        assert len(batch) == 40
        for status, critical, _explored in batch:
            assert status in (ACTIVATED, HOPELESS, BOOSTABLE)
            if status != BOOSTABLE:
                assert critical == frozenset()
            else:
                assert 7 not in critical  # seeds are never critical


class TestDistributionalAgreement:
    def test_prr_status_rates_match_reference(self, graph):
        """RNG-mode PRR sampling traverses in a different order than the
        reference, so compare the sampled distribution of root statuses."""
        seeds = frozenset({0, 1, 2})
        runs = 600
        ref_rng = np.random.default_rng(100)
        eng_rng = np.random.default_rng(200)
        roots = np.random.default_rng(7).integers(3, graph.n, size=runs)
        ref_counts = {ACTIVATED: 0, HOPELESS: 0, BOOSTABLE: 0}
        eng_counts = {ACTIVATED: 0, HOPELESS: 0, BOOSTABLE: 0}
        for root in roots:
            ref_counts[
                reference_sample_prr_graph(graph, seeds, 2, ref_rng, root=int(root)).status
            ] += 1
            eng_counts[
                sample_prr_graph(graph, seeds, 2, eng_rng, root=int(root)).status
            ] += 1
        for status in ref_counts:
            assert eng_counts[status] == pytest.approx(
                ref_counts[status], abs=max(40, 0.25 * runs)
            )
