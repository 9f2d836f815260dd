"""Unit tests for the Section VII baselines."""

import numpy as np
import pytest

from repro.baselines import (
    high_degree_global,
    high_degree_local,
    more_seeds_baseline,
    pagerank_baseline,
    pagerank_scores,
    weighted_degree_variants,
)
from repro.graphs import (
    DiGraph,
    GraphBuilder,
    constant_probability,
    learned_like,
    preferential_attachment,
    star,
)


@pytest.fixture
def rng():
    return np.random.default_rng(55)


@pytest.fixture
def social(rng):
    return learned_like(preferential_attachment(120, 3, rng), rng, 0.25)


class TestHighDegreeGlobal:
    def test_returns_four_variants(self, social):
        sets = high_degree_global(social, {0}, 5)
        assert len(sets) == 4
        for s in sets:
            assert len(s) == 5
            assert 0 not in s

    def test_out_prob_variant_prefers_hub(self):
        g = constant_probability(star(10, outward=True), 0.5)
        sets = high_degree_global(g, {9}, 1)
        # variant 1 scores by outgoing probability mass: hub 0 wins
        assert sets[0] == [0]

    def test_in_gap_variant_prefers_boostable(self):
        # node 1 has a large p' - p gap on its incoming edge
        g = DiGraph(3, [0, 0], [1, 2], [0.1, 0.1], [0.9, 0.1])
        sets = high_degree_global(g, {0}, 1)
        assert sets[2] == [1]

    def test_k_larger_than_candidates(self, social):
        sets = high_degree_global(social, set(range(115)), 10)
        for s in sets:
            assert len(s) == 5  # only 5 non-seeds exist


class TestWeightedDegreeArithmetic:
    """The array scores round exactly like the per-node loops they
    replaced: numpy's slice ``sum()`` for the undiscounted variants,
    Python's left-to-right ``sum()`` over the kept edges for the
    discounted ones.  Ties between equal scores decide the picks."""

    @pytest.fixture
    def csr(self, rng):
        degrees = rng.integers(0, 300, size=60)
        degrees[::7] = 0
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        weights = np.round(rng.lognormal(-2.0, 1.0, size=int(indptr[-1])), 3)
        nodes = rng.integers(0, 60, size=weights.size)
        return indptr, nodes, weights

    def test_slice_sums_match_numpy_slices(self, csr):
        from repro.baselines.degree import _slice_sums

        indptr, _nodes, weights = csr
        loop = [weights[a:b].sum() for a, b in zip(indptr[:-1], indptr[1:])]
        assert _slice_sums(indptr, weights).tolist() == loop

    def test_kept_sums_match_python_sums(self, csr, rng):
        from repro.baselines.degree import _kept_sums
        from repro.graphs.digraph import CSRView

        indptr, nodes, weights = csr
        rows = CSRView(indptr, nodes, weights, weights, np.arange(weights.size))
        picked = rng.random(60) < 0.3
        members = rng.permutation(60)[:40]
        loop = [
            float(sum(w for v, w in zip(nodes[indptr[r]:indptr[r + 1]],
                                        weights[indptr[r]:indptr[r + 1]])
                      if not picked[v]))
            for r in members
        ]
        assert _kept_sums(rows, weights, members, picked).tolist() == loop


class TestHighDegreeLocal:
    def test_prefers_seed_neighbours(self):
        # star: hub seed, leaves are the 1-hop neighbourhood
        g = constant_probability(star(8, outward=True), 0.5)
        sets = high_degree_local(g, {0}, 3)
        for s in sets:
            assert set(s) <= set(range(1, 8))

    def test_expands_hops_when_needed(self):
        # path 0 -> 1 -> 2 -> 3, seed 0, k=3 forces multi-hop expansion
        from repro.graphs import path

        g = constant_probability(path(4), 0.5)
        sets = high_degree_local(g, {0}, 3)
        for s in sets:
            assert set(s) == {1, 2, 3}

    def test_pads_with_far_nodes(self):
        # disconnected candidates still produce k nodes
        g = DiGraph(4, [0], [1], [0.5], [0.6])
        sets = high_degree_local(g, {0}, 3)
        for s in sets:
            assert len(s) == 3

    def test_variant_count(self, social):
        assert len(weighted_degree_variants()) == 4


class TestPageRank:
    def test_scores_normalized(self, social):
        scores = pagerank_scores(social)
        assert scores.sum() == pytest.approx(1.0, abs=0.05)
        assert np.all(scores >= 0)

    def test_influencer_ranks_high(self):
        # node 0 influences everyone strongly: it collects all the votes
        g = constant_probability(star(10, outward=True), 0.9)
        scores = pagerank_scores(g)
        assert int(np.argmax(scores)) == 0

    def test_baseline_excludes_seeds(self, social):
        chosen = pagerank_baseline(social, {3, 4}, 10)
        assert len(chosen) == 10
        assert not {3, 4} & set(chosen)

    def test_deterministic(self, social):
        assert pagerank_baseline(social, {0}, 5) == pagerank_baseline(social, {0}, 5)


class TestMoreSeeds:
    def test_returns_k_non_seeds(self, social, rng):
        chosen = more_seeds_baseline(social, {0, 1}, 5, rng, max_samples=2000)
        assert len(chosen) <= 5
        assert not {0, 1} & set(chosen)

    def test_picks_uncovered_region(self, rng):
        # two disjoint stars; seed covers the first, extra seeds must go to
        # the second star's hub
        b = GraphBuilder(12)
        for leaf in range(1, 6):
            b.add_edge(0, leaf, 0.9, 0.95)
        for leaf in range(7, 12):
            b.add_edge(6, leaf, 0.9, 0.95)
        g = b.build()
        chosen = more_seeds_baseline(g, {0}, 1, rng, max_samples=4000)
        assert chosen == [6]

    def test_rows_that_meet_the_seeds_are_emptied(self, social):
        """One lane draw: each row is the RR-set of its ``(root,
        world_seed)``, or empty exactly when that set meets ``S``."""
        from repro.baselines.moreseeds import _MarginalRRSampler
        from repro.engine import SamplingEngine
        from repro.engine.coverage import CoverageIndex, csr_to_frozensets
        from repro.engine.lanes import draw_lane_inputs

        seeds, count = {0, 1, 2}, 600
        index = CoverageIndex(social.n)
        _MarginalRRSampler(social, seeds).sample_into(
            np.random.default_rng(4), count, index
        )
        roots, world_seeds = draw_lane_inputs(
            np.random.default_rng(4), social.n, count
        )
        expected = csr_to_frozensets(
            *SamplingEngine.for_graph(social).rr_lane_csr(
                None, count, roots, world_seeds
            )
        )
        rows = list(index.sets_view())
        assert len(rows) == len(expected) == count
        met = [bool(rr & seeds) for rr in expected]
        assert 0 < sum(met) < count
        for row, rr, hit in zip(rows, expected, met):
            assert row == (frozenset() if hit else rr)

    def test_budget_workers_reach_the_rr_draws(self, monkeypatch):
        """A ``more_seeds`` query draws its RR sets at its budget's worker
        count, and answers as it does at ``workers=1``."""
        from repro.api import BoostQuery, SamplingBudget, Session
        from repro.core import parallel

        real = parallel.parallel_rr_csr
        calls = []

        def spy(graph, count, rng=0, workers=None):
            calls.append((count, workers))
            return real(graph, count, rng, workers)

        monkeypatch.setattr(parallel, "parallel_rr_csr", spy)
        rng = np.random.default_rng(8)
        graph = learned_like(preferential_attachment(300, 3, rng), rng, 0.2)
        envelopes = {}
        for workers in (1, 2):
            calls.clear()
            query = BoostQuery(
                seeds=[0, 1, 2], k=5, algorithm="more_seeds", rng_seed=3,
                budget=SamplingBudget(max_samples=3000, mc_runs=50,
                                      workers=workers),
            )
            with Session(graph) as session:
                envelope = session.run(query).to_dict()
            assert {w for _count, w in calls} == {workers}
            for key in ("timings", "query"):
                envelope.pop(key)
            envelopes[workers] = envelope
        # The last draws were big enough to leave the process.
        assert max(count for count, _w in calls) >= parallel.PARALLEL_MIN_SAMPLES
        assert envelopes[2] == envelopes[1]
