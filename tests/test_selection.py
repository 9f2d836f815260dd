"""Seeded parity suite: vectorized selection vs the legacy object path.

The flat selection subsystem (``engine.coverage.CoverageIndex`` +
``core.prr.PRRArena`` kernels) must reproduce the legacy implementations
*exactly* — same chosen sets, same smallest-id tie-breaks, same coverage
counts and estimates — because PRR-Boost's output is defined by those
semantics.  Every test here pins vectorized against legacy on seeded
inputs, including adversarial tie-break and supermodular-stall cases.
"""

import numpy as np
import pytest

from repro.core import (
    PRRArena,
    collection_stats,
    estimate_delta,
    estimate_mu,
    greedy_delta_selection,
    legacy_estimate_delta,
    legacy_estimate_mu,
    legacy_greedy_delta_selection,
    prr_boost,
    sample_prr_arena,
    sample_prr_batch,
)
from repro.core.boost import prr_boost_core, prr_boost_lb_core
from repro.engine.coverage import CoverageIndex
from repro.graphs import GraphBuilder, learned_like, preferential_attachment
from repro.im import greedy_max_coverage, legacy_greedy_max_coverage
from repro.im.imm import imm_core

GRAPH_SEEDS = [7, 11, 42]

LIVE = (1.0, 1.0)
BOOST = (0.0, 1.0)


def random_graph(seed, n=120, p=0.25):
    rng = np.random.default_rng(seed)
    return learned_like(preferential_attachment(n, 3, rng), rng, p)


def forced_graph(n, edges):
    builder = GraphBuilder(n)
    for u, v, (p, pp) in edges:
        builder.add_edge(u, v, p, pp)
    return builder.build()


def random_set_family(rng, n, count, max_size):
    """Random sets with deliberate duplicates/empties to force gain ties."""
    sets = []
    for _ in range(count):
        size = int(rng.integers(0, max_size + 1))
        sets.append(frozenset(rng.choice(n, size=size, replace=False).tolist()))
    # Duplicate a block so several nodes tie on coverage gain.
    sets.extend(sets[: count // 4])
    return sets


class TestCoverageIndexParity:
    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_greedy_matches_legacy(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        sets = random_set_family(rng, n, 80, 6)
        index = CoverageIndex(n)
        index.extend(sets)
        for k in (1, 3, 10, 60):
            assert index.greedy(k) == legacy_greedy_max_coverage(sets, k)

    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_greedy_with_candidates(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        sets = random_set_family(rng, n, 60, 5)
        candidates = set(rng.choice(n, size=15, replace=False).tolist())
        index = CoverageIndex(n)
        index.extend(sets)
        assert index.greedy(5, candidates) == legacy_greedy_max_coverage(
            sets, 5, candidates
        )

    def test_tie_break_smallest_id(self):
        # Nodes 3 and 9 both cover two sets; both greedies must pick 3.
        sets = [{9, 3}, {3}, {9}, {5}]
        index = CoverageIndex(10)
        index.extend(sets)
        chosen, covered = index.greedy(1)
        assert (chosen, covered) == ([3], 2)
        assert (chosen, covered) == legacy_greedy_max_coverage(sets, 1)

    def test_incremental_append_equals_bulk(self):
        rng = np.random.default_rng(5)
        sets = random_set_family(rng, 30, 50, 4)
        bulk = CoverageIndex(30)
        bulk.extend(sets)
        incremental = CoverageIndex(30)
        for s in sets[:20]:
            incremental.append(s)
        incremental.greedy(3)  # interleave a greedy run (warm restart)
        for s in sets[20:]:
            incremental.append(s)
        assert incremental.greedy(4) == bulk.greedy(4)

    def test_prefix_limit_matches_slice(self):
        rng = np.random.default_rng(8)
        sets = random_set_family(rng, 25, 40, 4)
        index = CoverageIndex(25)
        index.extend(sets)
        half = len(sets) // 2
        assert index.greedy(4, limit=half) == legacy_greedy_max_coverage(
            sets[:half], 4
        )

    def test_coverage_count_matches_manual(self):
        rng = np.random.default_rng(3)
        sets = random_set_family(rng, 25, 40, 4)
        index = CoverageIndex(25)
        index.extend(sets)
        chosen = {4, 7, 19}
        for start, stop in [(0, None), (10, 30), (35, 40)]:
            end = len(sets) if stop is None else stop
            manual = sum(1 for s in sets[start:end] if s & chosen)
            assert index.coverage_count(chosen, start, stop) == manual

    def test_sets_view_round_trip(self):
        sets = [frozenset({1, 2}), frozenset(), frozenset({0, 3})]
        index = CoverageIndex(5)
        index.extend(sets)
        view = index.sets_view()
        assert list(view) == sets
        assert view[-1] == sets[-1]
        assert view[0:2] == sets[0:2]

    def test_public_greedy_max_coverage_delegates(self):
        sets = [{1, 2}, {2}, {1}, set()]
        assert greedy_max_coverage(sets, 2) == legacy_greedy_max_coverage(sets, 2)


@pytest.fixture(scope="module")
def collections():
    """Seeded PRR collections on three random graphs: (objects, arena)."""
    out = []
    for seed in GRAPH_SEEDS:
        g = random_graph(seed)
        seeds = frozenset({0, 1})
        objs = sample_prr_batch(g, seeds, 5, np.random.default_rng(seed), 250)
        arena = sample_prr_arena(g, seeds, 5, np.random.default_rng(seed), 250)
        out.append((g, objs, arena))
    return out


class TestArenaParity:
    def test_views_equal_objects(self, collections):
        for _g, objs, arena in collections:
            assert len(arena) == len(objs)
            assert all(arena[i] == objs[i] for i in range(len(objs)))

    def test_estimates_match_legacy(self, collections):
        rng = np.random.default_rng(0)
        for g, objs, arena in collections:
            for _ in range(5):
                boost = set(rng.choice(g.n, size=6, replace=False).tolist())
                assert estimate_delta(arena, g.n, boost) == pytest.approx(
                    legacy_estimate_delta(objs, g.n, boost), abs=1e-12
                )
                assert estimate_mu(arena, g.n, boost) == pytest.approx(
                    legacy_estimate_mu(objs, g.n, boost), abs=1e-12
                )

    def test_greedy_delta_matches_legacy(self, collections):
        for g, objs, arena in collections:
            for k in (1, 4, 8):
                legacy = legacy_greedy_delta_selection(objs, g.n, k)
                assert greedy_delta_selection(arena, g.n, k) == legacy
                # Sequence input converts to an arena internally.
                assert greedy_delta_selection(objs, g.n, k) == legacy

    def test_greedy_delta_with_candidates(self, collections):
        g, objs, arena = collections[0]
        candidates = set(range(10, g.n, 3))
        legacy = legacy_greedy_delta_selection(objs, g.n, 5, candidates)
        assert greedy_delta_selection(arena, g.n, 5, candidates) == legacy

    def test_collection_stats_match(self, collections):
        for _g, objs, arena in collections:
            a = collection_stats(arena)
            b = collection_stats(objs)
            for attr in (
                "total", "activated", "hopeless", "boostable",
                "uncompressed_edges", "compressed_edges", "critical_nodes",
                "stored_bytes",
            ):
                assert getattr(a, attr) == getattr(b, attr), attr

    def test_supermodular_stall_chain(self):
        """Frontier fallback: no single node activates any root, the chain
        must be climbed through a zero-marginal first pick."""
        rng = np.random.default_rng(9)
        g_pair = forced_graph(3, [(0, 1, BOOST), (1, 2, BOOST)])
        g_single = forced_graph(3, [(0, 1, BOOST), (1, 2, LIVE)])
        objs = [
            sample_prr_batch(g_pair, frozenset({0}), 2, rng, 1, roots=[2])[0],
            sample_prr_batch(g_single, frozenset({0}), 2, rng, 1, roots=[2])[0],
        ]
        arena = PRRArena.from_graphs(3, objs)
        legacy = legacy_greedy_delta_selection(objs, 3, 2)
        assert greedy_delta_selection(arena, 3, 2) == legacy
        assert legacy == ([1, 2], pytest.approx(3.0))

    def test_pure_stall_tie_break(self):
        """Two-step chains through different relays: every marginal is zero,
        both relays tie on frontier count — smallest id must win in both
        implementations."""
        rng = np.random.default_rng(10)
        g_a = forced_graph(4, [(0, 2, BOOST), (2, 3, BOOST)])
        g_b = forced_graph(4, [(0, 1, BOOST), (1, 3, BOOST)])
        objs = [
            sample_prr_batch(g_a, frozenset({0}), 2, rng, 1, roots=[3])[0],
            sample_prr_batch(g_b, frozenset({0}), 2, rng, 1, roots=[3])[0],
        ]
        arena = PRRArena.from_graphs(4, objs)
        legacy = legacy_greedy_delta_selection(objs, 4, 3)
        vectorized = greedy_delta_selection(arena, 4, 3)
        assert vectorized == legacy
        assert 1 in legacy[0]  # the smaller-id relay is boosted first


@pytest.fixture
def greedy_calls(monkeypatch):
    """Every ``CoverageIndex.greedy`` call of a run, as ``(index, k,
    candidates, num_sets, result)``."""
    calls = []
    greedy = CoverageIndex.greedy

    def spy(self, k, candidates=None, limit=None):
        assert limit is None  # the IMM rounds pick over whole prefixes
        result = greedy(self, k, candidates)
        calls.append((self, k, candidates, self.num_sets, result))
        return result

    monkeypatch.setattr(CoverageIndex, "greedy", spy)
    return calls


def assert_picks_match_legacy(calls, index, k, candidates):
    """Each doubling-round pick, and the final one, equals the legacy heap
    greedy over the same prefix of the collection the run drew."""
    sets = list(index.sets_view())
    assert len(calls) >= 2
    for owner, k_call, candidates_call, num_sets, result in calls:
        assert (owner, k_call, candidates_call) == (index, k, candidates)
        assert result == legacy_greedy_max_coverage(sets[:num_sets], k, candidates)
    assert calls[-1][3] == len(sets)


class TestEndToEndParity:
    """The production runs select once, on the flat kernels; the legacy
    object oracles re-select on the very collection they drew."""

    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_prr_boost_legacy_equals_vectorized(self, seed, greedy_calls):
        g = random_graph(seed, n=100)
        index, arena = CoverageIndex(g.n), PRRArena(g.n)
        fast = prr_boost_core(
            g, {0, 1}, 5, np.random.default_rng(seed), max_samples=1000,
            index=index, arena=arena,
        )
        candidates = set(range(2, g.n))
        assert_picks_match_legacy(greedy_calls, index, 5, candidates)
        objs = list(arena)
        mu_set, mu_covered = greedy_calls[-1][4]
        assert fast.mu_set == sorted(mu_set)
        assert fast.mu_estimate == pytest.approx(
            g.n * mu_covered / len(objs), abs=1e-9
        )
        assert fast.mu_estimate == pytest.approx(
            legacy_estimate_mu(objs, g.n, set(mu_set)), abs=1e-9
        )
        delta_set, delta_estimate = legacy_greedy_delta_selection(
            objs, g.n, 5, candidates
        )
        assert fast.delta_set == delta_set
        assert fast.delta_estimate == pytest.approx(delta_estimate, abs=1e-9)
        mu_delta = legacy_estimate_delta(objs, g.n, set(mu_set))
        if mu_delta >= delta_estimate:
            chosen, value = sorted(mu_set), mu_delta
        else:
            chosen, value = delta_set, delta_estimate
        assert fast.boost_set == chosen
        assert fast.estimated_boost == pytest.approx(value, abs=1e-9)
        assert fast.num_samples == len(objs) == index.num_sets

    def test_prr_boost_lb_legacy_equals_vectorized(self, greedy_calls):
        g = random_graph(13, n=100)
        index = CoverageIndex(g.n)
        fast = prr_boost_lb_core(
            g, {0, 1}, 5, np.random.default_rng(13), max_samples=1000,
            index=index,
        )
        assert_picks_match_legacy(greedy_calls, index, 5, set(range(2, g.n)))
        mu_set, covered = greedy_calls[-1][4]
        assert fast.boost_set == sorted(mu_set)
        assert fast.estimated_boost == pytest.approx(
            g.n * covered / index.num_sets, abs=1e-9
        )
        assert fast.num_samples == index.num_sets

    def test_imm_legacy_equals_vectorized(self, greedy_calls):
        g = random_graph(17, n=80, p=0.15)
        fast = imm_core(g, 4, np.random.default_rng(17), max_samples=2000)
        assert_picks_match_legacy(greedy_calls, fast.samples.index, 4, None)
        assert (fast.chosen, fast.coverage) == greedy_calls[-1][4]
        assert fast.theta == len(fast.samples)

    def test_mu_estimate_single_source_of_truth(self):
        """The reported mu_estimate must equal the vectorized estimator's
        value on the reported mu_set (not a separately derived counter)."""
        g = random_graph(19, n=100)
        rng = np.random.default_rng(19)
        result = prr_boost(g, {0, 1}, 4, rng, max_samples=1500)
        sampler_free = result.mu_estimate
        # μ̂ of the μ arm recomputed from scratch over a fresh collection
        # differs (different samples) — but the identity that must hold is
        # mu_estimate == n * (covered critical sets) / num_samples, i.e.
        # the estimator identity on the same collection.  Re-run with the
        # same seed to rebuild the exact collection and check.
        arena = PRRArena(g.n)
        rng2 = np.random.default_rng(19)
        from repro.core.boost import PRRSampler
        from repro.engine.coverage import CoverageIndex
        from repro.im.imm import imm_sampling

        sampler = PRRSampler(g, {0, 1}, 4)
        index = CoverageIndex(g.n)
        ell_prime = 1.0 * (1.0 + np.log(3.0) / np.log(max(g.n, 2)))
        imm_sampling(
            sampler, 4, 0.5, ell_prime, rng2,
            candidates={v for v in range(g.n) if v not in {0, 1}},
            max_samples=1500, index=index,
        )
        assert sampler_free == pytest.approx(
            estimate_mu(sampler.arena, g.n, set(result.mu_set)), abs=1e-9
        )


class TestParallelArena:
    def test_parallel_returns_arena_views(self):
        from repro.core import parallel_prr_collection

        g = random_graph(23, n=100)
        arena = parallel_prr_collection(g, {0, 1}, 5, 200, rng=4, workers=2)
        assert isinstance(arena, PRRArena)
        assert len(arena) == 200
        again = parallel_prr_collection(g, {0, 1}, 5, 200, rng=4, workers=3)
        # Every sample is drawn from the RNG before dispatch: the collection
        # depends only on the seed, not on worker count or completion order.
        assert [p.root for p in arena] == [p.root for p in again]
        assert all(arena[i] == again[i] for i in range(200))
