"""Failure-injection and robustness tests across modules.

These exercise edge conditions a production user hits: degenerate
probabilities, isolated nodes, seeds covering the whole graph, boost sets
overlapping seeds, budgets larger than the candidate pool.
"""

import numpy as np
import pytest

from repro.core import (
    collection_stats,
    estimate_delta,
    greedy_delta_selection,
    prr_boost,
    prr_boost_lb,
    sample_prr_graph,
)
from repro.diffusion import estimate_boost, estimate_sigma, simulate_spread
from repro.graphs import DiGraph, GraphBuilder, constant_probability, path, star
from repro.trees import BidirectedTree, greedy_boost, dp_boost


@pytest.fixture
def rng():
    return np.random.default_rng(101)


class TestDegenerateProbabilities:
    def test_all_zero_probabilities(self, rng):
        g = constant_probability(path(5), 0.0, beta=1.0)
        assert estimate_sigma(g, {0}, set(), rng, runs=50) == pytest.approx(1.0)
        result = prr_boost(g, {0}, 2, rng, max_samples=300)
        # nothing is boostable: p' == p == 0 everywhere
        assert estimate_boost(g, {0}, result.boost_set, rng, runs=100) == 0.0

    def test_all_one_probabilities(self, rng):
        g = constant_probability(path(5), 1.0, beta=1.0)
        assert estimate_sigma(g, {0}, set(), rng, runs=20) == pytest.approx(5.0)
        prr = sample_prr_graph(g, frozenset({0}), 2, rng, root=4)
        assert prr.status == "activated"

    def test_boost_gap_only(self, rng):
        # p = 0, p' = 1: nothing spreads unless boosted.
        g = DiGraph(3, [0, 1], [1, 2], [0.0, 0.0], [1.0, 1.0])
        result = prr_boost(g, {0}, 2, rng, max_samples=2000)
        assert set(result.boost_set) == {1, 2}


class TestStructuralEdges:
    def test_isolated_nodes(self, rng):
        g = DiGraph(10, [0], [1], [0.5], [0.9])  # nodes 2..9 isolated
        result = prr_boost(g, {0}, 3, rng, max_samples=500)
        # only node 1 can ever be usefully boosted
        assert set(result.boost_set) <= {1} or result.boost_set == []

    def test_seeds_cover_everything(self, rng):
        g = constant_probability(path(4), 0.5)
        result = prr_boost(g, {0, 1, 2, 3}, 2, rng, max_samples=300)
        assert result.boost_set == []
        assert result.estimated_boost == 0.0

    def test_k_exceeds_candidates(self, rng):
        g = constant_probability(path(3), 0.3)
        result = prr_boost(g, {0}, 10, rng, max_samples=1000)
        assert len(result.boost_set) <= 2

    def test_star_all_leaves_boostable(self, rng):
        g = constant_probability(star(6, outward=True), 0.3, beta=3.0)
        result = prr_boost_lb(g, {0}, 5, rng, max_samples=2000)
        assert set(result.boost_set) <= set(range(1, 6))


class TestSimulationEdgeCases:
    def test_boost_of_nonexistent_node_rejected_by_model(self):
        from repro.diffusion import BoostingModel

        g = constant_probability(path(3), 0.5)
        model = BoostingModel(g, [0])
        with pytest.raises(ValueError):
            model.validate_boost_set([99])

    def test_simulate_with_all_nodes_boosted(self, rng):
        g = constant_probability(path(4), 0.5, beta=2.0)
        active = simulate_spread(g, {0}, set(range(4)), rng)
        assert 0 in active

    def test_estimator_empty_collection_zero(self):
        assert estimate_delta([], 5, {1}) == 0.0

    def test_greedy_delta_all_hopeless(self, rng):
        g = constant_probability(path(3), 0.0, beta=1.0)
        prrs = [sample_prr_graph(g, frozenset({0}), 2, rng) for _ in range(20)]
        chosen, estimate = greedy_delta_selection(prrs, 3, 2)
        assert chosen == []
        assert estimate == 0.0
        stats = collection_stats(prrs)
        assert stats.boostable == 0


class TestTreeEdgeCases:
    def test_two_node_tree(self, rng):
        b = GraphBuilder(2)
        b.add_bidirected_edge(0, 1, 0.3, 0.51)
        t = BidirectedTree(b.build(), seeds={0})
        result = greedy_boost(t, 1)
        assert result.boost_set == [1]
        assert result.boost == pytest.approx(0.21)

    def test_dp_two_node_tree(self, rng):
        b = GraphBuilder(2)
        b.add_bidirected_edge(0, 1, 0.3, 0.51)
        t = BidirectedTree(b.build(), seeds={0})
        result = dp_boost(t, 1, epsilon=0.5)
        assert result.boost_set == [1]
        assert result.boost == pytest.approx(0.21)
        assert result.dp_value <= result.boost + 1e-9

    def test_all_seeds_tree(self, rng):
        b = GraphBuilder(3)
        b.add_bidirected_edge(0, 1, 0.3, 0.51)
        b.add_bidirected_edge(1, 2, 0.3, 0.51)
        t = BidirectedTree(b.build(), seeds={0, 1, 2})
        assert greedy_boost(t, 2).boost == pytest.approx(0.0)

    def test_dp_nothing_boostable(self, rng):
        b = GraphBuilder(3)
        b.add_bidirected_edge(0, 1, 0.5, 0.5)  # p' == p
        b.add_bidirected_edge(1, 2, 0.5, 0.5)
        t = BidirectedTree(b.build(), seeds={0})
        result = dp_boost(t, 2, epsilon=0.5)
        assert result.boost == pytest.approx(0.0)


def _random_bidirected_tree(rng, n):
    """A random-topology tree: mixed fan-out (incl. >2), some one-way
    edges, random seed set — the shapes that route through every fill
    path of the vectorized DP (leaf/one/two/seed/general)."""
    b = GraphBuilder(n)
    for v in range(1, n):
        par = int(rng.integers(0, v))
        p = float(rng.uniform(0.05, 0.9))
        b.add_edge(par, v, p, min(1.0, p + float(rng.uniform(0.05, 0.4))))
        if rng.random() < 0.8:
            p2 = float(rng.uniform(0.05, 0.9))
            b.add_edge(v, par, p2, min(1.0, p2 + float(rng.uniform(0.05, 0.4))))
    seeds = {0} | {int(v) for v in range(1, n) if rng.random() < 0.2}
    return BidirectedTree(b.build(), seeds)


class TestVectorizedDPParity:
    """Property: the vectorized DP is *bit-identical* to the loop oracle.

    The vectorized fills evaluate elementwise the exact IEEE expression
    sequences of :func:`repro.trees.reference.legacy_dp_boost`, so
    equality below is exact — boost-for-boost, table-entry counts, and
    (because maxima see the same candidate sets with deterministic
    tie-breaks) the chosen boost sets themselves.
    """

    def test_random_trees_match_legacy_exactly(self):
        from repro.trees import legacy_dp_boost

        rng = np.random.default_rng(20170815)
        for trial in range(50):
            n = int(rng.integers(4, 17))
            tree = _random_bidirected_tree(rng, n)
            k = int(rng.integers(1, 4))
            for eps in (1.0, 0.5, 0.2):
                vec = dp_boost(tree, k, epsilon=eps)
                ref = legacy_dp_boost(tree, k, epsilon=eps)
                ctx = f"trial={trial} n={n} k={k} eps={eps}"
                assert vec.boost_set == ref.boost_set, ctx
                assert vec.dp_value == ref.dp_value, ctx
                assert vec.boost == ref.boost, ctx
                assert vec.delta_param == ref.delta_param, ctx
                assert vec.table_entries == ref.table_entries, ctx

    def test_method_dispatch(self):
        from repro.trees import legacy_dp_boost

        rng = np.random.default_rng(5)
        tree = _random_bidirected_tree(rng, 9)
        via_param = dp_boost(tree, 2, epsilon=0.5, method="legacy")
        direct = legacy_dp_boost(tree, 2, epsilon=0.5)
        assert via_param.boost_set == direct.boost_set
        assert via_param.dp_value == direct.dp_value
        with pytest.raises(ValueError):
            dp_boost(tree, 2, epsilon=0.5, method="nope")


# ----------------------------------------------------------------------
# Runtime supervision: worker death, retry, degradation, shm hygiene
# ----------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not __import__(
        "repro.core.parallel", fromlist=["fork_available"]
    ).fork_available(),
    reason="requires fork start method",
)


@pytest.fixture(scope="module")
def sized_graph():
    from repro.graphs import learned_like, preferential_attachment

    g_rng = np.random.default_rng(91)
    return learned_like(preferential_attachment(150, 3, g_rng), g_rng, 0.2)


def _shm_orphans():
    import glob

    from repro.core.parallel import _SHM_PREFIX

    return glob.glob(f"/dev/shm/{_SHM_PREFIX}*")


@needs_fork
class TestWorkerSupervision:
    SEEDS = frozenset({0, 1})
    COUNT = 1024  # 4 chunks of 256: enough to kill mid-run and recover

    def _reference(self, graph):
        from repro.core.parallel import parallel_prr_collection

        return parallel_prr_collection(
            graph, self.SEEDS, 5, self.COUNT, rng=42, workers=1
        )

    def test_killed_worker_recovers_bit_identical(self, sized_graph):
        from repro.core.parallel import (
            parallel_prr_collection,
            runtime_health,
            shutdown_runtime,
        )
        from repro.testing import faults

        reference = self._reference(sized_graph)
        try:
            for workers in (2, 3):
                shutdown_runtime()
                with faults.inject(kill_worker="any", kill_on_chunk=1):
                    recovered = parallel_prr_collection(
                        sized_graph, self.SEEDS, 5, self.COUNT,
                        rng=42, workers=workers,
                    )
                    health = runtime_health(sized_graph)
                assert health is not None
                assert health.restarts >= 1
                assert not health.degraded
                assert [p.root for p in recovered] == [
                    p.root for p in reference
                ]
        finally:
            shutdown_runtime()
        assert _shm_orphans() == []

    def test_dropped_result_reenqueued(self, sized_graph):
        from repro.core.parallel import (
            SharedGraphRuntime, _chunk_jobs, _draw, _run_task,
        )
        from repro.testing import faults

        jobs = _chunk_jobs(*_draw("prr", sized_graph.n, 42, self.COUNT))
        params = (self.SEEDS, 5)
        reference = [
            _run_task(sized_graph, "prr", roots, world_seeds, params)
            for _cid, roots, world_seeds in jobs
        ]
        with faults.inject(drop_worker=0, drop_on_chunk=1):
            runtime = SharedGraphRuntime(sized_graph, 2, task_timeout=0.25)
            try:
                out = runtime.run("prr", jobs, params)
                health = runtime.health()
            finally:
                runtime.shutdown()
        assert health.retries >= 1
        for got, want in zip(out, reference):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert _shm_orphans() == []

    def test_degrades_to_serial_when_respawns_keep_dying(self, sized_graph):
        from repro.core.parallel import (
            SharedGraphRuntime, _chunk_jobs, _draw, _run_task,
        )
        from repro.testing import faults

        jobs = _chunk_jobs(*_draw("prr", sized_graph.n, 42, self.COUNT))
        params = (self.SEEDS, 5)
        reference = [
            _run_task(sized_graph, "prr", roots, world_seeds, params)
            for _cid, roots, world_seeds in jobs
        ]
        with faults.inject(
            kill_worker="any", kill_on_chunk=1, kill_all_generations=True
        ):
            runtime = SharedGraphRuntime(
                sized_graph, 2, max_consecutive_deaths=3
            )
            try:
                out = runtime.run("prr", jobs, params)
                health = runtime.health()
            finally:
                runtime.shutdown()
        assert health.degraded
        assert health.restarts >= 1
        for got, want in zip(out, reference):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert _shm_orphans() == []

    def test_degraded_runtime_bypassed_by_entry_points(self, sized_graph):
        from repro.core.parallel import (
            get_runtime,
            parallel_prr_collection,
            shutdown_runtime,
        )
        from repro.testing import faults

        reference = self._reference(sized_graph)
        try:
            with faults.inject(
                kill_worker="any", kill_on_chunk=1, kill_all_generations=True
            ):
                runtime = get_runtime(sized_graph, 2)
                runtime.max_consecutive_deaths = 2
                first = parallel_prr_collection(
                    sized_graph, self.SEEDS, 5, self.COUNT,
                    rng=42, workers=2,
                )
                assert runtime.degraded
            # Faults lifted, but the pool is gone: later calls route
            # serially through _run_chunks instead of touching it.
            again = parallel_prr_collection(
                sized_graph, self.SEEDS, 5, self.COUNT,
                rng=42, workers=2,
            )
        finally:
            shutdown_runtime()
        assert [p.root for p in first] == [p.root for p in reference]
        assert [p.root for p in again] == [p.root for p in reference]

    def test_retries_exhausted_is_unrecoverable(self, sized_graph):
        from repro.core.parallel import SharedGraphRuntime, _chunk_jobs, _draw
        from repro.testing import faults

        jobs = _chunk_jobs(*_draw("prr", sized_graph.n, 42, 512))
        with faults.inject(
            kill_worker="any", kill_on_chunk=1, kill_all_generations=True
        ):
            # Degradation disabled (huge threshold) and only one retry:
            # the re-killed chunk must exhaust and fail loudly.
            runtime = SharedGraphRuntime(
                sized_graph, 2,
                max_task_retries=1, max_consecutive_deaths=10_000,
            )
            with pytest.raises(RuntimeError, match="retries exhausted"):
                runtime.run("prr", jobs, (self.SEEDS, 5))
        assert _shm_orphans() == []


@needs_fork
class TestShutdownHardening:
    def test_shutdown_idempotent_with_half_dead_pool(self, sized_graph):
        import os
        import signal
        import time

        from repro.core.parallel import SharedGraphRuntime

        runtime = SharedGraphRuntime(sized_graph, 2)
        victim = runtime._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(5)
        start = time.monotonic()
        runtime.shutdown(timeout=10.0)
        runtime.shutdown(timeout=10.0)  # second call must be a no-op
        assert time.monotonic() - start < 20.0
        assert runtime._closed
        assert _shm_orphans() == []

    def test_reaper_unlinks_orphans(self, sized_graph):
        from multiprocessing import shared_memory

        from repro.core.parallel import _SHM_PREFIX, reap_shm_segments

        orphan = shared_memory.SharedMemory(
            name=f"{_SHM_PREFIX}-deadbeef", create=True, size=64
        )
        orphan.close()  # simulated abnormal exit: never unlinked
        reaped = reap_shm_segments()
        assert f"{_SHM_PREFIX}-deadbeef" in reaped
        assert _shm_orphans() == []

    def test_shm_segments_namespaced_by_pid(self):
        import os

        from repro.core.parallel import _SHM_PREFIX

        assert f"{os.getpid():x}" in _SHM_PREFIX
        assert _SHM_PREFIX.startswith("repro-")
