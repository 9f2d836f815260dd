"""Lane-kernel and shared-memory-runtime suite.

Pins the contracts of the multi-source lane engine
(:mod:`repro.engine.lanes`) and the parallel runtime
(:mod:`repro.core.parallel`):

* **exact** — world-seeded PRR lanes are bit-for-bit the single-sample
  world-seeded path (same compressed graphs, critical sets, counters);
  the RR dense-fallback loop evaluates the identical pure function as
  the lane kernel; forced-state graphs make critical lanes exact too,
* **distributional** — RNG-driven lanes draw fresh hashed worlds, so RR
  set sizes, membership frequencies, and critical-set status rates are
  compared to the single-sample oracles with a two-sample KS test /
  chi-square,
* **runtime** — collections are a pure function of the RNG and
  ``count`` across worker counts including the in-process path, and the
  engine cache is thread-safe,
* **scratch** — every lane kernel leaves the engine's scratch arena all
  zero, also when a batch raises midway (in phase I or in compression).
"""

import threading

import numpy as np
import pytest

from repro.core import (
    parallel_critical_sets,
    parallel_prr_collection,
    parallel_rr_csr,
    prr_boost,
    sample_prr_graph,
    sample_prr_lanes,
    shutdown_runtime,
)
from repro.core import prr as prr_module
from repro.core.parallel import fork_available, get_runtime
from repro.core.prr import PRRArena
from repro.engine import LANE_WIDTH, SamplingEngine
from repro.engine import lanes as lanes_module
from repro.engine.coverage import CoverageIndex
from repro.engine.hashing import hash_draw, hash_draw_pairs
from repro.engine.world import BLOCKED, BOOST, LIVE, EdgeStateArray, lane_states, lane_uniforms
from repro.engine.reference import reference_sample_critical_set
from repro.graphs import GraphBuilder, learned_like, preferential_attachment
from repro.im import RRSampler


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(3)
    return learned_like(preferential_attachment(300, 3, rng), rng, 0.25)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (no scipy dependency)."""
    grid = np.union1d(a, b)
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical(na: int, nb: int, alpha_coeff: float = 1.949) -> float:
    """Asymptotic two-sample KS critical value (alpha ~ 0.001)."""
    return alpha_coeff * np.sqrt((na + nb) / (na * nb))


class TestHashPairs:
    def test_pairs_match_scalar(self):
        rng = np.random.default_rng(0)
        seeds = rng.integers(0, 2**62, size=200).astype(np.uint64)
        u = rng.integers(0, 10_000, size=200)
        v = rng.integers(0, 10_000, size=200)
        vec = hash_draw_pairs(seeds, u, v)
        scalar = np.array(
            [hash_draw(int(s), int(a), int(b)) for s, a, b in zip(seeds, u, v)]
        )
        assert np.array_equal(vec, scalar)

    def test_lane_uniforms_is_per_lane_hash_draw(self):
        """The world-layer lane API is the spec the kernels implement:
        lane l's draw for edge (u, v) is hash_draw(lane_seeds[l], u, v)."""
        rng = np.random.default_rng(1)
        lane_seeds = rng.integers(0, 2**62, size=8).astype(np.uint64)
        lanes = rng.integers(0, 8, size=300)
        u = rng.integers(0, 5_000, size=300)
        v = rng.integers(0, 5_000, size=300)
        draws = lane_uniforms(lane_seeds, lanes, u, v)
        expected = np.array(
            [
                hash_draw(int(lane_seeds[l]), int(a), int(b))
                for l, a, b in zip(lanes, u, v)
            ]
        )
        assert np.array_equal(draws, expected)

    def test_lane_states_matches_edge_state_array(self):
        """Per-lane states use the exact thresholds of EdgeStateArray for
        the same world seed — the bit-parity anchor of lane PRR."""
        rng = np.random.default_rng(2)
        m = 400
        src = rng.integers(0, 1_000, size=m)
        dst = rng.integers(0, 1_000, size=m)
        p = rng.random(m) * 0.6
        pp = p + rng.random(m) * (1.0 - p)
        esa = EdgeStateArray(src, dst, p, pp)
        for seed in (5, 99):
            esa.new_world(world_seed=seed)
            expected = esa.states(np.arange(m))
            lanes = np.zeros(m, dtype=np.int64)
            got = lane_states(
                np.array([seed], dtype=np.uint64), lanes, src, dst, p, pp
            )
            assert np.array_equal(got, expected)
            assert set(np.unique(got)) <= {LIVE, BOOST, BLOCKED}


class TestWorldSeededPRRLaneParity:
    """The headline exactness contract: lane PRR sampling with explicit
    world seeds reproduces the single-sample world-seeded path
    bit-for-bit, straight through phase-II compression."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_lane_arena_equals_singles(self, graph, k):
        seeds = frozenset({0, 1, 2})
        count = 90
        roots = (np.arange(count) % (graph.n - 3)) + 3
        world_seeds = np.arange(1000, 1000 + count)
        arena = sample_prr_lanes(
            graph, seeds, k, None, count, roots=roots, world_seeds=world_seeds
        )
        assert len(arena) == count
        rng = np.random.default_rng(0)  # unused by the world-seeded path
        for i in range(count):
            single = sample_prr_graph(
                graph, seeds, k, rng,
                root=int(roots[i]), world_seed=int(world_seeds[i]),
            )
            assert arena[i] == single

    def test_lane_phase1_counters_match(self, graph):
        engine = SamplingEngine.for_graph(graph)
        seeds = frozenset({0, 1, 2})
        mask = engine.seeds_mask(seeds)
        roots = np.arange(3, 3 + LANE_WIDTH, dtype=np.int64)
        ws = np.arange(77, 77 + LANE_WIDTH, dtype=np.int64)
        ph = engine.prr_phase1_lanes(mask, roots, 2, ws)
        for i in range(LANE_WIDTH):
            single = engine.prr_phase1(mask, int(roots[i]), 2, world_seed=int(ws[i]))
            assert bool(ph.activated[i]) == single.activated
            if single.activated:
                continue
            lo, hi = ph.edge_indptr[i], ph.edge_indptr[i + 1]
            lane_edges = set(
                zip(
                    ph.edge_src[lo:hi].tolist(),
                    ph.edge_dst[lo:hi].tolist(),
                    ph.edge_boost[lo:hi].tolist(),
                )
            )
            single_edges = set(
                zip(
                    single.edge_src.tolist(),
                    single.edge_dst.tolist(),
                    single.edge_boost.tolist(),
                )
            )
            assert lane_edges == single_edges
            slo, shi = ph.seed_indptr[i], ph.seed_indptr[i + 1]
            assert ph.seed_nodes[slo:shi].tolist() == sorted(
                single.seeds_found.tolist()
            )
            assert int(ph.node_count[i]) == single.node_count
            assert int(ph.explored[i]) == single.explored_edges

    def test_seed_roots_come_back_activated(self, graph):
        seeds = frozenset({0, 1, 2})
        arena = sample_prr_lanes(
            graph, seeds, 2, None, 3,
            roots=np.array([0, 1, 2]), world_seeds=np.array([5, 6, 7]),
        )
        assert all(arena[i].status == "activated" for i in range(3))


class TestRRLanes:
    def test_size_distribution_matches_oracle(self, graph):
        """Two-sample KS over RR-set sizes: lane batches vs the strict
        single-sample oracle, alpha ~ 0.001."""
        samples = 3000
        engine = SamplingEngine.for_graph(graph)
        lane = engine.sample_rr_batch(np.random.default_rng(11), samples)
        oracle = engine.sample_rr_batch(
            np.random.default_rng(12), samples, strict=True
        )
        a = np.array([len(s) for s in lane], dtype=float)
        b = np.array([len(s) for s in oracle], dtype=float)
        assert ks_statistic(a, b) < ks_critical(samples, samples)

    def test_membership_frequencies_match_oracle(self, graph):
        """n * P[v in R] is the influence of v — lane sampling must
        preserve it node-for-node."""
        samples = 3000
        engine = SamplingEngine.for_graph(graph)
        lane = engine.rr_lane_csr(np.random.default_rng(21), samples)
        freq_lane = np.bincount(lane[1], minlength=graph.n) / samples
        oracle_sets = engine.sample_rr_batch(
            np.random.default_rng(22), samples, strict=True
        )
        freq_oracle = np.zeros(graph.n)
        for s in oracle_sets:
            freq_oracle[list(s)] += 1.0 / samples
        assert np.abs(freq_lane - freq_oracle).max() < 0.05

    def test_batch_and_into_share_one_stream(self, graph):
        """sample_batch and sample_into must expose identical samples for
        identical RNG states — the invariant the legacy/vectorized
        selection parity rests on."""
        sampler = RRSampler(graph)
        sets = sampler.sample_batch(np.random.default_rng(31), 150)
        index = CoverageIndex(graph.n)
        sampler.sample_into(np.random.default_rng(31), 150, index)
        assert list(index.sets_view()) == sets

    def test_dense_fallback_is_same_pure_function(self, graph):
        """Forcing the dense evaluator must not change a single sample:
        both paths evaluate the RR-set of (root_i, seed_i)."""
        fast = SamplingEngine(graph)
        dense = SamplingEngine(graph)
        dense._rr_dense = True
        c1, v1 = fast.rr_lane_csr(np.random.default_rng(41), 300)
        c2, v2 = dense.rr_lane_csr(np.random.default_rng(41), 300)
        assert np.array_equal(c1, c2)
        assert np.array_equal(v1, v2)


class TestCriticalLanes:
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

    def test_forced_states_exact(self):
        """With degenerate probabilities every lane world collapses to the
        same deterministic world, so lanes must equal the reference
        sampler root-for-root."""
        g = self.figure2_graph()
        engine = SamplingEngine.for_graph(g)
        seeds = frozenset({7})
        roots = np.arange(g.n, dtype=np.int64)
        status, counts, values, _explored = engine.critical_lane_csr(
            seeds, np.random.default_rng(0), g.n, roots=roots
        )
        offsets = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        names = ("activated", "hopeless", "boostable")
        for r in range(g.n):
            ref_status, ref_crit, _ = reference_sample_critical_set(
                g, seeds, np.random.default_rng(1), root=r
            )
            assert names[status[r]] == ref_status
            assert frozenset(values[offsets[r] : offsets[r + 1]].tolist()) == ref_crit

    def test_status_rates_match_oracle(self, graph):
        """Chi-square over (activated, hopeless, boostable) counts: lane
        sampling vs the single-sample oracle."""
        samples = 1500
        engine = SamplingEngine.for_graph(graph)
        seeds = frozenset({0, 1, 2})
        status, _c, _v, explored = engine.critical_lane_csr(
            seeds, np.random.default_rng(5), samples
        )
        lane_counts = np.bincount(status, minlength=3).astype(float)
        oracle_counts = np.zeros(3)
        names = {"activated": 0, "hopeless": 1, "boostable": 2}
        rng = np.random.default_rng(6)
        for _ in range(samples):
            s, _crit, _e = engine.critical_set(seeds, rng)
            oracle_counts[names[s]] += 1
        # two-sample chi-square, df=2; 13.8 ~ alpha 0.001
        expected = (lane_counts + oracle_counts) / 2
        chi2 = float(
            (((lane_counts - expected) ** 2 + (oracle_counts - expected) ** 2)
             / np.maximum(expected, 1e-9)).sum()
        )
        assert chi2 < 13.8
        assert explored.sum() > 0

    def test_batch_api_shape(self, graph):
        batch = SamplingEngine.for_graph(graph).sample_critical_batch(
            frozenset({0, 1}), np.random.default_rng(9), 40
        )
        assert len(batch) == 40
        for status_name, crit, explored in batch:
            assert status_name in ("activated", "hopeless", "boostable")
            assert isinstance(crit, frozenset)
            assert explored >= 0


class TestScratchRestoredOnFailure:
    """Every lane kernel leaves the engine's scratch arena all zero, also
    when its batch raises midway: the engine is cached on the graph and
    every kernel's planes view the same bytes, so a leaked mark would
    silently corrupt every later sample drawn on it, of any kernel."""

    SEEDS = frozenset({0, 1, 2})

    @pytest.fixture
    def fresh_graph(self):
        rng = np.random.default_rng(5)
        return learned_like(preferential_attachment(150, 3, rng), rng, 0.3)

    @staticmethod
    def raise_on_call(monkeypatch, module, nth):
        """Make ``module.frontier_edge_positions`` raise on its ``nth``
        call; returns the call counter."""
        real = module.frontier_edge_positions
        calls = [0]

        def flaky(indptr, frontier):
            calls[0] += 1
            if calls[0] == nth:
                raise MemoryError("injected")
            return real(indptr, frontier)

        monkeypatch.setattr(module, "frontier_edge_positions", flaky)
        return calls

    def call_numbers(self, monkeypatch, module, draw, graph):
        """The 1st, 2nd, middle and last call of a clean ``draw``."""
        with monkeypatch.context() as patch:
            calls = self.raise_on_call(patch, module, 0)
            draw(graph)
        total = calls[0]
        assert total >= 2
        return sorted({1, 2, (total + 1) // 2, total})

    @staticmethod
    def assert_clean(engine):
        assert engine._arena is not None
        assert not engine._arena.any()

    @staticmethod
    def prr_draw(graph):
        return sample_prr_lanes(
            graph, TestScratchRestoredOnFailure.SEEDS, 3, np.random.default_rng(8), 300
        ).payload()

    @staticmethod
    def critical_draw(graph):
        engine = SamplingEngine.for_graph(graph)
        return engine.critical_lane_csr(
            TestScratchRestoredOnFailure.SEEDS, np.random.default_rng(8), 300
        )

    @staticmethod
    def rr_draw(graph):
        engine = SamplingEngine.for_graph(graph)
        engine._rr_dense = False  # lane batches from the first, no probe
        return engine.rr_lane_csr(np.random.default_rng(8), 300)

    @staticmethod
    def cascade_draw(graph, model):
        engine = SamplingEngine.for_graph(graph)
        return engine.cascade_lane_csr(
            TestScratchRestoredOnFailure.SEEDS, {3, 4, 5},
            np.random.default_rng(8), 300, model=model,
        )

    @staticmethod
    def ic_draw(graph):
        return TestScratchRestoredOnFailure.cascade_draw(graph, "ic")

    @staticmethod
    def lt_draw(graph):
        return TestScratchRestoredOnFailure.cascade_draw(graph, "lt")

    DRAWS = ["prr_draw", "critical_draw", "rr_draw", "ic_draw", "lt_draw"]

    @pytest.mark.parametrize("draw_name", DRAWS)
    def test_clean_after_every_kernel(self, fresh_graph, draw_name):
        """Each kernel's draw, run after all the others on one engine."""
        engine = SamplingEngine.for_graph(fresh_graph)
        for name in self.DRAWS[self.DRAWS.index(draw_name) + 1 :] + [draw_name]:
            getattr(self, name)(fresh_graph)
            self.assert_clean(engine)

    def assert_next_draw_is_fresh(self, graph, draw):
        cached = draw(graph)
        graph._engine_cache = None  # the next for_graph builds a fresh engine
        fresh = draw(graph)
        assert len(cached) == len(fresh)
        for a, b in zip(cached, fresh):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("draw_name", DRAWS)
    def test_phase1_failure(self, monkeypatch, fresh_graph, draw_name):
        draw = getattr(self, draw_name)
        for nth in self.call_numbers(monkeypatch, lanes_module, draw, fresh_graph):
            engine = SamplingEngine.for_graph(fresh_graph)
            with monkeypatch.context() as patch:
                self.raise_on_call(patch, lanes_module, nth)
                with pytest.raises(MemoryError):
                    draw(fresh_graph)
            self.assert_clean(engine)
            self.assert_next_draw_is_fresh(fresh_graph, draw)

    def test_compression_failure(self, monkeypatch, fresh_graph):
        for nth in self.call_numbers(monkeypatch, prr_module, self.prr_draw, fresh_graph):
            engine = SamplingEngine.for_graph(fresh_graph)
            with monkeypatch.context() as patch:
                self.raise_on_call(patch, prr_module, nth)
                with pytest.raises(MemoryError):
                    self.prr_draw(fresh_graph)
            self.assert_clean(engine)
            self.assert_next_draw_is_fresh(fresh_graph, self.prr_draw)


class TestLaneBudget:
    """One byte budget sizes every kernel's lane batches, and one arena
    per engine backs all their planes."""

    @pytest.mark.parametrize("kernel", sorted(lanes_module.ENTRY_BYTES))
    @pytest.mark.parametrize("transient", [0, 64 * 5000])
    def test_batches_fit_the_budget_at_a_million_nodes(self, kernel, transient):
        """At least one lane, and planes plus transients within
        LANE_BYTES unless one lane alone needs more (LT's nine bytes per
        node at n = 10^6)."""
        n = 10**6
        transient = transient if kernel == "prr" else 0
        lanes = lanes_module.batch_lanes(n, kernel, transient)
        per_lane = n * lanes_module.ENTRY_BYTES[kernel] + transient
        assert lanes >= 1
        assert lanes * per_lane <= max(lanes_module.LANE_BYTES, per_lane)
        assert (lanes + 1) * per_lane > lanes_module.LANE_BYTES

    def test_default_widths(self):
        widths = {
            n: [lanes_module.batch_lanes(n, kernel) for kernel in ("rr", "critical", "lt")]
            for n in (10_000, 20_000, 10**6)
        }
        assert widths == {10_000: [838, 419, 93], 20_000: [419, 209, 46], 10**6: [8, 4, 1]}

    @staticmethod
    def mixed_draws(graph):
        """RR, critical, PRR, IC and LT draws on one engine, with the
        arena's size after each."""
        engine = SamplingEngine.for_graph(graph)
        seeds = frozenset({0, 1, 2})
        rng = np.random.default_rng
        steps = [
            lambda: engine.rr_lane_csr(rng(1), 400),
            lambda: engine.critical_lane_csr(seeds, rng(2), 300),
            lambda: sample_prr_lanes(graph, seeds, 3, rng(3), 300).payload()[1:],
            lambda: engine.cascade_lane_csr(seeds, {5, 6}, rng(4), 200, model="ic"),
            lambda: engine.cascade_lane_csr(seeds, {5, 6}, rng(5), 200, model="lt"),
            lambda: engine.rr_lane_csr(rng(6), 400),
        ]
        outputs, sizes = [], []
        for step in steps:
            outputs.append(step())
            sizes.append(engine._arena.size)
            assert not engine._arena.any()
        return outputs, sizes

    def test_mixed_draws_stay_within_a_small_budget(self, monkeypatch):
        rng = np.random.default_rng(5)
        graph = learned_like(preferential_attachment(150, 3, rng), rng, 0.3)
        expected, _sizes = self.mixed_draws(graph)
        graph._engine_cache = None
        budget = 5 * 9 * graph.n  # five LT lanes, 45 RR lanes
        monkeypatch.setattr(lanes_module, "LANE_BYTES", budget)
        outputs, sizes = self.mixed_draws(graph)
        assert max(sizes) <= budget
        for got, want in zip(outputs, expected):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


class TestEngineCacheThreadSafety:
    def test_for_graph_is_stable_per_thread_under_contention(self):
        # The serving-tier contract: the engine's stamp buffers are
        # shared mutable scratch, so for_graph keys its cache per thread
        # — each worker thread gets its own engine (stable across calls
        # in that thread, for the right graph), the main thread keeps
        # the process-wide slot-cached instance.
        rng = np.random.default_rng(1)
        g = learned_like(preferential_attachment(200, 3, rng), rng, 0.2)
        results = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            first = SamplingEngine.for_graph(g)
            second = SamplingEngine.for_graph(g)
            with lock:
                results.append((first, second))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        for first, second in results:
            assert first is second  # stable within one thread
            assert first.graph is g
        main_engine = SamplingEngine.for_graph(g)
        assert main_engine is SamplingEngine.for_graph(g)
        assert main_engine is getattr(g, "_engine_cache")
        # Worker-thread engines are private: never the slot-cached one.
        assert all(first is not main_engine for first, _ in results)


@pytest.mark.skipif(not fork_available(), reason="requires fork start method")
class TestSharedMemoryRuntime:
    @pytest.fixture(scope="class")
    def big_graph(self):
        rng = np.random.default_rng(91)
        return learned_like(preferential_attachment(800, 3, rng), rng, 0.15)

    def test_prr_collection_worker_count_invariant(self, big_graph):
        a = parallel_prr_collection(big_graph, {0, 1}, 4, 700, rng=4, workers=1)
        b = parallel_prr_collection(big_graph, {0, 1}, 4, 700, rng=4, workers=3)
        assert isinstance(a, PRRArena) and len(a) == len(b) == 700
        assert np.array_equal(a.roots, b.roots)
        assert all(a[i] == b[i] for i in range(0, 700, 23))

    def test_critical_sets_worker_count_invariant(self, big_graph):
        a = parallel_critical_sets(big_graph, {0, 1}, 600, rng=2, workers=1)
        b = parallel_critical_sets(big_graph, {0, 1}, 600, rng=2, workers=3)
        assert a == b

    def test_rr_csr_worker_count_invariant(self, big_graph):
        c1, v1 = parallel_rr_csr(big_graph, 600, rng=3, workers=1)
        c3, v3 = parallel_rr_csr(big_graph, 600, rng=3, workers=3)
        assert np.array_equal(c1, c3)
        assert np.array_equal(v1, v3)

    @pytest.mark.parametrize("kind", ["rr", "critical", "prr"])
    def test_dispatched_draw_equals_in_process_kernel(self, big_graph, kind):
        """A pool-dispatched draw takes the RNG exactly like the engine's
        RNG-taking entry point, so chunking never changes a sample."""
        from repro.core.parallel import parallel_critical_csr

        engine = SamplingEngine.for_graph(big_graph)
        seeds = frozenset({0, 1})
        rng = lambda: np.random.default_rng(5)  # noqa: E731
        if kind == "rr":
            got = parallel_rr_csr(big_graph, 700, rng(), workers=3)
            want = engine.rr_lane_csr(rng(), 700)
        elif kind == "critical":
            got = parallel_critical_csr(big_graph, seeds, 700, rng(), workers=3)
            want = engine.critical_lane_csr(seeds, rng(), 700)
        else:
            got = parallel_prr_collection(
                big_graph, seeds, 4, 700, rng(), workers=3
            ).payload()[1:]
            want = sample_prr_lanes(big_graph, seeds, 4, rng(), 700).payload()[1:]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_runtime_pool_persists_across_calls(self, big_graph):
        rt1 = get_runtime(big_graph, 2)
        rt2 = get_runtime(big_graph, 2)
        assert rt1 is rt2
        assert all(host.proc.is_alive() for host in rt1._hosts)

    def test_prr_boost_with_workers_reproducible(self, big_graph):
        a = prr_boost(
            big_graph, {0, 1}, 3, np.random.default_rng(7),
            max_samples=1500, workers=2,
        )
        b = prr_boost(
            big_graph, {0, 1}, 3, np.random.default_rng(7),
            max_samples=1500, workers=2,
        )
        assert a.boost_set == b.boost_set
        assert a.num_samples == b.num_samples

    def test_shutdown_idempotent(self):
        shutdown_runtime()
        shutdown_runtime()
