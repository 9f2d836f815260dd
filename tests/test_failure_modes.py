"""Failure-injection and robustness tests across modules.

These exercise edge conditions a production user hits: degenerate
probabilities, isolated nodes, seeds covering the whole graph, boost sets
overlapping seeds, budgets larger than the candidate pool.
"""

import glob
import multiprocessing as mp
import os
import select
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

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
# Runtime supervision: host death, retry, degradation, process hygiene
# ----------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not __import__(
        "repro.core.parallel", fromlist=["fork_available"]
    ).fork_available(),
    reason="requires fork start method",
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def sized_graph():
    from repro.graphs import learned_like, preferential_attachment

    g_rng = np.random.default_rng(91)
    return learned_like(preferential_attachment(150, 3, g_rng), g_rng, 0.2)


def _pool(graph, workers):
    from repro.dist import DistributedRuntime

    return DistributedRuntime.local(graph, workers)


@contextmanager
def _no_host_left():
    """Every host process forked inside the block has exited by its end."""
    before = {proc.pid for proc in mp.active_children()}
    yield
    left = [proc for proc in mp.active_children() if proc.pid not in before]
    assert left == [], f"hosts alive after shutdown: {left}"


def _assert_same_payload(got, want):
    got, want = got.payload(), want.payload()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _run_script(script, *args, **popen_kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)],
                            env=env, text=True, **popen_kw)


def _pid_alive(pid):
    """Whether ``pid`` still runs (a zombie awaiting its reaper has
    exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


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
        with _no_host_left():
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
                    _assert_same_payload(recovered, reference)
            finally:
                shutdown_runtime()

    def test_dropped_result_reenqueued(self, sized_graph, monkeypatch):
        from repro.core import parallel
        from repro.core.parallel import _chunk_jobs, _draw, _run_task
        from repro.testing import faults

        jobs = _chunk_jobs(*_draw("prr", sized_graph.n, 42, self.COUNT))
        params = (tuple(self.SEEDS), 5)  # as the entry points pass them
        reference = [
            _run_task(sized_graph, "prr", roots, world_seeds, params)
            for _cid, roots, world_seeds in jobs
        ]
        monkeypatch.setattr(parallel, "TASK_TIMEOUT", 0.25)
        with _no_host_left():
            with faults.inject(drop_worker=0, drop_on_chunk=1):
                runtime = _pool(sized_graph, 2)
                try:
                    out = runtime.run("prr", jobs, params)
                    health = runtime.health()
                finally:
                    runtime.shutdown()
        assert health.retries >= 1
        for got, want in zip(out, reference):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_degrades_to_serial_when_respawns_keep_dying(self, sized_graph):
        from repro.core.parallel import _chunk_jobs, _draw, _run_task
        from repro.testing import faults

        jobs = _chunk_jobs(*_draw("prr", sized_graph.n, 42, self.COUNT))
        params = (tuple(self.SEEDS), 5)  # as the entry points pass them
        reference = [
            _run_task(sized_graph, "prr", roots, world_seeds, params)
            for _cid, roots, world_seeds in jobs
        ]
        with _no_host_left():
            with faults.inject(
                kill_worker="any", kill_on_chunk=1, kill_all_generations=True
            ):
                runtime = _pool(sized_graph, 2)
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

    def test_degraded_runtime_bypassed_by_entry_points(
        self, sized_graph, monkeypatch
    ):
        from repro.core import parallel
        from repro.core.parallel import (
            get_runtime,
            parallel_prr_collection,
            shutdown_runtime,
        )
        from repro.testing import faults

        reference = self._reference(sized_graph)
        with _no_host_left():
            try:
                with faults.inject(
                    kill_worker="any", kill_on_chunk=1,
                    kill_all_generations=True,
                ):
                    monkeypatch.setattr(parallel, "MAX_CONSECUTIVE_DEATHS", 2)
                    runtime = get_runtime(sized_graph, 2)
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
        _assert_same_payload(first, reference)
        _assert_same_payload(again, reference)

    def test_retries_exhausted_is_unrecoverable(self, sized_graph,
                                                monkeypatch):
        from repro.core import parallel
        from repro.core.parallel import _chunk_jobs, _draw
        from repro.testing import faults

        jobs = _chunk_jobs(*_draw("prr", sized_graph.n, 42, 512))
        # Degradation disabled (huge threshold) and only one retry: the
        # re-killed chunk must exhaust and fail its run loudly.
        monkeypatch.setattr(parallel, "MAX_TASK_RETRIES", 1)
        monkeypatch.setattr(parallel, "MAX_CONSECUTIVE_DEATHS", 10_000)
        with _no_host_left():
            with faults.inject(
                kill_worker="any", kill_on_chunk=1, kill_all_generations=True
            ):
                runtime = _pool(sized_graph, 2)
                try:
                    with pytest.raises(RuntimeError,
                                       match="retries exhausted"):
                        runtime.run("prr", jobs, (tuple(self.SEEDS), 5))
                    assert runtime.active  # only the run failed
                finally:
                    runtime.shutdown()

    def test_failing_chunk_fails_only_its_own_run(self, sized_graph,
                                                  monkeypatch):
        import threading
        import time

        from repro.core import parallel

        reference = parallel.parallel_rr_csr(sized_graph, 4096, 3, workers=1)
        real_run_task = parallel._run_task

        def run_task(graph, kind, roots, world_seeds, params):
            if kind == "critical":
                raise ValueError("poison chunk")
            time.sleep(0.02)  # keep the RR run in flight meanwhile
            return real_run_task(graph, kind, roots, world_seeds, params)

        # Patched before the pool forks, so the hosts inherit it.
        monkeypatch.setattr(parallel, "_run_task", run_task)
        parallel.shutdown_runtime()
        with _no_host_left():
            try:
                runtime = parallel.get_runtime(sized_graph, 2)
                outcome = {}

                def rr_draw():
                    try:
                        outcome["rr"] = parallel.parallel_rr_csr(
                            sized_graph, 4096, 3, workers=2
                        )
                    except Exception as exc:  # surfaced by the asserts below
                        outcome["rr"] = exc

                lane = threading.Thread(target=rr_draw)
                lane.start()
                time.sleep(0.05)  # the RR chunks are queued first
                with pytest.raises(RuntimeError, match="poison chunk"):
                    parallel.parallel_critical_csr(
                        sized_graph, self.SEEDS, 1024, 4, workers=2
                    )
                lane.join(timeout=30)
                assert not lane.is_alive()
                assert not isinstance(outcome["rr"], Exception), outcome["rr"]
                for got, want in zip(outcome["rr"], reference):
                    assert np.array_equal(got, want)
                assert runtime.active and not runtime._closed
                again = parallel.parallel_rr_csr(sized_graph, 1024, 5,
                                                 workers=2)
                assert parallel.get_runtime(sized_graph, 2) is runtime
                assert len(again[0]) == 1024
            finally:
                parallel.shutdown_runtime()

    def test_killed_host_respawns_while_the_others_serve(self, sized_graph):
        from repro.core.parallel import _chunk_jobs, _draw, _run_task

        jobs = _chunk_jobs(*_draw("rr", sized_graph.n, 8, 2048))
        reference = [_run_task(sized_graph, "rr", roots, seeds, ())
                     for _cid, roots, seeds in jobs]
        with _no_host_left():
            runtime = _pool(sized_graph, 3)
            try:
                victim, *others = [host.proc for host in runtime._hosts]
                os.kill(victim.pid, signal.SIGKILL)
                deadline = time.monotonic() + 2.0
                while (runtime.health().restarts < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                health = runtime.health()
                assert health.restarts == 1
                assert health.workers_alive == 3 and not health.degraded
                assert [host.proc for host in runtime._hosts[1:]] == others
                assert all(proc.is_alive() for proc in others)
                out = runtime.run("rr", jobs, ())
            finally:
                runtime.shutdown()
        for got, want in zip(out, reference):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_host_killed_after_a_write_keeps_the_forked_version(self):
        from repro.core import PRRArena
        from repro.core.parallel import _chunk_jobs, _draw
        from repro.graphs import learned_like, preferential_attachment
        from repro.testing import faults

        g_rng = np.random.default_rng(91)
        graph = learned_like(preferential_attachment(150, 3, g_rng), g_rng,
                             0.2)
        reference = self._reference(graph)
        jobs = _chunk_jobs(*_draw("prr", graph.n, 42, self.COUNT))
        with _no_host_left():
            with faults.inject(kill_worker=0, kill_on_chunk=1):
                runtime = _pool(graph, 2)
            try:
                _src, _dst, p, pp = graph.edge_arrays()
                graph.update_probabilities(p * 0.5, pp)
                out = runtime.run("prr", jobs, (tuple(self.SEEDS), 5))
                health = runtime.health()
            finally:
                runtime.shutdown()
        # A host forked after the write would inherit the new arrays, so
        # the dead host is not replaced; its chunks ran on the survivor.
        assert health.restarts == 0 and health.workers_alive == 1
        assert not health.degraded
        got = PRRArena.from_payloads([(graph.n, *arrays) for arrays in out])
        _assert_same_payload(got, reference)


_RR_ON_A_STORE = """
import sys
import numpy as np
from repro.core.parallel import parallel_rr_csr
from repro.graphs import learned_like, preferential_attachment
from repro.storage import open_graph, save_graph

rng = np.random.default_rng(5)
save_graph(learned_like(preferential_attachment(1000, 5, rng), rng, 0.4),
           sys.argv[1])
parallel_rr_csr(open_graph(sys.argv[1]), 1024, 3, workers=2)
"""

_HOLD_A_POOL = """
import multiprocessing
import time
import numpy as np
from repro.core.parallel import get_runtime
from repro.graphs import learned_like, preferential_attachment

rng = np.random.default_rng(7)
graph = learned_like(preferential_attachment(2000, 3, rng), rng, 0.2)
get_runtime(graph, 2)
print(*[proc.pid for proc in multiprocessing.active_children()], flush=True)
time.sleep(60)
"""


@needs_fork
class TestShutdownHardening:
    def test_shutdown_idempotent_with_half_dead_pool(self, sized_graph):
        with _no_host_left():
            runtime = _pool(sized_graph, 2)
            victim = runtime._hosts[0].proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5)
            start = time.monotonic()
            runtime.shutdown(timeout=10.0)
            runtime.shutdown(timeout=10.0)  # second call must be a no-op
            assert time.monotonic() - start < 20.0
            assert runtime._closed

    def test_no_resource_tracker_noise(self, tmp_path):
        proc = _run_script(_RR_ON_A_STORE, tmp_path / "g.rpgs",
                           stderr=subprocess.PIPE)
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert "resource_tracker" not in err, err

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads host states from /proc")
    def test_hosts_of_a_killed_master_exit(self):
        master = _run_script(_HOLD_A_POOL, stdout=subprocess.PIPE)
        pids = []
        try:
            ready, _w, _x = select.select([master.stdout], [], [], 60)
            assert ready, "the master never reported its hosts"
            pids = [int(pid) for pid in master.stdout.readline().split()]
            assert len(pids) == 2
            master.kill()
            master.wait(10)
            deadline = time.monotonic() + 5.0
            while (any(map(_pid_alive, pids))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert not [pid for pid in pids if _pid_alive(pid)]
            assert glob.glob(f"/dev/shm/repro-{master.pid:x}*") == []
        finally:
            if master.poll() is None:
                master.kill()
                master.wait()
            master.stdout.close()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
