"""Tests for parallel PRR-graph generation and the chunk executor core."""

import queue
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import parallel
from repro.core.parallel import ChunkExecutor
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


def job(cid):
    return (cid, np.array([cid], dtype=np.int64),
            np.array([cid], dtype=np.uint64))


def answer(kind, cid, copy=0):
    return [np.array([ord(kind[0]), cid, copy])]


class FakeBackend(ChunkExecutor):
    """A backend with no processes and no sockets: ``_send`` records what
    it was asked to ship, and the test plays the transport."""

    def __init__(self):
        super().__init__()
        self.sent = queue.Queue()
        self.fallback_jobs = []

    def _send(self, tag, run, cids):
        for cid in cids:
            self.sent.put((tag, run.kind, cid))

    def _fallback(self, kind, jobs, params):
        self.fallback_jobs.extend(jobs)
        return [answer(kind, cid, copy=9) for cid, _roots, _seeds in jobs]

    def take(self, count):
        return [self.sent.get(timeout=10) for _ in range(count)]

    def deliver(self, tag, kind, cid, copy=0):
        with self._cv:
            return self._deliver(tag, cid, answer(kind, cid, copy))


class PermutingBackend(ChunkExecutor):
    """Answers every chunk at once, in a permuted order, with duplicates
    whose payloads differ from the first answer."""

    def __init__(self, seed):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.accepted = []

    def _send(self, tag, run, cids):
        arrivals = [(cid, 0) for cid in cids] + [(cid, 1) for cid in cids[::2]]
        with self._cv:
            for pos in self.rng.permutation(len(arrivals)):
                cid, copy = arrivals[pos]
                if self._deliver(tag, cid, answer(run.kind, cid, copy)):
                    self.accepted.append((cid, copy))


@pytest.fixture()
def lanes():
    with ThreadPoolExecutor(max_workers=8) as pool:
        yield pool


@pytest.fixture()
def backend(lanes):
    backend = FakeBackend()
    yield backend
    backend._close()  # wakes any run a failing test left waiting


class TestChunkExecutor:
    def test_submission_order_and_duplicates_rejected(self):
        copies = set()
        for seed in range(5):
            backend = PermutingBackend(seed)
            cids = [3, 0, 7, 1, 4, 2]
            out = backend.run("rr", [job(cid) for cid in cids], ())
            first = dict(backend.accepted)  # the copy that arrived first
            assert len(backend.accepted) == len(cids) == len(first)
            for cid, arrays in zip(cids, out):
                want = answer("rr", cid, first[cid])
                assert np.array_equal(arrays[0], want[0])
            assert backend._runs == {}
            copies.update(first.values())
        assert copies == {0, 1}  # a duplicate that arrives first wins

    def test_exhausted_retries_fail_only_their_run(self, lanes, backend):
        a = lanes.submit(backend.run, "a", [job(c) for c in range(3)], ())
        (tag_a, _k, _c), *_ = backend.take(3)
        b = lanes.submit(backend.run, "b", [job(c) for c in range(3)], ())
        sent_b = backend.take(3)
        with backend._cv:
            for attempt in range(1, parallel.MAX_TASK_RETRIES + 1):
                assert backend._retry(tag_a, 1, "lost") == attempt
            assert backend._retry(tag_a, 1, "lost") == 0
        with pytest.raises(RuntimeError, match="retries exhausted"):
            a.result(timeout=10)
        assert not backend.deliver(tag_a, "a", 0)  # no longer owed
        for tag, kind, cid in sent_b:
            assert backend.deliver(tag, kind, cid)
        assert [p[0][1] for p in b.result(timeout=10)] == [0, 1, 2]
        assert backend.active
        assert backend.retries == parallel.MAX_TASK_RETRIES

    def test_degrade_hands_unanswered_chunks_to_fallback(self, lanes,
                                                         backend):
        jobs = [job(c) for c in range(5)]
        pending = lanes.submit(backend.run, "rr", jobs, ())
        sent = backend.take(5)
        tag = sent[0][0]
        assert backend.deliver(tag, "rr", 3)
        assert backend.deliver(tag, "rr", 1)
        with backend._cv:
            backend._degrade()
        out = pending.result(timeout=10)
        assert [cid for cid, _r, _s in backend.fallback_jobs] == [0, 2, 4]
        for (cid, roots, seeds), fell in zip(
            [jobs[0], jobs[2], jobs[4]], backend.fallback_jobs
        ):
            assert np.array_equal(fell[1], roots)
            assert np.array_equal(fell[2], seeds)
        assert [p[0][2] for p in out] == [9, 0, 9, 0, 9]
        assert not backend.deliver(tag, "rr", 0)
        assert not backend.active and backend._runs == {}

    def test_concurrent_runs_demultiplex(self, lanes, backend):
        # Eight runs on one executor, every chunk answered twice by two
        # racing transport threads: exactly one answer per chunk is
        # accepted, and each run gets only its own chunks, in order.
        kinds = "abcdefgh"
        accepted = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futures = [
                lanes.submit(backend.run, kind, [job(c) for c in range(20)], ())
                for kind in kinds
            ]
            sent = backend.take(20 * len(kinds))

            def transport(copy):
                rng = np.random.default_rng(copy)
                accepted.append(sum(
                    backend.deliver(*sent[pos], copy=copy)
                    for pos in rng.permutation(len(sent))
                ))

            threads = [threading.Thread(target=transport, args=(copy,))
                       for copy in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            results = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        assert sum(accepted) == len(sent)
        for kind, out in zip(kinds, results):
            assert [p[0][:2].tolist() for p in out] == [
                [ord(kind), c] for c in range(20)
            ]
        assert backend._runs == {}

    def test_closed_executor_raises(self, lanes, backend):
        waiting = lanes.submit(backend.run, "rr", [job(0), job(1)], ())
        backend.take(2)
        assert backend._close()
        assert not backend._close()
        with pytest.raises(RuntimeError, match="shut down"):
            waiting.result(timeout=10)
        with pytest.raises(RuntimeError, match="shut down"):
            backend.run("rr", [job(0)], ())
        assert not backend.active
