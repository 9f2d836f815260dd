"""Tests for the distributed sampling runtime (:mod:`repro.dist`).

The contracts under test:

* **protocol** — frames round-trip raw arrays exactly; EOF between
  frames is a clean ``None``,
* **handshake** — a worker serving a different graph refuses the
  coordinator at connect time,
* **determinism** — every merged payload is bit-identical to the
  in-process draw, for 1 and 2 hosts, after a mid-run host kill, and
  after full degradation to the local fallback,
* **supervision** — host loss re-assigns chunks (bounded), health
  reports per-host counters, all-hosts-lost degrades instead of failing,
  a malformed frame gets an ``error`` frame and the host keeps serving,
* **session wiring** — ``Session(hosts=...)`` envelopes match a local
  session and share its cache entries; admission prices the remote
  capacity,
* **one stream** — a seeded query's envelope is the same at any worker
  count, host count, chunk size and dispatch threshold, and after a
  worker is killed mid-run.

Worker hosts run as in-process threads (``serve_worker`` with an
ephemeral port and a ``stop`` event) so the suite needs no subprocess
spawning; the CLI entry point is exercised separately in
``test_cli.py``-style via ``bench_dist --smoke`` in CI.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.api import (
    AdmissionPolicy,
    BoostQuery,
    SamplingBudget,
    SeedQuery,
    Session,
    estimate_cost,
)
from repro.core import parallel
from repro.dist import (
    DistributedRuntime, coordinator, parse_hosts, serve_worker,
)
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    graph_fingerprint,
    recv_msg,
    send_msg,
)
from repro.graphs import learned_like, preferential_attachment
from repro.testing import faults


def fresh_graph(seed=17, n=150):
    rng = np.random.default_rng(seed)
    return learned_like(preferential_attachment(n, 3, rng), rng, 0.2)


class WorkerHost:
    """An in-process worker host with its own graph replica."""

    def __init__(self, seed=17, workers=1):
        self.graph = fresh_graph(seed=seed)
        self.stop = threading.Event()
        infos = []
        self.thread = threading.Thread(
            target=serve_worker,
            args=(self.graph,),
            kwargs=dict(port=0, workers=workers, ready=infos.append,
                        stop=self.stop),
            daemon=True,
        )
        self.thread.start()
        deadline = time.time() + 10.0
        while not infos and time.time() < deadline:
            time.sleep(0.01)
        assert infos, "worker never came up"
        self.addr = f"127.0.0.1:{infos[0]['port']}"

    def kill(self):
        self.stop.set()

    def join(self):
        self.stop.set()
        self.thread.join(timeout=5.0)


@pytest.fixture()
def two_hosts():
    hosts = [WorkerHost(), WorkerHost()]
    yield hosts
    for h in hosts:
        h.join()


@pytest.fixture()
def graph():
    return fresh_graph()


def local_reference(graph, kind, count, seed, **kw):
    if kind == "rr":
        return parallel.parallel_rr_csr(graph, count, seed, workers=1)
    if kind == "prr":
        return parallel.parallel_prr_collection(
            graph, kw["seeds"], kw["k"], count, seed, workers=1
        ).payload()
    if kind == "critical":
        return parallel.parallel_critical_csr(
            graph, frozenset(kw["seeds"]), count, seed, workers=1
        )
    raise AssertionError(kind)


class TestProtocol:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            arrays = [
                np.arange(10, dtype=np.int64),
                np.zeros((2, 3), dtype=np.float32),
                np.empty(0, dtype=np.int32),
            ]
            send_msg(a, {"type": "result", "tag": 3, "cid": 9}, arrays)
            header, got = recv_msg(b)
            assert header["type"] == "result"
            assert header["tag"] == 3 and header["cid"] == 9
            assert len(got) == len(arrays)
            for sent, received in zip(arrays, got):
                assert sent.dtype == received.dtype
                assert sent.shape == received.shape
                assert np.array_equal(sent, received)
        finally:
            a.close()
            b.close()

    def test_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"type": "bye"})
            a.close()
            assert recv_msg(b)[0]["type"] == "bye"
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x40\x00\x00\x00{\"type\"")  # promises 64 bytes
            a.close()
            with pytest.raises(ProtocolError):
                recv_msg(b)
        finally:
            b.close()

    def test_parse_hosts(self):
        assert parse_hosts("a:1, b:2") == [("a", 1), ("b", 2)]
        assert parse_hosts([("c", 3), "d:4"]) == [("c", 3), ("d", 4)]
        with pytest.raises(ValueError):
            parse_hosts("")
        with pytest.raises(ValueError):
            parse_hosts(["noport"])


class TestHandshake:
    def test_mismatched_graph_is_refused(self, graph):
        other = WorkerHost(seed=99)  # different probabilities
        try:
            with pytest.raises(ProtocolError, match="fingerprint mismatch"):
                DistributedRuntime(graph, [other.addr])
        finally:
            other.join()

    def test_connect_refused_raises(self, graph, monkeypatch):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))  # bound but never listening/accepting
        port = sock.getsockname()[1]
        sock.close()
        monkeypatch.setattr(coordinator, "HANDSHAKE_TIMEOUT", 0.5)
        with pytest.raises(OSError):
            DistributedRuntime(graph, [f"127.0.0.1:{port}"])


class TestDeterministicMerge:
    @pytest.mark.parametrize("host_count", [1, 2])
    def test_rr_identity_across_host_counts(self, graph, two_hosts,
                                            host_count):
        addrs = [h.addr for h in two_hosts[:host_count]]
        rt = DistributedRuntime(graph, addrs, fallback_workers=1)
        parallel.bind_distributed_runtime(graph, rt)
        try:
            got = parallel.parallel_rr_csr(graph, 1024, 42)
        finally:
            parallel.unbind_distributed_runtime(graph)
            rt.shutdown()
        want = local_reference(fresh_graph(), "rr", 1024, 42)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_prr_and_critical_identity(self, graph, two_hosts):
        rt = DistributedRuntime(
            graph, [h.addr for h in two_hosts], fallback_workers=1
        )
        parallel.bind_distributed_runtime(graph, rt)
        try:
            prr = parallel.parallel_prr_collection(
                graph, {1, 2, 3}, 5, 600, 17
            ).payload()
            crit = parallel.parallel_critical_csr(
                graph, frozenset({1, 2, 3}), 600, 23
            )
        finally:
            parallel.unbind_distributed_runtime(graph)
            rt.shutdown()
        ref = fresh_graph()
        for g, w in zip(prr, local_reference(ref, "prr", 600, 17,
                                             seeds={1, 2, 3}, k=5)):
            assert np.array_equal(g, w)
        for g, w in zip(crit, local_reference(ref, "critical", 600, 23,
                                              seeds={1, 2, 3})):
            assert np.array_equal(g, w)

    def test_chunks_spread_across_hosts(self, graph, two_hosts):
        rt = DistributedRuntime(
            graph, [h.addr for h in two_hosts], fallback_workers=1
        )
        parallel.bind_distributed_runtime(graph, rt)
        try:
            parallel.parallel_rr_csr(graph, 4096, 7)
        finally:
            parallel.unbind_distributed_runtime(graph)
        done = [h["chunks_done"] for h in rt.health().to_dict()["hosts"]]
        rt.shutdown()
        assert sum(done) == 16
        assert all(d > 0 for d in done), f"one host sat idle: {done}"


def kill_in_first_chunk(monkeypatch, host):
    """Make ``host`` die inside its first chunk call: it stops serving and
    answers none of the chunks it holds, so it always dies with chunks in
    flight, however fast they would have run."""
    from repro.dist import worker

    real = worker.run_chunks_local

    def run_chunks_local(host_graph, *args):
        if host_graph is host.graph:
            host.kill()
            return []
        return real(host_graph, *args)

    monkeypatch.setattr(worker, "run_chunks_local", run_chunks_local)


class TestSupervision:
    def test_mid_run_host_kill_keeps_identity(self, graph, two_hosts,
                                              monkeypatch):
        rt = DistributedRuntime(
            graph, [h.addr for h in two_hosts], fallback_workers=1
        )
        parallel.bind_distributed_runtime(graph, rt)
        try:
            kill_in_first_chunk(monkeypatch, two_hosts[1])
            got = parallel.parallel_rr_csr(graph, 8192, 123)
        finally:
            parallel.unbind_distributed_runtime(graph)
        health = rt.health()
        rt.shutdown()
        want = local_reference(fresh_graph(), "rr", 8192, 123)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert health.workers_alive < health.workers
        assert health.restarts >= 1  # host losses
        assert not health.degraded

    def test_all_hosts_lost_degrades_to_local(self, graph, monkeypatch):
        host = WorkerHost()
        rt = DistributedRuntime(graph, [host.addr], fallback_workers=1)
        parallel.bind_distributed_runtime(graph, rt)
        try:
            kill_in_first_chunk(monkeypatch, host)
            got = parallel.parallel_rr_csr(graph, 8192, 321)
            assert rt.degraded
            assert not rt.active
            # Later dispatches bypass the dead runtime entirely.
            later = parallel.parallel_rr_csr(graph, 1024, 5)
        finally:
            parallel.unbind_distributed_runtime(graph)
            rt.shutdown()
            host.join()
        ref = fresh_graph()
        for g, w in zip(got, local_reference(ref, "rr", 8192, 321)):
            assert np.array_equal(g, w)
        for g, w in zip(later, local_reference(ref, "rr", 1024, 5)):
            assert np.array_equal(g, w)

    def test_chunk_error_fails_only_its_run(self, graph, two_hosts,
                                           monkeypatch):
        from repro.dist import worker

        real = worker.run_chunks_local
        poisoned = []

        def run_chunks_local(host_graph, *args):
            if host_graph is two_hosts[0].graph and not poisoned:
                poisoned.append(True)
                raise ValueError("poison chunk")
            return real(host_graph, *args)

        monkeypatch.setattr(worker, "run_chunks_local", run_chunks_local)
        rt = DistributedRuntime(
            graph, [h.addr for h in two_hosts], fallback_workers=1
        )
        parallel.bind_distributed_runtime(graph, rt)
        try:
            with pytest.raises(RuntimeError, match="poison chunk"):
                parallel.parallel_rr_csr(graph, 1024, 42)
            before = [h["chunks_done"] for h in rt.health().hosts]
            got = parallel.parallel_rr_csr(graph, 1024, 42)
            health = rt.health()
        finally:
            parallel.unbind_distributed_runtime(graph)
            rt.shutdown()
        for g, w in zip(got, local_reference(fresh_graph(), "rr", 1024, 42)):
            assert np.array_equal(g, w)
        assert poisoned
        assert health.restarts == 0 and not health.degraded
        assert [h["alive"] for h in health.hosts] == [True, True]
        done = [h["chunks_done"] - b for h, b in zip(health.hosts, before)]
        assert sum(done) == 4 and all(d > 0 for d in done), done

    def test_remote_chunk_lost_unanswered_is_resent_after_timeout(
        self, graph, monkeypatch
    ):
        from repro.dist import worker

        real = worker.run_chunks_local
        dropped = []

        def run_chunks_local(host_graph, kind, jobs, params, workers):
            if jobs[-1][0] == 3 and not dropped:  # the run's last chunk
                dropped.append(True)
                return []  # answered by nothing: only the timeout sees it
            return real(host_graph, kind, jobs, params, workers)

        monkeypatch.setattr(worker, "run_chunks_local", run_chunks_local)
        monkeypatch.setattr(parallel, "TASK_TIMEOUT", 0.3)
        host = WorkerHost()
        rt = DistributedRuntime(graph, [host.addr], fallback_workers=1)
        parallel.bind_distributed_runtime(graph, rt)
        outcome = {}
        lane = threading.Thread(target=lambda: outcome.setdefault(
            "rr", parallel.parallel_rr_csr(graph, 1024, 42)))
        try:
            lane.start()
            lane.join(timeout=20)
            health = rt.health()
        finally:
            parallel.unbind_distributed_runtime(graph)
            rt.shutdown()
            host.join()
        assert dropped and not lane.is_alive()
        assert health.retries == 1 and health.restarts == 0
        for g, w in zip(outcome["rr"],
                        local_reference(fresh_graph(), "rr", 1024, 42)):
            assert np.array_equal(g, w)

    def test_fault_plan_never_fires_in_an_in_thread_host(self, graph,
                                                         two_hosts):
        rt = DistributedRuntime(
            graph, [h.addr for h in two_hosts], fallback_workers=1
        )
        parallel.bind_distributed_runtime(graph, rt)
        try:
            with faults.inject(kill_worker="any", kill_on_chunk=1,
                               drop_worker="any", drop_on_chunk=2):
                got = parallel.parallel_rr_csr(graph, 1024, 42)
            health = rt.health()
        finally:
            parallel.unbind_distributed_runtime(graph)
            rt.shutdown()
        assert health.restarts == 0 and health.retries == 0
        for g, w in zip(got, local_reference(fresh_graph(), "rr", 1024, 42)):
            assert np.array_equal(g, w)

    def test_host_loss_seen_through_its_local_pool(self, graph):
        """A host that runs frames on a pool of forked local hosts reads
        as lost the moment it stops: the forked hosts hold none of the
        sockets they inherited (its connection, the coordinator's end)."""
        host = WorkerHost(workers=2)
        rt = DistributedRuntime(graph, [host.addr], fallback_workers=1)
        parallel.bind_distributed_runtime(graph, rt)
        try:
            parallel.parallel_rr_csr(graph, 4096, 1)
            assert parallel.runtime_is_alive(host.graph)  # its pool forked
            host.kill()
            deadline = time.monotonic() + 5.0
            while not rt.degraded and time.monotonic() < deadline:
                time.sleep(0.01)
            assert rt.degraded and rt.health().restarts == 1
        finally:
            parallel.unbind_distributed_runtime(graph)
            rt.shutdown()
            host.join()
            parallel.shutdown_runtime()

    def test_health_reports_per_host_counters(self, graph, two_hosts):
        rt = DistributedRuntime(
            graph, [h.addr for h in two_hosts], fallback_workers=1
        )
        try:
            health = rt.health().to_dict()
            assert health["workers"] == 2
            assert [h["alive"] for h in health["hosts"]] == [True, True]
            assert {h["addr"] for h in health["hosts"]} == {
                h.addr for h in two_hosts
            }
        finally:
            rt.shutdown()

    def test_shutdown_is_idempotent(self, graph, two_hosts):
        rt = DistributedRuntime(graph, [h.addr for h in two_hosts])
        rt.shutdown()
        rt.shutdown()
        job = (0, np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.uint64))
        with pytest.raises(RuntimeError):
            rt.run("rr", [job], ())


class TestSessionHosts:
    BUDGET = SamplingBudget(max_samples=600, mc_runs=50)

    def queries(self, workers=None):
        budget = SamplingBudget(max_samples=600, mc_runs=50,
                                workers=workers)
        return [
            SeedQuery(algorithm="imm", k=4, rng_seed=11, budget=budget),
            BoostQuery(algorithm="prr_boost", seeds=[1, 2, 3], k=4,
                       rng_seed=13, budget=budget),
        ]

    def test_envelopes_match_local_chunked_session(self, two_hosts):
        graph = fresh_graph()
        with Session(graph, hosts=",".join(h.addr for h in two_hosts)) as s:
            dist_results = [s.run(q) for q in self.queries()]
            health = s.runtime_health()
            assert health is not None and health.hosts is not None
            assert s.effective_parallelism() == 2
        with Session(fresh_graph()) as s:
            local_results = [s.run(q) for q in self.queries(workers=2)]
        for d, l in zip(dist_results, local_results):
            assert d.selected == l.selected
            assert d.estimates == l.estimates
            assert d.fingerprint == l.fingerprint

    def test_close_unbinds_and_shuts_down(self, two_hosts):
        graph = fresh_graph()
        session = Session(graph, hosts=[h.addr for h in two_hosts])
        rt = session._dist
        session.close()
        assert parallel.distributed_runtime_for(graph) is None
        assert rt._closed

    def test_admission_prices_remote_capacity(self, two_hosts):
        graph = fresh_graph()
        query = SeedQuery(algorithm="imm", k=4, rng_seed=1,
                          budget=SamplingBudget(max_samples=5000))
        with Session(fresh_graph()) as serial:
            serial_units = estimate_cost(serial, query).units
        with Session(graph, hosts=[h.addr for h in two_hosts]) as s:
            dist_units = estimate_cost(s, query).units
            # 2 single-worker hosts halve the sampling price.
            assert dist_units == pytest.approx(serial_units / 2.0)
            policy = AdmissionPolicy(reject_units=serial_units * 0.75)
            assert policy.decide(s, query).action == "admit"

    def test_hosts_session_shares_cache_entries(self, two_hosts):
        from repro.api import ResultCache

        graph = fresh_graph()
        cache = ResultCache()
        with Session(graph, cache=cache) as local:
            cached = [local.run(q) for q in self.queries(workers=1)]
        with Session(graph, hosts=[h.addr for h in two_hosts],
                     cache=cache) as s:
            served = [s.run(q) for q in self.queries()]
        assert all(a is b for a, b in zip(served, cached))
        assert cache.hits == 2 and cache.misses == 2


def open_worker_session(addr, graph):
    """A raw coordinator connection past the handshake."""
    host, port = addr.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=10.0)
    send_msg(sock, {"type": "hello", "protocol": PROTOCOL_VERSION,
                    "fingerprint": graph_fingerprint(graph)})
    assert recv_msg(sock)[0]["type"] == "welcome"
    return sock


def rr_job_arrays(roots, seeds=None):
    roots = np.asarray(roots, dtype=np.int64)
    if seeds is None:
        seeds = np.arange(roots.size, dtype=np.uint64)
    return [roots, seeds]


CHUNKS = {"type": "chunks", "tag": 0, "kind": "rr", "params": [], "jobs": [0]}


def assert_host_serves(graph, addr):
    """A fresh coordinator session on ``addr`` returns the in-process
    draw, computed remotely (not by the degraded fallback)."""
    rt = DistributedRuntime(graph, [addr], fallback_workers=1)
    parallel.bind_distributed_runtime(graph, rt)
    try:
        got = parallel.parallel_rr_csr(graph, 1024, 42)
        done = rt.health().hosts[0]["chunks_done"]
    finally:
        parallel.unbind_distributed_runtime(graph)
        rt.shutdown()
    assert done == 4
    for g, w in zip(got, local_reference(fresh_graph(), "rr", 1024, 42)):
        assert np.array_equal(g, w)


class TestHostAnswers:
    def test_serial_host_answers_each_chunk_when_computed(self, graph,
                                                           monkeypatch):
        from repro.dist import worker

        real = worker.run_chunks_local
        release = threading.Event()

        def run_chunks_local(host_graph, kind, jobs, params, workers):
            if any(cid == 1 for cid, _roots, _seeds in jobs):
                release.wait(5)
            return real(host_graph, kind, jobs, params, workers)

        monkeypatch.setattr(worker, "run_chunks_local", run_chunks_local)
        host = WorkerHost()
        try:
            sock = open_worker_session(host.addr, graph)
            try:
                send_msg(sock, {**CHUNKS, "jobs": [0, 1]},
                         rr_job_arrays([1, 2]) + rr_job_arrays([3, 4]))
                sock.settimeout(2.0)
                # Chunk 1 is still computing when chunk 0's answer comes.
                first, _arrays = recv_msg(sock)
                assert (first["type"], first["cid"]) == ("result", 0)
                release.set()
                second, _arrays = recv_msg(sock)
                assert (second["type"], second["cid"]) == ("result", 1)
            finally:
                release.set()
                sock.close()
        finally:
            host.join()


class TestMalformedFrames:
    @pytest.mark.parametrize("header, arrays", [
        ({k: v for k, v in CHUNKS.items() if k != "jobs"}, rr_job_arrays([1])),
        ({k: v for k, v in CHUNKS.items() if k != "tag"}, rr_job_arrays([1])),
        ({**CHUNKS, "kind": "bogus"}, rr_job_arrays([1])),
        ({**CHUNKS, "kind": "prr", "params": [[1, 2], "x"]}, rr_job_arrays([1])),
        ({**CHUNKS, "kind": "critical", "params": [[9999]]}, rr_job_arrays([1])),
        ({**CHUNKS, "params": [3]}, rr_job_arrays([1])),
        (CHUNKS, rr_job_arrays([1])[:1]),
        ({**CHUNKS, "jobs": [0, 1]}, rr_job_arrays([1])),
        (CHUNKS, [np.array([1.0]), np.array([1], dtype=np.uint64)]),
        (CHUNKS, rr_job_arrays([1, 2], np.arange(3, dtype=np.uint64))),
        (CHUNKS, rr_job_arrays([0, 150])),
        (CHUNKS, rr_job_arrays([-1])),
        ({"type": "result", "tag": 0, "cid": 0}, []),
    ])
    def test_rejected_with_error_frame_and_host_keeps_serving(
        self, graph, header, arrays
    ):
        host = WorkerHost()
        try:
            sock = open_worker_session(host.addr, graph)
            try:
                send_msg(sock, header, arrays)
                reply, _arrays = recv_msg(sock)
                assert reply["type"] == "error"
                assert recv_msg(sock) is None  # that session is closed
            finally:
                sock.close()
            assert_host_serves(graph, host.addr)
            assert host.thread.is_alive()
        finally:
            host.join()

    def test_undecodable_header_ends_only_that_session(self, graph):
        host = WorkerHost()
        try:
            sock = open_worker_session(host.addr, graph)
            try:
                sock.sendall(b"\x03\x00\x00\x00[1]")  # a JSON list header
                assert recv_msg(sock) is None
            finally:
                sock.close()
            assert_host_serves(graph, host.addr)
        finally:
            host.join()


@pytest.mark.skipif(not parallel.fork_available(),
                    reason="requires fork start method")
class TestOneStream:
    """Every sample's root and world seed comes from the query's RNG
    before the dispatch decision, so backends change where samples are
    evaluated, never the envelope."""

    @staticmethod
    def query(algorithm, max_samples, workers=None):
        budget = SamplingBudget(max_samples=max_samples, epsilon=0.2,
                                mc_runs=50, workers=workers)
        if algorithm in ("imm", "ssa"):
            return SeedQuery(algorithm=algorithm, k=4, rng_seed=13,
                             budget=budget)
        return BoostQuery(algorithm=algorithm, seeds=[1, 2, 3], k=4,
                          rng_seed=13, budget=budget)

    @staticmethod
    def envelope(session, query):
        data = session.run(query).to_dict()
        del data["timings"], data["query"]  # the query echoes its workers
        return data

    # max_samples=300 keeps every draw below PARALLEL_MIN_SAMPLES; 3000
    # grows IMM/SSA's doubling rounds to draws above it.
    @pytest.mark.parametrize("max_samples", [300, 3000])
    @pytest.mark.parametrize(
        "algorithm", ["prr_boost", "prr_boost_lb", "imm", "ssa"]
    )
    def test_envelope_independent_of_where_samples_run(
        self, two_hosts, monkeypatch, algorithm, max_samples
    ):
        graph = fresh_graph()

        def run(workers=None, **session_kw):
            with Session(graph, **session_kw) as session:
                return self.envelope(
                    session, self.query(algorithm, max_samples, workers)
                )

        reference = run(workers=1)
        big = reference["num_samples"] > 2 * parallel.PARALLEL_MIN_SAMPLES
        assert big == (max_samples > parallel.PARALLEL_MIN_SAMPLES)
        for workers in (2, 3):
            assert run(workers) == reference
        for count in (1, 2):
            assert run(hosts=[h.addr for h in two_hosts[:count]]) == reference
        with monkeypatch.context() as patched:
            patched.setattr(parallel, "CHUNK_SIZE", 100)
            patched.setattr(parallel, "PARALLEL_MIN_SAMPLES", 64)
            assert run(2) == reference
        parallel.shutdown_runtime()
        with faults.inject(kill_worker="any", kill_on_chunk=1):
            with Session(graph) as session:
                killed = self.envelope(
                    session, self.query(algorithm, max_samples, 2)
                )
                health = session.runtime_health()
        assert killed == reference
        if big:
            assert health.restarts >= 1
