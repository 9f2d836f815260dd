"""Merge-order properties behind the distributed determinism contract.

The distributed runtime lets chunk results arrive in *any* interleaving
(hosts race, a killed host's chunks are re-run elsewhere), then stashes
them by chunk id and reassembles in submission order before merging.
That contract only yields bit-identical envelopes if

* reassembly-by-cid — the shared
  :class:`~repro.core.parallel.ChunkExecutor` core, driven here by a
  fake backend — erases the arrival permutation entirely: the merged
  :class:`~repro.core.prr.PRRArena` payload and the
  :class:`~repro.engine.coverage.CoverageIndex` CSR arrays must be
  byte-equal no matter how chunks arrived, and
* the semantic queries (``coverage_count``, ``greedy``) are themselves
  invariant under *set-order* permutation, which is what protects the
  degraded path where a fallback merge sees the same sets.

These are plain seeded-permutation property tests (no ``hypothesis``
dependency): a handful of shuffles per structure, each checked against
the in-order reference merge.
"""

import numpy as np
import pytest

from repro.core.parallel import ChunkExecutor, _chunk_jobs, _draw, _run_task
from repro.core.prr import PRRArena
from repro.engine.coverage import CoverageIndex
from repro.graphs import learned_like, preferential_attachment

N_PERMUTATIONS = 5
RNG_SEED = 20170417


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(17)
    return learned_like(preferential_attachment(120, 3, rng), rng, 0.2)


def make_chunks(graph, kind, count, params):
    """The chunk results exactly as workers produce them: cid-tagged
    outputs of the pure task function over one draw's
    ``(chunk_id, roots, world_seeds)`` jobs."""
    jobs = _chunk_jobs(*_draw(kind, graph.n, RNG_SEED, count))
    return [
        (cid, _run_task(graph, kind, roots, world_seeds, params))
        for cid, roots, world_seeds in jobs
    ]


def arrival_orders(n_chunks):
    yield list(range(n_chunks))  # reference in-order arrival
    rng = np.random.default_rng(7)
    for _ in range(N_PERMUTATIONS):
        yield list(rng.permutation(n_chunks))


class ArrivalOrder(ChunkExecutor):
    """A backend whose chunk results arrive in a fixed order."""

    def __init__(self, chunks, order):
        super().__init__()
        self.chunks = chunks
        self.order = order

    def _send(self, tag, run, cids):
        with self._cv:
            for pos in self.order:
                cid, arrays = self.chunks[pos]
                self._deliver(tag, cid, arrays)


def reassemble(chunks, order):
    """The results the chunk executor every runtime shares returns when
    ``chunks`` arrive in ``order``."""
    jobs = [(cid, None, None) for cid, _arrays in chunks]  # never read
    return ArrivalOrder(chunks, order).run("merge", jobs, ())


class TestPRRArenaMerge:
    def test_payload_invariant_under_arrival_permutation(self, graph):
        chunks = make_chunks(graph, "prr", 1100, ((1, 2, 3), 5))
        assert len(chunks) >= 4
        n = graph.n
        reference = None
        for order in arrival_orders(len(chunks)):
            payloads = [(n, *arrays) for arrays in reassemble(chunks, order)]
            merged = PRRArena.from_payloads(payloads).payload()
            if reference is None:
                reference = merged
                continue
            assert len(merged) == len(reference)
            for got, want in zip(merged[1:], reference[1:]):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_from_payloads_matches_pairwise_extend(self, graph):
        chunks = make_chunks(graph, "prr", 700, ((4, 9), 3))
        n = graph.n
        payloads = [(n, *arrays) for _cid, arrays in chunks]
        bulk = PRRArena.from_payloads(payloads)
        incremental = PRRArena.from_payload(payloads[0])
        for p in payloads[1:]:
            incremental.extend_arena(PRRArena.from_payload(p))
        for got, want in zip(incremental.payload()[1:], bulk.payload()[1:]):
            assert np.array_equal(got, want)

    def test_shuffled_arrival_without_reassembly_differs(self, graph):
        # Sanity check that the property above is not vacuous: raw
        # concatenation IS order-sensitive, so the stash step matters.
        chunks = make_chunks(graph, "prr", 1100, ((1, 2, 3), 5))
        n = graph.n
        in_order = PRRArena.from_payloads(
            [(n, *arrays) for _cid, arrays in chunks]
        ).payload()
        reversed_merge = PRRArena.from_payloads(
            [(n, *arrays) for _cid, arrays in reversed(chunks)]
        ).payload()
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(in_order[1:], reversed_merge[1:])
        )


class TestCoverageIndexMerge:
    def build_index(self, graph, chunk_arrays, order):
        index = CoverageIndex(graph.n)
        for counts, values in reassemble(chunk_arrays, order):
            index.extend_csr(counts, values)
        return index

    def test_csr_invariant_under_arrival_permutation(self, graph):
        chunks = make_chunks(graph, "rr", 1100, ())
        reference = None
        for order in arrival_orders(len(chunks)):
            index = self.build_index(graph, chunks, order)
            counts, values, indptr = index._consolidated()
            if reference is None:
                reference = (counts, values, indptr)
                continue
            assert np.array_equal(counts, reference[0])
            assert np.array_equal(values, reference[1])
            assert np.array_equal(indptr, reference[2])

    def test_semantic_queries_invariant_even_unordered(self, graph):
        # Stronger than the reassembly contract: greedy selection and
        # coverage counts depend only on the *multiset* of sets, so even
        # a merge that skipped reassembly would answer these the same.
        chunks = make_chunks(graph, "rr", 1100, ())
        reference_sel = reference_cov = None
        rng = np.random.default_rng(11)
        for _ in range(N_PERMUTATIONS):
            index = CoverageIndex(graph.n)
            for pos in rng.permutation(len(chunks)):
                counts, values = chunks[pos][1]
                index.extend_csr(counts, values)
            selected, covered = index.greedy(5)
            cov = index.coverage_count(selected)
            if reference_sel is None:
                reference_sel, reference_cov = (selected, covered), cov
                continue
            assert (selected, covered) == reference_sel
            assert cov == reference_cov

    def test_critical_chunks_merge_invariant(self, graph):
        chunks = make_chunks(graph, "critical", 1100, ((1, 2, 3),))
        reference = None
        for order in arrival_orders(len(chunks)):
            parts = reassemble(chunks, order)
            status = np.concatenate([p[0] for p in parts])
            counts = np.concatenate([p[1] for p in parts])
            values = np.concatenate([p[2] for p in parts])
            explored = sum(int(np.asarray(p[3]).sum()) for p in parts)
            if reference is None:
                reference = (status, counts, values, explored)
                continue
            assert np.array_equal(status, reference[0])
            assert np.array_equal(counts, reference[1])
            assert np.array_equal(values, reference[2])
            assert explored == reference[3]
