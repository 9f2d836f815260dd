"""Phase-II compression checked against the paper's math, not against
another implementation.

For tiny graphs drawn by hypothesis, every root is sampled in a fixed
hashed world (one lane batch, and one world-seeded single sample per
root).  Brute force then decides, for every boost set ``B`` of at most
``k`` non-seed nodes, whether the root is reachable from a seed when
live edges always count and a live-upon-boost edge counts when its head
is in ``B`` — once over the whole world's edge states, once over the
uncompressed phase-I edges.  The compressed :class:`PRRGraph` must agree:

* ``f(B)`` equals that reachability for every such ``B`` (the root is
  inactive without boosting, so ``f_R(B) = 1`` iff ``B`` activates it),
* ``critical == {v : f({v})}`` (the critical node set ``C_R``),
* the graph is ``hopeless`` exactly when no such ``B`` activates the
  root, and ``activated`` exactly when ``B = ∅`` already does.
"""

from itertools import combinations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.prr import ACTIVATED, BOOSTABLE, HOPELESS, sample_prr_graph, sample_prr_lanes
from repro.engine import SamplingEngine
from repro.engine.world import BOOST, LIVE, lane_states
from repro.graphs import DiGraph


@st.composite
def worlds(draw):
    """A digraph with 3-12 nodes and 2n-40 edges, seeds, a world seed and ``k``."""
    n = draw(st.integers(3, 12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    idx = draw(
        st.lists(
            st.integers(0, len(pairs) - 1),
            min_size=min(2 * n, len(pairs)),
            max_size=min(40, len(pairs)),
            unique=True,
        )
    )
    edges = [pairs[i] for i in idx]
    p = [draw(st.sampled_from([0.0, 0.1, 0.3, 0.6])) for _ in edges]
    pp = [min(1.0, pi + draw(st.sampled_from([0.0, 0.5, 1.0]))) for pi in p]
    graph = DiGraph(n, [e[0] for e in edges], [e[1] for e in edges], p, pp)
    seeds = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
    world_seed = draw(st.integers(0, 2**62))
    k = draw(st.integers(1, 3))
    return graph, seeds, world_seed, k


def reacher(seeds, src, dst, state):
    """``reaches(boost)``: the nodes reachable from ``seeds`` over live
    edges and over live-upon-boost edges whose head is in ``boost``."""
    live, boosted = {}, {}
    for u, v, s in zip(src, dst, state):
        if s == LIVE:
            live.setdefault(u, []).append(v)
        elif s == BOOST:
            boosted.setdefault(u, []).append(v)

    def reaches(boost):
        reached = set(seeds)
        frontier = list(seeds)
        while frontier:
            u = frontier.pop()
            for v in live.get(u, ()):
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
            for v in boosted.get(u, ()):
                if v in boost and v not in reached:
                    reached.add(v)
                    frontier.append(v)
        return reached

    return reaches


def boost_sets(graph, seeds, k):
    candidates = [v for v in range(graph.n) if v not in seeds]
    for size in range(k + 1):
        yield from (frozenset(c) for c in combinations(candidates, size))


def check(prr, graph, seeds, k, world_seed):
    root = prr.root
    # The whole hashed world of this seed.
    src, dst, p, pp = graph.edge_arrays()
    lanes = np.zeros(graph.m, dtype=np.int64)
    world = lane_states(np.array([world_seed], dtype=np.uint64), lanes, src, dst, p, pp)
    in_world = reacher(seeds, src.tolist(), dst.tolist(), world.tolist())
    # The uncompressed phase-I edges of the same sample.
    engine = SamplingEngine.for_graph(graph)
    ph = engine.prr_phase1(engine.seeds_mask(seeds), root, k, world_seed=world_seed)
    in_phase1 = reacher(
        seeds, ph.edge_src.tolist(), ph.edge_dst.tolist(),
        np.where(ph.edge_boost, BOOST, LIVE).tolist(),
    )

    def active(boost):
        hit = root in in_world(boost)
        if root not in seeds and not ph.activated:
            assert hit == (root in in_phase1(boost))
        return hit

    if active(frozenset()):
        assert prr.status == ACTIVATED
        return
    winners = [b for b in boost_sets(graph, seeds, k) if active(b)]
    if not winners:
        assert prr.status == HOPELESS
        return
    assert prr.status == BOOSTABLE
    win = set(winners)
    for b in boost_sets(graph, seeds, k):
        assert prr.f(b) == (b in win), (sorted(b), prr)
    assert prr.critical == {v for v in range(graph.n) if frozenset({v}) in win}


class TestCompressionPreservesF:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(worlds())
    def test_lane_batch_matches_brute_force(self, case):
        graph, seeds, world_seed, k = case
        roots = np.arange(graph.n)
        arena = sample_prr_lanes(
            graph, seeds, k, None, graph.n,
            roots=roots, world_seeds=np.full(graph.n, world_seed, dtype=np.uint64),
        )
        for prr in arena:
            check(prr, graph, seeds, k, world_seed)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(worlds())
    def test_single_sample_matches_brute_force(self, case):
        graph, seeds, world_seed, k = case
        rng = np.random.default_rng(0)  # unused by the world-seeded path
        for root in range(graph.n):
            prr = sample_prr_graph(graph, seeds, k, rng, root=root, world_seed=world_seed)
            check(prr, graph, seeds, k, world_seed)
