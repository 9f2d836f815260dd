"""The Monte Carlo estimators checked against exact enumeration.

Every estimator — ``estimate_sigma``, ``estimate_boost``, the paired
:class:`~repro.diffusion.worlds.WorldCollection` and the baselines'
``rank_candidates`` — runs the default incoming-boost IC on the hashed
cascade lanes, one world per lane seed drawn from the caller's RNG.  On
tiny graphs drawn by hypothesis (at most 8 edges, so ``exact_sigma``
enumerates at most 2^8 live/blocked worlds) each estimate must lie within
a Hoeffding bound of the exact value: an average of ``RUNS`` per-world
values that lie in an interval of width ``w`` misses its mean by ``t``
or more with probability at most ``2 exp(-2 RUNS t² / w²)``.  ``t`` is
set for a failure probability of ``DELTA`` per check; cascade sizes and
boost differences both span ``w = n − |S|``.  Examples are derandomized,
so the suite is deterministic.

The exact couplings need no bound: on one set of worlds ``B = ∅`` scores
exactly 0, a superset of ``B`` never scores lower, and a one-candidate
ranking replays ``estimate_boost`` on the same RNG seed.

The PRR estimators (``estimate_delta``, ``estimate_mu``) average ``RUNS``
per-root values ``n · f_R(B)`` in ``[0, n]``, so Δ̂ gets the same bound
with ``w = n``, and μ̂ ≤ Δ̂ holds exactly on every collection.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.algorithms import rank_candidates
from repro.core import estimate_delta, estimate_mu, parallel_prr_collection
from repro.diffusion import estimate_boost, estimate_sigma, exact_boost, exact_sigma
from repro.diffusion.worlds import WorldCollection
from repro.graphs import DiGraph, learned_like, preferential_attachment

RUNS = 3000
DELTA = 1e-6
SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def hoeffding(width: float) -> float:
    """Half-width of the ``1 − DELTA`` Hoeffding interval of a mean of
    ``RUNS`` values spanning ``width``."""
    return width * math.sqrt(math.log(2 / DELTA) / (2 * RUNS))


@st.composite
def cases(draw):
    """A digraph with 2-6 nodes and 1-8 edges, seeds, a boost set of
    non-seeds, a further node set, and an RNG seed."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    idx = draw(
        st.lists(
            st.integers(0, len(pairs) - 1),
            min_size=1,
            max_size=min(8, len(pairs)),
            unique=True,
        )
    )
    edges = [pairs[i] for i in idx]
    p = [draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0])) for _ in edges]
    pp = [min(1.0, pi + draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))) for pi in p]
    graph = DiGraph(n, [e[0] for e in edges], [e[1] for e in edges], p, pp)
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
    others = [v for v in range(n) if v not in seeds]
    boost = draw(st.sets(st.sampled_from(others))) if others else set()
    extra = draw(st.sets(st.sampled_from(others))) if others else set()
    rng_seed = draw(st.integers(0, 2**32 - 1))
    return graph, seeds, boost, extra, rng_seed


class TestWithinBoundOfExact:
    @SETTINGS
    @given(cases())
    def test_direct_estimators(self, case):
        graph, seeds, boost, _extra, rng_seed = case
        t = hoeffding(graph.n - len(seeds))
        sigma = estimate_sigma(graph, seeds, boost, np.random.default_rng(rng_seed), RUNS)
        assert abs(sigma - exact_sigma(graph, seeds, boost)) <= t
        delta = estimate_boost(graph, seeds, boost, np.random.default_rng(rng_seed), RUNS)
        assert abs(delta - exact_boost(graph, seeds, boost)) <= t

    @SETTINGS
    @given(cases())
    def test_world_collection(self, case):
        graph, seeds, boost, _extra, rng_seed = case
        t = hoeffding(graph.n - len(seeds))
        worlds = WorldCollection(graph, seeds, np.random.default_rng(rng_seed), RUNS)
        assert abs(worlds.sigma_empty - exact_sigma(graph, seeds, ())) <= t
        assert abs(worlds.sigma(boost) - exact_sigma(graph, seeds, boost)) <= t
        assert abs(worlds.boost(boost) - exact_boost(graph, seeds, boost)) <= t


class TestExactCouplings:
    @SETTINGS
    @given(cases())
    def test_empty_boost_is_exactly_zero(self, case):
        graph, seeds, _boost, _extra, rng_seed = case
        assert estimate_boost(graph, seeds, (), np.random.default_rng(rng_seed), 200) == 0.0
        worlds = WorldCollection(graph, seeds, np.random.default_rng(rng_seed), 200)
        assert worlds.boost(()) == 0.0

    @SETTINGS
    @given(cases())
    def test_superset_never_scores_lower(self, case):
        graph, seeds, boost, extra, rng_seed = case
        worlds = WorldCollection(graph, seeds, np.random.default_rng(rng_seed), 500)
        assert worlds.boost(boost | extra) >= worlds.boost(boost)
        assert worlds.sigma(boost | extra) >= worlds.sigma(boost)

    @SETTINGS
    @given(cases())
    def test_one_candidate_rank_is_estimate_boost(self, case):
        graph, seeds, boost, _extra, rng_seed = case
        chosen, value = rank_candidates(
            graph, seeds, [sorted(boost)], np.random.default_rng(rng_seed), 300
        )
        assert chosen == sorted(boost)
        assert value == estimate_boost(
            graph, seeds, boost, np.random.default_rng(rng_seed), 300
        )

    @pytest.mark.parametrize("boost", [[], [7], [7, 11, 20, 33, 42]])
    def test_one_candidate_rank_on_a_social_graph(self, boost):
        rng = np.random.default_rng(8)
        graph = learned_like(preferential_attachment(300, 3, rng), rng, 0.2)
        seeds = {0, 1, 2}
        _chosen, value = rank_candidates(graph, seeds, [boost], np.random.default_rng(5), 700)
        assert value == estimate_boost(graph, seeds, boost, np.random.default_rng(5), 700)
        assert value > 0 or not boost


class TestPRREstimatorsWithinBound:
    @SETTINGS
    @given(cases())
    def test_delta_hat_within_bound_and_mu_below(self, case):
        graph, seeds, boost, extra, rng_seed = case
        # Pruning keeps f_R(B) exact for every |B| up to the budget k.
        k = max(len(boost | extra), 1)
        arena = parallel_prr_collection(graph, seeds, k, RUNS, rng_seed, workers=1)
        for chosen in (boost, boost | extra):
            delta = estimate_delta(arena, graph.n, chosen)
            assert abs(delta - exact_boost(graph, seeds, chosen)) <= hoeffding(graph.n)
            assert estimate_mu(arena, graph.n, chosen) <= delta

    def test_chain_of_two_boosts_tells_delta_from_mu(self):
        """0 → 1 → 2 with p = 0 and p' = 1, S = {0}, B = {1, 2}: root 1 needs
        only node 1 boosted (critical), root 2 needs both (no critical
        node), so Δ = 2 and μ = 1."""
        graph = DiGraph(3, [0, 1], [1, 2], [0.0, 0.0], [1.0, 1.0])
        arena = parallel_prr_collection(graph, {0}, 2, RUNS, 5, workers=1)
        t = hoeffding(graph.n)
        assert exact_boost(graph, {0}, {1, 2}) == 2.0
        assert abs(estimate_delta(arena, graph.n, {1, 2}) - 2.0) <= t
        assert abs(estimate_mu(arena, graph.n, {1, 2}) - 1.0) <= t
