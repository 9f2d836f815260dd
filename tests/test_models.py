"""Pluggable diffusion-model layer suite.

Pins the contracts of :mod:`repro.engine.models` and the cascade lane
kernels of :mod:`repro.engine.lanes`:

* **exact** — for every model (incoming-boost IC, outgoing-boost IC,
  boosted LT) the world-seeded engine cascade is bit-for-bit the
  retained pure-Python loop oracle of :mod:`repro.engine.reference`, and
  a lane batch is bit-for-bit the solo hashed evaluation per lane;
  RNG-driven outgoing-boost cascades consume the oracle's stream
  draw-for-draw,
* **ground truth** — Monte-Carlo estimates match exact world enumeration
  on tiny graphs, and simulated greedy (the model-generic selector)
  recovers the exhaustive ``optimal_boost_set`` optimum under both boost
  semantics,
* **API** — ``model=`` flows through queries, the session's per-model
  engine-cache keying, and the IC-only algorithm gates.
"""

import numpy as np
import pytest

from repro.api import BoostQuery, EvalQuery, Session, query_from_dict
from repro.core.mc_greedy import mc_greedy_boost
from repro.diffusion import (
    estimate_boost,
    estimate_boost_outgoing,
    estimate_lt_boost,
    exact_boost_outgoing,
    exact_sigma_outgoing,
    normalize_lt_weights,
    optimal_boost_set,
    simulate_spread_outgoing,
)
from repro.engine import SamplingEngine, model_names, resolve_model
from repro.engine.models import DEFAULT_MODEL
from repro.engine.reference import (
    reference_simulate_lt_spread_hashed,
    reference_simulate_spread,
    reference_simulate_spread_outgoing,
)
from repro.engine.world import lane_node_thresholds
from repro.engine.hashing import hash_draw
from repro.graphs import DiGraph, GraphBuilder, learned_like, preferential_attachment

ALL_MODELS = ("ic", "ic_out", "lt")


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(17)
    return learned_like(preferential_attachment(300, 3, rng), rng, 0.25)


@pytest.fixture(scope="module")
def engine(graph):
    return SamplingEngine.for_graph(graph)


def figure1_graph():
    return DiGraph(3, [0, 1], [1, 2], [0.2, 0.1], [0.4, 0.2])


class TestRegistry:
    def test_canonical_names(self):
        assert model_names() == ["ic", "ic_out", "lt"]

    def test_aliases_resolve(self):
        assert resolve_model("incoming") is resolve_model("ic")
        assert resolve_model("outgoing") is resolve_model("ic_out")
        assert resolve_model("linear_threshold") is resolve_model("lt")
        assert resolve_model(None) is DEFAULT_MODEL

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError, match="unknown diffusion model"):
            resolve_model("no_such_model")

    def test_thresholds_dispatch(self, engine):
        g = engine.graph
        boost = {1}
        thr_in = resolve_model(None).edge_thresholds(engine, boost)
        thr_out = resolve_model("ic_out").edge_thresholds(engine, boost)
        out = g.out_csr()
        heads_boosted = np.isin(out.nodes, list(boost))
        tails = np.repeat(np.arange(g.n), np.diff(out.indptr))
        tails_boosted = np.isin(tails, list(boost))
        assert np.array_equal(thr_in, np.where(heads_boosted, out.pp, out.p))
        assert np.array_equal(thr_out, np.where(tails_boosted, out.pp, out.p))


class TestWorldSeededOracleParity:
    """The headline exactness contract: for a fixed world seed, the
    engine cascade (solo hashed evaluator = one-lane kernel call) equals
    the retained pure-Python loop oracle bit-for-bit."""

    SEEDS = {0, 1, 2}
    BOOST = {5, 6, 7}

    def _oracle(self, model, graph, ws):
        if model == "ic":
            return reference_simulate_spread(
                graph, self.SEEDS, self.BOOST, world_seed=ws
            )
        if model == "ic_out":
            return reference_simulate_spread_outgoing(
                graph, self.SEEDS, self.BOOST, world_seed=ws
            )
        return reference_simulate_lt_spread_hashed(
            graph, self.SEEDS, self.BOOST, ws
        )

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_hashed_cascade_equals_loop_oracle(self, graph, engine, model):
        for ws in range(900, 950):
            eng = engine.simulate_hashed(self.SEEDS, self.BOOST, ws, model=model)
            assert eng == self._oracle(model, graph, ws), (model, ws)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_lane_batch_equals_solo_per_lane(self, engine, model):
        mdl = resolve_model(model)
        world_seeds = np.arange(4000, 4000 + 70, dtype=np.uint64)
        sizes, counts, members = mdl.cascade_lanes(
            engine, self.SEEDS, self.BOOST, world_seeds, members=True
        )
        assert np.array_equal(sizes, counts)
        offsets = np.zeros(world_seeds.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        for i in range(world_seeds.size):
            solo = engine.simulate_hashed(
                self.SEEDS, self.BOOST, int(world_seeds[i]), model=model
            )
            lane = members[offsets[i] : offsets[i + 1]]
            assert set(lane.tolist()) == solo, (model, i)
            assert np.array_equal(lane, np.sort(lane))  # sorted per lane

    def test_cascade_lane_csr_matches_simulate_hashed_distribution(self, engine):
        # cascade_lane_csr draws per-sample world seeds upfront; the CSR
        # shape must be consistent and sizes must match a paired rerun.
        c1, v1 = engine.cascade_lane_csr(
            self.SEEDS, self.BOOST, np.random.default_rng(5), 80, model="ic_out"
        )
        c2, v2 = engine.cascade_lane_csr(
            self.SEEDS, self.BOOST, np.random.default_rng(5), 80, model="ic_out"
        )
        assert np.array_equal(c1, c2) and np.array_equal(v1, v2)
        assert c1.size == 80 and c1.sum() == v1.size

    def test_rng_outgoing_cascade_matches_oracle_stream(self, graph, engine):
        """RNG-driven engine ic_out cascades consume the legacy loop's
        stream draw-for-draw."""
        for trial in range(25):
            r_ref = np.random.default_rng(200 + trial)
            r_eng = np.random.default_rng(200 + trial)
            ref = reference_simulate_spread_outgoing(
                graph, self.SEEDS, self.BOOST, rng=r_ref
            )
            eng = simulate_spread_outgoing(graph, self.SEEDS, self.BOOST, r_eng)
            assert eng == ref
            assert r_ref.random() == r_eng.random()

    def test_lt_thresholds_are_node_hash_diagonal(self):
        seeds = np.array([3, 99], dtype=np.uint64)
        lanes = np.array([0, 1, 1])
        nodes = np.array([4, 4, 7])
        got = lane_node_thresholds(seeds, lanes, nodes)
        expected = [
            hash_draw(int(seeds[l]), int(v), int(v)) for l, v in zip(lanes, nodes)
        ]
        assert got.tolist() == expected


class TestEstimatorsAgainstExact:
    def test_outgoing_sigma_matches_exact(self):
        g = figure1_graph()
        eng = SamplingEngine.for_graph(g)
        est = eng.estimate_sigma(
            {0}, {0}, np.random.default_rng(4), runs=30_000, model="ic_out"
        )
        assert est == pytest.approx(exact_sigma_outgoing(g, {0}, {0}), abs=0.02)

    def test_outgoing_boost_estimator_matches_exact(self):
        g = figure1_graph()
        est = estimate_boost_outgoing(
            g, {0}, {1}, np.random.default_rng(5), runs=30_000
        )
        assert est == pytest.approx(exact_boost_outgoing(g, {0}, {1}), abs=0.02)

    def test_lt_single_edge_boost_gap(self):
        # one edge 0 -> 1, weight 0.3 base / 0.7 boosted: E[Δ] = 0.4
        g = DiGraph(2, [0], [1], [0.3], [0.7])
        est = estimate_lt_boost(g, {0}, {1}, np.random.default_rng(6), runs=30_000)
        assert est == pytest.approx(0.4, abs=0.02)

    @pytest.mark.parametrize("model", ("ic_out", "lt"))
    def test_empty_boost_is_exactly_zero(self, graph, model):
        # Hashed-world CRN: both arms replay the identical world, so the
        # paired difference is exactly 0 — no estimator noise at all.
        est = estimate_boost(
            graph, {0, 1}, set(), np.random.default_rng(7), runs=300, model=model
        )
        assert est == 0.0

    def test_incoming_model_keeps_legacy_stream(self, graph):
        # No model and model="ic" are the same incoming-boost IC: both
        # draw the same lane seeds from the generator and replay the same
        # hashed worlds, so pre-model callers get the named model's
        # numbers bit-for-bit.
        a = estimate_boost(graph, {0, 1}, {5}, np.random.default_rng(8), runs=50)
        b = estimate_boost(
            graph, {0, 1}, {5}, np.random.default_rng(8), runs=50, model="ic"
        )
        assert a == b


class TestOptimalBoostOracleBothSemantics:
    def tiny_graph(self):
        b = GraphBuilder(5)
        b.add_edge(0, 1, 0.2, 0.8)
        b.add_edge(1, 2, 0.9, 0.9)
        b.add_edge(1, 3, 0.9, 0.9)
        b.add_edge(0, 4, 0.3, 0.4)
        return b.build()

    def test_outgoing_oracle_figure1(self):
        g = figure1_graph()
        best_set, best_value = optimal_boost_set(g, {0}, 1, model="ic_out")
        # boosting v1 raises p(v1->v2) from .1 to .2: gain = 0.2 * 0.1
        assert best_set == [1]
        assert best_value == pytest.approx(0.02)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="no exact oracle"):
            optimal_boost_set(figure1_graph(), {0}, 1, model="lt")

    @pytest.mark.parametrize("model", ("ic", "ic_out"))
    def test_mc_greedy_recovers_optimum(self, model):
        """Ground-truth agreement: the model-generic simulated greedy
        finds the exhaustive optimum under both boost semantics."""
        g = self.tiny_graph()
        oracle_set, oracle_value = optimal_boost_set(g, {0}, 1, model=model)
        chosen = mc_greedy_boost(
            g, {0}, 1, np.random.default_rng(10), runs=4000, model=model
        )
        assert chosen == oracle_set
        # and the MC estimate of the chosen set tracks the exact optimum
        est = estimate_boost(
            g, {0}, set(chosen), np.random.default_rng(11), runs=20_000,
            model=model,
        )
        assert est == pytest.approx(oracle_value, abs=0.05)


class TestSessionModelServing:
    def test_eval_queries_all_models(self, graph):
        with Session(graph) as session:
            values = {}
            for model in ALL_MODELS:
                res = session.run(
                    EvalQuery(
                        seeds=[0, 1, 2], boost=[5, 6, 7], metric="boost",
                        model=model, rng_seed=3,
                    )
                )
                values[model] = res.estimates["boost"]
                assert res.extra["model"] == model
                assert res.query.get("model", "ic") == model
            assert len({round(v, 6) for v in values.values()}) >= 2

    def test_model_fingerprints_differ(self, graph):
        with Session(graph) as session:
            fps = {
                model: session.run(
                    EvalQuery(seeds=[0, 1], metric="sigma", model=model,
                              rng_seed=1)
                ).fingerprint
                for model in ALL_MODELS
            }
        assert len(set(fps.values())) == 3

    def test_lt_graph_view_cached_and_normalized(self, graph):
        with Session(graph) as session:
            lt_graph = session.graph_for("lt")
            assert session.graph_for("linear_threshold") is lt_graph
            assert session.engine_for("lt") is SamplingEngine.for_graph(lt_graph)
            assert session.engine_for("ic") is session.engine
            assert session.engine_for("ic_out") is session.engine
            in_mass = np.zeros(graph.n)
            _src, dst, p, _pp = lt_graph.edge_arrays()
            np.add.at(in_mass, dst, p)
            assert in_mass.max() <= 1.0 + 1e-9
            # matches the public normalizer exactly
            norm = normalize_lt_weights(graph)
            assert np.allclose(lt_graph.edge_arrays()[2], norm.edge_arrays()[2])

    def test_ic_only_algorithms_gate(self, graph):
        with Session(graph) as session:
            for algorithm in ("prr_boost", "prr_boost_lb"):
                with pytest.raises(ValueError, match="incoming-boost"):
                    session.run(
                        BoostQuery(
                            algorithm=algorithm, seeds=[0, 1], k=2, model="lt"
                        )
                    )

    def test_query_model_roundtrip_and_default_shape(self):
        q = EvalQuery(seeds=[0], model="outgoing", rng_seed=1)
        assert q.model == "ic_out"
        assert query_from_dict(q.to_dict()) == q
        assert "model" not in EvalQuery(seeds=[0]).to_dict()

    def test_mc_greedy_query_with_model(self, graph):
        from repro.api import SamplingBudget

        with Session(graph) as session:
            res = session.run(
                BoostQuery(
                    algorithm="mc_greedy", seeds=[0, 1], k=1, model="ic_out",
                    rng_seed=2, budget=SamplingBudget(mc_runs=60),
                )
            )
            assert len(res.selected) == 1
