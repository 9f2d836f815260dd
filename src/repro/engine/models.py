"""Pluggable diffusion models for the sampling engine.

The engine's forward-cascade paths are parameterized by a
:class:`DiffusionModel`: an object that knows (a) the *effective edge
weight* of every out-CSR position under a boost set, and (b) how a world
is fixed and traversed.  Three built-ins cover the paper's semantics:

``ic``
    The paper's influence boosting model (Definition 1): Independent
    Cascade where an edge into a *boosted head* uses ``p'`` instead of
    ``p``.  This is the default everywhere and the semantics every
    backward sampler (RR / PRR / critical sets) is specialized to.
``ic_out``
    The outgoing-boost variant Section III sketches ("boosted users are
    more influential"): edges *leaving* a boosted tail use ``p'``.
``lt``
    The boosted Linear Threshold extension (Section IX future work):
    node ``v`` activates when its active in-neighbours' summed weights
    reach a uniform threshold ``θ_v``; boosting ``v`` counts its
    incoming weights at ``pp``.

All three share the engine's frontier CSR traversal, splitmix64 world
hashing and lane scratch arena: a model's hashed cascade is a pure
function of ``(seeds, boost, world_seed)`` — evaluated one world at a
time (:meth:`DiffusionModel.simulate_hashed`) or a lane batch of worlds
per frontier step (:meth:`DiffusionModel.cascade_lanes`; the engine
sizes the batches by :data:`~repro.engine.lanes.LANE_BYTES` and the
model's :attr:`~DiffusionModel.lane_kernel`).  Every Monte Carlo
estimator of the engine runs a model's
:meth:`~DiffusionModel.cascade_plan` on lane seeds drawn from the
caller's RNG; only the single RNG-driven cascade
(:meth:`DiffusionModel.simulate`) keeps the draw order of the retained
pure-Python oracles in :mod:`repro.engine.reference`.

Models are stateless singletons resolved by name::

    from repro.engine.models import resolve_model
    resolve_model("ic_out").simulate(engine, seeds, boost, rng)

``None`` resolves to the default incoming-boost IC, the same model (and
the same numbers) as ``"ic"``.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Tuple, Union

import numpy as np

from .lanes import ic_cascade_lanes, lt_cascade_lanes
from .traversal import frontier_edge_positions

__all__ = [
    "DiffusionModel",
    "IncomingBoostIC",
    "OutgoingBoostIC",
    "LinearThreshold",
    "resolve_model",
    "model_names",
    "MODELS",
]


def _boost_mask(n: int, boost: AbstractSet[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    if boost:
        mask[list(boost)] = True
    return mask


def _sorted_seed_idx(seeds) -> np.ndarray:
    idx = np.fromiter(set(seeds), dtype=np.int64)
    idx.sort()
    return idx


def _head_boosted_thresholds(engine, boost: AbstractSet[int]) -> np.ndarray:
    """Definition 1's rule: ``p'`` where the edge's *head* is boosted.

    Shared by incoming-boost IC (activation probabilities) and LT
    (incoming weights) — one copy, two semantics."""
    if not boost:
        return engine._out_p
    mask = _boost_mask(engine.n, boost)
    return np.where(mask[engine._out_nodes], engine._out_pp, engine._out_p)


class DiffusionModel:
    """One diffusion semantics, pluggable into the engine's cascade paths.

    Subclasses provide :meth:`edge_thresholds` (the effective per-out-CSR
    -position weight under a boost set) and the traversal hooks; the
    hashed forms are pure functions of ``(seeds, boost, world seed)`` so
    lane batches and solo evaluations agree bit-for-bit.
    """

    #: Canonical registry key.
    name: str = ""
    #: Accepted alternative spellings.
    aliases: Tuple[str, ...] = ()
    #: The :data:`~repro.engine.lanes.ENTRY_BYTES` key of the lane kernel
    #: behind :meth:`cascade_plan` — what sizes the engine's batches.
    lane_kernel: str = ""

    def prepare_graph(self, graph):
        """The graph view this model runs on (identity for IC models; the
        LT model returns the weight-normalized copy).  Sessions key their
        per-model engine cache on this."""
        return graph

    def edge_thresholds(self, engine, boost: AbstractSet[int]) -> np.ndarray:
        """Effective activation weight per out-CSR position under ``boost``."""
        raise NotImplementedError

    def simulate(self, engine, seeds, boost, rng: np.random.Generator) -> set:
        """One RNG-driven cascade; returns the activated node set.

        Draw order is pinned to the retained pure-Python oracle of the
        same model (:mod:`repro.engine.reference`), so seeded runs are
        bit-for-bit comparable.
        """
        raise NotImplementedError

    def cascade_plan(self, engine, seeds, boost):
        """Bind ``(seeds, boost)`` once for repeated lane batches.

        Returns ``run(lane_seeds, members=False) -> (sizes, counts,
        values)``: the boost-resolved thresholds/weights and the sorted
        seed index are computed here, so estimator loops pay them once
        instead of per chunk.
        """
        raise NotImplementedError

    def cascade_lanes(
        self,
        engine,
        seeds,
        boost,
        lane_seeds: np.ndarray,
        members: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lane-kernel cascades: one hashed world per lane seed.

        Returns ``(sizes, counts, values)`` as documented on
        :func:`repro.engine.lanes.ic_cascade_lanes`.
        """
        return self.cascade_plan(engine, seeds, boost)(
            lane_seeds, members=members
        )

    def simulate_hashed(self, engine, seeds, boost, world_seed: int) -> set:
        """The activated set in the world fixed by ``world_seed`` — the
        single-sample evaluator of the lane kernel's pure function."""
        _sizes, _counts, values = self.cascade_lanes(
            engine,
            seeds,
            boost,
            np.array([world_seed], dtype=np.uint64),
            members=True,
        )
        return set(values.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiffusionModel {self.name!r}>"


class IncomingBoostIC(DiffusionModel):
    """The paper's model: edges into boosted heads use ``p'``."""

    name = "ic"
    aliases = ("ic_in", "incoming")
    lane_kernel = "ic"

    def edge_thresholds(self, engine, boost: AbstractSet[int]) -> np.ndarray:
        return _head_boosted_thresholds(engine, boost)

    def simulate(self, engine, seeds, boost, rng: np.random.Generator) -> set:
        thr = self.edge_thresholds(engine, set(boost))
        return engine._simulate_ic(thr, seeds, rng)

    def cascade_plan(self, engine, seeds, boost):
        thr = self.edge_thresholds(engine, set(boost))
        seed_idx = _sorted_seed_idx(seeds)

        def run(lane_seeds, members: bool = False):
            return ic_cascade_lanes(
                engine, seed_idx, thr, lane_seeds, members=members
            )

        return run


class OutgoingBoostIC(IncomingBoostIC):
    """Section III's variant: edges *leaving* boosted tails use ``p'``."""

    name = "ic_out"
    aliases = ("outgoing", "ic_outgoing")

    def edge_thresholds(self, engine, boost: AbstractSet[int]) -> np.ndarray:
        if not boost:
            return engine._out_p
        mask = _boost_mask(engine.n, boost)
        return np.where(mask[engine._out_src], engine._out_pp, engine._out_p)


class LinearThreshold(DiffusionModel):
    """Boosted LT: incoming weights count at ``pp`` for boosted heads.

    The model's graph view is the LT-normalized copy (each node's
    incoming base weights scaled to sum ≤ 1, boosted weights scaled by
    the same factor and clipped at 1); :meth:`prepare_graph` builds it.
    The engine entry points run on whatever graph their engine wraps —
    callers (and sessions) normalize explicitly, keeping the direct
    functions pure.
    """

    name = "lt"
    aliases = ("linear_threshold",)
    lane_kernel = "lt"

    def prepare_graph(self, graph):
        from ..graphs.digraph import DiGraph

        src, dst, p, pp = graph.edge_arrays()
        in_mass = np.zeros(graph.n)
        np.add.at(in_mass, dst, p)
        scale = np.ones(graph.n)
        heavy = in_mass > 1.0
        scale[heavy] = 1.0 / in_mass[heavy]
        new_p = p * scale[dst]
        new_pp = np.minimum(pp * scale[dst], 1.0)
        return DiGraph(graph.n, src, dst, new_p, new_pp)

    def edge_thresholds(self, engine, boost: AbstractSet[int]) -> np.ndarray:
        # LT weights follow the incoming rule: a boosted node counts its
        # incoming weight at pp — more easily influenced, like Definition 1.
        return _head_boosted_thresholds(engine, boost)

    def simulate(self, engine, seeds, boost, rng: np.random.Generator) -> set:
        """One boosted-LT cascade (thresholds are the only random draw)."""
        thresholds = rng.random(engine.n)
        return self._cascade(engine, seeds, boost, thresholds)

    def _cascade(self, engine, seeds, boost, thresholds: np.ndarray) -> set:
        weights = self.edge_thresholds(engine, set(boost))
        indptr = engine._out_indptr
        nodes = engine._out_nodes
        active = np.zeros(engine.n, dtype=bool)
        frontier = np.fromiter(set(seeds), dtype=np.int64)
        active[frontier] = True
        accumulated = np.zeros(engine.n)
        while frontier.size:
            pos, _counts = frontier_edge_positions(indptr, frontier)
            if pos.size == 0:
                break
            heads = nodes[pos]
            inactive = ~active[heads]
            np.add.at(accumulated, heads[inactive], weights[pos[inactive]])
            touched = np.unique(heads[inactive])
            crossed = np.minimum(accumulated[touched], 1.0) >= thresholds[touched]
            frontier = touched[crossed]
            active[frontier] = True
        return set(np.flatnonzero(active).tolist())

    def cascade_plan(self, engine, seeds, boost):
        weights = self.edge_thresholds(engine, set(boost))
        seed_idx = _sorted_seed_idx(seeds)

        def run(lane_seeds, members: bool = False):
            return lt_cascade_lanes(
                engine, seed_idx, weights, lane_seeds, members=members
            )

        return run


MODELS: Dict[str, DiffusionModel] = {}
_LOOKUP: Dict[str, DiffusionModel] = {}
for _model in (IncomingBoostIC(), OutgoingBoostIC(), LinearThreshold()):
    MODELS[_model.name] = _model
    _LOOKUP[_model.name] = _model
    for _alias in _model.aliases:
        _LOOKUP[_alias] = _model

DEFAULT_MODEL = MODELS["ic"]


def resolve_model(
    model: Union[DiffusionModel, str, None]
) -> DiffusionModel:
    """The model instance for ``model`` (``None`` → incoming-boost IC).

    Accepts a :class:`DiffusionModel` instance, a canonical name, or any
    registered alias; raises ``ValueError`` with the catalog otherwise.
    """
    if model is None:
        return DEFAULT_MODEL
    if isinstance(model, DiffusionModel):
        return model
    resolved = _LOOKUP.get(model)
    if resolved is None:
        raise ValueError(
            f"unknown diffusion model {model!r}; expected one of {model_names()}"
        )
    return resolved


def model_names() -> List[str]:
    """Canonical names of the registered diffusion models, sorted."""
    return sorted(MODELS)
