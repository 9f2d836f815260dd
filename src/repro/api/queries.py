"""Typed query objects — the request side of the session API.

Every algorithm of the reproduction is asked for through one of four
immutable query shapes instead of positional-kwarg soup:

* :class:`BoostQuery` — "given seed set ``S``, pick ``k`` nodes to boost"
  (PRR-Boost, PRR-Boost-LB, MC-greedy, the heuristic baselines),
* :class:`SeedQuery` — "pick ``k`` seed nodes" (IMM, SSA, and the cheap
  degree/random strategies),
* :class:`EvalQuery` — "Monte-Carlo evaluate ``σ_S(B)`` or ``Δ_S(B)``",
* :class:`TreeQuery` — "pick ``k`` boost nodes on a bidirected tree"
  through the exact Section-VI algorithms (DP-Boost / Greedy-Boost);
  the session graph must *be* a bidirected tree.

All three share a :class:`SamplingBudget` (sample caps, accuracy knobs,
Monte-Carlo runs, worker count), an ``algorithm`` key resolved through
:mod:`repro.api.registry`, and a ``model`` key naming the diffusion
semantics (incoming-boost IC — the default — outgoing-boost IC, or LT;
see :mod:`repro.engine.models`).  Queries are frozen dataclasses with
normalized, hashable fields, so they serialize to/from JSON losslessly
(:meth:`to_dict` / :func:`query_from_dict`) — the shape the ``repro
query`` batch subcommand and the serving front ends (``repro serve``,
:mod:`repro.api.serve`) speak.  :meth:`canonical_dict` is the
budget-stripped form the serving tier fingerprints.

``rng_seed`` pins the query's RNG stream for reproducibility; leaving it
``None`` means the caller supplies a live generator to
:meth:`repro.api.Session.run` (the legacy free functions do exactly
that).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

__all__ = [
    "SamplingBudget",
    "BoostQuery",
    "SeedQuery",
    "EvalQuery",
    "TreeQuery",
    "Query",
    "query_from_dict",
]


def _node_tuple(nodes: Optional[Iterable[int]]) -> Tuple[int, ...]:
    """Normalize a node collection to a sorted tuple of unique ints.

    Raises ``ValueError`` on a negative id, which numpy indexing would
    otherwise wrap around to a node counted from the end.  Ids past the
    graph's last node are rejected by the session, which knows ``n``.
    """
    if nodes is None:
        return ()
    out = tuple(sorted({int(v) for v in nodes}))
    if out and out[0] < 0:
        raise ValueError(f"node ids must be non-negative; got {out[0]}")
    return out


@dataclass(frozen=True)
class SamplingBudget:
    """How much work a query may spend, in one shared shape.

    Attributes
    ----------
    max_samples:
        Cap on sampled sets (PRR-graphs / critical sets / RR-sets).
    epsilon, ell:
        Accuracy/confidence parameters of the sampling phases (the
        paper's experiments use ``ε = 0.5``, ``ℓ = 1``).
    mc_runs:
        Monte-Carlo simulations for evaluation queries and for
        candidate-set ranking inside the baselines.
    workers:
        ``> 1`` dispatches sampling to a pool of forked local hosts
        (:mod:`repro.core.parallel`) on fork platforms; ``None``/``1``
        stays serial.  Fork-less platforms silently fall back to serial.
    """

    max_samples: int = 200_000
    epsilon: float = 0.5
    ell: float = 1.0
    mc_runs: int = 1000
    workers: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_samples": int(self.max_samples),
            "epsilon": float(self.epsilon),
            "ell": float(self.ell),
            "mc_runs": int(self.mc_runs),
            "workers": None if self.workers is None else int(self.workers),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SamplingBudget":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown budget fields: {sorted(unknown)}")
        return cls(**dict(data))


def _params_tuple(params: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Normalize the free-form params mapping to a sorted, hashable tuple."""
    if not params:
        return ()
    return tuple(sorted((str(k), params[k]) for k in params))


@dataclass(frozen=True)
class _BaseQuery:
    """Shared fields + serialization of the three query shapes.

    ``model`` names the diffusion semantics the query runs under
    (:mod:`repro.engine.models`): ``"ic"`` — the default incoming-boost
    IC every algorithm supports — ``"ic_out"`` or ``"lt"``.  Aliases are
    normalized to the canonical name at construction, and the field is
    serialized only when it differs from the default so pre-model query
    JSON (and fingerprints) are unchanged.
    """

    algorithm: str = ""
    budget: Optional[SamplingBudget] = None
    rng_seed: Optional[int] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    model: Optional[str] = "ic"
    # Wall-clock budget for this query in milliseconds; ``None`` means no
    # deadline.  An *execution hint*, not semantics: it is excluded from
    # the canonical identity (fingerprints, result-cache keys) because a
    # deadline changes when an answer is abandoned, never what the answer
    # would be.
    deadline_ms: Optional[int] = None

    kind = ""  # overridden per subclass; the "type" tag in JSON

    def __post_init__(self) -> None:
        from ..engine.models import resolve_model

        object.__setattr__(self, "params", _params_tuple(dict(self.params)))
        if self.budget is not None and not isinstance(self.budget, SamplingBudget):
            object.__setattr__(self, "budget", SamplingBudget.from_dict(self.budget))
        object.__setattr__(self, "model", resolve_model(self.model).name)
        if self.deadline_ms is not None:
            deadline = int(self.deadline_ms)
            if deadline < 0:
                raise ValueError("deadline_ms must be >= 0")
            object.__setattr__(self, "deadline_ms", deadline)

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"type": self.kind, "algorithm": self.algorithm}
        if self.model != "ic":
            out["model"] = self.model
        if self.budget is not None:
            out["budget"] = self.budget.to_dict()
        if self.rng_seed is not None:
            out["rng_seed"] = int(self.rng_seed)
        if self.params:
            out["params"] = dict(self.params)
        if self.deadline_ms is not None:
            out["deadline_ms"] = int(self.deadline_ms)
        return out

    def canonical_dict(self) -> Dict[str, Any]:
        """The query's semantic identity — :meth:`to_dict` minus the
        embedded budget and execution hints.

        The serving tier fingerprints queries against the *resolved*
        budget (session default overlaid with the query's own), so the
        embedded copy is redundant there and would make "explicit budget
        equal to the session default" and "no budget" fingerprint
        differently.  ``deadline_ms`` is dropped for the same reason a
        worker count is: it affects whether/when an answer arrives, not
        which answer is correct — so a cached result may satisfy a
        deadlined retry of the same query.
        """
        out = self.to_dict()
        out.pop("budget", None)
        out.pop("deadline_ms", None)
        return out


@dataclass(frozen=True)
class BoostQuery(_BaseQuery):
    """Pick ``k`` nodes to boost, given the fixed seed set ``S``."""

    seeds: Tuple[int, ...] = ()
    k: int = 1
    algorithm: str = "prr_boost"

    kind = "boost"

    def __post_init__(self) -> None:
        _BaseQuery.__post_init__(self)
        object.__setattr__(self, "seeds", _node_tuple(self.seeds))
        object.__setattr__(self, "k", int(self.k))
        if not self.seeds:
            raise ValueError("BoostQuery requires a non-empty seed set")
        if self.k <= 0:
            raise ValueError("k must be positive")

    def to_dict(self) -> Dict[str, Any]:
        out = _BaseQuery.to_dict(self)
        out["seeds"] = list(self.seeds)
        out["k"] = self.k
        return out


@dataclass(frozen=True)
class SeedQuery(_BaseQuery):
    """Pick ``k`` seed nodes (classical influence maximization)."""

    k: int = 1
    algorithm: str = "imm"

    kind = "seed"

    def __post_init__(self) -> None:
        _BaseQuery.__post_init__(self)
        object.__setattr__(self, "k", int(self.k))
        if self.k <= 0:
            raise ValueError("k must be positive")

    def to_dict(self) -> Dict[str, Any]:
        out = _BaseQuery.to_dict(self)
        out["k"] = self.k
        return out


@dataclass(frozen=True)
class EvalQuery(_BaseQuery):
    """Monte-Carlo evaluate a boost set: ``Δ_S(B)`` or ``σ_S(B)``.

    ``metric`` is ``"boost"`` (the common-random-number ``Δ`` estimator)
    or ``"sigma"`` (the boosted spread itself).
    """

    seeds: Tuple[int, ...] = ()
    boost: Tuple[int, ...] = ()
    metric: str = "boost"
    algorithm: str = "evaluate"

    kind = "eval"

    def __post_init__(self) -> None:
        _BaseQuery.__post_init__(self)
        object.__setattr__(self, "seeds", _node_tuple(self.seeds))
        object.__setattr__(self, "boost", _node_tuple(self.boost))
        if not self.seeds:
            raise ValueError("EvalQuery requires a non-empty seed set")
        if self.metric not in ("boost", "sigma"):
            raise ValueError("metric must be 'boost' or 'sigma'")

    def to_dict(self) -> Dict[str, Any]:
        out = _BaseQuery.to_dict(self)
        out["seeds"] = list(self.seeds)
        out["boost"] = list(self.boost)
        out["metric"] = self.metric
        return out


@dataclass(frozen=True)
class TreeQuery(_BaseQuery):
    """Pick ``k`` boost nodes on a bidirected tree (Section VI).

    The session graph must satisfy
    :meth:`~repro.graphs.digraph.DiGraph.is_bidirected_tree`; the handler
    roots it at ``root`` with the query's seed set via
    :meth:`repro.api.Session.tree_for`.  ``algorithm`` is ``"tree_dp"``
    (the DP-Boost FPTAS; the resolved budget's ``epsilon`` is its
    accuracy parameter) or ``"tree_greedy"`` (exact Greedy-Boost).  Both
    are deterministic — no sampling — so results cache on any
    ``rng_seed``.
    """

    seeds: Tuple[int, ...] = ()
    k: int = 1
    root: int = 0
    algorithm: str = "tree_dp"

    kind = "tree"

    def __post_init__(self) -> None:
        _BaseQuery.__post_init__(self)
        object.__setattr__(self, "seeds", _node_tuple(self.seeds))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "root", int(self.root))
        if not self.seeds:
            raise ValueError("TreeQuery requires a non-empty seed set")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.root < 0:
            raise ValueError("root must be a node id")

    def to_dict(self) -> Dict[str, Any]:
        out = _BaseQuery.to_dict(self)
        out["seeds"] = list(self.seeds)
        out["k"] = self.k
        if self.root != 0:
            out["root"] = self.root
        return out


Query = Union[BoostQuery, SeedQuery, EvalQuery, TreeQuery]

_KINDS = {
    "boost": BoostQuery,
    "seed": SeedQuery,
    "eval": EvalQuery,
    "tree": TreeQuery,
}


def query_from_dict(data: Mapping[str, Any]) -> Query:
    """Rebuild a query from its :meth:`to_dict` form (the JSON wire shape).

    ``data["type"]`` selects the query class; remaining keys map to the
    dataclass fields, with ``budget`` given as a nested mapping.  Raises
    ``ValueError`` on unknown types or fields so batch files fail loudly.
    """
    data = dict(data)
    kind = data.pop("type", None)
    if kind not in _KINDS:
        raise ValueError(
            f"unknown query type {kind!r}; expected one of {sorted(_KINDS)}"
        )
    cls = _KINDS[kind]
    if "budget" in data and data["budget"] is not None:
        data["budget"] = SamplingBudget.from_dict(data["budget"])
    if "params" in data and data["params"] is not None:
        data["params"] = dict(data["params"])
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {kind} query fields: {sorted(unknown)} "
            f"(expected a subset of {sorted(known)})"
        )
    return cls(**data)
