"""Query admission control: reject or queue over-budget work *before*
sampling starts.

An interactive serving tier cannot let one pathological query (a huge
``max_samples`` budget, a Monte-Carlo evaluation with millions of runs)
monopolize the worker pool while cheap queries wait.  Admission puts a
cost model in front of :meth:`repro.api.Session.run`:

* :func:`estimate_cost` prices a typed query in abstract **work units**
  from quantities known before any sampling happens — the graph's
  ``n``/``m`` (engine precomputes), the query's sample/MC budgets, and
  the engine's lane width (batched sampling amortizes per-sample
  overhead across a lane, so lane-kernel algorithms are discounted by
  the achievable lane occupancy),
* :class:`AdmissionPolicy` compares the estimate to its thresholds and
  returns an :class:`AdmissionDecision` — ``admit``, ``queue`` (run, but
  only after the batch's admitted queries; ``run_many`` and the serving
  front end honour this) or ``reject`` (do not run at all),
* a rejected query surfaces as :exc:`AdmissionRejected`, whose
  :attr:`~AdmissionRejected.envelope` is the structured JSON shape the
  NDJSON/HTTP front ends return instead of a result.

Units are *relative* work, not seconds: ratios between queries are
machine-independent, so a policy tuned once transfers.  To reason in
wall-clock terms anyway, :meth:`AdmissionPolicy.calibrated` times a tiny
RR-sampling probe on the live session's engine and converts a seconds
budget into units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .result import ERROR_REJECTED

__all__ = [
    "QueryCost",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionRejected",
    "estimate_cost",
    "rejection_result",
]

ADMIT = "admit"
QUEUE = "queue"
REJECT = "reject"

# Algorithms whose dominant phase draws sampled sets with the backward
# lane kernels (cost scales with the sample budget), vs. Monte-Carlo
# simulation (cost scales with mc_runs x cascade size), vs. cheap
# structural heuristics.
_SAMPLING_ALGORITHMS = frozenset(
    {"prr_boost", "prr_boost_lb", "imm", "ssa", "more_seeds"}
)
_STRUCTURAL_ALGORITHMS = frozenset(
    {"degree", "random", "degree_global", "degree_local", "pagerank", "ppr"}
)
# The boost baselines, which rank their candidate sets by Monte Carlo
# unless their ``evaluate`` param is false; the ``degree`` and ``random``
# seed strategies run no simulation.
_RANKED_BASELINES = frozenset(
    {"degree_global", "degree_local", "pagerank", "ppr", "more_seeds"}
)
# Exact tree algorithms (Section VI): deterministic, sampling-free, priced
# from their table/DP dimensions instead of a sample budget.
_TREE_ALGORITHMS = frozenset({"tree_dp", "tree_greedy"})


@dataclass(frozen=True)
class QueryCost:
    """Pre-sampling price of one typed query.

    ``samples`` is the worst-case number of sampled sets / simulated
    cascades the budget allows; ``edges_per_sample`` the modelled
    traversal work each one costs; ``units`` their product (plus fixed
    overheads) — the number admission thresholds compare against.
    """

    samples: int
    edges_per_sample: float
    units: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "samples": int(self.samples),
            "edges_per_sample": round(float(self.edges_per_sample), 3),
            "units": round(float(self.units), 1),
        }


def estimate_cost(session, query) -> QueryCost:
    """Price ``query`` on ``session``'s graph before any sampling runs.

    Uses only precomputed quantities: ``n``/``m`` from the engine's CSR
    views, the resolved :class:`~repro.api.queries.SamplingBudget`, and
    the lane width.  Deliberately a *worst-case* model — admission exists
    to bound the damage a budget permits, not to predict the adaptive
    phases' early exit.
    """
    from ..engine.lanes import LANE_WIDTH

    graph = session.graph
    n = max(int(graph.n), 1)
    m = max(int(graph.m), 1)
    budget = session.resolve_budget(query)
    avg_deg = m / n
    algorithm = query.algorithm
    ranked = algorithm in _RANKED_BASELINES and dict(query.params).get(
        "evaluate", True
    )
    # Sampling capacity the session can actually bring to bear: remote
    # host×worker capacity for a distributed session, the budget's local
    # worker count otherwise (1 for plain serial sessions, so the
    # pre-distributed unit scale is unchanged).  Units stay *relative*
    # work per lane-second, which is what the thresholds price.
    parallelism = 1.0
    capacity_of = getattr(session, "effective_parallelism", None)
    if callable(capacity_of):
        parallelism = max(1.0, float(capacity_of(query)))

    if algorithm in _SAMPLING_ALGORITHMS:
        samples = int(budget.max_samples)
        # A backward sample explores a neighbourhood: ~avg_deg edges per
        # frontier level over a few levels; lane batching amortizes the
        # per-sample frontier overhead across the occupied lanes.
        occupancy = min(LANE_WIDTH, max(samples, 1))
        edges = max(avg_deg, 1.0) * 4.0 + LANE_WIDTH / occupancy
        units = samples * edges
        if algorithm in ("prr_boost", "more_seeds"):
            # Full PRR-graph assembly (phase 2 compression) roughly
            # doubles the per-sample work vs critical-set-only sampling.
            units *= 2.0
        # Chunked sampling spreads across the session's whole capacity —
        # a multi-host session must not spuriously reject work it can
        # absorb (the selection phase stays local, hence the floor of
        # one fully-serial sample's worth below).
        units = max(units / parallelism, edges)
        if ranked:
            # MoreSeeds' Monte Carlo ranking runs in this process, at any
            # sampling capacity.
            units += budget.mc_runs * float(m)
    elif algorithm == "evaluate":
        samples = int(budget.mc_runs)
        edges = float(m)  # a forward cascade can test every edge
        units = samples * edges
    elif algorithm == "mc_greedy":
        k = int(getattr(query, "k", 1))
        samples = int(budget.mc_runs) * max(k, 1)
        edges = float(m)
        units = samples * edges
    elif algorithm in _TREE_ALGORITHMS:
        # Deterministic tree DPs: no sampled sets, so cost comes from the
        # table dimensions known up front.  DP-Boost fills O(n·(k+1))
        # table rows whose c/f grids are O(1/ε) wide (δ ∝ ε), giving
        # n·(k+1)·(1/ε)² cell updates; Greedy-Boost is k+1 exact O(n)
        # passes with a small per-node constant.
        samples = 0
        k = int(getattr(query, "k", 1))
        if algorithm == "tree_dp":
            grid = 1.0 / max(float(budget.epsilon), 1e-3)
            units = float(n) * (k + 1) * grid * grid
        else:
            units = float(n) * (k + 1) * 4.0
        edges = float(m)
    elif algorithm in _STRUCTURAL_ALGORITHMS:
        # Degree/PageRank-style heuristics: linear passes over the graph,
        # plus the Monte-Carlo ranking of candidate sets when enabled.
        samples = 0
        units = float(n + m)
        if algorithm in ("pagerank", "ppr"):
            units += 100.0 * m
        if ranked:
            samples = int(budget.mc_runs)
            units += samples * float(m)
        edges = float(m)
    else:
        # Unknown (third-party) algorithm: price it like a sampling one
        # so a policy still bounds it, rather than waving it through.
        samples = int(budget.max_samples)
        edges = max(avg_deg, 1.0) * 4.0
        units = max(samples * edges / parallelism, edges)
    return QueryCost(samples=samples, edges_per_sample=edges, units=units)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of :meth:`AdmissionPolicy.decide` for one query."""

    action: str  # "admit" | "queue" | "reject"
    cost: QueryCost
    reason: str = ""
    limit: Optional[float] = None

    @property
    def admitted(self) -> bool:
        return self.action != REJECT

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"action": self.action, "cost": self.cost.to_dict()}
        if self.reason:
            out["reason"] = self.reason
        if self.limit is not None:
            out["limit"] = round(float(self.limit), 1)
        return out


class AdmissionRejected(RuntimeError):
    """Raised by :meth:`Session.run` when admission rejects a query.

    :attr:`envelope` is the structured rejection shape the serving front
    ends emit in place of a result envelope.
    """

    def __init__(self, query, decision: AdmissionDecision) -> None:
        super().__init__(
            f"admission rejected {query.algorithm!r}: {decision.reason}"
        )
        self.query = query
        self.decision = decision

    @property
    def envelope(self) -> Dict[str, Any]:
        return {
            "error": ERROR_REJECTED,
            "admission": self.decision.to_dict(),
            "query": self.query.to_dict(),
        }


def rejection_result(query, decision: AdmissionDecision):
    """A :class:`~repro.api.result.QueryResult`-shaped rejection envelope.

    Batch executors called with ``on_reject="envelope"`` slot this in
    place of a real result so positions in the returned list still line
    up with the submitted queries.  ``extra["admission"]`` carries the
    structured decision; ``selected`` is empty and no fingerprint is
    stamped (nothing ran).
    """
    from .result import error_result

    return error_result(query, ERROR_REJECTED, admission=decision.to_dict())


class AdmissionPolicy:
    """Threshold policy over :func:`estimate_cost`.

    Parameters
    ----------
    reject_units:
        Queries estimated above this many units are rejected outright.
        ``None`` disables rejection.
    queue_units:
        Queries above this (but within ``reject_units``) are *queued*:
        a batch runs them after every query it admitted, so heavy work
        never delays interactive traffic.
        ``None`` disables queueing.
    max_samples, max_mc_runs:
        Hard caps on the respective budget fields, independent of the
        unit model — the blunt guardrails a public endpoint wants.
    """

    def __init__(
        self,
        reject_units: Optional[float] = None,
        queue_units: Optional[float] = None,
        max_samples: Optional[int] = None,
        max_mc_runs: Optional[int] = None,
    ) -> None:
        if (
            reject_units is not None
            and queue_units is not None
            and queue_units > reject_units
        ):
            raise ValueError("queue_units must not exceed reject_units")
        self.reject_units = reject_units
        self.queue_units = queue_units
        self.max_samples = max_samples
        self.max_mc_runs = max_mc_runs

    @classmethod
    def calibrated(
        cls,
        session,
        reject_seconds: float,
        queue_seconds: Optional[float] = None,
        probe_samples: int = 256,
        **kwargs: Any,
    ) -> "AdmissionPolicy":
        """A policy whose unit thresholds approximate wall-clock budgets.

        Times ``probe_samples`` RR-sets on the session's warm engine (a
        few milliseconds), derives this machine's units-per-second, and
        converts the seconds budgets.  The probe consumes a private RNG
        stream, never the session's.

        The probe runs on one serial lane, and :func:`estimate_cost`
        divides sampling work by the session's effective host×worker
        parallelism — so on a distributed session the thresholds price
        *wall-clock* capacity (a query the cluster absorbs in
        ``reject_seconds`` is admitted even though one lane could not).
        """
        import numpy as np

        engine = session.engine
        probe_units = probe_samples * max(
            session.graph.m / max(session.graph.n, 1), 1.0
        ) * 4.0
        start = time.perf_counter()
        engine.rr_lane_csr(np.random.default_rng(0), probe_samples)
        elapsed = max(time.perf_counter() - start, 1e-6)
        units_per_second = probe_units / elapsed
        return cls(
            reject_units=reject_seconds * units_per_second,
            queue_units=(
                None if queue_seconds is None
                else queue_seconds * units_per_second
            ),
            **kwargs,
        )

    def decide(self, session, query) -> AdmissionDecision:
        """Price ``query`` and place it: admit, queue, or reject."""
        cost = estimate_cost(session, query)
        budget = session.resolve_budget(query)
        if self.max_samples is not None and budget.max_samples > self.max_samples:
            return AdmissionDecision(
                REJECT, cost,
                reason=(
                    f"budget.max_samples={budget.max_samples} exceeds the "
                    f"policy cap {self.max_samples}"
                ),
                limit=float(self.max_samples),
            )
        if self.max_mc_runs is not None and budget.mc_runs > self.max_mc_runs:
            return AdmissionDecision(
                REJECT, cost,
                reason=(
                    f"budget.mc_runs={budget.mc_runs} exceeds the policy "
                    f"cap {self.max_mc_runs}"
                ),
                limit=float(self.max_mc_runs),
            )
        if self.reject_units is not None and cost.units > self.reject_units:
            return AdmissionDecision(
                REJECT, cost,
                reason=(
                    f"estimated {cost.units:.0f} work units exceed the "
                    f"rejection threshold {self.reject_units:.0f}"
                ),
                limit=self.reject_units,
            )
        if self.queue_units is not None and cost.units > self.queue_units:
            return AdmissionDecision(
                QUEUE, cost,
                reason=(
                    f"estimated {cost.units:.0f} work units exceed the "
                    f"queue threshold {self.queue_units:.0f}"
                ),
                limit=self.queue_units,
            )
        # Runtime health gate: a degraded runtime (worker pool lost,
        # serial fallback only) still serves correct results, but at
        # serial throughput — admitting every interactive query would
        # stack up convoys.  Queue what would have been admitted: it
        # still runs, after whatever its batch admitted.
        health = None
        health_of = getattr(session, "runtime_health", None)
        if callable(health_of):
            health = health_of()
        if health is not None and getattr(health, "degraded", False):
            return AdmissionDecision(
                QUEUE, cost,
                reason=(
                    "runtime degraded (worker pool lost): queued behind "
                    "the admitted queries at serial throughput"
                ),
            )
        return AdmissionDecision(ADMIT, cost)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reject_units": self.reject_units,
            "queue_units": self.queue_units,
            "max_samples": self.max_samples,
            "max_mc_runs": self.max_mc_runs,
        }
