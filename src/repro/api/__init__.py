"""The session-based query API — one warm facade over the whole system.

PRs 1–3 made sampling, selection and parallel generation fast; this
package makes them *servable*.  Instead of a pile of free functions with
ad-hoc kwargs and per-call cold starts (engine build, pool spin-up,
arena allocation), callers open a :class:`Session` on a graph and submit
typed queries:

* :class:`SamplingBudget` — shared work limits (samples, ε/ℓ, MC runs,
  workers),
* :class:`BoostQuery` / :class:`SeedQuery` / :class:`EvalQuery` — the
  three request shapes, JSON-round-trippable via
  :func:`query_from_dict`,
* :class:`QueryResult` — the uniform serializable answer envelope
  (selected set, named estimates, sample counts, timings, and a
  reproducibility fingerprint),
* :func:`register_algorithm` — the string-keyed registry every
  algorithm (built-in or third-party) dispatches through.

On top of the session sits the serving tier: a fingerprint-keyed
:class:`ResultCache` (graph-version-invalidated envelope memoization),
an :class:`AdmissionPolicy` pricing queries before sampling
(:exc:`AdmissionRejected` / structured rejection envelopes), the
overlapped :meth:`Session.run_many` pipelining independent seeded
queries over the local host pool, and the :func:`serve_ndjson` /
:func:`serve_http` front ends behind ``repro serve``.

The legacy free functions (``prr_boost``, ``prr_boost_lb``, ``imm``,
``ssa``, ...) remain available as thin wrappers over a default throwaway
session, returning their historical result objects bit-for-bit.
"""

from . import algorithms as _algorithms  # noqa: F401  (registers built-ins)
from .admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionRejected,
    QueryCost,
    estimate_cost,
)
from .cache import ResultCache
from .queries import (
    BoostQuery,
    EvalQuery,
    Query,
    SamplingBudget,
    SeedQuery,
    TreeQuery,
    query_from_dict,
)
from .registry import algorithm_names, get_algorithm, register_algorithm
from .result import (
    ERROR_DEGRADED,
    ERROR_FAILED,
    ERROR_REJECTED,
    ERROR_TIMEOUT,
    QueryResult,
    QueryTimeout,
    degraded_result,
    error_result,
    failure_result,
    timeout_result,
)
from .serve import serve_http, serve_ndjson
from .session import Session

__all__ = [
    "Session",
    "SamplingBudget",
    "BoostQuery",
    "SeedQuery",
    "EvalQuery",
    "TreeQuery",
    "Query",
    "QueryResult",
    "query_from_dict",
    "register_algorithm",
    "get_algorithm",
    "algorithm_names",
    "ResultCache",
    "AdmissionPolicy",
    "AdmissionDecision",
    "AdmissionRejected",
    "QueryCost",
    "estimate_cost",
    "serve_ndjson",
    "serve_http",
    "QueryTimeout",
    "ERROR_REJECTED",
    "ERROR_TIMEOUT",
    "ERROR_FAILED",
    "ERROR_DEGRADED",
    "error_result",
    "timeout_result",
    "failure_result",
    "degraded_result",
]
