"""The uniform result envelope returned by every session query.

One shape replaces the ``BoostResult`` / ``IMMResult`` / ``SSAResult`` /
bare-list zoo at the API boundary: selected nodes, named objective
estimates, sample counts, timings and a reproducibility fingerprint, all
JSON-serializable (:meth:`QueryResult.to_dict` / :meth:`to_json`).

The legacy result object stays reachable as :attr:`QueryResult.raw` for
callers that need algorithm internals (the thin free-function wrappers
return exactly that), but it is never serialized.

Error taxonomy
--------------
Every way a query can end without a normal result maps to one of three
``error`` classes, each carried in a :class:`QueryResult`-shaped JSON
envelope (``selected`` empty, ``extra["error"]`` set) so batch positions
and NDJSON lines keep their shape:

* ``"rejected"`` — admission refused the query before anything ran
  (HTTP 429 at the serving tier).
* ``"timeout"`` — the query's ``deadline_ms`` elapsed (HTTP 504);
  raised in-process as :exc:`QueryTimeout`.
* ``"failed"`` — the algorithm raised (HTTP 500).

A query that runs on a degraded runtime (the serial fallback) still
succeeds; its envelope is marked ``extra["degraded"] = True``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List

__all__ = [
    "QueryResult",
    "QueryTimeout",
    "ERROR_REJECTED",
    "ERROR_TIMEOUT",
    "ERROR_FAILED",
    "error_result",
    "timeout_result",
    "failure_result",
]

ERROR_REJECTED = "rejected"
ERROR_TIMEOUT = "timeout"
ERROR_FAILED = "failed"


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and containers to plain JSON types."""
    if hasattr(value, "tolist"):
        # Covers numpy arrays (-> nested lists) and numpy scalars
        # (-> Python scalars) alike.
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class QueryResult:
    """Outcome of one :meth:`repro.api.Session.run` call.

    Attributes
    ----------
    algorithm:
        The registry key that produced this result.
    selected:
        The chosen node set (boost set, seed set, or empty for pure
        evaluation queries), sorted where the algorithm sorts.
    estimates:
        Named objective estimates (e.g. ``{"boost": ..., "mu": ...,
        "delta": ...}`` for PRR-Boost, ``{"influence": ...}`` for IMM,
        ``{"sigma": ...}`` for an eval query).
    num_samples:
        Sampled sets drawn (0 for purely simulated/heuristic queries).
    timings:
        Wall-clock seconds by stage; ``"total"`` always present.
    fingerprint:
        Hex digest binding the query (algorithm + budget + rng_seed), the
        graph signature and the package version — two runs with equal
        fingerprints and an explicit ``rng_seed`` return identical
        results.
    query:
        The query's :meth:`to_dict` form (round-trippable).
    extra:
        Algorithm-specific JSON-serializable extras (collection stats,
        candidate sets, SSA rounds, ...).
    raw:
        The legacy result object (``BoostResult``/``IMMResult``/...),
        excluded from serialization; ``None`` once the result enters a
        :class:`~repro.api.cache.ResultCache`.
    """

    algorithm: str
    selected: List[int]
    estimates: Dict[str, float] = field(default_factory=dict)
    num_samples: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    query: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    raw: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serializable envelope (everything but :attr:`raw`)."""
        return {
            "algorithm": self.algorithm,
            "selected": [int(v) for v in self.selected],
            "estimates": {k: float(v) for k, v in self.estimates.items()},
            "num_samples": int(self.num_samples),
            "timings": {k: float(v) for k, v in self.timings.items()},
            "fingerprint": self.fingerprint,
            "query": _jsonable(self.query),
            "extra": _jsonable(self.extra),
        }

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QueryResult":
        """Rebuild an envelope from its :meth:`to_dict` wire form.

        The inverse the serving clients need: an NDJSON / HTTP response
        line round-trips back into a :class:`QueryResult` (``raw`` is
        gone — it never crosses the wire).  Unknown keys are rejected so
        malformed payloads fail loudly.
        """
        known = {f.name for f in fields(cls)} - {"raw"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown result fields: {sorted(unknown)}")
        return cls(
            algorithm=str(data.get("algorithm", "")),
            selected=[int(v) for v in data.get("selected", ())],
            estimates={k: float(v) for k, v in data.get("estimates", {}).items()},
            num_samples=int(data.get("num_samples", 0)),
            timings={k: float(v) for k, v in data.get("timings", {}).items()},
            fingerprint=str(data.get("fingerprint", "")),
            query=dict(data.get("query", {})),
            extra=dict(data.get("extra", {})),
        )


def error_result(
    query, error: str, detail: str = "", **extra: Any
) -> QueryResult:
    """A :class:`QueryResult`-shaped envelope for a query that produced
    no normal result.

    ``error`` is one of the taxonomy constants; ``detail`` a human
    message; further keyword arguments land in ``extra`` verbatim.
    ``selected`` is empty and no fingerprint is stamped (nothing — or
    nothing trustworthy — ran).
    """
    payload: Dict[str, Any] = {"error": error}
    if detail:
        payload["detail"] = detail
    payload.update(extra)
    return QueryResult(
        algorithm=getattr(query, "algorithm", ""),
        selected=[],
        query=query.to_dict() if hasattr(query, "to_dict") else dict(query or {}),
        extra=payload,
    )


def timeout_result(query, deadline_ms: int, elapsed_ms: float) -> QueryResult:
    """The ``"timeout"`` envelope: ``deadline_ms`` elapsed before (or
    while) the query ran.  Carries both the budget and the measured
    elapsed time so clients can distinguish a near miss from a query
    that never stood a chance."""
    return error_result(
        query,
        ERROR_TIMEOUT,
        detail=(
            f"deadline of {int(deadline_ms)} ms exceeded "
            f"after {elapsed_ms:.1f} ms"
        ),
        deadline_ms=int(deadline_ms),
        elapsed_ms=round(float(elapsed_ms), 1),
    )


def failure_result(query, exc: BaseException) -> QueryResult:
    """The ``"failed"`` envelope: the algorithm raised ``exc``."""
    return error_result(
        query,
        ERROR_FAILED,
        detail=f"{type(exc).__name__}: {exc}",
        exception=type(exc).__name__,
    )


class QueryTimeout(RuntimeError):
    """Raised by :meth:`Session.run` when a query's ``deadline_ms``
    elapses.  :attr:`envelope` (and :attr:`result`) carry the structured
    ``"timeout"`` shape the serving front ends emit in place of a result
    envelope — mirroring :exc:`~repro.api.admission.AdmissionRejected`.
    """

    def __init__(self, query, deadline_ms: int, elapsed_ms: float) -> None:
        super().__init__(
            f"query {getattr(query, 'algorithm', '?')!r} exceeded its "
            f"deadline of {int(deadline_ms)} ms ({elapsed_ms:.1f} ms elapsed)"
        )
        self.query = query
        self.deadline_ms = int(deadline_ms)
        self.elapsed_ms = float(elapsed_ms)
        self.result = timeout_result(query, deadline_ms, elapsed_ms)

    @property
    def envelope(self) -> Dict[str, Any]:
        return self.result.to_dict()


def fingerprint_of(payload: Dict[str, Any]) -> str:
    """Stable hex digest of a JSON-serializable run descriptor."""
    blob = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
