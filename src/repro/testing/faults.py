"""Deterministic fault injection for the local host pool.

The supervision layer of the sampling runtime (host respawn, chunk
re-assignment, degraded serial fallback; :mod:`repro.dist.coordinator`)
only earns its keep if every recovery path can be driven
*deterministically* in CI.  This module is the driver: a small set of
fault hooks a forked local host checks on every chunk it receives.

Faults are carried in **environment variables**, because local hosts
are forked — a fault plan set in the parent before the pool starts is
inherited by every host (and by every *respawned* host, which is why
the plan is generation-aware: by default a fault fires only for
generation-0 hosts, so a respawned replacement survives and recovery
can be observed rather than re-killed).  Faults fire only in forked
local hosts, never in a remote or in-thread ``serve_worker`` host.

Three fault kinds, mirroring how real hosts fail:

* **kill** — the host ``os._exit(17)``\\ s on receiving a chunk (a hard
  crash mid-chunk: it dies holding every chunk it was sent).  Exercises
  EOF detection, respawn and re-assignment.
* **drop** — the host skips a chunk without answering it and moves on
  (a lost result / silently wedged computation).  Exercises the
  overtaken-answer rule and the task timeout.
* **delay** — the host sleeps before computing (a straggler).
  Exercises scheduling without any failure.

Use the :func:`inject` context manager in tests::

    with faults.inject(kill_worker="any", kill_on_chunk=1):
        runtime = get_runtime(graph, workers=2)   # hosts see the plan
        arena = parallel_prr_collection(graph, seeds, k, 2048, workers=2)

Because every chunk is a pure function of the roots and world seeds it
carries (the runtime's determinism contract), the recovered collection
is bit-identical to the fault-free and in-process runs — which is
exactly what the supervision tests assert.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional

__all__ = [
    "FaultAction",
    "FaultPlan",
    "NO_ACTION",
    "plan_from_env",
    "inject",
]

# Environment carrier keys (str values; hosts read them post-fork).
ENV_KILL_WORKER = "REPRO_FAULT_KILL_WORKER"          # slot number or "any"
ENV_KILL_ON_CHUNK = "REPRO_FAULT_KILL_ON_CHUNK"      # 1-based per-host ordinal
ENV_KILL_GENERATIONS = "REPRO_FAULT_KILL_GENERATIONS"  # "0" (default) or "all"
ENV_DROP_WORKER = "REPRO_FAULT_DROP_WORKER"          # slot number or "any"
ENV_DROP_ON_CHUNK = "REPRO_FAULT_DROP_ON_CHUNK"      # 1-based per-host ordinal
ENV_DELAY_WORKER = "REPRO_FAULT_DELAY_WORKER"        # slot number or "any"
ENV_DELAY_MS = "REPRO_FAULT_DELAY_MS"                # per-chunk delay

_ALL_KEYS = (
    ENV_KILL_WORKER,
    ENV_KILL_ON_CHUNK,
    ENV_KILL_GENERATIONS,
    ENV_DROP_WORKER,
    ENV_DROP_ON_CHUNK,
    ENV_DELAY_WORKER,
    ENV_DELAY_MS,
)


@dataclass(frozen=True)
class FaultAction:
    """What one host must do for one specific chunk."""

    kill: bool = False
    drop: bool = False
    delay_s: float = 0.0


NO_ACTION = FaultAction()


def _matches(spec: Optional[str], worker_id: int) -> bool:
    if spec is None:
        return False
    if spec == "any":
        return True
    try:
        return int(spec) == worker_id
    except ValueError:
        return False


@dataclass(frozen=True)
class FaultPlan:
    """A declarative fault schedule, resolved per (worker, chunk).

    ``*_worker`` selects which host slot misbehaves (``"any"`` for all
    of them); ``*_on_chunk`` is the 1-based ordinal of the chunk *that
    host* receives (not a global chunk id — global assignment depends on
    scheduling, per-host ordinals do not).  Kill faults fire only for
    generation-0 hosts unless ``kill_all_generations`` is set, so a
    respawned host survives by default and degradation (every respawn
    re-killed) is an explicit opt-in.
    """

    kill_worker: Optional[str] = None
    kill_on_chunk: int = 1
    kill_all_generations: bool = False
    drop_worker: Optional[str] = None
    drop_on_chunk: int = 1
    delay_worker: Optional[str] = None
    delay_ms: float = 0.0

    def action_for(
        self, worker_id: int, generation: int, chunk_index: int
    ) -> FaultAction:
        """The action for ``worker_id`` (spawn ``generation``) handling
        its ``chunk_index``-th chunk (1-based)."""
        delay = (
            self.delay_ms / 1000.0
            if self.delay_ms > 0 and _matches(self.delay_worker, worker_id)
            else 0.0
        )
        kill = (
            _matches(self.kill_worker, worker_id)
            and chunk_index == self.kill_on_chunk
            and (self.kill_all_generations or generation == 0)
        )
        drop = (
            _matches(self.drop_worker, worker_id)
            and chunk_index == self.drop_on_chunk
            and generation == 0
        )
        return FaultAction(kill=kill, drop=drop, delay_s=delay)


def plan_from_env(
    environ: Mapping[str, str] = os.environ
) -> Optional[FaultPlan]:
    """The active fault plan, or ``None`` when no fault vars are set.

    Called once per forked host at startup — a host sees the
    environment as it was when the pool (or the respawned host) was
    forked.
    """
    if not any(key in environ for key in _ALL_KEYS):
        return None
    return FaultPlan(
        kill_worker=environ.get(ENV_KILL_WORKER),
        kill_on_chunk=int(environ.get(ENV_KILL_ON_CHUNK, "1")),
        kill_all_generations=environ.get(ENV_KILL_GENERATIONS, "0") == "all",
        drop_worker=environ.get(ENV_DROP_WORKER),
        drop_on_chunk=int(environ.get(ENV_DROP_ON_CHUNK, "1")),
        delay_worker=environ.get(ENV_DELAY_WORKER),
        delay_ms=float(environ.get(ENV_DELAY_MS, "0")),
    )


@contextmanager
def inject(
    kill_worker: Optional[object] = None,
    kill_on_chunk: int = 1,
    kill_all_generations: bool = False,
    drop_worker: Optional[object] = None,
    drop_on_chunk: int = 1,
    delay_worker: Optional[object] = "any",
    delay_ms: float = 0.0,
) -> Iterator[FaultPlan]:
    """Install a fault plan in ``os.environ`` for the duration of a block.

    Pools (and therefore their hosts) created inside the block inherit
    the plan; previous values are restored on exit.  Worker selectors
    accept a slot number or ``"any"``.
    """
    updates: Dict[str, Optional[str]] = {
        ENV_KILL_WORKER: None if kill_worker is None else str(kill_worker),
        ENV_KILL_ON_CHUNK: str(int(kill_on_chunk)),
        ENV_KILL_GENERATIONS: "all" if kill_all_generations else "0",
        ENV_DROP_WORKER: None if drop_worker is None else str(drop_worker),
        ENV_DROP_ON_CHUNK: str(int(drop_on_chunk)),
        ENV_DELAY_WORKER: None if delay_worker is None else str(delay_worker),
        ENV_DELAY_MS: str(float(delay_ms)),
    }
    saved = {key: os.environ.get(key) for key in _ALL_KEYS}
    for key, value in updates.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        plan = plan_from_env()
        assert plan is not None
        yield plan
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
