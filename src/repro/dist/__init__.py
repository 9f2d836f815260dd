"""The sampling runtime's one chunk transport: hosts over a socket.

The same coordinator drives the local pool and remote machines:

* :mod:`repro.dist.protocol` — the length-prefixed binary wire format:
  handshake with graph fingerprint + store digest, chunk assignment,
  raw-array result frames,
* :mod:`repro.dist.worker` — the host side: one chunk loop, run by
  ``repro dist-worker --graph-store ...`` on a remote machine (it opens
  its replica of the graph locally: an mmap open with zero warm-up via
  the persisted engine precompute) and by every forked local host on
  its end of a ``socket.socketpair()``,
* :mod:`repro.dist.coordinator` — :class:`DistributedRuntime`, the
  client-side coordinator: the one
  :class:`~repro.core.parallel.ChunkExecutor` transport (the run /
  merge / retry / degrade core lives there), which scatters chunks over
  its hosts and supervises them (bounded re-assignment on loss, local
  host respawn, degraded fallback).

The determinism contract is the one the whole runtime keeps: every
chunk carries the roots and world seeds its samples were drawn with
from the query's RNG, evaluating them is a pure function, and the
executor restores submission order — so results are bit-identical to
the in-process path regardless of host count, chunk interleaving, or
which host computed what.
"""

from .coordinator import DistributedRuntime, parse_hosts
from .protocol import graph_fingerprint, store_digest
from .worker import serve_worker

__all__ = [
    "DistributedRuntime",
    "parse_hosts",
    "graph_fingerprint",
    "store_digest",
    "serve_worker",
]
