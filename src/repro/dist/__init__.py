"""Multi-host distributed sampling runtime.

The single-host ceiling of :mod:`repro.core.parallel` (local cores) and
:mod:`repro.storage` (one machine's page cache) is lifted by sharding
sample chunks across worker *hosts*:

* :mod:`repro.dist.protocol` — the length-prefixed binary wire format:
  handshake with graph fingerprint + store digest, chunk assignment,
  raw-array result frames (the same flat payload encodings the
  shared-memory runtime ships between processes),
* :mod:`repro.dist.worker` — the host-side server (``repro
  dist-worker --graph-store ...``): opens the replicated graph store
  locally (mmap, zero warm-up via the persisted engine precompute) and
  runs assigned chunks through its own local
  :class:`~repro.core.parallel.SharedGraphRuntime`,
* :mod:`repro.dist.coordinator` — :class:`DistributedRuntime`, the
  client-side coordinator that scatters chunks, supervises hosts
  (bounded re-assignment on loss, degraded fallback to the local
  runtime) and merges results deterministically.

The determinism contract is the one the local runtime keeps: every
chunk carries the roots and world seeds its samples were drawn with
from the query's RNG, evaluating them is a pure function, and the
gatherer restores submission order — so results are bit-identical to
the in-process and single-host paths regardless of host count, chunk
interleaving, or which host computed what.
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
