"""Wire format of the distributed sampling runtime.

Every message is one length-prefixed frame::

    <u32 header_len> <header json> <raw array bytes ...>

The header is a small JSON object carrying ``type`` plus message fields;
its ``arrays`` key is an offset-free table ``[[dtype_str, shape], ...]``
describing the raw, C-contiguous numpy buffers concatenated after it —
the same flat-array payloads :func:`repro.core.parallel._ship_result`
moves between local worker processes, reused here so a remote chunk
result is byte-for-byte the array list the local runtime would have
produced.  A ``chunks`` frame's header lists the job ids; its arrays are
each job's sample inputs, roots (int64) then world seeds (uint64), two
per job in job order.  Array payloads never round through JSON, so the
world seeds stay exact 64-bit words.

Handshake: the coordinator opens with ``hello`` carrying the protocol
version, a **graph fingerprint** (``n``, ``m`` and the rounded
probability sums — the same graph component the Session fingerprint
uses) and, for store-backed graphs, a **store digest** (header bytes +
file size).  The worker refuses mismatches with an ``error`` frame, so a
stale replica or the wrong store fails loudly at connect time instead of
silently merging samples from a different graph.

Message types
-------------
``hello``        coordinator → worker: version, fingerprint, store digest
``welcome``      worker → coordinator: accepted; host capacity (workers)
``error``        worker → coordinator: handshake refused / fatal failure
``chunks``       coordinator → worker: a slice of chunk jobs to run
``result``       worker → coordinator: one chunk's flat array payload
``chunk_error``  worker → coordinator: a chunk raised (deterministic
                 failures fail fast — retrying elsewhere reproduces them)
``bye``          coordinator → worker: session over, close the connection

A worker answers a malformed ``chunks`` frame (missing keys, unknown
kind, bad params, job arrays that do not match the jobs, roots outside
the graph) with an ``error`` frame and closes that session only.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "send_msg",
    "recv_msg",
    "graph_fingerprint",
    "store_digest",
]

PROTOCOL_VERSION = 2

# A header is a few hundred bytes of JSON; anything larger is a corrupt
# stream (or not this protocol at all) and should fail fast rather than
# allocate unbounded buffers.
_MAX_HEADER = 1 << 20

_LEN = struct.Struct("<I")


class ProtocolError(RuntimeError):
    """A malformed frame or a handshake refusal."""


def _recv_exact(sock: socket.socket, nbytes: int) -> Optional[memoryview]:
    """Read exactly ``nbytes``; ``None`` on clean EOF at a frame start."""
    buf = bytearray(nbytes)
    view = memoryview(buf)
    got = 0
    while got < nbytes:
        read = sock.recv_into(view[got:])
        if read == 0:
            if got == 0:
                return None
            raise ProtocolError("connection closed mid-frame")
        got += read
    return memoryview(buf)


def send_msg(
    sock: socket.socket,
    header: Dict[str, Any],
    arrays: Sequence[np.ndarray] = (),
) -> None:
    """Ship one frame: ``header`` (JSON) plus raw array payloads."""
    blobs = [np.ascontiguousarray(a) for a in arrays]
    header = dict(header)
    header["arrays"] = [[a.dtype.str, list(a.shape)] for a in blobs]
    hb = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [_LEN.pack(len(hb)), hb]
    parts.extend(b.tobytes() for b in blobs if b.nbytes)
    sock.sendall(b"".join(parts))


def recv_msg(
    sock: socket.socket,
) -> Optional[Tuple[Dict[str, Any], List[np.ndarray]]]:
    """Read one frame; ``None`` on clean EOF between frames."""
    prefix = _recv_exact(sock, _LEN.size)
    if prefix is None:
        return None
    (hlen,) = _LEN.unpack(prefix)
    if not 0 < hlen <= _MAX_HEADER:
        raise ProtocolError(f"implausible header length {hlen}")
    raw = _recv_exact(sock, hlen)
    if raw is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        header = json.loads(bytes(raw).decode("utf-8"))
        table = [
            (np.dtype(dtype_str), tuple(int(d) for d in shape))
            for dtype_str, shape in header.get("arrays", ())
        ]
    except (ValueError, TypeError, AttributeError) as exc:
        raise ProtocolError(f"undecodable header: {exc}") from exc
    arrays: List[np.ndarray] = []
    for dt, shape in table:
        if dt.hasobject or min(shape, default=0) < 0:
            raise ProtocolError(f"bad array spec {dt.str} {list(shape)}")
        size = int(np.prod(shape, dtype=np.int64))
        nbytes = size * dt.itemsize
        if nbytes:
            payload = _recv_exact(sock, nbytes)
            if payload is None:
                raise ProtocolError("connection closed mid-frame")
            arr = np.frombuffer(bytes(payload), dtype=dt).reshape(shape)
        else:
            arr = np.empty(shape, dtype=dt)
        arrays.append(arr)
    return header, arrays


def graph_fingerprint(graph) -> Dict[str, float]:
    """The handshake identity of a graph: shape plus probability sums.

    Matches the graph component of the Session fingerprint (same 9-digit
    rounding), so two replicas agree iff they would stamp the same
    reproducibility fingerprint on results.
    """
    _src, _dst, p, pp = graph.edge_arrays()
    return {
        "n": int(graph.n),
        "m": int(graph.m),
        "p_sum": round(float(np.sum(p)), 9),
        "pp_sum": round(float(np.sum(pp)), 9),
    }


def store_digest(path) -> str:
    """A cheap identity digest of a graph store file.

    Hashes the full serialized header (magic, array table, meta — which
    embeds the ingest provenance) plus the file size.  Two stores with
    equal digests were written from the same ingest; payload corruption
    is the store checksum's job (``repro.storage.open_store(validate=)``),
    not the handshake's.
    """
    import os

    from ..storage.format import read_header

    path = str(path)
    file_size = os.path.getsize(path)
    with open(path, "rb") as fh:
        prefix = fh.read(1 << 16)
    header = read_header(path, file_size, prefix)
    with open(path, "rb") as fh:
        raw = fh.read(header.data_start)
    digest = hashlib.sha256(raw)
    digest.update(str(file_size).encode())
    return digest.hexdigest()


def publishable_store(graph) -> Optional[str]:
    """The store path remote hosts could open for ``graph``, if any
    (pristine store-backed graphs only — same rule as the local pool's
    by-path publication)."""
    from ..core.parallel import _publishable_store_path

    return _publishable_store_path(graph)
