"""Wire format of the distributed sampling runtime.

Every message is one length-prefixed frame::

    <u32 header_len> <header json> <raw array bytes ...>

The header is a small JSON object carrying ``type`` plus message fields;
its ``arrays`` key is an offset-free table ``[[dtype_str, shape], ...]``
describing the raw, C-contiguous numpy buffers concatenated after it —
the flat array lists chunk results are made of, so a chunk answered by
a forked local host or by a remote one arrives as the same arrays the
in-process path returns.  Each array is sent from, and received into,
its own buffer: one copy per direction.  A ``chunks`` frame's header
lists the job ids; its arrays are each job's sample inputs, roots
(int64) then world seeds (uint64), two per job in job order.  Array
payloads never round through JSON, so the world seeds stay exact 64-bit
words.

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
``chunk_error``  worker → coordinator: a chunk raised.  It fails only
                 the coordinator run (query) it belongs to, without a
                 retry — retrying elsewhere would reproduce a
                 deterministic failure — and the connection stays open
``bye``          coordinator → worker: session over, close the connection

A worker answers a malformed ``chunks`` frame (missing keys, unknown
kind, bad params, job arrays that do not match the jobs, roots outside
the graph) with an ``error`` frame and closes that session only.
"""

from __future__ import annotations

import hashlib
import json
import os
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


def _recv_into(sock: socket.socket, view: memoryview) -> bool:
    """Fill ``view`` from the socket; ``False`` on clean EOF before its
    first byte."""
    got = 0
    while got < len(view):
        read = sock.recv_into(view[got:])
        if read == 0:
            if got == 0:
                return False
            raise ProtocolError("connection closed mid-frame")
        got += read
    return True


def send_msg(
    sock: socket.socket,
    header: Dict[str, Any],
    arrays: Sequence[np.ndarray] = (),
) -> None:
    """Ship one frame: ``header`` (JSON), then each array's raw buffer."""
    blobs = [np.ascontiguousarray(a) for a in arrays]
    header = dict(header)
    header["arrays"] = [[a.dtype.str, list(a.shape)] for a in blobs]
    hb = json.dumps(header, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LEN.pack(len(hb)) + hb)
    for blob in blobs:
        if blob.nbytes:
            sock.sendall(blob)


def recv_msg(
    sock: socket.socket,
) -> Optional[Tuple[Dict[str, Any], List[np.ndarray]]]:
    """Read one frame; ``None`` on clean EOF between frames."""
    prefix = bytearray(_LEN.size)
    if not _recv_into(sock, memoryview(prefix)):
        return None
    (hlen,) = _LEN.unpack(prefix)
    if not 0 < hlen <= _MAX_HEADER:
        raise ProtocolError(f"implausible header length {hlen}")
    raw = bytearray(hlen)
    if not _recv_into(sock, memoryview(raw)):
        raise ProtocolError("connection closed mid-frame")
    try:
        header = json.loads(raw.decode("utf-8"))
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
        arr = np.empty(shape, dtype=dt)
        if arr.nbytes and not _recv_into(
            sock, memoryview(arr.reshape(-1).view(np.uint8))
        ):
            raise ProtocolError("connection closed mid-frame")
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
    """The store path remote hosts could open for ``graph``, if any.

    Only **pristine** store-backed graphs qualify: ``version == 0``
    means every array a host would read is exactly what the file holds.
    After an in-place probability update the live arrays diverge from
    the file (copy-on-write), so the handshake carries no store digest.
    """
    path = getattr(graph, "store_path", None)
    if path is None or getattr(graph, "version", 0) != 0:
        return None
    return path if os.path.exists(path) else None
