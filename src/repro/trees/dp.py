"""DP-Boost: rounded dynamic programming FPTAS on bidirected trees.

Implements Definition 4 of the paper for nodes with at most two children
(the paper's own synthetic workloads are complete binary trees), plus the
appendix's Definition 5 generalization to unbounded fan-out: nodes with
three or more children are combined sequentially through the helper
recurrence ``h(b, i, κ, x_i, z_i)`` (Algorithm 7), with one uniform rounding
grid ``δ/(d_max − 1)`` in place of the appendix's per-level ``δ/(d−2)`` —
slightly finer, same ``(1 − ε)`` guarantee.

State: ``g'(v, κ, c, f)`` — maximum (rounded) boost inside the subtree
``T_v`` when at most ``κ`` of its nodes are boosted, ``v`` ends up activated
with probability ``c`` by ``T_v`` alone, and ``v``'s parent is activated
with probability ``f`` by the rest of the graph.  ``c`` and ``f`` range over
multiples of the rounding parameter

    δ = ε · max(LB, 1) / Σ_u Σ_v p(k)(u → v)        (Equation 13)

with ``LB`` the Greedy-Boost value.  Rounding always goes *down*, so the DP
value never overestimates, and Theorem 3 bounds the loss by ``ε · OPT``.

The practical "refinement" of Section VI-B is essential and implemented:
per-node reachable ranges ``[c_lo, c_hi]`` / ``[f_lo, f_hi]`` (no boosting
vs. everything boosted) shrink the grids from ``1/δ`` to the narrow band a
node can actually attain.

Vectorized layout (this module) vs. the loop oracle
(:func:`repro.trees.reference.legacy_dp_boost`): within each tree level,
nodes whose (own + child) grids round up to the same power-of-two shape
class share one dense plane ``(L, k+1, C, F)``, and the per-node fill loops
become batched (max,+)-convolutions over budget splits on those planes —
the split enumeration of ``_budget_splits`` turns into in-place
``np.maximum`` accumulation over ``(κ1, κ2)`` pairs, and the per-key
``_clamp_key`` + dict probes turn into ``searchsorted``/arithmetic
position lookups.  Shape classes matter: grid widths within one level vary
by ~100× (a handful of near-root nodes carry wide bands), so level-maximum
padding would dwarf the real work, while pow2 classes bound padding at 2×
per axis and still leave only ~10 batches per level.  Every fill evaluates
the *same* IEEE-754 expressions over the *same* candidate sets as the
oracle (maxima are order-independent), so both paths produce bit-identical
tables — which is why one shared backtrack yields identical selections and
the parity gates in ``tests/test_failure_modes.py`` and
``benchmarks/bench_trees.py`` can assert exact agreement rather than
tolerances.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .bidirected import BidirectedTree, reachability_weight
from .exact import compute_tree_state
from .greedy import greedy_boost
from .reference import (
    DPBoostResult,
    NEG_INF,
    _child_best_for_seed_parent,
    _compute_ranges,
    _fill_internal_general,
    _grid,
    _NodeTable,
    _Rounding,
    finish_dp,
)

__all__ = ["DPBoostResult", "dp_boost", "reachability_weight"]

# Per-chunk temporary-array element budget for the batched fills; the f
# axis is chunked so batch fills never materialize more than this.
_F_CHUNK_ELEMS = 4_000_000

# Above this (z · c · κ · x) state-space estimate the dense general-fan-out
# kernel would allocate too much; those rare nodes fall back to the oracle
# fill (same values, so parity is unaffected).
_GENERAL_DENSE_LIMIT = 40_000_000


# ----------------------------------------------------------------------
# Vectorized rounding and grid position lookup
# ----------------------------------------------------------------------
def _down_vec(x: np.ndarray, rnd: _Rounding) -> np.ndarray:
    """Elementwise ``_Rounding.down`` (same guard order and epsilons)."""
    keys = np.floor(x / rnd.delta + 1e-9).astype(np.int64)
    keys = np.where(x <= 0.0, 0, keys)
    return np.where(x >= 1.0 - 1e-12, rnd.one_idx, keys)


def _value_vec(keys: np.ndarray, rnd: _Rounding) -> np.ndarray:
    """Elementwise ``_Rounding.value`` (1.0 at ONE, else ``min(k·δ, 1)``)."""
    return np.where(
        keys == rnd.one_idx, 1.0, np.minimum(keys * rnd.delta, 1.0)
    )


class _GridMeta:
    """Arithmetic descriptors of every node's ``_grid`` layout.

    ``_grid`` emits ``[ONE]``, ``[lo..hi]`` or ``[lo..hi_reg] + [ONE]`` —
    contiguous keys with an optional detached ONE tail — so a clamped key
    maps to its position by subtraction plus a tail test.  This replaces
    the oracle's per-key ``_clamp_key`` + ``c_pos``/``f_pos`` dict probes
    with O(1) array arithmetic (``reg_hi`` marks the end of the contiguous
    part; keys strictly between ``reg_hi`` and ``last`` are not on the
    grid).
    """

    __slots__ = ("lo", "last", "size", "reg_hi")

    def __init__(self, n: int) -> None:
        self.lo = np.zeros(n, dtype=np.int64)
        self.last = np.zeros(n, dtype=np.int64)
        self.size = np.zeros(n, dtype=np.int64)
        self.reg_hi = np.zeros(n, dtype=np.int64)

    def record(self, v: int, keys: List[int]) -> None:
        self.lo[v] = keys[0]
        self.last[v] = keys[-1]
        self.size[v] = len(keys)
        if len(keys) >= 2 and keys[-1] - keys[-2] > 1:
            self.reg_hi[v] = keys[-2]
        else:
            self.reg_hi[v] = keys[-1]


def _lookup(
    keys: np.ndarray,
    lo: np.ndarray,
    last: np.ndarray,
    size: np.ndarray,
    reg_hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Clamp ``keys`` into a grid and return ``(position, valid)``.

    Mirrors the oracle's ``min(max(key, keys[0]), keys[-1])`` clamp; a
    clamped key landing in the gap between ``reg_hi`` and ``last`` is not
    on the grid (``valid`` False; the oracle's dict probe would miss).
    Positions are clipped in-range so callers can always gather/scatter
    with them — invalid entries must be value-masked to −inf by the
    caller.
    """
    clamped = np.clip(keys, lo, last)
    pos = np.where(clamped == last, size - 1, clamped - lo)
    valid = (clamped == last) | (clamped <= reg_hi)
    return np.minimum(pos, size - 1), valid


def _key_matrix(
    meta: _GridMeta, nodes: np.ndarray, width: int
) -> np.ndarray:
    """Padded ``(len(nodes), width)`` key matrix of the nodes' grids.

    Slot ``size-1`` carries ``last`` (the possibly-detached ONE); pad
    slots repeat ``last`` — the table cells they address hold −inf so any
    value computed from a pad key is max-ignored downstream.
    """
    ar = np.arange(width, dtype=np.int64)[None, :]
    keys = meta.lo[nodes, None] + ar
    keys = np.where(ar == meta.size[nodes, None] - 1, meta.last[nodes, None], keys)
    return np.minimum(keys, meta.last[nodes, None])


def _segment_plan(flat_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort plan for segment-max scatters: (order, segment starts, keys)."""
    order = np.argsort(flat_keys, kind="stable")
    sk = flat_keys[order]
    starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    return order, starts, sk[starts]


def _f_chunks(total_f: int, per_f_elems: int):
    chunk = max(1, _F_CHUNK_ELEMS // max(per_f_elems, 1))
    for f0 in range(0, total_f, chunk):
        yield f0, min(f0 + chunk, total_f)


def _stack_children(
    tables: Dict[int, _NodeTable], kids: np.ndarray, k: int, cm: int, fm: int
) -> np.ndarray:
    """Stack child tables into one dense ``(L, k+1, cm, fm)`` block.

    Pad cells stay −inf, so padded positions never win a max downstream.
    """
    out = np.full((len(kids), k + 1, cm, fm), NEG_INF)
    for i, c in enumerate(kids):
        tv = tables[int(c)].values
        out[i, :, : tv.shape[1], : tv.shape[2]] = tv
    return out


# ----------------------------------------------------------------------
# Batched fills (one shape class at a time)
# ----------------------------------------------------------------------
def _fill_leaves_batch(
    tree: BidirectedTree,
    nodes: np.ndarray,
    k: int,
    rnd: _Rounding,
    ap0: np.ndarray,
    plane: np.ndarray,
    fg: _GridMeta,
) -> None:
    """All leaves of one shape class at once (c grid is a single key)."""
    fw = plane.shape[3]
    fvals = _value_vec(_key_matrix(fg, nodes, fw), rnd)          # (L, Fw)
    cval = np.where(tree.plan().seeds_mask[nodes], 1.0, 0.0)[:, None]
    apv = ap0[nodes][:, None]
    v0 = np.maximum(
        1.0 - (1.0 - cval) * (1.0 - fvals * tree.p_down[nodes][:, None]) - apv,
        0.0,
    )
    v1 = np.maximum(
        1.0 - (1.0 - cval) * (1.0 - fvals * tree.pp_down[nodes][:, None]) - apv,
        0.0,
    )
    plane[:, 0, 0, :] = v0
    plane[:, 1:, 0, :] = np.maximum(v0, v1)[:, None, :]


def _fill_one_batch(
    tree: BidirectedTree,
    nodes: np.ndarray,
    k: int,
    rnd: _Rounding,
    ap0: np.ndarray,
    plane: np.ndarray,
    tables: Dict[int, _NodeTable],
    cg: _GridMeta,
    fg: _GridMeta,
) -> None:
    """All single-child nodes of one shape class at once."""
    L = len(nodes)
    c1 = np.fromiter((tree.children[v][0] for v in nodes), np.int64, count=L)
    c1sz = int(cg.size[c1].max())
    f1sz = int(fg.size[c1].max())
    vals1 = _stack_children(tables, c1, k, c1sz, f1sz)           # (L, k+1, C1, F1)
    cvals1 = _value_vec(_key_matrix(cg, c1, c1sz), rnd)          # (L, C1)
    fw = plane.shape[3]
    fvals = _value_vec(_key_matrix(fg, nodes, fw), rnd)          # (L, Fw)
    apv = ap0[nodes]
    own_sz = plane.shape[2]
    n_col = nodes[:, None]

    for b in (0, 1):
        pb1 = (tree.pp_up if b else tree.p_up)[c1]
        pdv = (tree.pp_down if b else tree.p_down)[nodes]
        own_key = _down_vec(cvals1 * pb1[:, None], rnd)          # (L, C1)
        own_clamped = np.clip(own_key, cg.lo[n_col], cg.last[n_col])
        own_pos, own_valid = _lookup(
            own_key, cg.lo[n_col], cg.last[n_col], cg.size[n_col], cg.reg_hi[n_col]
        )
        own_val = _value_vec(own_clamped, rnd)                   # (L, C1)
        order, starts, seg_keys = _segment_plan(
            (np.arange(L)[:, None] * own_sz + own_pos).ravel()
        )
        seg_l = seg_keys // own_sz
        seg_p = seg_keys % own_sz
        T = k + 1 - b
        kap = np.arange(b, k + 1)

        parent_miss_all = 1.0 - fvals * pdv[:, None]             # (L, Fw)
        for f0, f1e in _f_chunks(fw, (k + 1) * L * c1sz):
            pm = parent_miss_all[:, f0:f1e]
            fc = f1e - f0
            f1_key = _down_vec(1.0 - pm, rnd)                    # (L, Fc)
            f1_pos, f1_valid = _lookup(
                f1_key, fg.lo[c1, None], fg.last[c1, None],
                fg.size[c1, None], fg.reg_hi[c1, None],
            )
            gathered = np.take_along_axis(
                vals1, f1_pos[:, None, None, :], axis=3
            )                                                    # (L, k+1, C1, Fc)
            gathered = np.where(f1_valid[:, None, None, :], gathered, NEG_INF)
            boost_terms = np.maximum(
                1.0 - (1.0 - own_val[:, :, None]) * pm[:, None, :]
                - apv[:, None, None],
                0.0,
            )                                                    # (L, C1, Fc)
            boost_terms = np.where(own_valid[:, :, None], boost_terms, NEG_INF)
            totals = gathered[:, :T] + boost_terms[:, None]      # (L, T, C1, Fc)
            arr = totals.transpose(0, 2, 1, 3).reshape(L * c1sz, T, fc)[order]
            segmax = np.maximum.reduceat(arr, starts, axis=0)    # (S, T, Fc)
            cur = plane[seg_l[:, None], kap[None, :], seg_p[:, None], f0:f1e]
            plane[seg_l[:, None], kap[None, :], seg_p[:, None], f0:f1e] = (
                np.maximum(cur, segmax)
            )


def _fill_two_batch(
    tree: BidirectedTree,
    nodes: np.ndarray,
    k: int,
    rnd: _Rounding,
    ap0: np.ndarray,
    plane: np.ndarray,
    tables: Dict[int, _NodeTable],
    cg: _GridMeta,
    fg: _GridMeta,
) -> None:
    """All two-child nodes of one shape class at once (the hot fill)."""
    L = len(nodes)
    c1 = np.fromiter((tree.children[v][0] for v in nodes), np.int64, count=L)
    c2 = np.fromiter((tree.children[v][1] for v in nodes), np.int64, count=L)
    c1sz = int(cg.size[c1].max())
    c2sz = int(cg.size[c2].max())
    f1sz = int(fg.size[c1].max())
    f2sz = int(fg.size[c2].max())
    vals1 = _stack_children(tables, c1, k, c1sz, f1sz)           # (L, k+1, C1, F1)
    vals2 = _stack_children(tables, c2, k, c2sz, f2sz)           # (L, k+1, C2, F2)
    cvals1 = _value_vec(_key_matrix(cg, c1, c1sz), rnd)          # (L, C1)
    cvals2 = _value_vec(_key_matrix(cg, c2, c2sz), rnd)          # (L, C2)
    fw = plane.shape[3]
    fvals = _value_vec(_key_matrix(fg, nodes, fw), rnd)          # (L, Fw)
    apv = ap0[nodes]
    own_sz = plane.shape[2]
    n_col = nodes[:, None, None]

    for b in (0, 1):
        pb1 = (tree.pp_up if b else tree.p_up)[c1]
        pb2 = (tree.pp_up if b else tree.p_up)[c2]
        pdv = (tree.pp_down if b else tree.p_down)[nodes]
        miss1 = 1.0 - cvals1 * pb1[:, None]                      # (L, C1)
        miss2 = 1.0 - cvals2 * pb2[:, None]                      # (L, C2)
        own_key = _down_vec(1.0 - miss1[:, :, None] * miss2[:, None, :], rnd)
        own_clamped = np.clip(own_key, cg.lo[n_col], cg.last[n_col])
        own_pos, own_valid = _lookup(
            own_key, cg.lo[n_col], cg.last[n_col], cg.size[n_col], cg.reg_hi[n_col]
        )
        # NOTE: the oracle's two-child fill derives the boost value as
        # key·δ without the min(·, 1) of _Rounding.value — replicated
        # exactly to stay bit-identical.
        own_cval = np.where(
            own_clamped == rnd.one_idx, 1.0, own_clamped * rnd.delta
        )                                                        # (L, C1, C2)
        order, starts, seg_keys = _segment_plan(
            (np.arange(L)[:, None, None] * own_sz + own_pos).ravel()
        )
        seg_l = seg_keys // own_sz
        seg_p = seg_keys % own_sz
        T = k + 1 - b
        kap = np.arange(b, k + 1)

        parent_miss_all = 1.0 - fvals * pdv[:, None]             # (L, Fw)
        for f0, f1e in _f_chunks(fw, 3 * (k + 1) * L * c1sz * c2sz):
            pm = parent_miss_all[:, f0:f1e]
            fc = f1e - f0
            # Child-facing f requirements: the parent side plus the
            # *other* child.
            f1_req = _down_vec(1.0 - pm[:, :, None] * miss2[:, None, :], rnd)
            f2_req = _down_vec(1.0 - pm[:, :, None] * miss1[:, None, :], rnd)
            f1_pos, f1_valid = _lookup(
                f1_req, fg.lo[c1, None, None], fg.last[c1, None, None],
                fg.size[c1, None, None], fg.reg_hi[c1, None, None],
            )                                                    # (L, Fc, C2)
            f2_pos, f2_valid = _lookup(
                f2_req, fg.lo[c2, None, None], fg.last[c2, None, None],
                fg.size[c2, None, None], fg.reg_hi[c2, None, None],
            )                                                    # (L, Fc, C1)
            # A1[l, κ, i, j, f] = g'(c1, κ, c_i, f1(f, j)); A2 likewise
            # with children swapped, then aligned to (L, κ, C1, C2, Fc).
            idx1 = f1_pos.transpose(0, 2, 1).reshape(L, 1, 1, c2sz * fc)
            A1 = np.take_along_axis(vals1, idx1, axis=3).reshape(
                L, k + 1, c1sz, c2sz, fc
            )
            A1 = np.where(
                f1_valid.transpose(0, 2, 1)[:, None, None, :, :], A1, NEG_INF
            )
            idx2 = f2_pos.transpose(0, 2, 1).reshape(L, 1, 1, c1sz * fc)
            A2 = np.take_along_axis(vals2, idx2, axis=3).reshape(
                L, k + 1, c2sz, c1sz, fc
            )
            A2 = np.where(
                f2_valid.transpose(0, 2, 1)[:, None, None, :, :], A2, NEG_INF
            )
            A2 = A2.transpose(0, 1, 3, 2, 4)                     # (L, κ, C1, C2, Fc)

            # (max,+) combine over κ1 + κ2 = t — the vectorized form of
            # the oracle's budget-split enumeration, accumulated in place
            # (order-independent maxima).
            V = np.full((T, L, c1sz, c2sz, fc), NEG_INF)
            for t in range(T):
                vt = V[t]
                for k1 in range(t + 1):
                    np.maximum(vt, A1[:, k1] + A2[:, t - k1], out=vt)

            boost_mat = np.maximum(
                1.0 - (1.0 - own_cval[:, :, :, None]) * pm[:, None, None, :]
                - apv[:, None, None, None],
                0.0,
            )                                                    # (L, C1, C2, Fc)
            boost_mat = np.where(own_valid[:, :, :, None], boost_mat, NEG_INF)

            totals = V.transpose(1, 0, 2, 3, 4) + boost_mat[:, None]
            arr = totals.transpose(0, 2, 3, 1, 4).reshape(
                L * c1sz * c2sz, T, fc
            )[order]
            segmax = np.maximum.reduceat(arr, starts, axis=0)    # (S, T, Fc)
            cur = plane[seg_l[:, None], kap[None, :], seg_p[:, None], f0:f1e]
            plane[seg_l[:, None], kap[None, :], seg_p[:, None], f0:f1e] = (
                np.maximum(cur, segmax)
            )


def _fill_seed_vec(
    tree: BidirectedTree,
    v: int,
    k: int,
    table: _NodeTable,
    tables: Dict[int, _NodeTable],
    rnd: _Rounding,
) -> None:
    """Seed-node fill: budget (max,+) fold over the per-child bests.

    The oracle's budget-split loops become an antidiagonal index plan —
    ``folded[t]`` is the max of ``combined[:t+1] + nxt[t::-1]``.
    """
    kids = tree.children[v]
    best = [_child_best_for_seed_parent(tables[c], rnd, k) for c in kids]
    combined = best[0].copy()
    for nxt in best[1:]:
        folded = np.full(k + 1, NEG_INF)
        for t in range(k + 1):
            folded[t] = np.max(combined[: t + 1] + nxt[t::-1])
        combined = folded
    # Budget monotonicity: allow leaving budget unused.
    combined = np.maximum.accumulate(combined)
    table.values[:, table.c_pos[rnd.one_idx], :] = combined[:, None]


def _clamp_pos_1d(
    keys: np.ndarray, grid: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``_clamp_key`` + dict probe over one grid, via ``searchsorted``."""
    clamped = np.clip(keys, grid[0], grid[-1])
    pos = np.minimum(np.searchsorted(grid, clamped), len(grid) - 1)
    return pos, grid[pos] == clamped


def _fill_general_vec(
    tree: BidirectedTree,
    v: int,
    k: int,
    table: _NodeTable,
    tables: Dict[int, _NodeTable],
    rnd: _Rounding,
    ap0: np.ndarray,
) -> None:
    """Fan-out ≥ 3 (Algorithm 7) on dense ``(z, κ, x)`` planes.

    The oracle's dict-of-dicts helper levels become dense arrays over the
    z grid × budget × the exact set of reachable x keys (unreachable
    states hold −inf, so maxima agree with the sparse oracle bit-for-bit).
    """
    kids = tree.children[v]
    d = len(kids)
    f_keys = np.asarray(table.f_keys, dtype=np.int64)
    own_c_grid = np.asarray(table.c_keys, dtype=np.int64)
    apv = float(ap0[v])

    for b in (0, 1):
        pb = [(tree.pp_up[c] if b else tree.p_up[c]) for c in kids]
        pb_uv = tree.pp_down[v] if b else tree.p_down[v]

        # y-range per level (suffix activation band), right to left —
        # same scalar recurrence as the oracle so the z grids match.
        y_lo = [0.0] * (d + 1)
        y_hi = [0.0] * (d + 1)
        y_lo[d] = rnd.value(int(f_keys[0])) * tree.p_down[v]
        y_hi[d] = rnd.value(int(f_keys[-1])) * tree.pp_down[v]
        for i in range(d - 1, 0, -1):
            child = kids[i]
            ct = tables[child]
            y_lo[i] = 1.0 - (1.0 - y_lo[i + 1]) * (
                1.0 - rnd.value(ct.c_keys[0]) * tree.p_up[child]
            )
            y_hi[i] = 1.0 - (1.0 - y_hi[i + 1]) * (
                1.0 - rnd.value(ct.c_keys[-1]) * tree.pp_up[child]
            )
        grids = {
            i: (
                f_keys
                if i == d
                else np.asarray(
                    _grid(rnd.down(y_lo[i]), rnd.up(y_hi[i]), rnd), dtype=np.int64
                )
            )
            for i in range(1, d + 1)
        }

        # Level 1.
        ct = tables[kids[0]]
        z1 = grids[1]
        zv = _value_vec(z1, rnd)
        y1 = zv * pb_uv if d == 1 else zv
        fk = np.asarray(ct.f_keys, dtype=np.int64)
        fpos1, fvalid1 = _clamp_pos_1d(_down_vec(y1, rnd), fk)
        sel = ct.values[:, :, fpos1]                             # (κ, C, Z1)
        sel = np.where(fvalid1[None, None, :], sel, NEG_INF)
        ck = np.asarray(ct.c_keys, dtype=np.int64)
        x1 = _down_vec(_value_vec(ck, rnd) * pb[0], rnd)          # (C,)
        xs = np.unique(x1)
        order_c, starts_c, _ = _segment_plan(np.searchsorted(xs, x1))
        segmax = np.maximum.reduceat(sel[:, order_c, :], starts_c, axis=1)
        H = np.full((len(z1), k + 1, len(xs)), NEG_INF)          # (Z, κ, X)
        H[:, b:, :] = segmax[: k + 1 - b].transpose(2, 0, 1)

        # Levels 2..d: combine child i into the running (z, κ, x) plane.
        for i in range(2, d + 1):
            child = kids[i - 1]
            ct = tables[child]
            zi = grids[i]
            zv = _value_vec(zi, rnd)
            y_i = zv * pb_uv if i == d else zv                   # (Z,)
            ck = np.asarray(ct.c_keys, dtype=np.int64)
            cvals = _value_vec(ck, rnd)
            miss = 1.0 - cvals * pb[i - 1]                       # (C,)
            zprev = grids[i - 1]
            zp_pos, zp_valid = _clamp_pos_1d(
                _down_vec(1.0 - (1.0 - y_i)[:, None] * miss[None, :], rnd), zprev
            )                                                    # (Z, C)
            xprev_vals = _value_vec(xs, rnd)                     # (Xp,)
            fk = np.asarray(ct.f_keys, dtype=np.int64)
            f_pos, f_valid = _clamp_pos_1d(
                _down_vec(
                    1.0 - (1.0 - xprev_vals)[None, :] * (1.0 - y_i)[:, None], rnd
                ),
                fk,
            )                                                    # (Z, Xp)
            x_new = _down_vec(
                1.0 - (1.0 - xprev_vals)[:, None] * miss[None, :], rnd
            )                                                    # (Xp, C)
            xs_i = np.unique(x_new)

            est = len(zi) * len(ck) * (k + 1) * len(xs)
            if est > _GENERAL_DENSE_LIMIT:
                # Too wide to densify — run the whole node on the oracle
                # fill (identical values) and bail out of this b pass.
                table.values[:] = NEG_INF
                _fill_internal_general(tree, v, k, table, tables, rnd, ap0)
                return

            P = H[zp_pos]                                        # (Z, C, κ, Xp)
            P = np.where(zp_valid[:, :, None, None], P, NEG_INF)
            Pt = P.transpose(0, 3, 2, 1)                         # (Z, Xp, κ, C)
            CV = ct.values[:, :, f_pos]                          # (κ, C, Z, Xp)
            CV = np.where(f_valid[None, None, :, :], CV, NEG_INF)
            CVt = CV.transpose(2, 3, 0, 1)                       # (Z, Xp, κ, C)

            R = np.full((k + 1, len(zi), len(xs), len(ck)), NEG_INF)
            for t in range(k + 1):
                rt = R[t]
                for ki in range(t + 1):
                    np.maximum(rt, Pt[:, :, t - ki, :] + CVt[:, :, ki, :], out=rt)

            order_x, starts_x, _ = _segment_plan(
                np.searchsorted(xs_i, x_new).ravel()
            )
            rf = R.reshape(k + 1, len(zi), len(xs) * len(ck))[:, :, order_x]
            segm = np.maximum.reduceat(rf, starts_x, axis=2)     # (κ, Z, Xi)
            H = segm.transpose(1, 0, 2).copy()                   # (Z, κ, Xi)
            xs = xs_i

        # Final: z axis is v's own f grid; map x → own c and add the
        # boost term.
        cpos, cvalid = _clamp_pos_1d(xs, own_c_grid)             # (X,)
        parent_miss = 1.0 - _value_vec(f_keys, rnd) * pb_uv      # (F,)
        own_cval = _value_vec(np.clip(xs, own_c_grid[0], own_c_grid[-1]), rnd)
        boost = np.maximum(
            1.0 - (1.0 - own_cval)[None, :] * parent_miss[:, None] - apv, 0.0
        )                                                        # (F, X)
        boost = np.where(cvalid[None, :], boost, NEG_INF)
        totals = H + boost[:, None, :]                           # (F, κ, X)
        order_f, starts_f, seg_c = _segment_plan(cpos)
        segm = np.maximum.reduceat(totals[:, :, order_f], starts_f, axis=2)
        cur = table.values[:, seg_c, :]                          # (κ, S, F)
        table.values[:, seg_c, :] = np.maximum(cur, segm.transpose(1, 2, 0))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _p2(x: int) -> int:
    """Round up to a power of two (shape-class quantization)."""
    return 1 << (int(x) - 1).bit_length()


def _view_table(
    plane: np.ndarray, row: int, c_keys: List[int], f_keys: List[int]
) -> _NodeTable:
    """A ``_NodeTable`` whose value array is a view into a class plane."""
    t = object.__new__(_NodeTable)
    t.c_keys = c_keys
    t.f_keys = f_keys
    t.c_pos = {c: j for j, c in enumerate(c_keys)}
    t.f_pos = {f: j for j, f in enumerate(f_keys)}
    t.values = plane[row, :, : len(c_keys), : len(f_keys)]
    return t


def _fill_tables_vectorized(
    tree: BidirectedTree,
    k: int,
    rnd: _Rounding,
    ap0: np.ndarray,
    c_lo: np.ndarray,
    c_hi: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
) -> Tuple[Dict[int, _NodeTable], int]:
    """Build every node table bottom-up on shape-class planes."""
    n = tree.n
    plan = tree.plan()
    c_grids: List[List[int]] = [[] for _ in range(n)]
    f_grids: List[List[int]] = [[] for _ in range(n)]
    cg = _GridMeta(n)
    fg = _GridMeta(n)
    for v in range(n):
        c_grids[v] = _grid(int(c_lo[v]), int(c_hi[v]), rnd)
        f_grids[v] = _grid(int(f_lo[v]), int(f_hi[v]), rnd)
        cg.record(v, c_grids[v])
        fg.record(v, f_grids[v])

    tables: Dict[int, _NodeTable] = {}
    total_entries = 0

    for d in range(len(plan.levels) - 1, -1, -1):
        # Group the level's nodes into batchable shape classes (see the
        # module docstring for why pow2 classes rather than one plane per
        # level).  Seeds and fan-out ≥ 3 nodes are rare and stay
        # per-node.
        groups: Dict[tuple, List[int]] = {}
        singles: List[int] = []
        for v in plan.levels[d]:
            v = int(v)
            kids = tree.children[v]
            if not kids:
                key = ("leaf", _p2(fg.size[v]))
            elif plan.seeds_mask[v] or len(kids) > 2:
                singles.append(v)
                continue
            elif len(kids) == 1:
                key = (
                    "one",
                    _p2(cg.size[v]), _p2(fg.size[v]),
                    _p2(cg.size[kids[0]]), _p2(fg.size[kids[0]]),
                )
            else:
                key = (
                    "two",
                    _p2(cg.size[v]), _p2(fg.size[v]),
                    _p2(cg.size[kids[0]]), _p2(fg.size[kids[0]]),
                    _p2(cg.size[kids[1]]), _p2(fg.size[kids[1]]),
                )
            groups.setdefault(key, []).append(v)

        for key, members in groups.items():
            nodes = np.asarray(members, dtype=np.int64)
            cmax = int(cg.size[nodes].max())
            fmax = int(fg.size[nodes].max())
            plane = np.full((len(nodes), k + 1, cmax, fmax), NEG_INF)
            for i, v in enumerate(members):
                tables[v] = _view_table(plane, i, c_grids[v], f_grids[v])
                total_entries += tables[v].values.size
            if key[0] == "leaf":
                _fill_leaves_batch(tree, nodes, k, rnd, ap0, plane, fg)
            elif key[0] == "one":
                _fill_one_batch(tree, nodes, k, rnd, ap0, plane, tables, cg, fg)
            else:
                _fill_two_batch(tree, nodes, k, rnd, ap0, plane, tables, cg, fg)

        for v in singles:
            table = _NodeTable(k, c_grids[v], f_grids[v])
            tables[v] = table
            total_entries += table.values.size
            if plan.seeds_mask[v]:
                _fill_seed_vec(tree, v, k, table, tables, rnd)
            else:
                _fill_general_vec(tree, v, k, table, tables, rnd, ap0)

    return tables, total_entries


def dp_boost(
    tree: BidirectedTree,
    k: int,
    epsilon: float = 0.5,
    delta_override: Optional[float] = None,
) -> DPBoostResult:
    """Run DP-Boost and return a ``(1 − ε)``-approximate boost set.

    Parameters
    ----------
    tree:
        A bidirected tree; any fan-out is supported.
    k:
        Boost budget.
    epsilon:
        Accuracy; smaller ε → finer rounding → slower (Theorem 3's FPTAS
        trade-off).
    delta_override:
        Directly set the rounding parameter δ (testing/ablation hook);
        bypasses Equation 13.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not 0.0 < epsilon:
        raise ValueError("epsilon must be positive")

    base_state = compute_tree_state(tree, frozenset())
    ap0 = base_state.ap

    if delta_override is not None:
        delta_param = float(delta_override)
    else:
        lb = greedy_boost(tree, k).boost
        weight = reachability_weight(tree)
        delta_param = epsilon * max(lb, 1.0) / weight
        # General fan-out (Appendix B): a node with d children chains d - 1
        # intermediate roundings, so divide δ by the worst chain length to
        # keep the total per-node rounding loss within the ε budget.  This
        # replaces the appendix's per-level δ/(d-2) with one uniform grid —
        # slightly finer, same (1 − ε) guarantee.
        d_max = tree.max_children()
        if d_max > 2:
            delta_param /= d_max - 1
    rnd = _Rounding(delta_param)

    c_lo, c_hi, f_lo, f_hi = _compute_ranges(tree, rnd)
    tables, total_entries = _fill_tables_vectorized(
        tree, k, rnd, ap0, c_lo, c_hi, f_lo, f_hi
    )
    return finish_dp(
        tree, k, tables, rnd, ap0, base_state, delta_param, total_entries
    )
