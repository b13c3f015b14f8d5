"""Trellis construction and hard-decision Viterbi decoding.

The trellis state is the last p input bits (most recent bit in the low
position), so state s on input b moves to ((s << 1) | b) & (2^p - 1) and the
segment outputs are parities of the (p+1)-bit window against each generator.
Zero-tail termination is structural: the final p segments admit only the
zero input, so every decode starts and ends in state 0.

Decoding reads one uint8 branch-metric table: entry [r, h, l, b] is the
Hamming distance between received symbol r and the output of the window
(s << 1) | b, where s = h * 2^(p-1) + l is the predecessor state. It takes
2^(n+p+1) bytes, 32 MB at the n = 8, p = 16 corner.

Every decode has a bound. It stops as soon as a lower bound on its weight
exceeds the bound, and returns that lower bound. Path metrics never
decrease along a path, so the smallest one bounds the segments decoded so
far; the syndromes of the received word bound the segments still to come, an
A* cost-to-go, and over the whole word they bound it before any ACS step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitlinalg import BitVec
from .convcode import MAX_STREAMS, MAX_TRELLIS_MEMORY, PolyGenMatrix, deinterleave, encode_streams
from .gf2poly import BinPoly, poly_mul

_INF = np.int32(1 << 29)
# segments between two comparisons of a decode's lower bound with its bound
_BOUND_INTERVAL = 16


_one64 = np.uint64(1)
_POP8 = np.bitwise_count(np.arange(256, dtype=np.uint8))


def _window_symbols(polys: PolyGenMatrix) -> np.ndarray:
    """Packed n-bit output symbol for every (p+1)-bit input window."""
    if polys.n > MAX_STREAMS:
        raise ValueError(f"{polys.n} streams exceed the {MAX_STREAMS}-stream cap")
    p = polys.memory
    w = np.arange(1 << (p + 1), dtype=np.uint64)
    out = np.zeros(1 << (p + 1), dtype=np.uint8)
    for j, pj in enumerate(polys.polys):
        out |= ((np.bitwise_count(w & np.uint64(pj.value)) & _one64) << j).astype(np.uint8)
    return out


class Trellis:
    """Immutable state machine of a terminated rate-1/n code.

    Decoding allocates per-call scratch only, so one trellis serves every
    candidate of a decrypt.
    """

    def __init__(self, polys: PolyGenMatrix, K: int):
        p = polys.memory
        if not 1 <= p <= MAX_TRELLIS_MEMORY:
            raise ValueError(f"memory {p} is outside 1..{MAX_TRELLIS_MEMORY}")
        if K < 1:
            raise ValueError("K must be positive")
        self.polys = polys
        self.n = polys.n
        self.p = p
        self.K = K
        self.num_states = 1 << p
        self.segments = K + p
        out = _window_symbols(polys)
        syms = np.arange(1 << self.n, dtype=np.uint8)
        self._bm = _POP8[out.reshape(2, self.num_states >> 1, 2) ^ syms[:, None, None, None]]

    def __repr__(self) -> str:
        return f"Trellis(n={self.n}, p={self.p}, K={self.K}, states={self.num_states})"


@dataclass(frozen=True)
class DecodeResult:
    """Maximum-likelihood decode of one received word.

    ``info`` is None when a bounded decode stopped early; ``error_weight`` is
    then a lower bound on the weight, and above the bound.
    """

    info: BitVec | None
    error_weight: int


def build_trellis(polys: PolyGenMatrix, K: int) -> Trellis:
    return Trellis(polys, K)


def _bits_to_symbols(v: BitVec, n: int) -> np.ndarray:
    bits = v.to_bits().reshape(-1, n)
    return (bits << np.arange(n, dtype=np.uint8)).sum(axis=1).astype(np.uint8)


def _syndrome_bounds(trellis: Trellis, received: BitVec, after: np.ndarray) -> np.ndarray:
    """Lower bounds on the weight of received minus any zero-tail codeword.

    The syndromes s_j = r_0 g_j + r_j g_0 (j >= 1) vanish on every codeword,
    so they are those of the error pattern (Schalkwijk and Vinck, 1975).
    Coefficient k of s_j reads stream bits k - p .. k. Entry 0 counts every
    coefficient and bounds the whole word; entry i + 1 counts k >= after[i]
    + 1 + p and bounds the segments after segment after[i], whatever the
    path's state there. An error bit in stream 0 flips at most wt(g_j)
    coefficients of s_j and one in stream j at most wt(g_0). So with S_j
    counted coefficients nonzero, the weight is at least the minimum over
    x >= 0 of x + sum_j max(0, S_j - x wt(g_j)) / wt(g_0). That function is
    convex and piecewise linear, so its minimum lies at x = 0 or at some
    S_b / wt(g_b); it is evaluated there in integers, scaled by
    wt(g_b) wt(g_0), and rounded up.
    """
    n, p, segs = trellis.n, trellis.p, trellis.segments
    polys = trellis.polys.polys
    r = [BinPoly.from_bitvec(s) for s in deinterleave(received, n)]
    # s_j has degree below segs + p; the spare byte makes the last suffix count 0
    nbytes = (segs + p) // 8 + 1
    syn = b"".join(
        (poly_mul(r[0], polys[j]) + poly_mul(r[j], polys[0])).value.to_bytes(nbytes, "little")
        for j in range(1, n)
    )
    bits = np.unpackbits(
        np.frombuffer(syn, dtype=np.uint8).reshape(n - 1, nbytes), axis=1, bitorder="little"
    )
    # suffix[:, k] counts the nonzero coefficients k and above
    suffix = np.cumsum(bits[:, ::-1], axis=1, dtype=np.int64)[:, ::-1]
    counts = suffix[:, np.concatenate([[0], after + 1 + p])]
    w = np.array([g.weight for g in polys], dtype=np.int64)
    lb = -(-counts.sum(axis=0) // w[0])
    for b in range(n - 1):
        scaled = counts[b] * w[0] + np.maximum(
            counts * w[b + 1] - counts[b] * w[1:, None], 0
        ).sum(axis=0)
        lb = np.minimum(lb, -(-scaled // (w[b + 1] * w[0])))
    return lb


def _forward_pass(trellis: Trellis, rsyms: np.ndarray, bound: int, tail_lb: dict[int, int]):
    """ACS recursion; returns final path metrics and survivor bits per segment.

    After each segment t in tail_lb, which maps t to a lower bound on the
    weight of the segments after it, the minimum metric plus tail_lb[t] is
    compared with the bound; once it is larger the pass stops and returns
    the current metrics plus tail_lb[t] with survivors None.
    """
    ns = trellis.num_states
    half = ns >> 1
    pm = np.full(ns, _INF, dtype=np.int32)
    pm[0] = 0
    # survivors[t, j] is the top bit of the predecessor kept for state j
    survivors = np.empty((trellis.segments, half, 2), dtype=bool)
    for t in range(trellis.segments):
        cand = pm.reshape(2, half, 1) + trellis._bm[rsyms[t]]
        # on ties keep the lower-indexed predecessor
        np.less(cand[1], cand[0], out=survivors[t])
        pm = np.minimum(cand[0], cand[1]).reshape(-1)
        if t >= trellis.K:
            pm[1::2] = _INF
        if t in tail_lb and pm.min() + tail_lb[t] > bound:
            return pm + tail_lb[t], None
    return pm, survivors.reshape(trellis.segments, ns)


def viterbi_decode(
    trellis: Trellis, received: BitVec, bound: int | None = None
) -> DecodeResult:
    """Minimum-Hamming-distance zero-tail path; deterministic tie-breaks.

    A word whose weight exceeds the bound comes back as
    DecodeResult(None, lower_bound) with bound < lower_bound <= weight; any
    other word is decoded in full. A word whose syndrome bound alone exceeds
    the bound is not decoded at all. The bound defaults to the word length,
    which never stops a decode: the syndrome bounds are admissible, so each
    lower bound is at most the optimal weight, and that is at most the
    word length.
    """
    if received.n != trellis.n * trellis.segments:
        raise ValueError("received length does not match the trellis")
    if bound is None:
        bound = received.n
    last = trellis.segments - 1
    checks = np.r_[_BOUND_INTERVAL - 1 : last : _BOUND_INTERVAL, last]
    lb = _syndrome_bounds(trellis, received, checks)
    if lb[0] > bound:
        return DecodeResult(None, int(lb[0]))
    tail_lb = dict(zip(checks.tolist(), lb[1:].tolist()))
    rsyms = _bits_to_symbols(received, trellis.n)
    pm, survivors = _forward_pass(trellis, rsyms, bound, tail_lb)
    if survivors is None:
        return DecodeResult(None, int(pm.min()))
    bits = np.zeros(trellis.segments, dtype=np.uint8)
    state = 0
    top_shift = trellis.p - 1
    for t in range(trellis.segments - 1, -1, -1):
        bits[t] = state & 1
        state = (state >> 1) | (int(survivors[t, state]) << top_shift)
    info = BitVec.from_bits(bits[: trellis.K])
    weight = (received ^ encode_streams(info, trellis.polys, trellis.p)).weight()
    assert weight == int(pm[0]), "path metric disagrees with the survivor path"
    return DecodeResult(info, weight)
