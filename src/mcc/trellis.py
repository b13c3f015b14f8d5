"""Trellis construction and hard-decision Viterbi decoding.

The trellis state is the last p input bits (most recent bit in the low
position), so state s on input b moves to ((s << 1) | b) & (2^p - 1) and the
segment outputs are parities of the (p+1)-bit window against each generator.
Zero-tail termination is structural: the final p segments admit only the
zero input, so every decode starts and ends in state 0.

Decoding runs the segments two at a time, as two radix-2 stages (Black and
Meng's radix-4 step, JSSC 1992), so that every numpy call loops over a
contiguous run of the low state bits. With half = 2^(p-1), q = 2^(p-2) and
predecessor s = h * half + m, two int32 branch-metric tables hold the
Hamming distance between received symbol r and the output of window
(s << 1) | b:

- T1[r, b, h, m], read by a first stage and by a single-segment step; as
  [r, b1, h1, h0, l] it splits m = h0 * q + l;
- T2[r, b1, b2, h0, l], read by a second stage, whose predecessor is
  h0 * half + 2l + b1.

Together they take 2^(n+p+4) bytes, 256 MiB at the n = 8, p = 16 corner;
T2 is built only when some segments run in pairs (p >= 2 and K >= 2).
Survivors are packed eight to a byte, one row of
2^p bits per segment, in the order each step computes them.

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
from .gf2poly import poly_mul

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
        out |= ((np.bitwise_count(w & np.uint64(pj)) & _one64) << j).astype(np.uint8)
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
        # segments decoded two at a time: every pair before the zero tail
        self._paired = K & ~1 if p >= 2 else 0
        self._bound_checks = np.r_[_BOUND_INTERVAL - 1 : K + p - 1 : _BOUND_INTERVAL, K + p - 1]
        self._gen_weights = np.array([g.bit_count() for g in polys.polys], dtype=np.int64)
        out = _window_symbols(polys)
        syms = np.arange(1 << self.n, dtype=np.uint8)
        # bm[r, h, m, b] is the metric of predecessor h * half + m on input b
        bm = _POP8[out.reshape(2, self.num_states >> 1, 2) ^ syms[:, None, None, None]]
        self._t1 = np.ascontiguousarray(bm.transpose(0, 3, 1, 2), dtype=np.int32)
        self._t2 = None
        if self._paired:
            quarter = self.num_states >> 2
            split = bm.reshape(-1, 2, quarter, 2, 2).transpose(0, 3, 4, 1, 2)
            self._t2 = np.ascontiguousarray(split, dtype=np.int32)

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
    return np.packbits(v.to_bits().reshape(-1, n), axis=1, bitorder="little").ravel()


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
    r = [s.to_int() for s in deinterleave(received, n)]
    # s_j has degree below segs + p; the spare byte makes the last suffix count 0
    nbytes = (segs + p) // 8 + 1
    syn = b"".join(
        (poly_mul(r[0], polys[j]) ^ poly_mul(r[j], polys[0])).to_bytes(nbytes, "little")
        for j in range(1, n)
    )
    bits = np.unpackbits(
        np.frombuffer(syn, dtype=np.uint8).reshape(n - 1, nbytes), axis=1, bitorder="little"
    )
    # suffix[:, k] counts the nonzero coefficients k and above
    suffix = np.cumsum(bits[:, ::-1], axis=1, dtype=np.int64)[:, ::-1]
    counts = suffix[:, np.concatenate([[0], after + 1 + p])]
    w = trellis._gen_weights
    lb = -(-counts.sum(axis=0) // w[0])
    for b in range(n - 1):
        scaled = counts[b] * w[0] + np.maximum(
            counts * w[b + 1] - counts[b] * w[1:, None], 0
        ).sum(axis=0)
        lb = np.minimum(lb, -(-scaled // (w[b + 1] * w[0])))
    return lb


def _forward_pass(trellis: Trellis, rsyms: np.ndarray, bound: int, tail_lb: dict[int, int]):
    """ACS recursion; returns final path metrics and packed survivor rows.

    Survivor bit i of row t is set when segment t kept the predecessor with
    the top bit set for the state at index i, in that step's order (see the
    traceback in viterbi_decode). After each segment t in tail_lb, which
    maps t to a lower bound on the weight of the segments after it, the
    minimum metric plus tail_lb[t] is compared with the bound; once it is
    larger the pass stops and returns the current metrics (after a first
    stage, in its order) plus tail_lb[t] with survivors None.
    """
    ns, K = trellis.num_states, trellis.K
    half = ns >> 1
    pm = np.full(ns, _INF, dtype=np.int32)
    pm[0] = 0
    survivors = np.empty((trellis.segments, (ns + 7) >> 3), dtype=np.uint8)
    rows = rsyms.tolist()
    cand = np.empty((2, 2, half), dtype=np.int32)
    sel = np.empty((2, half), dtype=bool)
    # on ties every stage keeps the lower-indexed predecessor
    if trellis._paired:
        quarter = half >> 1
        t1 = trellis._t1.reshape(-1, 2, 2, 2, quarter)
        c4 = cand.reshape(2, 2, 2, quarter)
        s3 = sel.reshape(2, 2, quarter)
        a1 = np.empty((2, 2, quarter), dtype=np.int32)
        pm_in = pm.reshape(2, 2, quarter)
        # the second stage writes state 4l + 2b1 + b2 at [b1, b2, l]
        pm_out = pm.reshape(quarter, 2, 2).transpose(1, 2, 0)
        for t in range(0, trellis._paired, 2):
            # first stage: c4[b1, h1, h0, l], metrics a1[b1, h0, l]
            np.add(pm_in, t1[rows[t]], out=c4)
            np.less(c4[:, 1], c4[:, 0], out=s3)
            survivors[t] = np.packbits(sel, axis=None, bitorder="little")
            np.minimum(c4[:, 0], c4[:, 1], out=a1)
            if t in tail_lb and a1.min() + tail_lb[t] > bound:
                return a1.reshape(-1) + tail_lb[t], None
            # second stage: c4[b1, b2, h0, l]
            np.add(a1[:, None], trellis._t2[rows[t + 1]], out=c4)
            np.less(c4[:, :, 1], c4[:, :, 0], out=s3)
            survivors[t + 1] = np.packbits(sel, axis=None, bitorder="little")
            np.minimum(c4[:, :, 0], c4[:, :, 1], out=pm_out)
            if t + 1 in tail_lb and pm.min() + tail_lb[t + 1] > bound:
                return pm + tail_lb[t + 1], None
    # single steps: cand[b, h, m], state 2m + b at [b, m]
    pm_in = pm.reshape(2, half)
    pm_out = pm.reshape(half, 2).T
    for t in range(trellis._paired, trellis.segments):
        np.add(pm_in, trellis._t1[rows[t]], out=cand)
        np.less(cand[:, 1], cand[:, 0], out=sel)
        survivors[t] = np.packbits(sel, axis=None, bitorder="little")
        np.minimum(cand[:, 0], cand[:, 1], out=pm_out)
        if t >= K:
            pm[1::2] = _INF
        if t in tail_lb and pm.min() + tail_lb[t] > bound:
            return pm + tail_lb[t], None
    return pm, survivors


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
    lb = _syndrome_bounds(trellis, received, trellis._bound_checks)
    if lb[0] > bound:
        return DecodeResult(None, int(lb[0]))
    tail_lb = dict(zip(trellis._bound_checks.tolist(), lb[1:].tolist()))
    rsyms = _bits_to_symbols(received, trellis.n)
    pm, survivors = _forward_pass(trellis, rsyms, bound, tail_lb)
    if survivors is None:
        return DecodeResult(None, int(pm.min()))
    bits = np.zeros(trellis.segments, dtype=np.uint8)
    state = 0
    top_shift = trellis.p - 1
    half = trellis.num_states >> 1
    for t in range(trellis.segments - 1, -1, -1):
        bits[t] = state & 1
        # a second stage stores state 4l + 2b1 + b2 at bit b1 * half + b2 * q
        # + l, any other step state 2m + b at bit b * half + m
        if t < trellis._paired and t & 1:
            i = ((state >> 1) & 1) * half + (state & 1) * (half >> 1) + (state >> 2)
        else:
            i = (state & 1) * half + (state >> 1)
        state = (state >> 1) | (((int(survivors[t, i >> 3]) >> (i & 7)) & 1) << top_shift)
    info = BitVec.from_bits(bits[: trellis.K])
    weight = (received ^ encode_streams(info, trellis.polys, trellis.p)).weight()
    if weight != int(pm[0]):
        raise RuntimeError("path metric disagrees with the survivor path")
    return DecodeResult(info, weight)
