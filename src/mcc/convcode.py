"""Rate-1/n convolutional code machinery.

Covers stream interleaving, expansion of polynomial generator matrices to
finite scalar generator matrices, and stream encoding. Streams are always
materialized at their full padded length so interleaving never sees ragged
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bitlinalg import BitVec, MatF2
from .gf2poly import poly_mul

MAX_MASK_RANK = 20
MAX_TRELLIS_MEMORY = 16
# decoders pack one segment's n output bits into a uint8 symbol
MAX_STREAMS = 8
# keygen draws S as K x K bits, one byte per bit, and keyrand unpacks the K x N
# public matrix: at most 256 MiB each
MAX_K = 1 << 13
MAX_N = 1 << 15
# decryption holds 2^l quotients of n * (K + p) bits each: at most 128 MiB
MAX_HYPOTHESIS_BITS = 1 << 30


@dataclass(frozen=True)
class PolyGenMatrix:
    """One generator polynomial per output stream, each a positive int."""

    polys: tuple[int, ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("need at least one polynomial")
        if any(p <= 0 for p in self.polys):
            raise ValueError("generator polynomials must be positive")
        object.__setattr__(self, "polys", tuple(self.polys))

    @property
    def n(self) -> int:
        return len(self.polys)

    @property
    def memory(self) -> int:
        return max(self.polys).bit_length() - 1


@dataclass(frozen=True)
class CodeParams:
    """System parameters; N is derived as n * (K + p + q).

    K counts message bits including the CRC field, e is the ciphertext
    bit-flip probability kept exact as a rational, and l bounds the mask
    rank (2^l decoding hypotheses).
    """

    n: int
    p: int
    q: int
    K: int
    l: int
    e: Fraction
    r_poly: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_STREAMS:
            raise ValueError(f"n must be in 1..{MAX_STREAMS}")
        if not 0 < self.p <= MAX_TRELLIS_MEMORY:
            raise ValueError(f"p must be in 1..{MAX_TRELLIS_MEMORY}")
        if self.q < 0:
            raise ValueError("q must be nonnegative")
        if not 1 <= self.K <= MAX_K:
            raise ValueError(f"K must be in 1..{MAX_K}")
        if self.N > MAX_N:
            raise ValueError(f"N = n * (K + p + q) must be at most {MAX_N}")
        if not 0 <= self.l <= MAX_MASK_RANK:
            raise ValueError(f"l must be in 0..{MAX_MASK_RANK}")
        if (self.n * (self.K + self.p)) << self.l > MAX_HYPOTHESIS_BITS:
            raise ValueError(f"2^l * n * (K + p) must be at most {MAX_HYPOTHESIS_BITS} bits")
        e = Fraction(self.e)
        if not 0 <= e < 1:
            raise ValueError("e must lie in [0, 1)")
        object.__setattr__(self, "e", e)
        if self.r_poly <= 0:
            raise ValueError("CRC polynomial must be positive")
        if self.r >= self.K:
            raise ValueError("CRC degree must be smaller than K")

    def check_generators(self, g_p: PolyGenMatrix, g_q: PolyGenMatrix) -> None:
        """Raise ValueError unless g_p and g_q each have n polynomials, of memory p and q."""
        if g_p.n != self.n or g_q.n != self.n:
            raise ValueError("polynomial counts disagree with n")
        if g_p.memory != self.p:
            raise ValueError(f"g_p memory {g_p.memory} does not equal p = {self.p}")
        if g_q.memory != self.q:
            raise ValueError(f"g_q memory {g_q.memory} does not equal q = {self.q}")

    @property
    def N(self) -> int:
        return self.n * (self.K + self.p + self.q)

    @property
    def r(self) -> int:
        return self.r_poly.bit_length() - 1

    @property
    def plaintext_len(self) -> int:
        return self.K - self.r


def interleave(streams: Sequence[BitVec]) -> BitVec:
    """Alternate the streams element by element: output[n*t + j] = stream_j[t]."""
    if not streams:
        raise ValueError("no streams")
    n = len(streams)
    length = streams[0].n
    if any(s.n != length for s in streams):
        raise ValueError("streams have unequal lengths")
    out = np.empty(n * length, dtype=np.uint8)
    for j, s in enumerate(streams):
        out[j::n] = s.to_bits()
    return BitVec.from_bits(out)


def deinterleave(v: BitVec, n: int) -> list[BitVec]:
    """Split v into its n streams; stream j holds positions j, n+j, 2n+j, ..."""
    if n < 1 or v.n % n:
        raise ValueError("length not divisible by the stream count")
    return [BitVec.from_bits(s) for s in v.to_bits().reshape(-1, n).T]


def expand_scalar(polys: PolyGenMatrix, K: int, memory: int) -> MatF2:
    """K-row scalar generator matrix; row t is row 0 shifted right n*t bits.

    Row 0 packs the coefficient slices g_0 .. g_memory where slice i holds
    the x^i coefficients of all n polynomials.
    """
    if memory < polys.memory:
        raise ValueError("memory smaller than an actual polynomial degree")
    n = polys.n
    ncols = n * (K + memory)
    # row t ends before bit n * (t + memory + 1), inside the ncols columns
    row0 = sum(
        1 << (n * i + j)
        for j, pj in enumerate(polys.polys)
        for i in range(pj.bit_length())
        if pj >> i & 1
    )
    stride = (ncols + 7) // 8
    rows = b"".join((row0 << (n * t)).to_bytes(stride, "little") for t in range(K))
    return MatF2.from_row_bytes(K, ncols, rows)


def encode_streams(m: BitVec, polys: PolyGenMatrix, memory: int) -> BitVec:
    """Interleave of m(x) * poly_j(x), each stream padded to K + memory bits."""
    if memory < polys.memory:
        raise ValueError("memory smaller than an actual polynomial degree")
    mp = m.to_int()
    length = m.n + memory
    return interleave([BitVec.from_int(length, poly_mul(mp, pj)) for pj in polys.polys])
