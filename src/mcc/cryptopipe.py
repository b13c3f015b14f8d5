"""Encryption and the candidate-enumeration decryption pipeline.

Encryption appends a CRC, multiplies by the public matrix and flips each
ciphertext bit independently. Decryption undoes the column permutation,
subtracts every span element of the mask basis (Gray-code order, one basis
XOR per step), inverts the high-memory polynomial factor of each stream by
division, Viterbi-decodes all 2^l candidates, and accepts the best-ranked
candidate that passes the CRC and a weight plausibility gate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .bitlinalg import BitVec, mat_vec_mul, permute
from .convcode import CodeParams, PolyGenMatrix, deinterleave, interleave
from .gf2poly import BinPoly, crc_append, crc_verify, poly_divmod
from .keyring import KeyFormatError, MaskBasis, PrivateKey, PublicKey
from .trellis import DecodeResult, Trellis, build_trellis, viterbi_decode

_CT_MAGIC = b"MCCc"
_CT_VERSION = 1


@dataclass(frozen=True)
class Ciphertext:
    bits: BitVec


@dataclass(frozen=True)
class CandidateOutcome:
    """Result of one unmasking hypothesis."""

    mask_index: int
    decode: DecodeResult
    remainder_weight: int


class DecryptionFailure(Exception):
    """No candidate passed the CRC and gate; retransmission is advised."""

    def __init__(self, candidate_weights: list[int]):
        self.candidate_weights = candidate_weights
        super().__init__(
            f"decryption failed; candidate error weights {candidate_weights}"
        )


def encrypt(
    pub: PublicKey,
    m: BitVec,
    rng: np.random.Generator,
    error: BitVec | None = None,
) -> Ciphertext:
    """CRC-extend, encode through the public matrix, add Bernoulli errors.

    A fixed error vector can be injected in place of the random draw.
    """
    params = pub.params
    if m.n != params.plaintext_len:
        raise ValueError(f"plaintext must be {params.plaintext_len} bits, got {m.n}")
    m_r = crc_append(m, params.r_poly)
    c = mat_vec_mul(m_r, pub.g)
    if error is None:
        error = BitVec.bernoulli(params.N, float(params.e), rng)
    elif error.n != params.N:
        raise ValueError("error vector length mismatch")
    return Ciphertext(c ^ error)


def enumerate_candidates(c_tilde: BitVec, basis: MaskBasis) -> Iterator[BitVec]:
    """Yield c_tilde minus every span element, Gray-code ordered.

    Step i toggles exactly one basis vector; index 0 is the zero element.
    """
    if basis.l and basis.vectors[0].n != c_tilde.n:
        raise ValueError("length mismatch")
    current = c_tilde
    yield current
    for i in range(1, 1 << basis.l):
        flip = (i & -i).bit_length() - 1
        current = current ^ basis.vectors[flip]
        yield current


def invert_highmem(
    candidate: BitVec, g_q: PolyGenMatrix, params: CodeParams
) -> tuple[BitVec, int]:
    """Divide each deinterleaved stream by its high-memory polynomial.

    Quotients are truncated or zero-padded to K + p coefficients and
    re-interleaved; remainders are ignored apart from their total weight,
    which is reported for diagnostics.
    """
    if candidate.n != params.N:
        raise ValueError("candidate length mismatch")
    quot_len = params.K + params.p
    streams = []
    rem_weight = 0
    for j, q_j in enumerate(g_q.polys):
        stream = BinPoly.from_bitvec(deinterleave(candidate, params.n, j))
        quot, rem = poly_divmod(stream, q_j)
        streams.append(quot.truncate(quot_len).to_bitvec(quot_len))
        rem_weight += rem.weight
    return interleave(streams), rem_weight


@lru_cache(maxsize=16)
def _default_alpha(g_q: PolyGenMatrix, e: float, stream_len: int) -> float:
    """Deterministic small-sample propagation estimate used by the gate."""
    from .analysis import estimate_alpha

    if e == 0.0:
        return 0.0
    est = estimate_alpha(g_q, e, stream_len, trials=128, rng=np.random.default_rng(0))
    return est.alpha_total


def candidate_gate(
    outcome: CandidateOutcome, params: CodeParams, alpha_estimate: float
) -> bool:
    """Accept only decodes whose corrected weight is plausible for the channel."""
    e = float(params.e)
    margin = 4.0 * (params.N * e * (1.0 - e)) ** 0.5
    return outcome.decode.error_weight <= e * params.N + alpha_estimate + margin


def _decode_candidate(
    index: int, candidate: BitVec, g_q: PolyGenMatrix, params: CodeParams, trellis: Trellis
) -> CandidateOutcome:
    quotient, rem_weight = invert_highmem(candidate, g_q, params)
    decode = viterbi_decode(trellis, quotient)
    return CandidateOutcome(index, decode, rem_weight)


def decrypt(
    priv: PrivateKey, pub: PublicKey, ct: Ciphertext, use_gate: bool = True
) -> BitVec:
    """Recover the plaintext or raise DecryptionFailure with all weights.

    Candidates are ranked by (error weight, mask index), so the result is
    deterministic.
    """
    params = priv.params
    if ct.bits.n != params.N:
        raise ValueError("ciphertext length mismatch")
    c_tilde = permute(ct.bits, priv.perm, inverse=True)
    trellis = build_trellis(priv.g_p, params.K)
    outcomes = [
        _decode_candidate(i, cand, priv.g_q, params, trellis)
        for i, cand in enumerate(enumerate_candidates(c_tilde, priv.mask_basis))
    ]
    outcomes.sort(key=lambda o: (o.decode.error_weight, o.mask_index))
    if use_gate:
        alpha = _default_alpha(priv.g_q, float(params.e), params.K + params.p + params.q)
    for outcome in outcomes:
        m_r = mat_vec_mul(outcome.decode.info, priv.s_inv)
        if not crc_verify(m_r, params.r_poly):
            continue
        if use_gate and not candidate_gate(outcome, params, alpha):
            continue
        return BitVec.from_bits(m_r.to_bits()[: params.plaintext_len])
    raise DecryptionFailure([o.decode.error_weight for o in outcomes])


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    bits = ct.bits.to_bits()
    return (
        _CT_MAGIC
        + bytes([_CT_VERSION])
        + struct.pack("<Q", ct.bits.n)
        + np.packbits(bits, bitorder="little").tobytes()
    )


def deserialize_ciphertext(data: bytes) -> Ciphertext:
    if len(data) < 13 or data[:4] != _CT_MAGIC:
        raise KeyFormatError("bad ciphertext magic")
    if data[4] != _CT_VERSION:
        raise KeyFormatError(f"unsupported ciphertext version {data[4]}")
    (nbits,) = struct.unpack("<Q", data[5:13])
    payload = data[13:]
    if len(payload) != (nbits + 7) // 8:
        raise KeyFormatError("ciphertext payload length mismatch")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")[:nbits]
    return Ciphertext(BitVec.from_bits(bits))
