"""Encryption and the best-first candidate decryption pipeline.

Encryption appends a CRC, multiplies by the public matrix and flips each
ciphertext bit independently. Decryption undoes the column permutation and
tests every unmasking hypothesis (c_tilde minus a span element of the mask
basis). Stream division is linear, so it runs once on c_tilde, and a
Gray-code walk of XORs over the divided basis gives each hypothesis's
quotient and remainder. Hypotheses are decoded in remainder-weight order,
and each Viterbi decode stops, or does not start, once it can no longer
win; the accepted candidate is the same as if every hypothesis had been
decoded in full. The gate is the first of those bounds, so no accepted
decode is checked against it again. PrivateKey.decoder derives the divided
basis, the gate and the trellis from the key, once per key object.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .analysis import estimate_alpha
from .bitlinalg import BitVec, mat_vec_mul, permute
from .convcode import CodeParams, PolyGenMatrix, deinterleave, interleave
from .gf2poly import crc_append, crc_verify, poly_divmod
from .trellis import viterbi_decode

if TYPE_CHECKING:
    from .keyring import PrivateKey, PublicKey


class DecryptionFailure(Exception):
    """No candidate passed the CRC and gate; retransmission is advised.

    ``candidate_weights[i]`` is the error weight of mask index i. Where
    ``lower_bound[i]`` is set it is only a lower bound: that decode stopped
    once its weight could no longer pass the gate.
    """

    def __init__(self, candidate_weights: list[int], lower_bound: list[bool]):
        self.candidate_weights = candidate_weights
        self.lower_bound = lower_bound
        super().__init__(f"decryption failed; candidate error weights {self.weights_text()}")

    def weights_text(self) -> str:
        """The weights by mask index, a lower bound w printed as >=w."""
        return "[" + ", ".join(
            f">={w}" if lb else str(w) for w, lb in zip(self.candidate_weights, self.lower_bound)
        ) + "]"


def encrypt(
    pub: PublicKey,
    m: BitVec,
    rng: np.random.Generator,
    error: BitVec | None = None,
) -> BitVec:
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
    return c ^ error


def enumerate_candidates(start, steps: Sequence) -> Iterator:
    """Yield start XOR every span element of steps, Gray-code ordered.

    Step i toggles exactly one of the steps; index 0 is start itself. Given
    the mask basis it lists the unmasking hypotheses of a ciphertext; given
    the basis vectors' quotients or remainders it lists theirs.
    """
    current = start
    yield current
    for i in range(1, 1 << len(steps)):
        current = current ^ steps[(i & -i).bit_length() - 1]
        yield current


def invert_highmem(
    candidate: BitVec, g_q: PolyGenMatrix, params: CodeParams
) -> tuple[BitVec, int]:
    """Divide each deinterleaved stream by its high-memory polynomial.

    Quotients are truncated or zero-padded to K + p coefficients and
    re-interleaved. The remainders are packed into one int, stream j at bit
    offset deg(g_q[0]) + ... + deg(g_q[j-1]). Both outputs are linear in the
    candidate.
    """
    if candidate.n != params.N:
        raise ValueError("candidate length mismatch")
    quot_len = params.K + params.p
    keep = (1 << quot_len) - 1
    streams = []
    remainders = 0
    offset = 0
    for stream, q_j in zip(deinterleave(candidate, params.n), g_q.polys):
        quot, rem = poly_divmod(stream.to_int(), q_j)
        streams.append(BitVec.from_int(quot_len, quot & keep))
        remainders |= rem << offset
        offset += q_j.bit_length() - 1
    return interleave(streams), remainders


def candidate_gate(params: CodeParams, g_q: PolyGenMatrix) -> int:
    """Largest corrected weight plausible for the channel: floor(e*N + alpha + 4 sigma).

    alpha is the exact mean weight that stream division adds (estimate_alpha)
    and sigma the standard deviation of the Binomial(N, e) channel weight.
    """
    e = float(params.e)
    alpha = sum(estimate_alpha(g_q, e, params.K + params.p + params.q))
    margin = 4.0 * (params.N * e * (1.0 - e)) ** 0.5
    return math.floor(e * params.N + alpha + margin)


def _divide_hypotheses(c_tilde: BitVec, priv: PrivateKey) -> tuple[list[BitVec], list[int]]:
    """Quotient and remainder weight of every hypothesis, by mask index.

    Division is linear, so c_tilde is divided here, the l basis vectors once
    per key (PrivateKey.decoder), and the 2^l hypotheses follow the
    Gray-code walk of enumerate_candidates.
    """
    q0, r0 = invert_highmem(c_tilde, priv.g_q, priv.params)
    _, _, divided = priv.decoder
    quotients = list(enumerate_candidates(q0, [q for q, _ in divided]))
    rem_weights = [r.bit_count() for r in enumerate_candidates(r0, [r for _, r in divided])]
    return quotients, rem_weights


def decrypt(priv: PrivateKey, pub: PublicKey, ct: BitVec) -> BitVec:
    """Recover the plaintext or raise DecryptionFailure with all weights.

    The result is the candidate with the least (error weight, mask index)
    that passes the CRC and the gate. Candidates are decoded in (remainder
    weight, mask index) order; the remainder weight only orders them. Each
    decode is bounded by what would still change the result: before any
    candidate is accepted, the gate bound; after, the best weight, or one
    less for a larger mask index. A decode that exceeds its bound stops with
    a lower bound, and one that finishes has weight at most its bound, so
    every finished decode has passed the gate.
    """
    c_tilde = permute(ct, priv.perm, inverse=True)  # raises ValueError unless ct.n == N
    quotients, rem_weights = _divide_hypotheses(c_tilde, priv)
    trellis, gate_bound, _ = priv.decoder
    weights = [0] * len(quotients)
    lower_bound = [False] * len(quotients)
    best = None  # (error weight, mask index, m_r) of the accepted candidate
    for i in sorted(range(len(quotients)), key=lambda j: (rem_weights[j], j)):
        if best is None:
            bound = gate_bound
        else:
            bound = best[0] if i < best[1] else best[0] - 1
        decode = viterbi_decode(trellis, quotients[i], bound)
        weights[i] = decode.error_weight
        if decode.info is None:
            lower_bound[i] = True
            continue
        m_r = mat_vec_mul(decode.info, priv.s_inv)
        if not crc_verify(m_r, priv.params.r_poly):
            continue
        best = (decode.error_weight, i, m_r)
    if best is None:
        raise DecryptionFailure(weights, lower_bound)
    return BitVec.from_bits(best[2].to_bits()[: priv.params.plaintext_len])
