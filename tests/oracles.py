"""Slow reference implementations that tests compare the package against."""

from mcc.bitlinalg import BitVec, mat_vec_mul, permute
from mcc.convcode import PolyGenMatrix, expand_scalar
from mcc.cryptopipe import (
    CandidateOutcome,
    Ciphertext,
    DecryptionFailure,
    _default_alpha,
    candidate_gate,
    enumerate_candidates,
    invert_highmem,
)
from mcc.gf2poly import crc_verify
from mcc.keyring import MaskBasis, PrivateKey
from mcc.trellis import build_trellis, viterbi_decode


def span_element_for_index(basis: MaskBasis, index: int, n: int) -> BitVec:
    """Span element subtracted at enumeration position `index` (Gray order)."""
    return basis.span_element(index ^ (index >> 1), n)


def encode_matrix(m: BitVec, polys: PolyGenMatrix, memory: int) -> BitVec:
    """Encode through the expanded scalar matrix; equals encode_streams."""
    return mat_vec_mul(m, expand_scalar(polys, m.n, memory))


def reference_decrypt(priv: PrivateKey, ct: Ciphertext, use_gate: bool = True) -> BitVec:
    """One candidate at a time: unmask, divide, decode, then rank and accept.

    Every candidate is decoded in full before ranking by (error weight, mask
    index); the first to pass the CRC and, when asked, the gate wins. This is
    the result any faster decrypt must reproduce, failures included.
    """
    params = priv.params
    c_tilde = permute(ct.bits, priv.perm, inverse=True)
    trellis = build_trellis(priv.g_p, params.K)
    outcomes = []
    for i, cand in enumerate(enumerate_candidates(c_tilde, priv.mask_basis)):
        quotient, rem_weight = invert_highmem(cand, priv.g_q, params)
        decode = viterbi_decode(trellis, quotient)
        outcomes.append(CandidateOutcome(i, quotient, decode, rem_weight))
    outcomes.sort(key=lambda o: (o.decode.error_weight, o.mask_index))
    alpha = _default_alpha(priv.g_q, float(params.e), params.K + params.p + params.q)
    for outcome in outcomes:
        m_r = mat_vec_mul(outcome.decode.info, priv.s_inv)
        if not crc_verify(m_r, params.r_poly):
            continue
        if use_gate and not candidate_gate(outcome, params, alpha):
            continue
        return BitVec.from_bits(m_r.to_bits()[: params.plaintext_len])
    raise DecryptionFailure([o.decode.error_weight for o in outcomes])
