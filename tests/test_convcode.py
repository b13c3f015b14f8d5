from fractions import Fraction

import numpy as np
import pytest

from mcc.bitlinalg import BitVec, MatF2, mat_add, rank
from mcc.convcode import (
    MAX_K,
    MAX_N,
    CodeParams,
    PolyGenMatrix,
    deinterleave,
    encode_streams,
    expand_scalar,
    interleave,
)
from mcc.gf2poly import from_exponents, poly_mul
from mcc.presets import PRESET_NAMES, load_preset
from oracles import dense_expand_scalar, encode_matrix
from polys import from_exponent_lists, from_octal_strings

GP = from_exponent_lists([[0, 2], [0, 1, 2]])
GQ = from_exponent_lists([[0, 7], [7]])
GPQ = PolyGenMatrix(tuple(poly_mul(a, b) for a, b in zip(GP.polys, GQ.polys)))

GP_SCALAR_ROWS = [
    "1101110000000000",
    "0011011100000000",
    "0000110111000000",
    "0000001101110000",
    "0000000011011100",
    "0000000000110111",
]
MASKED_SUM_ROWS = [
    "001000101010100111011010101010",
    "011101110101010110001001010101",
    "101000100010101010011101101010",
    "010101110111010101011000100101",
    "010101011101110101010110001001",
    "101010101000100010101010011101",
]
ALT_MASK_ROWS = [
    "101010101010101010101010101010",
    "010101010101010101010101010101",
    "101010101010101010101010101010",
    "010101010101010101010101010101",
    "010101010101010101010101010101",
    "101010101010101010101010101010",
]
# reference permuted receive word, reconstructed from its two streams
C_TILDE = "010101010101011000011101010011"
D3 = "0111100010101100"


def test_interleave_reference_codeword():
    m = from_exponents([0, 1, 2, 5])
    streams = [BitVec.from_int(8, poly_mul(m, p)) for p in GP.polys]
    assert interleave(streams).to01() == "1110011011110111"


def test_interleave_single_stream_is_identity():
    v = BitVec.from01("0110")
    assert interleave([v]) == v


def test_interleave_reference_quotients():
    d10 = BitVec.from01("01101110")
    d11 = BitVec.from01("11000010")
    assert interleave([d10, d11]).to01() == D3


def test_interleave_rejects_ragged():
    with pytest.raises(ValueError):
        interleave([BitVec.zeros(3), BitVec.zeros(4)])


def test_deinterleave_reference_streams():
    ct = BitVec.from01(C_TILDE)
    s0, s1 = deinterleave(ct, 2)
    assert list(s0.indices()) == [7, 10, 14]
    assert list(s1.indices()) == [0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 14]


def test_deinterleave_bad_args():
    v = BitVec.zeros(10)
    with pytest.raises(ValueError):
        deinterleave(v, 3)


def test_interleave_deinterleave_round_trip():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        length = int(rng.integers(1, 4097))
        streams = [BitVec.random(length, rng) for _ in range(n)]
        v = interleave(streams)
        assert deinterleave(v, n) == streams


def test_expand_scalar_low_memory_matrix():
    assert expand_scalar(GP, 6, 2) == MatF2.from_bitstrings(GP_SCALAR_ROWS)


def test_expand_scalar_high_memory_matrix():
    # the dense reference rows are the masked sum; peel the mask off
    expected = mat_add(
        MatF2.from_bitstrings(MASKED_SUM_ROWS), MatF2.from_bitstrings(ALT_MASK_ROWS)
    )
    assert expand_scalar(GPQ, 6, 9) == expected


def test_expand_scalar_trivial_identity():
    one = PolyGenMatrix((1,))
    assert expand_scalar(one, 5, 0) == MatF2.identity(5)


def test_expand_scalar_memory_too_small():
    with pytest.raises(ValueError):
        expand_scalar(GP, 6, 1)


def test_expand_scalar_matches_dense_construction():
    # the keygen products of every preset, at full K, and a memory above the degree
    for name in PRESET_NAMES:
        pf = load_preset(name)
        gpq = PolyGenMatrix(tuple(poly_mul(a, b) for a, b in zip(pf.g_p.polys, pf.g_q.polys)))
        mem = pf.params.p + pf.params.q
        assert expand_scalar(gpq, pf.params.K, mem) == dense_expand_scalar(gpq, pf.params.K, mem)
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        polys = PolyGenMatrix(
            tuple(int(rng.integers(1, 1 << 12)) for _ in range(n))
        )
        k = int(rng.integers(1, 40))
        mem = polys.memory + int(rng.integers(0, 3))
        assert expand_scalar(polys, k, mem) == dense_expand_scalar(polys, k, mem)


def test_expand_scalar_full_row_rank():
    for polys, mem in ((GP, 2), (GPQ, 9)):
        m = expand_scalar(polys, 12, mem)
        assert rank(m) == 12


def test_encode_streams_reference():
    m = BitVec.from01("111001")
    assert encode_streams(m, GP, 2).to01() == "1110011011110111"
    assert encode_streams(BitVec.zeros(6), GP, 2).weight() == 0


def test_encode_streams_matches_matrix_path():
    rng = np.random.default_rng(9)
    for _ in range(500):
        k = int(rng.integers(1, 40))
        m = BitVec.random(k, rng)
        assert encode_streams(m, GP, 2) == encode_matrix(m, GP, 2)
        assert encode_streams(m, GPQ, 9) == encode_matrix(m, GPQ, 9)


@pytest.mark.parametrize(
    "gp_octal,gq_lists,k",
    [
        (["5", "7"], [[0, 7], [7]], 40),
        (["56721", "61713"], [[93], [186]], 120),
        (["56721", "61713"], [[93], [0, 186]], 120),
        (["2327", "2353", "2671", "3175"], [[0, 495, 990], [247], [743], [0, 990]], 64),
    ],
)
def test_high_memory_composition_law(gp_octal, gq_lists, k):
    # encoding through p_j * q_j equals encoding through p_j then multiplying
    # by q_j, stream by stream; decryption inverts exactly this factorization
    gp = from_octal_strings(gp_octal)
    gq = from_exponent_lists(gq_lists)
    gpq = PolyGenMatrix(tuple(poly_mul(a, b) for a, b in zip(gp.polys, gq.polys)))
    mem_pq = gp.memory + gq.memory
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = BitVec.random(k, rng)
        full = encode_streams(m, gpq, mem_pq)
        low = encode_streams(m, gp, gp.memory)
        length = k + mem_pq
        for low_j, full_j, q_j in zip(deinterleave(low, gp.n), deinterleave(full, gp.n), gq.polys):
            assert full_j == BitVec.from_int(length, poly_mul(low_j.to_int(), q_j))


def test_code_params_invariants():
    params = CodeParams(
        n=2, p=2, q=7, K=6, l=2, e=Fraction(1, 10), r_poly=1
    )
    assert params.N == 30
    assert params.r == 0
    assert params.plaintext_len == 6
    with pytest.raises(ValueError):
        CodeParams(n=9, p=2, q=7, K=6, l=2, e=Fraction(0), r_poly=1)
    with pytest.raises(ValueError):
        CodeParams(n=2, p=0, q=7, K=6, l=2, e=Fraction(0), r_poly=1)
    with pytest.raises(ValueError):
        CodeParams(n=2, p=17, q=7, K=6, l=2, e=Fraction(0), r_poly=1)
    with pytest.raises(ValueError):
        CodeParams(n=2, p=2, q=7, K=6, l=21, e=Fraction(0), r_poly=1)
    with pytest.raises(ValueError):
        CodeParams(n=2, p=2, q=7, K=6, l=2, e=Fraction(1), r_poly=1)
    with pytest.raises(ValueError):
        CodeParams(n=2, p=2, q=7, K=6, l=2, e=Fraction(0), r_poly=0)
    with pytest.raises(ValueError, match="CRC polynomial"):
        CodeParams(n=2, p=2, q=7, K=6, l=2, e=Fraction(0), r_poly=-1)
    # size caps: K and N bound keygen's dense K x N matrices
    assert CodeParams(
        n=2, p=2, q=7, K=MAX_K, l=2, e=Fraction(0), r_poly=1
    ).N <= MAX_N
    with pytest.raises(ValueError, match="K must be"):
        CodeParams(n=2, p=2, q=7, K=MAX_K + 1, l=2, e=Fraction(0), r_poly=1)
    with pytest.raises(ValueError, match="K must be"):
        CodeParams(n=2, p=2, q=7, K=3_000_000, l=2, e=Fraction(0), r_poly=1)
    with pytest.raises(ValueError, match="N = "):
        CodeParams(n=8, p=2, q=100, K=4000, l=2, e=Fraction(0), r_poly=1)
    # decryption's 2^l quotients of n * (K + p) bits: 2^15 bits each here
    assert CodeParams(
        n=4, p=16, q=0, K=8176, l=15, e=Fraction(0), r_poly=1
    ).N == MAX_N
    for l in (16, 20):
        with pytest.raises(ValueError, match="2\\^l"):
            CodeParams(n=4, p=16, q=0, K=8176, l=l, e=Fraction(0), r_poly=1)


def test_poly_gen_matrix_validation():
    with pytest.raises(ValueError):
        PolyGenMatrix(())
    with pytest.raises(ValueError):
        PolyGenMatrix((1, 0))
    with pytest.raises(ValueError):
        PolyGenMatrix((1, -3))
