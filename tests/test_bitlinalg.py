import tracemalloc

import numpy as np
import pytest

from mcc.bitlinalg import (
    BitVec,
    MatF2,
    Permutation,
    mat_add,
    mat_mul,
    mat_vec_mul,
    permute,
    rank,
    rank_invert,
    random_nonsingular,
    random_permutation,
)

# reference key-schedule values for the 30-bit demo system
GP_ROWS = [
    "1101110000000000",
    "0011011100000000",
    "0000110111000000",
    "0000001101110000",
    "0000000011011100",
    "0000000000110111",
]
S_ROWS = ["100100", "010001", "001000", "001110", "000010", "001011"]
S_INV_ROWS = ["101110", "011011", "001000", "001110", "000010", "001011"]
MASKED_SUM_ROWS = [
    "001000101010100111011010101010",
    "011101110101010110001001010101",
    "101000100010101010011101101010",
    "010101110111010101011000100101",
    "010101011101110101010110001001",
    "101010101000100010101010011101",
]
ALT_A = "101010101010101010101010101010"
ALT_B = "010101010101010101010101010101"


def test_bitvec_basics():
    v = BitVec.from01("10110")
    assert len(v) == 5
    assert v.weight() == 3
    assert v[0] == 1 and v[1] == 0
    assert v.to01() == "10110"
    assert v == BitVec.from_bits([1, 0, 1, 1, 0])
    assert v != BitVec.from01("101100")
    assert (v ^ v).weight() == 0
    assert BitVec.from_indices(5, [0, 2, 3]) == v


def test_bit_strings_hold_only_0_and_1():
    # any other digit used to read as 1 and silently changed an injected key
    for text in ("201", "1 0", "10x"):
        with pytest.raises(ValueError, match="0 and 1"):
            BitVec.from01(text)
    with pytest.raises(ValueError, match="0 and 1"):
        MatF2.from_bitstrings(["10", "12"])
    assert MatF2.from_bitstrings(["10", "01"]) == MatF2.identity(2)


def test_bitvec_canonical_padding():
    # stray bits above the length must never leak in: the constructors,
    # which adopt packed storage, refuse them rather than mask them
    with pytest.raises(ValueError, match="padding"):
        BitVec(3, [0xFF])
    assert BitVec(3, [0x07]) == BitVec.from01("111")
    data = np.zeros((3, 1), dtype=np.uint8)
    data[1, 0] = 0x20
    with pytest.raises(ValueError, match="padding"):
        MatF2(3, 5, data)
    data[1, 0] = 0x10
    assert MatF2(3, 5, data) == MatF2.from_bitstrings(["00000", "00001", "00000"])


def test_from_bytes_copies_the_callers_buffer():
    raw = bytearray(b"\x0f\xf0\x01")
    v = BitVec.from_bytes(17, raw)
    m = MatF2.from_row_bytes(1, 17, raw)
    raw[:] = b"\x00\x00\x00"
    assert v.to_bytes() == m.row_bytes() == b"\x0f\xf0\x01"
    assert v.weight() == 9 and m.row(0) == v


def test_matrix_parse_holds_one_copy_of_the_payload():
    # a bench-b-sized public matrix: its byte form is the storage, so a
    # parse allocates the payload once
    rows, cols = 1508, 10032
    raw = np.random.default_rng(0).integers(0, 256, rows * cols // 8, dtype=np.uint8).tobytes()
    tracemalloc.start()
    try:
        MatF2.from_row_bytes(rows, cols, raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * len(raw), (peak, len(raw))


def test_bitvec_int_round_trip():
    v = BitVec.from01("0110100000101")
    assert BitVec.from_int(v.n, v.to_int()) == v
    with pytest.raises(ValueError):
        BitVec.from_int(3, 0b1000)


BYTE_FORM_LENGTHS = (0, 1, 7, 8, 9, 63, 64, 65, 200)


@pytest.mark.parametrize("n", BYTE_FORM_LENGTHS)
def test_bitvec_byte_form_is_little_endian_packbits(n):
    bits = np.random.default_rng(n).integers(0, 2, size=n, dtype=np.uint8)
    raw = np.packbits(bits, bitorder="little").tobytes()
    v = BitVec.from_bits(bits)
    assert v.to_bytes() == raw
    assert BitVec.from_bytes(n, raw) == v
    assert BitVec.from_int(n, int.from_bytes(raw, "little")) == v
    assert v.to_int() == int.from_bytes(raw, "little")
    if n % 8:
        # a set padding bit would give the same vector a second byte form
        bad = raw[:-1] + bytes([raw[-1] | 0x80])
        with pytest.raises(ValueError, match="padding"):
            BitVec.from_bytes(n, bad)
    with pytest.raises(ValueError):
        BitVec.from_bytes(n, raw + b"\0")


@pytest.mark.parametrize("cols", BYTE_FORM_LENGTHS)
def test_matrix_row_bytes_are_the_rows_byte_forms(cols):
    rows = 3
    bits = np.random.default_rng(cols).integers(0, 2, size=(rows, cols), dtype=np.uint8)
    raw = np.packbits(bits, axis=1, bitorder="little").tobytes()
    m = MatF2.from_bits(bits)
    assert m.row_bytes() == raw
    assert m.row_bytes() == b"".join(m.row(i).to_bytes() for i in range(rows))
    assert MatF2.from_row_bytes(rows, cols, raw) == m
    assert MatF2.from_row_bytes(0, cols, b"") == MatF2.zeros(0, cols)
    if cols % 8:
        stride = (cols + 7) // 8
        bad = bytearray(raw)
        bad[2 * stride - 1] |= 0x80
        with pytest.raises(ValueError, match="padding"):
            MatF2.from_row_bytes(rows, cols, bytes(bad))
    with pytest.raises(ValueError):
        MatF2.from_row_bytes(rows, cols, raw + b"\0")


def test_mat_vec_mul_reference_matrix():
    gp = MatF2.from_bitstrings(GP_ROWS)
    m = BitVec.from01("111001")
    assert mat_vec_mul(m, gp).to01() == "1110011011110111"


def test_mat_vec_mul_zero_and_identity():
    gp = MatF2.from_bitstrings(GP_ROWS)
    assert mat_vec_mul(BitVec.zeros(6), gp).weight() == 0
    eye = MatF2.identity(6)
    v = BitVec.from01("010011")
    assert mat_vec_mul(v, eye) == v
    with pytest.raises(ValueError):
        mat_vec_mul(BitVec.zeros(5), gp)


def test_mat_add_masking_sum():
    # adding the alternating mask rows to the dense generator gives the
    # reference masked sum
    mask = MatF2.from_bitstrings([ALT_A, ALT_B, ALT_A, ALT_B, ALT_B, ALT_A])
    masked = MatF2.from_bitstrings(MASKED_SUM_ROWS)
    gpq = mat_add(masked, mask)
    assert mat_add(gpq, mask) == masked
    zero = MatF2.zeros(6, 30)
    assert mat_add(masked, zero) == masked
    assert mat_add(masked, masked) == zero
    with pytest.raises(ValueError):
        mat_add(masked, MatF2.zeros(6, 29))


def test_mat_mul_identity_and_inverse_pair():
    s = MatF2.from_bitstrings(S_ROWS)
    s_inv = MatF2.from_bitstrings(S_INV_ROWS)
    assert mat_mul(MatF2.identity(6), s) == s
    assert mat_mul(s, s_inv) == MatF2.identity(6)
    with pytest.raises(ValueError):
        mat_mul(s, MatF2.zeros(5, 4))


def test_rank_invert_reference_scramble():
    s = MatF2.from_bitstrings(S_ROWS)
    r, inv = rank_invert(s)
    assert r == 6
    assert inv == MatF2.from_bitstrings(S_INV_ROWS)


def test_rank_invert_identity_and_singular():
    r, inv = rank_invert(MatF2.identity(9))
    assert r == 9 and inv == MatF2.identity(9)
    dup = MatF2.from_bitstrings(["1011", "1011", "0001", "0110"])
    r, inv = rank_invert(dup)
    assert r < 4 and inv is None
    with pytest.raises(ValueError):
        rank_invert(MatF2.zeros(2, 3))


def test_rank_invert_inverse_both_sides():
    rng = np.random.default_rng(5)
    for k in (1, 7, 33, 64):
        m = random_nonsingular(k, rng)
        r, inv = rank_invert(m)
        assert r == k
        assert mat_mul(m, inv) == MatF2.identity(k)
        assert mat_mul(inv, m) == MatF2.identity(k)


def test_random_nonsingular():
    rng = np.random.default_rng(0)
    assert random_nonsingular(1, rng) == MatF2.from_bitstrings(["1"])
    m = random_nonsingular(64, np.random.default_rng(42))
    assert rank(m) == 64
    again = random_nonsingular(64, np.random.default_rng(42))
    assert m == again


def test_random_permutation():
    assert random_permutation(1, np.random.default_rng(0)) == Permutation.identity(1)
    p = random_permutation(30, np.random.default_rng(9))
    assert sorted(p.sources.tolist()) == list(range(30))
    assert p == random_permutation(30, np.random.default_rng(9))
    with pytest.raises(ValueError):
        Permutation([0, 0, 2])


def test_permute_identity_and_round_trip():
    rng = np.random.default_rng(3)
    v = BitVec.random(40, rng)
    ident = Permutation.identity(40)
    assert permute(v, ident) == v
    assert permute(v, ident, inverse=True) == v
    for _ in range(50):
        p = random_permutation(40, rng)
        w = BitVec.random(40, rng)
        assert permute(permute(w, p), p, inverse=True) == w
        assert permute(permute(w, p, inverse=True), p) == w


def test_permute_weight_preserving():
    rng = np.random.default_rng(13)
    p = random_permutation(64, rng)
    for _ in range(1000):
        v = BitVec.bernoulli(64, 0.2, rng)
        assert permute(v, p).weight() == v.weight()
        assert permute(v, p, inverse=True).weight() == v.weight()


def test_mul_associativity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(8, 65))
        n = int(rng.integers(8, 65))
        a = MatF2.random(k, k, rng)
        b = MatF2.random(k, n, rng)
        v = BitVec.random(k, rng)
        assert mat_vec_mul(mat_vec_mul(v, a), b) == mat_vec_mul(v, mat_mul(a, b))


def test_rank_preserved_by_scramble_and_permutation():
    rng = np.random.default_rng(19)
    for _ in range(10):
        k = int(rng.integers(6, 40))
        n = k + int(rng.integers(0, 30))
        m = MatF2.random(k, n, rng)
        s = random_nonsingular(k, rng)
        p = random_permutation(n, rng)
        bits = mat_mul(s, m).to_bits()[:, p.sources]
        assert rank(MatF2.from_bits(bits)) == rank(m)
