import numpy as np
import pytest

from mcc.bitlinalg import BitVec
from mcc.gf2poly import crc_append, crc_verify, from_exponents, from_octal, poly_divmod, poly_mul
from mcc.presets import PRESET_NAMES, load_preset
from oracles import reference_crc_append


def P(*exps):
    return from_exponents(exps)


def rand_poly(rng, max_deg):
    value = int.from_bytes(rng.bytes(max_deg // 8 + 1), "little")
    return value & ((1 << (max_deg + 1)) - 1)


def test_poly_mul_reference_products():
    assert poly_mul(P(0, 2), P(0, 7)) == P(0, 2, 7, 9)
    assert poly_mul(P(0, 1, 2), P(7)) == P(7, 8, 9)


def test_poly_mul_trivial():
    a = P(0, 3, 5)
    assert poly_mul(a, 0) == 0
    assert poly_mul(a, 1) == a


def test_poly_mul_commutative_associative():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = (rand_poly(rng, 40) for _ in range(3))
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


def test_poly_mul_degree_adds():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rand_poly(rng, 30), rand_poly(rng, 50)
        if a and b:
            assert poly_mul(a, b).bit_length() - 1 == (a.bit_length() - 1) + (b.bit_length() - 1)


def test_divmod_reference_quotients():
    q, r = poly_divmod(P(7, 10, 14), P(0, 7))
    assert q == P(3, 7) and r == P(3)
    q, r = poly_divmod(P(7, 8, 13), P(7))
    assert q == P(0, 1, 6) and r == 0
    a = P(1, 4, 9)
    q, r = poly_divmod(a, 1)
    assert q == a and r == 0


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(P(1), 0)


def test_divmod_identity_property():
    rng = np.random.default_rng(5)
    for _ in range(150):
        a = rand_poly(rng, int(rng.integers(0, 4097)))
        b = rand_poly(rng, int(rng.integers(0, 300)))
        if not b:
            continue
        q, r = poly_divmod(a, b)
        assert poly_mul(q, b) ^ r == a
        assert r.bit_length() - 1 < b.bit_length() - 1


def test_division_maps_are_linear():
    # quotients and remainders of a sum split into sums of the parts; the
    # unmasking step of decryption relies on exactly this superposition
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rand_poly(rng, 500)
        b = rand_poly(rng, 500)
        d = rand_poly(rng, 60)
        if not d:
            continue
        qa, ra = poly_divmod(a, d)
        qb, rb = poly_divmod(b, d)
        qs, rs = poly_divmod(a ^ b, d)
        assert qs == qa ^ qb
        assert rs == ra ^ rb


def test_octal_parsing_msb_first():
    assert from_octal("753") == P(0, 1, 2, 3, 5, 7, 8)
    assert from_octal("0o561") == P(0, 2, 3, 4, 8)
    assert from_octal("7") == P(0, 1, 2)


def test_crc_append_hand_example():
    m = BitVec.from01("101")
    out = crc_append(m, P(0, 1))
    assert out.to01() == "1010"
    assert crc_verify(out, P(0, 1))
    assert not crc_verify(BitVec.from01("1011"), P(0, 1))


def test_crc_append_zero_message():
    out = crc_append(BitVec.zeros(12), P(0, 5, 12, 16))
    assert out.n == 28 and out.weight() == 0


def test_crc_degree_zero_is_identity():
    m = BitVec.from01("10101")
    assert crc_append(m, 1) == m
    assert crc_verify(m, 1)


def test_crc_round_trip_random():
    rng = np.random.default_rng(11)
    poly = P(0, 5, 12, 16)
    for _ in range(1000):
        m = BitVec.random(int(rng.integers(1, 120)), rng)
        assert crc_verify(crc_append(m, poly), poly)


def r_poly_ids(polys):
    """The ids pytest gave these cases when each polynomial was an object."""
    return [f"r_poly{i}" for i in range(len(polys))]


SINGLE_FLIP_POLYS = [P(0, 1), P(0, 2, 3), P(0, 5, 12, 16)]
LONG_DIVISION_POLYS = [load_preset(name).params.r_poly for name in PRESET_NAMES] + [
    P(0, 1), P(1), P(0, 2), P(0, 1, 3), P(3), P(0, 2, 9), P(0, 8, 9), P(0, 1, 5, 6, 8, 31)
]


@pytest.mark.parametrize("r_poly", SINGLE_FLIP_POLYS, ids=r_poly_ids(SINGLE_FLIP_POLYS))
def test_crc_detects_every_single_bit_flip(r_poly):
    rng = np.random.default_rng(13)
    for k_total in (8, 17, 33, 64):
        r = r_poly.bit_length() - 1
        if r >= k_total:
            continue
        m = BitVec.random(k_total - r, rng)
        word = crc_append(m, r_poly)
        bits = word.to_bits()
        for i in range(k_total):
            flipped = bits.copy()
            flipped[i] ^= 1
            assert not crc_verify(BitVec.from_bits(flipped), r_poly)


@pytest.mark.parametrize("r_poly", LONG_DIVISION_POLYS, ids=r_poly_ids(LONG_DIVISION_POLYS))
def test_crc_append_matches_long_division(r_poly):
    # the byte table against one long division: every preset's polynomial,
    # degrees 1 to 3 and above 8, random messages of 0 to 70 bits and of
    # bench-a's 2584
    rng = np.random.default_rng(47)
    for k in [*range(71), 2584]:
        m = BitVec.random(k, rng)
        assert crc_append(m, r_poly) == reference_crc_append(m, r_poly)
