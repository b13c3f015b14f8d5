import struct

import numpy as np
import pytest

from mcc.bitlinalg import BitVec, MatF2, Permutation, mat_add, mat_vec_mul, rank
from mcc.convcode import expand_scalar
from mcc.keyring import (
    KeyFormatError,
    KeyMaterial,
    MaskBasis,
    PrivateKey,
    PublicKey,
    deserialize_key,
    gen_mask_basis,
    gen_mask_matrix,
    keygen,
    rebuild_public,
    serialize_key,
)
from mcc.presets import ParamFileError, load_preset, parse_param_file

G_ROW0 = "101011001100101101010111100100"


def test_mask_basis_requires_independence():
    a = BitVec.from01("1010")
    with pytest.raises(ValueError):
        MaskBasis((a, a))


def test_gen_mask_basis_empty():
    basis = gen_mask_basis(30, 0, np.random.default_rng(0))
    assert basis.l == 0
    assert basis.span_size == 1
    assert basis.span_element(0, 30).weight() == 0


def test_demo_basis_spans_four_elements(demo):
    basis = demo.material.mask_basis
    span = {basis.span_element(i).to01() for i in range(basis.span_size)}
    assert span == {
        "0" * 30,
        "1" * 30,
        "101010101010101010101010101010",
        "010101010101010101010101010101",
    }


def test_gen_mask_basis_rank_and_determinism():
    basis = gen_mask_basis(5600, 5, np.random.default_rng(7))
    assert basis.l == 5
    assert rank(MatF2.from_rows(basis.vectors)) == 5
    again = gen_mask_basis(5600, 5, np.random.default_rng(7))
    assert basis == again


def test_gen_mask_matrix_rows_live_in_span(demo):
    rng = np.random.default_rng(3)
    basis = gen_mask_basis(30, 3, rng)
    gpq = expand_scalar_demo(demo)
    mask = gen_mask_matrix(basis, 6, gpq, rng)
    for i in range(6):
        assert basis.contains(mask.row(i))
    assert rank(mat_add(gpq, mask)) == 6


def test_gen_mask_matrix_zero_rank(demo):
    gpq = expand_scalar_demo(demo)
    mask = gen_mask_matrix(MaskBasis(()), 6, gpq, np.random.default_rng(0))
    assert mask == MatF2.zeros(6, 30)


def expand_scalar_demo(demo):
    from mcc.convcode import PolyGenMatrix

    gpq = PolyGenMatrix(tuple(a * b for a, b in zip(demo.g_p.polys, demo.g_q.polys)))
    return expand_scalar(gpq, demo.params.K, demo.params.p + demo.params.q)


def test_keygen_reference_fixture(demo, demo_keys):
    pub, priv = demo_keys
    assert pub.g.row(0).to01() == G_ROW0
    assert rank(pub.g) == 6
    assert priv.s_inv == MatF2.from_bitstrings(
        ["101110", "011011", "001000", "001110", "000010", "001011"]
    )
    # encoding through the public key equals the unscrambled encoding
    # followed by the column permutation
    from mcc.bitlinalg import permute

    m_r = demo.message
    unpermuted = mat_vec_mul(
        mat_vec_mul(m_r, priv.s), mat_add(expand_scalar_demo(demo), priv.mask_matrix)
    )
    assert mat_vec_mul(m_r, pub.g) == permute(unpermuted, priv.perm)


def test_keygen_disabled_transformations(demo):
    params = demo.params
    material = KeyMaterial(
        s=MatF2.identity(6),
        perm=Permutation.identity(30),
        mask_basis=MaskBasis(()),
        mask_matrix=MatF2.zeros(6, 30),
    )
    pub, priv = keygen(params, demo.g_p, demo.g_q, np.random.default_rng(0), material=material)
    assert pub.g == expand_scalar_demo(demo)


def test_keygen_rejects_bad_degrees(demo):
    with pytest.raises(ValueError):
        keygen(demo.params, demo.g_q, demo.g_q, np.random.default_rng(0))


def test_keygen_desk_scale_rank(desk):
    pub, priv = keygen(desk.params, desk.g_p, desk.g_q, np.random.default_rng(5))
    assert pub.g.shape == (256, 656)
    assert rank(pub.g) == 256


def test_rebuild_public(demo_keys):
    pub, priv = demo_keys
    assert rebuild_public(priv) == pub.g


def test_rebuild_detects_corruption(demo_keys):
    pub, priv = demo_keys
    bits = priv.mask_matrix.to_bits()
    bits[2, 17] ^= 1
    corrupted = PrivateKey(
        params=priv.params,
        g_p=priv.g_p,
        g_q=priv.g_q,
        s=priv.s,
        s_inv=priv.s_inv,
        perm=priv.perm,
        mask_basis=priv.mask_basis,
        mask_matrix=MatF2.from_bits(bits),
    )
    assert rebuild_public(corrupted) != pub.g


def test_scrambled_mask_rows_stay_in_span(demo_keys):
    # any message picks up a mask contribution that is itself a span element
    pub, priv = demo_keys
    rng = np.random.default_rng(11)
    for _ in range(50):
        m_r = BitVec.random(6, rng)
        contrib = mat_vec_mul(mat_vec_mul(m_r, priv.s), priv.mask_matrix)
        assert priv.mask_basis.contains(contrib)


def test_serialize_round_trip_public(demo_keys):
    pub, _ = demo_keys
    blob = serialize_key(pub)
    again = deserialize_key(blob)
    assert isinstance(again, PublicKey)
    assert again.params == pub.params
    assert again.g == pub.g
    assert serialize_key(again) == blob


def test_serialize_round_trip_private(demo_keys):
    _, priv = demo_keys
    blob = serialize_key(priv)
    again = deserialize_key(blob)
    assert isinstance(again, PrivateKey)
    assert again == priv
    assert serialize_key(again) == blob


def test_serialize_round_trip_random_desk(desk_keys):
    pub, priv = desk_keys
    assert deserialize_key(serialize_key(pub)) == pub
    assert deserialize_key(serialize_key(priv)) == priv


def test_deserialize_rejects_garbage(demo_keys):
    pub, priv = demo_keys
    blob = serialize_key(pub)
    with pytest.raises(KeyFormatError):
        deserialize_key(blob[:20])
    with pytest.raises(KeyFormatError):
        deserialize_key(b"XXXX" + blob[4:])
    with pytest.raises(KeyFormatError):
        deserialize_key(blob[:4] + bytes([99]) + blob[5:])
    with pytest.raises(KeyFormatError):
        deserialize_key(blob + b"\x00")


def test_preset_params_load():
    for name in ("demo", "desk", "bench-a", "bench-b"):
        pf = load_preset(name)
        assert pf.params.N == pf.params.n * (pf.params.K + pf.params.p + pf.params.q)
    assert load_preset("bench-a").params.N == 5600
    assert load_preset("bench-b").params.N == 10032


def test_nine_streams_rejected_in_files(demo_keys):
    # parse-ready except for n: nine streams overflow the uint8 segment symbols
    text = (
        "n = 9\np = 2\nq = 1\nK = 20\nl = 0\ne = 1/100\n"
        f"g_p = {'; '.join(['[0,2]'] * 9)}\ng_q = {'; '.join(['[1]'] * 9)}\n"
    )
    with pytest.raises(ParamFileError, match="n must be"):
        parse_param_file(text)
    blob = serialize_key(demo_keys[0])
    with pytest.raises(KeyFormatError, match="n must be"):
        deserialize_key(blob[:6] + struct.pack("<I", 9) + blob[10:])
