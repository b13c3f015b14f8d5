import dataclasses
import hashlib
import struct
import time
import tracemalloc

import numpy as np
import pytest

from mcc.bitlinalg import BitVec, MatF2, Permutation, mat_add, mat_vec_mul, rank
from mcc.convcode import MAX_MASK_RANK, MAX_N, expand_scalar
from mcc.gf2poly import poly_mul
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
    serialize_key,
)
from mcc.presets import ParamFileError, _parse_poly, load_preset, parse_param_file
from oracles import recover_masked_sum, span_contains, span_element, span_size

G_ROW0 = "101011001100101101010111100100"


def test_mask_basis_requires_independence():
    a = BitVec.from01("1010")
    with pytest.raises(ValueError):
        MaskBasis((a, a))


def test_gen_mask_basis_empty():
    basis = gen_mask_basis(30, 0, np.random.default_rng(0))
    assert basis.l == 0
    assert span_size(basis) == 1
    assert span_element(basis, 0, 30).weight() == 0


def test_demo_basis_spans_four_elements(demo):
    basis = demo.material.mask_basis
    span = {span_element(basis, i).to01() for i in range(span_size(basis))}
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


def test_gen_mask_basis_redraws_dependent_draws():
    # three uniform 3-bit vectors are independent only about a third of the time
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert rank(MatF2.from_rows(gen_mask_basis(3, 3, rng).vectors)) == 3


def test_gen_mask_basis_rank_cap():
    assert gen_mask_basis(64, MAX_MASK_RANK, np.random.default_rng(0)).l == MAX_MASK_RANK
    for l in (-1, MAX_MASK_RANK + 1):
        with pytest.raises(ValueError, match=f"0..{MAX_MASK_RANK}"):
            gen_mask_basis(64, l, np.random.default_rng(0))


def test_gen_mask_matrix_rows_live_in_span(demo):
    rng = np.random.default_rng(3)
    basis = gen_mask_basis(30, 3, rng)
    gpq = expand_scalar_demo(demo)
    mask = gen_mask_matrix(basis, 6, gpq, rng)
    for i in range(6):
        assert span_contains(basis, mask.row(i))
    assert rank(mat_add(gpq, mask)) == 6


def test_gen_mask_matrix_zero_rank(demo):
    gpq = expand_scalar_demo(demo)
    mask = gen_mask_matrix(MaskBasis(()), 6, gpq, np.random.default_rng(0))
    assert mask == MatF2.zeros(6, 30)


def expand_scalar_demo(demo):
    from mcc.convcode import PolyGenMatrix

    gpq = PolyGenMatrix(tuple(poly_mul(a, b) for a, b in zip(demo.g_p.polys, demo.g_q.polys)))
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
        mat_vec_mul(m_r, demo.material.s),
        mat_add(expand_scalar_demo(demo), demo.material.mask_matrix),
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


def test_keygen_rejects_basis_the_key_file_cannot_hold(demo):
    # a private key file holds at most l basis vectors, each of length N
    rng = np.random.default_rng(0)
    for basis in (gen_mask_basis(30, 3, rng), gen_mask_basis(29, 1, rng)):
        material = dataclasses.replace(demo.material, mask_basis=basis)
        with pytest.raises(ValueError, match="injected material"):
            keygen(demo.params, demo.g_p, demo.g_q, rng, material=material)


def test_keygen_rejects_mask_rows_outside_the_basis_span(demo):
    # decryption tests only the span's 2^l elements, so such a key decrypted
    # noiseless demo ciphertexts to wrong plaintexts
    rows = demo.material.mask_matrix.to_bits()
    rows[0, 0] ^= 1
    material = dataclasses.replace(demo.material, mask_matrix=MatF2.from_bits(rows))
    with pytest.raises(ValueError, match="span"):
        keygen(demo.params, demo.g_p, demo.g_q, np.random.default_rng(0), material=material)


def test_keygen_rejects_bad_degrees(demo):
    with pytest.raises(ValueError):
        keygen(demo.params, demo.g_q, demo.g_q, np.random.default_rng(0))


def test_keygen_desk_scale_rank(desk):
    pub, priv = keygen(desk.params, desk.g_p, desk.g_q, np.random.default_rng(5))
    assert pub.g.shape == (256, 656)
    assert rank(pub.g) == 256


def test_keygen_random_path_bytes_are_pinned(desk):
    # criterion 01 injects its draws; this pins the random path through
    # random_nonsingular, gen_mask_matrix, mat_mul and mat_permute_cols
    pub, priv = keygen(desk.params, desk.g_p, desk.g_q, np.random.default_rng(1))
    digests = [hashlib.sha256(serialize_key(k)).hexdigest() for k in (pub, priv)]
    assert digests == [
        "223c884542072e2887b646fe6739cb679338bf5472cc91d1c5c531e674804a9f",
        "c37fa80ef73544e3238214113913d9f2dfdf5db9503f34e0bdbd149366e60ac9",
    ]


def mask_rows_in_span(masked_sum, fixture, basis):
    mask = mat_add(masked_sum, expand_scalar_demo(fixture))
    return all(span_contains(basis, mask.row(i)) for i in range(mask.rows))


def test_recover_masked_sum(demo, demo_keys, desk, desk_keys):
    pub, priv = demo_keys
    masked = recover_masked_sum(pub, priv)
    assert masked == mat_add(expand_scalar_demo(demo), demo.material.mask_matrix)
    assert mask_rows_in_span(masked, demo, priv.mask_basis)
    pub, priv = desk_keys
    assert mask_rows_in_span(recover_masked_sum(pub, priv), desk, priv.mask_basis)


def test_recover_masked_sum_detects_corruption(demo, demo_keys):
    pub, priv = demo_keys
    bits = pub.g.to_bits()
    bits[2, 17] ^= 1
    corrupted = PublicKey(params=pub.params, g=MatF2.from_bits(bits))
    masked = recover_masked_sum(corrupted, priv)
    assert masked != mat_add(expand_scalar_demo(demo), demo.material.mask_matrix)
    assert not mask_rows_in_span(masked, demo, priv.mask_basis)


def test_scrambled_mask_rows_stay_in_span(demo):
    # any message picks up a mask contribution that is itself a span element
    material = demo.material
    rng = np.random.default_rng(11)
    for _ in range(50):
        m_r = BitVec.random(6, rng)
        contrib = mat_vec_mul(mat_vec_mul(m_r, material.s), material.mask_matrix)
        assert span_contains(material.mask_basis, contrib)


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


def _transient_bytes(fn, arg):
    """fn(arg) and its peak traced memory above what is live once it returns."""
    tracemalloc.start()
    try:
        out = fn(arg)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - current


@pytest.fixture(scope="module")
def bench_b_shaped_pub():
    params = load_preset("bench-b").params
    return PublicKey(params, MatF2.random(params.K, params.N, np.random.default_rng(0)))


def test_public_key_file_round_trip_stays_packed(bench_b_shaped_pub):
    # one byte per bit would take K * N bytes
    pub = bench_b_shaped_pub
    params = pub.params
    blob, save_extra = _transient_bytes(serialize_key, pub)
    back, load_extra = _transient_bytes(deserialize_key, blob)
    assert back == pub
    limit = params.K * params.N // 4
    assert save_extra < limit and load_extra < limit, (save_extra, load_extra, limit)


def test_public_key_load_allocates_the_matrix_once(bench_b_shaped_pub):
    # the file's byte form is the matrix's storage: one copy, no widening
    blob = serialize_key(bench_b_shaped_pub)
    params = bench_b_shaped_pub.params
    payload = params.K * ((params.N + 7) // 8)
    tracemalloc.start()
    try:
        back = deserialize_key(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == bench_b_shaped_pub
    assert peak <= 1.1 * payload, (peak, payload)


def test_deserialize_rejects_garbage(demo_keys):
    pub, priv = demo_keys
    blob = serialize_key(pub)
    with pytest.raises(KeyFormatError):
        deserialize_key(blob[:20])
    with pytest.raises(KeyFormatError):
        deserialize_key(b"XXXX" + blob[4:])
    for version in (1, 99):
        with pytest.raises(KeyFormatError, match="unsupported version"):
            deserialize_key(blob[:4] + bytes([version]) + blob[5:])
    with pytest.raises(KeyFormatError):
        deserialize_key(blob + b"\x00")
    # G's rows (N = 30 columns) close the public blob, a basis vector the
    # private one; each ends with two padding bits, which must be zero
    for key in (pub, priv):
        padded = bytearray(serialize_key(key))
        padded[-1] |= 0x80
        with pytest.raises(KeyFormatError, match="padding"):
            deserialize_key(bytes(padded))
    # e = 1/10, stored after the six u32 size fields, written as 2/20
    at = 6 + 24
    assert struct.unpack_from("<QQ", blob, at) == (1, 10)
    unreduced = bytearray(blob)
    struct.pack_into("<QQ", unreduced, at, 2, 20)
    with pytest.raises(KeyFormatError, match="lowest terms"):
        deserialize_key(bytes(unreduced))


def test_deserialize_rejects_singular_inverse_scramble(demo_keys):
    _, priv = demo_keys
    bits = priv.s_inv.to_bits()
    bits[5] = bits[0] ^ bits[1]
    singular = dataclasses.replace(priv, s_inv=MatF2.from_bits(bits))
    with pytest.raises(KeyFormatError, match="singular"):
        deserialize_key(serialize_key(singular))


def test_deserialize_rejects_basis_outside_the_parameters(demo_keys):
    # more than l vectors would make decryption test more than 2^l hypotheses
    _, priv = demo_keys
    rng = np.random.default_rng(0)
    for basis, match in (
        (gen_mask_basis(30, 3, rng), "mask basis"),
        (gen_mask_basis(29, 2, rng), "vector length"),
    ):
        blob = serialize_key(dataclasses.replace(priv, mask_basis=basis))
        with pytest.raises(KeyFormatError, match=match):
            deserialize_key(blob)


def crafted_header_blobs(pub, priv):
    """Key blobs whose first matrix header asks for a huge or empty-row shape."""
    params = pub.params
    # G closes the public blob; S^-1 follows the polynomials in the private one
    at_pub = len(serialize_key(pub)) - 8 - params.K * ((params.N + 7) // 8)
    polys = priv.g_p.polys + priv.g_q.polys
    at_priv = at_pub + sum(4 + (p.bit_length() + 7) // 8 for p in polys)
    for key, at in ((pub, at_pub), (priv, at_priv)):
        blob = serialize_key(key)
        assert struct.unpack_from("<II", blob, at)[0] == params.K
        for rows, cols in ((1 << 20, 1 << 20), (0xFFFFFFFF, 0xFFFFFFFF), (0xFFFFFFFF, 0)):
            yield key, blob[:at] + struct.pack("<II", rows, cols) + blob[at + 8 :]


def test_deserialize_rejects_crafted_matrix_header(demo_keys):
    for _, blob in crafted_header_blobs(*demo_keys):
        with pytest.raises(KeyFormatError, match="matrix shape"):
            deserialize_key(blob)


def test_accepted_key_blobs_are_canonical(demo_keys):
    # a blob one bit away from a key file either fails to parse or is the
    # file of what it parses to, so no key has two encodings
    for key in demo_keys:
        blob = serialize_key(key)
        for bit in range(8 * len(blob)):
            data = bytearray(blob)
            data[bit // 8] ^= 1 << (bit % 8)
            try:
                parsed = deserialize_key(bytes(data))
            except KeyFormatError:
                continue
            assert serialize_key(parsed) == bytes(data), bit


def test_mutated_and_truncated_keys_raise_only_key_format_error(demo_keys):
    rng = np.random.default_rng(2024)
    for key in demo_keys:
        blob = serialize_key(key)
        for cut in range(len(blob)):
            with pytest.raises(KeyFormatError):
                deserialize_key(blob[:cut])
        for _ in range(300):
            data = bytearray(blob)
            for at in rng.integers(0, len(blob), size=rng.integers(1, 4)):
                data[at] = rng.integers(0, 256)
            try:
                deserialize_key(bytes(data))
            except KeyFormatError:
                pass


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


def test_over_cap_sizes_rejected_in_files(demo_keys):
    # refused before anything of that size is allocated
    blob = serialize_key(demo_keys[0])
    with pytest.raises(KeyFormatError, match="K must be"):
        deserialize_key(blob[:18] + struct.pack("<I", 3_000_000) + blob[22:])
    text = "n = 2\np = 2\nq = 7\nK = 6\nl = 2\ne = 1/10\ng_p = [0,2]; [0,1,2]\n"
    with pytest.raises(ParamFileError, match="exponent outside"):
        parse_param_file(text + f"g_q = [0,7]; [{MAX_N}]\n")
    with pytest.raises(ParamFileError, match="K must be"):
        parse_param_file(text.replace("K = 6", "K = 3000000") + "g_q = [0,7]; [7]\n")
    # n, p, q, K, N, l: 2^20 hypotheses of 2^15 bits would take 4 GiB to decrypt
    header = struct.pack("<IIIIII", 4, 16, 0, 8176, 32768, 20)
    with pytest.raises(KeyFormatError, match="2\\^l"):
        deserialize_key(blob[:6] + header + blob[30:])


# q = 7 leaves room for the second g_q polynomial to be any of degree 0..7
SMALL_PARAMS = "n = 2\np = 2\nq = 7\nK = 20\nl = 2\ne = 1/10\ng_p = [0,2]; [0,1,2]\n"


@pytest.mark.parametrize(
    "token, match",
    [
        # int() reads the first three as x^2, 1 + x + x^2 and 1 + x + x^2 + x^3 + x^5
        ("0o-7", "not an octal generator"),
        ("0o+7", "not an octal generator"),
        ("0o7_5", "not an octal generator"),
        ("0o", "not an octal generator"),
        ("[0,7,7]", "repeated exponent in '\\[0,7,7\\]'"),
        ("[2,2]", "repeated exponent"),
    ],
)
def test_param_file_polynomial_tokens_are_strict(token, match):
    parse_param_file(SMALL_PARAMS + "g_q = [0,7]; [7]\n")
    with pytest.raises(ParamFileError, match=match):
        parse_param_file(SMALL_PARAMS + f"g_q = [0,7]; {token}\n")


def test_octal_token_degree_is_capped_and_read_in_linear_time():
    # MSB first: the first digit holds the constant term, the last x^(3 * digits - 1)
    assert _parse_poly("0o2" + "0" * 10921 + "1") == (1 << (MAX_N - 1)) | 1
    with pytest.raises(ParamFileError, match="degree"):
        _parse_poly("0o4" + "0" * 10921 + "1")
    start = time.perf_counter()
    with pytest.raises(ParamFileError, match="degree"):
        parse_param_file(SMALL_PARAMS + "g_q = [0,7]; 0o" + "7" * 10**6 + "\n")
    assert time.perf_counter() - start < 2.0
    # a refused long token is quoted shortened, not in full
    for token in ("0o" + "7" * 10**5 + "-", "[" + ",".join(map(str, range(10**4))) + ",5]"):
        with pytest.raises(ParamFileError) as err:
            parse_param_file(SMALL_PARAMS + f"g_q = [0,7]; {token}\n")
        assert len(str(err.value)) < 100
