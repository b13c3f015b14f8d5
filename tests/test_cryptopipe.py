import hashlib
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mcc.bitlinalg import BitVec, mat_vec_mul, permute
from mcc.convcode import CodeParams, PolyGenMatrix, deinterleave, encode_streams, interleave
from mcc.cryptopipe import (
    DecryptionFailure,
    _divide_hypotheses,
    candidate_gate,
    decrypt,
    encrypt,
    enumerate_candidates,
    invert_highmem,
)
from mcc.gf2poly import from_exponents, poly_mul
from mcc.keyring import (
    KeyFormatError,
    deserialize_ciphertext,
    deserialize_key,
    keygen,
    serialize_ciphertext,
    serialize_key,
)
from mcc.presets import load_preset
from mcc.trellis import build_trellis
from oracles import reference_decrypt, reference_outcomes, span_contains, span_element_for_index
from polys import from_exponent_lists

STREAM0_POLY = from_exponents([7, 10, 14])
STREAM1_POLY = from_exponents([0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 14])


def test_encrypt_reference_chain(demo, demo_keys):
    pub, priv = demo_keys
    ct = encrypt(pub, demo.message, np.random.default_rng(0), error=demo.error_vector)
    clean = encrypt(pub, demo.message, np.random.default_rng(0), error=BitVec.zeros(30))
    assert (ct ^ clean) == demo.error_vector
    c_tilde = permute(ct, priv.perm, inverse=True)
    assert deinterleave(c_tilde, 2) == [
        BitVec.from_int(15, STREAM0_POLY), BitVec.from_int(15, STREAM1_POLY)
    ]


def test_encrypt_zero_noise_is_pure_encoding(desk, desk_keys):
    pub, _ = desk_keys
    rng = np.random.default_rng(1)
    m = BitVec.random(pub.params.plaintext_len, rng)
    ct = encrypt(pub, m, rng, error=BitVec.zeros(pub.params.N))
    from mcc.gf2poly import crc_append

    assert ct == mat_vec_mul(crc_append(m, pub.params.r_poly), pub.g)


def test_encrypt_error_weight_statistics(desk_keys):
    pub, _ = desk_keys
    rng = np.random.default_rng(2)
    m = BitVec.random(pub.params.plaintext_len, rng)
    clean = encrypt(pub, m, rng, error=BitVec.zeros(pub.params.N))
    e = float(pub.params.e)
    n = pub.params.N
    total = 0
    trials = 1000
    for _ in range(trials):
        ct = encrypt(pub, m, rng)
        total += (ct ^ clean).weight()
    mean = total / trials
    sigma_mean = (n * e * (1 - e)) ** 0.5 / trials**0.5
    assert abs(mean - e * n) < 3 * sigma_mean


def test_encrypt_length_check(demo_keys):
    pub, _ = demo_keys
    with pytest.raises(ValueError):
        encrypt(pub, BitVec.zeros(5), np.random.default_rng(0))


def test_decrypt_length_check(demo_keys):
    pub, priv = demo_keys
    ct = encrypt(pub, BitVec.zeros(pub.params.plaintext_len), np.random.default_rng(0))
    with pytest.raises(ValueError):
        decrypt(priv, pub, BitVec.from_bits(np.append(ct.to_bits(), 0)))


def test_enumerate_candidates_gray_order(demo, demo_keys):
    pub, priv = demo_keys
    rng = np.random.default_rng(3)
    c_tilde = BitVec.random(30, rng)
    cands = list(enumerate_candidates(c_tilde, priv.mask_basis.vectors))
    assert len(cands) == 4
    assert cands[0] == c_tilde
    # successive candidates differ by exactly one basis vector
    basis_set = {v.to01() for v in priv.mask_basis.vectors}
    for a, b in zip(cands, cands[1:]):
        assert (a ^ b).to01() in basis_set
    # every candidate offset lies in the span, and matches the index map
    for i, cand in enumerate(cands):
        offset = cand ^ c_tilde
        assert span_contains(priv.mask_basis, offset)
        assert offset == span_element_for_index(priv.mask_basis, i, 30)


def test_enumerate_candidates_empty_basis(demo_keys):
    v = BitVec.from01("1010")
    assert list(enumerate_candidates(v, ())) == [v]


def test_demo_candidates_cover_reference_streams(demo, demo_keys):
    pub, priv = demo_keys
    ct = encrypt(pub, demo.message, np.random.default_rng(0), error=demo.error_vector)
    c_tilde = permute(ct, priv.perm, inverse=True)
    ones15 = from_exponents(range(15))
    seen0 = set()
    seen1 = set()
    for cand in enumerate_candidates(c_tilde, priv.mask_basis.vectors):
        s0, s1 = deinterleave(cand, 2)
        seen0.add(s0.to_int())
        seen1.add(s1.to_int())
    assert seen0 == {STREAM0_POLY, STREAM0_POLY ^ ones15}
    assert seen1 == {STREAM1_POLY, STREAM1_POLY ^ ones15}


def test_invert_highmem_reference_quotients(demo):
    params = demo.params
    g_q = demo.g_q
    ones15 = from_exponents(range(15))
    # candidate with the all-ones mask removed: both streams complemented
    cand = interleave(
        [BitVec.from_int(15, STREAM0_POLY ^ ones15), BitVec.from_int(15, STREAM1_POLY ^ ones15)]
    )
    word, rem = invert_highmem(cand, g_q, params)
    assert word.to01() == "0111100010101100"
    # remainders: 1 + x^3 on stream 0 (bits 0..6), zero on stream 1 (bits 7..13)
    assert rem == 0b1001
    cand0 = interleave([BitVec.from_int(15, STREAM0_POLY), BitVec.from_int(15, STREAM1_POLY)])
    word0, rem0 = invert_highmem(cand0, g_q, params)
    assert word0.to01() == "0000011101010011"
    # x^3 on stream 0 and the dense degree-6 remainder on stream 1
    assert rem0 == (1 << 3) | (0b1111111 << 7)


def test_invert_highmem_noiseless_composition(demo):
    rng = np.random.default_rng(5)
    params = demo.params
    gpq = PolyGenMatrix(tuple(poly_mul(a, b) for a, b in zip(demo.g_p.polys, demo.g_q.polys)))
    for _ in range(100):
        m = BitVec.random(params.K, rng)
        cand = encode_streams(m, gpq, params.p + params.q)
        word, rem = invert_highmem(cand, demo.g_q, params)
        assert word == encode_streams(m, demo.g_p, params.p)
        assert rem == 0


def test_superposition_of_code_and_error_quotients(demo, demo_keys):
    # the candidate quotient is the clean low-memory codeword XOR the
    # quotient of the permuted error streams
    pub, priv = demo_keys
    params = demo.params
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = BitVec.random(6, rng)
        error = BitVec.bernoulli(30, 0.1, rng)
        ct = encrypt(pub, m, rng, error=error)
        c_tilde = permute(ct, priv.perm, inverse=True)
        m_s = mat_vec_mul(m, demo.material.s)
        true_mask = mat_vec_mul(m_s, demo.material.mask_matrix)
        cand = c_tilde ^ true_mask
        word, _ = invert_highmem(cand, priv.g_q, params)
        perm_err = permute(error, priv.perm, inverse=True)
        assert perm_err.weight() == error.weight()
        err_word, _ = invert_highmem(perm_err, priv.g_q, params)
        assert word == encode_streams(m_s, priv.g_p, params.p) ^ err_word


def test_decrypt_reference_example(demo, demo_keys):
    pub, priv = demo_keys
    ct = encrypt(pub, demo.message, np.random.default_rng(0), error=demo.error_vector)
    assert decrypt(priv, pub, ct).to01() == "111001"


def test_decrypt_zero_noise_round_trip(demo, demo_keys):
    pub, priv = demo_keys
    rng = np.random.default_rng(11)
    zero = BitVec.zeros(30)
    for _ in range(50):
        m = BitVec.random(6, rng)
        ct = encrypt(pub, m, rng, error=zero)
        assert decrypt(priv, pub, ct) == m


def test_decrypt_desk_round_trip_with_noise(desk, desk_keys):
    pub, priv = desk_keys
    rng = np.random.default_rng(13)
    ok = 0
    for _ in range(20):
        m = BitVec.random(pub.params.plaintext_len, rng)
        ct = encrypt(pub, m, rng)
        try:
            out = decrypt(priv, pub, ct)
        except DecryptionFailure:
            continue
        assert out == m
        ok += 1
    assert ok >= 19


def _decrypt_outcome(fn, *args, **kwargs):
    try:
        return "plaintext", fn(*args, **kwargs)
    except DecryptionFailure as exc:
        return "failure", exc


def _assert_matches_reference(priv, pub, ct):
    """Same plaintext, or a failure whose weights agree with the reference.

    Exact entries must equal the reference weight. A lower-bound entry comes
    only from a decode that stopped above the gate bound, so it must lie
    above that bound and at or below the reference weight.
    """
    kind, got = _decrypt_outcome(decrypt, priv, pub, ct)
    ref_kind, ref = _decrypt_outcome(reference_decrypt, priv, ct)
    assert kind == ref_kind
    if kind == "plaintext":
        assert got == ref
        return kind
    assert not any(ref.lower_bound)
    assert len(got.candidate_weights) == len(ref.candidate_weights)
    bound = candidate_gate(priv.params, priv.g_q)
    for w, lb, ref_w in zip(got.candidate_weights, got.lower_bound, ref.candidate_weights):
        if lb:
            assert bound < w <= ref_w
        else:
            assert w == ref_w
    return kind


def test_decrypt_matches_reference_pipeline(demo, demo_keys, desk_keys):
    rng = np.random.default_rng(17)
    golden = encrypt(demo_keys[0], demo.message, rng, error=demo.error_vector)
    cases = [(demo_keys, golden)]
    for keys, count in ((demo_keys, 12), (desk_keys, 6)):
        pub = keys[0]
        for _ in range(count):
            m = BitVec.random(pub.params.plaintext_len, rng)
            cases.append((keys, encrypt(pub, m, rng)))
    params = desk_keys[0].params
    # 24 errors decode to a CRC-valid weight above the gate bound (15)
    heavy = BitVec.from_indices(params.N, rng.choice(params.N, 24, replace=False))
    m = BitVec.random(params.plaintext_len, rng)
    cases.append((desk_keys, encrypt(desk_keys[0], m, rng, error=heavy)))
    cases.append((desk_keys, BitVec.random(params.N, rng)))
    # channel noise plus 12 or 24 extra errors: near and beyond the gate,
    # where decodes are pruned at the gate bound and some fail
    for extra in (12, 24):
        for _ in range(10):
            m = BitVec.random(params.plaintext_len, rng)
            flips = BitVec.from_indices(params.N, rng.choice(params.N, extra, replace=False))
            ct = encrypt(desk_keys[0], m, rng)
            cases.append((desk_keys, ct ^ flips))
    kinds = set()
    for (pub, priv), ct in cases:
        kinds.add(_assert_matches_reference(priv, pub, ct))
    assert kinds == {"plaintext", "failure"}


def test_decoder_is_derived_once_per_key_object(desk, monkeypatch):
    # a fresh key pair, so no earlier test has derived its decoder
    pub, priv = keygen(desk.params, desk.g_p, desk.g_q, np.random.default_rng(41))
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    # wrapped in every namespace that holds them, as perfbench/tracer.py does
    originals = {fn.__name__: fn for fn in (build_trellis, candidate_gate, invert_highmem)}
    wrappers = {name: counted(fn) for name, fn in originals.items()}
    for modname, module in list(sys.modules.items()):
        if modname == "mcc" or modname.startswith("mcc."):
            for name, fn in originals.items():
                if vars(module).get(name) is fn:
                    monkeypatch.setattr(module, name, wrappers[name])
    rng = np.random.default_rng(43)
    cts = [encrypt(pub, BitVec.random(pub.params.plaintext_len, rng), rng) for _ in range(3)]

    def outcomes(key):
        calls.clear()
        out = []
        for ct in cts:
            kind, got = _decrypt_outcome(decrypt, key, pub, ct)
            out.append((kind, got.to_bytes() if kind == "plaintext" else got.weights_text()))
        # one trellis and one gate per key object; l basis vectors plus one
        # ciphertext per decrypt divided
        want = {"build_trellis": 1, "candidate_gate": 1, "invert_highmem": key.mask_basis.l + 3}
        assert calls == want
        return out

    first = outcomes(priv)
    assert outcomes(deserialize_key(serialize_key(priv))) == first


def test_decrypt_determinism(desk_keys):
    pub, priv = desk_keys
    rng = np.random.default_rng(19)
    m = BitVec.random(pub.params.plaintext_len, rng)
    ct1 = encrypt(pub, m, np.random.default_rng(99))
    ct2 = encrypt(pub, m, np.random.default_rng(99))
    assert ct1 == ct2
    assert decrypt(priv, pub, ct1) == decrypt(priv, pub, ct2)


def test_decrypt_failure_reports_all_weights(desk_keys):
    pub, priv = desk_keys
    rng = np.random.default_rng(23)
    garbage = BitVec.random(pub.params.N, rng)
    with pytest.raises(DecryptionFailure) as err:
        decrypt(priv, pub, garbage)
    weights = err.value.candidate_weights
    assert len(weights) == 16
    assert all(w > 0 for w in weights)
    # with nothing accepted every decode is bounded by the gate: it stops
    # exactly when its weight exceeds the gate bound
    bound = candidate_gate(priv.params, priv.g_q)
    assert err.value.lower_bound == [w > bound for w in weights]
    assert any(err.value.lower_bound)
    text = err.value.weights_text()
    assert text.count(">=") == sum(err.value.lower_bound)
    assert text.count(",") == 15


@pytest.fixture(scope="module")
def bench_b_keys():
    from mcc.keyring import keygen

    bench = load_preset("bench-b")
    return keygen(bench.params, bench.g_p, bench.g_q, np.random.default_rng(37))


@pytest.mark.parametrize("keys", ["demo_keys", "desk_keys", "bench_b_keys"])
def test_divide_hypotheses_matches_per_candidate_division(keys, request):
    # one division of c_tilde and of each basis vector, then Gray-code XORs,
    # gives every hypothesis's quotient and remainder weight
    pub, priv = request.getfixturevalue(keys)
    rng = np.random.default_rng(41)
    for ct in (encrypt(pub, BitVec.random(pub.params.plaintext_len, rng), rng),
               BitVec.random(pub.params.N, rng)):
        c_tilde = permute(ct, priv.perm, inverse=True)
        quotients, rem_weights = _divide_hypotheses(c_tilde, priv)
        cands = list(enumerate_candidates(c_tilde, priv.mask_basis.vectors))
        assert len(quotients) == len(rem_weights) == len(cands) == 1 << priv.params.l
        for cand, quotient, rem_weight in zip(cands, quotients, rem_weights):
            want_q, want_r = invert_highmem(cand, priv.g_q, priv.params)
            assert quotient == want_q
            assert rem_weight == want_r.bit_count()


def test_candidate_separation_at_desk_scale(desk_keys):
    pub, priv = desk_keys
    rng = np.random.default_rng(29)
    separated = 0
    trials = 10
    for _ in range(trials):
        m = BitVec.random(pub.params.plaintext_len, rng)
        ct = encrypt(pub, m, rng)
        weights = [o.decode.error_weight for o in reference_outcomes(priv, ct)]
        best = min(weights)
        if sum(1 for w in weights if w == best) == 1:
            separated += 1
    assert separated == trials


def test_candidate_gate_thresholds(demo):
    assert 2 <= candidate_gate(demo.params, demo.g_q)
    # a wide-parameter wrong candidate of weight 616 sits far above the
    # plausible weight, unless the divisors propagate much more
    wide = CodeParams(
        n=2, p=14, q=186, K=2600, l=5, e=Fraction(1, 50),
        r_poly=from_exponents([0, 5, 12, 16]),
    )
    half = from_exponent_lists([[93], [0, 186]])
    assert candidate_gate(wide, half) < 616
    binomials = from_exponent_lists([[0, 186], [0, 186]])
    assert 616 <= candidate_gate(wide, binomials)


def test_candidate_gate_zero_channel():
    params = CodeParams(
        n=2, p=2, q=7, K=6, l=0, e=Fraction(0), r_poly=1
    )
    # weight 0 is accepted, weight 1 is not
    assert candidate_gate(params, from_exponent_lists([[7], [0, 7]])) == 0


@pytest.mark.parametrize(
    "name, bound", [("demo", 8), ("desk", 15), ("bench-a", 146), ("bench-b", 379)]
)
def test_candidate_gate_preset_bounds(name, bound):
    pf = load_preset(name)
    assert candidate_gate(pf.params, pf.g_q) == bound


def test_round_trip_with_propagating_divisors(bench_b_keys):
    # the wide preset divides by a trinomial and a binomial, so the decoder
    # input carries division-amplified noise end to end
    pub, priv = bench_b_keys
    rng = np.random.default_rng(38)
    for _ in range(2):
        m = BitVec.random(pub.params.plaintext_len, rng)
        ct = encrypt(pub, m, rng)
        assert decrypt(priv, pub, ct) == m


def test_ciphertext_serialization_round_trip(demo_keys):
    pub, _ = demo_keys
    rng = np.random.default_rng(31)
    ct = encrypt(pub, BitVec.random(6, rng), rng)
    blob = serialize_ciphertext(ct)
    assert deserialize_ciphertext(blob) == ct
    with pytest.raises(KeyFormatError):
        deserialize_ciphertext(blob[:-1])
    with pytest.raises(KeyFormatError):
        deserialize_ciphertext(b"NOPE" + blob[4:])
    # N = 30 leaves two padding bits in the last byte; they must be zero
    assert len(blob) == 17
    with pytest.raises(KeyFormatError, match="padding"):
        deserialize_ciphertext(blob[:-1] + bytes([blob[-1] | 0xC0]))
    # any other one-bit change parses to the ciphertext it encodes
    for bit in range(8 * len(blob)):
        data = bytearray(blob)
        data[bit // 8] ^= 1 << (bit % 8)
        try:
            parsed = deserialize_ciphertext(bytes(data))
        except KeyFormatError:
            continue
        assert serialize_ciphertext(parsed) == bytes(data), bit


def _outcome_records(keys, offsets, rng):
    """Ciphertext and decrypt outcome for each injected error weight gate + offset.

    The outcome is the plaintext bytes, or the failure's weights text with
    its >= lower bounds.
    """
    pub, priv = keys
    params = pub.params
    gate = candidate_gate(params, priv.g_q)
    for offset in offsets:
        m = BitVec.random(params.plaintext_len, rng)
        error = BitVec.from_indices(params.N, rng.choice(params.N, gate + offset, replace=False))
        ct = encrypt(pub, m, rng, error=error)
        try:
            outcome = decrypt(priv, pub, ct).to_bytes()
        except DecryptionFailure as exc:
            outcome = exc.weights_text().encode()
        yield ct.to_bytes() + b"|" + outcome + b"\n"


def test_decrypt_outcomes_are_pinned(desk_keys, bench_b_keys):
    # error weights below, at and above the gate: decrypted plaintexts and
    # failures whose lower bounds come from the syndromes and from decodes
    # stopped partway, so a bounded path that stops elsewhere changes the hash
    from mcc.keyring import keygen

    bench_a = load_preset("bench-a")
    bench_a_keys = keygen(bench_a.params, bench_a.g_p, bench_a.g_q, np.random.default_rng(5))
    digest = hashlib.sha256()
    for keys, offsets in (
        (desk_keys, (-10, 0, 2, 4, 5, 8, 15)),
        (bench_b_keys, (-100, 0, 100, 150, 300)),
        (bench_a_keys, (0, 20)),
    ):
        for record in _outcome_records(keys, offsets, np.random.default_rng(8)):
            digest.update(record)
    assert digest.hexdigest() == "dafb0c30b5ccdcbb5752643e32025037207b0a7d1ed012382173f0e8b4db27d2"
