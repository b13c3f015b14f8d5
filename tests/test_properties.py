"""Property tests: serialization round trips and malformed input handling."""

import contextlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcc.bitlinalg import BitVec
from mcc.cryptopipe import Ciphertext, deserialize_ciphertext, encrypt, serialize_ciphertext
from mcc.keyring import (
    KeyFormatError,
    PrivateKey,
    PublicKey,
    deserialize_key,
    keygen,
    serialize_key,
)
from mcc.presets import load_preset, parse_param_file

SETTINGS = settings(max_examples=40, deadline=None)
PRESETS = st.sampled_from(["demo", "desk"])
SEEDS = st.integers(0, 2**32 - 1)


@SETTINGS
@given(preset=PRESETS, seed=SEEDS)
def test_key_and_ciphertext_round_trip(preset, seed):
    pf = load_preset(preset)
    rng = np.random.default_rng(seed)
    pub, priv = keygen(pf.params, pf.g_p, pf.g_q, rng)
    for key in (pub, priv):
        blob = serialize_key(key)
        again = deserialize_key(blob)
        assert again == key
        assert serialize_key(again) == blob
    ct = encrypt(pub, BitVec.random(pf.params.plaintext_len, rng), rng)
    blob = serialize_ciphertext(ct)
    assert deserialize_ciphertext(blob) == ct
    assert serialize_ciphertext(deserialize_ciphertext(blob)) == blob


@SETTINGS
@given(nbits=st.integers(0, 200), seed=SEEDS)
def test_ciphertext_round_trip_any_length(nbits, seed):
    ct = Ciphertext(BitVec.random(nbits, np.random.default_rng(seed)))
    assert deserialize_ciphertext(serialize_ciphertext(ct)) == ct


def key_blobs(demo_keys, desk_keys):
    return [serialize_key(k) for k in (*demo_keys, *desk_keys)]


def mutate(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


# edits land anywhere, or in the first 64 bytes where the header and the
# length fields live
EDITS = st.lists(
    st.tuples(st.one_of(st.integers(0, 63), st.integers(0, 1 << 20)), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


@SETTINGS
@given(which=st.integers(0, 3), edits=EDITS)
def test_mutated_key_blob_parses_or_raises_key_format_error(demo_keys, desk_keys, which, edits):
    blob = mutate(key_blobs(demo_keys, desk_keys)[which], edits)
    with contextlib.suppress(KeyFormatError):
        assert isinstance(deserialize_key(blob), (PublicKey, PrivateKey))


@SETTINGS
@given(which=st.integers(0, 3), cut=st.integers(0, 1 << 20))
def test_truncated_key_blob_raises_key_format_error(demo_keys, desk_keys, which, cut):
    blob = key_blobs(demo_keys, desk_keys)[which]
    with pytest.raises(KeyFormatError):
        deserialize_key(blob[: cut % len(blob)])


@SETTINGS
@given(nbits=st.integers(0, 100), edits=EDITS, cut=st.integers(0, 1 << 10))
def test_mutated_or_truncated_ciphertext_raises_key_format_error(nbits, edits, cut):
    blob = serialize_ciphertext(Ciphertext(BitVec.zeros(nbits)))
    with contextlib.suppress(KeyFormatError):
        assert isinstance(deserialize_ciphertext(mutate(blob, edits)), Ciphertext)
    with pytest.raises(KeyFormatError):
        deserialize_ciphertext(blob[: cut % len(blob)])


def exponent_sets(top: int):
    """Nonempty exponent sets whose largest element is at most top."""
    return st.sets(st.integers(0, top), min_size=1)


def render_poly(exps: frozenset[int], octal: bool) -> str:
    if octal and 0 in exps:
        # octal strings read the constant term as the leading binary digit
        bits = "".join("1" if i in exps else "0" for i in range(max(exps) + 1))
        return oct(int(bits, 2))
    return "[" + ",".join(str(e) for e in sorted(exps)) + "]"


@st.composite
def param_files(draw):
    """A valid parameter file as (text, field values), lines in any order."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, 8))
    q = draw(st.integers(0, 40))
    crc = draw(exponent_sets(16))
    K = draw(st.integers(max(crc) + 1, 200))
    l = draw(st.integers(0, 20))
    den = draw(st.integers(1, 1000))
    e = Fraction(draw(st.integers(0, den - 1)), den)

    def polys(memory):
        sets = [draw(exponent_sets(memory)) | ({memory} if j == 0 else set()) for j in range(n)]
        return [frozenset(s) for s in sets]

    g_p, g_q = polys(p), polys(q)
    octal = draw(st.booleans())
    lines = [
        f"n = {n}",
        f"p = {p}",
        f"q = {q}",
        f"K = {K}",
        f"l = {l}",
        f"e = {e.numerator}/{e.denominator}",
        "g_p = " + "; ".join(render_poly(s, octal) for s in g_p),
        "g_q = " + "; ".join(render_poly(s, octal) for s in g_q),
        f"crc_poly = {render_poly(frozenset(crc), octal)}  # trailing comment",
    ]
    seed = draw(st.none() | st.integers(0, 2**63 - 1))
    if seed is not None:
        lines.append(f"seed = {seed}")
    lines = draw(st.permutations(lines))
    fields = dict(n=n, p=p, q=q, K=K, l=l, e=e, crc=crc, g_p=g_p, g_q=g_q, seed=seed)
    return "\n".join(lines) + "\n", fields


@SETTINGS
@given(doc=param_files())
def test_param_file_round_trip(doc):
    text, f = doc
    pf = parse_param_file(text)
    params = pf.params
    assert (params.n, params.p, params.q, params.K, params.l) == (
        f["n"], f["p"], f["q"], f["K"], f["l"],
    )
    assert params.e == f["e"]
    assert params.N == f["n"] * (f["K"] + f["p"] + f["q"])
    assert set(params.r_poly.exponents()) == f["crc"]
    assert [set(x.exponents()) for x in pf.g_p.polys] == f["g_p"]
    assert [set(x.exponents()) for x in pf.g_q.polys] == f["g_q"]
    assert pf.seed == f["seed"]
