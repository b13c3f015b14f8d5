"""Property tests: GF(2) kernels against their oracles, serialization round
trips and malformed input handling."""

import contextlib
import json
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcc.bitlinalg import (
    BitVec,
    MatF2,
    Permutation,
    mat_mul,
    mat_permute_cols,
    rank,
    rank_invert,
)
from mcc.convcode import PolyGenMatrix, expand_scalar
from mcc.cryptopipe import encrypt
from mcc.keyring import (
    KeyFormatError,
    PrivateKey,
    PublicKey,
    deserialize_ciphertext,
    deserialize_key,
    keygen,
    serialize_ciphertext,
    serialize_key,
)
from mcc.presets import load_preset, parse_param_file
from oracles import (
    reference_mat_mul,
    reference_permute_cols,
    reference_rank,
    reference_rank_invert,
)
from polys import exponents
from test_cli import run_cli

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
    ct = BitVec.random(nbits, np.random.default_rng(seed))
    assert deserialize_ciphertext(serialize_ciphertext(ct)) == ct


MATRIX_KINDS = ["random", "sparse", "zero", "identity", "dependent", "invertible"]


@st.composite
def bit_matrices(draw, square=False):
    """Matrices up to 200 x 300, sizes off word and byte boundaries included.

    "dependent" makes row 2 the XOR of rows 0 and 1 and zeroes three columns;
    "invertible" (square only; otherwise random) is a row-permuted product of
    unit lower and unit upper triangular matrices.
    """
    rows = draw(st.integers(0, 200))
    cols = rows if square else draw(st.integers(0, 300))
    kind = draw(st.sampled_from(MATRIX_KINDS))
    rng = np.random.default_rng(draw(SEEDS))
    if kind == "zero":
        bits = np.zeros((rows, cols), dtype=np.uint8)
    elif kind == "identity":
        bits = np.eye(rows, cols, dtype=np.uint8)
    elif kind == "sparse":
        bits = (rng.random((rows, cols)) < 0.03).astype(np.uint8)
    elif kind == "invertible" and rows == cols:
        lower = np.tril(rng.integers(0, 2, (rows, rows)), -1) + np.eye(rows, dtype=np.int64)
        upper = np.triu(rng.integers(0, 2, (rows, rows)), 1) + np.eye(rows, dtype=np.int64)
        bits = ((lower @ upper) & 1)[rng.permutation(rows)]
    else:
        bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    if kind == "dependent":
        if rows >= 3:
            bits[2] = bits[0] ^ bits[1]
        if cols:
            bits[:, rng.integers(0, cols, 3)] = 0
    return MatF2.from_bits(bits)


@st.composite
def masked_band_matrices(draw):
    """expand_scalar(g) plus a mask of rank at most l, the matrix keygen ranks,
    with its rows in order or shuffled."""
    n = draw(st.integers(1, 4))
    memory = draw(st.integers(0, 12))
    K = draw(st.integers(1, 300 // n - memory))
    rng = np.random.default_rng(draw(SEEDS))
    polys = []
    for j in range(n):
        if draw(st.booleans()):
            # a pure shift zeroes whole column regions of the band
            polys.append(1 << int(rng.integers(0, memory + 1)))
        else:
            polys.append(int(rng.integers(1, 1 << (memory + 1))))
    band = expand_scalar(PolyGenMatrix(tuple(polys)), K, memory)
    l = draw(st.integers(0, 5))
    basis = rng.integers(0, 2, (l, band.cols))
    bits = band.to_bits() ^ ((rng.integers(0, 2, (K, l)) @ basis) & 1).astype(np.uint8)
    if draw(st.booleans()):
        # out of band order, a block's pivots lie beyond the first rows probed
        bits = bits[rng.permutation(K)]
    return MatF2.from_bits(bits)


@SETTINGS
@given(m=st.one_of(bit_matrices(), masked_band_matrices()))
def test_rank_matches_oracle(m):
    assert rank(m) == reference_rank(m)


@SETTINGS
@given(m=bit_matrices(square=True))
def test_rank_invert_matches_oracle(m):
    r, inv = rank_invert(m)
    ref_r, ref_inv = reference_rank_invert(m)
    assert r == ref_r
    if ref_inv is None:
        assert inv is None
    else:
        assert inv == ref_inv
        assert mat_mul(m, inv) == MatF2.identity(m.rows)


@SETTINGS
@given(a=bit_matrices(), n=st.integers(0, 300), seed=SEEDS)
def test_mat_mul_matches_oracle(a, n, seed):
    b = MatF2.from_bits(np.random.default_rng(seed).integers(0, 2, (a.cols, n), dtype=np.uint8))
    assert mat_mul(a, b) == reference_mat_mul(a, b)


@SETTINGS
@given(m=bit_matrices(), seed=SEEDS)
def test_mat_permute_cols_matches_oracle(m, seed):
    if m.cols:
        pi = Permutation(np.random.default_rng(seed).permutation(m.cols))
        assert mat_permute_cols(m, pi) == reference_permute_cols(m, pi)


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
    blob = serialize_ciphertext(BitVec.zeros(nbits))
    with contextlib.suppress(KeyFormatError):
        assert isinstance(deserialize_ciphertext(mutate(blob, edits)), BitVec)
    with pytest.raises(KeyFormatError):
        deserialize_ciphertext(blob[: cut % len(blob)])


@pytest.fixture(scope="module")
def desk_files(desk_keys, tmp_path_factory):
    """Key and ciphertext files of one desk message, and the message as 0/1 text."""
    pub, priv = desk_keys
    rng = np.random.default_rng(43)
    m = BitVec.random(pub.params.plaintext_len, rng)
    blobs = {
        "priv": serialize_key(priv),
        "pub": serialize_key(pub),
        "ct": serialize_ciphertext(encrypt(pub, m, rng)),
    }
    return tmp_path_factory.mktemp("cli-decrypt"), blobs, m.to01()


@SETTINGS
@given(
    target=st.sampled_from(["priv", "pub", "ct"]),
    edits=EDITS,
    cut=st.none() | st.integers(0, 1 << 20),
)
def test_cli_decrypt_of_a_damaged_file_exits_cleanly(desk_files, target, edits, cut):
    # a truncated file exits 2; an edited one exits 2, decrypts to the sent
    # message, or fails with exit 3 (an edited ciphertext may carry more
    # errors than the gate admits); never exit 4 or an escaping exception
    root, blobs, message = desk_files
    blob = blobs[target]
    damaged = blob[: cut % len(blob)] if cut is not None else mutate(blob, edits)
    for name, data in blobs.items():
        (root / name).write_bytes(damaged if name == target else data)
    code, out, err = run_cli(
        "decrypt", "--priv", str(root / "priv"), "--pub", str(root / "pub"),
        "--in", str(root / "ct"),
    )
    if cut is not None:
        assert code == 2, err
    assert code in (0, 2, 3), err
    if code == 0:
        assert out.strip() == message
    elif code == 2:
        assert err.startswith("error: ")
    else:
        assert "retransmission" in err


def demo_data(name: str) -> str:
    return resources.files("mcc").joinpath("data", name).read_text()


INJECT_KEYS = ("s_rows", "perm_sources", "mask_basis", "mask_rows")
CHARS = st.characters(codec="utf-8")
# an int, a list, a string, or an index beyond int64
JSON_VALUES = st.one_of(
    st.integers(-3, 40),
    st.lists(st.integers(-3, 40) | st.text(CHARS, max_size=4), max_size=3),
    st.text(CHARS, max_size=8),
    st.just(10**30),
)


@st.composite
def edited_inject_files(draw):
    """demo_inject.json with a key dropped, a value or list item swapped, or a character changed."""
    text = demo_data("demo_inject.json")
    how = draw(st.sampled_from(["drop", "value", "item", "char"]))
    if how == "char":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + draw(CHARS) + text[i + 1 :]
    doc = json.loads(text)
    key = draw(st.sampled_from(INJECT_KEYS))
    if how == "drop":
        del doc[key]
    elif how == "value":
        doc[key] = draw(JSON_VALUES)
    else:
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(JSON_VALUES)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-keygen")


@SETTINGS
@given(
    inject=st.none() | edited_inject_files(),
    seed=st.none() | st.integers(-(2**70), 2**70).map(str) | st.text(CHARS, max_size=8),
)
def test_cli_keygen_of_an_edited_input_file_exits_cleanly(edit_dir, inject, seed):
    # an edited inject file or seed line keys or is refused: exit 0 or 2, never
    # exit 1 or 4 or an escaping exception
    params = demo_data("demo.params")
    if seed is not None:
        params += f"seed = {seed}\n"
    (edit_dir / "edited.params").write_text(params, encoding="utf-8")
    argv = ["keygen", "--params", str(edit_dir / "edited.params")]
    if inject is not None:
        (edit_dir / "edited.json").write_text(inject, encoding="utf-8")
        argv += ["--inject", str(edit_dir / "edited.json")]
    argv += ["--out-pub", str(edit_dir / "k.pub"), "--out-priv", str(edit_dir / "k.priv")]
    code, _, err = run_cli(*argv)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")


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
    assert set(exponents(params.r_poly)) == f["crc"]
    assert [set(exponents(x)) for x in pf.g_p.polys] == f["g_p"]
    assert [set(exponents(x)) for x in pf.g_q.polys] == f["g_q"]
    assert pf.seed == f["seed"]
