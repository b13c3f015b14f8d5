import dataclasses
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from mcc.analysis import KeyRandomnessReport
from mcc.bitlinalg import BitVec
from mcc.convcode import PolyGenMatrix, expand_scalar
from mcc.cli import main
from mcc.gf2poly import poly_mul


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo-cli")
    inject = root / "inject.json"
    from importlib import resources

    inject.write_text(
        resources.files("mcc").joinpath("data", "demo_inject.json").read_text()
    )
    pub, priv = root / "demo.pub", root / "demo.priv"
    code, out, err = run_cli(
        "keygen",
        "--params", "demo",
        "--out-pub", str(pub),
        "--out-priv", str(priv),
        "--seed", "0",
        "--inject", str(inject),
    )
    assert code == 0, err
    return root, pub, priv


def test_keygen_encrypt_decrypt_demo_flow(demo_files):
    root, pub, priv = demo_files
    msg = root / "m.txt"
    msg.write_text("111001\n")
    ct = root / "ct.bin"
    code, out, err = run_cli(
        "encrypt",
        "--pub", str(pub),
        "--in", str(msg),
        "--out", str(ct),
        "--seed", "1",
        "--inject-errors", "3,16,18",
    )
    assert code == 0, err
    code, out, err = run_cli("decrypt", "--priv", str(priv), "--pub", str(pub), "--in", str(ct))
    assert code == 0, err
    assert out.strip() == "111001"


def test_decrypt_to_file(demo_files, tmp_path):
    root, pub, priv = demo_files
    msg = tmp_path / "m.txt"
    msg.write_text("010101")
    ct = tmp_path / "ct.bin"
    assert run_cli("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct), "--seed", "7")[0] == 0
    out_file = tmp_path / "out.txt"
    code, out, _ = run_cli(
        "decrypt", "--priv", str(priv), "--pub", str(pub), "--in", str(ct), "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().strip() == "010101"


def test_raw_format_round_trip(tmp_path):
    # raw bytes need a byte-aligned plaintext length; desk has 240 bits
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    code, _, err = run_cli(
        "keygen", "--params", "desk", "--out-pub", str(pub), "--out-priv", str(priv), "--seed", "5"
    )
    assert code == 0, err
    payload = bytes(range(30))
    msg = tmp_path / "m.bin"
    msg.write_bytes(payload)
    ct = tmp_path / "ct.bin"
    code, _, err = run_cli(
        "encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct),
        "--seed", "9", "--format", "raw",
    )
    assert code == 0, err
    out_file = tmp_path / "out.bin"
    code, _, err = run_cli(
        "decrypt", "--priv", str(priv), "--pub", str(pub), "--in", str(ct),
        "--out", str(out_file), "--format", "raw",
    )
    assert code == 0, err
    assert out_file.read_bytes() == payload


def test_analyze_gilbert():
    code, out, _ = run_cli("analyze", "gilbert", "--rate", "0.5")
    assert code == 0
    assert "relative_distance = 0.110" in out


def test_analyze_isd_with_baseline(tmp_path):
    doc = tmp_path / "isd.json"
    code, out, _ = run_cli(
        "analyze", "isd",
        "--n", "5600", "--k", "2600", "--t", "392",
        "--l", "5", "--p", "14",
        "--baseline", "4096", "3556", "45",
        "--json", str(doc),
    )
    assert code == 0
    assert "isd_log2 = 373." in out
    assert "qisd_log2 = 186." in out
    assert "acs_per_bit_log2 = 19" in out
    assert "improvement_log2 = 237." in out
    data = json.loads(doc.read_text())
    assert float(data["isd_log2"]) == pytest.approx(373.1, abs=0.5)


def test_analyze_isd_without_mask_options():
    # the decoder cost needs both the mask rank and the trellis memory
    for extra in ((), ("--l", "5"), ("--p", "14")):
        code, out, _ = run_cli("analyze", "isd", "--n", "5600", "--k", "2600", "--t", "392", *extra)
        assert code == 0
        assert "qisd_log2 = 186." in out
        assert "acs_per_bit_log2" not in out


def test_analyze_failure():
    code, out, _ = run_cli(
        "analyze", "failure",
        "--p-eff", "0.1175", "--window-bits", "44", "--t-corr", "14", "--windows", "228",
    )
    assert code == 0
    assert "p_window = 8.99" in out
    assert "p_success_all = 0.9796" in out
    # C(1100, i) exceeds the float range; the exact tail is 0.0251680952943
    code, out, err = run_cli(
        "analyze", "failure",
        "--p-eff", "0.1175", "--window-bits", "1100", "--t-corr", "150", "--windows", "10",
    )
    assert code == 0, err
    assert "p_window = 0.0251681" in out
    # a window count beyond the float range: no window may overload, so 0
    code, out, err = run_cli(
        "analyze", "failure",
        "--p-eff", "0.1175", "--window-bits", "44", "--t-corr", "14", "--windows", "1" + "0" * 400,
    )
    assert code == 0, err
    assert "p_success_all = 0\n" in out


def test_analyze_alpha_runs():
    code, out, _ = run_cli("analyze", "alpha", "--params", "desk")
    assert code == 0
    assert "alpha_total = -1.28" in out
    # criterion 06's quarter-rate stream length is within the cap
    code, out, err = run_cli("analyze", "alpha", "--params", "desk", "--stream-len", "12672")
    assert code == 0, err
    assert "stream_len = 12672" in out


def test_analyze_keyrand(demo_files, tmp_path):
    _, pub, _ = demo_files
    doc = tmp_path / "keyrand.json"
    code, out, _ = run_cli("analyze", "keyrand", "--pub", str(pub), "--json", str(doc))
    assert code == 0
    assert "rank = 6" in out
    assert "full_rank = True" in out
    fields = [f.name for f in dataclasses.fields(KeyRandomnessReport)]
    assert list(json.loads(doc.read_text())) == fields
    assert [line.split(" = ")[0] for line in out.splitlines()] == fields


@pytest.mark.parametrize(
    "params, trials, seed, counts",
    [("desk", 3, 42, (3, 0, 0, "1.0000")), ("demo", 40, 1, (28, 0, 12, "0.7000"))],
)
def test_simulate_report_is_pinned_and_seeds_are_drawn_singly(
    monkeypatch, params, trials, seed, counts
):
    spawned = []

    class SpySeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", SpySeedSequence)
    code, out, err = run_cli(
        "simulate", "--params", params, "--trials", str(trials), "--seed", str(seed)
    )
    assert code == 0, err
    # the reports of the commit that spawned all trials + 1 children at once
    successes, detected, wrong, rate = counts
    assert out == (
        f"params = {params}\nseed = {seed}\ntrials = {trials}\nsuccesses = {successes}\n"
        f"failures_detected = {detected}\nwrong_plaintext = {wrong}\nsuccess_rate = {rate}\n"
    )
    # one child for the key and one per trial, none made ahead
    assert spawned == [1] * (trials + 1)


def test_simulate_deterministic(tmp_path):
    args = ("simulate", "--params", "demo", "--trials", "8", "--seed", "21")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "success_rate =" in out1


def test_exit_code_usage(demo_files):
    code, _, _ = run_cli("keygen", "--params")
    assert code == 1
    assert run_cli()[0] == 1
    # the gate always applies; there is no flag to turn it off
    _, pub, priv = demo_files
    code, _, err = run_cli(
        "decrypt", "--priv", str(priv), "--pub", str(pub), "--in", str(pub), "--no-gate"
    )
    assert code == 1, err


def test_exit_code_missing_files(demo_files, tmp_path):
    _, pub, priv = demo_files
    msg = tmp_path / "m.txt"
    msg.write_text("111001")
    ct = tmp_path / "ct.bin"
    assert run_cli("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct))[0] == 0
    missing = str(tmp_path / "nope")
    keys = ("--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"))
    for argv in (
        ("decrypt", "--priv", missing, "--pub", str(pub), "--in", str(ct)),
        ("decrypt", "--priv", str(priv), "--pub", missing, "--in", str(ct)),
        ("decrypt", "--priv", str(priv), "--pub", str(pub), "--in", missing),
        ("encrypt", "--pub", missing, "--in", str(msg), "--out", str(tmp_path / "c")),
        ("encrypt", "--pub", str(pub), "--in", missing, "--out", str(tmp_path / "c")),
        ("analyze", "keyrand", "--pub", missing),
        ("keygen", "--params", "demo", "--inject", missing, *keys),
        ("keygen", "--params", missing, *keys),
    ):
        code, _, err = run_cli(*argv)
        assert code == 2, (argv, err)
        assert err.startswith("error: ") and missing in err, (argv, err)


def test_exit_code_malformed_inputs(tmp_path, demo):
    bad = tmp_path / "bad.pub"
    bad.write_bytes(b"not a key at all")
    code, _, err = run_cli("analyze", "keyrand", "--pub", str(bad))
    assert code == 2
    params = tmp_path / "bad.params"
    params.write_text("n = 2\nN = 30\n")
    code, _, _ = run_cli(
        "keygen", "--params", str(params),
        "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
    )
    assert code == 2
    # nine streams parse as text but exceed the stream cap
    params.write_text(
        "n = 9\np = 2\nq = 1\nK = 20\nl = 0\ne = 1/100\n"
        f"g_p = {'; '.join(['[0,2]'] * 9)}\ng_q = {'; '.join(['[1]'] * 9)}\n"
    )
    code, _, err = run_cli(
        "keygen", "--params", str(params),
        "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
    )
    assert code == 2, err
    # a basis of l + 1 vectors would not fit the private key file
    from importlib import resources

    doc = json.loads(resources.files("mcc").joinpath("data", "demo_inject.json").read_text())
    doc["mask_basis"].append("110" * 10)
    inject = tmp_path / "inject.json"
    inject.write_text(json.dumps(doc))
    code, _, err = run_cli(
        "keygen", "--params", "demo", "--inject", str(inject),
        "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
    )
    assert code == 2, err
    # mask row 1 makes row 1 of expand(g_p * g_q) + mask equal row 0; the
    # basis holds row 0 + row 1, so every mask row lies in its span
    gpq = PolyGenMatrix(tuple(poly_mul(a, b) for a, b in zip(demo.g_p.polys, demo.g_q.polys)))
    rows = expand_scalar(gpq, demo.params.K, demo.params.p + demo.params.q)
    doc = json.loads(resources.files("mcc").joinpath("data", "demo_inject.json").read_text())
    mask0 = BitVec.from01(doc["mask_basis"][1])
    b0 = rows.row(0) ^ rows.row(1)
    doc["mask_basis"][0] = b0.to01()
    doc["mask_rows"] = [mask0.to01(), (mask0 ^ b0).to01()] + [mask0.to01()] * 4
    inject.write_text(json.dumps(doc))
    code, _, err = run_cli(
        "keygen", "--params", "demo", "--inject", str(inject),
        "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
    )
    assert code == 2, err
    assert "rank deficient" in err
    # wrong JSON types, an index beyond int64, and digits other than 0/1
    original = resources.files("mcc").joinpath("data", "demo_inject.json").read_text()
    for key, value in (
        ("s_rows", 5),
        ("mask_basis", [1, 2]),
        (None, [1, 2]),
        ("perm_sources", [10**30] + doc["perm_sources"][1:]),
        ("s_rows", ["200100"] + doc["s_rows"][1:]),
    ):
        edited = json.loads(original)
        if key is None:
            edited = value
        else:
            edited[key] = value
        inject.write_text(json.dumps(edited))
        code, _, err = run_cli(
            "keygen", "--params", "demo", "--inject", str(inject),
            "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
        )
        assert code == 2, (key, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (key, err)
    # a seed that is not an integer, or negative, in the file or on the command line
    demo_text = resources.files("mcc").joinpath("data", "demo.params").read_text()
    for seed in ("abc", "-1"):
        params.write_text(demo_text + f"seed = {seed}\n")
        code, _, err = run_cli(
            "keygen", "--params", str(params),
            "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
        )
        assert code == 2, (seed, err)
        assert err.startswith("error: "), err
    # an integer key that is not an integer is named in the one error line
    for key, text in (
        ("n", demo_text.replace("n = 2", "n = x")),
        ("seed", demo_text + "seed = abc\n"),
    ):
        params.write_text(text)
        code, _, err = run_cli(
            "keygen", "--params", str(params),
            "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
        )
        assert code == 2, (key, err)
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1, (key, err)
    code, _, err = run_cli(
        "keygen", "--params", "demo", "--seed", "-1",
        "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
    )
    assert code == 2, err
    assert err.startswith("error: ") and "nonnegative" in err
    # a K beyond the size cap is refused before keygen allocates anything
    params.write_text(demo_text.replace("K = 6", "K = 3000000"))
    code, _, err = run_cli(
        "keygen", "--params", str(params),
        "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
    )
    assert code == 2, err
    assert "K must be" in err
    # 2^20 decryption hypotheses of 2^15 bits each would take 4 GiB
    params.write_text(
        "n = 4\np = 16\nq = 0\nK = 8176\nl = 20\ne = 1/100\n"
        f"g_p = {'; '.join(['[0,16]'] * 4)}\ng_q = {'; '.join(['[0]'] * 4)}\n"
    )
    code, _, err = run_cli(
        "keygen", "--params", str(params),
        "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
    )
    assert code == 2, err
    assert "2^l" in err
    msg = tmp_path / "short.txt"
    msg.write_text("01")
    code, _, _ = run_cli(
        "encrypt", "--pub", str(bad), "--in", str(msg), "--out", str(tmp_path / "c")
    )
    assert code == 2
    # a well-formed ciphertext file whose length is not the key's N = 30
    from mcc.keyring import serialize_ciphertext

    pub, priv = tmp_path / "d.pub", tmp_path / "d.priv"
    code, _, err = run_cli(
        "keygen", "--params", "demo", "--out-pub", str(pub), "--out-priv", str(priv),
        "--seed", "3",
    )
    assert code == 0, err
    short_ct = tmp_path / "short.ct"
    short_ct.write_bytes(serialize_ciphertext(BitVec.zeros(7)))
    code, _, err = run_cli(
        "decrypt", "--priv", str(priv), "--pub", str(pub), "--in", str(short_ct)
    )
    assert code == 2, err
    assert err.startswith("error: ") and "N = 30" in err
    # an injected error position that is not an integer
    msg.write_text("111001")
    code, _, err = run_cli(
        "encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(tmp_path / "c"),
        "--inject-errors", "3,x",
    )
    assert code == 2, err
    assert err.startswith("error: ")
    # a repeated injected error position, which would inject one error
    code, _, err = run_cli(
        "encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(tmp_path / "c"),
        "--inject-errors", "3,3",
    )
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    code, _, err = run_cli(
        "encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(tmp_path / "c"),
        "--seed", "-1",
    )
    assert code == 2, err
    assert err.startswith("error: ")
    # a demo ciphertext with the two padding bits of its last byte set
    ct = tmp_path / "padded.ct"
    code, _, err = run_cli(
        "encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct), "--seed", "1"
    )
    assert code == 0, err
    blob = bytearray(ct.read_bytes())
    blob[-1] |= 0xC0
    ct.write_bytes(bytes(blob))
    code, _, err = run_cli("decrypt", "--priv", str(priv), "--pub", str(pub), "--in", str(ct))
    assert code == 2, err
    assert err.startswith("error: ") and "padding" in err
    # values outside a report's or a simulation's domain
    for argv in (
        ("analyze", "isd", "--n", "10", "--k", "20", "--t", "1"),
        # the mask rank and the trellis memory keep the ranges CodeParams allows
        ("analyze", "isd", "--n", "5600", "--k", "2600", "--t", "392", "--l", "-5", "--p", "-14"),
        ("analyze", "isd", "--n", "5600", "--k", "2600", "--t", "392", "--l", "21"),
        ("analyze", "isd", "--n", "5600", "--k", "2600", "--t", "392", "--p", "17"),
        ("analyze", "gilbert", "--rate", "2"),
        ("analyze", "failure", "--p-eff", "2", "--window-bits", "4", "--t-corr", "1",
         "--windows", "1"),
        ("analyze", "alpha", "--params", "demo", "--stream-len", "3"),
        # 0 is a length, not a request for the default one
        ("analyze", "alpha", "--params", "desk", "--stream-len", "0"),
        # beyond MAX_N: refused before any work sized by the value
        ("analyze", "alpha", "--params", "desk", "--stream-len", "32769"),
        ("analyze", "failure", "--p-eff", "0.1175", "--window-bits", "32769", "--t-corr",
         "150", "--windows", "10"),
        ("simulate", "--params", "demo", "--trials", "0"),
        ("simulate", "--params", "demo", "--trials", "1", "--seed", "-1"),
    ):
        code, _, err = run_cli(*argv)
        assert code == 2, (argv, err)
        assert err.startswith("error: ")


@pytest.mark.parametrize("flags", [("--params",), ("--params", "demo", "--inject")])
def test_exit_code_param_or_inject_file_not_utf8(tmp_path, flags):
    bad = tmp_path / "bad.params"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(
        "keygen", *flags, str(bad),
        "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
    )
    assert code == 2, err
    assert err.startswith("error: ") and str(bad) in err


def test_exit_code_malformed_key_files(demo_files, tmp_path):
    from mcc.keyring import deserialize_key
    from test_keyring import crafted_header_blobs

    _, pub, priv = demo_files
    msg = tmp_path / "m.txt"
    msg.write_text("111001")
    ct = tmp_path / "ct.bin"
    assert run_cli("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct))[0] == 0
    keys = (deserialize_key(pub.read_bytes()), deserialize_key(priv.read_bytes()))
    blobs = list(crafted_header_blobs(*keys))
    for key, path in zip(keys, (pub, priv)):
        v1 = bytearray(path.read_bytes())
        v1[4] = 1
        blobs.append((key, bytes(v1)))
    for key, blob in blobs:
        bad = tmp_path / "bad.key"
        bad.write_bytes(blob)
        if key is keys[0]:
            argv = ("encrypt", "--pub", str(bad), "--in", str(msg), "--out", str(tmp_path / "c"))
        else:
            argv = ("decrypt", "--priv", str(bad), "--pub", str(pub), "--in", str(ct))
        code, _, err = run_cli(*argv)
        assert code == 2, err
        assert err.startswith("error: ")


def test_exit_code_decrypt_failure(tmp_path):
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    assert run_cli(
        "keygen", "--params", "desk", "--out-pub", str(pub), "--out-priv", str(priv), "--seed", "8"
    )[0] == 0
    # a random word of the right length is essentially never decryptable
    from mcc.keyring import serialize_ciphertext

    ct = tmp_path / "junk.ct"
    ct.write_bytes(serialize_ciphertext(BitVec.random(656, np.random.default_rng(2))))
    code, _, err = run_cli("decrypt", "--priv", str(priv), "--pub", str(pub), "--in", str(ct))
    assert code == 3
    assert "retransmission" in err
    # decodes stopped at the gate bound print their weight as a lower bound
    assert ">=" in err


def test_seed_is_printed_when_omitted(tmp_path, demo_files):
    _, pub, _ = demo_files
    msg = tmp_path / "m.txt"
    msg.write_text("111001")
    ct = tmp_path / "ct.bin"
    code, out, _ = run_cli("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct))
    assert code == 0
    assert "seed = " in out
