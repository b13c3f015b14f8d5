"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with its runtime (visible under pytest -s or on failure)."""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mcc.analysis import (
    estimate_alpha,
    gilbert_relative_distance,
    isd_log2,
    key_randomness_report,
    window_failure,
)
from mcc.bitlinalg import BitVec, MatF2, mat_add, mat_vec_mul, permute, rank
from mcc.convcode import CodeParams, PolyGenMatrix, deinterleave, encode_streams, expand_scalar
from mcc.cryptopipe import (
    DecryptionFailure,
    decrypt,
    encrypt,
    enumerate_candidates,
    invert_highmem,
)
from mcc.gf2poly import from_exponents, poly_divmod, poly_mul
from mcc.keyring import keygen
from mcc.presets import load_preset
from mcc.trellis import build_trellis, viterbi_decode
from oracles import free_distance, recover_masked_sum, reference_outcomes
from polys import from_exponent_lists, from_octal_strings


def criterion(num, name, budget_s=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            dt = time.perf_counter() - t0
            extra = f"; {detail}" if detail else ""
            print(f"ACCEPTANCE {num:02d} {name}: PASS ({dt:.2f}s{extra})")
            if budget_s is not None:
                assert dt < budget_s, f"runtime {dt:.1f}s over the {budget_s}s budget"

        return wrapper

    return deco


MASKED_SUM_ROWS = [
    "001000101010100111011010101010",
    "011101110101010110001001010101",
    "101000100010101010011101101010",
    "010101110111010101011000100101",
    "010101011101110101010110001001",
    "101010101000100010101010011101",
]


@criterion(1, "golden small-system reproduction", budget_s=1.0)
def test_criterion_01_golden(demo):
    pub, priv = keygen(
        demo.params, demo.g_p, demo.g_q, np.random.default_rng(0), material=demo.material
    )

    # key construction, bit for bit
    gpq = PolyGenMatrix(tuple(poly_mul(a, b) for a, b in zip(demo.g_p.polys, demo.g_q.polys)))
    masked = mat_add(expand_scalar(gpq, 6, 9), demo.material.mask_matrix)
    assert masked == MatF2.from_bitstrings(MASKED_SUM_ROWS)
    assert recover_masked_sum(pub, priv) == masked
    assert pub.g.row(0).to01() == "101011001100101101010111100100"
    assert rank(pub.g) == 6

    # encryption with the pinned error pattern
    ct = encrypt(pub, demo.message, np.random.default_rng(0), error=demo.error_vector)
    c_tilde = permute(ct, priv.perm, inverse=True)
    s0, s1 = (s.to_int() for s in deinterleave(c_tilde, 2))
    ones = from_exponents(range(15))
    assert s0 == from_exponents([7, 10, 14])
    assert s1 == from_exponents([0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 14])
    # the four unmasked stream variants
    assert s0 ^ ones == from_exponents([0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 13])
    assert s1 ^ ones == from_exponents([7, 8, 13])

    # all four stream quotients and remainders
    q00, r00 = poly_divmod(s0, demo.g_q.polys[0])
    assert (q00, r00) == (from_exponents([3, 7]), from_exponents([3]))
    q10, r10 = poly_divmod(s0 ^ ones, demo.g_q.polys[0])
    assert (q10, r10) == (
        from_exponents([1, 2, 4, 5, 6]),
        from_exponents([0, 3]),
    )
    q01, r01 = poly_divmod(s1, demo.g_q.polys[1])
    assert (q01, r01) == (
        from_exponents([2, 3, 4, 5, 7]),
        from_exponents([0, 1, 2, 3, 4, 5, 6]),
    )
    q11, r11 = poly_divmod(s1 ^ ones, demo.g_q.polys[1])
    assert (q11, r11) == (from_exponents([0, 1, 6]), 0)

    # candidate decoding: the all-ones unmasking wins with weight 2
    trellis = build_trellis(demo.g_p, 6)
    outcomes = []
    for i, cand in enumerate(enumerate_candidates(c_tilde, priv.mask_basis.vectors)):
        word, _ = invert_highmem(cand, demo.g_q, demo.params)
        outcomes.append((i, word, viterbi_decode(trellis, word)))
    winner = min(outcomes, key=lambda o: o[2].error_weight)
    assert winner[1].to01() == "0111100010101100"
    assert winner[2].error_weight == 2
    assert winner[2].info.to01() == "110110"
    assert sorted(o[2].error_weight for o in outcomes) == [2, 3, 3, 4]

    # plaintext recovery through the inverse scramble
    assert mat_vec_mul(winner[2].info, priv.s_inv).to01() == "111001"
    assert decrypt(priv, pub, ct).to01() == "111001"
    return "full chain bit-exact, winner weight 2"


@criterion(2, "round-trip correctness", budget_s=120.0)
def test_criterion_02_round_trip():
    # noiseless: exhaustive over every message of a K = 12 system
    tiny = CodeParams(n=2, p=2, q=7, K=12, l=2, e=Fraction(0), r_poly=1)
    g_p = from_exponent_lists([[0, 2], [0, 1, 2]])
    g_q = from_exponent_lists([[0, 7], [7]])
    pub, priv = keygen(tiny, g_p, g_q, np.random.default_rng(2))
    rng = np.random.default_rng(0)
    for value in range(1 << 12):
        m = BitVec.from_int(12, value)
        assert decrypt(priv, pub, encrypt(pub, m, rng)) == m
    # same, with a CRC field occupying part of K
    crc_params = CodeParams(
        n=2, p=2, q=7, K=12, l=2, e=Fraction(0), r_poly=from_exponents([0, 1, 4])
    )
    pub2, priv2 = keygen(crc_params, g_p, g_q, np.random.default_rng(3))
    for value in range(1 << 8):
        m = BitVec.from_int(8, value)
        assert decrypt(priv2, pub2, encrypt(pub2, m, rng)) == m

    # noiseless at the desk working point, random sampling
    desk = load_preset("desk")
    quiet = CodeParams(
        n=2, p=8, q=64, K=256, l=4, e=Fraction(0), r_poly=desk.params.r_poly
    )
    pub3, priv3 = keygen(quiet, desk.g_p, desk.g_q, np.random.default_rng(4))
    for _ in range(1000):
        m = BitVec.random(quiet.plaintext_len, rng)
        assert decrypt(priv3, pub3, encrypt(pub3, m, rng)) == m

    # noisy desk trials: high success, no silent wrong plaintext
    pub4, priv4 = keygen(desk.params, desk.g_p, desk.g_q, np.random.default_rng(5))
    ok = flagged = wrong = 0
    for _ in range(100):
        m = BitVec.random(desk.params.plaintext_len, rng)
        ct = encrypt(pub4, m, rng)
        try:
            out = decrypt(priv4, pub4, ct)
        except DecryptionFailure:
            flagged += 1
            continue
        if out == m:
            ok += 1
        else:
            wrong += 1
    assert wrong == 0, "a wrong plaintext slipped past the CRC and gate"
    assert ok >= 95
    return f"exhaustive 4096+256 exact; desk noisy {ok}/100 ok, {flagged} flagged, 0 wrong"


@criterion(3, "window failure model", budget_s=1.0)
def test_criterion_03_window_failure():
    p_window, p_all = window_failure(0.1175, 44, 14, 228)
    assert 8.998e-5 / 2 <= p_window <= 8.998e-5 * 2
    assert abs(p_all - 0.98) <= 0.02
    # exact-summation oracle at 1e-12 relative
    pf = Fraction(0.1175)
    oracle = sum(
        math.comb(44, i) * pf**i * (1 - pf) ** (44 - i) for i in range(15, 45)
    )
    assert p_window == pytest.approx(float(oracle), rel=1e-12)
    return f"p_window={p_window:.4g}, overall={p_all:.4f}"


@criterion(4, "typical-distance bound", budget_s=5.0)
def test_criterion_04_gilbert():
    values = {}
    for rho, expected in ((0.5, 0.110), (1 / 3, 0.174), (0.25, 0.215)):
        got = gilbert_relative_distance(rho)
        assert abs(got - expected) <= 1e-3
        values[rho] = got
    return "rates 1/2, 1/3, 1/4 -> " + ", ".join(f"{v:.3f}" for v in values.values())


@criterion(5, "generic decoding cost", budget_s=10.0)
def test_criterion_05_isd():
    a = isd_log2(4096, 3556, 45)
    b = isd_log2(5600, 2600, 392)
    assert abs(a - 135.7) <= 1.0
    assert abs(b - 373.1) <= 2.0
    rng = np.random.default_rng(50)
    for _ in range(60):
        n = int(rng.integers(10, 201))
        k = int(rng.integers(1, n))
        t = int(rng.integers(0, n - k + 1))
        ratio = Fraction(math.comb(n, k), math.comb(n - t, k)) / Fraction(29, 100)
        exact = math.log2(ratio.numerator) - math.log2(ratio.denominator)
        assert abs(isd_log2(n, k, t) - exact) <= 1e-9
    # the cost ratio is reported, not matched to any external figure
    return f"isd_log2 {a:.1f} and {b:.1f} bits, ratio {b - a:.1f} bits"


@criterion(6, "division error propagation", budget_s=60.0)
def test_criterion_06_alpha():
    half = from_exponent_lists([[93], [0, 186]])
    eff = (0.02 * 5600 + sum(estimate_alpha(half, 0.02, 2800))) / 5600
    assert abs(eff - 0.07) <= 0.01

    quarter = from_exponent_lists(
        [[0, 495, 990], [247], [743], [0, 990]]
    )
    stream_len = 12672
    alpha_over_n = sum(estimate_alpha(quarter, 0.04, stream_len)) / (4 * stream_len)
    assert abs(alpha_over_n - 0.0775) <= 0.01
    return f"eff={eff:.4f} (target 0.07), alpha/N={alpha_over_n:.4f} (target 0.0775)"


@criterion(7, "free distances", budget_s=300.0)
def test_criterion_07_free_distance():
    small = from_exponent_lists([[0, 2], [0, 1, 2]])
    assert free_distance(small) == 5
    big = from_octal_strings(["2327", "2353", "2671", "3175"])
    assert free_distance(big) == 29
    return "5 and 29, exact"


@criterion(8, "decoder optimality oracle", budget_s=120.0)
def test_criterion_08_viterbi_optimality():
    rng = np.random.default_rng(80)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(1, 4))
        k = int(rng.integers(2, 11))
        polys = PolyGenMatrix(
            tuple(
                int(rng.integers(0, 1 << (p + 1))) | 1 | (1 << p)
                for _ in range(n)
            )
        )
        trellis = build_trellis(polys, k)
        received = BitVec.random(trellis.n * trellis.segments, rng)
        got = viterbi_decode(trellis, received).error_weight
        best = min(
            (encode_streams(BitVec.from_int(k, v), polys, p) ^ received).weight()
            for v in range(1 << k)
        )
        mismatches += got != best
    assert mismatches == 0
    return "200/200 instances match brute force"


@criterion(9, "full-scale smoke", budget_s=600.0)
def test_criterion_09_full_scale():
    bench = load_preset("bench-a")
    assert (bench.params.K, bench.params.N, bench.params.l) == (2600, 5600, 5)
    pub, priv = keygen(bench.params, bench.g_p, bench.g_q, np.random.default_rng(90))
    rng = np.random.default_rng(91)
    ok = 0
    separated = 0
    trials = 20
    for _ in range(trials):
        m = BitVec.random(bench.params.plaintext_len, rng)
        ct = encrypt(pub, m, rng)
        try:
            out = decrypt(priv, pub, ct)
        except DecryptionFailure:
            continue
        if out == m:
            ok += 1
        # winner separation: rerun the ranking to inspect all weights
    assert ok >= 18, f"only {ok}/20 trials recovered the plaintext"

    # candidate separation on a sample of full decodes
    for _ in range(3):
        m = BitVec.random(bench.params.plaintext_len, rng)
        ct = encrypt(pub, m, rng)
        weights = sorted(o.decode.error_weight for o in reference_outcomes(priv, ct))
        assert weights[0] < weights[1], "winner not separated from the field"
        separated += 1
    return f"{ok}/20 recovered; {separated}/3 sampled decodes cleanly separated"


@criterion(10, "public key statistics", budget_s=120.0)
def test_criterion_10_key_statistics():
    desk = load_preset("desk")
    k, l = desk.params.K, desk.params.l
    # the rank-l mask clusters rows into 2^l span groups, inflating the
    # variance of the mean column weight over the independence baseline
    z_bound = 4.0 * math.sqrt(1 + k / (1 << l))
    means = []
    for seed in range(50):
        pub, _ = keygen(desk.params, desk.g_p, desk.g_q, np.random.default_rng(1000 + seed))
        rep = key_randomness_report(pub.g)
        assert rep.rank == k
        assert 0.45 * k <= rep.col_weight_mean <= 0.55 * k
        assert abs(rep.mean_col_weight_z) < z_bound
        means.append(rep.col_weight_mean)
    lo, hi = min(means), max(means)
    return f"50 keys full rank; column-weight means in [{lo:.1f}, {hi:.1f}] vs K/2={k/2}"
