import math
from fractions import Fraction

import numpy as np
import pytest

from mcc.analysis import (
    binary_entropy,
    effective_error_rate,
    estimate_alpha,
    gilbert_relative_distance,
    isd_log2,
    key_randomness_report,
    qisd_log2,
    window_failure,
)
from mcc.bitlinalg import MatF2
from mcc.convcode import PolyGenMatrix
from mcc.gf2poly import BinPoly, poly_divmod
from mcc.presets import load_preset
from oracles import batch_quotient_weights, monte_carlo_alpha, unit_vector_alpha


def exact_isd_log2(n, k, t):
    # big-integer oracle for the log-domain product form
    ratio = Fraction(math.comb(n, k), math.comb(n - t, k)) / Fraction(29, 100)
    return math.log2(ratio.numerator) - math.log2(ratio.denominator)


def exact_binomial_tail(p: float, n: int, t: int) -> float:
    pf = Fraction(p)
    total = Fraction(0)
    for i in range(t + 1, n + 1):
        total += math.comb(n, i) * pf**i * (1 - pf) ** (n - i)
    return float(total)


def test_batch_divider_matches_poly_divmod():
    rng = np.random.default_rng(1)
    divisors = [
        BinPoly.from_exponents([0, 7]),
        BinPoly.from_exponents([0, 3, 9]),
        BinPoly.from_exponents([5]),
        BinPoly.from_exponents([0, 1, 2, 4]),
    ]
    for divisor in divisors:
        bits = (rng.random((10, 150)) < 0.25).astype(np.uint8)
        quot_len = 150 - 9
        got = batch_quotient_weights(bits.copy(), divisor, quot_len)
        for r in range(10):
            e_int = int.from_bytes(
                np.packbits(bits[r], bitorder="little").tobytes(), "little"
            )
            q, _ = poly_divmod(BinPoly(e_int), divisor)
            assert got[r] == (q.value & ((1 << quot_len) - 1)).bit_count()


def test_estimate_alpha_pure_shift_does_not_propagate():
    # a monomial divisor just slides the stream; the only weight change is
    # the error bits that drop into the discarded remainder
    gq = PolyGenMatrix.from_exponent_lists([[40]])
    (alpha,) = estimate_alpha(gq, 0.05, 500)
    assert alpha == pytest.approx(-0.05 * 40, abs=1e-12)


def test_estimate_alpha_binomial_divisor_propagates():
    gq = PolyGenMatrix.from_exponent_lists([[0, 50]])
    (alpha,) = estimate_alpha(gq, 0.02, 1000)
    assert alpha > 50  # each error spawns a chain of copies


def test_estimate_alpha_reference_rate_small_sample():
    gq = PolyGenMatrix.from_exponent_lists([[93], [0, 186]])
    alpha = sum(estimate_alpha(gq, 0.02, 2800))
    eff = effective_error_rate(0.02, alpha, 5600)
    assert abs(eff - 0.07) <= 0.01


def test_estimate_alpha_validation():
    gq = PolyGenMatrix.from_exponent_lists([[0, 5]])
    with pytest.raises(ValueError):
        estimate_alpha(gq, 1.5, 100)
    with pytest.raises(ValueError):
        estimate_alpha(gq, 0.1, 4)


def test_estimate_alpha_matches_brute_force():
    # small divisors, with truncation (stream 0 has lower degree than g_q)
    # and e = 0: every w_i counted by dividing each unit vector x^k
    cases = [
        ([[3], [0, 1, 5]], 0.1, 40),
        ([[0, 2], [1, 4, 6]], 0.1, 33),
        ([[0, 7]], 0.25, 30),
        ([[0, 1, 2, 4], [2]], 0.0, 25),
    ]
    for exps, e, stream_len in cases:
        gq = PolyGenMatrix.from_exponent_lists(exps)
        assert estimate_alpha(gq, e, stream_len) == pytest.approx(
            unit_vector_alpha(gq, e, stream_len), abs=1e-9
        )
    # the piling-up lemma itself: the expectation over all 2^10 error words
    gq = PolyGenMatrix.from_exponent_lists([[0, 2, 3]])
    e, stream_len = 0.15, 10
    expected = 0.0
    for word in range(1 << stream_len):
        wt = word.bit_count()
        quot, _ = poly_divmod(BinPoly(word), gq.polys[0])
        expected += e**wt * (1 - e) ** (stream_len - wt) * (quot.value.bit_count() - wt)
    assert estimate_alpha(gq, e, stream_len)[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "name", ["desk", "bench-a", "bench-b", "criterion-06"]
)
def test_estimate_alpha_within_monte_carlo_error(name):
    if name == "criterion-06":
        gq, e, stream_len = PolyGenMatrix.from_exponent_lists([[93], [0, 186]]), 0.02, 2800
    else:
        pf = load_preset(name)
        gq, e = pf.g_q, float(pf.params.e)
        stream_len = pf.params.K + pf.params.p + pf.params.q
    samples = monte_carlo_alpha(gq, e, stream_len, 2000, np.random.default_rng(6))
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    exact = np.array(estimate_alpha(gq, e, stream_len))
    assert np.all(np.abs(exact - mean) <= 4 * se)


def test_effective_error_rate():
    assert effective_error_rate(0.02, 0.05 * 5600, 5600) == pytest.approx(0.07)
    assert effective_error_rate(0.03, 0.0, 1000) == pytest.approx(0.03)
    assert effective_error_rate(0.04, 0.0775 * 10032, 10032) == pytest.approx(0.1175)
    with pytest.raises(ValueError):
        effective_error_rate(0.5, 1e9, 100)


def test_gilbert_reference_rates():
    assert gilbert_relative_distance(0.5) == pytest.approx(0.110, abs=1e-3)
    assert gilbert_relative_distance(1 / 3) == pytest.approx(0.174, abs=1e-3)
    assert gilbert_relative_distance(0.25) == pytest.approx(0.215, abs=1e-3)


def test_gilbert_limits_and_round_trip():
    assert gilbert_relative_distance(1e-9) == pytest.approx(0.5, abs=1e-3)
    for rho in (0.1, 0.35, 0.5, 0.8, 0.95):
        x = gilbert_relative_distance(rho)
        assert binary_entropy(x) == pytest.approx(1 - rho, abs=1e-5)
    with pytest.raises(ValueError):
        gilbert_relative_distance(0.0)


def test_isd_reference_costs():
    assert isd_log2(4096, 3556, 45) == pytest.approx(math.log2(7.06e40), abs=1.0)
    assert isd_log2(5600, 2600, 392) == pytest.approx(math.log2(2.088e112), abs=2.0)
    assert isd_log2(100, 60, 0) == pytest.approx(-math.log2(0.29), abs=1e-12)


def test_isd_matches_big_integer_oracle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(10, 201))
        k = int(rng.integers(1, n))
        t = int(rng.integers(0, n - k + 1))
        assert isd_log2(n, k, t) == pytest.approx(exact_isd_log2(n, k, t), abs=1e-9)


def test_isd_validation():
    with pytest.raises(ValueError):
        isd_log2(100, 100, 0)
    with pytest.raises(ValueError):
        isd_log2(100, 50, 51)


def test_qisd_is_half():
    assert qisd_log2(4096, 3556, 45) == pytest.approx(isd_log2(4096, 3556, 45) / 2)
    assert qisd_log2(5600, 2600, 392) == pytest.approx(186.56, abs=1.0)
    assert qisd_log2(100, 60, 0) == pytest.approx(0.893, abs=1e-3)


def test_window_failure_reference_point():
    p_window, p_all = window_failure(0.1175, 44, 14, 228)
    assert 8.998e-5 / 2 <= p_window <= 8.998e-5 * 2
    assert p_all == pytest.approx(0.98, abs=0.02)


def test_window_failure_edge_cases():
    assert window_failure(0.0, 44, 14, 228) == (0.0, 1.0)
    p_window, _ = window_failure(0.3, 10, 9, 5)
    assert p_window == pytest.approx(0.3**10, rel=1e-12)


def test_window_failure_matches_exact_oracle():
    for p, w, t in ((0.1175, 44, 14), (0.07, 30, 8), (0.25, 20, 3)):
        got, _ = window_failure(p, w, t, 1)
        assert got == pytest.approx(exact_binomial_tail(p, w, t), rel=1e-12)


def test_window_failure_monotonicity():
    probs = [window_failure(p, 44, 14, 1)[0] for p in (0.05, 0.1, 0.2, 0.3, 0.5)]
    assert all(a < b for a, b in zip(probs, probs[1:]))
    widths = [window_failure(0.1, w, 5, 1)[0] for w in (10, 20, 40, 80)]
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_key_randomness_reference_key(demo_keys):
    pub, _ = demo_keys
    rep = key_randomness_report(pub.g)
    assert rep.rank == 6
    assert rep.full_rank


def test_key_randomness_flags_identity():
    rep = key_randomness_report(MatF2.identity(64))
    assert rep.col_weight_mean == pytest.approx(1.0)
    assert abs(rep.mean_col_weight_z) > 10
