import numpy as np
import pytest

from mcc import trellis as trellis_module
from mcc.bitlinalg import BitVec
from mcc.convcode import PolyGenMatrix, encode_streams
from mcc.gf2poly import from_exponents
from mcc.trellis import (
    DecodeResult,
    _forward_pass,
    _bits_to_symbols,
    _syndrome_bounds,
    build_trellis,
    viterbi_decode,
)
from oracles import free_distance, reference_cost_to_go, reference_forward_pass
from polys import from_exponent_lists, from_octal_strings

GP = from_exponent_lists([[0, 2], [0, 1, 2]])
D3 = "0111100010101100"
D0 = "0000011101010011"
D1 = "0101001000000110"
D2 = "0010110111111001"


def random_code(rng, n_max=4, p_max=3, p=None):
    n = int(rng.integers(2, n_max + 1))
    if p is None:
        p = int(rng.integers(1, p_max + 1))
    polys = []
    for _ in range(n):
        v = int(rng.integers(0, 1 << (p + 1))) | 1 | (1 << p)
        polys.append(v)
    return PolyGenMatrix(tuple(polys))


def brute_force_min_distance(received, polys, K):
    best = None
    for m in range(1 << K):
        cw = encode_streams(BitVec.from_int(K, m), polys, polys.memory)
        d = (cw ^ received).weight()
        if best is None or d < best:
            best = d
    return best


def test_build_reference_trellis():
    t = build_trellis(GP, 6)
    assert t.num_states == 4
    assert t.segments == 8
    assert t.n == 2


def test_build_1024_state_trellis():
    polys = from_octal_strings(["2327", "2353", "2671", "3175"])
    t = build_trellis(polys, 16)
    assert t.num_states == 1024


def test_memory_cap():
    big = PolyGenMatrix(((1 << 17) ^ 1, 1))
    with pytest.raises(ValueError):
        build_trellis(big, 4)
    # memory 0 leaves a single state and nothing to decode
    with pytest.raises(ValueError):
        build_trellis(PolyGenMatrix((1, 1)), 4)


def test_stream_cap():
    # a ninth stream does not fit the uint8 segment symbols
    nine = PolyGenMatrix(GP.polys + GP.polys[1:] * 7)
    assert nine.n == 9
    with pytest.raises(ValueError):
        build_trellis(nine, 4)
    with pytest.raises(ValueError):
        free_distance(nine)


def test_reference_decode_weight_two():
    t = build_trellis(GP, 6)
    res = viterbi_decode(t, BitVec.from01(D3))
    assert res.info.to01() == "110110"
    assert res.error_weight == 2
    assert (encode_streams(res.info, GP, 2) ^ BitVec.from01(D3)).weight() == 2


def test_reference_other_candidates_decode_worse():
    t = build_trellis(GP, 6)
    for word in (D0, D1, D2):
        assert viterbi_decode(t, BitVec.from01(word)).error_weight > 2


def test_clean_codeword_decodes_exactly():
    rng = np.random.default_rng(5)
    t = build_trellis(GP, 10)
    for _ in range(20):
        m = BitVec.random(10, rng)
        cw = encode_streams(m, GP, 2)
        res = viterbi_decode(t, cw)
        assert res.info == m and res.error_weight == 0


def test_decode_length_check():
    t = build_trellis(GP, 6)
    with pytest.raises(ValueError):
        viterbi_decode(t, BitVec.zeros(15))


def test_two_errors_always_corrected():
    # free distance 5 corrects any double error of the terminated code
    rng = np.random.default_rng(7)
    t = build_trellis(GP, 12)
    for _ in range(200):
        m = BitVec.random(12, rng)
        cw = encode_streams(m, GP, 2)
        pos = rng.choice(cw.n, size=int(rng.integers(0, 3)), replace=False)
        noisy = cw ^ BitVec.from_indices(cw.n, pos)
        res = viterbi_decode(t, noisy)
        assert res.info == m
        assert res.error_weight == len(pos)


def test_optimality_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(40):
        polys = random_code(rng)
        k = int(rng.integers(2, 9))
        t = build_trellis(polys, k)
        received = BitVec.random(t.n * t.segments, rng)
        res = viterbi_decode(t, received)
        assert res.error_weight == brute_force_min_distance(received, polys, k)


@pytest.mark.parametrize("p, k", [(1, 7), (1, 8), (2, 7), (2, 8), (3, 5), (3, 6)])
def test_ties_go_to_the_least_word_read_from_its_last_bit(p, k):
    # p = 1 runs single steps only; p >= 2 runs the even part of K as paired
    # stages, then single steps. Reading bit K - 1 as the most significant,
    # the expected word is the least value of least weight.
    rng = np.random.default_rng(10 * p + k)
    tied = 0
    for _ in range(30):
        polys = random_code(rng, p=p)
        t = build_trellis(polys, k)
        received = BitVec.random(t.n * t.segments, rng)
        weights = [
            (encode_streams(BitVec.from_int(k, v), polys, p) ^ received).weight()
            for v in range(1 << k)
        ]
        best = min(weights)
        tied += weights.count(best) > 1
        res = viterbi_decode(t, received)
        assert res.info == BitVec.from_int(k, weights.index(best))
    assert tied > 0


def test_survivor_path_mismatch_raises(monkeypatch):
    # a raise, not an assert, so that python -O keeps the check
    t = build_trellis(GP, 6)
    flip = BitVec.from_indices(16, [0])

    def wrong_word(m, polys, memory):
        return encode_streams(m, polys, memory) ^ flip

    monkeypatch.setattr(trellis_module, "encode_streams", wrong_word)
    with pytest.raises(RuntimeError, match="survivor path"):
        viterbi_decode(t, BitVec.from01(D3))


def test_n8_p16_corner_decodes_optimally():
    # the largest branch-metric tables CodeParams admits: 2^(8+16+4) bytes
    rng = np.random.default_rng(19)
    polys = PolyGenMatrix(
        tuple(int(rng.integers(0, 1 << 17)) | 1 | (1 << 16) for _ in range(8))
    )
    t = build_trellis(polys, 3)
    assert t._t1.dtype == t._t2.dtype == np.int32
    assert t._t1.nbytes + t._t2.nbytes == 1 << 28
    received = BitVec.random(t.n * t.segments, rng)
    res = viterbi_decode(t, received)
    assert res.error_weight == brute_force_min_distance(received, polys, 3)


def unpack_survivors(t, packed):
    """Survivor bits in (segment, state) order from the packed rows.

    Segments 0 .. 2 floor(K/2) - 1 run in pairs when p >= 2. A first stage
    and a single step store state 2m + b at bit b * 2^(p-1) + m; a second
    stage stores state 4l + 2b1 + b2 at bit b1 * 2^(p-1) + b2 * 2^(p-2) + l.
    """
    ns = t.num_states
    bits = np.unpackbits(packed, axis=1, count=ns, bitorder="little").astype(bool)
    out = bits.reshape(-1, 2, ns // 2).transpose(0, 2, 1).reshape(-1, ns)
    if t.p >= 2:
        second = np.arange(1, t.K - t.K % 2, 2)
        out[second] = bits[second].reshape(-1, 2, 2, ns // 4).transpose(0, 3, 1, 2).reshape(-1, ns)
    return out


def test_forward_pass_matches_reference(desk):
    rng = np.random.default_rng(23)
    cases = [(GP, 8), (GP, 9), (desk.g_p, 40), (desk.g_p, 41)]
    cases += [(random_code(rng), 6) for _ in range(10)]
    cases += [(random_code(rng, p=p), k) for p in (1, 2, 3) for k in (5, 6)]
    for polys, k in cases:
        t = build_trellis(polys, k)
        for _ in range(3):
            rsyms = _bits_to_symbols(BitVec.random(t.n * t.segments, rng), t.n)
            # the word length as the bound and no checks: a full pass
            pm, survivors = _forward_pass(t, rsyms, t.n * t.segments, {})
            ref_pm, ref_survivors, _ = reference_forward_pass(t, rsyms)
            assert np.array_equal(pm, ref_pm)
            assert np.array_equal(unpack_survivors(t, survivors), ref_survivors)


def test_bounded_pass_stops_after_a_first_stage(desk):
    # an even segment ends the first stage of a pair; a check there reads
    # the metrics between the two stages, and its lower bound keeps
    # viterbi_decode's contract: bound < lower bound <= weight
    rng = np.random.default_rng(41)
    for polys, k in ((GP, 40), (desk.g_p, 41)):
        t = build_trellis(polys, k)
        for received in noisy_words(t, polys, rng):
            rsyms = _bits_to_symbols(received, t.n)
            weight = viterbi_decode(t, received).error_weight
            _, _, history = reference_forward_pass(t, rsyms)
            for seg in (10, 20):
                tail = int(_syndrome_bounds(t, received, np.array([seg]))[1])
                reached = int(history[seg + 1].min()) + tail
                pm, survivors = _forward_pass(t, rsyms, reached - 1, {seg: tail})
                assert survivors is None
                assert int(pm.min()) == reached <= weight
                _, survivors = _forward_pass(t, rsyms, reached, {seg: tail})
                assert survivors is not None


def test_bounded_decode_is_exact_or_a_lower_bound(desk):
    # a bounded decode equals the full one when the weight is within the
    # bound; otherwise it stops with bound < lower bound <= weight
    rng = np.random.default_rng(29)
    cases = [(GP, 40), (desk.g_p, 60)] + [(random_code(rng), 30) for _ in range(6)]
    stopped_early = 0
    for polys, k in cases:
        t = build_trellis(polys, k)
        for flips in (0, 3, 12, None):
            cw = encode_streams(BitVec.random(k, rng), polys, t.p)
            if flips is None:
                received = BitVec.random(cw.n, rng)
            else:
                received = cw ^ BitVec.from_indices(cw.n, rng.choice(cw.n, flips, replace=False))
            full = viterbi_decode(t, received)
            w = full.error_weight
            # received.n is the bound an omitted one stands for
            for bound in sorted({-1, 0, w // 2, received.n} | set(range(w - 2, w + 3))):
                res = viterbi_decode(t, received, bound)
                if w <= bound:
                    assert res == full
                else:
                    assert res.info is None
                    assert bound < res.error_weight <= w
                    stopped_early += res.error_weight < w
    assert stopped_early > 0


def noisy_words(t, polys, rng):
    """A codeword with 0, 1, 2 and 5 flips, and a random word."""
    for flips in (0, 1, 2, 5, None):
        cw = encode_streams(BitVec.random(t.K, rng), polys, t.p)
        if flips is None:
            yield BitVec.random(cw.n, rng)
        else:
            yield cw ^ BitVec.from_indices(cw.n, rng.choice(cw.n, flips, replace=False))


def test_syndrome_bounds_are_admissible():
    # the whole-word bound is at most the optimal weight (brute force), and
    # the bound after segment t at most the best completion from every state
    rng = np.random.default_rng(31)
    n1 = PolyGenMatrix((from_exponents([0, 2]),))
    n4 = from_exponent_lists([[0, 1, 3], [0, 3], [0, 2, 3], [1, 2, 3]])
    cases = [(n1, 8), (GP, 8), (n4, 8), (GP, 40), (n4, 30)]
    cases += [(random_code(rng), 8) for _ in range(8)]
    positive = 0
    for polys, k in cases:
        t = build_trellis(polys, k)
        for received in noisy_words(t, polys, rng):
            lb = _syndrome_bounds(t, received, np.arange(t.segments))
            cost = reference_cost_to_go(t, _bits_to_symbols(received, t.n))
            assert cost[0, 0] == viterbi_decode(t, received).error_weight
            if k <= 8:
                assert cost[0, 0] == brute_force_min_distance(received, polys, k)
            assert lb[0] <= cost[0, 0]
            assert np.all(lb[1:, None] <= cost[1:])
            assert lb[-1] == 0
            if polys.n == 1:
                # one stream has no syndrome
                assert not lb.any()
            positive += int(np.count_nonzero(lb))
    assert positive > 0


def test_syndrome_rejection_skips_the_acs_loop(monkeypatch):
    rng = np.random.default_rng(37)
    t = build_trellis(GP, 40)
    received = BitVec.random(t.n * t.segments, rng)
    whole = int(_syndrome_bounds(t, received, np.arange(0))[0])
    assert whole > 0

    def no_acs(*args):
        raise AssertionError("the ACS loop ran")

    monkeypatch.setattr(trellis_module, "_forward_pass", no_acs)
    assert viterbi_decode(t, received, whole - 1) == DecodeResult(None, whole)
    with pytest.raises(AssertionError, match="ACS loop"):
        viterbi_decode(t, received, whole)


def test_path_metrics_never_decrease():
    rng = np.random.default_rng(13)
    t = build_trellis(GP, 8)
    received = BitVec.random(t.n * t.segments, rng)
    rsyms = _bits_to_symbols(received, t.n)
    pm, survivors, history = reference_forward_pass(t, rsyms)
    state = 0
    metrics = [int(pm[0])]
    for seg in range(t.segments - 1, -1, -1):
        state_prev = (state >> 1) | (int(survivors[seg, state]) << (t.p - 1))
        metrics.append(int(history[seg][state_prev]))
        state = state_prev
    metrics.reverse()
    assert all(b >= a for a, b in zip(metrics, metrics[1:]))


def test_free_distance_reference_codes():
    assert free_distance(GP) == 5
    rep = PolyGenMatrix((1, 1))
    assert free_distance(rep) == 2


def test_free_distance_matches_terminated_min_weight():
    # short-input brute force: the least-weight nonzero terminated codeword
    rng = np.random.default_rng(17)
    for polys in (GP, PolyGenMatrix((1, 1))):
        best = min(
            encode_streams(BitVec.from_int(6, m), polys, polys.memory).weight()
            for m in range(1, 64)
        )
        assert free_distance(polys) == best
    for _ in range(10):
        polys = random_code(rng)
        best = min(
            encode_streams(BitVec.from_int(8, m), polys, polys.memory).weight()
            for m in range(1, 256)
        )
        assert free_distance(polys) == best


def test_free_distance_search_cap():
    toobig = PolyGenMatrix(((1 << 13) ^ 1, 1))
    with pytest.raises(ValueError):
        free_distance(toobig)
