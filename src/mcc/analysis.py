"""Quantitative tooling: error propagation, distance bounds, attack cost.

Everything here is a pure function of its arguments; nothing is sampled. The
error propagation of stream division (alpha) has a closed form, which the
decryption gate reads. Complexity figures are reported in log2 because the
raw counts overflow fixed-width floats at the parameter scales of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitlinalg import MatF2, rank
from .convcode import PolyGenMatrix
from .gf2poly import BinPoly, poly_divmod

_LOG2_029 = math.log2(0.29)
# bisection stops once the bracket is this narrow
_GILBERT_TOL = 1e-9


@dataclass(frozen=True)
class KeyRandomnessReport:
    rows: int
    cols: int
    rank: int
    full_rank: bool
    col_weight_mean: float
    col_weight_std: float
    col_weight_min: int
    col_weight_max: int
    row_weight_mean: float
    row_weight_std: float
    mean_col_weight_z: float


def estimate_alpha(g_q: PolyGenMatrix, e: float, stream_len: int) -> tuple[float, ...]:
    """Exact mean quotient-weight increase of each stream under Bernoulli(e) errors.

    Division by q_j is linear: quotient bit i is the XOR of the input bits k
    whose quotient floor(x^k / q_j) has bit i set, and there are
    w_i = popcount(s >> i) of them, s being the quotient of x^(stream_len-1).
    By the piling-up lemma the bit is 1 with probability (1 - (1-2e)^w_i)/2.
    The sum over the stream_len - deg(g_q) coefficients that decryption
    keeps, less the e * stream_len input errors, is the stream's alpha; a
    pure shift gives -e * deg(g_q), the errors that fall into the remainder
    or the truncated top.
    """
    if not 0 <= e < 1:
        raise ValueError("e must lie in [0, 1)")
    quot_len = stream_len - g_q.memory
    if quot_len <= 0:
        raise ValueError("stream shorter than the divisor degree")
    per_stream = []
    for q_j in g_q.polys:
        s, _ = poly_divmod(BinPoly.x_pow(stream_len - 1), q_j)
        bits = s.to_bitvec(stream_len).to_bits()
        w = np.cumsum(bits[::-1], dtype=np.int64)[::-1][:quot_len]
        per_stream.append(float(np.sum((1.0 - (1.0 - 2.0 * e) ** w) / 2.0)) - e * stream_len)
    return tuple(per_stream)


def effective_error_rate(e: float, alpha: float, N: int) -> float:
    """(e*N + alpha) / N, the error probability seen by the stream decoder."""
    rate = (e * N + alpha) / N
    if not 0 <= rate <= 1:
        raise ValueError("effective rate outside [0, 1]")
    return rate


def binary_entropy(x: float) -> float:
    if not 0 <= x <= 1:
        raise ValueError("entropy argument outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def gilbert_relative_distance(rho: float) -> float:
    """Solve entropy(x) = 1 - rho for x in (0, 1/2) by bisection.

    Estimates the typical relative distance from a random word to the
    nearest codeword of a random rate-rho linear code.
    """
    if not 0 < rho < 1:
        raise ValueError("rate must lie in (0, 1)")
    target = 1.0 - rho
    lo, hi = 0.0, 0.5
    while hi - lo > _GILBERT_TOL:
        mid = (lo + hi) / 2
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def isd_log2(N: int, K: int, t: int) -> float:
    """log2 of C(N, K) / (0.29 * C(N - t, K)), evaluated in the log domain.

    The binomial ratio telescopes to a product of t factors, so no
    large-integer arithmetic is needed at any parameter scale.
    """
    if not 0 < K < N:
        raise ValueError("need 0 < K < N")
    if not 0 <= t <= N - K:
        raise ValueError("need 0 <= t <= N - K")
    total = -_LOG2_029
    for i in range(t):
        total += math.log2((N - i) / (N - K - i))
    return total


def qisd_log2(N: int, K: int, t: int) -> float:
    """Quantum-search cost: square root of the classical iteration count."""
    return isd_log2(N, K, t) / 2.0


def window_failure(
    p_eff: float, window_bits: int, t_corr: int, windows: int
) -> tuple[float, float]:
    """Binomial tail model of decoder overload.

    p_window is the exact probability of more than t_corr errors among
    window_bits positions at rate p_eff; the second value is the chance that
    none of `windows` independent windows overloads.
    """
    if not 0 <= p_eff <= 1:
        raise ValueError("p_eff outside [0, 1]")
    if not 0 <= t_corr < window_bits:
        raise ValueError("need 0 <= t_corr < window_bits")
    if windows < 0:
        raise ValueError("negative window count")
    p_window = 0.0
    for i in range(window_bits, t_corr, -1):
        p_window += (
            math.comb(window_bits, i)
            * p_eff**i
            * (1.0 - p_eff) ** (window_bits - i)
        )
    p_window = min(p_window, 1.0)
    return p_window, (1.0 - p_window) ** windows


def key_randomness_report(g: MatF2) -> KeyRandomnessReport:
    """Rank and weight statistics that a random full-rank matrix should show.

    The z-score compares the observed mean column weight against the
    Binomial(K, 1/2) behaviour of independent columns; identity-like or
    sparse matrices show up with extreme values (hundreds). Keys built from
    a rank-l mask have clustered columns, which inflates honest |z| to
    roughly 4 * sqrt(1 + K / 2^l), still far below the degenerate range.
    """
    bits = g.to_bits()
    col_w = bits.sum(axis=0)
    row_w = bits.sum(axis=1)
    k = g.rows
    r = rank(g)
    sigma_mean = math.sqrt(k) / 2 / math.sqrt(max(g.cols, 1))
    z = (float(col_w.mean()) - k / 2) / sigma_mean if sigma_mean else 0.0
    return KeyRandomnessReport(
        rows=g.rows,
        cols=g.cols,
        rank=r,
        full_rank=r == min(g.rows, g.cols),
        col_weight_mean=float(col_w.mean()),
        col_weight_std=float(col_w.std()),
        col_weight_min=int(col_w.min()),
        col_weight_max=int(col_w.max()),
        row_weight_mean=float(row_w.mean()),
        row_weight_std=float(row_w.std()),
        mean_col_weight_z=float(z),
    )
