"""Slow reference implementations that tests compare the package against."""

import heapq
from dataclasses import dataclass

import numpy as np

from mcc.bitlinalg import (
    BitVec,
    MatF2,
    Permutation,
    mat_mul,
    mat_permute_cols,
    mat_vec_mul,
    permute,
    rank,
)
from mcc.convcode import PolyGenMatrix, expand_scalar
from mcc.cryptopipe import (
    DecryptionFailure,
    candidate_gate,
    enumerate_candidates,
    invert_highmem,
)
from mcc.gf2poly import crc_verify, poly_divmod
from mcc.keyring import MaskBasis, PrivateKey, PublicKey
from mcc.trellis import (
    _INF,
    _POP8,
    DecodeResult,
    Trellis,
    _window_symbols,
    build_trellis,
    viterbi_decode,
)
from polys import exponents

MAX_SEARCH_MEMORY = 12
_FREE_DISTANCE_BUDGET = 40


@dataclass(frozen=True)
class CandidateOutcome:
    """Result of one unmasking hypothesis."""

    mask_index: int
    decode: DecodeResult


def span_size(basis: MaskBasis) -> int:
    return 1 << basis.l


def span_element(basis: MaskBasis, selector: int, n: int | None = None) -> BitVec:
    """XOR of the basis vectors picked by the selector bits."""
    if n is None:
        if not basis.vectors:
            raise ValueError("empty basis needs an explicit length")
        n = basis.vectors[0].n
    out = BitVec.zeros(n)
    for i, v in enumerate(basis.vectors):
        if (selector >> i) & 1:
            out = out ^ v
    return out


def span_contains(basis: MaskBasis, v: BitVec) -> bool:
    if not basis.vectors:
        return v.weight() == 0
    base = MatF2.from_rows(basis.vectors)
    aug = MatF2.from_rows(list(basis.vectors) + [v])
    return rank(aug) == rank(base)


def span_element_for_index(basis: MaskBasis, index: int, n: int) -> BitVec:
    """Span element subtracted at enumeration position `index` (Gray order)."""
    return span_element(basis, index ^ (index >> 1), n)


def _reference_eliminate(work: np.ndarray, ncols: int, reduce_above: bool) -> int:
    """In-place Gaussian elimination on a dense 0/1 matrix, one column at a time.

    Pivot choice is the lowest row index with a 1 in the pivot column.
    Returns the rank.
    """
    nrows = work.shape[0]
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(work[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        sel = work[:, col].astype(bool)
        sel[r] = False
        if not reduce_above:
            sel[:r] = False
        work[sel] ^= work[r]
        r += 1
    return r


def reference_rank(m: MatF2) -> int:
    return _reference_eliminate(m.to_bits(), m.cols, reduce_above=False)


def reference_rank_invert(m: MatF2) -> tuple[int, MatF2 | None]:
    """Gauss-Jordan on the dense [A | I], column by column."""
    k = m.rows
    work = np.hstack([m.to_bits(), np.eye(k, dtype=np.uint8)])
    r = _reference_eliminate(work, k, reduce_above=True)
    if r < k:
        return r, None
    return k, MatF2.from_bits(work[:, k:])


def reference_mat_mul(a: MatF2, b: MatF2) -> MatF2:
    """Integer product of the dense bit matrices, reduced mod 2."""
    return MatF2.from_bits((a.to_bits().astype(np.int64) @ b.to_bits()) & 1)


def reference_permute_cols(m: MatF2, pi: Permutation) -> MatF2:
    """Gather the columns of the dense bit matrix."""
    return MatF2.from_bits(m.to_bits()[:, pi.sources])


def recover_masked_sum(pub: PublicKey, priv: PrivateKey) -> MatF2:
    """S^-1 * G * R^-1, which equals expand(g_p * g_q) + mask for a matching pair."""
    unpermuted = mat_permute_cols(pub.g, Permutation(np.argsort(priv.perm.sources)))
    return mat_mul(priv.s_inv, unpermuted)


def dense_expand_scalar(polys: PolyGenMatrix, K: int, memory: int) -> MatF2:
    """expand_scalar built as a dense K x N array, one byte per bit."""
    n = polys.n
    ncols = n * (K + memory)
    row0 = np.zeros(ncols, dtype=np.uint8)
    for j, pj in enumerate(polys.polys):
        for i in exponents(pj):
            row0[n * i + j] = 1
    bits = np.zeros((K, ncols), dtype=np.uint8)
    width = n * (memory + 1)
    for t in range(K):
        hi = min(n * t + width, ncols)
        bits[t, n * t : hi] = row0[: hi - n * t]
    return MatF2.from_bits(bits)


def encode_matrix(m: BitVec, polys: PolyGenMatrix, memory: int) -> BitVec:
    """Encode through the expanded scalar matrix; equals encode_streams."""
    return mat_vec_mul(m, expand_scalar(polys, m.n, memory))


def batch_quotient_weights(bits: np.ndarray, divisor: int, quot_len: int) -> np.ndarray:
    """Weight of each row's polynomial quotient by `divisor`, truncated.

    Synthetic division run column-wise over a (trials, stream_len) bit
    matrix; row r gets the weight of (row_r(x) div divisor) restricted to
    the quot_len lowest coefficients.
    """
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    bits = np.array(bits, dtype=np.uint8)
    trials, stream_len = bits.shape
    d = divisor.bit_length() - 1
    lower = [o for o in exponents(divisor) if o < d]
    width = stream_len - d
    if width <= 0:
        return np.zeros(trials, dtype=np.int64)
    quot = np.zeros((trials, width), dtype=np.uint8)
    for i in range(stream_len - 1, d - 1, -1):
        qbit = bits[:, i]
        quot[:, i - d] = qbit
        for o in lower:
            bits[:, i - d + o] ^= qbit
    return quot[:, : min(quot_len, width)].sum(axis=1).astype(np.int64)


def monte_carlo_alpha(
    g_q: PolyGenMatrix, e: float, stream_len: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Sampled quotient-weight increase, shape (trials, streams).

    Each trial draws an independent Bernoulli(e) stream per polynomial,
    divides it, truncates the quotient to stream_len - deg(g_q) coefficients
    (the truncation decryption applies) and records the weight change. The
    column means estimate analysis.estimate_alpha.
    """
    quot_len = stream_len - g_q.memory
    out = np.zeros((trials, g_q.n), dtype=np.int64)
    for j, q_j in enumerate(g_q.polys):
        bits = (rng.random((trials, stream_len)) < e).astype(np.uint8)
        out[:, j] = batch_quotient_weights(bits, q_j, quot_len) - bits.sum(axis=1)
    return out


def unit_vector_alpha(g_q: PolyGenMatrix, e: float, stream_len: int) -> tuple[float, ...]:
    """Closed-form alpha with each w_i counted by dividing every unit vector x^k."""
    quot_len = stream_len - g_q.memory
    per_stream = []
    for q_j in g_q.polys:
        w = [0] * quot_len
        for k in range(stream_len):
            quot, _ = poly_divmod(1 << k, q_j)
            for i in range(quot_len):
                w[i] += (quot >> i) & 1
        per_stream.append(sum((1 - (1 - 2 * e) ** wi) / 2 for wi in w) - e * stream_len)
    return tuple(per_stream)


def reference_crc_append(m: BitVec, r_poly: int) -> BitVec:
    """m followed by x^r * m(x) mod r_poly, by one long division."""
    r = r_poly.bit_length() - 1
    word = m.to_int()
    _, rem = poly_divmod(word << r, r_poly)
    return BitVec.from_int(m.n + r, word | rem << m.n)


def reference_forward_pass(trellis: Trellis, rsyms: np.ndarray):
    """Plain ACS with per-segment XOR + popcount branch metrics.

    Returns the final path metrics, the survivor bits (segments x states)
    and the metrics after every segment, starting with the initial ones.
    """
    ns = trellis.num_states
    half = ns >> 1
    out = _window_symbols(trellis.polys)
    out_lo, out_hi = out[:ns], out[ns:]
    pm = np.full(ns, _INF, dtype=np.int32)
    pm[0] = 0
    survivors = np.zeros((trellis.segments, ns), dtype=bool)
    history = [pm.copy()]
    for t in range(trellis.segments):
        b0 = np.bitwise_count(out_lo ^ rsyms[t]).astype(np.int32)
        b1 = np.bitwise_count(out_hi ^ rsyms[t]).astype(np.int32)
        cand0 = np.repeat(pm[:half], 2) + b0
        cand1 = np.repeat(pm[half:], 2) + b1
        choose = cand1 < cand0
        pm = np.where(choose, cand1, cand0)
        survivors[t] = choose
        if t >= trellis.K:
            pm[1::2] = _INF
        history.append(pm.copy())
    return pm, survivors, history


def reference_cost_to_go(trellis: Trellis, rsyms: np.ndarray) -> np.ndarray:
    """Least weight of any zero-tail completion, by segment and state.

    Entry [t, s] is the smallest distance between received segments t ..
    segments - 1 and the outputs of any input sequence that starts in state
    s before segment t and ends in state 0; unreachable entries stay _INF.
    So entry [t + 1, s] is the best completion from state s after segment t,
    and entry [0, 0] is the optimal decode weight. Computed backwards, one
    segment and one input bit at a time.
    """
    ns = trellis.num_states
    out = _window_symbols(trellis.polys)
    states = np.arange(ns)
    cost = np.full((trellis.segments + 1, ns), _INF, dtype=np.int64)
    cost[trellis.segments, 0] = 0
    for t in range(trellis.segments - 1, -1, -1):
        inputs = (0,) if t >= trellis.K else (0, 1)
        for b in inputs:
            window = (states << 1) | b
            branch = np.bitwise_count(out[window] ^ rsyms[t]).astype(np.int64)
            step = np.minimum(branch + cost[t + 1, window & (ns - 1)], _INF)
            cost[t] = np.minimum(cost[t], step)
    return cost


def reference_outcomes(priv: PrivateKey, ct: BitVec) -> list[CandidateOutcome]:
    """Every unmasking hypothesis divided and decoded in full, by mask index."""
    params = priv.params
    c_tilde = permute(ct, priv.perm, inverse=True)
    trellis = build_trellis(priv.g_p, params.K)
    outcomes = []
    for i, cand in enumerate(enumerate_candidates(c_tilde, priv.mask_basis.vectors)):
        quotient, _ = invert_highmem(cand, priv.g_q, params)
        outcomes.append(CandidateOutcome(i, viterbi_decode(trellis, quotient)))
    return outcomes


def reference_decrypt(priv: PrivateKey, ct: BitVec) -> BitVec:
    """One candidate at a time: unmask, divide, decode, then rank and accept.

    Every candidate is divided and decoded in full before ranking by (error
    weight, mask index); the first to pass the CRC and the gate wins. On
    failure the weights are reported by mask index, all exact. This is the
    result any faster decrypt must reproduce, failures included.
    """
    params = priv.params
    outcomes = reference_outcomes(priv, ct)
    weights = [o.decode.error_weight for o in outcomes]
    outcomes.sort(key=lambda o: (o.decode.error_weight, o.mask_index))
    threshold = candidate_gate(params, priv.g_q)
    for outcome in outcomes:
        m_r = mat_vec_mul(outcome.decode.info, priv.s_inv)
        if not crc_verify(m_r, params.r_poly):
            continue
        if outcome.decode.error_weight > threshold:
            continue
        return BitVec.from_bits(m_r.to_bits()[: params.plaintext_len])
    raise DecryptionFailure(weights, [False] * len(weights))


def free_distance(polys: PolyGenMatrix) -> int:
    """Minimum weight over detours that leave and rejoin the zero state.

    Dijkstra over the state graph with the segment output weight as the edge
    cost; nonnegative costs make the first completed return optimal.
    """
    p = polys.memory
    if p > MAX_SEARCH_MEMORY:
        raise ValueError(f"memory {p} exceeds the {MAX_SEARCH_MEMORY}-bit search cap")
    out = _window_symbols(polys)
    wt = _POP8[out]
    if p == 0:
        return int(wt[1])
    mask = (1 << p) - 1
    start = 1  # state after the diverging 1-input from state 0
    dist = {start: int(wt[1])}
    heap = [(int(wt[1]), start)]
    done = set()
    best = None
    while heap:
        d, s = heapq.heappop(heap)
        if s in done:
            continue
        done.add(s)
        if best is not None and d >= best:
            break
        for b in (0, 1):
            w = (s << 1) | b
            nxt = w & mask
            nd = d + int(wt[w])
            if nxt == 0:
                if best is None or nd < best:
                    best = nd
                continue
            if nd < dist.get(nxt, 1 << 30):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    if best is None or best > _FREE_DISTANCE_BUDGET:
        raise RuntimeError("free distance search exceeded its weight budget")
    return best
