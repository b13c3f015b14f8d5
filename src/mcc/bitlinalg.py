"""Bit-packed GF(2) vectors, dense matrices and permutations.

Bit i of a vector lives in word i // 64 at bit position i % 64 (little
endian within machine words). Matrices are row-major, every row padded with
zero bits up to a word boundary, so XOR and popcount kernels operate on
whole uint64 words. All values are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

_WORD = 64
_ONE = np.uint64(1)
# a uniform square matrix is nonsingular with probability > 0.28
_NONSINGULAR_TRIES = 256


def _num_words(nbits: int) -> int:
    return (nbits + _WORD - 1) // _WORD


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array along its last axis into little-endian uint64 words."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    nbits = bits.shape[-1]
    by = np.packbits(bits, axis=-1, bitorder="little")
    pad = _num_words(nbits) * 8 - by.shape[-1]
    if pad:
        by = np.concatenate([by, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    return np.ascontiguousarray(by).view(np.uint64)


def _unpack(words: np.ndarray, nbits: int) -> np.ndarray:
    by = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(by, axis=-1, bitorder="little")[..., :nbits]


def _mask_tail(words: np.ndarray, nbits: int) -> None:
    rem = nbits % _WORD
    if rem and words.shape[-1]:
        words[..., -1] &= np.uint64((1 << rem) - 1)


class BitVec:
    """Immutable packed binary vector; storage beyond ``n`` is zero."""

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: np.ndarray | None = None):
        if n < 0:
            raise ValueError("negative length")
        if words is None:
            words = np.zeros(_num_words(n), dtype=np.uint64)
        else:
            words = np.array(words, dtype=np.uint64)
            if words.shape != (_num_words(n),):
                raise ValueError("word count does not match length")
            _mask_tail(words, n)
        words.flags.writeable = False
        self.n = n
        self.words = words

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n)

    @classmethod
    def from_bits(cls, bits) -> "BitVec":
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("expected a 1-d bit array")
        return cls(len(bits), _pack(bits))

    @classmethod
    def from01(cls, s: str) -> "BitVec":
        return cls.from_bits([int(c) for c in s.strip()])

    @classmethod
    def from_indices(cls, n: int, positions: Iterable[int]) -> "BitVec":
        bits = np.zeros(n, dtype=np.uint8)
        for i in positions:
            bits[i] = 1
        return cls.from_bits(bits)

    @classmethod
    def from_int(cls, n: int, value: int) -> "BitVec":
        """Bit i of ``value`` becomes element i; bits at or above n must be zero."""
        if value < 0 or value.bit_length() > n:
            raise ValueError("integer does not fit the requested length")
        raw = value.to_bytes(_num_words(n) * 8, "little")
        return cls(n, np.frombuffer(raw, dtype=np.uint64))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitVec":
        return cls.from_bits(rng.integers(0, 2, size=n, dtype=np.uint8))

    @classmethod
    def bernoulli(cls, n: int, p: float, rng: np.random.Generator) -> "BitVec":
        return cls.from_bits((rng.random(n) < p).astype(np.uint8))

    def to_bits(self) -> np.ndarray:
        return _unpack(self.words, self.n)

    def to_int(self) -> int:
        return int.from_bytes(self.words.tobytes(), "little")

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.to_bits())

    def indices(self) -> np.ndarray:
        return np.nonzero(self.to_bits())[0]

    def weight(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.words ^ other.words)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return int((self.words[i >> 6] >> np.uint64(i & 63)) & _ONE)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec)
            and self.n == other.n
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self):
        return hash((self.n, self.words.tobytes()))

    def __repr__(self) -> str:
        s = self.to01()
        if len(s) > 64:
            s = s[:61] + "..."
        return f"BitVec({self.n}, {s})"


class MatF2:
    """Immutable dense binary matrix; each row is a packed BitVec."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        if data is None:
            data = np.zeros((rows, _num_words(cols)), dtype=np.uint64)
        else:
            data = np.array(data, dtype=np.uint64)
            if data.shape != (rows, _num_words(cols)):
                raise ValueError("data shape does not match dimensions")
            _mask_tail(data, cols)
        data.flags.writeable = False
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatF2":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "MatF2":
        return cls.from_bits(np.eye(n, dtype=np.uint8))

    @classmethod
    def from_bits(cls, bits) -> "MatF2":
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise ValueError("expected a 2-d bit array")
        r, c = bits.shape
        if r == 0:
            return cls(0, c)
        return cls(r, c, _pack(bits))

    @classmethod
    def from_rows(cls, rows: Sequence[BitVec]) -> "MatF2":
        if not rows:
            raise ValueError("need at least one row")
        n = rows[0].n
        if any(r.n != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, np.stack([r.words for r in rows]))

    @classmethod
    def from_bitstrings(cls, strings: Iterable[str]) -> "MatF2":
        return cls.from_bits([[int(c) for c in s] for s in strings])

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "MatF2":
        return cls.from_bits(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.data[i])

    def to_bits(self) -> np.ndarray:
        if self.rows == 0:
            return np.zeros((0, self.cols), dtype=np.uint8)
        return _unpack(self.data, self.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatF2)
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"MatF2({self.rows}x{self.cols})"


class Permutation:
    """Bijection on positions 0..N-1, stored as a source-index map.

    ``sources[j]`` is the input position that lands at output position j in
    forward mode, which matches right-multiplication of a row vector by the
    corresponding permutation matrix. Inverse mode is right-multiplication
    by its transpose.
    """

    __slots__ = ("sources",)

    def __init__(self, sources):
        arr = np.array(sources, dtype=np.int64)
        n = len(arr)
        if n == 0 or not np.array_equal(np.sort(arr), np.arange(n)):
            raise ValueError("not a bijection on 0..N-1")
        arr.flags.writeable = False
        self.sources = arr

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    def __len__(self) -> int:
        return len(self.sources)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and bool(
            np.array_equal(self.sources, other.sources)
        )

    def __hash__(self):
        return hash(self.sources.tobytes())

    def __repr__(self) -> str:
        return f"Permutation(len={len(self.sources)})"


def mat_vec_mul(v: BitVec, m: MatF2) -> BitVec:
    """Row vector times matrix: bit j of the result is <v, column j>."""
    if v.n != m.rows:
        raise ValueError(f"dimension mismatch: vector {v.n} vs {m.rows} rows")
    idx = v.indices()
    if idx.size == 0:
        return BitVec.zeros(m.cols)
    return BitVec(m.cols, np.bitwise_xor.reduce(m.data[idx], axis=0))


def mat_add(a: MatF2, b: MatF2) -> MatF2:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return MatF2(a.rows, a.cols, a.data ^ b.data)


def mat_mul(a: MatF2, b: MatF2) -> MatF2:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape} times {b.shape}")
    abits = a.to_bits()
    out = np.zeros((a.rows, b.data.shape[1]), dtype=np.uint64)
    for i in range(a.rows):
        idx = np.nonzero(abits[i])[0]
        if idx.size:
            out[i] = np.bitwise_xor.reduce(b.data[idx], axis=0)
    return MatF2(a.rows, b.cols, out)


def _eliminate(work: np.ndarray, ncols: int, reduce_above: bool) -> int:
    """In-place Gaussian elimination on packed rows over the first ncols columns.

    Pivot choice is the lowest row index with a 1 in the pivot column, which
    keeps the reduction deterministic. Returns the rank.
    """
    nrows = work.shape[0]
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        w = col >> 6
        sh = np.uint64(col & 63)
        below = (work[rank:, w] >> sh) & _ONE
        nz = np.nonzero(below)[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
        if reduce_above:
            sel = ((work[:, w] >> sh) & _ONE).astype(bool)
            sel[rank] = False
        else:
            sel = np.zeros(nrows, dtype=bool)
            sel[rank + 1 :] = ((work[rank + 1 :, w] >> sh) & _ONE).astype(bool)
        if sel.any():
            work[sel] ^= work[rank]
        rank += 1
    return rank


def rank(m: MatF2) -> int:
    work = m.data.copy()
    return _eliminate(work, m.cols, reduce_above=False)


def rank_invert(m: MatF2) -> tuple[int, MatF2 | None]:
    """Rank of a square matrix and its inverse when it is nonsingular."""
    if m.rows != m.cols:
        raise ValueError("matrix is not square")
    k = m.rows
    aug = np.hstack([m.to_bits(), np.eye(k, dtype=np.uint8)])
    work = _pack(aug)
    r = _eliminate(work, k, reduce_above=True)
    if r < k:
        return r, None
    inv_bits = _unpack(work, 2 * k)[:, k:]
    return k, MatF2.from_bits(inv_bits)


def random_nonsingular(k: int, rng: np.random.Generator) -> MatF2:
    """Uniform nonsingular matrix by rejection sampling on the rank."""
    if k < 1:
        raise ValueError("dimension must be positive")
    for _ in range(_NONSINGULAR_TRIES):
        m = MatF2.random(k, k, rng)
        if rank(m) == k:
            return m
    raise RuntimeError("failed to draw a nonsingular matrix")


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    if n < 1:
        raise ValueError("length must be positive")
    return Permutation(rng.permutation(n))


def permute(v: BitVec, pi: Permutation, inverse: bool = False) -> BitVec:
    """Apply the permutation matrix (forward) or its transpose (inverse)."""
    if v.n != len(pi):
        raise ValueError("length mismatch")
    bits = v.to_bits()
    if inverse:
        out = np.empty_like(bits)
        out[pi.sources] = bits
    else:
        out = bits[pi.sources]
    return BitVec.from_bits(out)


def mat_permute_cols(m: MatF2, pi: Permutation) -> MatF2:
    """Permute matrix columns the same way permute() moves vector entries."""
    if m.cols != len(pi):
        raise ValueError("length mismatch")
    return MatF2.from_bits(m.to_bits()[:, pi.sources])
