"""Bit-packed GF(2) vectors, dense matrices and permutations.

Every bit string has one packed form, used in memory, in files and for
integers: bit i in byte i // 8 at bit position i % 8, a matrix row cut to
(cols + 7) // 8 bytes, and the padding bits of the last byte zero, so every
value has exactly one byte form. The constructors own that rule: they adopt
the uint8 array they are given without a copy, make it read-only and refuse
a set padding bit, so all values are immutable and safe to share across
threads.

Elimination and multiplication use Four Russians tables (Arlazarov et al.;
M4RI's elimination, Albrecht, Bard & Hart, ACM TOMS 2010): up to 8 pivot
rows or rows of the right factor are combined into a table of all 2^8 XOR
sums, and one gather-and-XOR indexed by one byte of every other row applies
it, so each table replaces 8 one-row passes over the matrix.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# columns per elimination block (one byte) and rows per multiplication table
_BLOCK = 8
# columns between the drops of finished rows and columns in rank
_DROP_COLS = 256
# nonzero rows tried for a block's pivots before the exact distinct-value search
_PIVOT_PROBE = 64
# rows unpacked at a time when permuting columns, which bounds the dense copy
_PERMUTE_ROWS = 256
# a uniform square matrix is nonsingular with probability > 0.28
_NONSINGULAR_TRIES = 256


def _num_bytes(nbits: int) -> int:
    return (nbits + 7) // 8


def _adopt(data, shape: tuple[int, ...], nbits: int) -> np.ndarray:
    """The packed array ``data`` made read-only, refused unless its bits above nbits are zero."""
    data = np.asarray(data, dtype=np.uint8)
    if data.shape != shape:
        raise ValueError(f"expected packed shape {shape}, got {data.shape}")
    if nbits % 8 and (data[..., -1] >> (nbits % 8)).any():
        raise ValueError("nonzero padding bits")
    data.flags.writeable = False
    return data


def _pack(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits, axis=-1, bitorder="little")


def _unpack(data: np.ndarray, nbits: int) -> np.ndarray:
    return np.unpackbits(data, axis=-1, count=nbits, bitorder="little")


class BitVec:
    """Immutable packed binary vector; its padding bits are zero."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data: np.ndarray | None = None):
        if n < 0:
            raise ValueError("negative length")
        if data is None:
            data = np.zeros(_num_bytes(n), dtype=np.uint8)
        self.n = n
        self.data = _adopt(data, (_num_bytes(n),), n)

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
        """Read a string of the characters 0 and 1; any other raises ValueError."""
        s = s.strip()
        if not set(s) <= {"0", "1"}:
            raise ValueError("a bit string may hold only the characters 0 and 1")
        return cls.from_bits([c == "1" for c in s])

    @classmethod
    def from_indices(cls, n: int, positions: Iterable[int]) -> "BitVec":
        bits = np.zeros(n, dtype=np.uint8)
        for i in positions:
            bits[i] = 1
        return cls.from_bits(bits)

    @classmethod
    def from_bytes(cls, n: int, data) -> "BitVec":
        """Inverse of to_bytes: a copy of exactly (n + 7) // 8 bytes, padding bits zero."""
        return cls(n, np.frombuffer(data, dtype=np.uint8).copy())

    @classmethod
    def from_int(cls, n: int, value: int) -> "BitVec":
        """Bit i of ``value`` becomes element i; bits at or above n must be zero."""
        if value < 0 or value.bit_length() > n:
            raise ValueError("integer does not fit the requested length")
        return cls.from_bytes(n, value.to_bytes(_num_bytes(n), "little"))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitVec":
        return cls.from_bits(rng.integers(0, 2, size=n, dtype=np.uint8))

    @classmethod
    def bernoulli(cls, n: int, p: float, rng: np.random.Generator) -> "BitVec":
        return cls.from_bits((rng.random(n) < p).astype(np.uint8))

    def to_bits(self) -> np.ndarray:
        return _unpack(self.data, self.n)

    def to_bytes(self) -> bytes:
        """Bit i in byte i // 8 at bit i % 8; the padding bits are zero."""
        return self.data.tobytes()

    def to_int(self) -> int:
        return int.from_bytes(self.to_bytes(), "little")

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.to_bits())

    def indices(self) -> np.ndarray:
        return np.nonzero(self.to_bits())[0]

    def weight(self) -> int:
        return self.to_int().bit_count()

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.data ^ other.data)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (int(self.data[i >> 3]) >> (i & 7)) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec) and self.n == other.n and self.to_bytes() == other.to_bytes()
        )

    def __hash__(self):
        return hash((self.n, self.data.tobytes()))

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
            data = np.zeros((rows, _num_bytes(cols)), dtype=np.uint8)
        self.rows = rows
        self.cols = cols
        self.data = _adopt(data, (rows, _num_bytes(cols)), cols)

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
        return cls(*bits.shape, _pack(bits))

    @classmethod
    def from_rows(cls, rows: Sequence[BitVec]) -> "MatF2":
        if not rows:
            raise ValueError("need at least one row")
        n = rows[0].n
        if any(r.n != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, np.stack([r.data for r in rows]))

    @classmethod
    def from_row_bytes(cls, rows: int, cols: int, data) -> "MatF2":
        """Inverse of row_bytes: a copy of rows * ((cols + 7) // 8) bytes, padding bits zero."""
        stride = _num_bytes(cols)
        by = np.frombuffer(data, dtype=np.uint8)
        if by.size != rows * stride:
            raise ValueError(f"expected {rows} rows of {stride} bytes")
        return cls(rows, cols, by.reshape(rows, stride).copy())

    @classmethod
    def from_bitstrings(cls, strings: Iterable[str]) -> "MatF2":
        return cls.from_rows([BitVec.from01(s) for s in strings])

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "MatF2":
        return cls.from_bits(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.data[i])

    def row_bytes(self) -> bytes:
        """The rows' byte forms (see BitVec.to_bytes), concatenated."""
        return self.data.tobytes()

    def to_bits(self) -> np.ndarray:
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
    return BitVec(m.cols, np.bitwise_xor.reduce(m.data[v.indices()], axis=0))


def mat_add(a: MatF2, b: MatF2) -> MatF2:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return MatF2(a.rows, a.cols, a.data ^ b.data)


def _combinations(rows: np.ndarray) -> np.ndarray:
    """Table whose entry j is the XOR of the rows picked by the bits of j."""
    table = np.zeros((1 << rows.shape[0], rows.shape[1]), dtype=np.uint8)
    for i, row in enumerate(rows):
        np.bitwise_xor(table[: 1 << i], row, out=table[1 << i : 2 << i])
    return table


def mat_mul(a: MatF2, b: MatF2) -> MatF2:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape} times {b.shape}")
    out = np.zeros((a.rows, b.data.shape[1]), dtype=np.uint8)
    # byte g of a packed row holds its columns 8g .. 8g + 7
    for g in range(0, b.rows, _BLOCK):
        out ^= np.take(_combinations(b.data[g : g + _BLOCK]), a.data[:, g // _BLOCK], axis=0)
    return MatF2(a.rows, b.cols, out)


def _block_pivots(vals: np.ndarray, width: int) -> tuple[list[int], list[int], list[int]]:
    """Pivot rows of one column block, chosen from the rows' block bits.

    ``vals`` holds each unreduced row's bits in the block as a small int.
    Returns the picked rows (indices into ``vals``), whose values span all
    of ``vals``, and for each pivot column in ascending order its bit in the
    block and the set of picked rows (a bit mask over ``picked``) whose XOR
    is 1 at that pivot column and 0 at the others.
    """
    # lowest set bit -> (reduced value, picked rows it combines)
    basis: dict[int, tuple[int, int]] = {}
    picked: list[int] = []

    def absorb(values: list[int], rows: list[int] | None) -> None:
        for n, value in enumerate(values):
            v, comb = value, 0
            while v and (low := v & -v) in basis:
                bv, bc = basis[low]
                v ^= bv
                comb ^= bc
            if v:
                basis[low] = (v, comb ^ (1 << len(picked)))
                picked.append(rows[n] if rows is not None else int(np.argmax(vals == value)))
                if len(picked) == width:
                    return

    nz = np.flatnonzero(vals)[:_PIVOT_PROBE]
    absorb(vals[nz].tolist(), nz.tolist())
    if len(picked) < width and nz.size == _PIVOT_PROBE:
        # the distinct values, at most 2^width of them, span the rest
        absorb(np.flatnonzero(np.bincount(vals.astype(np.intp))).tolist(), None)
    lows = sorted(basis)
    for a in range(len(lows) - 1, -1, -1):
        v, c = basis[lows[a]]
        for high in lows[a + 1 :]:
            if v & high:
                hv, hc = basis[high]
                v ^= hv
                c ^= hc
        basis[lows[a]] = (v, c)
    return picked, [low.bit_length() - 1 for low in lows], [basis[low][1] for low in lows]


def _eliminate(work: np.ndarray, ncols: int, reduce_above: bool) -> int:
    """Table-driven Gaussian elimination on packed rows over the first ncols columns.

    Columns go in blocks of up to 8, one byte column each. The block's pivot
    rows are moved to the top of the unreduced rows and reduced on the pivot
    bits; a table holds, for every value of the block's byte, the XOR of the
    pivot rows that clears it, and one gather-and-XOR clears the block from
    every other row. With ``reduce_above`` the pivot rows end in column order
    and every row is reduced, in place; otherwise only rows below are, and
    every _DROP_COLS columns the finished rows, zero rows and bytes left of
    the block are dropped, so only the returned rank is meaningful.
    """
    done = 0  # pivot rows dropped from work
    top = 0  # rows of work above top are pivot rows
    dropped = 0  # bytes dropped from the left of work
    for c0 in range(0, ncols, _BLOCK):
        b = c0 // _BLOCK
        if not reduce_above and c0 % _DROP_COLS == 0 and c0:
            rest = work[top:, b - dropped :]
            work = rest[rest.any(axis=1)]
            done, top, dropped = done + top, 0, b
        if top == work.shape[0]:
            break
        b -= dropped
        width = min(_BLOCK, ncols - c0)
        # bits of the block above ncols are padding, so zero
        vals = work[:, b].copy()
        picked, bits, combs = _block_pivots(vals[top:], width)
        r = len(picked)
        if not r:
            continue
        rows = [top + i for i in picked]
        # the pivot rows, picked below top, are zero left of the block, so the
        # slices can start on the 8-byte boundary below it, which measured faster
        b -= b % 8
        piv = _combinations(work[rows, b:])[combs]
        # swap the rows that sat at top .. top + r - 1 into the picked places
        head = range(top, top + r)
        free = [i for i in rows if i not in head]
        if free:
            displaced = [i for i in head if i not in rows]
            work[free] = work[displaced]
            vals[free] = vals[displaced]
        work[top : top + r, b:] = piv
        vals[top : top + r] = 0
        # indexed by the block value; non-pivot bits pick the zero row
        by_bit = np.zeros((width, piv.shape[1]), dtype=np.uint8)
        by_bit[bits] = piv
        table = _combinations(by_bit)
        start = 0 if reduce_above else top + r
        work[start:, b:] ^= np.take(table, vals[start:], axis=0)
        top += r
    return done + top


def rank(m: MatF2) -> int:
    work = m.data.copy()
    return _eliminate(work, m.cols, reduce_above=False)


def rank_invert(m: MatF2) -> tuple[int, MatF2 | None]:
    """Rank of a square matrix and its inverse when it is nonsingular."""
    if m.rows != m.cols:
        raise ValueError("matrix is not square")
    k = m.rows
    nb = m.data.shape[1]
    # [A | I] with I starting on a byte boundary, reduced to [I | A^-1]
    work = np.zeros((k, 2 * nb), dtype=np.uint8)
    work[:, :nb] = m.data
    i = np.arange(k)
    work[i, nb + (i >> 3)] = 1 << (i & 7)
    r = _eliminate(work, k, reduce_above=True)
    if r < k:
        return r, None
    return k, MatF2(k, k, work[:, nb:].copy())


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
    out = np.empty_like(m.data)
    for i in range(0, m.rows, _PERMUTE_ROWS):
        rows = _unpack(m.data[i : i + _PERMUTE_ROWS], m.cols)
        out[i : i + _PERMUTE_ROWS] = _pack(np.take(rows, pi.sources, axis=1))
    return MatF2(m.rows, m.cols, out)
