"""Key generation and binary key serialization.

The public matrix is built as scramble * (high-memory generator + mask) *
permutation. The mask rows are drawn from the span of a small independent
basis, so unmasking during decryption only has to test 2^l hypotheses.
A private key holds only what decryption reads: the polynomials, S^-1, the
permutation and the mask basis. S and the mask matrix exist only in keygen.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitlinalg import (
    BitVec,
    MatF2,
    Permutation,
    mat_add,
    mat_mul,
    mat_permute_cols,
    rank,
    rank_invert,
    random_nonsingular,
    random_permutation,
)
from .convcode import MAX_MASK_RANK, CodeParams, PolyGenMatrix, expand_scalar
from .gf2poly import BinPoly

_MAGIC = b"MCC1"
_VERSION = 2
_KIND_PUBLIC = 1
_KIND_PRIVATE = 2
_MASK_RETRY_CAP = 64


class KeyFormatError(ValueError):
    """Raised when a serialized key or ciphertext cannot be parsed."""


@dataclass(frozen=True)
class MaskBasis:
    """l independent random vectors whose span masks the generator rows."""

    vectors: tuple[BitVec, ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))
        if self.vectors:
            n = self.vectors[0].n
            if any(v.n != n for v in self.vectors):
                raise ValueError("ragged basis vectors")
            if rank(MatF2.from_rows(self.vectors)) != len(self.vectors):
                raise ValueError("basis vectors are linearly dependent")

    @property
    def l(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class PublicKey:
    params: CodeParams
    g: MatF2

    def __post_init__(self):
        if self.g.shape != (self.params.K, self.params.N):
            raise ValueError("matrix does not match the parameters")


@dataclass(frozen=True)
class PrivateKey:
    """What decryption reads: the mask itself is resolved from its basis."""

    params: CodeParams
    g_p: PolyGenMatrix
    g_q: PolyGenMatrix
    s_inv: MatF2
    perm: Permutation
    mask_basis: MaskBasis


@dataclass(frozen=True)
class KeyMaterial:
    """Injected draws replacing the random ones, for fixtures and tests."""

    s: MatF2
    perm: Permutation
    mask_basis: MaskBasis
    mask_matrix: MatF2

    def check(self, params: CodeParams) -> None:
        """Raise ValueError unless the draws fit the parameters and a key file.

        A private key file holds at most l basis vectors, each of length N.
        """
        if (
            self.s.shape != (params.K, params.K)
            or self.mask_matrix.shape != (params.K, params.N)
            or len(self.perm) != params.N
            or self.mask_basis.l > params.l
            or any(v.n != params.N for v in self.mask_basis.vectors)
        ):
            raise ValueError("injected material does not match the parameters")


def gen_mask_basis(N: int, l: int, rng: np.random.Generator) -> MaskBasis:
    """Draw l independent uniform vectors, resampling on dependence."""
    if not 0 <= l <= MAX_MASK_RANK:
        raise ValueError(f"l must be in 0..{MAX_MASK_RANK}")
    for _ in range(_MASK_RETRY_CAP):
        vecs = tuple(BitVec.random(N, rng) for _ in range(l))
        try:
            # MaskBasis ranks the draw and raises on dependence
            return MaskBasis(vecs)
        except ValueError:
            pass
    raise RuntimeError("failed to draw an independent mask basis")


def gen_mask_matrix(
    basis: MaskBasis, K: int, g_pq: MatF2, rng: np.random.Generator
) -> MatF2:
    """Rows drawn uniformly from the span, redrawn until the masked sum has rank K."""
    if basis.l == 0:
        zero = MatF2.zeros(K, g_pq.cols)
        if rank(g_pq) != K:
            raise RuntimeError("generator matrix is rank deficient")
        return zero
    if basis.vectors[0].n != g_pq.cols:
        raise ValueError("basis length does not match the matrix width")
    basis_mat = MatF2.from_rows(basis.vectors)
    for _ in range(_MASK_RETRY_CAP):
        sel = MatF2.random(K, basis.l, rng)
        mask = mat_mul(sel, basis_mat)
        if rank(mat_add(g_pq, mask)) == K:
            return mask
    raise RuntimeError("failed to find a full-rank masked sum")


def keygen(
    params: CodeParams,
    g_p: PolyGenMatrix,
    g_q: PolyGenMatrix,
    rng: np.random.Generator,
    material: KeyMaterial | None = None,
) -> tuple[PublicKey, PrivateKey]:
    """Generate a key pair; `material` pins the random draws for fixtures."""
    if g_p.n != params.n or g_q.n != params.n:
        raise ValueError("stream counts disagree with the parameters")
    if g_p.memory != params.p:
        raise ValueError("G_P memory does not equal p")
    if g_q.memory != params.q:
        raise ValueError("G_Q memory does not equal q")
    g_pq = PolyGenMatrix(tuple(a * b for a, b in zip(g_p.polys, g_q.polys)))
    gpq_mat = expand_scalar(g_pq, params.K, params.p + params.q)
    if material is None:
        s = random_nonsingular(params.K, rng)
        perm = random_permutation(params.N, rng)
        basis = gen_mask_basis(params.N, params.l, rng)
        mask = gen_mask_matrix(basis, params.K, gpq_mat, rng)
    else:
        material.check(params)
        s, perm, basis, mask = (
            material.s,
            material.perm,
            material.mask_basis,
            material.mask_matrix,
        )
        # gen_mask_matrix already checks this rank on the random path
        if rank(mat_add(gpq_mat, mask)) != params.K:
            raise ValueError("masked generator matrix is rank deficient")
    _, s_inv = rank_invert(s)
    if s_inv is None:
        raise ValueError("scramble matrix is singular")
    g = mat_permute_cols(mat_mul(s, mat_add(gpq_mat, mask)), perm)
    pub = PublicKey(params=params, g=g)
    priv = PrivateKey(
        params=params, g_p=g_p, g_q=g_q, s_inv=s_inv, perm=perm, mask_basis=basis
    )
    return pub, priv


# --- binary serialization -------------------------------------------------

def _pack_bits_bytes(bits: np.ndarray) -> bytes:
    return np.packbits(bits, bitorder="little").tobytes()


def _encode_bitvec(v: BitVec) -> bytes:
    bits = v.to_bits()
    return struct.pack("<I", v.n) + _pack_bits_bytes(bits)


def _encode_poly(p: BinPoly) -> bytes:
    nbits = p.value.bit_length()
    return struct.pack("<I", nbits) + p.value.to_bytes((nbits + 7) // 8, "little")


def _encode_matrix(m: MatF2) -> bytes:
    # rows packed individually so each row starts on a byte boundary
    chunks = [struct.pack("<II", m.rows, m.cols)]
    bits = m.to_bits()
    for i in range(m.rows):
        chunks.append(_pack_bits_bytes(bits[i]))
    return b"".join(chunks)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise KeyFormatError("truncated file")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def bitvec(self, n: int) -> BitVec:
        """Read a vector whose stored length must be n."""
        if self.u32() != n:
            raise KeyFormatError(f"vector length differs from the expected {n}")
        raw = np.frombuffer(self.take((n + 7) // 8), dtype=np.uint8)
        return BitVec.from_bits(np.unpackbits(raw, bitorder="little")[:n])

    def poly(self) -> BinPoly:
        nbits = self.u32()
        raw = self.take((nbits + 7) // 8)
        value = int.from_bytes(raw, "little")
        if value.bit_length() != nbits and nbits != 0:
            raise KeyFormatError("polynomial has a zero leading coefficient")
        return BinPoly(value)

    def matrix(self, rows: int, cols: int) -> MatF2:
        """Read a matrix whose stored shape must be rows x cols.

        The shape fields are untrusted, so they are checked against the
        expected shape, and the payload against the remaining bytes, before
        anything is allocated.
        """
        if (self.u32(), self.u32()) != (rows, cols):
            raise KeyFormatError(f"matrix shape differs from the expected {rows}x{cols}")
        stride = (cols + 7) // 8
        raw = np.frombuffer(self.take(rows * stride), dtype=np.uint8).reshape(rows, stride)
        return MatF2.from_bits(np.unpackbits(raw, axis=1, bitorder="little")[:, :cols])

    def done(self) -> None:
        if self.off != len(self.data):
            raise KeyFormatError("trailing bytes after the key payload")


def _encode_params(params: CodeParams) -> bytes:
    head = struct.pack(
        "<IIIIII",
        params.n,
        params.p,
        params.q,
        params.K,
        params.N,
        params.l,
    )
    e = Fraction(params.e)
    head += struct.pack("<QQ", e.numerator, e.denominator)
    head += _encode_poly(params.r_poly)
    return head


def _decode_params(r: _Reader) -> CodeParams:
    n, p, q, K, N, l = (r.u32() for _ in range(6))
    num, den = r.u64(), r.u64()
    if den == 0:
        raise KeyFormatError("zero denominator in the error rate")
    r_poly = r.poly()
    try:
        params = CodeParams(n=n, p=p, q=q, K=K, l=l, e=Fraction(num, den), r_poly=r_poly)
    except ValueError as exc:
        raise KeyFormatError(f"invalid parameters: {exc}") from exc
    if params.N != N:
        raise KeyFormatError("stored N disagrees with n * (K + p + q)")
    return params


def serialize_key(key: PublicKey | PrivateKey) -> bytes:
    if isinstance(key, PublicKey):
        body = _encode_params(key.params) + _encode_matrix(key.g)
        kind = _KIND_PUBLIC
    elif isinstance(key, PrivateKey):
        parts = [_encode_params(key.params)]
        for poly in key.g_p.polys:
            parts.append(_encode_poly(poly))
        for poly in key.g_q.polys:
            parts.append(_encode_poly(poly))
        parts.append(_encode_matrix(key.s_inv))
        parts.append(struct.pack(f"<{len(key.perm)}I", *key.perm.sources.tolist()))
        parts.append(struct.pack("<I", key.mask_basis.l))
        for v in key.mask_basis.vectors:
            parts.append(_encode_bitvec(v))
        body = b"".join(parts)
        kind = _KIND_PRIVATE
    else:
        raise TypeError("not a key")
    return _MAGIC + bytes([_VERSION, kind]) + body


def _read_private(r: _Reader, params: CodeParams) -> PrivateKey:
    g_p = PolyGenMatrix(tuple(r.poly() for _ in range(params.n)))
    g_q = PolyGenMatrix(tuple(r.poly() for _ in range(params.n)))
    if g_p.memory != params.p or g_q.memory != params.q:
        raise KeyFormatError("polynomial degrees disagree with the parameters")
    s_inv = r.matrix(params.K, params.K)
    perm = Permutation(np.array(struct.unpack(f"<{params.N}I", r.take(4 * params.N))))
    l = r.u32()
    # decryption tests 2^l hypotheses, so l must stay within the parameters' bound
    if l > params.l:
        raise KeyFormatError("mask basis is larger than the parameters allow")
    basis = MaskBasis(tuple(r.bitvec(params.N) for _ in range(l)))
    return PrivateKey(
        params=params, g_p=g_p, g_q=g_q, s_inv=s_inv, perm=perm, mask_basis=basis
    )


def deserialize_key(data: bytes) -> PublicKey | PrivateKey:
    r = _Reader(data)
    if r.take(4) != _MAGIC:
        raise KeyFormatError("bad magic")
    version = r.u8()
    if version != _VERSION:
        raise KeyFormatError(f"unsupported version {version}")
    kind = r.u8()
    if kind not in (_KIND_PUBLIC, _KIND_PRIVATE):
        raise KeyFormatError(f"unknown key kind {kind}")
    params = _decode_params(r)
    try:
        if kind == _KIND_PUBLIC:
            key = PublicKey(params=params, g=r.matrix(params.K, params.N))
        else:
            key = _read_private(r, params)
        r.done()
    except ValueError as exc:
        raise KeyFormatError(str(exc)) from exc
    # S^-1 is used as stored; a rank check replaces the inversion of S
    if isinstance(key, PrivateKey) and rank(key.s_inv) != params.K:
        raise KeyFormatError("inverse scramble matrix is singular")
    return key


def save_key(key: PublicKey | PrivateKey, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_key(key))


def load_key(path) -> PublicKey | PrivateKey:
    with open(path, "rb") as fh:
        return deserialize_key(fh.read())
