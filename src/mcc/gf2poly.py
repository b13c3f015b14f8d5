"""Binary polynomial arithmetic and CRC encode/verify.

A polynomial is stored as a Python integer whose bit i is the coefficient
of x^i. That one convention is used everywhere in this package: messages,
streams and CRC words all map bit index i to x^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bitlinalg import BitVec


@dataclass(frozen=True)
class BinPoly:
    """Polynomial over GF(2); ``value`` bit i is the coefficient of x^i."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative coefficient word")

    @classmethod
    def zero(cls) -> "BinPoly":
        return cls(0)

    @classmethod
    def one(cls) -> "BinPoly":
        return cls(1)

    @classmethod
    def x_pow(cls, i: int) -> "BinPoly":
        return cls(1 << i)

    @classmethod
    def from_exponents(cls, exps) -> "BinPoly":
        v = 0
        for e in exps:
            v |= 1 << e
        return cls(v)

    @classmethod
    def from_octal(cls, text: str) -> "BinPoly":
        """Read an octal generator string, most significant bit first.

        The leading binary digit of the octal value is the constant term and
        the trailing digit is the highest power, the usual convention for
        tabulated convolutional-code generators (e.g. "753" and "561" name
        the classic memory-8 rate-1/2 pair).
        """
        text = text.strip().removeprefix("0o")
        v = int(text, 8)
        if v == 0:
            return cls(0)
        nb = v.bit_length()
        r = 0
        for i in range(nb):
            if (v >> (nb - 1 - i)) & 1:
                r |= 1 << i
        return cls(r)

    @classmethod
    def from_bitvec(cls, v: BitVec) -> "BinPoly":
        return cls(v.to_int())

    def to_bitvec(self, n: int) -> BitVec:
        return BitVec.from_int(n, self.value)

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return self.value.bit_length() - 1 if self.value else None

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    def exponents(self) -> list[int]:
        return [i for i in range(self.value.bit_length()) if (self.value >> i) & 1]

    def truncate(self, nbits: int) -> "BinPoly":
        """Drop all coefficients at x^nbits and above."""
        return BinPoly(self.value & ((1 << nbits) - 1))

    def __add__(self, other: "BinPoly") -> "BinPoly":
        return BinPoly(self.value ^ other.value)

    __xor__ = __add__

    def __mul__(self, other: "BinPoly") -> "BinPoly":
        return poly_mul(self, other)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        if not self.value:
            return "BinPoly(0)"
        terms = ["1" if e == 0 else ("x" if e == 1 else f"x^{e}") for e in self.exponents()]
        return f"BinPoly({' + '.join(terms)})"


def poly_mul(a: BinPoly, b: BinPoly) -> BinPoly:
    """Carryless product over GF(2)."""
    x, y = a.value, b.value
    if x.bit_count() > y.bit_count():
        x, y = y, x
    r = 0
    while x:
        low = x & -x
        r ^= y * low
        x ^= low
    return BinPoly(r)


def poly_divmod(a: BinPoly, b: BinPoly) -> tuple[BinPoly, BinPoly]:
    """Quotient and remainder with deg(remainder) < deg(divisor)."""
    if not b.value:
        raise ZeroDivisionError("division by the zero polynomial")
    d = b.value.bit_length() - 1
    q = 0
    r = a.value
    bv = b.value
    while r.bit_length() - 1 >= d:
        shift = r.bit_length() - 1 - d
        q |= 1 << shift
        r ^= bv << shift
    return BinPoly(q), BinPoly(r)


@lru_cache(maxsize=16)
def _crc_table(g: int) -> tuple[int, ...]:
    """(v * x^r) mod g for every byte value v, where r = deg(g)."""
    r = g.bit_length() - 1
    return tuple(poly_divmod(BinPoly(v << r), BinPoly(g))[1].value for v in range(256))


def crc_append(m: BitVec, r_poly: BinPoly) -> BitVec:
    """Append the CRC of m, giving a word that crc_verify accepts.

    The output is m followed by the coefficients of x^r * m(x) mod r_poly,
    where r is the CRC degree. A degree-0 polynomial yields m unchanged.
    The message is reduced a byte at a time from its top coefficients, its
    leading m.n mod 8 bits padded with zeros to a first byte.
    """
    if not r_poly.value:
        raise ValueError("CRC polynomial must be nonzero")
    r = r_poly.degree
    if r == 0:
        return m
    table = _crc_table(r_poly.value)
    mask = (1 << r) - 1
    word = m.to_int()
    # rem is x^r times the message bytes read so far, mod r_poly
    rem = 0
    for byte in word.to_bytes((m.n + 7) // 8, "big"):
        shifted = rem << 8
        rem = table[(shifted >> r) ^ byte] ^ (shifted & mask)
    return BitVec.from_int(m.n + r, word | rem << m.n)


def crc_verify(m_r: BitVec, r_poly: BinPoly) -> bool:
    """True iff m_r is what crc_append makes of its message part."""
    if not r_poly.value:
        raise ValueError("CRC polynomial must be nonzero")
    k = m_r.n - r_poly.degree
    if k < 0:
        raise ValueError("word shorter than the CRC")
    msg = BitVec.from_int(k, m_r.to_int() & ((1 << k) - 1))
    return crc_append(msg, r_poly) == m_r
