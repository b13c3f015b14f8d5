"""Binary polynomial arithmetic and CRC encode/verify.

A polynomial is a non-negative Python int whose bit i is the coefficient of
x^i. That one form is used everywhere in this package: generators, CRC
polynomials, messages, streams and CRC words all map bit index i to x^i, so
degree is ``bit_length() - 1``, addition is ``^`` and weight is
``bit_count()``.
"""

from __future__ import annotations

import reprlib
from functools import lru_cache

from .bitlinalg import BitVec

_OCTAL_DIGITS = frozenset("01234567")


def from_exponents(exps) -> int:
    """The polynomial whose coefficient is 1 at each listed exponent."""
    v = 0
    for e in exps:
        v |= 1 << e
    return v


def from_octal(text: str) -> int:
    """Read an octal generator string, most significant bit first.

    The leading binary digit of the octal value is the constant term and
    the trailing digit is the highest power, the usual convention for
    tabulated convolutional-code generators (e.g. "753" and "561" name
    the classic memory-8 rate-1/2 pair). After an optional "0o" prefix only
    the digits 0-7 are accepted.
    """
    digits = text.removeprefix("0o")
    if not digits or not _OCTAL_DIGITS.issuperset(digits):
        raise ValueError(f"not an octal generator: {reprlib.repr(text)}")
    return int(f"{int(digits, 8):b}"[::-1], 2)


def poly_mul(a: int, b: int) -> int:
    """Carryless product over GF(2)."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b * low
        a ^= low
    return r


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder with deg(remainder) < deg(divisor)."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    d = b.bit_length() - 1
    q = 0
    r = a
    while r.bit_length() - 1 >= d:
        shift = r.bit_length() - 1 - d
        q |= 1 << shift
        r ^= b << shift
    return q, r


@lru_cache(maxsize=16)
def _crc_table(g: int) -> tuple[int, ...]:
    """(v * x^r) mod g for every byte value v, where r = deg(g)."""
    r = g.bit_length() - 1
    return tuple(poly_divmod(v << r, g)[1] for v in range(256))


def crc_append(m: BitVec, r_poly: int) -> BitVec:
    """Append the CRC of m, giving a word that crc_verify accepts.

    The output is m followed by the coefficients of x^r * m(x) mod r_poly,
    where r is the CRC degree. A degree-0 polynomial yields m unchanged.
    The message is reduced a byte at a time from its top coefficients, its
    leading m.n mod 8 bits padded with zeros to a first byte.
    """
    if r_poly <= 0:
        raise ValueError("CRC polynomial must be positive")
    r = r_poly.bit_length() - 1
    if r == 0:
        return m
    table = _crc_table(r_poly)
    mask = (1 << r) - 1
    word = m.to_int()
    # rem is x^r times the message bytes read so far, mod r_poly
    rem = 0
    for byte in word.to_bytes((m.n + 7) // 8, "big"):
        shifted = rem << 8
        rem = table[(shifted >> r) ^ byte] ^ (shifted & mask)
    return BitVec.from_int(m.n + r, word | rem << m.n)


def crc_verify(m_r: BitVec, r_poly: int) -> bool:
    """True iff m_r is what crc_append makes of its message part."""
    k = m_r.n - (r_poly.bit_length() - 1)
    if k < 0:
        raise ValueError("word shorter than the CRC")
    msg = BitVec.from_int(k, m_r.to_int() & ((1 << k) - 1))
    return crc_append(msg, r_poly) == m_r
