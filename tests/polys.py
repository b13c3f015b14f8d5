"""Generator matrices written as exponent lists or octal strings, for tests."""

from mcc.convcode import PolyGenMatrix
from mcc.gf2poly import from_exponents, from_octal


def from_exponent_lists(lists) -> PolyGenMatrix:
    return PolyGenMatrix(tuple(from_exponents(e) for e in lists))


def from_octal_strings(strings) -> PolyGenMatrix:
    return PolyGenMatrix(tuple(from_octal(s) for s in strings))


def exponents(p: int) -> list[int]:
    """The exponents whose coefficient in p is 1, in increasing order."""
    return [i for i in range(p.bit_length()) if p >> i & 1]
