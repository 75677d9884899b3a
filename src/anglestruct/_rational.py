"""Exact rational serialization helpers.

Every number crossing a file boundary is a fraction printed as "p/q" with
q > 0 and gcd(p,q) = 1; the denominator is kept even when it is 1 so that
readers never have to guess whether a value is exact.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(x) -> str:
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(text: str) -> Fraction:
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise ValueError("not an exact rational: %r" % text)
