"""Exact rational serialization helpers.

Every number crossing a file boundary is a fraction printed as "p/q" with
q > 0 and gcd(p,q) = 1; the denominator is kept even when it is 1 so that
readers never have to guess whether a value is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ASCII digits only, with an optional sign on the numerator: int() alone
# would also take "1_0", non-ASCII digits and inner whitespace.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def format_rational(x) -> str:
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(text: str) -> Fraction:
    match = _RATIONAL.fullmatch(text.strip())
    den = int(match[2] or 1) if match else 0
    if not den:
        raise ValueError("not an exact rational: %r" % text)
    return Fraction(int(match[1]), den)
