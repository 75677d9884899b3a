"""Exact numbers: `exact` refuses floats, and all but ints and Fractions,
at every entry point; `scaled` takes a row or a vector to ints over the
lcm of its denominators, and no other module takes a number apart.

Every number crossing a file boundary is a fraction printed as "p/q" with
q > 0 and gcd(p,q) = 1; the denominator is kept even when it is 1 so that
readers never have to guess whether a value is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

# ASCII digits only, with an optional sign on the numerator: int() alone
# would also take "1_0", non-ASCII digits and inner whitespace.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def exact(where: str, values, error) -> tuple:
    """values as Fractions: an int is converted, a Fraction kept, and
    anything else raises error, naming where and the entry's index."""
    values = tuple(Fraction(v) if isinstance(v, int) else v for v in values)
    for idx, v in enumerate(values):
        if not isinstance(v, Fraction):
            raise error("%s entry %d is %r, not an int or a Fraction"
                        % (where, idx, v))
    return values


def scaled(values) -> tuple:
    """(den, ints): ints or Fractions over the lcm of their denominators."""
    values = tuple(values)
    den = lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def format_rational(x) -> str:
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(text: str) -> Fraction:
    match = _RATIONAL.fullmatch(text.strip())
    den = int(match[2] or 1) if match else 0
    if not den:
        raise ValueError("not an exact rational: %r" % text)
    return Fraction(int(match[1]), den)
