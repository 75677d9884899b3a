"""Exact numbers: `exact` refuses floats, bools, and all but ints and
Fractions, at every entry point; `exact_scaled` is the same gate for
readers that want ints, and keeps ints as ints; `scaled` takes a row or
a vector to ints over the lcm of its denominators, `reduced` takes such
a (den, ints) form to its least denominator, `unscaled` turns it back
into Fractions, and no other module takes a number apart.  Lists of
plain ints pass the gate and the scaling, and lists of ints and
Fractions the gate, in one look at their types.

`ScaledVector` keeps that form for every record that holds one rational
vector, and this module alone writes it into a record's ``__dict__``.

Every number crossing a file boundary is a fraction printed as "p/q" with
q > 0 and gcd(p,q) = 1; the denominator is kept even when it is 1 so that
readers never have to guess whether a value is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

# ASCII digits only, with an optional sign on the numerator: int() alone
# would also take "1_0", non-ASCII digits and inner whitespace.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


# The type of a plain int: the one type that the scaling passes through
# without a look at each entry; the gate passes Fractions beside them.
_INT = frozenset([int])
_EXACT = frozenset([int, Fraction])


def _gate(where: str, values, error) -> tuple:
    """values as a tuple, once each is an int or a Fraction; a bool, a
    float or anything else raises error, naming where and its index."""
    values = tuple(values)
    if not _EXACT.issuperset(map(type, values)):
        for idx, v in enumerate(values):
            if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                raise error("%s entry %d is %r, not an int or a Fraction"
                            % (where, idx, v))
    return values


def exact(where: str, values, error) -> tuple:
    """values as Fractions: an int is converted, a Fraction kept, and
    anything else raises error, naming where and the entry's index."""
    return tuple(v if isinstance(v, Fraction) else Fraction(v)
                 for v in _gate(where, values, error))


def exact_scaled(where: str, values, error) -> tuple:
    """(den, ints): values through the gate of exact, over the lcm of
    their denominators; ints come back as they are, over 1."""
    return scaled(_gate(where, values, error))


def scaled(values) -> tuple:
    """(den, ints): ints or Fractions over the lcm of their denominators."""
    values = tuple(values)
    if _INT.issuperset(map(type, values)):
        return 1, values
    den = lcm(*(v.denominator for v in values))
    if den == 1:
        return 1, tuple(v.numerator for v in values)
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def reduced(den: int, ints) -> tuple:
    """(den, ints) with den and the ints divided by their gcd: the least
    positive denominator that holds the same values, den > 0."""
    g = gcd(den, *ints)
    if g == 1:
        return den, tuple(ints)
    return den // g, tuple(v // g for v in ints)


def unscaled(den: int, ints) -> tuple:
    """The Fractions ints / den, one built per distinct int."""
    made = {v: Fraction(v, den) for v in set(ints)}
    return tuple(map(made.__getitem__, ints))


class ScaledVector:
    """A record's one rational vector, kept as (den, ints).

    The record names in ``_vector`` the fields that hold the vector, in
    order, each with its share of the vector's length (None if the split
    is not fixed, the record then keeping its first field's length as
    ``_cut``), and in ``_error`` the error a bad entry raises.
    ``_scaled`` is (den, ints), the vector over its least denominator:
    kept alone by `_of_scaled`, its Fractions built when first read, else
    derived on first use through the gate of `exact_scaled`.
    """

    @classmethod
    def _of_scaled(cls, den: int, ints, **fields):
        """The record of ints / den and fields, unchecked, kept reduced:
        no ``__post_init__`` runs."""
        record = cls.__new__(cls)
        record.__dict__.update(fields)
        record.__dict__["_scaled"] = reduced(den, ints)
        return record

    def _parts(self) -> tuple:
        """(den, *parts): ``_scaled``'s den and each field's slice of ints."""
        den, ints = self._scaled
        shares = tuple(self._vector.values())
        cut = self._cut if shares[0] is None else \
            len(ints) * shares[0] // sum(shares)
        return (den, ints[:cut], ints[cut:])[:1 + len(shares)]

    def __getattr__(self, name):
        # Only a vector field that _of_scaled left unbuilt is missing.
        if name not in self._vector:
            return object.__getattribute__(self, name)  # raises
        d, *ints = self._parts()
        self.__dict__.update(zip(self._vector, (unscaled(d, i) for i in ints)))
        return self.__dict__[name]

    @cached_property
    def _scaled(self) -> tuple:
        return exact_scaled(type(self).__qualname__, [
            v for name in self._vector for v in getattr(self, name)],
            self._error)


def format_rational(x) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def format_vector(record: ScaledVector) -> dict:
    """format_rational's strings of each vector field of record, by name,
    printed from its kept ints, each entry over its own gcd with den."""
    den, *parts = record._parts()
    made = {v: "%d/%d" % (v // g, den // g)
            for v in set(record._scaled[1]) for g in [gcd(v, den)]}
    return {name: list(map(made.__getitem__, ints))
            for name, ints in zip(record._vector, parts)}


def parse_scaled(texts) -> tuple:
    """(den, ints): the "p/q" strings texts over the lcm of their
    denominators, each distinct text read once, in order."""
    read = {}
    for text in dict.fromkeys(texts):
        match = _RATIONAL.fullmatch(text.strip())
        if not (match and int(match[2] or 1)):
            raise ValueError("not an exact rational: %r" % text)
        read[text] = int(match[1]), int(match[2] or 1)
    den = lcm(*(q for _, q in read.values()))
    return den, tuple(p * (den // q) for p, q in map(read.__getitem__, texts))
