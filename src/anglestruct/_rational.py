"""Exact numbers: `exact_scaled` is the one gate, where numbers enter.
It refuses floats, bools, and all but ints and Fractions, and takes what
passes to (den, ints), ints over the lcm of the denominators; a list of
plain ints passes in one look at its types and comes back over 1.
`reduced` takes such a form to its least denominator, `unscaled` turns
it back into Fractions, and no other module takes a number apart.

`ScaledVector` keeps that form for every record that holds one rational
vector, and this module alone writes it into a record's ``__dict__``.

Every number crossing a file boundary is a fraction printed as "p/q" with
q > 0 and gcd(p,q) = 1; the denominator is kept even when it is 1 so that
readers never have to guess whether a value is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

# ASCII digits only, with an optional sign on the numerator: int() alone
# would also take "1_0", non-ASCII digits and inner whitespace.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


# The type of a plain int, the one type that passes without a look at
# each entry, and the types that pass beside it.
_INT = frozenset([int])
_EXACT = frozenset([int, Fraction])


def exact_scaled(where: str, values, error) -> tuple:
    """(den, ints): values over the lcm of their denominators, once each
    is an int or a Fraction; ints come back as they are, over 1.  A bool,
    a float or anything else raises error, naming where and its index.
    The den is the least: each Fraction is in its least terms."""
    values = tuple(values)
    types = set(map(type, values))
    if types <= _INT:
        return 1, values
    if not types <= _EXACT:
        for idx, v in enumerate(values):
            if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                raise error("%s entry %d is %r, not an int or a Fraction"
                            % (where, idx, v))
    den = lcm(*(v.denominator for v in values))
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
    ``_scaled`` is (den, ints), the vector over its least denominator,
    kept alone either way a record is built: by `_of_scaled`, unchecked,
    or by its fields, each gated once by ``__post_init__``.  The
    Fractions are built when a vector field is first read.
    """

    @classmethod
    def _of_scaled(cls, den: int, ints, **fields):
        """The record of ints / den and fields, unchecked, kept reduced:
        no ``__post_init__`` runs."""
        record = cls.__new__(cls)
        record.__dict__.update(fields)
        record.__dict__["_scaled"] = reduced(den, ints)
        return record

    def __post_init__(self):
        # Each vector field through the gate, as "<Class> <field>", its
        # value replaced by the one (den, ints) form of them all.
        forms = [exact_scaled("%s %s" % (type(self).__qualname__, name),
                              self.__dict__.pop(name), self._error)
                 for name in self._vector]
        den = lcm(*(d for d, _ in forms))
        self.__dict__["_scaled"] = den, tuple(
            v * (den // d) for d, ints in forms for v in ints)
        if None in self._vector.values():
            self.__dict__["_cut"] = len(forms[0][1])

    def _parts(self) -> tuple:
        """(den, *parts): ``_scaled``'s den and each field's slice of ints."""
        den, ints = self._scaled
        shares = tuple(self._vector.values())
        cut = self._cut if shares[0] is None else \
            len(ints) * shares[0] // sum(shares)
        return (den, ints[:cut], ints[cut:])[:1 + len(shares)]

    def __getattr__(self, name):
        # Only a vector field is missing: the record keeps its ints alone.
        if name not in self._vector:
            return object.__getattribute__(self, name)  # raises
        d, *ints = self._parts()
        self.__dict__.update(zip(self._vector, (unscaled(d, i) for i in ints)))
        return self.__dict__[name]


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
