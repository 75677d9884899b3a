import random
from fractions import Fraction

import pytest

from anglestruct._rational import format_rational, parse_rational


def test_format_always_carries_denominator():
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(2)) == "2/1"
    assert format_rational(0) == "0/1"
    assert format_rational(Fraction(-4, 6)) == "-2/3"


def test_parse_accepts_bare_integers_and_fractions():
    assert parse_rational("7") == 7
    assert parse_rational(" -3/9 ") == Fraction(-1, 3)
    assert parse_rational("0/5") == 0
    assert parse_rational("+1/2") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", "1.5", "2 3",
                                 "1_0/3", "\u0661/\u0663", "1/+2", " 1 / 2 ",
                                 "1/-2"])
def test_parse_rejects_inexact_or_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_round_trip_is_exact_on_random_fractions():
    rng = random.Random(20260819)
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert parse_rational(format_rational(x)) == x
