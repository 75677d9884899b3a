import random
import re
from fractions import Fraction

import pytest

from anglestruct import (AngleAssignment, AngleStructureError, AreaCurvature,
                         Certificate, ExistenceError, LinearSystem, LPError,
                         NormalCoordinate, NormalCoordinateError, Optimum,
                         PerturbationError, Solution, build_perturbation,
                         chi_star,
                         combine, decompose, fixture, identity_4_9,
                         is_in_solution_space, minimize_linear,
                         solution_space_basis, verify_certificate,
                         z_functional)
from anglestruct._rational import format_rational, format_vector, parse_scaled
from anglestruct.perturbation import PerturbationFamily


def _parse_one(text: str) -> Fraction:
    """The one "p/q" string text through the package's list reader."""
    den, (num,) = parse_scaled([text])
    return Fraction(num, den)


def test_format_always_carries_denominator():
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(2)) == "2/1"
    assert format_rational(0) == "0/1"
    assert format_rational(Fraction(-4, 6)) == "-2/3"


def test_parse_accepts_bare_integers_and_fractions():
    assert _parse_one("7") == 7
    assert _parse_one(" -3/9 ") == Fraction(-1, 3)
    assert _parse_one("0/5") == 0
    assert _parse_one("+1/2") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", "1.5", "2 3",
                                 "1_0/3", "\u0661/\u0663", "1/+2", " 1 / 2 ",
                                 "1/-2"])
def test_parse_rejects_inexact_or_malformed(bad):
    with pytest.raises(ValueError):
        _parse_one(bad)


def test_round_trip_is_exact_on_random_fractions():
    rng = random.Random(20260819)
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert _parse_one(format_rational(x)) == x


def test_the_kept_form_writer_prints_format_rationals_bytes():
    # format_vector prints a record from its kept ints, each entry over
    # its own gcd with the den: the strings format_rational gives the
    # Fractions, for a record built from ints or from those Fractions.
    # The fixed cases need that per-entry gcd, as the vector's reduced
    # form keeps den 6 or 12.
    rng = random.Random(20261020)
    cases = [(6, [3, 2, 0, -4, 6, -9]), (12, [0, 4, -6, 9, 1, 0, 24]),
             (1, [0, -1, 5])]
    for _ in range(300):
        den = rng.randint(1, 60)
        cases.append((den, [rng.choice([0, rng.randint(-200, 200)])
                            for _ in range(rng.randint(0, 14))]))
    for den, ints in cases:
        for cls, more in ((AngleAssignment, {}), (Certificate, {}),
                          (AreaCurvature, {"_cut": len(ints) // 3})):
            record = cls._of_scaled(den, ints, **more)
            printed = format_vector(record)
            assert not printed.keys() & record.__dict__.keys()
            assert [v for name in cls._vector for v in printed[name]] == [
                format_rational(Fraction(v, den)) for v in ints]
        values = [Fraction(v, den) for v in ints]
        cut = len(ints) // 3
        assert format_vector(Certificate(y=tuple(values))) == \
            format_vector(Certificate._of_scaled(den, ints))
        assert format_vector(AreaCurvature.of(values[:cut], values[cut:])) \
            == format_vector(AreaCurvature._of_scaled(den, ints, _cut=cut))


def _fig8():
    return fixture("fig8").triangulation


def _system():
    return LinearSystem.of([[(0, 1), (1, 1)]], [1], ["nonneg"] * 2)


def _coordinate(x):
    """A fig8 coordinate built field by field, with x as its last entry:
    it is refused where it is built, inside any call that is handed it."""
    return NormalCoordinate(quads=(0,) * 6, tris=(0,) * 7 + (x,))


def _family():
    fx = fixture("fig8-flat1")
    return build_perturbation(fx.angles, fx.triangulation)


def _family_ending_in(x):
    """_family() built field by field, its last coefficient (of 18)
    replaced by x."""
    fam = _family()
    return PerturbationFamily(base=fam.base, coeffs=fam.coeffs[:-1] + (x,),
                              census=fam.census)


# Each exact entry point, a record's constructor included: the error
# class of its module, the name its message gives, the index of the bad
# entry, and a call passing x there.  A record built by its fields gates
# each vector field as "<Class> <field>", so a kernel handed a coordinate
# with a bad entry is refused inside the call, where the record is built.
ENTRY_POINTS = {
    "NormalCoordinate.from_vector": (
        NormalCoordinateError, "NormalCoordinate.from_vector", 6,
        lambda x: NormalCoordinate.from_vector(1, [0] * 6 + [x])),
    "is_in_solution_space": (
        NormalCoordinateError, "NormalCoordinate tris", 7,
        lambda x: is_in_solution_space(_fig8().compatibility_system,
                                       _coordinate(x))),
    "chi_star": (
        NormalCoordinateError, "NormalCoordinate tris", 7,
        lambda x: chi_star(_fig8(), _coordinate(x))),
    "z_functional": (
        NormalCoordinateError, "NormalCoordinate tris", 7,
        lambda x: z_functional(_fig8(), _coordinate(x),
                               _fig8().edge_classes[0])),
    "decompose": (
        NormalCoordinateError, "NormalCoordinate tris", 7,
        lambda x: decompose(_fig8(), _coordinate(x))),
    "NormalCoordinate": (
        NormalCoordinateError, "NormalCoordinate quads", 0,
        lambda x: NormalCoordinate(quads=(x, 0, 0), tris=(0,) * 4)),
    "combine-omega": (
        NormalCoordinateError, "combine omega", 0,
        lambda x: combine(solution_space_basis(_fig8()), [x, 0], [0, 0])),
    "combine-z": (
        NormalCoordinateError, "combine z", 1,
        lambda x: combine(solution_space_basis(_fig8()), [0, 0],
                          [Fraction(1, 2), x])),
    "AngleAssignment.from_vector": (
        AngleStructureError, "AngleAssignment.from_vector", 5,
        lambda x: AngleAssignment.from_vector(1, [0] * 5 + [x])),
    "AngleAssignment": (
        AngleStructureError, "AngleAssignment angles", 5,
        lambda x: AngleAssignment(angles=(0,) * 5 + (x,))),
    "AreaCurvature-area": (
        AngleStructureError, "AreaCurvature area", 1,
        lambda x: AreaCurvature(area=(0, x), curvature=(0,))),
    "AreaCurvature-curvature": (
        AngleStructureError, "AreaCurvature curvature", 0,
        lambda x: AreaCurvature(area=(0, 0), curvature=(x,))),
    "AreaCurvature.of-area": (
        AngleStructureError, "AreaCurvature area", 1,
        lambda x: AreaCurvature.of([0, x], [0])),
    "AreaCurvature.of-curvature": (
        AngleStructureError, "AreaCurvature curvature", 0,
        lambda x: AreaCurvature.of([0, 0], [x])),
    "Certificate": (
        LPError, "Certificate y", 0, lambda x: Certificate(y=(x,))),
    "Solution": (
        LPError, "Solution x", 1, lambda x: Solution(x=(Fraction(1, 2), x))),
    "Optimum": (
        LPError, "Optimum x", 0, lambda x: Optimum(value=0, x=(x,))),
    "LinearSystem.of-rhs": (
        LPError, "LinearSystem.of rhs", 1,
        lambda x: LinearSystem.of([[(0, 1)], [(1, 1)]], [1, x],
                                  ["nonneg"] * 2)),
    "LinearSystem.of-row": (
        LPError, "LinearSystem.of row 1", 1,
        lambda x: LinearSystem.of([[(0, 1)], [(0, 1), (1, x)]], [1, 1],
                                  ["nonneg"] * 2)),
    "minimize_linear": (
        LPError, "minimize_linear objective", 1,
        lambda x: minimize_linear([0, x], _system())),
    "minimize_linear-start": (
        LPError, "minimize_linear start", 1,
        lambda x: minimize_linear([0, 0], _system(), start=[1, x])),
    "verify_certificate": (
        LPError, "verify_certificate y", 0,
        lambda x: verify_certificate(_system(), [x])),
    "identity_4_9-h": (
        ExistenceError, "identity_4_9 h", 7,
        lambda x: identity_4_9(_fig8(), fixture("fig8").angles,
                               [0] * 7 + [x], [0, 0], [0, 0])),
    "identity_4_9-z": (
        ExistenceError, "identity_4_9 z", 1,
        lambda x: identity_4_9(_fig8(), fixture("fig8").angles,
                               [0] * 8, [0, x], [0, 0])),
    "identity_4_9-omega": (
        ExistenceError, "identity_4_9 omega", 0,
        lambda x: identity_4_9(_fig8(), fixture("fig8").angles,
                               [0] * 8, [0, 0], [x, 0])),
    "PerturbationFamily": (
        PerturbationError, "PerturbationFamily coeffs", 17,
        _family_ending_in),
    "PerturbationFamily.at": (
        PerturbationError, "PerturbationFamily.at", 0,
        lambda x: _family().at(x)),
}


@pytest.mark.parametrize("bad", [0.1, "1/2", True])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_inexact_entries_are_refused_where_they_enter(entry, bad):
    # Fraction() would store a float as its binary fraction (0.1 as
    # 3602879701896397/36028797018963968) and parse a string, and a bool
    # is an int that reads as 1 or 0, so every exact entry point refuses
    # all three, with its own module's error.
    error, where, idx, call = ENTRY_POINTS[entry]
    with pytest.raises(error, match=re.escape(
            "%s entry %d is %r, not an int or a Fraction"
            % (where, idx, bad))):
        call(bad)


def test_unscaled_returns_the_fractions_alone():
    # The readout is the Fractions ints / den at their least terms; a
    # caller that wants the reduced (den, ints) form asks reduced for it.
    from anglestruct._rational import reduced, unscaled
    values = unscaled(2, (1, 2))
    assert values == (Fraction(1, 2), Fraction(1))
    assert type(values) is tuple
    assert all(type(v) is Fraction for v in values)
    assert unscaled(6, (2, -4, 2)) == (Fraction(1, 3), Fraction(-2, 3),
                                       Fraction(1, 3))
    assert reduced(6, (2, -4, 2)) == (3, (1, -2, 1))


@pytest.mark.parametrize("bad", [True, 0.5])
def test_gate_takes_ints_and_fractions_in_one_look(bad):
    # A tuple of plain ints comes back as the same object, over 1; ints
    # mixed with Fractions pass and are scaled over the lcm of the
    # denominators; a bool or a float among Fractions still takes the
    # per-entry look and its message.
    from anglestruct._rational import exact_scaled
    ints = (0, 3, -2, 5)
    den, kept = exact_scaled("ints", ints, ValueError)
    assert den == 1 and kept is ints
    assert exact_scaled("ints", list(ints), ValueError) == (1, ints)
    mixed = (0, Fraction(1, 3), -2, Fraction(5, 2))
    assert exact_scaled("mixed", mixed, ValueError) == (6, (0, 2, -12, 15))
    assert exact_scaled("mixed", list(mixed), ValueError) == \
        (6, (0, 2, -12, 15))
    with pytest.raises(ValueError, match=re.escape(
            "mixed entry 2 is %r, not an int or a Fraction" % bad)):
        exact_scaled("mixed", (Fraction(1, 2), 1, bad, Fraction(3)),
                     ValueError)
