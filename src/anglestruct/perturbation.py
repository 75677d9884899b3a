"""Upgrading a flat semi assignment to a strict one, curvature intact.

The move is a one-parameter affine deformation of the angles.  Around
each edge class, count its zero angles (m1), its pi angles (n1), and its
open-interval angles (k1).  Edges with no extreme angles are left alone;
on the others every zero angle gains t, every pi angle loses 3t, and
every interior angle moves by -(m1 - 3 n1)/k1 * t.  The per-edge
coefficients sum to zero, so every edge curvature is preserved for every
t.  Each angle bound and each triangle-area bound is affine in t, so the
largest safe parameter is an exact minimum of finitely many positive
rationals; the deformation is evaluated at half of it.  All of it runs
on ints, the bounds compared by cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._rational import ScaledVector, exact_scaled
from ._record import Record
from .angle_structures import (
    AngleAssignment,
    AreaCurvature,
    _angle_ints,
    _angle_sums,
    _check_semi,
    _corner_sums,
    classify,
    is_flat_pair,
    realized_area_curvature,
)
from .triangulation import Triangulation


class PerturbationError(ValueError):
    """Raised when the deformation hypothesis fails or a postcondition
    cannot be re-verified."""


def edge_angle_census(alpha: AngleAssignment, t: Triangulation) -> tuple:
    """Per edge class, the triple (m1, n1, k1): counts of zero angles,
    pi angles, and open-interval angles among its corners, with
    multiplicity."""
    _check_semi(alpha, t, PerturbationError)
    den, a, _ = _angle_ints(alpha)
    census = []
    for cls in t.edge_classes:
        angles = [a[6 * i + k] for i, k in cls.corners]
        m1, n1 = angles.count(0), angles.count(den)
        census.append((m1, n1, len(angles) - m1 - n1))
    return tuple(census)


class PerturbationFamily(Record, ScaledVector):
    """The affine family alpha_t = base + coeffs * t, one coefficient per
    tet-edge, built so that every edge class has zero coefficient sum.
    ``census`` is the base's edge_angle_census."""
    base: AngleAssignment
    coeffs: tuple
    census: tuple
    _vector = {"coeffs": 1}
    _error = PerturbationError

    def at(self, t: Fraction) -> AngleAssignment:
        tden, (tnum,) = exact_scaled("PerturbationFamily.at", (t,),
                                     PerturbationError)
        den, a, _ = _angle_ints(self.base)
        scale, c = self._scaled
        return AngleAssignment._of_scaled(den * scale * tden, [
            x * scale * tden + y * tnum * den for x, y in zip(a, c)])


def build_perturbation(alpha: AngleAssignment,
                       t: Triangulation) -> PerturbationFamily:
    """Assign deformation coefficients edge class by edge class.

    Requires a semi assignment in which every edge class carrying a zero
    or pi angle also carries at least one open-interval angle; the
    offending edge is named otherwise.
    """
    census = edge_angle_census(alpha, t)
    den, a, _ = _angle_ints(alpha)
    scale = lcm(*(k1 for m1, n1, k1 in census if (m1 or n1) and k1))
    coeffs = [0] * (6 * alpha.tet_count)
    for cls, (m1, n1, k1) in zip(t.edge_classes, census):
        if m1 == 0 and n1 == 0:
            continue
        if k1 == 0:
            raise PerturbationError(
                "edge class %d has a zero or pi angle but no angle in "
                "(0, pi)" % cls.index)
        interior = (3 * n1 - m1) * (scale // k1)
        for i, k in cls.corners:
            x = a[6 * i + k]
            coeffs[6 * i + k] = \
                scale if x == 0 else -3 * scale if x == den else interior
        if sum(coeffs[6 * i + k] for i, k in cls.corners):
            raise PerturbationError(
                "internal error: nonzero coefficient sum on edge class %d"
                % cls.index)
    return PerturbationFamily._of_scaled(scale, coeffs, base=alpha,
                                         census=census)


def _least_bound(fam: PerturbationFamily) -> tuple:
    """(num, den): the least bound on t, 1 when nothing binds.  With the
    angles and corner sums over den, moving by c over scale, a bound is
    p / q in units of scale / den, and bounds are cross-multiplied."""
    den, a, corner = _angle_ints(fam.base)
    scale, c = fam._scaled
    slopes = _corner_sums(c)
    p, q = 1, 0
    for bp, bq in [(den - x, y) if y > 0 else (x, -y)
                   for x, y in zip(a, c) if y] + \
            [(den - s, y) for s, y in zip(corner, slopes) if y > 0]:
        if bp * q < p * bq:
            p, q = bp, bq
    return (p * scale, q * den) if q else (1, 1)


def max_perturbation_parameter(fam: PerturbationFamily) -> Fraction:
    """The supremum of safe parameters, an exact positive rational.

    Collects every bound that actually depends on t: each angle must stay
    in (0, pi) and each triangle area must stay below 0.  Constant
    constraints never bind; if nothing binds at all the supremum is taken
    to be 1 (one pi) by convention.
    """
    num, den = _least_bound(fam)
    if num <= 0:
        raise PerturbationError(
            "internal error: no positive perturbation range")
    return Fraction(num, den)


class Perturbed(Record):
    """The strict assignment apply_theorem3 returns, its realized data,
    and the family and safe range it was taken from."""
    assignment: AngleAssignment
    realized: AreaCurvature
    family: PerturbationFamily
    t_max: Fraction

    def __post_init__(self):
        exact_scaled("Perturbed t_max", (self.t_max,), PerturbationError)


def apply_theorem3(alpha: AngleAssignment, t: Triangulation) -> Perturbed:
    """Deform a flat semi assignment into a strict one at half the safe
    range.

    Re-verified before returning: the result is strict, every triangle
    area is negative, and every edge curvature matches the input exactly.
    """
    if not is_flat_pair(alpha, t):
        raise PerturbationError("assignment is not a flat pair")
    fam = build_perturbation(alpha, t)
    t_max = max_perturbation_parameter(fam)
    new = fam.at(t_max / 2)
    if classify(new) != "strict":
        raise PerturbationError(
            "internal error: perturbed assignment is not strict")
    ac = realized_area_curvature(new, t)
    if any(a >= 0 for a in ac._parts()[1]):
        raise PerturbationError(
            "internal error: perturbed assignment has a nonnegative area")
    d, _, before = _angle_sums(alpha, t)
    d2, _, after = _angle_sums(new, t)
    for j, (s, s2) in enumerate(zip(before, after)):
        if s * d2 != s2 * d:
            raise PerturbationError(
                "internal error: curvature changed on edge class %d" % j)
    return Perturbed(assignment=new, realized=ac, family=fam, t_max=t_max)
