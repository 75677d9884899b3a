"""Upgrading a flat semi assignment to a strict one, curvature intact.

The move is a one-parameter affine deformation of the angles.  Around
each edge class, count its zero angles (m1), its pi angles (n1), and its
open-interval angles (k1).  Edges with no extreme angles are left alone;
on the others every zero angle gains t, every pi angle loses 3t, and
every interior angle moves by -(m1 - 3 n1)/k1 * t.  The per-edge
coefficients sum to zero, so every edge curvature is preserved for every
t.  Each angle bound and each triangle-area bound is affine in t, so the
largest safe parameter is an exact minimum of finitely many positive
rationals; the deformation is evaluated at half of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .angle_structures import (
    AngleAssignment,
    AreaCurvature,
    area_of_triangle,
    classify,
    curvature,
    is_flat_pair,
    realized_area_curvature,
)
from .triangulation import EDGES_AT_VERTEX, Triangulation


class PerturbationError(ValueError):
    """Raised when the deformation hypothesis fails or a postcondition
    cannot be re-verified."""


@dataclass(frozen=True)
class EdgeAngleCensus:
    """Per edge class, the triple (m1, n1, k1): counts of zero angles,
    pi angles, and open-interval angles among its corners, with
    multiplicity."""
    entries: tuple


def edge_angle_census(alpha: AngleAssignment,
                      t: Triangulation) -> EdgeAngleCensus:
    if classify(alpha) == "generalized":
        raise PerturbationError("assignment is not semi")
    if alpha.tet_count != t.tet_count:
        raise PerturbationError("assignment size does not match")
    entries = []
    for cls in t.edge_classes:
        m1 = n1 = k1 = 0
        for i, k in cls.corners:
            a = alpha.angle(i, k)
            if a == 0:
                m1 += 1
            elif a == 1:
                n1 += 1
            else:
                k1 += 1
        entries.append((m1, n1, k1))
    return EdgeAngleCensus(entries=tuple(entries))


@dataclass(frozen=True)
class PerturbationFamily:
    """The affine family alpha_t = base + coeffs * t, one coefficient per
    tet-edge, built so that every edge class has zero coefficient sum."""
    base: AngleAssignment
    coeffs: tuple
    census: EdgeAngleCensus

    def at(self, t: Fraction) -> AngleAssignment:
        t = Fraction(t)
        return AngleAssignment(angles=tuple(
            a + c * t for a, c in zip(self.base.angles, self.coeffs)))

    def triangle_area_slope(self, tet: int, corner: int) -> Fraction:
        """d/dt of the triangle area at the given corner."""
        return sum((self.coeffs[6 * tet + k]
                    for k in EDGES_AT_VERTEX[corner]), Fraction(0))


def build_perturbation(alpha: AngleAssignment,
                       t: Triangulation) -> PerturbationFamily:
    """Assign deformation coefficients edge class by edge class.

    Requires a semi assignment in which every edge class carrying a zero
    or pi angle also carries at least one open-interval angle; the
    offending edge is named otherwise.
    """
    census = edge_angle_census(alpha, t)
    coeffs = [Fraction(0)] * (6 * alpha.tet_count)
    for cls, (m1, n1, k1) in zip(t.edge_classes, census.entries):
        if m1 == 0 and n1 == 0:
            continue
        if k1 == 0:
            raise PerturbationError(
                "edge class %d has a zero or pi angle but no angle in "
                "(0, pi)" % cls.index)
        interior = -Fraction(m1 - 3 * n1, k1)
        total = Fraction(0)
        for i, k in cls.corners:
            a = alpha.angle(i, k)
            if a == 0:
                c = Fraction(1)
            elif a == 1:
                c = Fraction(-3)
            else:
                c = interior
            coeffs[6 * i + k] = c
            total += c
        if total != 0:
            raise PerturbationError(
                "internal error: nonzero coefficient sum on edge class %d"
                % cls.index)
    return PerturbationFamily(base=alpha, coeffs=tuple(coeffs),
                              census=census)


def max_perturbation_parameter(fam: PerturbationFamily) -> Fraction:
    """The supremum of safe parameters, an exact positive rational.

    Collects every bound that actually depends on t: each angle must stay
    in (0, pi) and each triangle area must stay below 0.  Constant
    constraints never bind; if nothing binds at all the supremum is taken
    to be 1 (one pi) by convention.
    """
    bounds = []
    for a, c in zip(fam.base.angles, fam.coeffs):
        if c > 0:
            bounds.append((1 - a) / c)
        elif c < 0:
            bounds.append(a / (-c))
    for tet in range(fam.base.tet_count):
        for l in range(4):
            slope = fam.triangle_area_slope(tet, l)
            if slope > 0:
                area = area_of_triangle(fam.base, tet, l)
                bounds.append(-area / slope)
    t_max = min(bounds) if bounds else Fraction(1)
    if t_max <= 0:
        raise PerturbationError(
            "internal error: no positive perturbation range")
    return t_max


@dataclass(frozen=True)
class Perturbed:
    """The strict assignment apply_theorem3 returns, its realized data,
    and the family and safe range it was taken from."""
    assignment: AngleAssignment
    realized: AreaCurvature
    family: PerturbationFamily
    t_max: Fraction


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
    if any(a >= 0 for a in ac.area):
        raise PerturbationError(
            "internal error: perturbed assignment has a nonnegative area")
    for cls in t.edge_classes:
        if curvature(new, t, cls) != curvature(alpha, t, cls):
            raise PerturbationError(
                "internal error: curvature changed on edge class %d"
                % cls.index)
    return Perturbed(assignment=new, realized=ac, family=fam, t_max=t_max)
