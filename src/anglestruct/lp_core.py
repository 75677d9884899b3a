"""Exact rational linear programming with verified infeasibility certificates.

Everything runs over fractions.Fraction: a two-phase tableau simplex with
Bland's rule (deterministic, cycle-free), no floating point anywhere.
Three entry points cover what the rest of the package needs: feasibility
of an equality system with sign-constrained variables, strict feasibility
via margin maximization (find x with every constrained entry bounded away
from zero by the largest possible epsilon), and linear minimization over
the same polyhedra.  Infeasible outcomes carry a Farkas vector y that a
separate routine re-verifies by plain recomputation, so no caller has to
trust the solver's internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

FREE = "free"
NONNEG = "nonneg"
STRICT_POS = "strict-pos"

_SIGNS = (FREE, NONNEG, STRICT_POS)


class LPError(ValueError):
    """Raised for malformed systems or violated preconditions."""


@dataclass(frozen=True)
class LinearSystem:
    """Rational equality system A x = b with a sign constraint per column."""
    coeffs: tuple
    rhs: tuple
    signs: tuple

    @classmethod
    def of(cls, coeffs, rhs, signs):
        rows = tuple(tuple(Fraction(v) for v in row) for row in coeffs)
        b = tuple(Fraction(v) for v in rhs)
        sg = tuple(signs)
        if len(rows) != len(b):
            raise LPError("row count does not match rhs length")
        width = len(sg)
        for row in rows:
            if len(row) != width:
                raise LPError("ragged coefficient matrix")
        for s in sg:
            if s not in _SIGNS:
                raise LPError("unknown sign constraint %r" % (s,))
        return cls(coeffs=rows, rhs=b, signs=sg)

    @property
    def row_count(self) -> int:
        return len(self.rhs)

    @property
    def col_count(self) -> int:
        return len(self.signs)


@dataclass(frozen=True)
class Certificate:
    """Farkas vector over the rows of the system it refutes."""
    y: tuple


@dataclass(frozen=True)
class Solution:
    x: tuple


@dataclass(frozen=True)
class Infeasible:
    certificate: Certificate


@dataclass(frozen=True)
class StrictSolution:
    x: tuple
    margin: Fraction


@dataclass(frozen=True)
class NotStrict:
    certificate: Certificate


@dataclass(frozen=True)
class Optimum:
    value: Fraction
    x: tuple


@dataclass(frozen=True)
class Unbounded:
    ray: tuple


def _pivot(rows, basis, r: int, j: int) -> None:
    piv = rows[r][j]
    rows[r] = [v / piv for v in rows[r]]
    pivot_row = rows[r]
    for i in range(len(rows)):
        if i == r:
            continue
        f = rows[i][j]
        if f:
            rows[i] = [a - f * b for a, b in zip(rows[i], pivot_row)]
    basis[r] = j


def _pivot_loop(rows, basis, cost, barred, ncols: int):
    """Run Bland-rule simplex to optimality or an unbounded column.

    Entering variable: lowest-index non-barred column with negative
    reduced cost.  Leaving variable: minimum ratio, ties broken by the
    lowest basic variable index.  Returns ("optimal", None) or
    ("unbounded", entering_column).
    """
    while True:
        cb = [cost[b] for b in basis]
        in_basis = set(basis)
        enter = -1
        for j in range(ncols):
            if j in barred or j in in_basis:
                continue
            reduced = cost[j]
            for r in range(len(rows)):
                if cb[r]:
                    reduced -= cb[r] * rows[r][j]
            if reduced < 0:
                enter = j
                break
        if enter < 0:
            return ("optimal", None)
        best = None
        for r in range(len(rows)):
            a = rows[r][enter]
            if a > 0:
                key = (rows[r][-1] / a, basis[r], r)
                if best is None or key < best:
                    best = key
        if best is None:
            return ("unbounded", enter)
        _pivot(rows, basis, best[2], enter)


def _solve(coeffs, rhs, cost):
    """Two-phase simplex for min c.x, A x = b, all x >= 0.

    Returns a dict with status "optimal" (x, value, dual), "unbounded"
    (ray), or "infeasible" (farkas).  Dual and Farkas vectors are read
    off the artificial columns of the final tableau and unscaled back to
    the caller's row orientation.
    """
    k = len(coeffs)
    t = len(cost)
    scale = [Fraction(1) if b >= 0 else Fraction(-1) for b in rhs]
    rows = []
    for i in range(k):
        row = [scale[i] * v for v in coeffs[i]]
        row.extend(Fraction(1) if q == i else Fraction(0) for q in range(k))
        row.append(scale[i] * rhs[i])
        rows.append(row)
    basis = [t + i for i in range(k)]
    total = t + k

    phase1 = [Fraction(0)] * t + [Fraction(1)] * k
    _pivot_loop(rows, basis, phase1, frozenset(), total)
    residue = sum((rows[r][-1] for r in range(k) if basis[r] >= t),
                  Fraction(0))
    if residue > 0:
        y = [scale[q] * sum((phase1[basis[r]] * rows[r][t + q]
                             for r in range(k)), Fraction(0))
             for q in range(k)]
        return {"status": "infeasible", "farkas": tuple(y)}

    # Pivot leftover artificials out wherever a real column is available;
    # rows that stay artificial-basic are identically zero on real
    # columns and inert from here on.
    for r in range(k):
        if basis[r] >= t:
            piv = next((j for j in range(t) if rows[r][j] != 0), -1)
            if piv >= 0:
                _pivot(rows, basis, r, piv)

    phase2 = list(cost) + [Fraction(0)] * k
    barred = frozenset(range(t, total))
    status, enter = _pivot_loop(rows, basis, phase2, barred, total)
    if status == "unbounded":
        ray = [Fraction(0)] * t
        ray[enter] = Fraction(1)
        for r in range(k):
            if basis[r] < t and rows[r][enter]:
                ray[basis[r]] = -rows[r][enter]
        return {"status": "unbounded", "ray": tuple(ray)}
    x = [Fraction(0)] * t
    for r in range(k):
        if basis[r] < t:
            x[basis[r]] = rows[r][-1]
    value = sum((cost[j] * x[j] for j in range(t) if x[j]), Fraction(0))
    dual = [scale[q] * sum((phase2[basis[r]] * rows[r][t + q]
                            for r in range(k)), Fraction(0))
            for q in range(k)]
    return {"status": "optimal", "x": tuple(x), "value": value,
            "dual": tuple(dual)}


def _standardize(sys: LinearSystem):
    """Split free columns into positive and negative parts."""
    colmap = []
    for c, sg in enumerate(sys.signs):
        colmap.append((c, Fraction(1)))
        if sg == FREE:
            colmap.append((c, Fraction(-1)))
    coeffs = [tuple(sgn * row[orig] for orig, sgn in colmap)
              for row in sys.coeffs]
    return coeffs, colmap


def _fold(colmap, xstd, width: int):
    x = [Fraction(0)] * width
    for (orig, sgn), v in zip(colmap, xstd):
        if v:
            x[orig] += sgn * v
    return tuple(x)


def _verified(sys: LinearSystem, y, mode: str) -> Certificate:
    """The certificate y, once verify_certificate has accepted it."""
    if not verify_certificate(sys, y, mode):
        raise LPError("internal error: emitted certificate failed "
                      "verification")
    return Certificate(y=y)


def solve_feasibility_nonneg(sys: LinearSystem):
    """Find x with A x = b and constrained entries >= 0, or refute it.

    The refutation is a Farkas vector y with A^T y <= 0 on constrained
    columns, A^T y = 0 on free columns, and y.b > 0.
    """
    if any(s == STRICT_POS for s in sys.signs):
        raise LPError("strict-pos columns belong to solve_feasibility_strict")
    coeffs, colmap = _standardize(sys)
    res = _solve(coeffs, sys.rhs, [Fraction(0)] * len(colmap))
    if res["status"] == "infeasible":
        return Infeasible(certificate=_verified(sys, res["farkas"], "nonneg"))
    return Solution(x=_fold(colmap, res["x"], sys.col_count))


def solve_feasibility_strict(sys: LinearSystem):
    """Find x with A x = b and every entry strictly positive, or refute it.

    Solves the auxiliary program: maximize epsilon subject to
    A(u + epsilon 1) = b, u >= 0, 0 <= epsilon <= 1.  The cap keeps the
    program bounded without affecting the sign of the optimum, so the
    reported margin never exceeds 1.  A positive optimum yields
    x = u + epsilon 1; otherwise the dual of the auxiliary program is a
    strict-mode Farkas certificate.
    """
    if any(s != STRICT_POS for s in sys.signs):
        raise LPError("strict feasibility requires all strict-pos columns")
    k = sys.row_count
    t = sys.col_count
    coeffs = []
    for row in sys.coeffs:
        coeffs.append(tuple(row) + (sum(row, Fraction(0)), Fraction(0)))
    coeffs.append(tuple([Fraction(0)] * t) + (Fraction(1), Fraction(1)))
    rhs = tuple(sys.rhs) + (Fraction(1),)
    cost = [Fraction(0)] * t + [Fraction(-1), Fraction(0)]
    res = _solve(coeffs, rhs, cost)
    if res["status"] == "infeasible":
        y = res["farkas"][:k]
    else:
        eps = res["x"][t]
        if eps > 0:
            x = tuple(res["x"][j] + eps for j in range(t))
            return StrictSolution(x=x, margin=eps)
        y = res["dual"][:k]
    return NotStrict(certificate=_verified(sys, y, "strict"))


def minimize_linear(objective, sys: LinearSystem):
    """Exact minimum of objective.x over {A x = b, constrained x >= 0}."""
    objective = tuple(Fraction(v) for v in objective)
    if len(objective) != sys.col_count:
        raise LPError("objective length does not match column count")
    coeffs, colmap = _standardize(sys)
    cost = [sgn * objective[orig] for orig, sgn in colmap]
    res = _solve(coeffs, sys.rhs, cost)
    if res["status"] == "infeasible":
        return Infeasible(certificate=_verified(sys, res["farkas"], "nonneg"))
    if res["status"] == "unbounded":
        return Unbounded(ray=_fold(colmap, res["ray"], sys.col_count))
    return Optimum(value=res["value"],
                   x=_fold(colmap, res["x"], sys.col_count))


def verify_certificate(sys: LinearSystem, y, mode: str) -> bool:
    """Recompute the Farkas sign conditions for the claimed mode.

    nonneg mode: A^T y <= 0 on constrained columns, = 0 on free columns,
    y.b > 0.  strict mode: the same column conditions with y.b >= 0, and
    additionally the certificate must actually cut the open cone: either
    y.b > 0 or some constrained column with A^T y strictly negative.
    Pure recomputation; never trusts solver state.
    """
    if mode not in ("nonneg", "strict"):
        raise LPError("unknown certificate mode %r" % (mode,))
    y = tuple(Fraction(v) for v in y)
    if len(y) != sys.row_count:
        return False
    ydotb = sum((yi * bi for yi, bi in zip(y, sys.rhs)), Fraction(0))
    cut = False
    for j, sg in enumerate(sys.signs):
        w = sum((y[i] * sys.coeffs[i][j] for i in range(sys.row_count)),
                Fraction(0))
        if sg == FREE:
            if w != 0:
                return False
        else:
            if w > 0:
                return False
            if w < 0:
                cut = True
    if mode == "nonneg":
        return ydotb > 0
    return ydotb >= 0 and (ydotb > 0 or cut)
