"""Exact rational linear programming with verified infeasibility certificates.

A two-phase tableau simplex with Bland's rule (deterministic,
cycle-free), exact and with no floating point anywhere.  Systems and
answers are fractions.Fraction; the tableau is fraction-free, each row a
list of ints over one positive denominator that pivots keep reduced by
the row's gcd, so a pivot costs int operations, not Fraction objects.
Below the constraint rows the tableau carries the phase-2 and then the
phase-1 objective row: the reduced cost of every column, then minus the
cost of the current basic solution.  Both are built once and only pivots
change them; the residue, the optimum, the Farkas vector and the dual
are read off them.  Every column is sign-constrained: nonnegative, or
strictly positive in the margin program.
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
from functools import cached_property
from math import gcd, lcm

NONNEG = "nonneg"
STRICT_POS = "strict-pos"

_SIGNS = (NONNEG, STRICT_POS)


class LPError(ValueError):
    """Raised for malformed systems or violated preconditions."""


@dataclass(frozen=True)
class LinearSystem:
    """Rational equality system A x = b with a sign constraint per column;
    each row of A is the sorted (column, coefficient) pairs of its nonzeros."""
    rows: tuple
    rhs: tuple
    signs: tuple

    @classmethod
    def of(cls, rows, rhs, signs):
        """Pairs on the same column add up, and zero sums are dropped."""
        b = tuple(Fraction(v) for v in rhs)
        sg = tuple(signs)
        if len(rows) != len(b):
            raise LPError("row count does not match rhs length")
        for s in sg:
            if s not in _SIGNS:
                raise LPError("unknown sign constraint %r" % (s,))
        sparse = []
        for pairs in rows:
            row = {}
            for c, v in pairs:
                if not (isinstance(c, int) and 0 <= c < len(sg)):
                    raise LPError("no column %r" % (c,))
                v = Fraction(v)
                row[c] = row[c] + v if c in row else v
            sparse.append(tuple((c, v) for c, v in sorted(row.items()) if v))
        return cls(rows=tuple(sparse), rhs=b, signs=sg)

    @cached_property
    def coeffs(self) -> tuple:
        """The dense rows: a view for readers outside the package."""
        return tuple(
            tuple(row.get(c, Fraction(0)) for c in range(self.col_count))
            for row in map(dict, self.rows))

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


def _pivot(rows, dens, basis, r: int, j: int) -> None:
    """Pivot on (r, j).

    Row r is rescaled to denominator p, its entry in column j made
    positive, so it holds 1 there.  Each other row whose entry f in
    column j is nonzero becomes v*p - f*w over d*p, with p and f first
    divided by their gcd: when that leaves p == 1, the row is updated in
    place over the pivot row's nonzeros and keeps its denominator.  Rows
    with a zero in column j are not touched.
    """
    w = rows[r]
    if w[j] < 0:
        w = [-v for v in w]
    g = gcd(*w)
    if g > 1:
        w = [v // g for v in w]
    rows[r] = w
    p = dens[r] = w[j]
    nonzero = [(c, v) for c, v in enumerate(w) if v]
    for i, row in enumerate(rows):
        f = row[j]
        if not f or i == r:
            continue
        d = dens[i]
        g = gcd(p, f)
        q, f = p // g, f // g
        if q != 1:
            row = rows[i] = [v * q for v in row]
            d *= q
        for c, v in nonzero:
            row[c] -= f * v
        if d > 1:
            g = gcd(d, *row)
            if g > 1:
                rows[i] = [v // g for v in row]
                d //= g
        dens[i] = d
    basis[r] = j


def _leaving(candidates):
    """Bland's ratio test: the row r of the least rhs / a over the
    (rhs, a, basic column, r) candidates, a > 0, ties broken by the
    lowest basic column.  Both numbers are ints over the row's own
    denominator, which cancels in the ratio.  None if there are none."""
    best = None
    for cand in candidates:
        if best is None or (cand[0] * best[1], cand[2]) < \
                (best[0] * cand[1], best[2]):
            best = cand
    return None if best is None else best[3]


def _pivot_loop(rows, dens, basis, ncols: int):
    """Run Bland-rule simplex to optimality or an unbounded column.

    Entering variable: lowest-index column below ncols with negative
    reduced cost in the objective row.  Leaving variable: minimum ratio,
    ties broken by the lowest basic variable index.  Returns None at
    optimality, else the entering column of an unbounded ray.
    """
    while True:
        obj = rows[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return None
        r = _leaving((row[-1], row[enter], b, r)
                     for r, (row, b) in enumerate(zip(rows, basis))
                     if row[enter] > 0)
        if r is None:
            return enter
        _pivot(rows, dens, basis, r, enter)


def _solve(sparse, rhs, cost):
    """Two-phase simplex for min c.x, A x = b, x >= 0.

    The tableau is exact and fraction-free: each row is a list of ints
    over one positive denominator, reduced by their gcd after each
    update.  A constraint row is built from its pairs over the lcm of its
    denominators; Fractions appear again only at readout.  Signs, ratio
    tests and so Bland's pivots are those of the same tableau over
    Fractions.  The two objective rows below the constraint rows start
    as the reduced costs of the all-artificial basis: the costs, and 1
    on each artificial minus the sum of the constraint rows.

    Returns a dict with status "optimal" (x, value, dual), "unbounded"
    (ray), or "infeasible" (farkas).  The phase-1 row, popped after
    phase 1, gives the residue and the Farkas vector, and the final
    phase-2 row the value and the dual: an objective row's last entry is
    minus its phase's cost, and at artificial column q it is that
    column's phase cost minus y_q, where y is in the scaled row
    orientation and is unscaled back to the caller's.
    """
    k = len(sparse)
    t = len(cost)
    scale = [1 if b >= 0 else -1 for b in rhs]
    rows, dens = [], []
    for i, pairs in enumerate(sparse):
        d = lcm(rhs[i].denominator, *(v.denominator for _, v in pairs))
        row = [0] * (t + k + 1)
        for c, v in pairs:
            row[c] = scale[i] * v.numerator * (d // v.denominator)
        row[t + i] = d
        row[-1] = scale[i] * rhs[i].numerator * (d // rhs[i].denominator)
        rows.append(row)
        dens.append(d)
    den = lcm(*dens)
    phase1 = [0] * t + [den] * k + [0]
    for row, d in zip(rows, dens):
        f = den // d
        for c, v in enumerate(row):
            if v:
                phase1[c] -= f * v
    g = gcd(den, *phase1)
    d = lcm(*(c.denominator for c in cost))
    rows += [[c.numerator * (d // c.denominator) for c in cost]
             + [0] * (k + 1), [v // g for v in phase1]]
    dens += [d, den // g]
    basis = [t + i for i in range(k)]
    _pivot_loop(rows, dens, basis, t + k)
    obj, den = rows.pop(), dens.pop()
    if obj[-1] < 0:
        y = [scale[q] * (1 - Fraction(obj[t + q], den)) for q in range(k)]
        return {"status": "infeasible", "farkas": tuple(y)}

    # Pivot leftover artificials out wherever a real column is available;
    # rows that stay artificial-basic are identically zero on real
    # columns and inert from here on.
    for r in range(k):
        if basis[r] >= t:
            piv = next((j for j in range(t) if rows[r][j] != 0), -1)
            if piv >= 0:
                _pivot(rows, dens, basis, r, piv)

    enter = _pivot_loop(rows, dens, basis, t)
    obj, den = rows[-1], dens[-1]
    if enter is not None:
        ray = [Fraction(0)] * t
        ray[enter] = Fraction(1)
        for r in range(k):
            if basis[r] < t and rows[r][enter]:
                ray[basis[r]] = -Fraction(rows[r][enter], dens[r])
        return {"status": "unbounded", "ray": tuple(ray)}
    x = [Fraction(0)] * t
    for r in range(k):
        if basis[r] < t:
            x[basis[r]] = Fraction(rows[r][-1], dens[r])
    dual = [-scale[q] * Fraction(obj[t + q], den) for q in range(k)]
    return {"status": "optimal", "x": tuple(x),
            "value": -Fraction(obj[-1], den), "dual": tuple(dual)}


def _nonneg(sys: LinearSystem) -> None:
    """Refuse strict-pos columns outside the margin program."""
    if STRICT_POS in sys.signs:
        raise LPError("strict-pos columns belong to solve_feasibility_strict")


def _verified(sys: LinearSystem, y, mode: str) -> Certificate:
    """The certificate y, once verify_certificate has accepted it."""
    if not verify_certificate(sys, y, mode):
        raise LPError("internal error: emitted certificate failed "
                      "verification")
    return Certificate(y=y)


def solve_feasibility_nonneg(sys: LinearSystem):
    """Find x with A x = b and x >= 0, or refute it.

    The refutation is a Farkas vector y with A^T y <= 0 and y.b > 0.
    """
    _nonneg(sys)
    res = _solve(sys.rows, sys.rhs, [Fraction(0)] * sys.col_count)
    if res["status"] == "infeasible":
        return Infeasible(certificate=_verified(sys, res["farkas"], "nonneg"))
    return Solution(x=res["x"])


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
    rows = [row + ((t, sum((v for _, v in row), Fraction(0))),)
            for row in sys.rows]
    rows.append(((t, Fraction(1)), (t + 1, Fraction(1))))
    rhs = tuple(sys.rhs) + (Fraction(1),)
    cost = [Fraction(0)] * t + [Fraction(-1), Fraction(0)]
    res = _solve(rows, rhs, cost)
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
    """Exact minimum of objective.x over {A x = b, x >= 0}."""
    objective = tuple(Fraction(v) for v in objective)
    if len(objective) != sys.col_count:
        raise LPError("objective length does not match column count")
    _nonneg(sys)
    res = _solve(sys.rows, sys.rhs, objective)
    if res["status"] == "infeasible":
        return Infeasible(certificate=_verified(sys, res["farkas"], "nonneg"))
    if res["status"] == "unbounded":
        return Unbounded(ray=res["ray"])
    return Optimum(value=res["value"], x=res["x"])


def verify_certificate(sys: LinearSystem, y, mode: str) -> bool:
    """Recompute the Farkas sign conditions for the claimed mode.

    nonneg mode: A^T y <= 0 on every column, y.b > 0.  strict mode: the
    same column conditions with y.b >= 0, and additionally the
    certificate must actually cut the open cone: either y.b > 0 or some
    column with A^T y strictly negative.
    Pure recomputation; never trusts solver state.
    """
    if mode not in ("nonneg", "strict"):
        raise LPError("unknown certificate mode %r" % (mode,))
    y = tuple(Fraction(v) for v in y)
    if len(y) != sys.row_count:
        return False
    ydotb = sum((yi * bi for yi, bi in zip(y, sys.rhs)), Fraction(0))
    aty = [Fraction(0)] * sys.col_count
    for yi, row in zip(y, sys.rows):
        if yi:
            for c, v in row:
                aty[c] += yi * v
    if any(w > 0 for w in aty):
        return False
    if mode == "nonneg":
        return ydotb > 0
    return ydotb > 0 or (ydotb == 0 and any(w < 0 for w in aty))
