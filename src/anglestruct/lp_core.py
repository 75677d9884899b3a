"""Exact rational linear programming with verified infeasibility certificates.

A two-phase tableau simplex with Bland's rule (deterministic,
cycle-free), exact and with no floating point anywhere.  Systems and
answers are fractions.Fraction; the tableau is fraction-free and
sparse, each row a dict of its nonzero ints whose entry at the row's
basic column is its positive denominator.  A pivot is `_linalg`'s
elimination step, the one the echelon form takes, and keeps every row
primitive, so it costs int operations, not Fraction objects.
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
from math import lcm
from operator import mul

from ._linalg import _eliminate, _primitive
from ._rational import exact, scaled

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
        b = exact("LinearSystem.of rhs", rhs, LPError)
        sg = tuple(signs)
        if len(rows) != len(b):
            raise LPError("row count does not match rhs length")
        for s in sg:
            if s not in _SIGNS:
                raise LPError("unknown sign constraint %r" % (s,))
        sparse = []
        for r, pairs in enumerate(rows):
            pairs = tuple(pairs)
            values = exact("LinearSystem.of row %d" % r,
                           (v for _, v in pairs), LPError)
            row = {}
            for (c, _), v in zip(pairs, values):
                if not (isinstance(c, int) and 0 <= c < len(sg)):
                    raise LPError("no column %r" % (c,))
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


def _pivot(rows, basis, r: int, j: int) -> None:
    """Pivot on (r, j).

    Row r is made primitive and positive at j, which makes its entry
    there its denominator.  Every other row with an entry at j is
    eliminated against it and made primitive, positive at its own basic
    column, where its denominator stays.  Rows with no entry at j are
    not touched.
    """
    pivot = rows[r] = _primitive(rows[r], j)
    for i, row in enumerate(rows):
        if j in row and i != r:
            rows[i] = _primitive(_eliminate(row, pivot, j), basis[i])
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


def _pivot_loop(rows, basis, ncols: int, end: int):
    """Run Bland-rule simplex to optimality or an unbounded column.

    Entering variable: lowest-index column below ncols with negative
    reduced cost in the objective row.  Leaving variable: minimum ratio
    of the rhs column end over the constraint rows, the rows basic below
    end, ties broken by the lowest basic variable index.  Returns None
    at optimality, else the entering column of an unbounded ray.
    """
    while True:
        enter = min((j for j, v in rows[-1].items() if v < 0 and j < ncols),
                    default=None)
        if enter is None:
            return None
        r = _leaving((row.get(end, 0), row[enter], b, r)
                     for r, (row, b) in enumerate(zip(rows, basis))
                     if b < end and row.get(enter, 0) > 0)
        if r is None:
            return enter
        _pivot(rows, basis, r, enter)


def _solve(sparse, rhs, cost):
    """Two-phase simplex for min c.x, A x = b, x >= 0.

    The tableau is exact and fraction-free: each row is a dict of its
    nonzero int entries over one positive denominator, the row's entry
    at its basic column.  Columns t..t+k-1 are the artificials, t+k the
    rhs, and t+k+1 and t+k+2 the identity columns that make the phase-2
    and the phase-1 objective rows basic, so each holds its row's
    denominator.  A constraint row is built from its pairs over the lcm
    of its denominators; Fractions appear again only at readout.  Signs,
    ratio tests and so Bland's pivots are those of the same tableau over
    Fractions.  The two objective rows below the constraint rows start
    as the reduced costs of the all-artificial basis: the costs, and 1
    on each artificial minus the sum of the constraint rows.

    Returns a dict with status "optimal" (x, value, dual), "unbounded"
    (ray), or "infeasible" (farkas).  The phase-1 row, popped after
    phase 1, gives the residue and the Farkas vector, and the final
    phase-2 row the value and the dual: an objective row's rhs entry is
    minus its phase's cost, and at artificial column q it is that
    column's phase cost minus y_q, where y is in the scaled row
    orientation and is unscaled back to the caller's.
    """
    k = len(sparse)
    t = len(cost)
    end = t + k
    scale = [1 if b >= 0 else -1 for b in rhs]
    rows = []
    for i, (pairs, b, s) in enumerate(zip(sparse, rhs, scale)):
        pairs = (*pairs, (end, b))
        d, ints = scaled(v for _, v in pairs)
        row = {c: s * v for (c, _), v in zip(pairs, ints) if v}
        row[t + i] = d
        rows.append(row)
    den = lcm(*(row[t + i] for i, row in enumerate(rows)))
    phase1 = dict.fromkeys([*range(t, end), end + 2], den)
    for i, row in enumerate(rows):
        f = den // row[t + i]
        for c, v in row.items():
            phase1[c] = phase1.get(c, 0) - f * v
    phase1 = {c: v for c, v in phase1.items() if v}
    d, ints = scaled(cost)
    obj = {j: c for j, c in enumerate(ints) if c}
    obj[end + 1] = d
    rows += [obj, _primitive(phase1, end + 2)]
    basis = [t + i for i in range(k)] + [end + 1, end + 2]
    _pivot_loop(rows, basis, end, end)
    obj = rows.pop()
    den = obj[basis.pop()]
    if obj.get(end, 0) < 0:
        y = [scale[q] * (1 - Fraction(obj.get(t + q, 0), den))
             for q in range(k)]
        return {"status": "infeasible", "farkas": tuple(y)}

    # Pivot leftover artificials out wherever a real column is available;
    # rows that stay artificial-basic are identically zero on real
    # columns and inert from here on.
    for r in range(k):
        if basis[r] >= t:
            piv = min((j for j in rows[r] if j < t), default=None)
            if piv is not None:
                _pivot(rows, basis, r, piv)

    enter = _pivot_loop(rows, basis, t, end)
    obj, den = rows[-1], rows[-1][end + 1]
    if enter is not None:
        ray = [Fraction(0)] * t
        ray[enter] = Fraction(1)
        for r in range(k):
            if basis[r] < t and enter in rows[r]:
                ray[basis[r]] = -Fraction(rows[r][enter], rows[r][basis[r]])
        return {"status": "unbounded", "ray": tuple(ray)}
    x = [Fraction(0)] * t
    for r in range(k):
        if basis[r] < t:
            x[basis[r]] = Fraction(rows[r].get(end, 0), rows[r][basis[r]])
    dual = [-scale[q] * Fraction(obj.get(t + q, 0), den) for q in range(k)]
    return {"status": "optimal", "x": tuple(x),
            "value": -Fraction(obj.get(end, 0), den), "dual": tuple(dual)}


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
    objective = exact("minimize_linear objective", objective, LPError)
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
    Pure recomputation; never trusts solver state.  y, b and the
    coefficients of A are each scaled to ints over one positive
    denominator, so both products are int sums with the signs of the
    rational ones.
    """
    if mode not in ("nonneg", "strict"):
        raise LPError("unknown certificate mode %r" % (mode,))
    y = exact("verify_certificate y", y, LPError)
    if len(y) != sys.row_count:
        return False
    _, ys = scaled(y)
    _, bs = scaled(sys.rhs)
    ydotb = sum(map(mul, ys, bs))
    _, coeffs = scaled(v for row in sys.rows for _, v in row)
    coeffs = iter(coeffs)
    aty = [0] * sys.col_count
    for yi, row in zip(ys, sys.rows):
        for (c, _), v in zip(row, coeffs):
            aty[c] += yi * v
    if any(w > 0 for w in aty):
        return False
    if mode == "nonneg":
        return ydotb > 0
    return ydotb > 0 or (ydotb == 0 and any(w < 0 for w in aty))
