"""Exact rational linear programming with verified infeasibility certificates.

A two-phase tableau simplex with Bland's rule (deterministic,
cycle-free), exact and with no floating point anywhere.  A system is
held once as ints: its rows over one positive denominator and its rhs
over another.  Two doors lead to that form: `LinearSystem.of`, through
`_rational`'s gate, and the ungated `_of_ints`, for the package's rows.
Answers are fractions.Fraction, built when first read: x, the ray and
the Farkas vector are kept in the (den, ints) form they are read off in,
reduced, as the ``_scaled`` of `_rational.ScaledVector`, for the
package's readers, and a Solution, an Optimum, an Unbounded or a
Certificate builds their Fractions by `_rational.unscaled` when a field
is first read; the optimum is a Fraction from the start.  The tableau is
fraction-free and sparse, each row a dict of its nonzero ints whose
entry at the row's basic column is its positive denominator.  A pivot
is `_linalg`'s elimination step, the one the echelon form takes, and
keeps every row primitive, so it costs int operations, not Fraction
objects.
Below the constraint rows the tableau carries the phase-2 and then the
phase-1 objective row: the reduced cost of every column, then minus the
cost of the current basic solution.  Both are built once and only pivots
change them; the residue, the optimum, the Farkas vector and the dual
are read off them.  With no start given, the tableau begins from the
slack basis: each row that holds a column no other row holds, positive
in the row's sign, has that column basic in place of its artificial,
so a cap row or the margin program's epsilon row costs no phase-1
pivot.  Every column is sign-constrained: nonnegative, or strictly
positive in the margin program.
Three entry points cover what the rest of the package needs: feasibility
of an equality system with sign-constrained variables, strict feasibility
via margin maximization (find x with every constrained entry bounded away
from zero by the largest possible epsilon), and linear minimization over
the same polyhedra.  Both feasibility checks answer with one type,
Solution, whose entries meet the system's column signs: the epsilon is
how a strict point is found, not part of the answer.  Minimization may
start from a known point of the polyhedron, checked exactly against the
system's ints: phase 1 then prices only the columns of its support, and
so ends at residue 0, since the point solves that smaller program.  All
three refuse with one type, the Certificate, whose Farkas vector y a
separate routine re-verifies by plain recomputation, as int sums over the
system's int form and against its column signs, which alone say whether
no x >= 0 or no x > 0 is proved, so no caller has to trust the solver's
internals or name a mode.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from ._linalg import _eliminate, _primitive
from ._rational import ScaledVector, exact_scaled, reduced, unscaled
from ._record import Record

NONNEG = "nonneg"
STRICT_POS = "strict-pos"

_SIGNS = (NONNEG, STRICT_POS)


class LPError(ValueError):
    """Raised for malformed systems or violated preconditions."""


class LinearSystem(Record):
    """Rational equality system A x = b with a sign constraint per column,
    held once as ints.

    ``scaled_rows`` is (den, rows): each row of A as the sorted (column,
    int) pairs of its nonzeros, every entry over the one positive den.
    ``scaled_rhs`` is (den, ints), b over its own positive den.  Both
    denominators are the least that hold their entries, so equal systems
    compare equal, built by `of`, the gate for callers' numbers, or by
    `_of_ints`, for the package's.  ``rhs`` and the dense ``coeffs`` are
    Fraction views for readers outside the package, derived and kept.
    """
    scaled_rows: tuple
    scaled_rhs: tuple
    signs: tuple

    @classmethod
    def of(cls, rows, rhs, signs):
        """Pairs on the same column add up, and zero sums are dropped.
        Coefficients and rhs entries are ints or Fractions."""
        bden, b = exact_scaled("LinearSystem.of rhs", rhs, LPError)
        try:
            rows, sg = tuple(rows), tuple(signs)
        except TypeError:
            raise LPError("LinearSystem.of takes a sequence of rows and one "
                          "of signs, not %r and %r" % (rows, signs)) from None
        if len(rows) != len(b):
            raise LPError("row count does not match rhs length")
        for s in sg:
            if s not in _SIGNS:
                raise LPError("unknown sign constraint %r" % (s,))
        ncols = len(sg)
        dens, sums = [], []
        for r, pairs in enumerate(rows):
            where = "LinearSystem.of row %d" % r
            try:
                pairs = tuple(pairs)
                cols = [c for c, _ in pairs]
            except (TypeError, ValueError):
                raise LPError("%s is %r, not (column, value) pairs"
                              % (where, pairs)) from None
            d, values = exact_scaled(where, [v for _, v in pairs], LPError)
            row = {}
            for c, v in zip(cols, values):
                if not (type(c) is int and 0 <= c < ncols):
                    raise LPError("no column %r" % (c,))
                row[c] = row.get(c, 0) + v
            dens.append(d)
            sums.append(row)
        den = lcm(*dens)
        sparse = [[(c, v * (den // d)) for c, v in sorted(row.items()) if v]
                  for d, row in zip(dens, sums)]
        g = gcd(den, *(v for row in sparse for _, v in row))
        kept = tuple(tuple((c, v // g) for c, v in row) for row in sparse)
        return cls(scaled_rows=(den // g, kept), scaled_rhs=reduced(bden, b),
                   signs=sg)

    @classmethod
    def _of_ints(cls, rows, rhs, signs, rhs_den: int = 1):
        """No gate: rows are tuples of (column, int) pairs, columns
        ascending and distinct, no zero, over den 1; rhs ints over rhs_den.
        For the package's own builders, as `NormalCoordinate._of_scaled`."""
        return cls(scaled_rows=(1, tuple(rows)),
                   scaled_rhs=reduced(rhs_den, rhs), signs=tuple(signs))

    @cached_property
    def rhs(self) -> tuple:
        return unscaled(*self.scaled_rhs)

    @cached_property
    def coeffs(self) -> tuple:
        """The dense rows: a view for readers outside the package."""
        den, rows = self.scaled_rows
        return tuple(
            tuple(row.get(c, Fraction(0)) for c in range(self.col_count))
            for row in ({c: Fraction(v, den) for c, v in row} for row in rows))

    @property
    def row_count(self) -> int:
        return len(self.scaled_rhs[1])

    @property
    def col_count(self) -> int:
        return len(self.signs)


class Certificate(Record, ScaledVector):
    """Farkas vector over the rows of the system it refutes."""
    y: tuple
    _vector = {"y": 1}
    _error = LPError


class Solution(Record, ScaledVector):
    """A point x with A x = b, exact, whose entries meet its system's
    column signs: >= 0, or > 0 on a strict-pos column."""
    x: tuple
    _vector = {"x": 1}
    _error = LPError


class Optimum(Record, ScaledVector):
    """The least value of the objective and a point x that attains it."""
    value: Fraction
    x: tuple
    _vector = {"x": 1}
    _error = LPError

    def __post_init__(self):
        exact_scaled("Optimum value", (self.value,), LPError)
        super().__post_init__()


class Unbounded(Record, ScaledVector):
    """A ray along which the objective falls without bound."""
    ray: tuple
    _vector = {"ray": 1}
    _error = LPError


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


def _pivot_loop(rows, basis, cols, end: int):
    """Run Bland-rule simplex to optimality or an unbounded column.

    Entering variable: the lowest-index column in cols with negative
    reduced cost in the objective row.  Leaving variable: minimum ratio
    of the rhs column end over the constraint rows, the rows basic below
    end, ties broken by the lowest basic variable index.  Returns None
    at optimality, else the entering column of an unbounded ray.
    """
    while True:
        enter = min((j for j, v in rows[-1].items() if v < 0 and j in cols),
                    default=None)
        if enter is None:
            return None
        r = _leaving((row.get(end, 0), row[enter], b, r)
                     for r, (row, b) in enumerate(zip(rows, basis))
                     if b < end and row.get(enter, 0) > 0)
        if r is None:
            return enter
        _pivot(rows, basis, r, enter)


def _tableau(a, b, cost, slack: bool):
    """The starting tableau, and the sign each row was multiplied by to
    make its rhs nonnegative.

    a, b and cost are (den, ints) forms: the rows of A as (column, int)
    pairs, then b and the costs.  Row i is A_i and b_i, both brought over
    a's den times b's, with that product at its artificial column t + i:
    one denominator for every constraint row.  Below them are the
    phase-2 row, the costs over their den at column t + k + 1, and the
    phase-1 row, 1 on each artificial minus the sum of the rows whose
    artificial is basic, made primitive, at column t + k + 2.

    With slack, the slack-basis start: a row that holds a column with no
    nonzero in any other row, positive after the row's sign, starts with
    its lowest such column basic in place of its artificial, the row
    made primitive there, and the phase-2 row priced out at it.  Its
    value there is the row's rhs over a positive entry, so the start is
    feasible; its artificial stays in the row, nonbasic at cost 1, so
    the readouts are those of the all-artificial start.
    """
    (aden, arows), (bden, bs), (cden, cs) = a, b, cost
    k, t = len(bs), len(cs)
    end = t + k
    den = aden * bden
    scale = [1 if v >= 0 else -1 for v in bs]
    rows = []
    for i, (pairs, v, s) in enumerate(zip(arows, bs, scale)):
        row = {c: s * bden * w for c, w in pairs}
        if v:
            row[end] = s * aden * v
        row[t + i] = den
        rows.append(row)
    obj = {j: v for j, v in enumerate(cs) if v}
    obj[end + 1] = cden
    basis = [t + i for i in range(k)]
    if slack:
        held, again = set(), set()
        for pairs in arows:
            for c, _ in pairs:
                if c in held:
                    again.add(c)
                held.add(c)
        held -= again
        for i, row in enumerate(rows if held else ()):
            j = min((c for c in held.intersection(row) if row[c] > 0),
                    default=None)
            if j is not None:
                basis[i] = j
                rows[i] = _primitive(row, j)
                if j in obj:
                    obj = _primitive(_eliminate(obj, rows[i], j), end + 1)
    phase1 = dict.fromkeys([*range(t, end), end + 2], den)
    for row, b in zip(rows, basis):
        if b >= t:
            for c, v in row.items():
                phase1[c] = phase1.get(c, 0) - v
    phase1 = {c: v for c, v in phase1.items() if v}
    rows += [obj, _primitive(phase1, end + 2)]
    return rows, basis + [end + 1, end + 2], scale


def _basic_values(rows, basis, t: int, col: int) -> tuple:
    """(den, ints): per real column, the entry at col of the row it is
    basic in over that row's denominator, 0 off the basis; over the lcm
    of those denominators."""
    den = lcm(*(row[b] for row, b in zip(rows, basis) if b < t))
    ints = [0] * t
    for row, b in zip(rows, basis):
        if b < t:
            ints[b] = row.get(col, 0) * (den // row[b])
    return den, ints


def _solve(a, b, cost, cols=None):
    """Two-phase simplex for min c.x, A x = b, x >= 0.

    The tableau is exact and fraction-free: each row is a dict of its
    nonzero int entries over one positive denominator, the row's entry
    at its basic column.  Columns t..t+k-1 are the artificials, t+k the
    rhs, and t+k+1 and t+k+2 the identity columns that make the phase-2
    and the phase-1 objective rows basic, so each holds its row's
    denominator.  A, b and the costs come in as (den, ints) forms and
    `_tableau` lays them out; no Fraction is built until readout.  Signs,
    ratio tests and so Bland's pivots are those of the same tableau over
    Fractions: a positive factor on a row changes none of them.

    Returns a dict with status "optimal" (x, value, dual), "unbounded"
    (ray), or "infeasible" (farkas); each vector is a (den, ints) form
    and the value a Fraction.  The phase-1 row, popped after phase 1,
    gives the residue and the Farkas vector, and the final phase-2 row
    the value and the dual: an objective row's rhs entry is minus its
    phase's cost, and at artificial column q it is that column's phase
    cost minus y_q, where y is in the sign-scaled row orientation and is
    unscaled back to the caller's.

    Phase 1 prices the columns in cols, every real and artificial one by
    default, and then starts from the slack basis; given cols, it starts
    from the all-artificial one.  Phase 2 prices every real column.
    """
    rows, basis, scale = _tableau(a, b, cost, slack=cols is None)
    k = len(scale)
    t = len(cost[1])
    end = t + k
    _pivot_loop(rows, basis, range(end) if cols is None else cols, end)
    obj = rows.pop()
    den = obj[basis.pop()]
    if obj.get(end, 0) < 0:
        y = [s * (den - obj.get(t + q, 0)) for q, s in enumerate(scale)]
        return {"status": "infeasible", "farkas": (den, y)}

    # Pivot leftover artificials out wherever a real column is available;
    # rows that stay artificial-basic are identically zero on real
    # columns and inert from here on.
    for r in range(k):
        if basis[r] >= t:
            piv = min((j for j in rows[r] if j < t), default=None)
            if piv is not None:
                _pivot(rows, basis, r, piv)

    enter = _pivot_loop(rows, basis, range(t), end)
    obj = rows.pop()
    den = obj[basis.pop()]
    if enter is not None:
        d, ray = _basic_values(rows, basis, t, enter)
        ray = [-v for v in ray]
        ray[enter] = d
        return {"status": "unbounded", "ray": (d, ray)}
    dual = [-s * obj.get(t + q, 0) for q, s in enumerate(scale)]
    return {"status": "optimal", "x": _basic_values(rows, basis, t, end),
            "value": -Fraction(obj.get(end, 0), den), "dual": (den, dual)}


def _nonneg(sys: LinearSystem) -> None:
    """Refuse strict-pos columns outside the margin program."""
    if STRICT_POS in sys.signs:
        raise LPError("strict-pos columns belong to solve_feasibility_strict")


def _verified(sys: LinearSystem, y) -> Certificate:
    """The certificate of the (den, ints) form y, once
    verify_certificate has accepted its ints, which a positive den does
    not change the signs of."""
    if not verify_certificate(sys, y[1]):
        raise LPError("internal error: emitted certificate failed "
                      "verification")
    return Certificate._of_scaled(*y)


def solve_feasibility_nonneg(sys: LinearSystem):
    """Find x with A x = b and x >= 0, or refute it.

    The refutation is a Certificate: y with A^T y <= 0 and y.b > 0.
    """
    _nonneg(sys)
    res = _solve(sys.scaled_rows, sys.scaled_rhs, (1, (0,) * sys.col_count))
    if res["status"] == "infeasible":
        return _verified(sys, res["farkas"])
    return Solution._of_scaled(*res["x"])


def solve_feasibility_strict(sys: LinearSystem):
    """Find x with A x = b and every entry strictly positive, or refute it.

    Solves the auxiliary program: maximize epsilon subject to
    A(u + epsilon 1) = b, u >= 0, 0 <= epsilon <= 1.  The cap keeps the
    program bounded without affecting the sign of the optimum.  A
    positive optimum yields the Solution x = u + epsilon 1, every entry
    at least epsilon; otherwise the dual of the auxiliary program is the
    Certificate returned, which may cut with y.b = 0 since every
    column is strict-pos.  The epsilon column of a row is the sum of its
    ints, over the rows' den.
    """
    if any(s != STRICT_POS for s in sys.signs):
        raise LPError("strict feasibility requires all strict-pos columns")
    k = sys.row_count
    t = sys.col_count
    den, rows = sys.scaled_rows
    rows = [(*row, (t, m)) if (m := sum(v for _, v in row)) else row
            for row in rows]
    rows.append(((t, den), (t + 1, den)))
    bden, bs = sys.scaled_rhs
    res = _solve((den, rows), (bden, (*bs, bden)),
                 (1, (0,) * t + (-1, 0)))
    if res["status"] == "infeasible":
        d, y = res["farkas"]
    else:
        d, x = res["x"]
        eps = x[t]
        if eps > 0:
            return Solution._of_scaled(d, [v + eps for v in x[:t]])
        d, y = res["dual"]
    return _verified(sys, (d, y[:k]))


def _checked_start(sys: LinearSystem, start) -> tuple:
    """(den, ints): start through the gate, once it has one entry per
    column, none negative, and A x = b holds as int sums over the
    system's int form: row . x over aden * den against b over bden."""
    den, xs = exact_scaled("minimize_linear start", start, LPError)
    if len(xs) != sys.col_count:
        raise LPError("start length does not match column count")
    if any(v < 0 for v in xs):
        raise LPError("start has a negative entry")
    aden, rows = sys.scaled_rows
    bden, bs = sys.scaled_rhs
    if any(bden * sum(v * xs[c] for c, v in row) != aden * den * b
           for row, b in zip(rows, bs)):
        raise LPError("start does not solve the system")
    return den, xs


def minimize_linear(objective, sys: LinearSystem, start=None):
    """Exact minimum of objective.x over {A x = b, x >= 0}.

    With a start, a point of that polyhedron checked exactly here (any
    failure raises LPError), phase 1 prices only the start's support.
    The start solves that restricted program, so Bland's rule ends it at
    residue 0; a residue left there is an internal LPError.
    """
    cost = exact_scaled("minimize_linear objective", objective, LPError)
    if len(cost[1]) != sys.col_count:
        raise LPError("objective length does not match column count")
    _nonneg(sys)
    cols = None
    if start is not None:
        cols = {j for j, v in enumerate(_checked_start(sys, start)[1]) if v}
    res = _solve(sys.scaled_rows, sys.scaled_rhs, cost, cols)
    if res["status"] == "infeasible":
        if cols is not None:
            raise LPError("internal error: phase 1 over the start's "
                          "support left a residue")
        return _verified(sys, res["farkas"])
    if res["status"] == "unbounded":
        return Unbounded._of_scaled(*res["ray"])
    return Optimum._of_scaled(*res["x"], value=res["value"])


def verify_certificate(sys: LinearSystem, y) -> bool:
    """Recompute the Farkas sign conditions against the system's signs.

    A^T y <= 0 on every column, and either y.b > 0, or y.b = 0 with
    A^T y < 0 on some strict-pos column: no x >= 0 (> 0 on its
    strict-pos columns) then solves A x = b, by Motzkin's transposition
    theorem read column by column.  On an all-nonneg system that is
    y.b > 0; on an all-strict-pos one, y.b > 0 or a negative column.
    Pure recomputation; never trusts solver state.  y is scaled to ints
    over one positive denominator and read against the system's int
    form, so both products are int sums with the signs of the rational
    ones.
    """
    _, ys = exact_scaled("verify_certificate y", y, LPError)
    if len(ys) != sys.row_count:
        return False
    ydotb = sum(map(mul, ys, sys.scaled_rhs[1]))
    aty = [0] * sys.col_count
    for yi, row in zip(ys, sys.scaled_rows[1]):
        if yi:
            for c, v in row:
                aty[c] += yi * v
    if any(w > 0 for w in aty):
        return False
    return ydotb > 0 or (ydotb == 0 and any(
        w < 0 for w, s in zip(aty, sys.signs) if s == STRICT_POS))
