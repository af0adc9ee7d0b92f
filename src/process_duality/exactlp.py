"""Exact rational linear programming.

Two-phase primal simplex with Bland's anti-cycling rule on a fraction-free
integer tableau.  Each constraint row is a positive integer multiple of its
Gauss-Jordan row and the objective row is held as integers over one positive
denominator (see `_kernel`), so every sign and ratio, and hence every pivot,
is that of the rational tableau.  The basic point is read off the final
constraint rows, the dual multipliers off the final objective row at each
row's initial basic column.

A variable is free or, when the system lists it in `nonneg`, nonnegative.
The tableau's columns are, in order: one per variable (x_j itself, or x_j+
for a free variable); one mirror column x_j- per free variable, in variable
order; one slack per LE row; the artificials.  So a nonnegative variable
costs one column and no row: its bound is the column's own sign constraint,
and its multiplier is the column's reduced cost.  A system with no
nonnegative variable gets the x+ / x- split of every variable.

Every outcome carries a certificate that is re-checked exactly before it is
returned: OPTIMAL is checked for feasibility, dual signs, stationarity,
complementary slackness and strong duality; INFEASIBLE carries a Farkas
vector, read off the phase-1 objective row the same way as the duals;
UNBOUNDED carries a feasible point and a recession ray along which the
objective improves, read off the phase-2 entering column with no positive
entry.
Whether an optimum is unique is no part of an outcome: the one reader of
that, `polyhedra.l1_minimal_point`, decides it from the multipliers.
The check runs on integers and reads the system, never the tableau: each row
is the system's own integer form, the row times the lcm of its own
denominators, which is computed once per system and also seeds the tableau;
the point is written over one common denominator, and the multipliers, each
divided by its row's scale, over another.  Every identity, scaled by these
positive integers, is then an integer identity with the same truth value
(Applegate, Cook, Dash & Espinoza 2007, "Exact solutions to linear
programming problems").

Strict-inequality feasibility is decided by maximizing a shared slack added to
every strict row: the system has a strictly feasible point iff the optimal
slack is positive.  No epsilons, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Optional

from . import _kernel
from .errors import DimensionMismatch, InternalConsistencyError
from .rational import (
    ONE,
    ZERO,
    Vec,
    integer_holds,
    integer_rows,
    integer_scaled,
    quotients,
    rat,
    vec,
)

Row = tuple[Vec, Fraction]


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _rows(dim: int, rows) -> tuple[Row, ...]:
    out = []
    for normal, rhs in rows:
        normal = vec(normal)
        if len(normal) != dim:
            raise DimensionMismatch(
                f"row width {len(normal)} does not match dimension {dim}"
            )
        out.append((normal, rat(rhs)))
    return tuple(out)


def _nonneg(dim: int, indices) -> tuple[int, ...]:
    """The variable indices sorted and without repeats, each below dim."""
    out = tuple(sorted(set(indices)))
    if out and not 0 <= out[0] <= out[-1] < dim:
        raise DimensionMismatch(f"nonnegative variable out of range in dimension {dim}")
    return out


@dataclass(frozen=True)
class LinearSystem:
    """A·x <= b, E·x = d, C·x < s over a common ambient dimension, and
    x_j >= 0 for each variable j in `nonneg` (held sorted)."""

    dim: int
    le: tuple[Row, ...] = ()
    eq: tuple[Row, ...] = ()
    strict: tuple[Row, ...] = ()
    nonneg: tuple[int, ...] = field(default=(), kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "le", _rows(self.dim, self.le))
        object.__setattr__(self, "eq", _rows(self.dim, self.eq))
        object.__setattr__(self, "strict", _rows(self.dim, self.strict))
        object.__setattr__(self, "nonneg", _nonneg(self.dim, self.nonneg))

    def extended(self, le=(), eq=(), strict=(), nonneg=()) -> "LinearSystem":
        """This system plus the given rows and nonnegative variables; only
        the added rows are coerced, the held ones were when this system was
        built."""
        out = object.__new__(LinearSystem)
        object.__setattr__(out, "dim", self.dim)
        object.__setattr__(out, "le", self.le + _rows(self.dim, le))
        object.__setattr__(out, "eq", self.eq + _rows(self.dim, eq))
        object.__setattr__(out, "strict", self.strict + _rows(self.dim, strict))
        object.__setattr__(out, "nonneg", _nonneg(self.dim, self.nonneg + tuple(nonneg)))
        return out

    @staticmethod
    def from_integer_rows(dim, le=(), eq=(), strict=()) -> "LinearSystem":
        """The system of rows given as `integer_rows` (a, b, s), s > 0 any
        positive multiple, not only the least one: each row is read off as
        (a / s, b / s) and the rows given are kept as its `integer_form`, so
        the two forms agree by construction and nothing is scaled again."""
        out = object.__new__(LinearSystem)
        object.__setattr__(out, "dim", dim)
        for name, rows in (("le", le), ("eq", eq), ("strict", strict)):
            object.__setattr__(out, name, tuple(
                (quotients(a, s), Fraction(b, s)) for a, b, s in rows
            ))
        object.__setattr__(out, "nonneg", ())
        object.__setattr__(out, "integer_form", (tuple(le), tuple(eq), tuple(strict)))
        return out

    @cached_property
    def integer_form(self):
        """(le, eq, strict) as `integer_rows`, each row times the lcm of its
        own denominators; computed on first read and kept with the system."""
        return integer_rows(self.le), integer_rows(self.eq), integer_rows(self.strict)

    def holds_at(self, x, d) -> bool:
        """Do all rows and bounds hold at the point x / d (integers x,
        d > 0), the strict rows strictly?"""
        if self.nonneg and any(x[j] < 0 for j in self.nonneg):
            return False
        return integer_holds(x, d, *self.integer_form)


@dataclass(frozen=True)
class LpOutcome:
    """OPTIMAL carries the point, the value, the duals and one multiplier
    per nonnegative variable (`dual_bound`, in `nonneg` order); INFEASIBLE
    carries a Farkas vector: farkas_le >= 0, A^T.farkas_le + E^T.farkas_eq
    zero on each free variable and >= 0 on each nonnegative one, and
    b.farkas_le + d.farkas_eq < 0;
    UNBOUNDED carries a feasible point and a recession ray d: A.d <= 0,
    E.d = 0, d >= 0 on the nonnegative variables and c.d < 0 (min) / > 0
    (max)."""

    status: LpStatus
    primal_point: Optional[Vec] = None
    objective_value: Optional[Fraction] = None
    dual_le: Optional[Vec] = None
    dual_eq: Optional[Vec] = None
    farkas_le: Optional[Vec] = None
    farkas_eq: Optional[Vec] = None
    ray: Optional[Vec] = None
    dual_bound: Optional[Vec] = None


@dataclass(frozen=True)
class StrictFeasibility:
    feasible: bool
    witness: Optional[Vec] = None

    def __bool__(self) -> bool:
        return self.feasible


def _simplex(tab, basis, limit) -> Optional[int]:
    """Bland's rule on columns below `limit`; None at an optimum, else the
    entering column that no row bounds (no positive entry): unbounded.

    Entering: the lowest column with a negative reduced cost.  Leaving: the
    minimum ratio rhs_i / tab[i][e] over tab[i][e] > 0, ties to the smallest
    basic column.  Positive row scaling changes neither choice."""
    m = len(tab) - 1
    rhs = len(tab[m]) - 2
    while True:
        obj = tab[m]
        e = next((j for j in range(limit) if obj[j] < 0), -1)
        if e < 0:
            return None
        best = -1
        for i in range(m):
            a = tab[i][e]
            if a <= 0:
                continue
            b = tab[i][rhs]
            if best >= 0:
                lhs = b * best_a
                right = best_b * a
                if lhs > right or (lhs == right and basis[i] > basis[best]):
                    continue
            best, best_b, best_a = i, b, a
        if best < 0:
            return e
        _kernel.pivot(tab, best, e)
        basis[best] = e


def _objective_row(cost, tab, basis):
    """Reduced-cost row of integer `cost` (its last entry is the denominator)
    over the basis: eliminate each basic column with its row."""
    obj = cost
    for i, b in enumerate(basis):
        if obj[b]:
            obj = _kernel.eliminate(obj, tab[i], b)
    return obj


def _read_multipliers(obj, init_col, init_cost, flipped) -> list[Fraction]:
    """Multipliers of the rows as given, read off the objective row.

    The row is cost - pi^T.[A | b] over its denominator, where pi are the
    multipliers of the flipped standard-form rows.  Row k's initial basic
    column is its unit vector, so pi_k = init_cost_k - obj[col_k] / den.
    Returns -pi_k, and pi_k for a flipped row."""
    den = obj[-1]
    out = []
    for col, cost, flip in zip(init_col, init_cost, flipped):
        v = Fraction(obj[col] - cost * den, den)
        out.append(-v if flip else v)
    return out


def lp_solve(objective, system: LinearSystem, sense: str = "min") -> LpOutcome:
    """Exact optimum of a linear objective over an LE/EQ system with its
    nonnegative variables.

    On OPTIMAL the returned point is basic (a vertex or a point on a minimal
    face) and the multipliers certify optimality exactly: dual_le >= 0,
    dual_bound >= 0, A^T.dual_le + E^T.dual_eq - dual_bound (on the
    nonnegative variables) = -c (min) / +c (max), exact complementary
    slackness, and equal primal and dual objective values.  On INFEASIBLE
    the outcome carries an exactly checked Farkas vector, and on UNBOUNDED
    an exactly checked feasible point and improving ray.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"unknown sense {sense!r}")
    if system.strict:
        raise ValueError("lp_solve does not accept strict rows")
    c = vec(objective)
    n = system.dim
    if len(c) != n:
        raise DimensionMismatch(f"objective width {len(c)} != dimension {n}")
    cmin = c if sense == "min" else tuple(-x for x in c)

    le, eq, _ = system.integer_form
    rows = le + eq
    m = len(rows)
    n_le = len(system.le)
    flipped = [b < 0 for _, b, _ in rows]
    bounded = set(system.nonneg)
    free = [j for j in range(n) if j not in bounded]

    # Columns: x (n), one mirror x- per free variable, one slack per LE row,
    # artificials as needed, then the right-hand side and the objective
    # denominator.  A row's initial basic column is the slack of an unflipped
    # LE row, otherwise its artificial.
    n_x = n + len(free)
    art_start = n_x + n_le
    init_col = []
    n_art = 0
    for i in range(m):
        if i >= n_le or flipped[i]:
            init_col.append(art_start + n_art)
            n_art += 1
        else:
            init_col.append(n_x + i)
    width = art_start + n_art

    # Each row of the flipped standard form, times its row's scale s.
    tab = []
    for i, (a, b, scale) in enumerate(rows):
        sign = -1 if flipped[i] else 1
        line = [0] * (width + 2)
        for j, q in enumerate(a):
            if q:
                line[j] = sign * q
        for k, j in enumerate(free):
            line[n + k] = -line[j]
        if i < n_le:
            line[n_x + i] = sign * scale
        line[init_col[i]] = scale
        line[width] = sign * b
        tab.append(line)
    basis = list(init_col)

    # Phase 1: minimize the sum of artificials.
    cost = [0] * (width + 2)
    cost[art_start:width] = [1] * n_art
    cost[-1] = 1
    tab.append(_objective_row(cost, tab, basis))
    if _simplex(tab, basis, width) is not None:
        raise InternalConsistencyError("phase 1 cannot be unbounded")
    if tab[m][width] != 0:
        init_cost = [int(col >= art_start) for col in init_col]
        y = _read_multipliers(tab[m], init_col, init_cost, flipped)
        result = LpOutcome(LpStatus.INFEASIBLE, farkas_le=tuple(y[:n_le]),
                           farkas_eq=tuple(y[n_le:]))
        verify_outcome(c, system, sense, result)
        return result

    # Drive artificials out of the basis; drop rows that became redundant.
    # A pivot entry here may be negative; its row's right-hand side is 0.
    drop = []
    for i in range(m):
        if basis[i] >= art_start:
            row = tab[i]
            piv_j = next((j for j in range(art_start) if row[j] != 0), None)
            if piv_j is None:
                drop.append(i)
            else:
                _kernel.pivot(tab, i, piv_j)
                basis[i] = piv_j
    kept = [i for i in range(m) if i not in drop]  # the objective row goes too
    tab = [tab[i] for i in kept]
    basis = [basis[i] for i in kept]

    # Phase 2 objective over the current basis.
    cints, cden = integer_scaled(cmin)
    cost = [0] * (width + 2)
    cost[:n] = cints
    cost[n:n_x] = [-cints[j] for j in free]
    cost[-1] = cden
    tab.append(_objective_row(cost, tab, basis))
    e = _simplex(tab, basis, art_start)

    point = _read_x(tab, basis, n, free, lambda row, b: Fraction(row[width], row[b]))
    if e is not None:
        # Column e enters at rate 1, so basic column b moves at -row[e] / row[b]
        # >= 0 (each row is a positive multiple of its Gauss-Jordan row).
        ray = _read_x(tab, basis, n, free, lambda row, b: Fraction(-row[e], row[b]))
        if e < n:
            ray[e] += ONE
        elif e < n_x:
            ray[free[e - n]] -= ONE
        result = LpOutcome(LpStatus.UNBOUNDED, tuple(point), ray=tuple(ray))
        verify_outcome(c, system, sense, result)
        return result
    obj = tab[-1]
    den = obj[-1]
    value_min = Fraction(-obj[width], den)
    value = value_min if sense == "min" else -value_min

    # Phase-2 costs vanish at the initial basic columns.  An artificial left
    # basic in a dropped row is 0 in every kept row, so its row reads 0.  A
    # nonnegative variable's multiplier is its column's reduced cost.
    y = _read_multipliers(obj, init_col, [0] * m, flipped)
    bound = tuple(Fraction(obj[j], den) for j in system.nonneg)
    result = LpOutcome(LpStatus.OPTIMAL, tuple(point), value,
                       tuple(y[:n_le]), tuple(y[n_le:]), dual_bound=bound)
    verify_outcome(c, system, sense, result)
    return result


def _read_x(tab, basis, n, free, value) -> list[Fraction]:
    """x = x+ - x- over the basic columns of the constraint rows, basic
    column b taking value(row, b); nonbasic columns are 0.  Column j < n is
    x_j (x_j+ when free), and column n + k is x_j- of the free variable
    j = free[k]."""
    x = [ZERO] * n
    for row, b in zip(tab, basis):
        if b < n:
            x[b] += value(row, b)
        elif b < n + len(free):
            x[free[b - n]] -= value(row, b)
    return x


def _integer_combination(rows, weights, dim) -> tuple[list[int], int, int]:
    """(A^T.W, b.W, M) over integer rows (a, b, s) with M > 0 and
    W_i / M = weights_i / s_i, so A^T.W / M and b.W / M are the weighted
    sums of the rows as given: the weights over their common denominator d,
    each times S / s_i for S the lcm of the scales, and M = d.S.  Zero
    weights are skipped."""
    ints, d = integer_scaled(weights)
    scale = lcm(*(s for w, (_, _, s) in zip(ints, rows) if w))
    total = [0] * dim
    rhs = 0
    for w, (a, b, s) in zip(ints, rows):
        if w:
            k = w * (scale // s)
            rhs += k * b
            for j, aj in enumerate(a):
                if aj:
                    total[j] += k * aj
    return total, rhs, d * scale


def _fits(system: LinearSystem, y, mu) -> bool:
    """One multiplier per LE row and one per EQ row."""
    return (y is not None and mu is not None
            and len(y) == len(system.le) and len(mu) == len(system.eq))


def verify_outcome(objective, system: LinearSystem, sense: str, out: LpOutcome):
    """Exact certificate check of an outcome; raises on any violated
    identity.  An UNBOUNDED outcome's point must satisfy every row and bound
    and its ray d must have A.d <= 0, E.d = 0, d >= 0 on the nonnegative
    variables and c.d < 0 (min) / > 0 (max).

    Every identity is checked on integers: each row as the system's
    `integer_form`, the row times the lcm of its own denominators, the point
    over one common denominator, and the multipliers, each divided by its
    row's scale, over another."""
    dim = system.dim
    nonneg = system.nonneg
    if out.status is LpStatus.INFEASIBLE:
        y, mu = out.farkas_le, out.farkas_eq
        if not _fits(system, y, mu):
            raise InternalConsistencyError("infeasible outcome without a Farkas vector")
        if any(v < 0 for v in y):
            raise InternalConsistencyError("negative Farkas multiplier on an LE row")
        le, eq, _ = system.integer_form
        total, rhs, _ = _integer_combination(le + eq, y + mu, dim)
        bounded = set(nonneg)
        for j, t in enumerate(total):
            if j in bounded:
                if t < 0:
                    raise InternalConsistencyError(
                        "Farkas combination is negative on a nonnegative variable"
                    )
            elif t:
                raise InternalConsistencyError("Farkas combination of the rows is not zero")
        if rhs >= 0:
            raise InternalConsistencyError("Farkas right-hand side is not negative")
        return
    unbounded = out.status is LpStatus.UNBOUNDED
    if unbounded and (out.primal_point is None or out.ray is None):
        raise InternalConsistencyError("unbounded outcome without a point and a ray")
    c, cden = integer_scaled(vec(objective))
    x, xden = integer_scaled(out.primal_point)
    if len(x) != dim:
        raise DimensionMismatch(f"primal point of length {len(x)} in dimension {dim}")
    le, eq, _ = system.integer_form
    # a.x <= b and a.x = b, each times s.xden > 0
    le_dots = [sum(map(mul, a, x)) for a, _, _ in le]
    for ax, (_, b, _) in zip(le_dots, le):
        if ax > b * xden:
            raise InternalConsistencyError("primal point violates an LE row")
    for a, b, _ in eq:
        if sum(map(mul, a, x)) != b * xden:
            raise InternalConsistencyError("primal point violates an EQ row")
    if any(x[j] < 0 for j in nonneg):
        raise InternalConsistencyError("primal point violates a nonnegativity bound")
    sign = -1 if sense == "min" else 1
    if unbounded:
        # the ray over one denominator: A.d <= 0, E.d = 0, sign.c.d > 0
        d, _ = integer_scaled(out.ray)
        if len(d) != dim:
            raise DimensionMismatch(f"ray of length {len(d)} in dimension {dim}")
        if any(sum(map(mul, a, d)) > 0 for a, _, _ in le):
            raise InternalConsistencyError("ray leaves an LE row")
        if any(sum(map(mul, a, d)) != 0 for a, _, _ in eq):
            raise InternalConsistencyError("ray leaves an EQ row")
        if any(d[j] < 0 for j in nonneg):
            raise InternalConsistencyError("ray leaves a nonnegativity bound")
        if sign * sum(map(mul, c, d)) <= 0:
            raise InternalConsistencyError("ray does not improve the objective")
        return
    y = out.dual_le
    mu = out.dual_eq
    nu = out.dual_bound if nonneg else ()
    if not _fits(system, y, mu) or nu is None or len(nu) != len(nonneg):
        raise InternalConsistencyError("optimal outcome without a dual per row")
    if any(v < 0 for v in y):
        raise InternalConsistencyError("negative dual on an LE row")
    if any(v < 0 for v in nu):
        raise InternalConsistencyError("negative multiplier on a nonnegativity bound")
    total, dual_val, m = _integer_combination(le + eq, y + mu, dim)
    # A^T.y + E^T.mu - nu = sign.c, both sides times m.cden.nden, where
    # nu = nints / nden on the nonnegative variables and 0 elsewhere
    nints, nden = integer_scaled(nu)
    at = dict(zip(nonneg, nints))
    for j, (lhs, cj) in enumerate(zip(total, c)):
        if (lhs * nden - at.get(j, 0) * m) * cden != sign * cj * m * nden:
            raise InternalConsistencyError("dual stationarity fails")
    for yi, ax, (_, b, _) in zip(y, le_dots, le):
        if yi != 0 and ax != b * xden:
            raise InternalConsistencyError("complementary slackness fails")
    if any(v and x[j] for j, v in at.items()):
        raise InternalConsistencyError("complementary slackness fails")
    # c.x = cx / (cden.xden) and b.y + d.mu = dual_val / m;
    # sense == "min": c.x == -(b.y + d.mu); sense == "max": c.x == b.y + d.mu
    cx = sum(map(mul, c, x))
    cx_den = cden * xden
    if cx * m != sign * dual_val * cx_den:
        raise InternalConsistencyError("strong duality fails")
    value = out.objective_value
    if value is None or value * cx_den != cx:
        raise InternalConsistencyError("objective value mismatch")


def strict_feasible(system: LinearSystem) -> StrictFeasibility:
    """True iff some point satisfies all LE, EQ, and strict rows and the
    nonnegativity bounds, the strict rows with a literally positive margin.
    Decided by maximizing a shared slack t added to every strict row (capped
    at 1); feasible iff t* > 0."""
    n = system.dim
    le = [(tuple(normal) + (ZERO,), rhs) for normal, rhs in system.le]
    for normal, rhs in system.strict:
        le.append((tuple(normal) + (ONE,), rhs))
    le.append(((ZERO,) * n + (ONE,), ONE))
    eq = [(tuple(normal) + (ZERO,), rhs) for normal, rhs in system.eq]
    ext = LinearSystem(n + 1, tuple(le), tuple(eq), nonneg=system.nonneg)
    objective = (ZERO,) * n + (ONE,)
    out = lp_solve(objective, ext, "max")
    if out.status is LpStatus.INFEASIBLE:
        return StrictFeasibility(False)
    if out.status is not LpStatus.OPTIMAL:
        raise InternalConsistencyError("slack maximization cannot be unbounded")
    if out.objective_value > 0:
        return StrictFeasibility(True, out.primal_point[:n])
    return StrictFeasibility(False)
