"""Exact LP: golden examples, a brute-force vertex oracle, and invariants."""

import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from process_duality import _kernel
from process_duality import exactlp as exactlp_module
from process_duality import polyhedra as polyhedra_module
from process_duality import rational as rational_module
from process_duality.errors import DimensionMismatch, InternalConsistencyError
from process_duality.rational import dot, integer_rows, vec
from process_duality.exactlp import (
    LinearSystem,
    LpStatus,
    lp_solve,
    strict_feasible,
    verify_outcome,
)
from process_duality.polyhedra import (
    functional_system,
    identity_cell,
    l1_minimal_point,
    l1_minimum,
)


def solve_square(rows, rhs):
    """Tiny exact Gaussian solver for the oracle; returns None if singular."""
    n = len(rhs)
    a = [list(map(F, rows[i])) + [F(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def brute_force_optimum(objective, system, sense):
    """Enumerate all basic points (n-subsets of tight rows) of a bounded
    full-dimensional system and scan the objective.  Independent of the
    simplex path."""
    n = system.dim
    rows = [(normal, rhs) for normal, rhs in system.le + system.eq]
    best = None
    for subset in combinations(range(len(rows)), n):
        sol = solve_square([rows[i][0] for i in subset], [rows[i][1] for i in subset])
        if sol is None:
            continue
        ok = all(
            sum(a * x for a, x in zip(normal, sol)) <= rhs
            for normal, rhs in system.le
        ) and all(
            sum(a * x for a, x in zip(normal, sol)) == rhs
            for normal, rhs in system.eq
        )
        if not ok:
            continue
        val = sum(c * x for c, x in zip(objective, sol))
        if best is None or (sense == "min" and val < best) or (
            sense == "max" and val > best
        ):
            best = val
    return best


def test_min_x_nonnegative_identity():
    s = LinearSystem(1, le=[((-1,), 0)])
    out = lp_solve((1,), s, "min")
    assert out.status is LpStatus.OPTIMAL
    assert out.primal_point == (F(0),)
    assert out.objective_value == F(0)


def test_box_max_matches_vertex_enumeration():
    s = LinearSystem(
        2, le=[((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)]
    )
    out = lp_solve((1, 1), s, "max")
    assert out.status is LpStatus.OPTIMAL
    assert out.primal_point == (F(1), F(1))
    # Oracle: enumerate all 4 box vertices.
    assert out.objective_value == brute_force_optimum((F(1), F(1)), s, "max") == F(2)


def test_infeasible_interval():
    s = LinearSystem(1, le=[((-1,), -1), ((1,), 0)])
    out = lp_solve((1,), s)
    assert out.status is LpStatus.INFEASIBLE
    # 1·(-x <= -1) + 1·(x <= 0) gives 0 <= -1.
    assert out.farkas_le == (F(1), F(1))
    assert out.farkas_eq == ()
    verify_outcome((1,), s, "min", out)


def test_inconsistent_equalities_carry_a_farkas_vector():
    s = LinearSystem(2, eq=[((1, 1), 1), ((1, 1), 2)])
    out = lp_solve((0, 0), s)
    assert out.status is LpStatus.INFEASIBLE
    assert out.farkas_eq == (F(1), F(-1))
    verify_outcome((0, 0), s, "min", out)


@pytest.mark.parametrize(
    "farkas_le,farkas_eq",
    [
        ((F(2), F(1)), ()),  # rows no longer cancel
        ((F(-1), F(-1)), ()),  # negative on LE rows
        ((F(0), F(0)), ()),  # right-hand sides combine to 0, not < 0
        ((F(1),), ()),  # wrong length
        (None, None),  # no certificate at all
    ],
)
def test_corrupted_farkas_vector_raises(farkas_le, farkas_eq):
    s = LinearSystem(1, le=[((-1,), -1), ((1,), 0)])
    out = replace(lp_solve((1,), s), farkas_le=farkas_le, farkas_eq=farkas_eq)
    with pytest.raises(InternalConsistencyError):
        verify_outcome((1,), s, "min", out)


# Rows whose denominators have lcm 6, 3, 4, 105 and 15, so each row is scaled
# by its own factor; the optimum lies on row 0 and the equality, with duals
# 1 and 2.
FRACTIONAL = LinearSystem(
    2,
    le=[((F(1, 2), F(1, 3)), F(5, 6)), ((F(-2, 3), 0), 0), ((0, F(-1, 4)), 0),
        ((F(3, 5), F(-1, 7)), F(2, 3))],
    eq=[((F(1, 3), F(-1, 5)), F(1, 15))],
)
FRACTIONAL_OBJECTIVE = (F(-7, 6), F(1, 15))


@pytest.mark.parametrize(
    "corruption,message",
    [
        (dict(primal_point=(F(1), F(2))), "primal point violates an LE row"),
        (dict(primal_point=(F(0), F(0))), "primal point violates an EQ row"),
        (dict(dual_le=(F(1), F(0), F(0))), "optimal outcome without a dual per row"),
        (dict(dual_le=(F(1), F(-1, 3), F(0), F(0))), "negative dual on an LE row"),
        (dict(dual_le=(F(2), F(0), F(0), F(0))), "dual stationarity fails"),
        (dict(dual_eq=(F(5, 2),)), "dual stationarity fails"),
        # feasible and on the equality, but row 0 (dual 1) is not tight
        (dict(primal_point=(F(1, 5), F(0))), "complementary slackness fails"),
        (dict(objective_value=F(-29, 30) + F(1, 7)), "objective value mismatch"),
        (dict(objective_value=None), "objective value mismatch"),
    ],
)
def test_corrupted_optimal_certificate_raises(corruption, message,
                                              fraction_verify_outcome):
    out = lp_solve(FRACTIONAL_OBJECTIVE, FRACTIONAL)
    assert out.primal_point == (F(17, 19), F(22, 19))
    assert (out.dual_le, out.dual_eq) == ((F(1), F(0), F(0), F(0)), (F(2),))
    bad = replace(out, **corruption)
    for check in (verify_outcome, fraction_verify_outcome):
        with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
            check(FRACTIONAL_OBJECTIVE, FRACTIONAL, "min", bad)


# min x + y over x, y >= 0, both nonnegative variables, with x + 2y >= 2:
# the optimum (0, 1) is unique, with dual 1/2 on the row and multiplier 1/2
# on the bound x >= 0.
NATIVE = LinearSystem(2, le=[((-1, -2), -2)], nonneg=(0, 1))
# min x + y over x + y >= 1, x, y >= 0: every point of a segment is optimal.
TIE = LinearSystem(2, le=[((-1, -1), -1)], nonneg=(0, 1))


def test_a_nonnegative_variable_takes_one_column_and_no_row(monkeypatch):
    simplex = exactlp_module._simplex
    shapes = []

    def recorded(tab, basis, limit):
        shapes.append((len(tab) - 1, len(tab[0])))
        return simplex(tab, basis, limit)

    monkeypatch.setattr(exactlp_module, "_simplex", recorded)
    out = lp_solve((1, 1), NATIVE)
    assert out.primal_point == (F(0), F(1))
    assert (out.dual_le, out.dual_eq, out.dual_bound) == ((F(1, 2),), (), (F(1, 2), F(0)))
    # one row; x, y, the row's slack and its artificial, then the right-hand
    # side and the objective denominator
    assert shapes == [(1, 6), (1, 6)]


# The extreme rays of criterion 5 cone 168, whose functional LP has two
# optimal vertices (see test_polyhedra.py).
CONE_168 = ((-1, 2, 2), (-1, 2, 5), (1, 4, 1))


def test_uniqueness_is_certified_only_without_a_tie(monkeypatch):
    """`l1_minimal_point` keeps the point of `l1_minimum` when the EQ rows,
    the LE rows with a nonzero dual and the bounds with a nonzero multiplier
    have rank dim, and otherwise re-solves the split form: NATIVE's optimum
    is one point, TIE's is a segment, and cone 168's functional LP stops at
    a vertex other than the split form's."""
    solve = polyhedra_module.lp_solve
    native = []

    def recorded(objective, system, sense="min"):
        native.append(bool(system.nonneg))
        return solve(objective, system, sense)

    monkeypatch.setattr(polyhedra_module, "lp_solve", recorded)
    assert l1_minimal_point(LinearSystem(2, NATIVE.le)) == (0, 1)
    assert native == [True]
    native.clear()
    bounds = [((-1, 0), 0), ((0, -1), 0)]
    split = solve((1, 1), LinearSystem(2, TIE.le + tuple(bounds))).primal_point
    assert l1_minimal_point(LinearSystem(2, TIE.le)) == split
    assert native == [True, False]
    system = functional_system(3, CONE_168, (), ())
    assert l1_minimum(system).primal_point == (0, F(1, 6), F(1, 3), 0, 0, 0)
    native.clear()
    assert l1_minimal_point(system) == (0, F(1, 2), 0, 0, 0, 0)
    assert native == [True, False]


@pytest.mark.parametrize(
    "system,corruption,message",
    [
        (NATIVE, dict(primal_point=(F(-2), F(2))),
         "primal point violates a nonnegativity bound"),
        (NATIVE, dict(dual_bound=(F(1, 2),)), "optimal outcome without a dual per row"),
        (NATIVE, dict(dual_bound=None), "optimal outcome without a dual per row"),
        (NATIVE, dict(dual_bound=(F(-1, 2), F(0))),
         "negative multiplier on a nonnegativity bound"),
        (NATIVE, dict(dual_bound=(F(1, 2), F(1))), "dual stationarity fails"),
        # feasible and on the row, but x > 0 where its bound's multiplier is 1/2
        (NATIVE, dict(primal_point=(F(2), F(0))), "complementary slackness fails"),
    ],
)
def test_corrupted_bound_certificate_raises(system, corruption, message,
                                            fraction_verify_outcome):
    out = lp_solve((1, 1), system)
    bad = replace(out, **corruption)
    for check in (verify_outcome, fraction_verify_outcome):
        check((1, 1), system, "min", out)
        with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
            check((1, 1), system, "min", bad)


@pytest.mark.parametrize(
    "bound,nonneg,message",
    [
        # 1.(x + y <= -1) + 2.(-x <= 5) is (-1, 1): negative on x >= 0
        (5, (0, 1), "Farkas combination is negative on a nonnegative variable"),
        # 1.(x + y <= -1) + 2.(-x <= 0), with x free: nonzero on x
        (0, (1,), "Farkas combination of the rows is not zero"),
    ],
)
def test_corrupted_farkas_vector_over_bounds_raises(bound, nonneg, message,
                                                    fraction_verify_outcome):
    system = LinearSystem(2, le=[((1, 1), -1), ((-1, 0), bound)], nonneg=nonneg)
    out = lp_solve((0, 0), system)
    assert out.status is LpStatus.INFEASIBLE
    bad = replace(out, farkas_le=(F(1), F(2)))
    for check in (verify_outcome, fraction_verify_outcome):
        check((0, 0), system, "min", out)
        with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
            check((0, 0), system, "min", bad)


def test_unbounded_ray_respects_the_bounds():
    # max x + y over x, y >= 0 with x - y <= 1 grows without bound; the
    # direction (-1, 3) keeps the row and improves, but leaves x >= 0
    system = LinearSystem(2, le=[((1, -1), 1)], nonneg=(0, 1))
    out = lp_solve((1, 1), system, "max")
    assert out.status is LpStatus.UNBOUNDED
    assert all(v >= 0 for v in out.primal_point) and all(v >= 0 for v in out.ray)
    with pytest.raises(InternalConsistencyError, match="^ray leaves a nonnegativity bound$"):
        verify_outcome((1, 1), system, "max", replace(out, ray=(F(-1), F(3))))


@pytest.mark.parametrize(
    "extra,status",
    [
        ((), LpStatus.OPTIMAL),
        # x, y >= 0 and x/2 + y/3 <= -1
        ((((F(1, 2), F(1, 3)), F(-1)),), LpStatus.INFEASIBLE),
    ],
)
def test_each_row_is_scaled_once_per_lp(monkeypatch, extra, status):
    """The tableau and `verify_outcome` read the system's one integer form:
    one `lp_solve`, its certificate check included, scales each system row
    once, and scales no other vector of the rows' width."""
    scaled = rational_module.integer_scaled
    seen = []

    def counted(values):
        seen.append(tuple(values))
        return scaled(values)

    verify = exactlp_module.verify_outcome
    checked = []

    def verified(objective, system, sense, out):
        checked.append(out.status)
        return verify(objective, system, sense, out)

    monkeypatch.setattr(rational_module, "integer_scaled", counted)
    monkeypatch.setattr(exactlp_module, "integer_scaled", counted)
    monkeypatch.setattr(exactlp_module, "verify_outcome", verified)
    system = LinearSystem(2, FRACTIONAL.le + extra, FRACTIONAL.eq)
    assert lp_solve(FRACTIONAL_OBJECTIVE, system).status is status
    assert checked == [status]
    rows = [normal + (rhs,) for normal, rhs in system.le + system.eq]
    assert [seen.count(row) for row in rows] == [1] * len(rows)
    assert sum(len(v) == 3 for v in seen) == len(rows)


def test_strong_duality_failure_raises(monkeypatch):
    """With feasible rows, signed multipliers, stationarity and
    complementary slackness, b.y + d.mu = -c.x follows, so no corrupted
    outcome reaches this identity; a dual value off by one does."""
    out = lp_solve(FRACTIONAL_OBJECTIVE, FRACTIONAL)
    combine = exactlp_module._integer_combination

    def off_by_one(rows, weights, dim):
        total, rhs, m = combine(rows, weights, dim)
        return total, rhs + m, m

    monkeypatch.setattr(exactlp_module, "_integer_combination", off_by_one)
    with pytest.raises(InternalConsistencyError, match="^strong duality fails$"):
        verify_outcome(FRACTIONAL_OBJECTIVE, FRACTIONAL, "min", out)


def test_artificial_basic_after_phase_one_is_driven_out(monkeypatch):
    # -x1 - x2 = 0 on the box [0, 3]^2: phase 1 ends at value 0 with the
    # row's artificial still basic, and the pivot that drives it out has a
    # negative entry.
    pivot, negative = _kernel.pivot, []

    def recording(rows, r, e):
        negative.append(rows[r][e] < 0)
        pivot(rows, r, e)

    monkeypatch.setattr(_kernel, "pivot", recording)
    box = [((1, 0), 3), ((0, 1), 3), ((-1, 0), 0), ((0, -1), 0)]
    s = LinearSystem(2, le=box, eq=[((-1, -1), 0)])
    out = lp_solve((2, -1), s)
    assert any(negative)
    assert out.primal_point == (F(0), F(0))
    assert out.objective_value == F(0)
    assert out.dual_eq == (F(-1),)
    verify_outcome((2, -1), s, "min", out)


def test_duplicated_equality_row_is_dropped_with_dual_zero():
    box = [((1, 0), 3), ((0, 1), 3), ((-1, 0), 0), ((0, -1), 0)]
    s = LinearSystem(2, le=box, eq=[((1, 1), 2), ((1, 1), 2)])
    out = lp_solve((-1, 0), s)
    assert out.primal_point == (F(2), F(0))
    assert out.objective_value == F(-2)
    assert out.dual_eq == (F(1), F(0))
    verify_outcome((-1, 0), s, "min", out)


# Unbounded LPs: (objective, system, sense).  The recession cone of the
# feasible set is spanned by the expected improving directions.
UNBOUNDED = [
    ((1,), LinearSystem(1), "min"),
    ((1, -1), LinearSystem(2, le=[((1, 1), 3), ((-1, 0), 0)]), "max"),
    # x - y <= 1/2 and y + z = 2: x falls along (-1, 0, 0)
    ((1, 2, 0), LinearSystem(3, le=[((1, -1, 0), F(1, 2))], eq=[((0, 1, 1), 2)]),
     "min"),
    # a flipped row (-x <= -2) and fractional rows, bounded in x, y falls
    ((F(1, 3), F(1, 2)),
     LinearSystem(2, le=[((-1, 0), -2), ((F(1, 2), 0), 3), ((F(-1, 3), F(1, 4)), 1)]),
     "min"),
]


def test_unbounded():
    """Each outcome carries a feasible point and a recession ray along which
    the objective improves, checked here by Fraction evaluation."""
    for objective, system, sense in UNBOUNDED:
        out = lp_solve(objective, system, sense)
        assert out.status is LpStatus.UNBOUNDED
        x, d = out.primal_point, out.ray
        assert all(dot(n, x) <= b for n, b in system.le)
        assert all(dot(n, x) == b for n, b in system.eq)
        assert all(dot(n, d) <= 0 for n, _ in system.le)
        assert all(dot(n, d) == 0 for n, _ in system.eq)
        gain = dot(vec(objective), d)
        assert gain < 0 if sense == "min" else gain > 0
        verify_outcome(objective, system, sense, out)


def test_unbounded_ray_is_read_off_the_entering_column():
    assert lp_solve((1,), LinearSystem(1)).ray == (F(-1),)
    out = lp_solve(*UNBOUNDED[1])
    assert (out.primal_point, out.ray) == ((F(3), F(0)), (F(1), F(-1)))


@pytest.mark.parametrize(
    "corruption,message",
    [
        (dict(ray=(F(0), F(1), F(-1))), "ray does not improve the objective"),
        (dict(ray=(F(0), F(0), F(0))), "ray does not improve the objective"),
        (dict(ray=(F(-1), F(-2), F(0))), "ray leaves an LE row"),
        (dict(ray=(F(-1), F(0), F(1))), "ray leaves an EQ row"),
        (dict(primal_point=(F(1), F(0), F(2))), "primal point violates an LE row"),
        (dict(primal_point=(F(0), F(0), F(1))), "primal point violates an EQ row"),
        (dict(ray=None), "unbounded outcome without a point and a ray"),
        (dict(primal_point=None), "unbounded outcome without a point and a ray"),
    ],
)
def test_corrupted_ray_raises(corruption, message):
    objective, system, sense = UNBOUNDED[2]
    out = lp_solve(objective, system, sense)
    assert out.ray == (F(-1), F(0), F(0))
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        verify_outcome(objective, system, sense, replace(out, **corruption))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LinearSystem(2, le=[((1,), 0)])
    with pytest.raises(DimensionMismatch):
        lp_solve((1,), LinearSystem(2))


def test_extended_coerces_only_the_added_rows(monkeypatch):
    base = LinearSystem(2, le=[((1, 0), 1), ((0, 1), 1)], eq=[((1, 1), 1)],
                        strict=[((-1, 0), 0)])
    added = dict(le=[((1, 2), 3)], eq=[((F(1, 2), 0), F(1, 3))], strict=[((0, -1), 0)])
    fresh = LinearSystem(
        2, base.le + tuple(added["le"]), base.eq + tuple(added["eq"]),
        base.strict + tuple(added["strict"]),
    )
    coerced = []
    rows = exactlp_module._rows

    def counted(dim, given):
        coerced.extend(given)
        return rows(dim, given)

    monkeypatch.setattr(exactlp_module, "_rows", counted)
    grown = base.extended(**added)
    assert coerced == added["le"] + added["eq"] + added["strict"]
    assert grown == fresh
    assert all(type(x) is F for n, r in grown.le + grown.eq + grown.strict
               for x in n + (r,))
    for kind in ("le", "eq", "strict"):
        with pytest.raises(DimensionMismatch):
            base.extended(**{kind: [((1, 0, 0), 0)]})


def test_from_integer_rows_reads_the_rows_it_keeps():
    """A system built from `integer_rows`, the least ones or ones scaled by
    a further positive integer (as `OrderCone.below_rows` scales by s.d and
    a point cell's unit rows by d), has the rows of the system built from
    the Fraction rows, keeps the rows given as its `integer_form`, and holds
    at a point exactly where that system does."""
    rng = random.Random(26)
    frac = lambda: F(rng.randint(-9, 9), rng.randint(1, 6))
    seen = {True: 0, False: 0}
    for _ in range(300):
        dim = rng.randint(1, 4)
        rows = {
            kind: tuple(
                (tuple(frac() for _ in range(dim)), frac())
                for _ in range(rng.randint(0, top))
            )
            for kind, top in (("le", 3), ("eq", rng.choice((0, 1))), ("strict", 2))
        }
        fresh = LinearSystem(dim, **rows)
        for k in (1, rng.randint(2, 12)):
            given = {
                kind: tuple(
                    (tuple(k * c for c in a), k * b, k * s) for a, b, s in integer_rows(r)
                )
                for kind, r in rows.items()
            }
            built = LinearSystem.from_integer_rows(dim, **given)
            assert built == fresh
            assert all(type(x) is F for n, r in built.le + built.eq + built.strict
                       for x in n + (r,))
            assert built.integer_form == (given["le"], given["eq"], given["strict"])
            for _ in range(4):
                x, d = [rng.randint(-6, 6) for _ in range(dim)], rng.randint(1, 4)
                holds = fresh.holds_at(x, d)
                assert built.holds_at(x, d) == holds
                seen[holds] += 1
    assert min(seen.values()) > 100, seen


def test_strict_open_interval():
    s = LinearSystem(1, strict=[((1,), 0), ((-1,), 1)])
    res = strict_feasible(s)
    assert res.feasible
    (w,) = res.witness
    assert -1 < w < 0


def test_strict_contradiction():
    s = LinearSystem(1, le=[((1,), 0)], strict=[((-1,), 0)])
    assert not strict_feasible(s).feasible


def test_strict_halfplane_minus_open_cone_is_empty():
    # M = {v in R^2 : v2 >= 0} meets (0,0) - Int(R x R_+) nowhere.
    s = LinearSystem(2, le=[((0, -1), 0)], strict=[((0, 1), 0)])
    assert not strict_feasible(s).feasible


def test_strict_witness_has_positive_margin():
    s = LinearSystem(
        2,
        le=[((1, 0), 3)],
        strict=[((1, 1), 2), ((-1, 0), 0), ((0, -1), 0)],
    )
    res = strict_feasible(s)
    assert res.feasible
    x = res.witness
    for normal, rhs in s.strict:
        assert sum(a * v for a, v in zip(normal, x)) < rhs


def test_strict_rows_over_nonnegative_variables():
    # -x < 0 with x >= 0 holds at x > 0; x < 0 with x >= 0 holds nowhere
    open_ray = LinearSystem(1, strict=[((-1,), 0)], nonneg=(0,))
    res = strict_feasible(open_ray)
    assert res.feasible and res.witness[0] > 0
    assert identity_cell(open_ray).is_feasible()
    negative = LinearSystem(1, strict=[((1,), 0)], nonneg=(0,))
    assert not strict_feasible(negative).feasible
    assert not identity_cell(negative).is_feasible()


def test_nonnegative_variables_are_named_by_keyword():
    with pytest.raises(TypeError):
        LinearSystem(1, (), (), (), (0,))


def test_equality_rows_and_duals():
    s = LinearSystem(2, le=[((-1, 0), -1)], eq=[((1, 1), 3)])
    out = lp_solve((1, 0), s)
    assert out.status is LpStatus.OPTIMAL
    assert out.primal_point == (F(1), F(2))
    assert out.objective_value == F(1)
    verify_outcome((1, 0), s, "min", out)


def test_determinism():
    s = LinearSystem(
        3,
        le=[
            ((1, 1, 1), 5),
            ((1, -1, 0), 2),
            ((-1, 0, 0), 0),
            ((0, -1, 0), 0),
            ((0, 0, -1), 0),
            ((2, 1, -1), 4),
        ],
    )
    a = lp_solve((-1, -2, 1), s)
    b = lp_solve((-1, -2, 1), s)
    assert a == b


coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def bounded_lp(draw):
    """A box plus up to three random cuts: bounded, usually full-dimensional."""
    n = draw(st.integers(min_value=1, max_value=3))
    le = []
    for j in range(n):
        hi = draw(st.integers(min_value=0, max_value=4))
        lo = draw(st.integers(min_value=-4, max_value=hi))
        row_hi = tuple(1 if k == j else 0 for k in range(n))
        row_lo = tuple(-1 if k == j else 0 for k in range(n))
        le.append((row_hi, hi))
        le.append((row_lo, -lo))
    ncuts = draw(st.integers(min_value=0, max_value=3))
    for _ in range(ncuts):
        normal = tuple(draw(coeff) for _ in range(n))
        rhs = draw(st.integers(min_value=-6, max_value=12))
        le.append((normal, rhs))
    objective = tuple(draw(coeff) for _ in range(n))
    sense = draw(st.sampled_from(["min", "max"]))
    return objective, LinearSystem(n, le=tuple(le)), sense


@settings(max_examples=120, deadline=None)
@given(bounded_lp())
def test_random_bounded_lp_matches_brute_force(case):
    objective, system, sense = case
    out = lp_solve(objective, system, sense)
    oracle = brute_force_optimum([F(c) for c in objective], system, sense)
    if oracle is None:
        # No basic feasible point of a bounded system means empty.
        assert out.status is LpStatus.INFEASIBLE
    else:
        assert out.status is LpStatus.OPTIMAL
        assert out.objective_value == oracle


@settings(max_examples=60, deadline=None)
@given(bounded_lp(), st.lists(st.tuples(st.lists(coeff, min_size=1, max_size=3), coeff), max_size=2))
def test_strict_feasible_monotone_under_added_rows(case, extra):
    objective, system, sense = case
    base = LinearSystem(
        system.dim,
        le=system.le[: len(system.le) // 2],
        strict=system.le[len(system.le) // 2 :],
    )
    before = strict_feasible(base).feasible
    rows = [
        ((tuple(normal) + (0,) * system.dim)[: system.dim], rhs)
        for normal, rhs in extra
    ]
    after = strict_feasible(base.extended(strict=rows)).feasible
    if not before:
        assert not after


@st.composite
def bounded_lp_with_equalities(draw):
    """`bounded_lp` plus equality rows through an integer point of the box,
    one of them duplicated: negative right-hand sides (flipped rows with
    artificials) and a redundant row that phase 1 drops."""
    objective, system, sense = draw(bounded_lp())
    n = system.dim
    # The box rows come in (x_j <= hi, -x_j <= -lo) pairs.
    point = [
        draw(st.integers(min_value=-system.le[2 * j + 1][1], max_value=system.le[2 * j][1]))
        for j in range(n)
    ]
    eq = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        normal = tuple(draw(coeff) for _ in range(n))
        eq.append((normal, sum(a * x for a, x in zip(normal, point))))
    eq.insert(draw(st.integers(min_value=0, max_value=len(eq))),
              eq[draw(st.integers(min_value=0, max_value=len(eq) - 1))])
    return objective, LinearSystem(n, le=system.le, eq=tuple(eq)), sense


@settings(max_examples=120, deadline=None)
@given(bounded_lp_with_equalities())
def test_random_lp_with_equalities_matches_brute_force(case):
    objective, system, sense = case
    out = lp_solve(objective, system, sense)
    verify_outcome(objective, system, sense, out)
    oracle = brute_force_optimum([F(c) for c in objective], system, sense)
    if oracle is None:
        assert out.status is LpStatus.INFEASIBLE
    else:
        assert out.status is LpStatus.OPTIMAL
        assert out.objective_value == oracle


@settings(max_examples=150, deadline=None)
@given(bounded_lp_with_equalities(), st.data())
def test_nonnegative_variables_decide_as_their_bound_rows(certified_unique, case, data):
    """Variables marked nonnegative give the LP of the same system with a
    row -x_j <= 0 each: the same status and value, and at an optimum that
    the rank of its multipliers certifies unique the same point, which the
    split form must then reach."""
    objective, system, sense = case
    nonneg = sorted(data.draw(st.sets(st.integers(0, system.dim - 1))))
    bounded = system.extended(nonneg=nonneg)
    native = lp_solve(objective, bounded, sense)
    rows = [(tuple(-1 if i == j else 0 for i in range(system.dim)), 0) for j in nonneg]
    split = lp_solve(objective, system.extended(le=rows), sense)
    assert native.status is split.status
    if native.status is LpStatus.OPTIMAL:
        assert native.objective_value == split.objective_value
        if certified_unique(bounded, native):
            assert native.primal_point == split.primal_point


def _raised(check, objective, system, sense, out):
    """The message `check` raises on the outcome, or None."""
    try:
        check(objective, system, sense, out)
    except InternalConsistencyError as exc:
        return str(exc)
    return None


@st.composite
def perturbed_certificates(draw):
    """A `bounded_lp_with_equalities` case, its rows optionally each times
    a positive rational and some of its variables nonnegative, solved; then
    one entry of the certificate (the point, the value, a dual, a bound's
    multiplier or a Farkas multiplier) moved by a small rational, possibly
    0."""
    objective, system, sense = draw(bounded_lp_with_equalities())
    if draw(st.booleans()):
        factor = st.builds(F, st.integers(1, 6), st.integers(1, 6))

        def scaled(rows):
            factors = draw(st.lists(factor, min_size=len(rows), max_size=len(rows)))
            return tuple((tuple(f * a for a in n), f * b)
                         for (n, b), f in zip(rows, factors))

        system = LinearSystem(system.dim, scaled(system.le), scaled(system.eq))
    system = system.extended(nonneg=draw(st.sets(st.integers(0, system.dim - 1))))
    out = lp_solve(objective, system, sense)
    if out.status is LpStatus.OPTIMAL:
        fields = ["primal_point", "objective_value", "dual_le", "dual_eq"]
        fields += ["dual_bound"] if system.nonneg else []
    else:
        fields = ["farkas_le", "farkas_eq"]
    name = draw(st.sampled_from(fields))
    delta = F(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    value = getattr(out, name)
    if name == "objective_value":
        value += delta
    else:
        i = draw(st.integers(0, len(value) - 1))
        value = value[:i] + (value[i] + delta,) + value[i + 1 :]
    return objective, system, sense, out, replace(out, **{name: value})


@settings(max_examples=300, deadline=None)
@given(perturbed_certificates())
def test_integer_check_raises_exactly_when_the_fraction_check_does(
    fraction_verify_outcome, case
):
    objective, system, sense, out, bad = case
    assert _raised(verify_outcome, objective, system, sense, out) is None
    assert _raised(fraction_verify_outcome, objective, system, sense, out) is None
    assert _raised(verify_outcome, objective, system, sense, bad) == _raised(
        fraction_verify_outcome, objective, system, sense, bad
    )
