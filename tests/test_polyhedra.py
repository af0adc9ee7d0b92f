"""Geometry kernel: golden conversions, polars, projection, structure, cells."""

import random
from fractions import Fraction as F
from importlib import resources
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from process_duality._dd import (
    _integer_null_space,
    _integer_rref,
    _reduce_mod_lines,
    cone_dd,
)
from process_duality import _dd, polyhedra
from process_duality._kernel import primitive
from process_duality.certify import (
    ProgramContext,
    certify_multiplier,
    minimal_frontier_points,
)
from process_duality.errors import DimensionMismatch, InternalConsistencyError
from process_duality.exactlp import LinearSystem, LpStatus, lp_solve
from process_duality.fuzzing import random_order_cone
from process_duality.model import (
    OrderCone,
    _order_rows_for_g,
    graph_closure,
    w0_cells,
    w0_image_points,
)
from process_duality.polyhedra import (
    EQ,
    LE,
    BoundaryRestriction,
    BoundaryRestrictedPolyhedron,
    Cell,
    Emptiness,
    Polyhedron,
    PolyhedralCone,
    VRep,
    as_cells,
    cell_of_polyhedron,
    closure_generators,
    cone_structure,
    dd_convert,
    identity_cell,
    intersect_empty,
    member,
    point_cell,
    polar_cone,
    project,
)
from process_duality.problemfile import load_problem
from process_duality.process import separator_cone
from process_duality.rational import (
    ONE,
    ZERO,
    Vec,
    dot,
    integer_holds,
    integer_rows,
    integer_scaled,
    is_zero_vec,
    vadd,
    vec,
    zeros,
)


def orthant(n):
    rows = [(tuple(-1 if j == i else 0 for j in range(n)), 0, LE) for i in range(n)]
    return Polyhedron.from_hrep(n, rows)


def D_set():
    closure = Polyhedron.from_hrep(2, [((0, -1), 0, LE)])
    origin = Polyhedron.from_vrep(2, [(0, 0)])
    return BoundaryRestrictedPolyhedron.from_facet_indices(closure, [(0, origin)])


class TestDdConvert:
    def test_halfline(self):
        p = Polyhedron.from_hrep(1, [((-1,), 0, LE)])
        assert p.vrep.vertices == ((F(0),),)
        assert p.vrep.rays == ((F(1),),)
        assert p.vrep.lines == ()

    def test_orthant_generators(self):
        p = orthant(2)
        assert p.vrep.vertices == ((F(0), F(0)),)
        assert set(p.vrep.rays) == {(F(1), F(0)), (F(0), F(1))}

    def test_halfspace_cone_in_3d(self):
        # {(z,y1,y2): -y2 <= 0} = R x R x R+
        p = Polyhedron.from_hrep(3, [((0, 0, -1), 0, LE)])
        assert set(p.vrep.lines) == {(F(1), F(0), F(0)), (F(0), F(1), F(0))}
        assert p.vrep.rays == ((F(0), F(0), F(1)),)

    def test_empty_signaled_by_empty_vrep(self):
        p = Polyhedron.from_hrep(1, [((1,), 0, LE), ((-1,), -1, LE)])
        assert p.is_empty
        assert p.vrep.vertices == ()

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            dd_convert(orthant(1), "sideways")


class TestPolar:
    def test_orthant_self_dual(self):
        k = PolyhedralCone.from_generators(2, rays=[(1, 0), (0, 1)])
        assert polar_cone(k, "positive") == k

    def test_halfspace_cone_positive_polar_is_single_ray(self):
        k = PolyhedralCone.from_normals(3, ineq_normals=[(0, 0, -1)])
        p = polar_cone(k, "positive")
        assert p.generators == ((F(0), F(0), F(1)),)
        assert p.lineality == ()

    def test_diagonal_halfplane_polar(self):
        # positive polar of {(z,u): z+u >= 0} is the ray through (1,1)
        k = PolyhedralCone.from_normals(2, ineq_normals=[(-1, -1)])
        p = polar_cone(k, "positive")
        assert p.generators == ((F(1), F(1)),)
        # oracle: brute-force sign check on a small generator grid
        for a in range(-3, 4):
            for b in range(-3, 4):
                w = (F(a), F(b))
                in_polar = all(
                    a * g[0] + b * g[1] >= 0 for g in k.generators
                ) and all(a * l[0] + b * l[1] == 0 for l in k.lineality)
                assert in_polar == p.member(w)


@pytest.fixture
def dd_calls(monkeypatch):
    """The argument tuples of every `cone_dd` call made by `polyhedra`."""
    calls = []

    def counted(*args):
        calls.append(args)
        return cone_dd(*args)

    monkeypatch.setattr(polyhedra, "cone_dd", counted)
    return calls


def polar_test_cones():
    """Criterion-5 cones for three seeds, the zero cone and the full space in
    each dimension, and cones with lineality of every dimension below 3."""
    for seed in (31337, 5, 7):
        for i in range(150):
            yield PolyhedralCone.from_normals(*criterion5_cone(i, seed))
    for dim in range(1, 5):
        yield PolyhedralCone.from_generators(dim)
        yield PolyhedralCone.from_normals(dim)
    yield PolyhedralCone.from_generators(3, rays=[(1, 2, 0)], lines=[(0, 1, 1)])
    yield PolyhedralCone.from_generators(3, rays=[(1, 0, 0), (0, -1, 3)], lines=[(2, 0, -1)])
    yield PolyhedralCone.from_generators(3, lines=[(1, 1, 0), (0, 1, -2)])
    yield PolyhedralCone.from_normals(4, ineq_normals=[(1, -1, 0, 2)], eq_normals=[(0, 0, 1, 1)])


class TestPolarForms:
    """`polar_cone` reads both forms of the polar off the input's own
    canonical forms (Minkowski-Weyl duality): its rows are k's generators,
    its generators k's rows.  Both must be the canonical forms of the polar
    that double description computes from scratch."""

    def test_forms_are_canonical(self):
        seen = 0
        for k in polar_test_cones():
            for sign, c in (("negative", 1), ("positive", -1)):
                p = polar_cone(k, sign)
                # the polar by definition, as rows
                by_definition = PolyhedralCone.from_normals(
                    k.dim, [tuple(c * x for x in g) for g in k.generators], k.lineality
                )
                assert p.hrep == by_definition.hrep, (k.hrep, sign)
                assert p.vrep == by_definition.vrep, (k.hrep, sign)
                assert p.hrep == PolyhedralCone.from_generators(k.dim, p.generators, p.lineality).hrep
                assert p.vrep == Polyhedron.from_hrep(k.dim, p.hrep).vrep
                seen += bool(k.lineality)
        assert seen > 100

    def test_no_double_description(self, dd_calls):
        for k in polar_test_cones():
            k.hrep, k.vrep
            dd_calls.clear()
            for sign in ("negative", "positive"):
                p = polar_cone(k, sign)
                p.hrep, p.vrep
            assert polar_cone(polar_cone(k)) == k
            assert dd_calls == []

    def test_lazy_forms_cost_no_more_than_reading_them(self, dd_calls, dd_polar_cone):
        """A cone holding rows only, generators only or both: its polar runs
        just the double descriptions that reading k's missing forms needs
        (2, 2 and 0; the polar's own double description made these 3, 3
        and 1), and equals the polar whose generators come from a double
        description."""

        def check(make, most):
            for sign in ("negative", "positive"):
                k = make()
                dd_calls.clear()
                p = polar_cone(k, sign)
                used = len(dd_calls)
                fresh = make()
                dd_calls.clear()
                fresh.hrep, fresh.vrep
                assert used == len(dd_calls) <= most, (k.hrep, sign)
                expected = dd_polar_cone(k, sign)
                assert repr(p.hrep) == repr(expected.hrep), (k.hrep, sign)
                assert repr(p.vrep) == repr(expected.vrep), (k.hrep, sign)

        hsets, vsets = cone_conversion_inputs()
        for dim, rows in hsets:
            rows = polyhedra._coerce_rows(dim, rows)
            ineq = [r.normal for r in rows if r.rel == LE]
            eq = [r.normal for r in rows if r.rel == EQ]
            check(lambda: PolyhedralCone.from_normals(dim, ineq, eq), 2)
            check(lambda: PolyhedralCone.from_polyhedron(Polyhedron.from_hrep(dim, rows)), 0)
        for dim, vertices, rays, lines in vsets:
            check(lambda: PolyhedralCone.from_generators(dim, rays, lines), 2)
            by_gens = lambda: Polyhedron.from_vrep(dim, vertices, rays, lines)
            check(lambda: PolyhedralCone.from_polyhedron(by_gens()), 0)
        # as `polar_test_cones` builds them, a fresh copy for each read
        seen = 0
        for copies in zip(*(polar_test_cones() for _ in range(4))):
            copies = iter(copies)
            check(lambda: next(copies), 2)
            seen += 1
        assert seen > 400

    def test_refuses_a_non_cone(self):
        shifted = [
            Polyhedron.from_vrep(2, [(1, 0)], [(0, 1)]),
            # typed as a cone, with the vertex (1,) off the origin
            PolyhedralCone(1, raw_vrep=VRep(((F(1),),), ((F(1),),))),
        ]
        for k in shifted + [Polyhedron.empty(2)]:
            for sign in ("negative", "positive"):
                with pytest.raises(InternalConsistencyError, match="not a cone"):
                    polar_cone(k, sign)


def cone_conversion_inputs():
    """(dim, rows) and (dim, vertices, rays, lines) of cones: both forms of
    `polar_test_cones()`; criterion-5 cones 0-149 as drawn, and their duals
    as generators; `fuzzing.random_order_cone` draws in dims 1-4; and random
    homogeneous row sets with EQ rows, zero-normal rows, duplicated rows or
    no rows at all, and random generator sets whose only vertex is the
    origin (given once or twice), with and without rays and lines."""
    hsets, vsets = [], []
    for k in polar_test_cones():
        hsets.append((k.dim, k.hrep))
        vsets.append((k.dim, [zeros(k.dim)], k.generators, k.lineality))
    for i in range(150):
        dim, rows = criterion5_cone(i)
        hsets.append((dim, [(n, 0, LE) for n in rows]))
        lines, rays = cone_dd(dim, rows, [])
        vsets.append((dim, [zeros(dim)], [tuple(-x for x in r) for r in rays], lines))
    rng = random.Random(2022)
    for dim in range(1, 5):
        for _ in range(25):
            cone = random_order_cone(rng, dim).cone
            hsets.append((dim, cone.hrep))
            vsets.append((dim, [zeros(dim)], cone.generators, cone.lineality))
    for _ in range(300):
        dim = rng.randint(1, 4)
        point = lambda: tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        rows = [(point(), 0, rng.choice((LE, LE, EQ))) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.3:
            rows.append((zeros(dim), 0, rng.choice((LE, EQ))))
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows))
        hsets.append((dim, rows))
        rays = [point() for _ in range(rng.randint(0, 4))]
        lines = [point() for _ in range(rng.randint(0, 2))]
        vsets.append((dim, [zeros(dim)] * rng.randint(1, 2), rays, lines))
    return hsets, vsets


class TestConeConversions:
    """A cone's conversions run one double description in the cone's own
    dimension (`polyhedra._cone_generators`), not on its homogenization."""

    def test_matches_the_lifted_conversions(
        self, lifted_conversions, dd_calls, criterion_3_program
    ):
        hsets, vsets = cone_conversion_inputs()
        assert len(hsets) > 1000 and len(vsets) > 1000
        cones = []
        for dim, rows in hsets:
            p = Polyhedron.from_hrep(dim, rows)
            expected = lifted_conversions.hrep_to_vrep(dim, p._raw_hrep)
            assert repr(p.vrep) == repr(expected), (dim, rows)
            cones.append(p)
        for dim, vertices, rays, lines in vsets:
            p = Polyhedron.from_vrep(dim, vertices, rays, lines)
            expected = lifted_conversions.vrep_to_hrep(dim, p._raw_vrep)
            assert repr(p.hrep) == repr(expected), (dim, rays, lines)
            cones.append(p)
        # the bounded base from integer forms is the one built with Fractions
        # from its vertices, as are those of Y_+ of criterion-3 programs
        # 0-39; it is built canonical, so reading its generators runs no
        # double description
        cones = [PolyhedralCone.from_polyhedron(p) for p in cones]
        cones += [criterion_3_program(i).y_plus.cone for i in range(40)]
        bases = 0
        for k in cones:
            cs = cone_structure(k)
            if cs.base is None:
                continue
            dd_calls.clear()
            cs.base.vrep
            assert dd_calls == [], k.hrep
            h = cs.functional
            verts = [tuple(x / dot(h, r) for x in r) for r in k.generators]
            expected = Polyhedron.from_vrep(k.dim, verts)
            assert repr(cs.base.vrep) == repr(expected.vrep), k.hrep
            assert repr(cs.base.hrep) == repr(expected.hrep), k.hrep
            centre = tuple(sum(x) / len(verts) for x in zip(*verts))
            points = verts + list(k.generators) + [centre, zeros(k.dim)]
            points += [tuple(2 * x - c for x, c in zip(v, centre)) for v in verts]
            points += [tuple((x + c) / 2 for x, c in zip(v, centre)) for v in verts]
            for x in points:
                assert cs.base.member(x) == expected.member(x), (k.hrep, x)
            bases += 1
        assert bases > 500

    def test_double_description_runs_in_the_cone_dimension(self, dd_calls):
        def built(make):
            """The dims of the DDs that building and reading both forms run."""
            dd_calls.clear()
            k = make()
            k.hrep, k.vrep
            k.hrep, k.vrep
            return [args[0] for args in dd_calls]

        seen = 0
        for k in polar_test_cones():
            dim = k.dim
            rows = k.hrep
            gens = k.generators, k.lineality
            normals = (
                [r.normal for r in rows if r.rel == LE],
                [r.normal for r in rows if r.rel == EQ],
            )
            # one conversion on first read of each form, none after
            assert built(lambda: PolyhedralCone.from_normals(dim, *normals)) == [dim] * 2
            assert built(lambda: PolyhedralCone.from_generators(dim, *gens)) == [dim] * 2
            by_rows = lambda: PolyhedralCone.from_polyhedron(Polyhedron.from_hrep(dim, rows))
            assert built(by_rows) == [dim] * 2
            # the origin given twice is still the only vertex
            by_gens = lambda: PolyhedralCone.from_polyhedron(
                Polyhedron.from_vrep(dim, [zeros(dim)] * 2, *gens)
            )
            assert built(by_gens) == [dim] * 2
            seen += 1
        assert seen > 400
        # a set with a vertex off the origin is still converted on its lift
        assert built(lambda: Polyhedron.from_vrep(2, [(1, 0)], [(0, 1)])) == [3] * 2


class TestProject:
    def test_identity_graph(self):
        p = Polyhedron.from_hrep(
            2, [((1, -1), 0, EQ), ((-1, 0), 0, LE), ((1, 0), 1, LE)]
        )
        q = project(p, (0,))
        assert q.vrep.vertices == ((F(0),), (F(1),))

    def test_scalar_instance_lift(self):
        # {(x,v): v >= 1} projected to v is [1, inf); hand LP-duality oracle
        p = Polyhedron.from_hrep(2, [((0, -1), -1, LE)])
        q = project(p, (1,))
        assert q.vrep.vertices == ((F(1),),)
        assert q.vrep.rays == ((F(1),),)

    def test_planar_image(self):
        # {(x1,x2,v1,v2): (v-x) cone row, x >= 0} onto v is {v1+v2 >= 1}
        rows = [
            ((1, 1, -1, -1), -1, LE),  # 1 - x1 - x2 - (v1-x1) - (v2-x2) <= 0
            ((-1, 0, 0, 0), 0, LE),
            ((0, -1, 0, 0), 0, LE),
        ]
        p = Polyhedron.from_hrep(4, rows)
        q = project(p, (2, 3))
        expect = Polyhedron.from_hrep(2, [((-1, -1), -1, LE)])
        assert q == expect
        # brute-force oracle over a rational grid
        for a in range(-2, 4):
            for b in range(-2, 4):
                v = (F(a), F(b))
                lifted = p.system().extended(
                    eq=[((0, 0, 1, 0), v[0]), ((0, 0, 0, 1), v[1])]
                )
                has_lift = (
                    lp_solve((0, 0, 0, 0), lifted, "min").status is LpStatus.OPTIMAL
                )
                assert has_lift == q.member(v)

    def test_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            project(orthant(2), (5,))


class TestConeStructure:
    def test_orthant(self):
        cs = cone_structure(PolyhedralCone.from_generators(2, rays=[(1, 0), (0, 1)]))
        assert cs.is_pointed and cs.has_bounded_base
        assert cs.functional == (F(1), F(1))
        assert set(cs.base.vrep.vertices) == {(F(1), F(0)), (F(0), F(1))}

    def test_graph_cone_of_worked_example(self):
        k = PolyhedralCone.from_normals(3, ineq_normals=[(0, 0, -1)])
        cs = cone_structure(k)
        assert cs.lineality_dim == 2
        assert not cs.is_pointed
        assert not cs.has_bounded_base
        assert cs.base is None

    def test_halfspace_graph(self):
        # {(z,y1,y2): z <= y1+y2}: lineality = plane z = y1+y2, dim 2
        k = PolyhedralCone.from_normals(3, ineq_normals=[(1, -1, -1)])
        cs = cone_structure(k)
        assert cs.lineality_dim == 2
        assert not cs.has_bounded_base

    def test_base_normalization_property(self):
        k = PolyhedralCone.from_generators(3, rays=[(2, 0, 1), (0, 3, 1), (1, 1, 5)])
        cs = cone_structure(k)
        assert cs.has_bounded_base
        h = cs.functional
        for g in k.generators:
            lam = F(1) / sum(h[i] * g[i] for i in range(3))
            assert cs.base.member(tuple(lam * x for x in g))
            # unique positive scaling: <h, t*g> = 1 has exactly one solution
        assert not cs.base.member((0, 0, 0))


    def test_a_tie_keeps_the_split_form_vertex(self, certified_unique):
        """Criterion 5 cone 168 has two L1-minimal functionals of norm 1/2.
        The native LP stops at (0, 1/6, 1/3) and the rank of its multipliers
        certifies no unique optimum, so the witness stays the split form's
        vertex (0, 1/2, 0)."""
        dim, rows = criterion5_cone(168)
        k = PolyhedralCone.from_normals(dim, rows)
        assert k.generators == ((-1, 2, 2), (-1, 2, 5), (1, 4, 1))
        assert cone_structure(k).functional == (0, F(1, 2), 0)
        le = [(tuple(-x for x in g) + tuple(g), -1) for g in k.generators]
        system = LinearSystem(6, le=le, nonneg=range(6))
        native = lp_solve((1,) * 6, system)
        h = tuple(native.primal_point[j] - native.primal_point[3 + j] for j in range(3))
        assert h == (0, F(1, 6), F(1, 3))
        assert native.objective_value == F(1, 2)
        assert not certified_unique(system, native)

    def test_criterion_5_functionals_are_the_split_form_points(self, l1_against_split_form):
        """Over the benchmark's cones 0-799, each functional is the native
        unique optimum or, at a tie, the split form's vertex, and the native
        point equals the split form's wherever it is unique."""
        for i in range(800):
            dim, rows = criterion5_cone(i)
            cone_structure(PolyhedralCone.from_normals(dim, rows))
        seen = l1_against_split_form
        assert seen["unique"] > 250 and seen["tie"] > 40, seen


class TestMembership:
    def test_open_halfplane_with_retained_origin(self):
        D = D_set()
        assert member(D, (0, 0))
        assert not member(D, (1, 0))
        assert member(D, (1, 1))
        assert not member(D, (0, -1))

    def test_orthant_member(self):
        assert member(orthant(2), (1, 1))

    def test_member_dimension(self):
        with pytest.raises(DimensionMismatch):
            member(orthant(2), (1, 1, 1))

    def test_zero_generator_of_wrong_width_is_refused(self):
        for gens in (dict(rays=[(0, 0, 0)]), dict(lines=[(0,)])):
            with pytest.raises(DimensionMismatch):
                Polyhedron.from_vrep(2, [(0, 0)], **gens)
        # a zero generator of the right width is still dropped
        origin = Polyhedron.from_vrep(2, [(0, 0)], rays=[(0, 0)], lines=[(0, 0)])
        assert (origin.vrep.rays, origin.vrep.lines) == ((), ())


def per_cell_lp(obj, x):
    """Oracle: x is in some cell of obj, one strict LP per cell with the
    target coordinates pinned to x."""
    x = vec(x)
    pins = [
        (tuple(ONE if j == i else ZERO for j in range(len(x))), x[i])
        for i in range(len(x))
    ]
    return any(c.with_target_rows(eq=pins).is_feasible() for c in as_cells(obj))


def probes(points):
    """The points, their pairwise midpoints and a unit step off each point
    along every axis."""
    points = [vec(v) for v in points]
    out = list(points)
    out += [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in combinations(points, 2)]
    for v in points:
        for i in range(len(v)):
            for step in (ONE, -ONE):
                out.append(tuple(x + step if j == i else x for j, x in enumerate(v)))
    return out


class TestMemberOnUnions:
    """`member` answers for every set kind and for unions given as
    sequences, as the per-cell strict LP does."""

    def test_criterion_3_w0_cells(self, criterion_3_program):
        checked = {True: 0, False: 0}
        restricted = 0
        for i in range(40):
            if i in (3, 5):
                continue
            p = criterion_3_program(i)
            restricted += isinstance(p.omega, BoundaryRestrictedPolyhedron)
            cells = w0_cells(p)
            verts = closure_generators(cells)[0]
            for y in probes(verts[:6]):
                expected = per_cell_lp(cells, y)
                assert member(cells, y) == expected
                assert member(list(cells), y) == expected
                checked[expected] += 1
        assert restricted >= 5
        assert checked[True] > 50 and checked[False] > 50

    def test_mixed_tuples(self, worked_example):
        box = Polyhedron.from_vrep(2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        cells = w0_cells(worked_example)
        shifted = tuple(c.compose(((1, 0), (0, 1)), (-2, -3)) for c in cells)
        unions = [
            (box, D_set()),
            (box, D_set()) + cells,
            (D_set(), shifted),
            [box, [D_set(), shifted], cells],
            (),
        ]
        grid = [(F(a, 2), F(b, 2)) for a in range(-6, 7) for b in range(-8, 7)]
        for union in unions:
            for y in grid:
                assert member(union, y) == per_cell_lp(union, y)
        for piece in (box, D_set(), cells[0]):
            for y in grid:
                assert member(piece, y) == piece.member(y) == per_cell_lp(piece, y)


def on_rows(cell, y):
    """(on a strict row's boundary, on an eq row) for the point y."""
    return (
        any(dot(n, y) == r for n, r in cell.system.strict),
        any(dot(n, y) == r for n, r in cell.system.eq),
    )


class TestIdentityCellMember:
    """An identity cell answers membership from its rows, as the strict LP
    with the target pinned to the point does."""

    def check(self, cells, points, seen):
        for c in cells:
            assert c.is_identity
            for y in points:
                expected = per_cell_lp(c, y)
                assert c.member(y) == expected, (c, y)
                strict_edge, on_eq = on_rows(c, y)
                seen["member" if expected else "outside"] += 1
                seen["strict edge"] += strict_edge
                seen["eq row"] += on_eq and expected

    def test_worked_example_omega(self):
        seen = dict.fromkeys(("member", "outside", "strict edge", "eq row"), 0)
        grid = [(F(a, 2), F(b, 2)) for a in range(-3, 4) for b in range(-2, 3)]
        self.check(as_cells(D_set()), grid, seen)
        assert all(seen.values())
        off, on = as_cells(D_set())
        # the open half-plane excludes its boundary; the retained origin is on
        # an eq row and is the only boundary point in the set
        assert not off.member((1, 0)) and not off.member((0, 0))
        assert on.member((0, 0)) and not on.member((1, 0))

    def test_restricted_criterion_3_programs(self, criterion_3_program):
        seen = dict.fromkeys(("member", "outside", "strict edge", "eq row"), 0)
        restricted = 0
        for i in range(60):
            omega = criterion_3_program(i).omega
            if not isinstance(omega, BoundaryRestrictedPolyhedron):
                continue
            restricted += 1
            kept = [v for r in omega.restrictions for v in r.retained.vrep.vertices]
            points = probes(list(omega.closure.vrep.vertices[:6]) + kept)
            self.check(as_cells(omega), points, seen)
        assert restricted >= 10
        assert seen["member"] > 50 and seen["outside"] > 50
        assert seen["strict edge"] > 20 and seen["eq row"] > 5

    def test_finite_program_point_cells(self, criterion_4_program):
        seen = dict.fromkeys(("member", "outside", "strict edge", "eq row"), 0)
        for i in range(40):
            p = criterion_4_program(i)
            self.check(w0_cells(p), probes(w0_image_points(p)[:4]), seen)
        assert seen["member"] > 50 and seen["outside"] > 200
        assert seen["eq row"] == seen["member"]

    def test_row_kinds(self):
        # {x1 + x2 = 1, x1 <= 1, x2 < 1}: the eq row, the le row's boundary
        # (a member) and the strict row's boundary (not a member)
        cell = as_cells(
            BoundaryRestrictedPolyhedron(
                Polyhedron.from_hrep(
                    2, [((1, 1), 1, EQ), ((1, 0), 1, LE), ((0, 1), 1, LE)]
                ),
                [BoundaryRestriction((0, 1), 1, Polyhedron.empty(2))],
            )
        )
        assert len(cell) == 1
        cases = {
            (F(1, 2), F(1, 2)): True,
            (1, 0): True,
            (0, 1): False,
            (F(1, 2), F(1, 3)): False,
            (2, -1): False,
        }
        seen = dict.fromkeys(("member", "outside", "strict edge", "eq row"), 0)
        self.check(cell, list(cases), seen)
        assert {y: cell[0].member(y) for y in cases} == cases


class TestBoundaryRestrictionValidation:
    @pytest.mark.parametrize(
        "rows, restriction, message",
        [
            pytest.param(
                [((0, -1), 0, LE)],
                BoundaryRestriction((0, 1), 0, Polyhedron.empty(2)),
                "restricted row is not valid for the closure",
                id="row-not-valid",
            ),
            pytest.param(
                [((0, 1), 0, LE), ((0, -1), 0, LE)],
                BoundaryRestriction((0, -1), 0, Polyhedron.from_vrep(2, [(0, 0)])),
                "restricted row is an implicit equality of the closure",
                id="implicit-equality",
            ),
            pytest.param(
                [((0, -1), 0, LE)],
                BoundaryRestriction((0, -1), 0, Polyhedron.from_vrep(2, [(0, 1)])),
                "retained set leaves its restricted slice",
                id="retained-leaves-slice",
            ),
        ],
    )
    def test_rejected(self, rows, restriction, message):
        closure = Polyhedron.from_hrep(2, rows)
        with pytest.raises(InternalConsistencyError, match=message):
            BoundaryRestrictedPolyhedron(closure, [restriction])


def unit_square():
    return Polyhedron.from_hrep(
        2, [((1, 0), 1, LE), ((-1, 0), 0, LE), ((0, 1), 1, LE), ((0, -1), 0, LE)]
    )


class TestWithRows:
    """`with_rows` against its definition: x lies in omega.with_rows(rows)
    iff x lies in omega and every row holds at x."""

    @staticmethod
    def check(omega, rows, extra=()):
        cut = omega.with_rows(rows)
        verts = omega.closure.vrep.vertices
        points = list(verts) + list(extra) + [
            tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in combinations(verts, 2)
        ]
        for x in map(vec, points):
            holds = all(
                dot(n, x) <= r if rel == LE else dot(n, x) == r for n, r, rel in rows
            )
            assert member(cut, x) == (omega.member(x) and holds), x
        return cut

    def test_criterion_3_programs_at_several_levels(self, criterion_3_program):
        restricted = 0
        for i in range(40):
            p = criterion_3_program(i)
            restricted += isinstance(p.omega, BoundaryRestrictedPolyhedron)
            rng = random.Random(i)
            levels = [zeros(p.z_dim)] + [
                tuple(rng.randint(-2, 2) for _ in range(p.z_dim)) for _ in range(3)
            ]
            for z in levels:
                self.check(p.omega, _order_rows_for_g(p, vec(z)))
        assert restricted >= 5

    def test_collapse_onto_the_retained_origin(self):
        cut = self.check(
            D_set(), [((0, 1), 0, LE)], extra=[(1, 0), (-1, 0), (0, 1), (1, 1)]
        )
        assert cut == Polyhedron.from_vrep(2, [(0, 0)])

    def test_collapse_keeps_a_restriction_that_touches(self):
        top = Polyhedron.from_vrep(2, [(0, 1), (1, 1)])
        right = BoundaryRestriction((1, 0), 1, Polyhedron.from_vrep(2, [(1, 0)]))
        omega = BoundaryRestrictedPolyhedron(
            unit_square(), [BoundaryRestriction((0, 1), 1, top), right]
        )
        cut = self.check(omega, [((0, -1), -1, LE)])
        assert isinstance(cut, BoundaryRestrictedPolyhedron)
        assert cut.closure == top
        assert [(r.normal, r.offset) for r in cut.restrictions] == [((1, 0), 1)]

    def test_collapse_twice_to_empty(self):
        omega = BoundaryRestrictedPolyhedron(
            unit_square(),
            [
                BoundaryRestriction((0, 1), 1, Polyhedron.from_vrep(2, [(1, 1)])),
                BoundaryRestriction((1, 0), 1, Polyhedron.from_vrep(2, [(1, 0)])),
            ],
        )
        cut = self.check(omega, [((0, -1), -1, LE), ((-1, 0), -1, LE)])
        assert isinstance(cut, Polyhedron) and cut.is_empty


def supporting_rows(p):
    """Rows n.x <= r valid for the nonempty p: n is a facet normal, the sum
    of two in a row, or either sign of an equality normal, and r is the
    largest n.v over p's vertices (the row touches p) or that plus one (it
    does not)."""
    ineq = [r.normal for r in p.inequalities()]
    normals = ineq + [vadd(a, b) for a, b in zip(ineq, ineq[1:])]
    for r in p.equalities():
        normals += [r.normal, tuple(-x for x in r.normal)]
    verts = p.vrep.vertices
    for n in normals:
        if is_zero_vec(n):
            continue
        top = max(dot(n, v) for v in verts)
        yield n, top
        yield n, top + 1


def witness_test_sets(criterion_3_program):
    """Closures of criterion-3 Omegas 0-59, each also cut down to a flat
    set through one of its vertices, and the closed graphs of programs
    0-9 with at most 24 rows, which have rays and lines."""
    for i in range(60):
        p = criterion_3_program(i)
        closure = p.omega.closure
        yield closure
        v = closure.vrep.vertices[i % len(closure.vrep.vertices)]
        n = tuple((i + j) % 3 - 1 for j in range(closure.dim))
        if any(n):
            yield closure.with_rows([(n, dot(vec(n), v), EQ)])
        if i < 10:
            graph = graph_closure(p)
            if len(graph.hrep) <= 24:
                yield graph


class TestGeneratorWitnesses:
    """A restricted row is certified not to be an implicit equality, and a
    restricted slice to meet the closure, by a generator of the closure
    checked exactly; a strict LP runs only where no generator is a witness,
    and then answers "no"."""

    def test_verdicts_match_the_lp_route(self, criterion_3_program, lp_route):
        seen = dict.fromkeys(("inside", "equality", "meets", "misses"), 0)
        for p in witness_test_sets(criterion_3_program):
            for n, r in supporting_rows(p):
                (row,) = integer_rows([(n, r)])
                inside = lp_route.strictly_inside(p, n, r)
                assert polyhedra._generator_witness(p, row, strict=True) == inside
                meets = lp_route.meets(p, n, r)
                assert polyhedra._generator_witness(p, row, strict=False) == meets
                fr = BoundaryRestriction(n, r, Polyhedron.empty(p.dim))
                if inside:
                    BoundaryRestrictedPolyhedron(p, [fr])
                else:
                    with pytest.raises(InternalConsistencyError,
                                       match="implicit equality"):
                        BoundaryRestrictedPolyhedron(p, [fr])
                seen["inside" if inside else "equality"] += 1
                seen["meets" if meets else "misses"] += 1
        assert all(k > 50 for k in seen.values()), seen

    def test_building_runs_no_lp(self, strict_lp_recorder, criterion_3_program):
        restricted = 0
        for i in range(60):
            restricted += isinstance(
                criterion_3_program(i).omega, BoundaryRestrictedPolyhedron
            )
        for name in ("worked_example", "i3", "scalar_i2"):
            load_problem(str(
                resources.files("process_duality").joinpath(f"instances/{name}.json")
            ))
        assert strict_lp_recorder.outcomes == []
        assert restricted >= 10

    def test_with_rows_runs_an_lp_only_on_dropped_slices(
        self, strict_lp_recorder, criterion_3_program, lp_route, worked_example
    ):
        programs = [criterion_3_program(i) for i in range(60)] + [worked_example]
        kept = dropped = 0
        for i, p in enumerate(programs):
            if not isinstance(p.omega, BoundaryRestrictedPolyhedron):
                continue
            rng = random.Random(i)
            cuts = [_order_rows_for_g(p, zeros(p.z_dim))]
            cuts += [
                _order_rows_for_g(p, vec(rng.randint(-2, 2) for _ in range(p.z_dim)))
                for _ in range(3)
            ]
            # one cut just short of each restricted hyperplane drops its slice
            cuts += [[(fr.normal, fr.offset - F(1, 2), LE)] for fr in p.omega.restrictions]
            for rows in cuts:
                strict_lp_recorder.outcomes.clear()
                got = p.omega.with_rows(rows)
                lps = list(strict_lp_recorder.outcomes)
                want, lp_drops = lp_route.with_rows(p.omega, rows)
                assert type(got) is type(want)
                if isinstance(got, BoundaryRestrictedPolyhedron):
                    assert got.closure == want.closure
                    assert got.restrictions == want.restrictions
                    kept += len(got.restrictions)
                else:
                    assert got == want
                assert lps == [False] * lp_drops
                dropped += lp_drops
        assert kept > 20 and dropped > 10, (kept, dropped)

    def test_refusals_still_raise(self, strict_lp_recorder):
        for gens in ([(1, 0)], [(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 0, 1)]):
            with pytest.raises(InternalConsistencyError,
                               match="order cone has empty interior"):
                OrderCone.from_generators(len(gens[0]), gens)
        assert strict_lp_recorder.outcomes == []
        # the line y = 0 lies on its restricted row: no generator is a
        # witness, and the LP's "no" is the refusal
        line = Polyhedron.from_hrep(2, [((0, 1), 0, LE), ((0, -1), 0, LE)])
        with pytest.raises(InternalConsistencyError, match="implicit equality"):
            BoundaryRestrictedPolyhedron(
                line, [BoundaryRestriction((0, -1), 0, Polyhedron.empty(2))]
            )
        assert strict_lp_recorder.outcomes == [False]


class TestIntersectEmpty:
    def test_minimality_core_of_worked_example(self):
        D = D_set()
        negorth = Polyhedron.from_hrep(2, [((1, 0), 0, LE), ((0, 1), 0, LE)])
        r = intersect_empty([D, negorth])
        assert not r.empty
        assert r.witness == (F(0), F(0))
        # the only point: excluding either x2 sign strictly empties it
        assert intersect_empty([D, negorth], [((0, 1), 0)]).empty
        assert intersect_empty([D, negorth], [((0, -1), 0)]).empty

    def test_halfplane_strict(self):
        H = Polyhedron.from_hrep(2, [((0, -1), 0, LE)])
        assert intersect_empty([H], [((0, 1), 0)]).empty

    def test_box_strict_subcase(self):
        A = Polyhedron.from_hrep(2, [((-1, -1), -1, LE)])
        B = Polyhedron.from_hrep(2, [((1, 0), F(1, 2), LE), ((0, 1), F(1, 2), LE)])
        assert intersect_empty([A, B], [((1, 0), F(1, 2))]).empty

    def test_nonnegative_variables_bound_every_answer(self):
        # x <= -1 with x >= 0 is empty, whichever question asks
        cell = identity_cell(LinearSystem(1, le=[((1,), -1)], nonneg=(0,)))
        assert not cell.is_feasible() and not cell.member((-2,))
        assert intersect_empty([cell]) == Emptiness(True)
        assert cell.closure_image().is_empty
        # y = u + 1 with 0 <= u <= 1: the bound is on the lift variable u,
        # which the joint system places after the target coordinate y
        lifted = Cell(LinearSystem(1, le=[((1,), 1)], nonneg=(0,)), ((ONE,),), (ONE,))
        assert intersect_empty([lifted], [((1,), 1)]).empty
        res = intersect_empty([lifted], [((1,), 2)])
        assert not res.empty and 1 <= res.witness[0] < 2
        assert lifted.closure_image() == Polyhedron.from_hrep(
            1, [((-1,), -1, LE), ((1,), 2, LE)]
        )

    def test_member_agrees_with_singleton_intersection(self):
        p = orthant(2)
        for x in [(1, 1), (0, 0), (-1, 2), (F(1, 3), F(2, 7))]:
            single = Polyhedron.from_vrep(2, [x])
            assert p.member(x) == (not intersect_empty([p, single]).empty)


coord = st.integers(min_value=-3, max_value=3)


@st.composite
def random_cone_hrep(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(nrows):
        normal = tuple(draw(coord) for _ in range(dim))
        rows.append((normal, 0, LE))
    return dim, rows


@settings(max_examples=80, deadline=None)
@given(random_cone_hrep())
def test_dd_roundtrip_is_canonical_involution(check_consistency, data):
    dim, rows = data
    p = Polyhedron.from_hrep(dim, rows)
    q = dd_convert(dd_convert(p, "HtoV"), "VtoH")
    assert p == q
    check_consistency(p)


@settings(max_examples=80, deadline=None)
@given(random_cone_hrep())
def test_polar_involution(data):
    dim, rows = data
    base = Polyhedron.from_hrep(dim, rows)
    k = PolyhedralCone.from_polyhedron(base)
    kk = polar_cone(polar_cone(k, "negative"), "negative")
    assert kk == k
    # the polar by definition, with both forms from fresh DDs
    for sign, c in (("negative", 1), ("positive", -1)):
        by_definition = PolyhedralCone.from_normals(
            dim, [tuple(c * x for x in g) for g in k.generators], k.lineality
        )
        polar = polar_cone(k, sign)
        assert (polar.hrep, polar.vrep) == (by_definition.hrep, by_definition.vrep)


@settings(max_examples=60, deadline=None)
@given(random_cone_hrep())
def test_pointed_base_scaling_unique(data):
    dim, rows = data
    k = PolyhedralCone.from_polyhedron(Polyhedron.from_hrep(dim, rows))
    cs = cone_structure(k)
    assert cs.is_pointed == (cs.lineality_dim == 0)
    if cs.base is not None:
        h = cs.functional
        for g in k.generators:
            val = sum(h[i] * g[i] for i in range(dim))
            assert val > 0
            assert cs.base.member(tuple(x / val for x in g))


@settings(max_examples=50, deadline=None)
@given(random_cone_hrep(), st.data())
def test_project_commutes_with_membership(data, draws):
    dim, rows = data
    p = Polyhedron.from_hrep(dim, rows)
    keep = tuple(
        sorted(
            draws.draw(
                st.sets(
                    st.integers(min_value=0, max_value=dim - 1), min_size=1, max_size=dim
                )
            )
        )
    )
    q = project(p, keep)
    x = tuple(F(draws.draw(coord)) for _ in keep)
    # x in projection iff a lift exists (decided by LP, not by q's rows)
    lifted = p.system().extended(
        eq=[(tuple(1 if j == k else 0 for j in range(dim)), x[i]) for i, k in enumerate(keep)]
    )
    has_lift = lp_solve((0,) * dim, lifted, "min").status is LpStatus.OPTIMAL
    assert has_lift == q.member(x)


def criterion5_cone(i, seed=31337):
    """The i-th random cone of acceptance criterion 5 (drawn from another
    stream for another seed): dim and rows of A.x <= 0."""
    rng = random.Random(seed * 1_000_003 + i)
    dim = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        n = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(n):
            rows.append(n)
    return dim, rows


# Fraction linear algebra for the brute-force oracle below, kept apart from
# the integer code in `_dd` so that the two check each other.


def fraction_direction(v) -> tuple[int, ...]:
    """Primitive integer vector pointing the same way as the rational v."""
    denominator = lcm(*(x.denominator for x in v)) if v else 1
    ints = [int(x * denominator) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def scale_primitive(v) -> Vec:
    """Positive rescale to a primitive integer vector (sign preserved)."""
    return vec(fraction_direction(v))


def rref(rows, dim):
    """Reduced row echelon form; returns (canonical rows, pivot columns)."""
    work = [list(vec(r)) for r in rows if not is_zero_vec(r)]
    pivots = []
    r = 0
    for col in range(dim):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pval = work[r][col]
        work[r] = [x / pval for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return [vec(row) for row in work[:r]], pivots


def null_space(rows, dim):
    """Canonical basis of {x : rows . x = 0}."""
    basis_rows, pivots = rref(rows, dim)
    free = [c for c in range(dim) if c not in pivots]
    out = []
    for c in free:
        v = [ZERO] * dim
        v[c] = ONE
        for i, p in enumerate(pivots):
            v[p] = -basis_rows[i][c]
        out.append(vec(v))
    return out


def reduce_mod_lines(v: Vec, lines, pivots) -> Vec:
    """Canonical coset representative of v modulo span(lines) (lines in RREF)."""
    w = list(v)
    for line, p in zip(lines, pivots):
        if w[p] != 0:
            f = w[p] / line[p]
            w = [a - f * b for a, b in zip(w, line)]
    return vec(w)


def cone_by_enumeration(dim, ineq, eq):
    """Canonical (lines, rays) of {x : ineq.x <= 0, eq.x = 0} by brute force.

    An extreme ray of the pointed part (the cone cut by the lineality space's
    orthogonal complement) spans the null space of the equations, the
    lineality basis and some set of inequality rows.
    """
    basis, pivots = rref(null_space(list(ineq) + list(eq), dim), dim)
    lines = [scale_primitive(l) for l in basis]
    rays = set()
    for k in range(len(ineq) + 1):
        for active in combinations(ineq, k):
            span = null_space(list(eq) + lines + list(active), dim)
            if len(span) != 1:
                continue
            for v in (span[0], tuple(-x for x in span[0])):
                if all(sum(a * x for a, x in zip(row, v)) <= 0 for row in ineq):
                    rays.add(scale_primitive(reduce_mod_lines(v, lines, pivots)))
    return lines, sorted(rays)


class TestConeDd:
    def test_adjacency_yields_only_extreme_rays(self, drop_non_extreme):
        for i in range(200):
            dim, rows = criterion5_cone(i)
            lines, rays = cone_dd(dim, rows, [])
            assert drop_non_extreme(dim, rays, lines) == rays, i
            # the dual cone: its lineality comes from equality rows
            negated = [tuple(-x for x in r) for r in rays]
            dual_lines, dual_rays = cone_dd(dim, negated, lines)
            assert drop_non_extreme(dim, dual_rays, dual_lines) == dual_rays, i

    def test_rays_match_enumeration_of_active_sets(self):
        for i in range(200):
            dim, rows = criterion5_cone(i)
            lines, rays = cone_dd(dim, rows, [])
            assert (lines, rays) == cone_by_enumeration(dim, rows, []), i
            negated = [tuple(-x for x in r) for r in rays]
            assert cone_dd(dim, negated, lines) == cone_by_enumeration(
                dim, negated, lines
            ), i

    def test_fractional_rows_match_positive_integer_rescaling(self):
        rng = random.Random(271828)

        def fractional_rows(dim, count):
            return [
                tuple(F(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(dim))
                for _ in range(count)
            ]

        def rescaled(rows):
            # each row times a positive integer that clears its denominators
            out = []
            for r in rows:
                factor = rng.randint(1, 5) * lcm(*(x.denominator for x in r))
                out.append(tuple(int(x * factor) for x in r))
            return out

        for _ in range(200):
            dim = rng.randint(1, 4)
            ineq = fractional_rows(dim, rng.randint(1, 6))
            eq = fractional_rows(dim, rng.randint(0, 1))
            expected = cone_dd(dim, ineq, eq)
            got = cone_dd(dim, rescaled(ineq), rescaled(eq))
            assert repr(got) == repr(expected), (dim, ineq, eq)


def prefilter_test_inputs(criterion_3_program):
    """Every `cone_dd` input met while reading both canonical forms of the
    graph closures of criterion-3 programs 0-59; the rows of criterion-5
    cones 0-149 and of their duals; and the inputs of `from_vrep` sets in
    dims 1-4 with duplicate vertices, rays and lines, read as rows and back
    as generators."""
    inputs = []

    def recorded(*args):
        inputs.append(args)
        return cone_dd(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "cone_dd", recorded)
        for i in range(60):
            closure = graph_closure(criterion_3_program(i))
            closure.hrep, closure.vrep
            Polyhedron.from_hrep(closure.dim, closure.hrep).vrep
        rng = random.Random(16180)
        for _ in range(150):
            dim = rng.randint(1, 4)
            point = lambda: tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
            verts = [point() for _ in range(rng.randint(1, 5))]
            verts += rng.sample(verts, rng.randint(0, len(verts)))
            rays = [point() for _ in range(rng.randint(0, 3))]
            lines = [point() for _ in range(rng.randint(0, 2))]
            p = Polyhedron.from_vrep(dim, verts, rays, lines)
            p.hrep
            Polyhedron.from_hrep(dim, p.hrep).vrep
    for i in range(150):
        dim, rows = criterion5_cone(i)
        inputs.append((dim, rows, []))
        lines, rays = cone_dd(dim, rows, [])
        inputs.append((dim, [tuple(-x for x in r) for r in rays], lines))
    return inputs


class TestCardinalityPrefilter:
    """`cone_dd` skips a pair whose common zero set is smaller than
    k0 - |lines| - 2 before the `_adjacent` scan; its output is the
    unfiltered double description's (`unfiltered_cone_dd`)."""

    def test_matches_the_unfiltered_double_description(
        self, monkeypatch, criterion_3_program, unfiltered_cone_dd
    ):
        inputs = prefilter_test_inputs(criterion_3_program)
        assert len(inputs) > 1000
        scans = [0]
        adjacent = _dd._adjacent

        def counted(common, masks):
            scans[0] += 1
            return adjacent(common, masks)

        monkeypatch.setattr(_dd, "_adjacent", counted)
        filtered = unfiltered = 0
        for args in inputs:
            scans[0] = 0
            got = cone_dd(*args)
            filtered += scans[0]
            scans[0] = 0
            assert got == unfiltered_cone_dd(*args), args
            unfiltered += scans[0]
        # the prefilter decides some pairs that the scan decided before
        assert filtered < unfiltered


def random_row_system(rng):
    """Rational rows with zero rows, repeated rows and combinations of earlier
    rows, beside the same rows as integers times a nonzero integer factor
    (negative factors included), which spans the same row space."""
    dim = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.15:
            rows.append((F(0),) * dim)
        elif kind < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.randint(-3, 3))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            rows.append(
                tuple(F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(dim))
            )
    int_rows = []
    for r in rows:
        factor = rng.choice([-3, -2, -1, 1, 2, 5]) * lcm(*(x.denominator for x in r))
        int_rows.append(tuple(int(x * factor) for x in r))
    return dim, rows, int_rows


class TestIntegerHelpers:
    """The integer helpers of `_dd`, `_kernel` and `rational` against the
    Fraction reference above."""

    def test_integer_rref_is_primitive_rref(self):
        rng = random.Random(1618)
        for _ in range(400):
            dim, rows, int_rows = random_row_system(rng)
            basis, pivots = rref(rows, dim)
            got_basis, got_pivots = _integer_rref(int_rows, dim)
            assert got_pivots == pivots, rows
            assert got_basis == [scale_primitive(r) for r in basis], rows
            assert all(type(x) is int for r in got_basis for x in r)

    def test_integer_null_space_is_primitive_null_space(self):
        rng = random.Random(2718)
        for _ in range(400):
            dim, rows, int_rows = random_row_system(rng)
            expected = [scale_primitive(v) for v in null_space(rows, dim)]
            assert _integer_null_space(int_rows, dim) == expected, rows

    def test_reduce_mod_lines_is_primitive_reduction(self):
        rng = random.Random(3141)
        for _ in range(400):
            dim, rows, int_rows = random_row_system(rng)
            basis, pivots = rref(rows, dim)
            lines, _ = _integer_rref(int_rows, dim)
            v = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
            expected = fraction_direction(reduce_mod_lines(v, basis, pivots))
            assert _reduce_mod_lines(fraction_direction(v), lines, pivots) == expected

    def test_integer_direction_matches_fraction_formula(self):
        cases = [
            (),
            (0,),
            (0, 0, 0),
            (4, -6, 8),
            (-3, 0, 9),
            (F(1, 2), F(-1, 3), F(5, 6)),
            (F(-4, 9), 2, F(0), F(7, 3)),
            (F(10, 4), -5, F(-15, 2)),
        ]
        rng = random.Random(1414)
        for _ in range(300):
            cases.append(
                tuple(
                    rng.choice([rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 12))])
                    for _ in range(rng.randint(0, 6))
                )
            )
        for v in cases:
            ints, d = integer_scaled(v)
            assert d > 0 and tuple(F(x, d) for x in ints) == v, v
            got = primitive(ints)
            assert got == fraction_direction(v), v
            assert all(type(x) is int for x in got)


def non_fractions(*sets):
    """Every entry of the sets' canonical rows and generators, and of the
    given vectors, whose type is not exactly Fraction."""
    bad = []
    for x in sets:
        if isinstance(x, Polyhedron):
            entries = [e for r in x.hrep for e in r.normal + (r.offset,)]
            v = x.vrep
            entries += [e for g in v.vertices + v.rays + v.lines for e in g]
        else:
            entries = list(x)
        bad += [e for e in entries if type(e) is not F]
    return bad


class TestFractionBoundary:
    """Double description runs on integers, and every canonical entry built
    from it is a Fraction: an int has `.numerator` too and prints the same
    in reports, so a leak would pass every golden test."""

    def test_criterion_5_cones(self):
        for i in range(300):
            dim, rows = criterion5_cone(i)
            k = PolyhedralCone.from_normals(dim, rows)
            # a polyhedron with the same normals and nonzero offsets
            p = Polyhedron.from_hrep(dim, [(n, 1 + j % 3, LE) for j, n in enumerate(rows)])
            sets = [k, p, dd_convert(p, "VtoH"), dd_convert(p, "HtoV")]
            for sign in ("negative", "positive"):
                polar = polar_cone(k, sign)
                sets += [polar, *polar.generators, *polar.lineality]
            cs = cone_structure(k)
            if cs.base is not None:
                sets += [cs.base, cs.functional]
            assert non_fractions(*sets) == [], i

    @pytest.mark.parametrize("name", ["worked_example", "i3", "scalar_i2"])
    def test_bundled_instances(self, name):
        path = resources.files("process_duality").joinpath(f"instances/{name}.json")
        ctx = ProgramContext(load_problem(str(path)))
        closure = graph_closure(ctx.program)
        _, points, _ = minimal_frontier_points(ctx)
        assert points
        sets = [ctx.program.omega.closure, closure]
        for y0 in points:
            cert = certify_multiplier(ctx, y0)
            for s in (separator_cone(closure, y0), cert.separators):
                assert s.generators
                for h in s.generators:
                    sets += [h.z_star, h.y_star]
            graph = cert.process.graph
            sets += [graph, polar_cone(graph), cert.dual_image]
        assert non_fractions(*sets) == []


def fractional_points(points):
    """Each point moved by +-1/k in alternate coordinates, and scaled by
    (k - 1)/k, for k = 2, 3 and 7."""
    out = []
    for v in map(vec, points):
        for k in (2, 3, 7):
            out.append(tuple(x + F((-1) ** j, k) for j, x in enumerate(v)))
            out.append(tuple(x * F(k - 1, k) for x in v))
    return out


def holds_at(at, cell, rows):
    """Is the point of the point cell `at` in `cell`, an identity cell, and
    strictly inside every half-space (normal, rhs) of rows?  Decided by
    `integer_holds` on the point's `integer_point`."""
    x, d = at.integer_point
    return integer_holds(x, d, strict=integer_rows(rows)) and integer_holds(
        x, d, *cell.system.integer_form
    )


class TestIntegerMembership:
    """Membership is decided in integers, each row set scaled once and each
    point written over one denominator; it agrees with the row-by-row
    Fraction evaluation it replaced (`fraction_member`)."""

    def test_criterion_3_programs(self, criterion_3_program, fraction_member):
        seen = dict.fromkeys(("member", "outside", "ray", "not ray", "holds"), 0)
        for i in range(40):
            omega = criterion_3_program(i).omega
            closure = omega.closure
            verts = closure.vrep.vertices[:4]
            points = probes(verts) + fractional_points(verts)
            cells = as_cells(omega)
            polys = [closure] + [c.closure_image() for c in cells]
            directions = list(closure.vrep.rays + closure.vrep.lines)
            directions += [tuple(-x for x in d) for d in directions]
            directions += [tuple(a - b for a, b in zip(u, verts[0])) for u in points]
            strict = [(r.normal, r.offset) for r in closure.inequalities()]
            for y in points:
                for a in polys + [omega]:
                    expected = fraction_member(a, y)
                    assert a.member(y) == expected, (i, a, y)
                    seen["member" if expected else "outside"] += 1
                for c in cells:
                    assert c.member(y) == fraction_member(c, y), (i, c, y)
                at = point_cell(y)
                for c in cells:
                    for rows in ((), strict):
                        expected = fraction_member.holds_at(at.point, (at, c), rows)
                        assert holds_at(at, c, rows) == expected
                        seen["holds"] += expected
            for r in directions:
                for a in polys:
                    expected = fraction_member.ray(a, r)
                    assert a.ray_member(r) == expected, (i, a, r)
                    seen["ray" if expected else "not ray"] += 1
        assert seen["member"] > 200 and seen["outside"] > 200
        assert seen["ray"] > 100 and seen["not ray"] > 100 and seen["holds"] > 50

    def test_criterion_4_programs(self, criterion_4_program, fraction_member,
                                  shifted_facets):
        seen = dict.fromkeys(
            ("member", "in y0 - Int Y+", "in y0 - Y+, off y0", "feasible", "interior"), 0
        )
        for i in range(60):
            p = criterion_4_program(i)
            yplus, zplus = p.y_plus, p.z_plus
            cells = w0_cells(p)
            images = list(dict.fromkeys(fv for pt in p.points for fv in pt.f_values))
            for y in images:
                for c in cells:
                    expected = fraction_member(c, y)
                    assert c.member(y) == expected
                    seen["member"] += expected
            for pt in p.points:
                for gv in pt.g_values:
                    w = tuple(-x for x in gv)
                    expected = fraction_member(zplus.cone, w)
                    assert zplus.contains(w) == expected
                    seen["feasible"] += expected
                    interior = all(dot(n, w) < 0 for n in zplus.facet_normals())
                    assert zplus.strictly_contains(w) == interior
                    seen["interior"] += interior
            for y0 in images:
                rows, ints = shifted_facets.rows_at(yplus, y0)
                assert list(rows) == [
                    (tuple(-x for x in n), -dot(n, y0)) for n in yplus.facet_normals()
                ]
                # each integer row is a positive multiple of its row
                assert len(ints) == len(rows)
                for (n, r), (a, b, s) in zip(rows, ints):
                    assert s > 0 and a == tuple(s * x for x in n) and b == s * r
                below_y0 = cell_of_polyhedron(
                    Polyhedron.from_hrep(yplus.ambient_dim, [(n, r, LE) for n, r in rows])
                )
                total = [(tuple(map(sum, zip(*(n for n, _ in rows)))),
                          sum(r for _, r in rows))]
                for c in cells:
                    # the tests of `is_weak_minimal` and `is_minimal` at y0
                    v, (x, d) = c.point, c.integer_point
                    inside = fraction_member.holds_at(v, (c,), rows)
                    assert integer_holds(x, d, strict=integer_rows(rows)) == inside
                    below = fraction_member.holds_at(v, (c, below_y0), total)
                    assert holds_at(c, below_y0, total) == below
                    seen["in y0 - Int Y+"] += inside
                    seen["in y0 - Y+, off y0"] += below
        assert all(n > 20 for n in seen.values()), seen

    def test_edge_cases(self, fraction_member):
        empty = Polyhedron.empty(2)  # 0.x <= -1
        plane = Polyhedron.from_hrep(
            2, [((F(1, 2), F(1, 3)), F(5, 6), EQ), ((1, 0), 4, LE)]
        )
        mixed = Polyhedron.from_hrep(
            2, [((F(1, 2), F(2, 3)), F(5, 7), LE), ((F(-3, 4), 1), F(1, 9), LE)]
        )
        cases = {
            (empty, (0, 0)): False,
            (empty, (F(1, 3), 5)): False,
            (plane, (1, 1)): True,
            (plane, (F(1, 3), 2)): True,
            (plane, (1, F(1, 2))): False,
            (plane, (5, F(-5, 4))): False,
            (mixed, (F(1, 3), F(1, 7))): True,
            (mixed, (F(1, 3), F(3, 7))): False,  # -1/4 + 3/7 = 5/28 > 1/9
            (mixed, (F(2, 3), F(4, 7))): True,  # 1/3 + 8/21 = 5/7, on row 1
            (mixed, (F(2, 3), F(9, 14))): False,
            (mixed, (0, F(1, 9))): True,  # on row 2
            (mixed, (F(-4, 27), 0)): True,  # on row 2
            (mixed, (0, F(2, 17))): False,
        }
        for (a, y), expected in cases.items():
            assert a.member(y) == fraction_member(a, y) == expected, (a, y)
        rays = {
            (empty, (1, 0)): True,
            (empty, (0, 0)): True,
            (plane, (2, -3)): False,
            (plane, (-2, 3)): True,
            (plane, (F(-1, 2), F(3, 4))): True,
            (plane, (1, 1)): False,
            (mixed, (F(-1, 2), F(-3, 8))): True,
            (mixed, (F(-4, 3), -1)): True,  # along row 2
            (mixed, (0, F(1, 5))): False,
        }
        for (a, r), expected in rays.items():
            assert a.ray_member(r) == fraction_member.ray(a, r) == expected, (a, r)
        # (2/3)x - (1/7)y < 1/5 and x/3 + y/5 = 1/10 on an identity cell
        cell = Cell(
            LinearSystem(
                2, eq=[((F(1, 3), F(1, 5)), F(1, 10))],
                strict=[((F(2, 3), F(-1, 7)), F(1, 5))],
            ),
            ((ONE, ZERO), (ZERO, ONE)),
            zeros(2),
        )
        assert cell.is_identity and cell.point is None
        cell_cases = {
            (F(3, 10), 0): False,  # on the strict row's boundary
            (F(3, 11), F(1, 22)): True,
            (F(9, 20), F(-1, 4)): False,  # on the eq row, past the strict row
            (F(3, 10), F(1, 100)): False,  # off the eq row
        }
        for y, expected in cell_cases.items():
            assert cell.member(y) == fraction_member(cell, y) == expected, y
            at = point_cell(y)
            for rows in ((), [((F(1, 2), F(-2, 3)), F(1, 6))]):
                assert holds_at(at, cell, rows) == (
                    fraction_member.holds_at(at.point, (at, cell), rows)
                )
        # the point on the strict row's boundary is excluded by a strict
        # half-space too, and a point cell holds its own point only
        edge = point_cell((F(3, 10), 0))
        x, d = edge.integer_point
        assert not integer_holds(x, d, strict=integer_rows(cell.system.strict))
        assert not point_cell((F(3, 10), F(1, 7))).member(edge.point)
        assert point_cell((F(3, 10), 0)).member(edge.point)


def unit_row_cell(v):
    """The point cell {v} as `w0_cells` made it before `point_cell`: the
    identity cell over the unit rows y_i = v_i, last coordinate first, in a
    `LinearSystem` that coerces and scales the rows itself."""
    n = len(v)
    unit = [tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)]
    return polyhedra.identity_cell(
        LinearSystem(n, eq=tuple((unit[i], v[i]) for i in reversed(range(n))))
    )


class TestPointCell:
    """`point_cell(v)` is the identity cell on the unit rows y_i = v_i that
    `w0_cells` built before (`unit_row_cell`), with its point and the point's
    integer form set when it is built: the same rows, once read, and the
    same answers, `intersect_empty`'s witness included."""

    @staticmethod
    def same_cell(new, old, v):
        assert new.point == v and new.is_identity and old.is_identity
        assert new.integer_point == integer_scaled(v)
        assert (new.system.le, new.system.eq, new.system.strict) == (
            old.system.le, old.system.eq, old.system.strict
        )
        assert (new.matrix, new.offset) == (old.matrix, old.offset)
        le, eq, strict = new.system.integer_form
        assert le == strict == () and len(eq) == len(old.system.eq)
        # each integer row is a positive multiple of its `integer_rows` row
        for (a, b, s), (a0, b0, s0) in zip(eq, integer_rows(old.system.eq)):
            k, rest = divmod(s, s0)
            assert k > 0 and rest == 0
            assert (a, b) == (tuple(k * x for x in a0), k * b0)

    def test_criterion_4_programs(self, criterion_4_program, shifted_facets):
        seen = dict.fromkeys(("member", "outside", "empty", "nonempty"), 0)
        for i in range(200):
            p = criterion_4_program(i)
            yplus, dim = p.y_plus, p.y_dim
            images = list(dict.fromkeys(fv for pt in p.points for fv in pt.f_values))
            new = [polyhedra.point_cell(v) for v in images]
            old = [unit_row_cell(v) for v in images]
            for a, b, v in zip(new, old, images):
                self.same_cell(a, b, v)
            probes = images + [tuple(x + F(1, 3) for x in v) for v in images]
            for y in probes:
                expected = member(old, y)
                assert member(new, y) == expected, (i, y)
                assert [c.member(y) for c in new] == [c.member(y) for c in old]
                seen["member" if expected else "outside"] += 1
            for y0 in images:
                rows, _ = shifted_facets.rows_at(yplus, y0)
                below = polyhedra.identity_cell(LinearSystem(dim, le=rows))
                inside = polyhedra.identity_cell(LinearSystem(dim, strict=rows))
                total = [shifted_facets.summed(yplus, y0)]
                for parts_new, parts_old, strict in (
                    ([new, below], [old, below], total),
                    ([new, inside], [old, inside], ()),
                ):
                    expected = intersect_empty(parts_old, strict)
                    assert intersect_empty(parts_new, strict) == expected, (i, y0)
                    seen["empty" if expected.empty else "nonempty"] += 1
                    for a, b in zip(new, old):
                        assert intersect_empty([a] + parts_new[1:], strict) == (
                            intersect_empty([b] + parts_old[1:], strict)
                        )
        assert all(n > 100 for n in seen.values()), seen

    def test_rows_and_integer_form(self):
        cell = polyhedra.point_cell((F(1, 2), -3, F(5, 4)))
        assert cell.point == (F(1, 2), F(-3), F(5, 4))
        assert cell.integer_point == ((2, -12, 5), 4)
        assert cell.system.eq == (
            ((ZERO, ZERO, ONE), F(5, 4)),
            ((ZERO, ONE, ZERO), F(-3)),
            ((ONE, ZERO, ZERO), F(1, 2)),
        )
        # over the one denominator 4, not each row's own
        assert cell.system.integer_form[1] == (
            ((0, 0, 4), 5, 4), ((0, 4, 0), -12, 4), ((4, 0, 0), 2, 4),
        )
        assert cell.matrix == ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
        assert cell.offset == zeros(3)

    def test_identity_matrix_is_built_only_when_read(self, monkeypatch):
        built = []
        identity = polyhedra._identity

        def counted(dim):
            built.append(dim)
            return identity(dim)

        monkeypatch.setattr(polyhedra, "_identity", counted)
        cell = polyhedra.point_cell((1, 2))
        below = polyhedra.identity_cell(LinearSystem(2, le=[((1, 0), 3)]))
        assert cell.is_identity and below.is_identity and built == []
        assert intersect_empty([cell, below], [((0, 1), 3)]) == (
            polyhedra.Emptiness(False, (F(1), F(2)))
        )
        assert built == []
        assert cell.matrix == below.matrix == ((ONE, ZERO), (ZERO, ONE))
        assert cell.matrix is cell.matrix and built == [2, 2]
        # a cell built with its matrix never makes one
        moved = Cell(below.system, below.matrix, (ONE, ZERO))
        assert not moved.is_identity and moved.matrix is below.matrix
        assert built == [2, 2]
