"""Model layer: feasible map, upper-image graph, Slater points, invariants."""

import random
from fractions import Fraction as F

import pytest

from process_duality.errors import (
    EmptyProgramError,
    InternalConsistencyError,
    NotMemberError,
    ProcessDualityError,
)
from process_duality.exactlp import LinearSystem, LpStatus, lp_solve, strict_feasible
from process_duality.model import (
    _facet_trace,
    _graph_map,
    _product_cone_gens,
    AffineVectorProgram,
    DiscretePoint,
    DiscreteVectorProgram,
    OrderCone,
    SetValuedPoint,
    SetValuedProgram,
    affine_map,
    feasible_region,
    graph_closure,
    simplex_relaxation,
    slater_point,
    upper_image_graph,
    w0_cells,
    w0_image_points,
)
from process_duality.polyhedra import (
    EQ,
    LE,
    BoundaryRestrictedPolyhedron,
    Polyhedron,
    as_cells,
    member,
)
from process_duality.fuzzing import random_order_cone
from process_duality.rational import ZERO, dot, vsub, zeros


class TestOrderCone:
    def test_interior_witness_cached(self, orthant2):
        w = orthant2.interior_witness
        assert orthant2.strictly_contains(w)

    def test_rejects_flat_cone(self):
        with pytest.raises(InternalConsistencyError):
            OrderCone.from_generators(2, [(1, 0)])

    def test_rejects_whole_space(self):
        with pytest.raises(InternalConsistencyError):
            OrderCone.from_generators(1, [(1,), (-1,)])

    def test_nonpointed_halfplane_allowed(self):
        c = OrderCone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        assert not c.is_pointed
        assert c.contains((5, 0))
        assert not c.strictly_contains((5, 0))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_interior_witness_is_the_ray_sum(self, dim):
        """The witness is the sum of the canonical extreme rays, strictly
        inside on every facet row, and the strict LP that once supplied it
        agrees that the interior is nonempty."""
        lined = 0
        for seed in range(150):
            c = random_order_cone(random.Random(seed), dim)
            total = zeros(dim)
            for r in c.generators:
                total = tuple(a + b for a, b in zip(total, r))
            assert c.interior_witness == total, seed
            assert all(dot(n, total) < 0 for n in c.facet_normals()), seed
            assert strict_feasible(LinearSystem(
                dim, strict=tuple((n, 0) for n in c.facet_normals())
            )).feasible, seed
            lined += bool(c.lineality)
        assert dim == 1 or lined > 0

    def test_below_rows_are_the_shifted_facets_scaled(self, criterion_4_program,
                                                      shifted_facets):
        """Each integer row of y0 - Y_+ is a positive multiple of (-n, -n.y0),
        the Fraction row `shifted_facets.rows_at` gives, at integer and
        fractional y0."""
        for i in range(40):
            yplus = criterion_4_program(i).y_plus
            rng = random.Random(i)
            for _ in range(3):
                y0 = tuple(
                    F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(yplus.ambient_dim)
                )
                rows, ints = shifted_facets.rows_at(yplus, y0)
                want = [(tuple(-x for x in n), -dot(n, y0)) for n in yplus.facet_normals()]
                assert list(rows) == want and ints == yplus.below_rows(y0)
                for (n, r), (a, b, scale) in zip(want, ints):
                    assert scale > 0 and a == tuple(scale * x for x in n) and b == scale * r

    def test_a_failed_witness_check_raises(self, monkeypatch):
        monkeypatch.setattr(OrderCone, "strictly_contains", lambda self, w: False)
        with pytest.raises(InternalConsistencyError,
                           match="order cone has empty interior"):
            OrderCone.from_generators(2, [(1, 0), (0, 1)])


class TestFeasibleRegion:
    def test_worked_example_z0(self, worked_example):
        lam = feasible_region(worked_example, (0,))
        assert isinstance(lam, BoundaryRestrictedPolyhedron)
        assert lam.member((0, 0))
        assert lam.member((3, F(1, 2)))
        assert lam.member((0, 1))
        assert not lam.member((1, 0))
        assert not lam.member((0, 2))

    def test_worked_example_infeasible_level(self, worked_example):
        lam = feasible_region(worked_example, (-2,))
        assert isinstance(lam, Polyhedron) and lam.is_empty

    def test_worked_example_collapsed_level(self, worked_example):
        # z = -1 pins the feasible set to the retained origin.
        lam = feasible_region(worked_example, (-1,))
        assert isinstance(lam, Polyhedron)
        assert lam.vrep.vertices == ((F(0), F(0)),)

    def test_scalar(self, scalar_i2):
        lam = feasible_region(scalar_i2, (0,))
        assert lam.vrep.vertices == ((F(1),),)
        assert lam.vrep.rays == ((F(1),),)

    def test_discrete_rule(self, orthant2, r_plus):
        pts = [
            DiscretePoint("a", (F(0), F(0)), (F(-1),)),
            DiscretePoint("b", (F(1), F(0)), (F(2),)),
        ]
        p = DiscreteVectorProgram(pts, orthant2, r_plus)
        assert feasible_region(p, (0,)) == ("a",)
        assert feasible_region(p, (2,)) == ("a", "b")

    def test_setvalued_intersection_rule(self, orthant2, r_plus):
        pts = [
            SetValuedPoint("a", ((F(0), F(0)),), ((F(3),), (F(-1),))),
            SetValuedPoint("b", ((F(1), F(0)),), ((F(5),),)),
        ]
        p = SetValuedProgram(pts, orthant2, r_plus)
        # a is feasible at z=0 because one of its G-values meets (0 - R_+)
        assert feasible_region(p, (0,)) == ("a",)

    def test_finite_programs_match_the_fraction_route(self, criterion_4_program):
        """Each g tested on the integer rows of z - Z_+ gives the points
        whose z - g, formed in Fractions, lies in Z_+."""
        feasible = infeasible = 0
        for i in range(100):
            p = criterion_4_program(i)
            rng = random.Random(i)
            levels = [zeros(p.z_dim)] + [
                tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(p.z_dim))
                for _ in range(3)
            ]
            for z in levels:
                want = tuple(
                    pt.point_id for pt in p.points
                    if any(p.z_plus.contains(vsub(z, g)) for g in pt.g_values)
                )
                got = feasible_region(p, z)
                assert got == want, (i, z)
                feasible += len(got)
                infeasible += len(p.points) - len(got)
        assert feasible > 300 and infeasible > 300, (feasible, infeasible)


class TestUpperImageGraph:
    def test_worked_example_graph_membership(self, worked_example):
        g = upper_image_graph(worked_example)
        assert isinstance(g, BoundaryRestrictedPolyhedron)
        # closure is [-1, inf) x {y2 >= 0}
        assert g.closure.member((-1, 7, 0))
        assert not g.closure.member((-2, 0, 0))
        # exact set: slices above z = -1 keep the open-left part; the z = -1
        # slice is the closed quadrant only
        assert g.member((0, -3, 1))
        assert not g.member((0, -3, 0))
        assert g.member((0, 0, 0))
        assert g.member((-1, 1, 1))
        assert not g.member((-1, -2, 5))

    def test_worked_example_graph_facet_restriction(self, worked_example):
        g = upper_image_graph(worked_example)
        by_row = {(fr.normal, fr.offset): fr.retained for fr in g.restrictions}
        # the y2 = 0 slice retains [-1, inf) x R_+ x {0}
        retained = by_row[((F(0), F(0), F(-1)), F(0))]
        assert retained.member((5, 3, 0))
        assert not retained.member((5, -3, 0))
        assert retained.member((-1, 0, 0))
        assert not retained.member((-2, 3, 0))

    def test_scalar_graph(self, scalar_i2):
        g = upper_image_graph(scalar_i2)
        assert isinstance(g, Polyhedron)
        assert g.hrep == Polyhedron.from_hrep(2, [((-1, -1), -1, LE)]).hrep

    def test_planar_graph(self, planar_i3):
        g = upper_image_graph(planar_i3)
        expect = Polyhedron.from_hrep(
            3,
            [((-1, -1, -1), -1, LE), ((0, -1, 0), 0, LE), ((0, 0, -1), 0, LE)],
        )
        assert g == expect

    def test_empty_program_raises(self, orthant2, r_plus):
        with pytest.raises(EmptyProgramError):
            AffineVectorProgram(
                Polyhedron.empty(1),
                affine_map([[1]], [0]),
                affine_map([[1]], [0]),
                r_plus,
                r_plus,
            )


class TestSlater:
    def test_worked_example(self, worked_example):
        x1 = slater_point(worked_example)
        assert worked_example.omega.member(x1)
        g = worked_example.g(x1)
        assert worked_example.z_plus.strictly_contains(tuple(-v for v in g))

    def test_scalar(self, scalar_i2):
        x1 = slater_point(scalar_i2)
        assert scalar_i2.g(x1)[0] < 0

    def test_zero_map_has_no_slater(self, r_plus):
        p = AffineVectorProgram(
            Polyhedron.full_space(1),
            affine_map([[1]], [0]),
            affine_map([[0]], [0]),
            r_plus,
            OrderCone.from_generators(1, [(1,)]),
        )
        assert slater_point(p) is None


class TestGraphInvariants:
    def test_monotone_under_product_cone(self, worked_example, scalar_i2, planar_i3):
        for prog in (worked_example, scalar_i2, planar_i3):
            g = upper_image_graph(prog)
            closure = g.closure if isinstance(g, BoundaryRestrictedPolyhedron) else g
            zdim = prog.z_dim
            shifts = [
                tuple(d) + (F(0),) * prog.y_dim for d in prog.z_plus.generators
            ] + [(F(0),) * zdim + tuple(d) for d in prog.y_plus.generators]
            membered = (
                g.member if isinstance(g, BoundaryRestrictedPolyhedron) else g.member
            )
            for w in closure.vrep.vertices:
                if not membered(w):
                    continue
                for d in shifts:
                    assert membered(tuple(a + b for a, b in zip(w, d)))

    def test_convexity_midpoints(self, worked_example):
        g = upper_image_graph(worked_example)
        rng = random.Random(5)
        pts = [(-1, 0, 0), (0, -2, 1), (3, 1, 0), (0, 0, 0), (2, -1, 4)]
        members = [p for p in pts if g.member(p)]
        for a in members:
            for b in members:
                mid = tuple((F(x) + F(y)) / 2 for x, y in zip(a, b))
                assert g.member(mid)

    def test_feasible_region_monotone_discrete(self, orthant2, r_plus):
        rng = random.Random(9)
        for _ in range(30):
            pts = [
                DiscretePoint(
                    f"p{i}",
                    (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))),
                    (F(rng.randint(-3, 3)),),
                )
                for i in range(rng.randint(1, 5))
            ]
            p = DiscreteVectorProgram(pts, orthant2, r_plus)
            z1 = F(rng.randint(-3, 3))
            delta = F(rng.randint(0, 3))
            lo = set(feasible_region(p, (z1,)))
            hi = set(feasible_region(p, (z1 + delta,)))
            assert lo <= hi

    def test_discrete_graph_equals_convexified_oracle(self, orthant2, r_plus):
        rng = random.Random(13)
        for _ in range(20):
            pts = [
                DiscretePoint(
                    f"p{i}",
                    (F(rng.randint(-2, 2)), F(rng.randint(-2, 2))),
                    (F(rng.randint(-2, 2)),),
                )
                for i in range(rng.randint(1, 5))
            ]
            p = DiscreteVectorProgram(pts, orthant2, r_plus)
            g = upper_image_graph(p)
            # independent oracle: (z,y) in graph iff a convex-combination LP
            # over the sampled pairs plus cone coefficients is feasible
            k = len(pts)
            for _ in range(8):
                probe = tuple(F(rng.randint(-3, 3)) for _ in range(3))
                width = k + 3  # lambdas, z_+ coeff, y_+ coeffs
                le = [
                    (tuple(-F(int(i == j)) for i in range(width)), F(0))
                    for j in range(width)
                ]
                eq = [((F(1),) * k + (F(0),) * 3, F(1))]
                # z = sum l_i g_i + s
                eq.append(
                    (
                        tuple(pt.g_value[0] for pt in pts) + (F(1), F(0), F(0)),
                        probe[0],
                    )
                )
                for c in range(2):
                    eq.append(
                        (
                            tuple(pt.f_value[c] for pt in pts)
                            + (F(0),)
                            + tuple(F(int(c == d)) for d in range(2)),
                            probe[1 + c],
                        )
                    )
                feas = (
                    lp_solve((F(0),) * width, LinearSystem(width, tuple(le), tuple(eq)))
                    .status
                    is LpStatus.OPTIMAL
                )
                assert feas == g.member(probe)


class TestGraphClosure:
    def test_is_the_graph_when_it_is_closed(
        self, scalar_i2, planar_i3, three_point_discrete
    ):
        for p in (scalar_i2, planar_i3, three_point_discrete):
            g = upper_image_graph(p)
            assert isinstance(g, Polyhedron)
            assert graph_closure(p) == g


class TestSimplexRelaxation:
    def test_relaxation_graph_matches_finite_graph(self, three_point_discrete):
        relaxed = simplex_relaxation(three_point_discrete)
        assert upper_image_graph(relaxed) == upper_image_graph(three_point_discrete)

    def test_w0_membership(self, worked_example):
        cells = w0_cells(worked_example)
        assert member(cells, (0, 0))
        assert member(cells, (2, F(1, 2)))
        assert not member(cells, (2, 0))
        assert not member(cells, (0, 2))


class TestW0ImagePoints:
    def test_finite_program(self, three_point_discrete):
        p = three_point_discrete
        assert p.w0_values == tuple(pt.f_value for pt in p.points)
        assert w0_image_points(p) == p.w0_values
        # kept with the program: the second read is the same tuple
        assert p.w0_values is p.w0_values

    def test_an_affine_program_has_no_image_point_set(
        self, scalar_i2, planar_i3, worked_example
    ):
        for p in (scalar_i2, planar_i3, worked_example):
            with pytest.raises(NotMemberError, match="need a finite program") as err:
                w0_image_points(p)
            assert isinstance(err.value, ProcessDualityError)


def lifted_facet_trace(cell, phi, krays, klines, normal, offset):
    """Oracle: (phi(cell) + K) on normal.w = offset, or None, through the lift
    (x, lambda >= 0 for the K rays, mu free for the K lines)."""
    xdim = cell.lift_dim
    nk = len(krays)
    nl = len(klines)
    width = xdim + nk + nl
    out_dim = len(normal)

    def lift_row(coeffs_x, rhs):
        return (tuple(coeffs_x) + zeros(nk + nl), rhs)

    le = [lift_row(n, r) for n, r in cell.system.le]
    eq = [lift_row(n, r) for n, r in cell.system.eq]
    strict = [lift_row(n, r) for n, r in cell.system.strict]
    for i in range(nk):
        le.append((zeros(xdim) + tuple(-F(int(i == j)) for j in range(nk)) + zeros(nl), ZERO))
    comp = cell.compose(phi.matrix, phi.offset)
    w_rows = []
    for i in range(out_dim):
        row = list(comp.matrix[i]) + [krays[j][i] for j in range(nk)]
        row += [klines[j][i] for j in range(nl)]
        w_rows.append((tuple(row), comp.offset[i]))
    target = tuple(
        sum((normal[i] * w_rows[i][0][j] for i in range(out_dim)), ZERO)
        for j in range(width)
    )
    shift = sum((normal[i] * w_rows[i][1] for i in range(out_dim)), ZERO)
    eq.append((target, F(offset) - shift))
    system = LinearSystem(width, tuple(le), tuple(eq), tuple(strict))
    if not strict_feasible(system).feasible:
        return None
    closed = Polyhedron.from_hrep(
        width,
        [(n, r, LE) for n, r in system.le]
        + [(n, r, LE) for n, r in system.strict]
        + [(n, r, EQ) for n, r in system.eq],
    )
    matrix = tuple(r for r, _ in w_rows)
    off = tuple(r for _, r in w_rows)
    return closed.affine_image(matrix, off, out_dim)


def _hull(dim, parts, rays=(), lines=()):
    """Closed convex hull of nonempty polyhedra plus extra rays and lines."""
    if not parts:
        return Polyhedron.empty(dim)
    vs, rs, ls = [], list(rays), list(lines)
    for t in parts:
        vs += list(t.vrep.vertices)
        rs += list(t.vrep.rays)
        ls += list(t.vrep.lines)
    return Polyhedron.from_vrep(dim, vs, rs, ls)


class TestFacetTrace:
    def test_x_space_trace_matches_lifted_oracle(self, worked_example,
                                                  criterion_3_program):
        programs = [worked_example] + [
            p for p in map(criterion_3_program, range(80))
            if isinstance(p.omega, BoundaryRestrictedPolyhedron)
        ]
        assert len(programs) > 15
        restricted_graphs = 0
        for p in programs:
            phi = _graph_map(p)
            krays, klines = _product_cone_gens(p)
            dim = p.z_dim + p.y_dim
            cells = as_cells(p.omega)
            g = upper_image_graph(p)
            closure = g.closure if isinstance(g, BoundaryRestrictedPolyhedron) else g
            assert graph_closure(p) == closure
            expected = []
            for row in closure.inequalities():
                n, o = row.normal, row.offset
                lifted = [lifted_facet_trace(c, phi, krays, klines, n, o) for c in cells]
                lifted = [t for t in lifted if t is not None and not t.is_empty]
                traces = [_facet_trace(c.compose(phi.matrix, phi.offset), n, o)
                          for c in cells]
                traces = [t for t in traces if t is not None]
                retained = _hull(dim, lifted)
                assert retained == _hull(
                    dim, traces, [k for k in krays if dot(n, k) == 0], klines
                )
                facet = Polyhedron.from_hrep(dim, tuple(closure.hrep) + ((n, o, EQ),))
                if retained != facet:
                    expected.append((n, o, retained))
            got = (
                [(r.normal, r.offset, r.retained) for r in g.restrictions]
                if isinstance(g, BoundaryRestrictedPolyhedron) else []
            )
            assert got == expected
            restricted_graphs += bool(expected)
        assert restricted_graphs > 5
