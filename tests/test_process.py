"""Separator cone and Lagrange process: golden values and guarantees."""

import random
from fractions import Fraction as F

import pytest

from process_duality import polyhedra as polyhedra_module
from process_duality.certify import (
    ProgramContext,
    certify_multiplier,
    minimal_frontier_points,
)
from process_duality.errors import DegenerateFunctional, EmptyFeasibleError, SlaterMissing
from process_duality.fuzzing import random_discrete_instance, random_setvalued_instance
from process_duality.model import graph_closure, slater_point, upper_image_graph
from process_duality.polyhedra import LE, Polyhedron, PolyhedralCone
from process_duality.process import (
    Separator,
    SeparatorCone,
    check_nonvertical,
    fiber_bar,
    halfspace_process,
    lagrange_process,
    process_eval,
    separator_cone,
)


def build(prog, y0):
    g = upper_image_graph(prog)
    return separator_cone(g, y0)


class TestSeparatorCone:
    def test_worked_example(self, worked_example):
        s = build(worked_example, (0, 0))
        assert [h.vector for h in s.generators] == [(F(0), F(0), F(1))]
        assert not s.empty_flag

    def test_scalar(self, scalar_i2):
        s = build(scalar_i2, (1,))
        assert [h.vector for h in s.generators] == [(F(1), F(1))]

    def test_planar(self, planar_i3):
        s = build(planar_i3, (F(1, 2), F(1, 2)))
        assert [h.vector for h in s.generators] == [(F(1), F(1), F(1))]

    def test_interior_point_has_empty_cone(self, planar_i3):
        s = build(planar_i3, (3, 3))
        assert s.empty_flag

    def test_sign_conditions(self, worked_example, scalar_i2, planar_i3):
        # Separators are nonnegative on Z_+ x Y_+ generators.
        cases = [
            (worked_example, (0, 0)),
            (scalar_i2, (1,)),
            (planar_i3, (F(1, 2), F(1, 2))),
        ]
        for prog, y0 in cases:
            s = build(prog, y0)
            for h in s.generators:
                for zg in prog.z_plus.generators:
                    assert sum(a * b for a, b in zip(h.z_star, zg)) >= 0
                for yg in prog.y_plus.generators:
                    assert sum(a * b for a, b in zip(h.y_star, yg)) >= 0


def _finite_programs(count):
    """Discrete (3,2) and set-valued (2,2) programs, `count` seeds each."""
    for s in range(count):
        yield random_discrete_instance(random.Random(s), (3, 2))
        yield random_setvalued_instance(random.Random(s), (2, 2))


class TestGeneratingSetReads:
    """Consumers that need only a generating set of the graph closure read
    the one it was built from (`any_vrep`), never its canonical form."""

    @staticmethod
    def compared(oracle, p):
        """(frontier points at which the separator cones of p's graph
        closures, as certify and the CLI build them, equal the oracle's,
        whether some closure was built from redundant vertices)."""
        ctx = ProgramContext(p)
        try:
            _, points, _ = minimal_frontier_points(ctx)
        except EmptyFeasibleError:
            return 0, False
        programs = {id(q): q for q in (p, ctx.convex.program)}.values()
        redundant = False
        for q in programs:
            closure = graph_closure(q)
            built = closure.any_vrep()
            got = [separator_cone(closure, y0) for y0 in points]
            # the canonical form is made here, by the oracle's first read
            assert got == [oracle(closure, y0) for y0 in points]
            redundant |= len(built.vertices) > len(closure.vrep.vertices)
        return len(points), redundant

    def test_separator_cone_equals_the_canonical_route(
        self, criterion_3_program, separator_cone_by_canonical_vrep
    ):
        points = 0
        for i in range(40):
            if i not in (3, 5):
                points += self.compared(
                    separator_cone_by_canonical_vrep, criterion_3_program(i)
                )[0]
        assert points > 40

    def test_redundant_finite_generators_give_the_canonical_separators(
        self, separator_cone_by_canonical_vrep
    ):
        """The raw graph generators of these finite programs repeat an
        image point or hold one inside the hull, so the two routes run
        their double descriptions on different inputs."""
        redundant = 0
        for p in _finite_programs(40):
            points, differs = self.compared(separator_cone_by_canonical_vrep, p)
            redundant += points if differs else 0
        assert redundant > 25

    def test_certify_never_canonicalizes_the_graph_closure(self, monkeypatch):
        """Through one context, the only conversion in Z x Y that each
        certificate runs is its process graph's generators, read for the
        bounded-base test; the graph closure is never converted to rows.
        Programs whose relaxation has x in Z x Y or in Z are left out: their
        simplex, its cells and the dual image's lift x + y convert there."""
        calls = []
        for name in ("_vrep_to_hrep", "_hrep_to_vrep"):
            def counted(dim, form, name=name, fn=getattr(polyhedra_module, name)):
                calls.append((name, dim, form))
                return fn(dim, form)

            monkeypatch.setattr(polyhedra_module, name, counted)
        certified = 0
        for p in _finite_programs(30):
            ctx = ProgramContext(p)
            try:
                _, points, _ = minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            zy = p.z_dim + p.y_dim
            if ctx.convex.program.x_dim in (p.z_dim, zy):
                continue
            built = ctx.convex.graph.any_vrep()
            calls.clear()
            for y0 in points:
                certify_multiplier(ctx, y0)
            at_zy = [name for name, dim, _ in calls if dim == zy]
            assert at_zy == ["_hrep_to_vrep"] * len(points), at_zy
            assert all(form is not built for _, _, form in calls)
            assert ctx.convex.graph.any_vrep() is built
            certified += len(points)
        assert certified > 20


class TestNonvertical:
    def test_worked_example_passes(self, worked_example):
        s = build(worked_example, (0, 0))
        v = check_nonvertical(s, slater_point(worked_example))
        assert v.ok and not v.offenders

    def test_scalar_passes(self, scalar_i2):
        s = build(scalar_i2, (1,))
        assert check_nonvertical(s, slater_point(scalar_i2)).ok

    def test_injected_vertical_generator_flagged(self):
        s = SeparatorCone(
            1, 1, (F(0),), (Separator((F(1),), (F(0),)),)
        )
        v = check_nonvertical(s, (F(0),))
        assert not v.ok and v.offenders == (0,)

    def test_missing_slater_raises(self, worked_example):
        s = build(worked_example, (0, 0))
        with pytest.raises(SlaterMissing):
            check_nonvertical(s, None)


class TestHalfspaceProcess:
    def test_worked_example_halfspace(self):
        h = Separator((F(0),), (F(0), F(1)))
        k = halfspace_process(h)
        assert k == PolyhedralCone.from_normals(3, ineq_normals=[(0, 0, -1)])

    def test_scalar_halfspace(self):
        h = Separator((F(1),), (F(1),))
        k = halfspace_process(h)
        assert k.member((0, 5)) and k.member((2, 2)) and not k.member((2, 1))

    def test_order_cone_functional_gives_superset_halfspace(self):
        # h = (0, y*) with y* >= 0 on Y_+: the half-space contains Z x Y_+.
        h = Separator((F(0),), (F(2), F(3)))
        k = halfspace_process(h)
        for y in [(1, 0), (0, 1), (2, 5)]:
            assert k.member((F(-7),) + tuple(map(F, y)))

    def test_scaling_invariance(self):
        rng = random.Random(3)
        for _ in range(30):
            z = tuple(F(rng.randint(-3, 3)) for _ in range(2))
            y = tuple(F(rng.randint(-3, 3)) for _ in range(2))
            if all(v == 0 for v in z + y):
                continue
            lam = F(rng.randint(1, 5), rng.randint(1, 5))
            h1 = Separator(z, y)
            h2 = Separator(tuple(lam * v for v in z), tuple(lam * v for v in y))
            assert halfspace_process(h1) == halfspace_process(h2)


class TestFiberBar:
    def test_kernel(self):
        assert fiber_bar(Separator((F(1),), (F(1),)), (0,)).vrep.vertices == ((F(0),),)

    def test_shifted(self):
        assert fiber_bar(Separator((F(1),), (F(1),)), (3,)).vrep.vertices == ((F(3),),)

    def test_independent_of_z_for_vertical_z_star(self):
        h = Separator((F(0),), (F(0), F(1)))
        for z in [(-5,), (0,), (9,)]:
            fb = fiber_bar(h, z)
            assert fb.member((7, 0)) and not fb.member((0, 1))

    def test_degenerate(self):
        with pytest.raises(DegenerateFunctional):
            fiber_bar(Separator((F(1),), (F(0),)), (0,))


class TestLagrangeProcess:
    def test_worked_example_process(self, worked_example):
        L = lagrange_process(build(worked_example, (0, 0)))
        assert L.graph == PolyhedralCone.from_normals(3, ineq_normals=[(0, 0, -1)])
        for z in [(-2,), (0,), (5,)]:
            fib = process_eval(L, z)
            assert fib.hrep == Polyhedron.from_hrep(2, [((0, -1), 0, LE)]).hrep

    def test_scalar_process(self, scalar_i2):
        L = lagrange_process(build(scalar_i2, (1,)))
        assert L.graph.member((2, 3)) and not L.graph.member((2, 1))
        fib = process_eval(L, (-1,))
        assert fib.member((-1,)) and fib.member((0,)) and not fib.member((-2,))

    def test_empty_separator_gives_whole_space(self):
        s = SeparatorCone(1, 2, (F(0), F(0)), ())
        L = lagrange_process(s)
        assert L.is_whole_space
        assert L.graph.hrep == ()
        assert process_eval(L, (7,)).hrep == ()

    def test_planar_fiber(self, planar_i3):
        L = lagrange_process(build(planar_i3, (F(1, 2), F(1, 2))))
        fib = process_eval(L, (0,))
        assert fib == Polyhedron.from_hrep(2, [((-1, -1), 0, LE)])


class TestProcessGuarantees:
    def test_generator_sufficiency(self, worked_example, scalar_i2, planar_i3):
        # graph(L) lies inside the half-space of every positive combination.
        rng = random.Random(17)
        for prog, y0 in [
            (worked_example, (0, 0)),
            (scalar_i2, (1,)),
            (planar_i3, (F(1, 2), F(1, 2))),
        ]:
            s = build(prog, y0)
            L = lagrange_process(s)
            if not s.generators:
                continue
            for _ in range(100):
                coeffs = [F(rng.randint(0, 4)) for _ in s.generators]
                if all(c == 0 for c in coeffs):
                    coeffs[0] = F(1)
                z = tuple(
                    sum(c * h.z_star[i] for c, h in zip(coeffs, s.generators))
                    for i in range(s.z_dim)
                )
                y = tuple(
                    sum(c * h.y_star[i] for c, h in zip(coeffs, s.generators))
                    for i in range(s.y_dim)
                )
                if all(v == 0 for v in z + y):
                    continue
                half = halfspace_process(Separator(z, y))
                for g in L.graph.generators:
                    assert half.member(g)
                for l in L.graph.lineality:
                    assert half.member(l) and half.member(tuple(-x for x in l))

    def test_shifted_graph_inclusion(self, worked_example, scalar_i2, planar_i3):
        # Graph(W_{Y+}) - (0,y0), reflected in z, lies in Graph(L_{y0}).
        for prog, y0 in [
            (worked_example, (0, 0)),
            (scalar_i2, (1,)),
            (planar_i3, (F(1, 2), F(1, 2))),
        ]:
            g = upper_image_graph(prog)
            closure = g.closure if hasattr(g, "closure") else g
            s = separator_cone(g, y0)
            L = lagrange_process(s)
            zdim = prog.z_dim
            y0v = tuple(map(F, y0))
            for v in closure.vrep.vertices:
                w = tuple(-x for x in v[:zdim]) + tuple(
                    a - b for a, b in zip(v[zdim:], y0v)
                )
                assert L.graph.member(w)
            for r in closure.vrep.rays:
                assert L.graph.member(tuple(-x for x in r[:zdim]) + tuple(r[zdim:]))

    def test_zero_in_process_at_negative_cone(self, worked_example, scalar_i2, planar_i3):
        for prog, y0 in [
            (worked_example, (0, 0)),
            (scalar_i2, (1,)),
            (planar_i3, (F(1, 2), F(1, 2))),
        ]:
            L = lagrange_process(build(prog, y0))
            for zg in prog.z_plus.generators:
                fib = process_eval(L, tuple(-x for x in zg))
                assert fib.member((F(0),) * prog.y_dim)

    def test_fiber_consistency(self, minkowski_sum):
        # process_eval(L_h, z) = fiber_bar(h, z) + Y_+ when y* is Y_+-positive;
        # asserted by mutual containment of the canonical representations.
        rng = random.Random(23)
        for _ in range(25):
            z_star = (F(rng.randint(-3, 3)),)
            y_star = (F(rng.randint(1, 3)), F(rng.randint(1, 3)))
            h = Separator(z_star, y_star)
            L = lagrange_process(SeparatorCone(1, 2, (F(0), F(0)), (h,)))
            z = (F(rng.randint(-3, 3)),)
            lhs = process_eval(L, z)
            plus = Polyhedron.from_vrep(
                2,
                vertices=[(F(0), F(0))],
                rays=[(F(1), F(0)), (F(0), F(1))],
            )
            rhs = minkowski_sum(fiber_bar(h, z), plus)
            assert lhs.contains_poly(rhs) and rhs.contains_poly(lhs)
            assert lhs == rhs
