"""Certification layer: minimality, proper efficiency, clause transfer."""

import json
import random
import sys
from collections import Counter
from fractions import Fraction as F
from importlib import resources
from itertools import product

import pytest

from process_duality import certify as certify_module
from process_duality import model as model_module
from process_duality import polyhedra as polyhedra_module
from process_duality import rational as rational_module
from process_duality.certify import (
    ProgramContext,
    brute_force_status,
    certify_multiplier,
    classify_proper,
    dual_frontier,
    dual_image,
    is_minimal,
    is_weak_minimal,
    minimal_frontier,
    minimal_frontier_points,
)
from process_duality.cli import _emit_certificate, main
from process_duality.errors import (
    DimensionMismatch,
    EmptyFeasibleError,
    InternalConsistencyError,
    NotInW0Error,
    NotMemberError,
    ProcessDualityError,
)
from process_duality.exactlp import (
    LinearSystem,
    LpOutcome,
    LpStatus,
    strict_feasible,
)
from process_duality.fuzzing import (
    Violation,
    check_instance,
    injected_defect,
    random_affine_instance,
    random_discrete_instance,
    random_setvalued_instance,
)
from process_duality.model import (
    AffineVectorProgram,
    DiscretePoint,
    DiscreteVectorProgram,
    OrderCone,
    _dilation_rows,
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
    Cell,
    Emptiness,
    PointCell,
    Polyhedron,
    PolyhedralCone,
    VRep,
    as_cells,
    cell_of_polyhedron,
    closure_generators,
    intersect_empty,
    member,
    point_cell,
)
from process_duality.problemfile import emit_problem, instance_hash, load_problem
from process_duality.process import (
    Separator,
    SeparatorCone,
    lagrange_process,
    separator_cone,
)
from process_duality.rational import ONE, ZERO, dot, vec, zeros


def halfplane():
    return Polyhedron.from_hrep(2, [((0, -1), 0, LE)])


class TestWeakMinimal:
    def test_dual_image_of_example(self, orthant2):
        assert is_weak_minimal(halfplane(), (0, 0), orthant2)

    def test_full_plane(self, orthant2):
        assert not is_weak_minimal(Polyhedron.full_space(2), (0, 0), orthant2)

    def test_scalar_ray(self, r_plus):
        m = Polyhedron.from_hrep(1, [((-1,), -1, LE)])
        assert is_weak_minimal(m, (1,), r_plus)

    def test_requires_membership(self, orthant2):
        with pytest.raises(NotMemberError):
            is_weak_minimal(halfplane(), (0, -1), orthant2)


class TestMinimal:
    def test_worked_example_w0_minimal_at_origin(self, worked_example, orthant2):
        assert is_minimal(w0_cells(worked_example), (0, 0), orthant2)

    def test_halfplane_not_minimal(self, orthant2):
        assert not is_minimal(halfplane(), (0, 0), orthant2)

    def test_planar_dual_image(self, orthant2):
        m = Polyhedron.from_hrep(2, [((-1, -1), -1, LE)])
        assert is_minimal(m, (F(1, 2), F(1, 2)), orthant2)

    def test_requires_membership(self, orthant2):
        with pytest.raises(NotMemberError):
            is_minimal(halfplane(), (0, -1), orthant2)


class TestPublicEntries:
    """`is_minimal`, `is_weak_minimal` and `classify_proper` read A once,
    whatever iterable it comes in, and refuse an order cone of another
    dimension than A's."""

    @pytest.mark.parametrize("once", [iter, lambda cells: (c for c in cells)],
                             ids=["iterator", "generator"])
    def test_one_shot_iterables(self, orthant2, r_plus, once):
        p = DiscreteVectorProgram(
            [DiscretePoint("a", (F(-1), F(-1)), (F(0),)),
             DiscretePoint("b", (F(0), F(0)), (F(0),))],
            orthant2, r_plus,
        )
        cells, y0 = w0_cells(p), (F(0), F(0))
        bf = brute_force_status(p, y0)
        assert (bf.minimal, bf.weak_minimal) == (False, False)
        assert is_minimal(once(cells), y0, p.y_plus) is False
        assert is_weak_minimal(once(cells), y0, p.y_plus) is False
        status = classify_proper(once(cells), y0, p.y_plus)
        assert (status.minimal, status.weak_minimal) == (False, False)
        whole = classify_proper(cells, y0, p.y_plus)
        assert (status, status.witnesses) == (whole, whole.witnesses)

    @pytest.mark.parametrize("fn", [is_minimal, is_weak_minimal, classify_proper])
    def test_order_cone_of_another_dimension(self, fn):
        cells = tuple(polyhedra_module.point_cell(v) for v in ((0, 0), (1, -1)))
        yplus = OrderCone.from_generators(3, identity(3))
        with pytest.raises(DimensionMismatch):
            fn(cells, (0, 0), yplus)
        for rows in (yplus.below_rows, yplus.minimality_rows):
            with pytest.raises(DimensionMismatch):
                rows((F(0), F(0)))


def per_facet_is_minimal(a, y0, yplus):
    """Minimality of a member y0 of A, one strict LP per facet normal n of
    Y_+: no point of A cap (y0 - Y_+) has n.(y - y0) > 0."""
    y0 = vec(y0)
    down = Polyhedron.from_vrep(
        yplus.ambient_dim,
        [y0],
        [tuple(-x for x in g) for g in yplus.generators],
        yplus.lineality,
    )
    for n in yplus.facet_normals():
        strict = [(tuple(-x for x in n), -dot(n, y0))]
        if not intersect_empty([a, down], strict).empty:
            return False
    return True


def whole_space(dim):
    """Y_+ = Y as an order cone: no facets.  The constructor refuses it;
    the minimality test reads only the cone."""
    yplus = object.__new__(OrderCone)
    yplus.cone = PolyhedralCone.from_generators(dim, lines=identity(dim))
    yplus.ambient_dim = dim
    return yplus


def identity(dim):
    return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]


class TestSummedNormal:
    """One strict row with the summed facet normal decides minimality as the
    per-facet loop does."""

    def test_criterion_4_programs(self, criterion_4_program):
        answers = {True: 0, False: 0}
        for i in range(60):
            p = criterion_4_program(i)
            cells = w0_cells(p)
            for y0 in w0_image_points(p):
                expected = per_facet_is_minimal(cells, y0, p.y_plus)
                assert is_minimal(cells, y0, p.y_plus) == expected, (i, y0)
                answers[expected] += 1
        assert answers[True] > 40 and answers[False] > 30

    def test_criterion_3_w0_cells(self, criterion_3_program):
        answers = {True: 0, False: 0}
        for i in range(30):
            p = criterion_3_program(i)
            ctx = ProgramContext(p)
            verts, rays, lines = ctx.closure
            if not verts:
                continue
            upper = Polyhedron.from_vrep(
                p.y_dim, verts, list(rays) + list(p.y_plus.generators),
                list(lines) + list(p.y_plus.lineality),
            )
            # the upper image's vertices, and the W(0) closure's vertices,
            # which need not be minimal
            for v in dict.fromkeys(list(upper.vrep.vertices) + verts):
                if not member(ctx.cells, v):
                    continue
                expected = per_facet_is_minimal(ctx.cells, v, p.y_plus)
                assert is_minimal(ctx.cells, v, p.y_plus) == expected, (i, v)
                answers[expected] += 1
        assert answers[True] > 40 and answers[False] > 20

    @pytest.mark.parametrize("yplus", [
        OrderCone.from_generators(2, [(1, 0), (-1, 0), (0, 1)]),
        OrderCone.from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)]),
        whole_space(2),
        whole_space(3),
        OrderCone.from_generators(1, [(1,)]),
        OrderCone.from_generators(1, [(-1,)]),
        OrderCone.from_generators(2, [(1, 0), (0, 1)]),
        OrderCone.from_generators(2, [(2, -1), (-1, 2)]),
    ], ids=["halfplane-line", "wedge-line-3d", "whole-plane", "whole-space-3d",
            "r-plus", "r-minus", "orthant", "wide-cone"])
    def test_order_cones(self, yplus):
        dim = yplus.ambient_dim
        box = [tuple(F(c) for c in corner) for corner in product((-1, 1), repeat=dim)]
        sets = [
            Polyhedron.from_vrep(dim, box),
            Polyhedron.from_vrep(dim, [box[0]], [tuple(-x for x in box[0])]),
            Polyhedron.from_vrep(dim, box[:2], [], [identity(dim)[0]]),
            tuple(Polyhedron.from_vrep(dim, [v]) for v in box),
            w0_cells(DiscreteVectorProgram(
                [DiscretePoint(f"p{k}", v, (F(0),)) for k, v in enumerate(box)],
                OrderCone.from_generators(dim, identity(dim)),
                OrderCone.from_generators(1, [(1,)]),
            )),
        ]
        if dim == 2:
            omega = Polyhedron.from_hrep(2, [((0, -1), 0, LE)])
            sets.append(as_cells(
                BoundaryRestrictedPolyhedron.from_facet_indices(
                    omega, [(0, Polyhedron.from_vrep(2, [(0, 0)]))]
                )
            ))
        answers = {True: 0, False: 0}
        for a in sets:
            verts = closure_generators(a)[0]
            for y0 in verts + [zeros(dim)]:
                if not member(a, y0):
                    continue
                expected = per_facet_is_minimal(a, y0, yplus)
                assert is_minimal(a, y0, yplus) == expected, (a, y0)
                answers[expected] += 1
        assert answers[True] > 0
        if yplus.facet_normals():
            assert answers[False] > 0


class TestDualImage:
    def test_worked_example(self, worked_example):
        g = upper_image_graph(worked_example)
        L = lagrange_process(separator_cone(g, (0, 0)))
        m = dual_image(worked_example, L)
        assert m == halfplane()

    def test_scalar(self, scalar_i2):
        g = upper_image_graph(scalar_i2)
        L = lagrange_process(separator_cone(g, (1,)))
        m = dual_image(scalar_i2, L)
        assert m == Polyhedron.from_hrep(1, [((-1,), -1, LE)])

    def test_planar(self, planar_i3):
        g = upper_image_graph(planar_i3)
        L = lagrange_process(separator_cone(g, (F(1, 2), F(1, 2))))
        m = dual_image(planar_i3, L)
        assert m == Polyhedron.from_hrep(2, [((-1, -1), -1, LE)])

    def test_finite_union(self, three_point_discrete):
        g = upper_image_graph(three_point_discrete)
        L = lagrange_process(separator_cone(g, (0, 0)))
        pieces = dual_image(three_point_discrete, L)
        assert isinstance(pieces, tuple)
        assert len(pieces) == 3


class TestClassifyProper:
    def test_planar_dual_point(self, orthant2):
        m = Polyhedron.from_hrep(2, [((-1, -1), -1, LE)])
        st = classify_proper(m, (F(1, 2), F(1, 2)), orthant2)
        assert st.pos and st.he and st.se and st.ghe
        assert st.witnesses["pos"] == (F(1), F(1))
        assert st.witnesses["se_rho"] == F(1)

    def test_orthant_vertex(self, orthant2):
        st = classify_proper(
            Polyhedron.from_hrep(2, [((-1, 0), 0, LE), ((0, -1), 0, LE)]),
            (0, 0),
            orthant2,
        )
        assert st.minimal and st.pos and st.se
        assert st.witnesses["pos"] == (F(1), F(1))

    def test_halfplane_origin(self, orthant2):
        st = classify_proper(halfplane(), (0, 0), orthant2)
        assert not st.minimal
        assert not st.pos
        assert not st.he and not st.se and not st.ghe

    def test_nonpointed_cone_marks_not_applicable(self):
        nonpointed = OrderCone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        st = classify_proper(halfplane(), (0, 0), nonpointed)
        assert st.pos is None and st.ghe is None and st.he is None and st.se is None

    def test_requires_membership(self, orthant2):
        with pytest.raises(NotMemberError):
            classify_proper(halfplane(), (0, -1), orthant2)

    def test_refusal_writes_y0_as_rationals(self, planar_i3):
        """The refusals behind `is_minimal`, `is_weak_minimal` and
        `classify_proper` write y0 in the p/q text of every report."""
        cells = w0_cells(planar_i3)
        for decide in (classify_proper, is_minimal, is_weak_minimal):
            with pytest.raises(
                NotMemberError, match="^-5/1,-5/1 is not a member of the set under test$"
            ):
                decide(cells, (-5, -5), planar_i3.y_plus)


def halving_loop_eta(cone_a, base):
    """The Henig witness by trial: the first eta = 1, 1/2, 1/4, ... whose
    cone(base + eta * infinity-ball) is pointed and meets -cone_a only at 0."""
    eta = F(1)
    for _ in range(64):
        gens = [
            tuple(x + eta * s for x, s in zip(v, corner))
            for v in base.vrep.vertices
            for corner in product((-1, 1), repeat=base.dim)
        ]
        k = PolyhedralCone.from_generators(base.dim, gens)
        meet = cone_a.with_rows(
            [(tuple(-x for x in r.normal), 0, LE) for r in k.inequalities()]
        )
        if not k.lineality and not meet.vrep.rays and not meet.vrep.lines:
            return eta
        eta /= 2
    raise AssertionError("no admissible eta")


def _certify_frontiers(programs):
    """certify_multiplier, both sides with witnesses, at every minimal
    frontier point of each program that has one."""
    for p in programs:
        ctx = ProgramContext(p)
        try:
            _, points, _ = minimal_frontier_points(ctx)
        except EmptyFeasibleError:
            continue
        for y0 in points:
            certify_multiplier(ctx, y0)


def _henig_searches(monkeypatch, programs):
    """(cone_a, base, eta, delta) of every Henig witness search that
    `_certify_frontiers(programs)` runs."""
    chosen = certify_module._henig_eta
    searches = []

    def recorded(cone_a, yplus):
        eta = chosen(cone_a, yplus)
        base = yplus.structure.base
        delta = certify_module._henig_distance(cone_a, base)
        searches.append((cone_a, base, eta, delta))
        return eta

    monkeypatch.setattr(certify_module, "_henig_eta", recorded)
    _certify_frontiers(programs)
    return searches


class TestHenigEta:
    """The Henig witness eta read off the distance LP is the halving loop's."""

    def test_lp_chosen_eta_equals_the_halving_loop(
        self, monkeypatch, criterion_3_program, henig_distance_by_primal_lp
    ):
        chosen = certify_module._henig_eta
        seen = {"points": 0, "at_delta": 0}

        def checked(cone_a, yplus):
            eta = chosen(cone_a, yplus)
            base = yplus.structure.base
            assert eta == halving_loop_eta(cone_a, base)
            delta = certify_module._henig_distance(cone_a, base)
            assert delta == henig_distance_by_primal_lp(
                cone_a.generators, cone_a.lineality, base
            )
            seen["points"] += 1
            # the largest 2^-k <= min(delta, 1) was delta itself
            seen["at_delta"] += delta <= 1 and delta in (eta, 2 * eta)
            return eta

        monkeypatch.setattr(certify_module, "_henig_eta", checked)
        programs = [criterion_3_program(i) for i in range(60) if i not in (3, 5)]
        programs += [_bundled(n) for n in ("worked_example", "i3", "scalar_i2")]
        for p in programs:
            ctx = ProgramContext(p)
            try:
                _, points, _ = minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            for y0 in points:
                # both sides, P0 and D, are classified with witnesses
                certify_multiplier(ctx, y0)
        assert seen["points"] > 100
        assert seen["at_delta"] > 0

    def test_pointedness_from_rows_matches_the_lineality_route(
        self, monkeypatch, criterion_3_program
    ):
        """K_eta's pointedness read off the rank of its rows decides
        admissibility as K_eta's lineality space did, with one double
        description run fewer per check, at every eta the search considers:
        a tie eta = delta, and the eta it returns below delta."""
        admissible = certify_module._henig_admissible
        programs = [criterion_3_program(i) for i in range(40) if i not in (3, 5)]
        searches = _henig_searches(monkeypatch, programs)
        dd = polyhedra_module.cone_dd
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return dd(*args)

        def lineality_route(cone_a, base, eta):
            gens = [
                tuple(x + eta * s for x, s in zip(v, corner))
                for v in base.vrep.vertices
                for corner in product((1, -1), repeat=base.dim)
            ]
            k = PolyhedralCone.from_generators(base.dim, gens)
            if k.lineality:
                return False
            meet = cone_a.with_rows(
                [(tuple(-x for x in r.normal), 0, LE) for r in k.inequalities()]
            )
            return not meet.vrep.rays and not meet.vrep.lines

        monkeypatch.setattr(polyhedra_module, "cone_dd", counted)
        verdicts = []
        for cone_a, base, eta, delta in searches:
            # eta = delta / 2 <= 1/2 is returned only after a failed tie
            for e in {eta, delta} if eta * 2 == delta <= 1 else {eta}:
                base.vrep
                before = calls[0]
                got = admissible(cone_a, _dilation_rows(base, e))
                rows_route = calls[0] - before
                before = calls[0]
                assert got == lineality_route(cone_a, base, e)
                assert rows_route == calls[0] - before - 1
                verdicts.append(got)
        assert verdicts.count(True) > 50 and False in verdicts

    def test_every_eta_below_delta_is_admissible_by_double_description(
        self, monkeypatch, criterion_3_program
    ):
        """The distance LP alone proves every eta < delta admissible; double
        description agrees wherever the search returned such an eta."""
        programs = [criterion_3_program(i) for i in range(60) if i not in (3, 5)]
        programs += [_bundled(n) for n in ("worked_example", "i3", "scalar_i2")]
        below = [
            (cone_a, base, eta)
            for cone_a, base, eta, delta in _henig_searches(monkeypatch, programs)
            if eta < delta
        ]
        assert len(below) >= 60
        for cone_a, base, eta in below:
            assert certify_module._henig_admissible(cone_a, _dilation_rows(base, eta))

    def test_double_description_runs_only_at_ties(
        self, monkeypatch, criterion_3_program
    ):
        """K_eta, the cone `_henig_admissible` decides on, is asked for only
        with eta equal to the delta just computed."""
        distance = certify_module._henig_distance
        dilation = OrderCone.dilation_rows
        deltas, etas = [], []

        def recorded(cone_a, base):
            deltas.append(distance(cone_a, base))
            return deltas[-1]

        def checked(yplus, eta):
            etas.append(eta)
            assert eta == deltas[-1]
            return dilation(yplus, eta)

        monkeypatch.setattr(certify_module, "_henig_distance", recorded)
        monkeypatch.setattr(OrderCone, "dilation_rows", checked)
        _certify_frontiers(
            criterion_3_program(i) for i in range(40) if i not in (3, 5)
        )
        assert etas and len(etas) < len(deltas)

    def test_dilation_with_a_line_is_refused(self):
        orthant = PolyhedralCone.from_generators(2, [(1, 0), (0, 1)])
        # cone of (+-1, 0) + eta * ball is a half-plane: not pointed
        segment = Polyhedron.from_vrep(2, [(1, 0), (-1, 0)])
        assert not certify_module._henig_admissible(
            orthant, _dilation_rows(segment, F(1, 2))
        )
        point = Polyhedron.from_vrep(2, [(1, 1)])
        assert certify_module._henig_admissible(orthant, _dilation_rows(point, F(1, 4)))

    def test_a_refused_tie_falls_back_to_half_of_it(self, monkeypatch, r_plus,
                                                    orthant2):
        calls = []
        dilation = OrderCone.dilation_rows

        def recorded(yplus, eta):
            calls.append(eta)
            return dilation(yplus, eta)

        monkeypatch.setattr(OrderCone, "dilation_rows", recorded)
        monkeypatch.setattr(certify_module, "_henig_admissible", lambda *args: False)
        # C = Y_+ = R_+: delta = 1, a tie that double description passes
        tie = Polyhedron.from_vrep(1, [(0,)], [(1,)])
        assert classify_proper(tie, (0,), r_plus).witnesses["he_eta"] == F(1, 2)
        assert calls == [F(1)]
        # C = cone{(-2, 1)}: delta = 1/3, so eta = 1/4 with no check
        strict = Polyhedron.from_vrep(2, [(0, 0)], [(-2, 1)])
        assert classify_proper(strict, (0, 0), orthant2).witnesses["he_eta"] == F(1, 4)
        assert calls == [F(1)]

    def test_no_candidate_below_delta_raises(self, monkeypatch, planar_i3):
        y0 = (F(1, 2), F(1, 2))
        assert certify_multiplier(planar_i3, y0).status_P0.witnesses["he_eta"]
        monkeypatch.setattr(certify_module, "_henig_distance",
                            lambda cone_a, base: F(1, 2**70))
        with pytest.raises(InternalConsistencyError,
                           match="dilation witness not found"):
            certify_multiplier(planar_i3, y0)

    def test_distance_lp_without_optimum_raises(self, monkeypatch, planar_i3):
        # the distance LP is the first `l1_minimum` that `certify` runs; the
        # Pos LPs run theirs inside `positive_functional`
        monkeypatch.setattr(certify_module, "l1_minimum", lambda system: None)
        with pytest.raises(InternalConsistencyError, match="Henig distance LP"):
            certify_multiplier(planar_i3, (F(1, 2), F(1, 2)))

    def test_distance_at_a_tie_runs_one_lp(self, monkeypatch):
        """delta is read off the optimal value, the same at every optimal
        point, so a tie runs no split-form LP.  Base {(1, 1)} and
        C = cone{(1, 0)}: every h = (t, 1 - t), 0 <= t <= 1, is L1-minimal,
        and delta = 1."""
        cone_a = PolyhedralCone.from_generators(2, [(1, 0)])
        base = Polyhedron.from_vrep(2, [(1, 1)])
        solve = polyhedra_module.lp_solve
        calls = []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(polyhedra_module, "lp_solve", counted)
        # the Pos helper over the same rows meets the tie
        assert polyhedra_module.positive_functional(2, [(1, 1)], [(1, 0)]) is not None
        assert len(calls) == 2
        calls.clear()
        assert certify_module._henig_distance(cone_a, base) == 1
        assert len(calls) == 1

    def test_distance_zero_raises(self):
        # C = R_- meets -base = {-1}, so delta = 0 and no functional exists
        with pytest.raises(InternalConsistencyError, match="Henig distance LP"):
            certify_module._henig_distance(
                PolyhedralCone.from_generators(1, [(-1,)]), Polyhedron.from_vrep(1, [(1,)])
            )


class TestWorkDoneOnce:
    def test_is_minimal_runs_no_double_description(
        self, monkeypatch, criterion_4_program
    ):
        cases = []
        for i in range(60):
            p = criterion_4_program(i)
            cases += [(w0_cells(p), y0, p.y_plus) for y0 in w0_image_points(p)]
        calls = [0]
        dd = polyhedra_module.cone_dd

        def counted(*args):
            calls[0] += 1
            return dd(*args)

        monkeypatch.setattr(polyhedra_module, "cone_dd", counted)
        minimal = sum(is_minimal(*case) for case in cases)
        assert calls[0] == 0
        assert minimal > 40 and len(cases) - minimal > 30

    def test_order_cone_base_built_once_per_cone(
        self, monkeypatch, capsys, tmp_path, criterion_3_program
    ):
        built = []
        structure = model_module.cone_structure

        def counted(k):
            built.append(id(k))
            return structure(k)

        monkeypatch.setattr(model_module, "cone_structure", counted)
        witnesses = 0
        for i in range(12):
            path = tmp_path / f"p{i}.json"
            path.write_text(emit_problem(criterion_3_program(i)))
            built.clear()
            assert main(["certify", str(path), "--frontier", "--json"]) in (0, 1)
            doc = json.loads(capsys.readouterr().out)
            he_points = sum(
                "he_eta" in c[side]["witnesses"]
                for c in doc["certificates"]
                for side in ("status_P0", "status_D")
            )
            # one Y_+ per program, its base built once for all its He points
            assert len(built) == min(he_points, 1), i
            witnesses += he_points
        assert witnesses > 10

    def test_filter_verdicts_are_not_decided_again(
        self, monkeypatch, criterion_3_program
    ):
        """Each frontier point's minimality is decided twice, in W(0) by the
        filter and in M by its certificate, each by the strict LP or by
        theorem: a vertex of the upper image with its rank (`vertex`), or
        Pos on the closed polyhedron M (`pos`, a `_classify` that decides
        Min and runs no `_is_minimal`)."""
        calls = dict.fromkeys(("lp", "vertex", "pos"), 0)
        decide = certify_module._is_minimal
        certified = certify_module._certified_vertex
        classify = certify_module._classify
        asked = []
        contains = certify_module.member

        def counted(*args):
            calls["lp"] += 1
            return decide(*args)

        def by_vertex(*args):
            calls["vertex"] += 1
            return certified(*args)

        def by_pos(a, y0, yplus, *args, minimal=None, **kwargs):
            before = calls["lp"]
            status = classify(a, y0, yplus, *args, minimal=minimal, **kwargs)
            calls["pos"] += minimal is None and calls["lp"] == before
            return status

        def recorded(obj, x):
            asked.append(vec(x))
            return contains(obj, x)

        monkeypatch.setattr(certify_module, "_is_minimal", counted)
        monkeypatch.setattr(certify_module, "_certified_vertex", by_vertex)
        monkeypatch.setattr(certify_module, "_classify", by_pos)
        monkeypatch.setattr(certify_module, "member", recorded)
        frontier = 0
        for i in range(40):
            if i in (3, 5):
                continue
            ctx = ProgramContext(criterion_3_program(i))
            try:
                _, points, _ = minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            asked.clear()
            for y0 in points:
                certify_multiplier(ctx, y0)
            # membership in W(0) was the filter's to decide
            assert not set(asked) & set(points), i
            frontier += len(points)
        # the filter's verdict, then minimality in M; W(0) is not asked again
        assert (frontier, calls["lp"], calls["vertex"], calls["pos"]) == (45, 2, 44, 44)

    def test_minimality_loop_does_each_piece_of_work_once(
        self, count, monkeypatch, criterion_4_program
    ):
        """The loop of the `minimality` benchmark item walks W(0) once per
        program, builds no Polyhedron, runs no LP, and a point cell decides
        membership without writing the point over one denominator."""
        calls = dict.fromkeys(
            ("feasible_region", "from_hrep", "cell_of_polyhedron", "integer_scaled"), 0
        )

        def counted(name, fn):
            def run(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return run

        originals = {
            "cell_of_polyhedron": polyhedra_module.cell_of_polyhedron,
            "integer_scaled": rational_module.integer_scaled,
        }
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "process_duality":
                for attr, fn in originals.items():
                    if getattr(module, attr, None) is fn:
                        monkeypatch.setattr(module, attr, counted(attr, fn))
        monkeypatch.setattr(model_module, "feasible_region",
                            counted("feasible_region", model_module.feasible_region))
        monkeypatch.setattr(Polyhedron, "from_hrep",
                            classmethod(counted("from_hrep", Polyhedron.from_hrep.__func__)))

        def minimality_item(p):
            cells = w0_cells(p)
            for y0 in w0_image_points(p):
                is_minimal(cells, y0, p.y_plus)
                is_weak_minimal(cells, y0, p.y_plus)

        asked = 0
        for i in range(40):
            p = criterion_4_program(i)
            calls.update(dict.fromkeys(calls, 0))
            assert count(minimality_item, p) == 0
            assert calls["feasible_region"] == 1, i
            assert (calls["from_hrep"], calls["cell_of_polyhedron"]) == (0, 0), i
            cells = w0_cells(p)
            assert all(c.point is not None for c in cells)
            for y0 in w0_image_points(p):
                calls["integer_scaled"] = 0
                assert member(cells, y0)
                assert [c.member(y0) for c in cells] == [c.point == y0 for c in cells]
                assert calls["integer_scaled"] == 0, (i, y0)
                asked += 1
        assert asked > 60

    def test_point_cells_keep_their_integer_form(
        self, monkeypatch, criterion_4_program, shifted_facets
    ):
        """Point cells are built with their point over one denominator and
        without the matrix I, so the verdicts at each y0 write no W(0)
        point over one denominator again, build no I and no cell for
        y0 - Y_+; the strict row of `is_minimal` takes its normal from Y_+
        itself, kept in integers once per cone."""
        calls = dict.fromkeys(("integer_scaled", "_identity"), 0)
        for name in calls:
            fn = getattr(polyhedra_module, name)

            def run(*args, name=name, fn=fn):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(polyhedra_module, name, run)
        emptiness = spy(monkeypatch, certify_module, "intersect_empty")
        summed = []
        rows_of = OrderCone.minimality_rows

        def recorded(yplus, y0):
            out = rows_of(yplus, y0)
            summed.append((yplus, vec(y0), out[1]))
            return out

        monkeypatch.setattr(OrderCone, "minimality_rows", recorded)
        asked = 0
        for i in range(40):
            p = criterion_4_program(i)
            p.w0_values  # the walk of W(0), counted elsewhere
            calls.update(dict.fromkeys(calls, 0))
            cells = w0_cells(p)
            assert calls == {"integer_scaled": len(cells), "_identity": 0}, i
            assert all(c.integer_point is not None for c in cells)
            calls.update(dict.fromkeys(calls, 0))
            verdicts = []
            for y0 in w0_image_points(p):
                summed.clear()
                verdicts.append((is_minimal(cells, y0, p.y_plus),
                                 is_weak_minimal(cells, y0, p.y_plus)))
                assert emptiness == []
                assert len(summed) == 1 and summed[0][0] is p.y_plus
                m, t = p.y_plus.integer_normal_sum
                assert p.y_plus.integer_normal_sum[0] is m
                assert t > 0 and m == tuple(
                    t * c for c in shifted_facets.normal_sum(p.y_plus)
                )
                x, d = rational_module.integer_scaled(y0)
                assert summed[0][2] == (tuple(d * c for c in m), sum(
                    a * b for a, b in zip(m, x)), t * d)
            assert calls == {"integer_scaled": 0, "_identity": 0}, i
            for y0, verdict in zip(w0_image_points(p), verdicts):
                bf = brute_force_status(p, y0)
                assert verdict == (bf.minimal, bf.weak_minimal), (i, y0)
                asked += 1
        assert asked > 60


def spy(monkeypatch, module, name):
    """The list of the argument tuples of every call of `module.name`,
    which still runs."""
    seen = []
    fn = getattr(module, name)

    def recorded(*args):
        seen.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, recorded)
    return seen


@pytest.fixture
def count(monkeypatch):
    """(fn, *args) -> the strict-feasibility LPs that fn(*args) runs, counted
    at `polyhedra.strict_feasible`."""
    calls = [0]
    solve = polyhedra_module.strict_feasible

    def counted(system):
        calls[0] += 1
        return solve(system)

    monkeypatch.setattr(polyhedra_module, "strict_feasible", counted)

    def run(fn, *args, **kwargs):
        calls[0] = 0
        fn(*args, **kwargs)
        return calls[0]

    return run


class TestStrictLpCounts:
    """Strict-feasibility LPs run by the minimality tests."""

    def test_one_lp_per_identity_cell(self, count, criterion_4_program):
        several_facets = 0
        for i in range(40):
            p = criterion_4_program(i)
            cells = w0_cells(p)
            assert all(c.is_identity for c in cells)
            for y0 in w0_image_points(p):
                assert count(member, cells, y0) == 0
                assert count(is_minimal, cells, y0, p.y_plus) <= len(cells)
                several_facets += (
                    len(p.y_plus.facet_normals()) > 1
                    and is_minimal(cells, y0, p.y_plus)
                )
        # where the per-facet loop would run one LP per facet and cell
        assert several_facets > 20

    def test_point_cells_run_no_lp(self, count, criterion_4_program):
        minimal = weak = 0
        for i in range(40):
            p = criterion_4_program(i)
            cells = w0_cells(p)
            assert all(c.point is not None for c in cells)
            for y0 in w0_image_points(p):
                assert count(member, cells, y0) == 0
                assert count(is_minimal, cells, y0, p.y_plus) == 0
                assert count(is_weak_minimal, cells, y0, p.y_plus) == 0
                minimal += is_minimal(cells, y0, p.y_plus)
                weak += is_weak_minimal(cells, y0, p.y_plus)
        assert 0 < minimal < weak

    def test_point_cells_build_no_fraction_dot(
        self, monkeypatch, criterion_4_program
    ):
        """On point cells, membership, minimality and weak minimality are
        decided by integer evaluation: a Fraction dot product, in `rational`
        or through any from-import of it, raises."""
        programs = [criterion_4_program(i) for i in range(40)]
        fraction_dot = rational_module.dot

        def refuse(*args):
            raise AssertionError("Fraction dot product on the minimality path")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "process_duality" and (
                getattr(module, "dot", None) is fraction_dot
            ):
                monkeypatch.setattr(module, "dot", refuse)
        assert polyhedra_module.dot is refuse and rational_module.dot is refuse
        minimal = weak = 0
        for p in programs:
            cells = w0_cells(p)
            for y0 in w0_image_points(p):
                assert member(cells, y0)
                minimal += is_minimal(cells, y0, p.y_plus)
                weak += is_weak_minimal(cells, y0, p.y_plus)
        assert 0 < minimal < weak

    def test_classify_proper_decides_membership_once(
        self, count, criterion_3_program
    ):
        """classify_proper runs the LPs of membership and Min, and those of
        WMin only where y0 is not minimal (Min implies WMin), at the
        frontier points and at the other W(0) members among the vertices of
        cl W(0)."""
        classified = {True: 0, False: 0}
        for i in range(12):
            ctx = ProgramContext(criterion_3_program(i))
            try:
                _, points, _ = minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            cells, yplus = ctx.cells, ctx.program.y_plus
            for y0 in dict.fromkeys(points + tuple(ctx.closure[0])):
                membership = count(member, cells, y0)
                if not member(cells, y0):
                    continue
                assert membership > 0
                minimal = is_minimal(cells, y0, yplus)
                weak = 0 if minimal else (
                    count(is_weak_minimal, cells, y0, yplus) - membership
                )
                assert count(classify_proper, cells, y0, yplus) == count(
                    is_minimal, cells, y0, yplus
                ) + weak
                classified[minimal] += 1
        assert classified[True] > 10 and classified[False] > 5, classified


class TestDirectIdentityCells:
    """The point cells of `w0_cells`, built straight from their rows, equal
    the cells built through a `Polyhedron` (`polyhedron_cells`): the same
    rows in the same order, the same map and identity flag.  The
    rows that `is_minimal` and `is_weak_minimal` test them against, Y_+'s
    integer rows at y0, are the rows of the cell y0 - Y_+ built through a
    Polyhedron, each times a positive integer, in the same order; the
    verdicts are those of `per_combo_lp` on that cell, and no cell is built
    for y0 - Y_+ nor tested by `intersect_empty`."""

    @staticmethod
    def same(new, old):
        assert new.system.le == old.system.le
        assert new.system.eq == old.system.eq
        assert new.system.strict == old.system.strict
        assert (new.matrix, new.offset) == (old.matrix, old.offset)
        assert new.is_identity == old.is_identity

    @staticmethod
    def scaled(ints, below):
        """Each integer row (a, b, s) is the row (n, r) of the cell `below`
        times s > 0, in order, and `below` is those rows and nothing else."""
        rows = below.system.le
        assert below.system.eq == () and below.system.strict == ()
        assert below.is_identity and below.point is None
        assert len(ints) == len(rows) > 0
        for (a, b, s), (n, r) in zip(ints, rows):
            assert s > 0 and a == tuple(s * x for x in n) and b == s * r

    @staticmethod
    def rows_read(monkeypatch):
        """A list that collects the integer rows of y0 - Y_+ that every
        `is_minimal` and `is_weak_minimal` reads."""
        seen = []
        below_rows, minimality_rows = OrderCone.below_rows, OrderCone.minimality_rows

        def below(yplus, y0):
            seen.append(below_rows(yplus, y0))
            return seen[-1]

        def minimality(yplus, y0):
            out = minimality_rows(yplus, y0)
            seen.append(out[0])
            return out

        monkeypatch.setattr(OrderCone, "below_rows", below)
        monkeypatch.setattr(OrderCone, "minimality_rows", minimality)
        return seen

    def test_criterion_4_programs(self, monkeypatch, criterion_4_program,
                                  polyhedron_cells):
        seen = self.rows_read(monkeypatch)
        emptiness = spy(monkeypatch, certify_module, "intersect_empty")
        points = belows = 0
        for i in range(60):
            p = criterion_4_program(i)
            cells = w0_cells(p)
            assert len(cells) == len(p.w0_values)
            for cell, fv in zip(cells, p.w0_values):
                self.same(cell, polyhedron_cells.point(fv))
                points += 1
            for y0 in w0_image_points(p):
                seen.clear()
                verdicts = (is_minimal(cells, y0, p.y_plus),
                            is_weak_minimal(cells, y0, p.y_plus))
                assert len(seen) == 2 and emptiness == []
                below = polyhedron_cells.below(p.y_plus, y0)
                for ints in seen:
                    self.scaled(ints, below)
                assert verdicts == lp_verdicts(cells, y0, p.y_plus, below), (i, y0)
                belows += 1
        assert points > 90 and belows > 90

    @pytest.mark.parametrize("yplus", [
        OrderCone.from_generators(1, [(1,)]),
        OrderCone.from_generators(1, [(-1,)]),
        OrderCone.from_generators(2, [(1, 0), (0, 1)]),
        OrderCone.from_generators(2, [(2, -1), (-1, 2)]),
        OrderCone.from_generators(3, identity(3)),
        OrderCone.from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)]),
        OrderCone.from_generators(2, [(1, 0), (-1, 0), (0, 1)]),
        OrderCone.from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)]),
    ], ids=["r-plus", "r-minus", "orthant", "wide-cone", "orthant-3d",
            "four-rays-3d", "halfplane-line", "wedge-line-3d"])
    def test_order_cones(self, monkeypatch, yplus, polyhedron_cells):
        dim = yplus.ambient_dim
        seen = self.rows_read(monkeypatch)
        emptiness = spy(monkeypatch, certify_module, "intersect_empty")
        corners = [tuple(F(c) for c in corner) for corner in product((-1, 1), repeat=dim)]
        for y0 in corners + [zeros(dim), tuple(F(k + 1, 3) for k in range(dim))]:
            a = (point_cell(y0),)
            seen.clear()
            assert is_minimal(a, y0, yplus) and is_weak_minimal(a, y0, yplus)
            assert len(seen) == 2 and emptiness == []
            below = polyhedron_cells.below(yplus, y0)
            for ints in seen:
                self.scaled(ints, below)
            assert lp_verdicts(a, y0, yplus, below) == (True, True)


def lp_verdicts(a, y0, yplus, below):
    """(Min, WMin) of y0 in A by `per_combo_lp`, for `below` the cell
    y0 - Y_+ on Y_+'s facet rows shifted to y0: A misses the part of it with
    N.(y - y0) > 0, N the sum of the facet normals, and the cell on the same
    rows taken strictly, y0 - Int Y_+."""
    rows = below.system.le
    inside = Cell(LinearSystem(yplus.ambient_dim, strict=rows), below.matrix,
                  below.offset)
    total = [(tuple(map(sum, zip(*(n for n, _ in rows)))), sum(r for _, r in rows))]
    return per_combo_lp([a, below], total).empty, per_combo_lp([a, inside]).empty


def per_combo_lp(parts, strict_halfspaces=()):
    """intersect_empty by one strict LP on the joint lifted system for every
    combination of cells, point cells included."""
    groups = [as_cells(p) for p in parts]
    if any(not g for g in groups):
        return Emptiness(True)
    target = groups[0][0].target_dim
    strict_rows = [(vec(n), F(r)) for n, r in strict_halfspaces]
    for combo in product(*groups):
        offset_of = []
        pos = target
        for c in combo:
            if c.is_identity:
                offset_of.append(0)
            else:
                offset_of.append(pos)
                pos += c.lift_dim
        width = pos
        le, eq, strict = [], [], []

        def emb(coeffs, at):
            row = [ZERO] * width
            for j, v in enumerate(coeffs):
                row[at + j] = v
            return tuple(row)

        for c, at in zip(combo, offset_of):
            le += [(emb(n, at), r) for n, r in c.system.le]
            eq += [(emb(n, at), r) for n, r in c.system.eq]
            strict += [(emb(n, at), r) for n, r in c.system.strict]
            if c.is_identity:
                continue
            for i in range(target):
                row = [ZERO] * width
                row[i] = ONE
                for j in range(c.lift_dim):
                    row[at + j] = -c.matrix[i][j]
                eq.append((tuple(row), c.offset[i]))
        strict += [(emb(n, 0), r) for n, r in strict_rows]
        res = strict_feasible(LinearSystem(width, tuple(le), tuple(eq), tuple(strict)))
        if res.feasible:
            return Emptiness(False, res.witness[:target])
    return Emptiness(True)


def identity_cell(dim, le=(), eq=()):
    return Cell(LinearSystem(dim, tuple(le), tuple(eq)), tuple(map(tuple, identity(dim))),
                zeros(dim))


class TestPointCells:
    """A combination of cells with a point cell in it gets the answer and
    the witness of the joint strict LP (`per_combo_lp`)."""

    def agrees(self, count, parts, strict=()):
        """intersect_empty's answer, checked against the oracle, and the
        strict LPs it ran."""
        got = intersect_empty(parts, strict)
        assert got == per_combo_lp(parts, strict)
        return got, count(intersect_empty, parts, strict)

    def test_minimality_combos_match_the_lp_oracle(
        self, monkeypatch, criterion_4_program, polyhedron_cells
    ):
        emptiness = spy(monkeypatch, certify_module, "intersect_empty")
        answers = {True: 0, False: 0}
        for i in range(60):
            p = criterion_4_program(i)
            cells = w0_cells(p)
            for y0 in w0_image_points(p):
                got = (is_minimal(cells, y0, p.y_plus),
                       is_weak_minimal(cells, y0, p.y_plus))
                assert emptiness == []
                below = polyhedron_cells.below(p.y_plus, y0)
                assert got == lp_verdicts(cells, y0, p.y_plus, below), (i, y0)
                for empty in got:
                    answers[empty] += 1
        assert answers[True] > 100 and answers[False] > 60

    def test_points_mixed_with_a_composed_cell(
        self, monkeypatch, count, polyhedron_cells
    ):
        """A union of point cells and the segment of
        `test_point_with_a_composed_cell` is decided on its points by
        evaluation and on the segment by `intersect_empty`, with the
        verdicts of `per_combo_lp`."""
        segment = cell_of_polyhedron(
            Polyhedron.from_hrep(1, [((1,), 1, LE), ((-1,), 0, LE)])
        ).compose(((1,), (2,)), (0, 0))
        points = [(F(1, 2), 1), (F(1, 2), F(1, 2)), (1, 0), (0, 3), (F(3, 4), F(1, 2))]
        a = tuple(point_cell(v) for v in points) + (segment,)
        emptiness = spy(monkeypatch, certify_module, "intersect_empty")
        answers = set()
        for yplus in (OrderCone.from_generators(2, identity(2)),
                      OrderCone.from_generators(2, [(2, -1), (-1, 2)]),
                      OrderCone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])):
            for y0 in points + [(0, 0), (F(1, 4), F(1, 2)), (1, 2)]:
                y0 = vec(y0)
                emptiness.clear()
                got = (is_minimal(a, y0, yplus), is_weak_minimal(a, y0, yplus))
                below = polyhedron_cells.below(yplus, y0)
                assert got == lp_verdicts(a, y0, yplus, below), (yplus, y0)
                # the segment alone reaches intersect_empty, at most once a test
                assert all(parts[0][0] == (segment,) for parts in emptiness)
                assert len(emptiness) <= 2
                assert count(is_minimal, a, y0, yplus) <= 2
                answers.add(got)
        assert answers == {(True, True), (False, True), (False, False)}

    def test_point_on_a_strict_rows_boundary(self, count):
        v = point_cell((1, 2))
        assert self.agrees(count, [v], [((1, 0), 1)])[0] == Emptiness(True)
        assert self.agrees(count, [v], [((1, 0), 2), ((0, 1), 3)])[0] == (
            Emptiness(False, (1, 2))
        )

    def test_point_on_an_eq_row(self, count):
        v = point_cell((1, 2))
        line = Polyhedron.from_hrep(2, [((1, 1), 3, EQ)])
        other = Polyhedron.from_hrep(2, [((1, 1), 4, EQ)])
        assert self.agrees(count, [v, line])[0] == Emptiness(False, (1, 2))
        assert self.agrees(count, [v, other])[0] == Emptiness(True)
        assert self.agrees(count, [line, v], [((1, -1), 0)])[0] == (
            Emptiness(False, (1, 2))
        )

    def test_point_with_a_composed_cell(self, count):
        # {(t, 2t) : 0 <= t <= 1}, not an identity cell: its membership
        # test is the one LP
        segment = cell_of_polyhedron(
            Polyhedron.from_hrep(1, [((1,), 1, LE), ((-1,), 0, LE)])
        ).compose(((1,), (2,)), (0, 0))
        assert not segment.is_identity and segment.point is None
        on, off = point_cell((F(1, 2), 1)), point_cell((F(1, 2), F(1, 2)))
        assert self.agrees(count, [on, segment]) == (Emptiness(False, (F(1, 2), 1)), 1)
        assert self.agrees(count, [off, segment]) == (Emptiness(True), 1)
        assert self.agrees(count, [segment, on], [((0, 1), 1)])[0] == Emptiness(True)

    def test_two_point_cells(self, count):
        a, b = point_cell((1, 2)), point_cell((2, 1))
        assert self.agrees(count, [a, b])[0] == Emptiness(True)
        assert self.agrees(count, [a, point_cell((1, 2))])[0] == (
            Emptiness(False, (1, 2))
        )
        # a union meets a point where one of its pieces is that point
        assert self.agrees(count, [(a, b), b])[0] == Emptiness(False, (2, 1))

    @pytest.mark.parametrize("cell", [
        identity_cell(2, eq=[((1, 0), 1), ((1, 0), 1)]),
        identity_cell(2, eq=[((1, 0), 1), ((0, 1), 2)], le=[((1, 1), 5)]),
        identity_cell(2, eq=[((2, 0), 2), ((0, 1), 2)]),
        identity_cell(2, eq=[((1, 0), 1)]),
    ], ids=["repeated-coordinate", "extra-le-row", "scaled-row", "one-row"])
    def test_other_unit_row_systems_take_the_lp(self, count, cell):
        assert cell.point is None
        answers = set()
        for strict in ([((0, 1), 3)], [((0, 1), 2)], [((1, 0), 1)]):
            got, lps = self.agrees(count, [cell], strict)
            assert lps == 1
            answers.add(got.empty)
        assert answers == {True, False}

    def test_ignoring_strict_rows_breaks_criterion_4(
        self, monkeypatch, criterion_4_program
    ):
        """Minimality read off the rows of y0 - Y_+ alone, without the
        summed strict row, gives wrong verdicts."""
        holds = rational_module.integer_holds
        monkeypatch.setattr(
            certify_module, "integer_holds",
            lambda x, d, le=(), eq=(), strict=(): holds(x, d, le, eq,
                                                        () if le else strict),
        )
        wrong = 0
        for i in range(60):
            p = criterion_4_program(i)
            cells = w0_cells(p)
            for y0 in w0_image_points(p):
                bf = brute_force_status(p, y0)
                wrong += (
                    is_minimal(cells, y0, p.y_plus) != bf.minimal
                    or is_weak_minimal(cells, y0, p.y_plus) != bf.weak_minimal
                )
        assert wrong > 0


def spy_everywhere(monkeypatch, fn):
    """The list of the argument tuples of every call of fn through any
    binding of its name in the package's modules; every call still runs."""
    seen = []

    def recorded(*args):
        seen.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "process_duality" and (
            getattr(module, fn.__name__, None) is fn
        ):
            monkeypatch.setattr(module, fn.__name__, recorded)
    return seen


class TestPointCellType:
    """The cells of a finite program's W(0) are `PointCell`s, built with
    their point: the closure of W(0) is read off the points with no double
    description, the frontier is found with no strict LP, a bare point cell
    is decided by `certify` alone, and no verdict builds a cell's rows."""

    def test_closure_runs_no_double_description(
        self, monkeypatch, criterion_4_program, polyhedron_cells
    ):
        dd = spy_everywhere(monkeypatch, polyhedra_module.cone_dd)
        points = oracle_dd = 0
        for i in range(200):
            p = criterion_4_program(i)
            ctx = ProgramContext(p)
            assert all(isinstance(c, PointCell) for c in ctx.cells)
            dd.clear()
            closure = ctx.closure
            assert dd == [], i
            expected = closure_generators(
                [polyhedron_cells.point(v).closure_image() for v in p.w0_values]
            )
            assert closure == expected, i
            oracle_dd += len(dd)
            points += len(p.w0_values)
        assert points > 300 and oracle_dd >= 3 * points

    def test_frontier_points_run_no_strict_lp(self, monkeypatch, criterion_4_program):
        lps = spy_everywhere(monkeypatch, strict_feasible)
        found = 0
        for i in range(200):
            p = criterion_4_program(i)
            if not p.w0_values:
                continue
            ctx = ProgramContext(p)
            lps.clear()
            cells, points, _ = minimal_frontier_points(ctx)
            assert lps == [], i
            assert all(v in ctx.minimal for v in points)
            for v, minimal in ctx.minimal.items():
                assert minimal == brute_force_status(p, v).minimal, (i, v)
            assert all("system" not in c.__dict__ for c in cells), i
            found += len(points)
        assert found > 100

    def test_bare_point_cell(self, monkeypatch, criterion_4_program, polyhedron_cells):
        lps = spy_everywhere(monkeypatch, strict_feasible)
        emptiness = spy(monkeypatch, certify_module, "intersect_empty")
        asked = refused = 0
        for i in range(200):
            p = criterion_4_program(i)
            for cell in w0_cells(p):
                v = cell.point
                lps.clear()
                verdicts = (is_minimal(cell, v, p.y_plus),
                            is_weak_minimal(cell, v, p.y_plus))
                assert lps == [] and emptiness == [], (i, v)
                assert "system" not in cell.__dict__
                below = polyhedron_cells.below(p.y_plus, v)
                assert verdicts == lp_verdicts(cell, v, p.y_plus, below) == (True, True)
                for y0 in w0_image_points(p):
                    if y0 != v:
                        with pytest.raises(NotMemberError):
                            is_minimal(cell, y0, p.y_plus)
                        refused += 1
                asked += 1
        assert asked > 300 and refused > 300

    def test_verdicts_build_no_rows(self, criterion_4_program, polyhedron_cells):
        classified = 0
        for i in range(60):
            p = criterion_4_program(i)
            ctx = ProgramContext(p)
            cells = ctx.cells
            for y0 in w0_image_points(p):
                assert member(cells, y0)
                classify_proper(cells, y0, p.y_plus)
                classified += 1
            assert all("system" not in c.__dict__ for c in cells), i
            # read, the rows are those of the unit-row identity cell
            for c in cells:
                assert c.system.eq == polyhedron_cells.point(c.point).system.eq
                assert c.system.le == c.system.strict == ()
        assert classified > 90


class TestRegionLps:
    """The LPs of Min and WMin on cells that are not points are the ones
    y0 - Y_+ on the Fraction rows of `shifted_facets` gives: its rows in
    facet order, LE for Min and strict for WMin, and for Min the summed row
    (-N, the offsets summed) strict and last.  Equal systems keep every
    pivot of these LPs."""

    def test_criterion_3_frontier_candidates(
        self, monkeypatch, criterion_3_program, shifted_facets
    ):
        systems = spy(monkeypatch, polyhedra_module, "strict_feasible")
        compared = restricted = 0
        for i in range(40):
            ctx = ProgramContext(criterion_3_program(i))
            try:
                minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            cells, yplus = ctx.cells, ctx.program.y_plus
            dim = yplus.ambient_dim
            for y0 in ctx.minimal:
                rows, _ = shifted_facets.rows_at(yplus, y0)
                n, r = summed = shifted_facets.summed(yplus, y0)
                for decide, region, halfspaces in (
                    (certify_module._is_minimal, LinearSystem(dim, le=rows), [summed]),
                    (certify_module._is_weak_minimal, LinearSystem(dim, strict=rows), []),
                ):
                    systems.clear()
                    verdict = decide(cells, y0, yplus)
                    got = [s for (s,) in systems]
                    systems.clear()
                    want = intersect_empty(
                        [cells, polyhedra_module.identity_cell(region)], halfspaces
                    )
                    assert got and got == [s for (s,) in systems], (i, y0)
                    assert verdict == want.empty
                    if halfspaces:
                        assert all(
                            s.strict[-1] == (n + (ZERO,) * (s.dim - dim), r) for s in got
                        )
                    compared += len(got)
                restricted += any(c.system.strict for c in cells)
        assert compared > 100 and restricted > 10, (compared, restricted)


class TestCertify:
    def test_worked_example_certificate(self, worked_example):
        cert = certify_multiplier(worked_example, (0, 0))
        assert [h.vector for h in cert.separators.generators] == [(F(0), F(0), F(1))]
        assert cert.status_P0.minimal
        assert cert.status_D.weak_minimal
        assert not cert.status_D.minimal
        verdicts = {c.clause_id: c.verdict for c in cert.clauses}
        assert verdicts["C0"] == "verified"
        assert verdicts["C1"] == "verified"
        assert verdicts["C2"] == "verified"
        assert verdicts["C3"] == "not-applicable"
        assert verdicts["C4"] == "not-applicable"
        assert verdicts["C5"] == "not-applicable"
        assert verdicts["C6"] == "verified"
        assert verdicts["C7"] == "verified"
        assert not cert.has_violation
        assert not cert.graph_structure.has_bounded_base

    def test_scalar_certificate_recovers_multiplier(self, scalar_i2):
        cert = certify_multiplier(scalar_i2, (1,))
        verdicts = {c.clause_id: c.verdict for c in cert.clauses}
        assert verdicts["C3"] == "verified"
        assert cert.recovered_multiplier == ((F(1),),)

    def test_planar_certificate(self, planar_i3):
        cert = certify_multiplier(planar_i3, (F(1, 2), F(1, 2)))
        verdicts = {c.clause_id: c.verdict for c in cert.clauses}
        assert verdicts["C1"] == "verified"
        assert verdicts["C2"] == "verified"
        assert verdicts["C4"] == "not-applicable"
        assert verdicts["C5"] == "verified"
        assert verdicts["C6"] == "verified"
        assert verdicts["C7"] == "verified"
        assert not cert.has_violation

    def test_not_in_w0(self, planar_i3):
        with pytest.raises(NotInW0Error):
            certify_multiplier(planar_i3, (0, 0))

    def test_missing_slater_downgrades(self, r_plus):
        from process_duality.model import AffineVectorProgram, affine_map

        p = AffineVectorProgram(
            Polyhedron.from_hrep(1, [((-1,), 0, LE)]),
            affine_map([[1]], [0]),
            affine_map([[0]], [0]),  # g == 0: no Slater point
            r_plus,
            OrderCone.from_generators(1, [(1,)]),
        )
        cert = certify_multiplier(p, (0,))
        verdicts = {c.clause_id: c.verdict for c in cert.clauses}
        assert verdicts["C1"] == "unverified-precondition"
        assert verdicts["C2"] == "verified"
        assert not cert.has_violation

    def test_finite_program_certified_through_relaxation(self, three_point_discrete):
        cert = certify_multiplier(three_point_discrete, (0, 0))
        assert cert.convex_relaxation
        assert not cert.has_violation

    def test_finite_program_refuses_a_point_of_the_relaxation_only(
        self, orthant2, r_plus
    ):
        """A y0 in the relaxation's W(0) that no point of the finite
        program attains is refused, as `process` and `classify` refuse
        it, also where the relaxation's frontier recorded it minimal."""
        midpoint = (F(1, 2), F(1, 2))
        for g in (-1, 1):
            p = DiscreteVectorProgram(
                [DiscretePoint("a", (F(0), F(1)), (F(-1),)),
                 DiscretePoint("b", (F(1), F(0)), (F(g),))],
                orthant2, r_plus,
            )
            ctx = ProgramContext(p)
            minimal_frontier_points(ctx.convex)
            assert ctx.convex.minimal.get(midpoint) is (True if g == 1 else None)
            assert member(ctx.convex.cells, midpoint)
            with pytest.raises(NotInW0Error):
                certify_multiplier(ctx, midpoint)
            assert not certify_multiplier(ctx, (0, 1)).has_violation

    def test_kinked_value_function_gives_pointed_graph_and_c4(self, r_plus):
        # Omega = [0,1], f = x, g = -x: the value function kinks at z = 0,
        # the separator cone has two generators, and Graph(L) is pointed.
        from process_duality.model import AffineVectorProgram, affine_map

        omega = Polyhedron.from_hrep(1, [((-1,), 0, LE), ((1,), 1, LE)])
        p = AffineVectorProgram(
            omega,
            affine_map([[1]], [0]),
            affine_map([[-1]], [0]),
            r_plus,
            OrderCone.from_generators(1, [(1,)]),
        )
        cert = certify_multiplier(p, (0,))
        gens = sorted(h.vector for h in cert.separators.generators)
        assert gens == [(F(0), F(1)), (F(1), F(1))]
        assert cert.graph_structure.is_pointed
        assert cert.graph_structure.has_bounded_base
        verdicts = {c.clause_id: c.verdict for c in cert.clauses}
        assert verdicts["C4"] == "verified"
        assert verdicts["C3"] == "verified"
        assert not cert.has_violation
        # dual image is the half-line [0, inf) with 0 minimal on both sides
        assert cert.dual_image == Polyhedron.from_hrep(1, [((-1,), 0, LE)])
        assert cert.status_P0.minimal and cert.status_D.minimal


class TestBruteForce:
    def test_three_points(self, three_point_discrete):
        st = brute_force_status(three_point_discrete, (0, 0))
        assert st.minimal and st.weak_minimal and st.pos

    def test_single_point(self, orthant2, r_plus):
        p = DiscreteVectorProgram(
            [DiscretePoint("a", (F(0), F(0)), (F(0),))], orthant2, r_plus
        )
        assert brute_force_status(p, (0, 0)).minimal

    def test_dominated(self, orthant2, r_plus):
        p = DiscreteVectorProgram(
            [
                DiscretePoint("a", (F(0), F(0)), (F(0),)),
                DiscretePoint("b", (F(0), F(-1)), (F(0),)),
            ],
            orthant2,
            r_plus,
        )
        assert not brute_force_status(p, (0, 0)).minimal

    def test_requires_attained_point(self, three_point_discrete):
        with pytest.raises(NotMemberError):
            brute_force_status(three_point_discrete, (9, 9))

    def test_refusal_writes_y0_as_rationals(self, three_point_discrete):
        with pytest.raises(NotMemberError, match="^9/1,1/2 is not an attained image point$"):
            brute_force_status(three_point_discrete, (9, F(1, 2)))


class TestFrontier:
    def test_planar(self, planar_i3):
        fr = minimal_frontier(planar_i3)
        pts = sorted(p.point for p in fr.points)
        assert pts == [(F(0), F(1)), (F(1), F(0))]
        assert all(p.status.minimal for p in fr.points)
        assert not fr.truncated

    def test_scalar(self, scalar_i2):
        fr = minimal_frontier(scalar_i2)
        assert [p.point for p in fr.points] == [(F(1),)]

    def test_infeasible(self, r_plus):
        from process_duality.model import AffineVectorProgram, affine_map

        p = AffineVectorProgram(
            Polyhedron.from_hrep(1, [((-1,), 0, LE)]),
            affine_map([[1]], [0]),
            affine_map([[1]], [1]),  # g = x + 1 >= 1 on Omega: infeasible
            r_plus,
            OrderCone.from_generators(1, [(1,)]),
        )
        with pytest.raises(EmptyFeasibleError):
            minimal_frontier(p)

    def test_worked_example_dual_min_empty(self, worked_example):
        g = upper_image_graph(worked_example)
        L = lagrange_process(separator_cone(g, (0, 0)))
        fr = dual_frontier(worked_example, L)
        assert fr.points == ()

    def test_dual_frontier_takes_a_context(self, monkeypatch, criterion_3_program):
        """dual_frontier of a program's context equals that of the program,
        and builds no cells of W(0) beyond the context's own."""
        built = []
        w0 = certify_module.w0_cells
        monkeypatch.setattr(certify_module, "w0_cells", lambda p: built.append(p) or w0(p))
        compared = 0
        for i in range(12):
            ctx = ProgramContext(criterion_3_program(i))
            try:
                _, points, _ = minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            for y0 in points:
                L = lagrange_process(separator_cone(ctx.graph, y0))
                built.clear()
                assert dual_frontier(ctx, L) == dual_frontier(ctx.program, L)
                assert len(built) == 1  # the program's fresh context only
                compared += 1
        assert compared > 10

    def test_minimal_frontier_takes_a_context(self, criterion_3_program):
        """minimal_frontier of a program's context equals that of the
        program, and records its verdicts in the context; it used to read
        the context as a program and fail on `w0_values`."""
        compared = 0
        for i in range(12):
            p = criterion_3_program(i)
            ctx = ProgramContext(p)
            try:
                fr = minimal_frontier(p)
            except EmptyFeasibleError:
                continue
            assert minimal_frontier(ctx) == fr
            assert all(ctx.minimal[fp.point] for fp in fr.points)
            compared += len(fr.points)
        assert compared > 10

    def test_negative_limit_is_refused(self):
        """A negative limit used to slice the candidates from the end, and
        the frontier lost a point while it reported itself truncated."""
        p = random_affine_instance(random.Random(0), (2, 2, 1))
        fr = minimal_frontier(p)
        assert len(fr.points) == 2 and not fr.truncated
        L = lagrange_process(separator_cone(graph_closure(p), fr.points[0].point))
        assert dual_frontier(p, L).points
        read = lambda f: (f.points, f.truncated)
        for entry in (
            lambda limit: read(minimal_frontier(p, limit)),
            lambda limit: minimal_frontier_points(p, limit)[1:],
            lambda limit: read(dual_frontier(p, L, limit)),
        ):
            with pytest.raises(ValueError, match="nonnegative"):
                entry(-1)
            assert entry(0) == ((), True)


def _fuzz_affine(i):
    return random_affine_instance(random.Random(1_000_003 + i), (2, 2, 1))


def _fuzz_setvalued(i):
    return random_setvalued_instance(random.Random(1_000_003 + i), (2, 2))


class TestMinimalityByTheorem:
    """Min decided by theorem, as a vertex of cl W(0) + Y_+ in the frontier
    filter and as Pos on the closed polyhedron M in `_classify`, and WMin
    taken from Min where y0 is minimal, give the verdicts of strict LPs
    alone (`lp_minimality`); He and GHe, read off Pos, give the verdict of
    a double description of C cap (-Y_+) (`he_by_double_description`)."""

    @staticmethod
    def check(p, lp_minimality, he_by_double_description, seen):
        """The filter's verdict on every W(0) member among the vertices of
        the upper image; P and D at every frontier point, from its
        certificate; D at every W(0) member among the vertices of M and of
        cl W(0), minimal or not; P at every W(0) member among the vertices
        of cl W(0); and the points of `dual_frontier` at every frontier
        point, against the member vertices of the hull of M, or of a finite
        program's pieces, that the oracle finds minimal.  Every status with
        Y_+ pointed has He == GHe == Pos == the double description's He."""
        ctx = ProgramContext(p)
        try:
            _, points, _ = minimal_frontier_points(ctx)
        except EmptyFeasibleError:
            return
        yplus = p.y_plus

        def verdicts(status, a, v):
            if status.pos is not None:
                he = he_by_double_description(a, v, yplus)
                assert status.he == status.ghe == status.pos == he, v
                seen["He", he] += 1
            return status.minimal, status.weak_minimal

        for v, verdict in ctx.minimal.items():
            assert verdict == lp_minimality(ctx.cells, v, yplus)[0], v
            seen["filter", verdict] += 1
        for v in ctx.closure[0]:
            if member(ctx.cells, v):
                status = certify_module._classify(
                    ctx.cells, v, yplus, False, closure=ctx.closure
                )
                assert verdicts(status, ctx.cells, v) == lp_minimality(
                    ctx.cells, v, yplus
                ), v
                seen["P", status.minimal] += 1
        conv = ctx.convex
        for y0 in points:
            cert = certify_multiplier(ctx, y0, with_witnesses=False)
            m = cert.dual_image
            assert verdicts(cert.status_P0, conv.cells, y0) == lp_minimality(
                conv.cells, y0, yplus
            )
            assert verdicts(cert.status_D, m, y0) == lp_minimality(m, y0, yplus), y0
            for v in dict.fromkeys(closure_generators(m)[0] + conv.closure[0]):
                if member(conv.cells, v):
                    status = certify_module._classify(m, v, yplus, False)
                    assert verdicts(status, m, v) == lp_minimality(m, v, yplus), (y0, v)
                    seen["D", status.minimal] += 1
            # M, or a finite program's union of pieces, and its hull
            dual = dual_image(ctx, cert.process)
            hull = Polyhedron.from_vrep(p.y_dim, *closure_generators(dual))
            expected = tuple(
                v for v in hull.vrep.vertices
                if member(dual, v) and lp_minimality(dual, v, yplus)[0]
            )
            fr = dual_frontier(ctx, cert.process)
            assert fr.points == tuple(
                certify_module.FrontierPoint(
                    v, certify_module._classify(dual, v, yplus, minimal=True)
                )
                for v in expected
            ), y0
            for fp in fr.points:
                verdicts(fp.status, dual, fp.point)
            seen["dual frontier", True] += len(expected)

    # the least number of verdicts compared: the filter's (all minimal),
    # then P and D, minimal and not, then the dual frontier's points, then
    # He with Y_+ pointed, true and not
    @pytest.mark.parametrize("stream, count, least", [
        ("criterion 3", 40, (60, 80, 80, 190, 140, 60, 420, 160)),
        ("criterion 4", 60, (35, 50, 40, 60, 100, 25, 180, 120)),
        ("affine (2,2,1)", 150, (190, 250, 330, 390, 410, 190, 1100, 570)),
        ("set-valued (2,2)", 150, (110, 150, 90, 150, 310, 75, 490, 380)),
    ])
    def test_verdicts_match_the_lp_oracle(
        self, criterion_3_program, criterion_4_program, lp_minimality,
        he_by_double_description, stream, count, least,
    ):
        program = {
            "criterion 3": criterion_3_program,
            "criterion 4": criterion_4_program,
            "affine (2,2,1)": _fuzz_affine,
            "set-valued (2,2)": _fuzz_setvalued,
        }[stream]
        seen = Counter()
        for i in range(count):
            self.check(program(i), lp_minimality, he_by_double_description, seen)
        kinds = (("filter", True), ("P", True), ("P", False), ("D", True), ("D", False),
                 ("dual frontier", True), ("He", True), ("He", False))
        assert all(seen[k] >= n for k, n in zip(kinds, least)), seen

    def test_upper_image_with_a_line_keeps_the_lp(self, orthant2, r_plus):
        """W(0) = {(t, 0)} under Y_+ = R^2_+: the upper image is a half-plane
        with a line, whose canonical vertex (0, 0) lies in W(0) and is not
        minimal.  The filter decides it by the strict LP, not by rank."""
        p = AffineVectorProgram(
            Polyhedron.full_space(1),
            affine_map([[1], [0]], [0, 0]),
            affine_map([[0]], [-1]),
            orthant2,
            r_plus,
        )
        ctx = ProgramContext(p)
        assert minimal_frontier_points(ctx)[1:] == ((), False)
        assert ctx.minimal == {(F(0), F(0)): False}
        assert not is_minimal(ctx.cells, (0, 0), orthant2)

    def test_hull_not_closed_under_yplus_keeps_the_lp(self, monkeypatch, orthant2):
        """A = {(0, 0), (1, 1)} with its segment as hull, under
        Y_+ = R^2_+: the hull has no lines, but Y_+'s generators are not its
        recession rays, and its vertex (1, 1) is in A and not minimal.  The
        filter decides both vertices by the strict LP, not by rank."""
        calls = []
        lp = certify_module._is_minimal
        monkeypatch.setattr(
            certify_module, "_is_minimal", lambda *args: calls.append(args[1]) or lp(*args)
        )
        a = tuple(point_cell(v) for v in ((0, 0), (1, 1)))
        hull = Polyhedron.from_vrep(2, [(0, 0), (1, 1)])
        verdicts = {}
        points = certify_module._minimal_vertices(a, hull, orthant2, 10, verdicts)
        assert points == (((F(0), F(0)),), False)
        assert verdicts == {(F(0), F(0)): True, (F(1), F(1)): False}
        assert sorted(calls) == [(F(0), F(0)), (F(1), F(1))]

    def test_dual_frontier_without_lines_runs_no_lp(self, monkeypatch, criterion_3_program):
        """Where M has no lines, `dual_frontier` decides every member
        vertex of M by theorem, and none by `_is_minimal`; where it has
        lines, by the strict LP."""
        calls = []
        lp = certify_module._is_minimal
        monkeypatch.setattr(
            certify_module, "_is_minimal", lambda *args: calls.append(args[1]) or lp(*args)
        )
        seen = Counter()
        for i in range(40):
            ctx = ProgramContext(criterion_3_program(i))
            try:
                _, points, _ = minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            for y0 in points:
                L = lagrange_process(separator_cone(ctx.graph, y0))
                m = dual_image(ctx, L)
                calls.clear()
                fr = dual_frontier(ctx, L)
                assert isinstance(m, Polyhedron) and fr.points
                if not m.vrep.lines:
                    assert calls == [], (i, y0)
                seen[bool(m.vrep.lines), bool(calls)] += 1
        assert seen[False, False] > 50 and seen[True, True] >= 1, seen

    def test_se_is_checked_against_pos(self, monkeypatch, planar_i3):
        """He is read off the Pos LP and SE off a double description, and
        the two must agree: with the Pos LP made to find no functional at
        a super-efficient point, the classification raises."""
        monkeypatch.setattr(certify_module, "positive_functional", lambda *args: None)
        with pytest.raises(InternalConsistencyError, match="SE and He must coincide"):
            certify_multiplier(planar_i3, (F(1, 2), F(1, 2)))

    def test_one_cone_intersection_without_witnesses(
        self, monkeypatch, criterion_3_program
    ):
        """Without witnesses, a classification with Y_+ pointed cuts its
        cone C = cl cone(A - y0) by rows once, for SE, on W(0) and on M."""
        calls = []
        with_rows = Polyhedron.with_rows
        monkeypatch.setattr(
            Polyhedron, "with_rows", lambda *args: calls.append(1) or with_rows(*args)
        )
        classified = 0
        for i in range(12):
            ctx = ProgramContext(criterion_3_program(i))
            try:
                _, points, _ = minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            yplus = ctx.program.y_plus
            for y0 in points:
                m = dual_image(ctx, lagrange_process(separator_cone(ctx.graph, y0)))
                for a, closure in ((ctx.cells, ctx.closure), (m, None)):
                    calls.clear()
                    status = certify_module._classify(
                        a, y0, yplus, False, closure=closure
                    )
                    assert status.pos is None or calls == [1], (i, y0)
                    classified += status.pos is not None
        assert classified > 20

    def test_corrupted_vertex_raises(self, planar_i3):
        """The rank certificate refuses a point of the upper image that is
        not a vertex, though it is in W(0): the midpoint of the segment
        W(0), given as a vertex of a hull whose rows are the true ones."""
        ctx = ProgramContext(planar_i3)
        cells, points, _ = minimal_frontier_points(ctx)
        assert points == ((F(0), F(1)), (F(1), F(0)))
        upper = Polyhedron.from_vrep(2, points, planar_i3.y_plus.generators)
        mid = (F(1, 2), F(1, 2))
        assert member(cells, mid) and upper.member(mid)
        corrupted = Polyhedron(
            2, hrep=upper.hrep, vrep=VRep(points + (mid,), upper.vrep.rays)
        )
        with pytest.raises(InternalConsistencyError, match="not a vertex"):
            certify_module._minimal_vertices(cells, corrupted, planar_i3.y_plus, 10, {})
        rows = upper.system().integer_form[:2]
        assert all(certify_module._certified_vertex(rows, v) for v in points)
        with pytest.raises(InternalConsistencyError, match="not a vertex"):
            certify_module._certified_vertex(rows, mid)

    def test_every_status_is_validated(self, monkeypatch, criterion_3_program):
        """`EfficiencyStatus.validate` runs on every status `_classify`
        returns, on the theorem routes and the LP routes alike, and with
        Y_+ pointed or not."""
        validated = []
        validate = certify_module.EfficiencyStatus.validate
        classify = certify_module._classify
        returned = []

        def recorded(status):
            validated.append(status)
            return validate(status)

        def counted(*args, **kwargs):
            returned.append(classify(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(certify_module.EfficiencyStatus, "validate", recorded)
        monkeypatch.setattr(certify_module, "_classify", counted)
        for i in range(12):
            ctx = ProgramContext(criterion_3_program(i))
            try:
                _, points, _ = minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            for y0 in points:
                certify_multiplier(ctx, y0, with_witnesses=False)
            for v in ctx.closure[0]:
                if member(ctx.cells, v):
                    classify_proper(ctx.cells, v, ctx.program.y_plus)
        assert validated == returned
        applicable = Counter(s.pos is not None for s in returned)
        minimal = Counter(s.minimal for s in returned)
        assert min(applicable.values()) > 10 and min(minimal.values()) > 10, (
            applicable, minimal
        )


class TestOracleEquivalence:
    def test_random_discrete_pipeline_matches_brute_force(self, orthant2, r_plus):
        rng = random.Random(41)
        checked = 0
        for _ in range(40):
            pts = [
                DiscretePoint(
                    f"p{i}",
                    (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))),
                    (F(rng.randint(-2, 2)),),
                )
                for i in range(rng.randint(1, 6))
            ]
            p = DiscreteVectorProgram(pts, orthant2, r_plus)
            from process_duality.model import w0_image_points

            for y0 in w0_image_points(p):
                bf = brute_force_status(p, y0)
                st = classify_proper(w0_cells(p), y0, p.y_plus)
                assert st.minimal == bf.minimal
                assert st.weak_minimal == bf.weak_minimal
                assert st.pos == bf.pos
                checked += 1
        assert checked > 30


def _bundled(name):
    return load_problem(
        str(resources.files("process_duality").joinpath(f"instances/{name}.json"))
    )


class TestProgramContext:
    def test_one_context_gives_the_fresh_certificates(
        self, monkeypatch, criterion_3_program, three_point_discrete
    ):
        programs = [criterion_3_program(i) for i in range(40)]
        programs += [_bundled(n) for n in ("worked_example", "i3", "scalar_i2")]
        programs.append(three_point_discrete)
        built = {}

        def counted(fn):
            def wrapper(p):
                built[fn.__name__, id(p)] = built.get((fn.__name__, id(p)), 0) + 1
                return fn(p)
            return wrapper

        certified = 0
        for p in programs:
            ctx = ProgramContext(p)
            with monkeypatch.context() as m:
                for name in ("graph_closure", "w0_cells", "slater_point"):
                    m.setattr(certify_module, name,
                              counted(getattr(certify_module, name)))
                try:
                    _, points, _ = minimal_frontier_points(ctx)
                except EmptyFeasibleError:
                    continue
                shared = [certify_multiplier(ctx, y0) for y0 in points]
            digest = instance_hash(p)
            for y0, cert in zip(points, shared):
                assert _emit_certificate(cert, digest) == _emit_certificate(
                    certify_multiplier(p, y0), digest
                )
            certified += len(points)
        assert certified > 50
        # each program (and each relaxation) builds these once at most
        assert built and set(built.values()) == {1}

    def test_graph_is_built_after_the_w0_check(self, monkeypatch, planar_i3):
        def no_graph(p):
            raise AssertionError("graph built for a y0 outside W(0)")

        monkeypatch.setattr(certify_module, "graph_closure", no_graph)
        with pytest.raises(NotInW0Error):
            certify_multiplier(ProgramContext(planar_i3), (0, 0))

    def test_check_instance_reports_a_failing_graph_per_point(
        self, monkeypatch, planar_i3
    ):
        _, points, _ = minimal_frontier_points(planar_i3)
        assert len(points) == 2
        error = ProcessDualityError("graph build failed")

        def failing(p):
            raise error

        monkeypatch.setattr(certify_module, "graph_closure", failing)
        assert check_instance(planar_i3) == [
            Violation(y0, ("exception",), repr(error)) for y0 in points
        ]


class TestChecksOnCachedData:
    """The self-checks run on what the context has cached, on every y0."""

    def test_stale_w0_cells_caught_on_a_later_y0(self, planar_i3):
        ctx = ProgramContext(planar_i3)
        _, points, _ = minimal_frontier_points(ctx)
        assert not certify_multiplier(ctx, points[0]).has_violation
        # W(0) replaced by the larger quadrant, whose vertex 0 escapes M
        quadrant = Polyhedron.from_hrep(2, [((-1, 0), 0, LE), ((0, -1), 0, LE)])
        ctx.cells = (cell_of_polyhedron(quadrant),)
        ctx.closure = closure_generators(ctx.cells)
        with pytest.raises(InternalConsistencyError,
                           match=r"W\(0\) point escapes the dual image"):
            certify_multiplier(ctx, points[1])

    def test_corrupted_closure_caught_by_status_validation(self, planar_i3):
        ctx = ProgramContext(planar_i3)
        y0 = (F(1), F(1))  # in W(0), dominated by (1, 0)
        assert not certify_multiplier(ctx, y0).status_P0.minimal
        ctx.closure = ([y0], [], [])
        with pytest.raises(InternalConsistencyError, match="Pos holds at a non-minimal"):
            certify_multiplier(ctx, y0)

    def test_smaller_graph_caught_by_graph_checks(self, planar_i3):
        ctx = ProgramContext(planar_i3)
        _, points, _ = minimal_frontier_points(ctx)
        assert not certify_multiplier(ctx, points[0]).has_violation
        v = ctx.graph.vrep
        z_ray = (F(1), F(0), F(0))
        assert z_ray in v.rays
        ctx.graph = Polyhedron.from_vrep(
            3, v.vertices, [r for r in v.rays if r != z_ray], v.lines
        )
        with pytest.raises(InternalConsistencyError, match="escapes the process graph"):
            certify_multiplier(ctx, points[1])

    def test_sign_flipped_halfspaces_caught_at_every_frontier_point(self):
        """With each separator's y* negated, Graph(L) no longer holds the
        closed graph shifted to (-z, y - y0), on any bundled instance."""
        caught = 0
        for name in ("worked_example", "i3", "scalar_i2"):
            ctx = ProgramContext(_bundled(name))
            _, points, _ = minimal_frontier_points(ctx)
            assert points
            with injected_defect("sign-flip-halfspace"):
                for y0 in points:
                    with pytest.raises(InternalConsistencyError,
                                       match="graph shift inclusion fails"):
                        certify_multiplier(ctx, y0)
                    caught += 1
        assert caught >= 3


def cell_path_generators(obj):
    """The generators of every cell's closure image, rebuilt from the cell's
    rows: the general path, for any cell-decomposable set."""
    verts, rays, lines = [], [], []
    for c in as_cells(obj):
        p = c.closure_image()
        if p.is_empty:
            continue
        verts += list(p.vrep.vertices)
        rays += list(p.vrep.rays)
        lines += list(p.vrep.lines)
    return verts, rays, lines


class TestClosureGenerators:
    """A closed polyhedron's own canonical generators are those of its one
    cell's closure image."""

    def test_dual_images_at_criterion_3_frontier_points(self, criterion_3_program):
        images = 0
        for i in range(30):
            ctx = ProgramContext(criterion_3_program(i))
            try:
                _, points, _ = minimal_frontier_points(ctx)
            except EmptyFeasibleError:
                continue
            for y0 in points:
                m = dual_image(ctx, lagrange_process(separator_cone(ctx.graph, y0)))
                expected = cell_path_generators(m)
                assert closure_generators(m) == expected
                assert closure_generators((m,)) == expected
                assert closure_generators([m, m]) == tuple(x + x for x in expected)
                images += 1
        assert images > 40

    def test_finite_program_unions(self):
        unions = 0
        for i in range(40):
            rng = random.Random(717171 + i)
            dims = (rng.randint(1, 3), rng.randint(1, 3))
            if i % 2 == 0:
                p = random_discrete_instance(rng, dims, max_points=5)
            else:
                p = random_setvalued_instance(rng, dims, max_points=3)
            graph = graph_closure(p)
            for y0 in w0_image_points(p):
                pieces = dual_image(p, lagrange_process(separator_cone(graph, y0)))
                assert isinstance(pieces, tuple)
                assert closure_generators(pieces) == cell_path_generators(pieces)
                assert closure_generators(list(pieces)) == cell_path_generators(pieces)
                unions += len(pieces) > 1
        assert unions > 20

    def test_sets_given_by_rows(self):
        for p in (
            halfplane(),
            Polyhedron.full_space(2),
            Polyhedron.empty(2),
            Polyhedron.from_hrep(2, [((1, 1), 1, LE), ((-1, -1), -1, LE)]),
            Polyhedron.from_hrep(3, [((-1, 0, 0), 0, LE), ((1, 1, 0), 2, LE),
                                     ((0, 0, 1), 1, LE)]),
        ):
            assert closure_generators(p) == cell_path_generators(p)


def test_frontier_functionals_are_the_split_form_points(
    l1_against_split_form, criterion_3_program
):
    """The Pos LPs of `certify --frontier` on criterion 3 programs 0-39 emit
    the native unique optimum where there is one, and it is the split
    form's point; at a tie they emit the split form's vertex, over A's
    closure generators.  The delta and C5 LPs give the split form's value
    and feasibility."""
    _certify_frontiers(criterion_3_program(i) for i in range(40) if i not in (3, 5))
    seen = l1_against_split_form
    assert seen["unique"] > 100 and seen["tie"] > 0, seen


def test_c5_at_a_tie_runs_one_lp(monkeypatch, r_plus):
    """C5 asks only whether some h0 in S is >= 1 on Y_+'s extreme rays, so
    a tie runs no split-form LP: with two generators of y* = 1 on Y_+ = R_+
    every lambda >= 0 with lambda_1 + lambda_2 = 1 is L1-minimal."""
    s = SeparatorCone(1, 1, (F(0),), (Separator((F(1),), (F(1),)),
                                       Separator((F(-1),), (F(1),))))
    solve = polyhedra_module.lp_solve
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(polyhedra_module, "lp_solve", counted)
    assert certify_module._c5_applies(s, r_plus)
    assert len(calls) == 1
    # the same system meets the tie in `l1_minimal_point`
    calls.clear()
    tie = LinearSystem(2, [((-1, -1), -1)])
    assert polyhedra_module.l1_minimal_point(tie) is not None
    assert len(calls) == 2


class TestUnboundedL1Lp:
    """The L1-minimal functional LPs minimise a sum of nonnegative variables,
    so an UNBOUNDED answer is a fault, not "no functional"."""

    @pytest.mark.parametrize("solve", [
        lambda y: polyhedra_module.positive_functional(2, y.generators, [(F(0), F(0))]),
        lambda y: certify_module._c5_applies(
            SeparatorCone(1, 2, (F(0), F(0)),
                          (Separator((F(1),), (F(1), F(1))),)),
            y,
        ),
        lambda y: polyhedra_module.positive_functional(2, y.generators),
    ], ids=["pos_functional", "c5_functional", "positive_functional"])
    def test_unbounded_raises(self, monkeypatch, orthant2, solve):
        assert solve(orthant2)
        monkeypatch.setattr(polyhedra_module, "lp_solve",
                            lambda *args, **kwargs: LpOutcome(LpStatus.UNBOUNDED))
        with pytest.raises(InternalConsistencyError, match="unbounded"):
            solve(orthant2)


def _certificate_report(p, y0):
    """The certificate report at y0, less the instance hash."""
    report = _emit_certificate(certify_multiplier(p, y0), instance_hash(p))
    del report["instance_hash"]
    return report


class TestDiscreteIsSetValued:
    """A discrete program is the set-valued program with one f value and one
    g value per point: every query gives its set-valued twin's answer."""

    @staticmethod
    def twin(p):
        points = [
            SetValuedPoint(pt.point_id, (pt.f_value,), (pt.g_value,))
            for pt in p.points
        ]
        return SetValuedProgram(points, p.y_plus, p.z_plus)

    def test_criterion_4_programs_equal_their_twins(self, criterion_4_program):
        compared = 0
        for i in range(0, 200, 2):
            p = criterion_4_program(i)
            q = self.twin(p)
            assert (p.kind, q.kind) == ("discrete", "setvalued")
            levels = [(F(0),) * p.z_dim] + [pt.g_value for pt in p.points]
            for z in levels:
                assert feasible_region(p, z) == feasible_region(q, z), i
            assert w0_image_points(p) == w0_image_points(q), i
            assert graph_closure(p) == graph_closure(q), i
            assert slater_point(p) == slater_point(q), i
            assert emit_problem(simplex_relaxation(p)) == emit_problem(
                simplex_relaxation(q)
            ), i
            cells_p, cells_q = w0_cells(p), w0_cells(q)
            assert cells_p == cells_q, i
            for y0 in w0_image_points(p):
                bp, bq = brute_force_status(p, y0), brute_force_status(q, y0)
                assert (bp, bp.witnesses) == (bq, bq.witnesses), (i, y0)
                assert is_minimal(cells_p, y0, p.y_plus) == is_minimal(
                    cells_q, y0, q.y_plus
                ), (i, y0)
                cp = classify_proper(cells_p, y0, p.y_plus)
                cq = classify_proper(cells_q, y0, q.y_plus)
                assert (cp, cp.witnesses) == (cq, cq.witnesses), (i, y0)
                assert _certificate_report(p, y0) == _certificate_report(
                    q, y0
                ), (i, y0)
                compared += 1
        assert compared > 100
