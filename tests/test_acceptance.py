"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Every assertion is exact
(no tolerances anywhere); the stated runtime budgets are asserted where the
criterion states one.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from importlib import resources

from process_duality.certify import (
    brute_force_status,
    certify_multiplier,
    is_minimal,
    is_weak_minimal,
)
from process_duality.cli import main
from process_duality.exactlp import LinearSystem, LpStatus, lp_solve, strict_feasible
from process_duality.fuzzing import (
    check_instance,
    random_affine_instance,
)
from process_duality.model import (
    AffineVectorProgram,
    OrderCone,
    affine_map,
    feasible_region,
    upper_image_graph,
    w0_cells,
    w0_image_points,
)
from process_duality.polyhedra import (
    LE,
    Polyhedron,
    PolyhedralCone,
    closure_generators,
    cone_structure,
    dd_convert,
    polar_cone,
    positive_functional,
)
from process_duality.process import lagrange_process, separator_cone
from process_duality.rational import vec, vsub


def bundled_path(name):
    return str(resources.files("process_duality").joinpath(f"instances/{name}.json"))


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_1_worked_example_reproduction():
    """Exact reproduction of the bundled worked example, end to end, under 1 s."""
    t0 = time.time()
    path = bundled_path("worked_example")

    code, out = run_cli(["certify", path, "--y0", "0/1,0/1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["separators"]["generators"] == [
        {"z_star": ["0/1"], "y_star": ["0/1", "1/1"]}
    ]
    assert doc["process_graph"]["h_rep"] == [
        {"normal": ["0/1", "0/1", "-1/1"], "offset": "0/1", "relation": "<="}
    ]
    assert doc["process_graph"]["v_rep"] == {
        "vertices": [["0/1", "0/1", "0/1"]],
        "rays": [["0/1", "0/1", "1/1"]],
        "lines": [["0/1", "1/1", "0/1"], ["1/1", "0/1", "0/1"]],
    }
    assert doc["dual_image"]["h_rep"] == [
        {"normal": ["0/1", "-1/1"], "offset": "0/1", "relation": "<="}
    ]
    assert doc["status_P0"]["minimal"] is True
    assert doc["status_D"]["weak_minimal"] is True
    assert doc["status_D"]["minimal"] is False
    verdicts = {c["id"]: c["verdict"] for c in doc["clauses"]}
    assert verdicts["C4"] == "not-applicable"
    assert doc["verdict"] == "all-applicable-verified"

    # L(z) = R x R_+ at sampled z values
    from process_duality.problemfile import load_problem
    from process_duality.process import process_eval

    prog = load_problem(path)
    L = lagrange_process(separator_cone(upper_image_graph(prog), (0, 0)))
    expected_fiber = Polyhedron.from_hrep(2, [((0, -1), 0, LE)])
    for z in [(-2,), (0,), (5,)]:
        assert process_eval(L, z) == expected_fiber

    # Min(M) = empty via frontier mode on the dual side
    code, out = run_cli(
        ["frontier", path, "--side", "D", "--y0", "0/1,0/1", "--json"]
    )
    assert code == 0
    assert json.loads(out)["minimal_points"] == []

    elapsed = time.time() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"
    print(f"\nACCEPTANCE 1: PASS - worked example reproduced exactly in {elapsed:.2f}s")


def _random_scalar_instance(rng):
    dx = rng.randint(1, 2)
    dz = rng.randint(1, 2)
    rows = []
    for j in range(dx):
        hi = tuple(int(j == k) for k in range(dx))
        lo = tuple(-int(j == k) for k in range(dx))
        rows.append((hi, rng.randint(1, 3), LE))
        rows.append((lo, rng.randint(1, 3), LE))
    omega = Polyhedron.from_hrep(dx, rows)
    f = affine_map([[rng.randint(-2, 2) for _ in range(dx)]], [rng.randint(-2, 2)])
    g_matrix = [[rng.randint(-2, 2) for _ in range(dx)] for _ in range(dz)]
    g = affine_map(g_matrix, [-1] * dz)  # g(0) = -1 < 0: Slater at the origin
    y_plus = OrderCone.from_generators(1, [(1,)])
    z_plus = OrderCone.from_generators(
        dz, [tuple(int(i == j) for j in range(dz)) for i in range(dz)]
    )
    return AffineVectorProgram(omega, f, g, y_plus, z_plus)


def test_criterion_2_scalar_classical_duality_recovery(cone_contains_point):
    """Separators at the scalar optimum are exactly the optimal LP duals."""
    t0 = time.time()
    rng = random.Random(20260808)
    checked = 0
    singleton_hits = 0
    while checked < 50:
        p = _random_scalar_instance(rng)
        omega_rows = [(r.normal, r.offset) for r in p.omega.hrep if r.rel == LE]
        g_rows = [
            (tuple(p.g.matrix[i]), -p.g.offset[i]) for i in range(p.z_dim)
        ]
        system = LinearSystem(p.x_dim, le=tuple(omega_rows) + tuple(g_rows))
        out = lp_solve(p.f.matrix[0], system, "min")
        assert out.status is LpStatus.OPTIMAL  # box Omega keeps it bounded
        v_star = out.objective_value + p.f.offset[0]
        y0 = (v_star,)

        cert = certify_multiplier(p, y0)
        verdicts = {c.clause_id: c.verdict for c in cert.clauses}
        assert verdicts["C3"] == "verified", "C3 must verify on scalar instances"

        # Bland-deterministic dual on the g rows embeds into S
        lam = out.dual_le[len(omega_rows):]
        gens = [h.vector for h in cert.separators.generators]
        assert cone_contains_point(
            p.z_dim + 1, tuple(lam) + (F(1),), gens, []
        ), "LP dual multiplier must lie in the separator cone"

        # every normalized separator is an exact optimal dual:
        # min over Omega of f + z*.g equals the primal optimum
        normalized = []
        for h in cert.separators.generators:
            assert h.y_star[0] > 0, "Slater forbids vertical separators"
            z_star = tuple(z / h.y_star[0] for z in h.z_star)
            normalized.append(z_star)
            assert all(v >= 0 for v in z_star)
            lagr_obj = tuple(
                p.f.matrix[0][j]
                + sum(z_star[i] * p.g.matrix[i][j] for i in range(p.z_dim))
                for j in range(p.x_dim)
            )
            inner = lp_solve(lagr_obj, LinearSystem(p.x_dim, le=tuple(omega_rows)), "min")
            assert inner.status is LpStatus.OPTIMAL
            lagr_value = (
                inner.objective_value
                + p.f.offset[0]
                + sum(z_star[i] * p.g.offset[i] for i in range(p.z_dim))
            )
            assert lagr_value == v_star, "normalized separator is not an optimal dual"

        if len(normalized) == 1:
            singleton_hits += 1
            assert normalized[0] == tuple(lam), "unique dual must equal z* exactly"
        checked += 1

    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s, budget 10s"
    assert singleton_hits > 0
    print(
        f"ACCEPTANCE 2: PASS - {checked} scalar instances, multiplier recovered "
        f"exactly ({singleton_hits} with a unique dual) in {elapsed:.1f}s"
    )


def test_criterion_3_theorem_property_suite():
    """500 random affine instances, all frontier points, zero violations."""
    t0 = time.time()
    count = 500
    applicable_seen = {"C4": 0, "C5": 0, "C6": 0, "C7": 0}
    points_checked = 0
    for i in range(count):
        rng = random.Random(424242 * 1_000_003 + i)
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        p = random_affine_instance(rng, dims)
        violations = check_instance(p)
        assert not violations, (
            f"instance {i} dims {dims}: applicable clause violated: {violations}"
        )
        # coverage bookkeeping on one frontier point
        from process_duality.certify import minimal_frontier_points

        try:
            _, pts, _ = minimal_frontier_points(p)
        except Exception:
            pts = ()
        points_checked += len(pts)
        if pts:
            cert = certify_multiplier(p, pts[0], with_witnesses=False)
            for c in cert.clauses:
                if c.clause_id in applicable_seen and c.applicable:
                    applicable_seen[c.clause_id] += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.0f}s, budget 300s"
    assert applicable_seen["C6"] > 0 and applicable_seen["C7"] > 0
    assert applicable_seen["C4"] + applicable_seen["C5"] > 0
    print(
        f"ACCEPTANCE 3: PASS - {count} instances, {points_checked} frontier points, "
        f"0 violations (applicable counts {applicable_seen}) in {elapsed:.0f}s"
    )


def test_criterion_4_oracle_equivalence_on_finite_programs(
    criterion_4_program, cone_contains_point
):
    """Pipeline Min/WMin/Pos equals brute force on 200 finite programs."""
    t0 = time.time()
    statuses_compared = 0
    programs = 0
    for i in range(200):
        p = criterion_4_program(i)
        dy, dz = p.y_dim, p.z_dim
        programs += 1

        # independent re-derivation of the feasibility rule at z = 0
        zero = (F(0),) * dz
        gens = list(p.z_plus.generators)
        lines = list(p.z_plus.lineality)
        expected = []
        for pt in p.points:
            ok = any(
                cone_contains_point(dz, tuple(-v for v in gv), gens, lines)
                for gv in pt.g_values
            )
            if ok:
                expected.append(pt.point_id)
        assert tuple(expected) == feasible_region(p, zero)

        cells = w0_cells(p)
        for y0 in w0_image_points(p):
            bf = brute_force_status(p, y0)
            minimal = is_minimal(cells, y0, p.y_plus)
            weak = is_weak_minimal(cells, y0, p.y_plus)
            assert minimal == bf.minimal
            assert weak == bf.weak_minimal
            if p.y_plus.is_pointed:
                verts, rays, lns = closure_generators(cells)
                pos = positive_functional(
                    dy,
                    p.y_plus.generators,
                    [vsub(v, vec(y0)) for v in verts] + list(rays),
                    lns,
                ) is not None
                assert pos == bf.pos
            statuses_compared += 1
    elapsed = time.time() - t0
    print(
        f"ACCEPTANCE 4: PASS - {programs} finite programs, {statuses_compared} "
        f"status triples equal to brute force in {elapsed:.0f}s"
    )


def test_criterion_5_geometry_kernel_invariants():
    """1000 random cones in dim <= 4: round-trip, polar involution, base test."""
    t0 = time.time()
    count = 1000
    for i in range(count):
        rng = random.Random(31337 * 1_000_003 + i)
        dim = rng.randint(1, 4)
        nrows = rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            n = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(n):
                rows.append((n, 0, LE))
        p = Polyhedron.from_hrep(dim, rows)
        k = PolyhedralCone.from_polyhedron(p)

        # double-description round-trip is a canonical involution
        assert dd_convert(dd_convert(k, "HtoV"), "VtoH") == k

        # polar involution returns the original closed cone; each polar is
        # the one defined by rows, whose forms come from fresh DDs
        assert polar_cone(polar_cone(k, "negative"), "negative") == k
        for sign, c in (("negative", 1), ("positive", -1)):
            by_definition = PolyhedralCone.from_normals(
                dim, [tuple(c * x for x in g) for g in k.generators], k.lineality
            )
            polar = polar_cone(k, sign)
            assert (polar.hrep, polar.vrep) == (by_definition.hrep, by_definition.vrep)

        # bounded base iff a strictly positive functional exists (independent
        # route: strict-feasibility LP on the generators)
        cs = cone_structure(k)
        strict_rows = [(tuple(-x for x in g), 0) for g in k.generators]
        strict_rows += [(tuple(-x for x in l), 0) for l in k.lineality]
        strict_rows += [(tuple(x for x in l), 0) for l in k.lineality]
        has_positive = strict_feasible(
            LinearSystem(dim, strict=tuple(strict_rows))
        ).feasible
        assert cs.has_bounded_base == has_positive
        if cs.base is not None:
            h = cs.functional
            for g in k.generators:
                val = sum(h[j] * g[j] for j in range(dim))
                assert val > 0
                assert cs.base.member(tuple(x / val for x in g))
    elapsed = time.time() - t0
    print(
        f"ACCEPTANCE 5: PASS - {count} random cones, round-trip + polar "
        f"involution + bounded-base tests exact in {elapsed:.0f}s"
    )
