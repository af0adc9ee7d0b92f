"""Shared reference instances: the bundled worked example and two derived
ones, criterion 3's program stream with restricted boundaries and criterion
4's finite programs; an LP oracle for membership in a finitely generated
cone; the order-cone generator with its strict-LP interior filter, and the
affine-instance generator with its ray-sum-or-LP interior vector;
generator-level oracles for a polyhedron's two representations and
for Minkowski sums; the LP certificate check and membership by row
evaluation, both in Fraction arithmetic; the Fraction rows of y0 - Y_+
and Min's summed row; identity cells built through a `Polyhedron`; the
strict-LP route that certified restricted rows and kept
restricted slices; a recorder of the strict LPs that building order
cones and boundary-restricted sets runs; double description without
its cardinality prefilter; the H/V conversions that lift every set,
cones included, to its homogenization; the polar cone with its
generators from a double description; Min and WMin decided by
strict LPs alone; He decided by a double description of
C cap (-Y_+); and the Henig distance by its primal LP."""

import random
from fractions import Fraction as F

import pytest

from process_duality import _dd, model, polyhedra
from process_duality._dd import (
    _idot,
    _integer_null_space,
    _integer_rref,
    _reduce_mod_lines,
    cone_dd,
)
from process_duality._kernel import primitive
from process_duality.errors import InternalConsistencyError
from process_duality.exactlp import LinearSystem, LpStatus, lp_solve, strict_feasible
from process_duality.fuzzing import (
    random_affine_instance,
    random_discrete_instance,
    random_order_cone,
    random_setvalued_instance,
)
from process_duality.model import (
    AffineVectorProgram,
    DiscreteVectorProgram,
    DiscretePoint,
    OrderCone,
    affine_map,
)
from process_duality.polyhedra import (
    EQ,
    LE,
    BoundaryRestriction,
    BoundaryRestrictedPolyhedron,
    HRow,
    Polyhedron,
    PolyhedralCone,
    VRep,
    _on_hyperplane,
    cell_of_polyhedron,
    closure_generators,
    identity_cell,
    intersect_empty,
)
from process_duality.rational import (
    ONE,
    ZERO,
    dot,
    integer_scaled,
    is_zero_vec,
    quotients,
    vadd,
    vec,
    vsub,
    zeros,
)


@pytest.fixture
def r_plus():
    return OrderCone.from_generators(1, [(1,)])


@pytest.fixture
def orthant2():
    return OrderCone.from_generators(2, [(1, 0), (0, 1)])


@pytest.fixture
def worked_example(orthant2, r_plus):
    """Omega = {x2 > 0} union {(0,0)}, f = id, g = x2 - 1."""
    closure = Polyhedron.from_hrep(2, [((0, -1), 0, LE)])
    origin = Polyhedron.from_vrep(2, [(0, 0)])
    omega = BoundaryRestrictedPolyhedron.from_facet_indices(closure, [(0, origin)])
    return AffineVectorProgram(
        omega,
        affine_map([[1, 0], [0, 1]], [0, 0]),
        affine_map([[0, 1]], [-1]),
        orthant2,
        r_plus,
    )


@pytest.fixture
def scalar_i2(r_plus):
    """min x with 1 - x <= 0 over the whole line; optimum 1, multiplier 1."""
    return AffineVectorProgram(
        Polyhedron.full_space(1),
        affine_map([[1]], [0]),
        affine_map([[-1]], [1]),
        r_plus,
        OrderCone.from_generators(1, [(1,)]),
    )


@pytest.fixture
def planar_i3(orthant2, r_plus):
    """min (x1, x2) with 1 - x1 - x2 <= 0 over the nonnegative quadrant."""
    omega = Polyhedron.from_hrep(2, [((-1, 0), 0, LE), ((0, -1), 0, LE)])
    return AffineVectorProgram(
        omega,
        affine_map([[1, 0], [0, 1]], [0, 0]),
        affine_map([[-1, -1]], [1]),
        orthant2,
        r_plus,
    )


@pytest.fixture
def three_point_discrete(orthant2, r_plus):
    points = [
        DiscretePoint("a", (F(0), F(0)), (F(0),)),
        DiscretePoint("b", (F(1), F(1)), (F(0),)),
        DiscretePoint("c", (F(-1), F(2)), (F(0),)),
    ]
    return DiscreteVectorProgram(points, orthant2, r_plus)


CRITERION_3_SEED = 424242


def _restrict_boundary(p, rng):
    """Restrict 1-3 facets of Omega; each keeps nothing or one of its vertices."""
    closure = p.omega
    facets = closure.inequalities()
    chosen = sorted(rng.sample(range(len(facets)), rng.randint(1, min(3, len(facets)))))
    pairs = []
    for idx in chosen:
        row = facets[idx]
        on_facet = [
            v for v in closure.vrep.vertices
            if sum(a * x for a, x in zip(row.normal, v)) == row.offset
        ]
        if on_facet and rng.random() < 0.5:
            retained = Polyhedron.from_vrep(closure.dim, [rng.choice(on_facet)])
        else:
            retained = Polyhedron.empty(closure.dim)
        pairs.append((idx, retained))
    omega = BoundaryRestrictedPolyhedron.from_facet_indices(closure, pairs)
    return AffineVectorProgram(omega, p.f, p.g, p.y_plus, p.z_plus)


def _criterion_3_program(i):
    rng = random.Random(CRITERION_3_SEED * 1_000_003 + i)
    dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
    p = random_affine_instance(rng, dims)
    if rng.random() < 0.25:
        p = _restrict_boundary(p, rng)
    return p


@pytest.fixture(scope="session")
def criterion_3_program():
    """i -> program i of criterion 3's stream, where about a quarter of the
    programs get 1-3 facets of Omega restricted (the `frontier` benchmark
    workload draws its programs the same way)."""
    return _criterion_3_program


CRITERION_4_SEED = 909090


def _criterion_4_program(i):
    rng = random.Random(CRITERION_4_SEED * 999_983 + i)
    dy = rng.randint(1, 3)
    dz = rng.randint(1, 3)
    if i % 2 == 0:
        return random_discrete_instance(rng, (dy, dz), max_points=6)
    return random_setvalued_instance(rng, (dy, dz), max_points=4)


@pytest.fixture(scope="session")
def criterion_4_program():
    """i -> program i of criterion 4's stream: a discrete program for even i,
    a set-valued one for odd i (the `minimality` benchmark workload draws its
    programs the same way)."""
    return _criterion_4_program


def _lp_filter_order_cone(rng, dim, max_gens=6):
    """`fuzzing.random_order_cone` as it was when a strict LP on the raw
    normals decided whether a draw has nonempty interior."""
    for _ in range(60):
        nrows = rng.randint(1, max(1, 2 * dim))
        normals = []
        for _ in range(nrows):
            n = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(n):
                normals.append(n)
        if not normals:
            continue
        feas = strict_feasible(
            LinearSystem(dim, strict=tuple((vec(n), 0) for n in normals))
        )
        if not feas.feasible:
            continue
        cone = PolyhedralCone.from_normals(dim, ineq_normals=normals)
        if not cone.hrep:  # degenerated to the whole space
            continue
        if len(cone.generators) + 2 * len(cone.lineality) > max_gens:
            continue
        return OrderCone(cone)
    return OrderCone(
        PolyhedralCone.from_normals(
            dim, ineq_normals=[tuple(-int(i == j) for j in range(dim)) for i in range(dim)]
        )
    )


def _old_affine_instance(rng, dims=(2, 2, 1)):
    """`fuzzing.random_affine_instance` as it was when g(0) = -w took w as
    the sum of Z_+'s canonical extreme rays if that lies strictly inside
    Z_+, and else as a strict-feasibility LP's interior point."""
    dx, dy, dz = dims
    rows = []
    for j in range(dx):
        hi = tuple(int(j == k) for k in range(dx))
        lo = tuple(-int(j == k) for k in range(dx))
        rows.append((hi, rng.randint(1, 3), LE))
        rows.append((lo, rng.randint(1, 3), LE))
    for _ in range(rng.randint(0, 2)):
        normal = tuple(rng.randint(-2, 2) for _ in range(dx))
        if any(normal):
            rows.append((normal, rng.randint(1, 4), LE))
    omega = Polyhedron.from_hrep(dx, rows)
    y_plus = random_order_cone(rng, dy)
    z_plus = random_order_cone(rng, dz)
    f = affine_map(
        [[rng.randint(-2, 2) for _ in range(dx)] for _ in range(dy)],
        [rng.randint(-2, 2) for _ in range(dy)],
    )
    g_matrix = [[rng.randint(-2, 2) for _ in range(dx)] for _ in range(dz)]
    w = (ZERO,) * dz
    for r in z_plus.generators:
        w = vadd(w, r)
    if not z_plus.strictly_contains(w):
        w = strict_feasible(LinearSystem(
            dz, strict=tuple((n, 0) for n in z_plus.facet_normals())
        )).witness
    g = affine_map(g_matrix, tuple(-x for x in w))
    return AffineVectorProgram(omega, f, g, y_plus, z_plus)


@pytest.fixture(scope="session")
def old_affine_instance():
    """(rng, dims) -> a random affine instance drawn as
    `fuzzing.random_affine_instance` draws it, with the Slater offset taken
    from the ray sum of Z_+ or, should that fail, from a strict LP."""
    return _old_affine_instance


class _LpRoute:
    """The strict-LP decisions that `BoundaryRestrictedPolyhedron` made
    before generator witnesses certified them, with `exactlp.strict_feasible`
    called directly."""

    @staticmethod
    def strictly_inside(closure, normal, offset):
        """Has the closure a point with normal.x < offset?  False exactly
        when the valid row is an implicit equality of the closure."""
        return strict_feasible(
            closure.system().extended(strict=[(normal, offset)])
        ).feasible

    @staticmethod
    def meets(closure, normal, offset):
        """Does the hyperplane normal.x = offset meet the closure?"""
        return strict_feasible(
            closure.system().extended(eq=[(normal, offset)])
        ).feasible

    def with_rows(self, brp, rows):
        """(`BoundaryRestrictedPolyhedron.with_rows(rows)` by the LP keep
        filter, the number of slices that filter dropped)."""
        closure = brp.closure.with_rows(rows)
        pending = [
            BoundaryRestriction(r.normal, r.offset, r.retained.with_rows(rows))
            for r in brp.restrictions
        ]
        while not closure.is_empty:
            on = next((fr for fr in pending if _on_hyperplane(closure, fr)), None)
            if on is None:
                break
            closure = closure.with_rows(on.retained._any_hrep())
            pending = [
                fr for fr in pending
                if (fr.normal, fr.offset) != (on.normal, on.offset)
            ]
        if closure.is_empty:
            return closure, 0
        keep = [fr for fr in pending if self.meets(closure, fr.normal, fr.offset)]
        dropped = len(pending) - len(keep)
        if not keep:
            return closure, dropped
        return BoundaryRestrictedPolyhedron(closure, keep), dropped


@pytest.fixture(scope="session")
def lp_route():
    """`.strictly_inside(closure, n, r)` and `.meets(closure, n, r)`, the
    strict LPs that once decided whether a restricted row is an implicit
    equality and whether a restricted slice is kept, and `.with_rows(brp,
    rows)` -> (the intersection by that keep filter, slices it dropped)."""
    return _LpRoute()


class _StrictLpRecorder:
    """The outcome (feasible or not) of every strict LP that runs inside
    `OrderCone.__init__`, `BoundaryRestrictedPolyhedron.__init__` or
    `BoundaryRestrictedPolyhedron.with_rows`."""

    def __init__(self, monkeypatch):
        self.depth = 0
        self.outcomes = []
        solve = polyhedra.strict_feasible

        def recorded(system):
            out = solve(system)
            if self.depth:
                self.outcomes.append(out.feasible)
            return out

        monkeypatch.setattr(polyhedra, "strict_feasible", recorded)
        monkeypatch.setattr(model, "strict_feasible", recorded)
        for owner, name in ((OrderCone, "__init__"),
                            (BoundaryRestrictedPolyhedron, "__init__"),
                            (BoundaryRestrictedPolyhedron, "with_rows")):
            monkeypatch.setattr(owner, name, self.watched(getattr(owner, name)))

    def watched(self, fn):
        def call(*args, **kwargs):
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
        return call


@pytest.fixture
def strict_lp_recorder(monkeypatch):
    """A recorder whose `.outcomes` lists, in order, the feasibility of each
    strict LP run while an order cone or a boundary-restricted set is built
    or intersected with rows."""
    return _StrictLpRecorder(monkeypatch)


@pytest.fixture(scope="session")
def lp_filter_order_cone():
    """(rng, dim, max_gens=6) -> a random order cone drawn as
    `fuzzing.random_order_cone` draws it, with each draw's interior decided
    by a strict-feasibility LP on its raw normals instead of by the
    canonical rows."""
    return _lp_filter_order_cone


def _in_cone(dim, target, rays, lines):
    """target in cone(rays) + span(lines), decided by one exact LP."""
    k = len(rays)
    m = len(lines)
    width = k + 2 * m  # lambda_i >= 0; line coefficients split into +/-.
    if width == 0:
        return is_zero_vec(target)
    eq = []
    for c in range(dim):
        row = [rays[i][c] for i in range(k)]
        row += [lines[j][c] for j in range(m)]
        row += [-lines[j][c] for j in range(m)]
        eq.append((tuple(row), target[c]))
    le = [(tuple(-ONE if i == j else ZERO for i in range(width)), ZERO) for j in range(k)]
    out = lp_solve((ZERO,) * width, LinearSystem(width, le=tuple(le), eq=tuple(eq)), "min")
    return out.status is LpStatus.OPTIMAL


@pytest.fixture(scope="session")
def cone_contains_point():
    """(dim, point, rays, lines) -> exact membership of the point in the
    cone the rays and lines generate; an LP, independent of double
    description."""

    def contains(dim, point, rays, lines):
        return _in_cone(dim, vec(point), list(rays), list(lines))

    return contains


@pytest.fixture(scope="session")
def drop_non_extreme():
    """(dim, rays, lines) -> the rays left after one LP pass that drops each
    ray that is a nonnegative combination of the other kept rays plus the
    lineality space."""

    def drop(dim, rays, lines):
        kept = list(rays)
        i = 0
        while i < len(kept):
            others = kept[:i] + kept[i + 1 :]
            if _in_cone(dim, kept[i], others, lines):
                kept.pop(i)
            else:
                i += 1
        return kept

    return drop


@pytest.fixture(scope="session")
def check_consistency():
    """p -> asserts that p's canonical rows contain p and its generators,
    and that the generators recomputed from those rows are p's own."""

    def check(p):
        probe = Polyhedron.from_hrep(p.dim, p.hrep)
        v = p.vrep
        assert probe.contains_poly(p)
        assert all(probe.member(x) for x in v.vertices)
        assert all(probe.ray_member(r) for r in v.rays)
        w = probe.vrep
        assert (w.vertices, w.rays, w.lines) == (v.vertices, v.rays, v.lines)

    return check


@pytest.fixture(scope="session")
def minkowski_sum():
    """(a, b) -> a + b, built from the pairwise sums of their vertices and
    the union of their rays and lines."""

    def total(a, b):
        assert a.dim == b.dim
        if a.is_empty or b.is_empty:
            return Polyhedron.empty(a.dim)
        va, vb = a.vrep, b.vrep
        return Polyhedron.from_vrep(
            a.dim,
            [vadd(x, y) for x in va.vertices for y in vb.vertices],
            va.rays + vb.rays,
            va.lines + vb.lines,
        )

    return total


def _combination(system, y, mu):
    """A^T.y + E^T.mu, summed over the nonzero multipliers only."""
    total = [ZERO] * system.dim
    for rows, weights in ((system.le, y), (system.eq, mu)):
        for (normal, _), w in zip(rows, weights):
            if w:
                for j, a in enumerate(normal):
                    if a:
                        total[j] += w * a
    return total


def _rhs_combination(system, y, mu):
    """b.y + d.mu."""
    value = sum((w * rhs for (_, rhs), w in zip(system.le, y) if w), ZERO)
    return value + sum((w * rhs for (_, rhs), w in zip(system.eq, mu) if w), ZERO)


def _fits(system, y, mu):
    return (y is not None and mu is not None
            and len(y) == len(system.le) and len(mu) == len(system.eq))


def _fraction_verify_outcome(objective, system, sense, out):
    if out.status is LpStatus.INFEASIBLE:
        y, mu = out.farkas_le, out.farkas_eq
        if not _fits(system, y, mu):
            raise InternalConsistencyError("infeasible outcome without a Farkas vector")
        if any(v < 0 for v in y):
            raise InternalConsistencyError("negative Farkas multiplier on an LE row")
        if any(v != 0 for v in _combination(system, y, mu)):
            raise InternalConsistencyError("Farkas combination of the rows is not zero")
        if _rhs_combination(system, y, mu) >= 0:
            raise InternalConsistencyError("Farkas right-hand side is not negative")
        return
    if out.status is not LpStatus.OPTIMAL:
        return
    c = vec(objective)
    x = out.primal_point
    le_dots = [dot(normal, x) for normal, _ in system.le]
    for ax, (_, rhs) in zip(le_dots, system.le):
        if ax > rhs:
            raise InternalConsistencyError("primal point violates an LE row")
    for normal, rhs in system.eq:
        if dot(normal, x) != rhs:
            raise InternalConsistencyError("primal point violates an EQ row")
    y = out.dual_le
    mu = out.dual_eq
    if not _fits(system, y, mu):
        raise InternalConsistencyError("optimal outcome without a dual per row")
    if any(v < 0 for v in y):
        raise InternalConsistencyError("negative dual on an LE row")
    sign = -1 if sense == "min" else 1
    for lhs, cj in zip(_combination(system, y, mu), c):
        if lhs != sign * cj:
            raise InternalConsistencyError("dual stationarity fails")
    for yi, ax, (_, rhs) in zip(y, le_dots, system.le):
        if yi != 0 and ax != rhs:
            raise InternalConsistencyError("complementary slackness fails")
    dual_val = _rhs_combination(system, y, mu)
    # sense == "min": c.x == -(b.y + d.mu); sense == "max": c.x == b.y + d.mu
    expected = -dual_val if sense == "min" else dual_val
    cx = dot(c, x)
    if cx != expected:
        raise InternalConsistencyError("strong duality fails")
    if cx != out.objective_value:
        raise InternalConsistencyError("objective value mismatch")


@pytest.fixture(scope="session")
def fraction_verify_outcome():
    """(objective, system, sense, outcome) -> the LP certificate check in
    Fraction arithmetic, with the package check's messages and order: row
    feasibility, multiplier signs, stationarity (or the Farkas combination),
    complementary slackness, strong duality and the objective value."""
    return _fraction_verify_outcome


class _FractionMember:
    """Membership by Fraction dot products, row by row: the evaluation that
    `Polyhedron.member`, `ray_member`, an identity `Cell.member`,
    `BoundaryRestrictedPolyhedron.member` and the point tests of `certify`
    make in integers."""

    def __call__(self, obj, x):
        """x in a Polyhedron, a boundary-restricted set or an identity cell."""
        x = vec(x)
        if isinstance(obj, Polyhedron):
            return all(
                dot(r.normal, x) <= r.offset if r.rel == LE
                else dot(r.normal, x) == r.offset
                for r in obj._any_hrep()
            )
        if isinstance(obj, BoundaryRestrictedPolyhedron):
            return self(obj.closure, x) and all(
                dot(fr.normal, x) != fr.offset or self(fr.retained, x)
                for fr in obj.restrictions
            )
        assert obj.is_identity
        s = obj.system
        return (
            all(dot(n, x) <= r for n, r in s.le)
            and all(dot(n, x) == r for n, r in s.eq)
            and all(dot(n, x) < r for n, r in s.strict)
        )

    def ray(self, p, r):
        """r in the recession cone of the Polyhedron p."""
        r = vec(r)
        return all(
            dot(row.normal, r) <= 0 if row.rel == LE else dot(row.normal, r) == 0
            for row in p._any_hrep()
        )

    def holds_at(self, v, cells, strict_rows):
        """v in every cell (an LP for a cell that is not an identity cell)
        and strictly inside every half-space (normal, rhs) of strict_rows."""
        return all(dot(vec(n), v) < r for n, r in strict_rows) and all(
            self(c, v) if c.is_identity else c.member(v) for c in cells
        )


@pytest.fixture(scope="session")
def fraction_member():
    """(set, x) -> membership decided by Fraction row evaluation, with
    `.ray(p, r)` for the recession cone and `.holds_at(v, cells, rows)` for
    a point against cells and open half-spaces."""
    return _FractionMember()


def _facet_rows_at(yplus, y0):
    """Y_+'s facet rows shifted to y0, as (-n, -n.y0) per facet normal n,
    and the same rows as `OrderCone.below_rows`, as `certify` built them
    for its LP route before it read its rows off the integer ones: -n.y0 is
    the offset r / s of the integer row (a, r, s)."""
    ints = yplus.below_rows(vec(y0))
    rows = tuple(
        (tuple(-x for x in n), F(r, s))
        for n, (_, r, s) in zip(yplus.facet_normals(), ints)
    )
    return rows, ints


def _negated_normal_sum(yplus):
    """-N for N the sum of Y_+'s facet normals, summed in Fractions."""
    total = zeros(yplus.ambient_dim)
    for n in yplus.facet_normals():
        total = vadd(total, tuple(-x for x in n))
    return total


class _ShiftedFacets:
    """The Fraction rows of y0 - Y_+ by the formula `certify` used for them
    before it read them off Y_+'s integer rows at y0."""

    rows_at = staticmethod(_facet_rows_at)
    normal_sum = staticmethod(_negated_normal_sum)

    def summed(self, yplus, y0):
        """Min's strict row N.(y - y0) > 0 as (-N, the sum of the offsets
        of the rows at y0)."""
        rows, _ = _facet_rows_at(yplus, y0)
        return _negated_normal_sum(yplus), sum(r for _, r in rows)


@pytest.fixture(scope="session")
def shifted_facets():
    """`.rows_at(yplus, y0)` -> (Fraction rows, `below_rows`) of y0 - Y_+,
    `.normal_sum(yplus)` -> -N and `.summed(yplus, y0)` -> Min's strict
    row (-N, the offsets summed), each in Fraction arithmetic."""
    return _ShiftedFacets()


class _PolyhedronCells:
    """Identity cells made by `cell_of_polyhedron` from a `Polyhedron` built
    on their rows, the way `w0_cells` made its point cells and `is_minimal`
    its cell y0 - Y_+ before both were built straight from their rows."""

    def point(self, v):
        """{v} from the unit rows y_i = v_i, last coordinate first."""
        n = len(v)
        unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        return cell_of_polyhedron(
            Polyhedron.from_hrep(n, [(unit[i], v[i], EQ) for i in reversed(range(n))])
        )

    def below(self, yplus, y0):
        """y0 - Y_+ on Y_+'s facet rows shifted to y0."""
        rows, _ = _facet_rows_at(yplus, y0)
        return cell_of_polyhedron(
            Polyhedron.from_hrep(yplus.ambient_dim, [(n, r, LE) for n, r in rows])
        )


@pytest.fixture(scope="session")
def polyhedron_cells():
    """`.point(v)` -> the point cell {v} and `.below(yplus, y0)` -> the
    cell y0 - Y_+, each built through `Polyhedron.from_hrep` and
    `cell_of_polyhedron`."""
    return _PolyhedronCells()


def _unfiltered_cone_dd(dim, ineq_rows, eq_rows):
    """`_dd.cone_dd` as it was before the cardinality prefilter: every pair
    of rays on opposite sides of the new row goes to the `_adjacent` scan,
    looked up on `_dd` at each call."""
    ineq = [primitive(integer_scaled(a)[0]) for a in ineq_rows]
    lines = _integer_null_space([primitive(integer_scaled(a)[0]) for a in eq_rows], dim)
    rays, masks, bit = [], [], 1
    for a in ineq:
        if not any(a):
            continue
        vals = [_idot(a, l) for l in lines]
        hit = next((k for k, s in enumerate(vals) if s != 0), None)
        if hit is not None:
            l0, s0 = lines[hit], vals[hit]
            if s0 > 0:
                l0, s0 = tuple(-x for x in l0), -s0
            lines = [
                primitive([-s0 * x + s * y for x, y in zip(l, l0)])
                for k, (l, s) in enumerate(zip(lines, vals))
                if k != hit
            ]
            new_rays, new_masks = [], []
            for r, m in zip(rays, masks):
                t = _idot(a, r)
                if t != 0:
                    r = primitive([-s0 * x + t * y for x, y in zip(r, l0)])
                    if not any(r):
                        continue
                new_rays.append(r)
                new_masks.append(m | bit)
            rays, masks = new_rays + [l0], new_masks + [bit - 1]
            bit <<= 1
            continue
        signs = [_idot(a, r) for r in rays]
        new_rays, new_masks = [], []
        for p, sp in enumerate(signs):
            if sp <= 0:
                continue
            for q, sq in enumerate(signs):
                if sq >= 0:
                    continue
                common = masks[p] & masks[q]
                if not _dd._adjacent(common, masks):
                    continue
                combo = primitive([sp * x - sq * y for x, y in zip(rays[q], rays[p])])
                if any(combo):
                    new_rays.append(combo)
                    new_masks.append(common | bit)
        kept = [i for i, s in enumerate(signs) if s <= 0]
        rays = [rays[i] for i in kept] + new_rays
        masks = [masks[i] | (bit if signs[i] == 0 else 0) for i in kept] + new_masks
        bit <<= 1
    lines, pivots = _integer_rref(lines, dim)
    reduced = {_reduce_mod_lines(r, lines, pivots) for r in rays}
    reduced.discard((0,) * dim)
    return lines, sorted(reduced)


@pytest.fixture(scope="session")
def unfiltered_cone_dd():
    """(dim, ineq_rows, eq_rows) -> `cone_dd`'s (lines, rays) computed with
    no cardinality prefilter, the zero-set scan deciding every pair."""
    return _unfiltered_cone_dd


class _LiftedConversions:
    """`polyhedra._hrep_to_vrep` and `_vrep_to_hrep` as they were when every
    set, a cone too, was converted through its homogenization: one
    `cone_dd` in dimension dim + 1, split by the t coordinate."""

    @staticmethod
    def hrep_to_vrep(dim, rows):
        ineq, eq = [], []
        for row in rows:
            (ineq if row.rel == LE else eq).append(row.normal + (-row.offset,))
        ineq.append(zeros(dim) + (-ONE,))  # t >= 0
        lines, rays = cone_dd(dim + 1, ineq, eq)
        vertices, rec_rays, rec_lines = [], [], []
        for l in lines:
            if l[dim] != 0:
                raise InternalConsistencyError("homogenization line with t != 0")
            rec_lines.append(quotients(l[:dim], next(x for x in l if x)))
        for r in rays:
            t = r[dim]
            if t > 0:
                vertices.append(quotients(r[:dim], t))
            else:
                rec_rays.append(quotients(r[:dim], abs(next(x for x in r if x))))
        if not vertices:
            return VRep()
        return VRep(
            tuple(sorted(vertices)), tuple(sorted(rec_rays)), tuple(sorted(rec_lines))
        )

    @staticmethod
    def vrep_to_hrep(dim, vrep):
        ineq = [v + (ONE,) for v in vrep.vertices]
        ineq += [r + (ZERO,) for r in vrep.rays]
        eq = [l + (ZERO,) for l in vrep.lines]
        lines, rays = cone_dd(dim + 1, ineq, eq)
        rows = []
        for r in rays:
            a = r[:dim]
            lead = next((x for x in a if x), 0)
            if not lead:
                continue  # 0.x <= -b with b <= 0: trivial
            c = abs(lead)
            rows.append(HRow(quotients(a, c), F(-r[dim], c), LE))
        for l in lines:
            a = l[:dim]
            lead = next((x for x in a if x), 0)
            if not lead:
                raise InternalConsistencyError("trivial equality in polar")
            rows.append(HRow(quotients(a, lead), F(-l[dim], lead), EQ))
        return tuple(sorted(set(rows)))


@pytest.fixture(scope="session")
def lifted_conversions():
    """`.hrep_to_vrep(dim, rows)` and `.vrep_to_hrep(dim, vrep)`: the
    canonical forms computed on the homogenization, for any set."""
    return _LiftedConversions()


def _dd_polar_cone(k, sign="negative"):
    """The polar as `polyhedra.polar_cone` built it when it ran its own
    double description: rows from k's generators, generators from one
    `cone_dd` of k's generators and lineality (rays negated for the
    positive polar)."""
    c = -1 if sign == "positive" else 1
    lines, rays = cone_dd(k.dim, k.generators, k.lineality)
    rays = tuple(sorted(quotients(r, c * abs(next(x for x in r if x))) for r in rays))
    lines = tuple(sorted(quotients(l, next(x for x in l if x)) for l in lines))
    rows = [HRow(tuple(c * x for x in g), ZERO, LE) for g in k.generators]
    rows += [HRow(l, ZERO, EQ) for l in k.lineality]
    return PolyhedralCone(
        k.dim, hrep=tuple(sorted(rows)), vrep=VRep((zeros(k.dim),), rays, lines)
    )


@pytest.fixture(scope="session")
def dd_polar_cone():
    """(k, sign) -> the polar of the cone k with its generators from a
    double description of k's generators, not read off k's rows."""
    return _dd_polar_cone


def _lp_minimality(a, y0, yplus):
    """(Min, WMin) of y0 in A by strict LPs alone, as `certify` decided
    both on every set before any verdict was taken by theorem: A misses the
    region of `OrderCone.minimality_rows` at y0, and the region of
    `below_rows` taken strictly, each an identity cell tested against every
    cell of A by `intersect_empty`, point cells on their unit rows."""
    y0 = vec(y0)
    dim = yplus.ambient_dim

    def misses(le=(), strict=()):
        region = identity_cell(LinearSystem.from_integer_rows(dim, le=le, strict=strict))
        return intersect_empty([a, region]).empty

    rows, summed = yplus.minimality_rows(y0)
    return misses(le=rows, strict=(summed,)), misses(strict=yplus.below_rows(y0))


@pytest.fixture(scope="session")
def lp_minimality():
    """(A, y0, yplus) -> (Min, WMin) of y0 in A, each by strict LPs over
    A's cells, with no verdict taken by theorem."""
    return _lp_minimality


def _he_by_double_description(a, y0, yplus):
    """He of y0 in A, for Y_+ pointed, as `certify` decided it before He
    was read off Pos: the closed conic hull C = cl cone(A - y0), from the
    generators of A's closure, cut by the rows of -Y_+, is {0}."""
    y0 = vec(y0)
    dim = yplus.ambient_dim
    verts, rays, lines = closure_generators(a)
    shifted = [vsub(v, y0) for v in verts]
    cone_a = PolyhedralCone.from_generators(
        dim, rays=[r for r in shifted if not is_zero_vec(r)] + list(rays),
        lines=list(lines),
    )
    meet = cone_a.with_rows(
        [(tuple(-x for x in n), ZERO, LE) for n in yplus.facet_normals()]
    )
    return not meet.vrep.rays and not meet.vrep.lines


@pytest.fixture(scope="session")
def he_by_double_description():
    """(A, y0, yplus) -> He of y0 in A, by a double description of
    C cap (-Y_+), with no verdict read off Pos."""
    return _he_by_double_description


def _henig_distance_by_primal_lp(rays, lines, base):
    """delta = min ||d + b||_inf over d in cone(rays) + span(lines) and b in
    base, as `certify` computed it before it was read off the L1 functional:
    one LP with d as a nonnegative combination of the rays and of each line
    taken with both signs, b as a convex combination of the base vertices,
    and t >= |(d + b)_k| on every coordinate k."""
    verts = base.vrep.vertices
    cols = list(rays) + [s for l in lines for s in (l, tuple(-x for x in l))]
    cols += verts
    n = len(cols)  # the weights, then t
    le = []
    for k in range(base.dim):
        coeffs = tuple(c[k] for c in cols)
        le.append((coeffs + (-ONE,), ZERO))
        le.append((tuple(-x for x in coeffs) + (-ONE,), ZERO))
    le += [(tuple(-ONE if i == j else ZERO for i in range(n + 1)), ZERO)
           for j in range(n)]
    convex = ((ZERO,) * (n - len(verts)) + (ONE,) * len(verts) + (ZERO,), ONE)
    out = lp_solve((ZERO,) * n + (ONE,), LinearSystem(n + 1, tuple(le), (convex,)))
    assert out.status is LpStatus.OPTIMAL
    return out.objective_value


@pytest.fixture(scope="session")
def henig_distance_by_primal_lp():
    """(rays, lines, base) -> the Henig distance delta by the primal LP over
    the weights of C's generators and of the base vertices, with no dual
    functional."""
    return _henig_distance_by_primal_lp
