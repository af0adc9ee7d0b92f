"""Vector program data model: order cones, programs, feasible maps, graphs.

Supports affine continuous programs over a (possibly boundary-restricted)
convex Omega and finite set-valued programs whose constraint uses the
intersection rule G(x) meets (z - Z_+).  A finite discrete program (a sampled
convex problem) is the set-valued program with one f value and one g value
per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence, Union

from ._dd import tight_rank
from .errors import (
    DimensionMismatch,
    EmptyProgramError,
    InternalConsistencyError,
    NotMemberError,
    ProcessDualityError,
)
from .exactlp import strict_feasible
from .polyhedra import (
    EQ,
    LE,
    BoundaryRestrictedPolyhedron,
    BoundaryRestriction,
    Cell,
    ConeStructure,
    Polyhedron,
    PolyhedralCone,
    _coerce_point,
    as_cells,
    cone_structure,
    point_cell,
)
from .rational import (
    Mat,
    Vec,
    affine_apply,
    box_corners,
    dot,
    integer_affine,
    integer_holds,
    integer_rows,
    integer_scaled,
    vadd,
    vec,
    zeros,
)

OmegaLike = Union[Polyhedron, BoundaryRestrictedPolyhedron]


def _dilation_rows(base: Polyhedron, eta: Fraction):
    """The facet rows of K_eta = cone(base + eta * infinity-ball) as
    `integer_rows`, or None when K_eta is not pointed.  K_eta is pointed
    iff the origin is a vertex of it: every row is tight there, so one
    integer rank of the rows the double description has just produced
    decides it (`tight_rank`)."""
    corners = [tuple(eta * s for s in c) for c in box_corners(base.dim)]
    gens = [vadd(v, c) for v in base.any_vrep().vertices for c in corners]
    k = PolyhedralCone.from_generators(base.dim, gens)
    le, eq, _ = k.system().integer_form
    if tight_rank((0,) * k.dim, 1, le, eq)[1] != k.dim:
        return None
    return le


class OrderCone:
    """Full-dimensional polyhedral order cone with a cached interior witness.

    The cone must have nonempty interior (a standing structural requirement)
    and must be a proper subset of its space, otherwise minimality would be
    vacuous.  Both are read off the canonical forms: a cone with no facet
    row is the whole space, and one with a canonical equality is flat.  The
    interior is then certified by a witness checked exactly, with no LP: the
    sum of the canonical extreme rays satisfies every integer facet row
    strictly.  It always does: the cone is full-dimensional, so no facet
    normal n is orthogonal to every ray, while n.r <= 0 on each, hence n.r
    < 0 on some ray and n.(sum of rays) < 0.  Its `structure` (the bounded
    base of a pointed cone), `ball_minus`, the rows of each Henig dilation
    of the base (`dilation_rows`), its facet rows in integers
    (`integer_facets`) and the negated sum of its facet normals in integers
    (`integer_normal_sum`) are built on first read and kept.  The rows of
    y0 - K are read off `integer_facets` for each y0 (`below_rows`, and with
    the summed strict row `minimality_rows`).
    """

    def __init__(self, cone: PolyhedralCone):
        if not cone.hrep:
            raise InternalConsistencyError(
                "order cone equal to the whole space is not allowed"
            )
        if cone.equalities():
            raise InternalConsistencyError("order cone has empty interior")
        self.cone = cone
        self.ambient_dim = cone.dim
        w = zeros(cone.dim)
        for g in cone.generators:
            w = vadd(w, g)
        if not self.strictly_contains(w):
            raise InternalConsistencyError("order cone has empty interior")
        self.interior_witness = w
        self._dilations = {}

    @staticmethod
    def from_generators(dim: int, rays) -> "OrderCone":
        return OrderCone(PolyhedralCone.from_generators(dim, rays))

    @property
    def generators(self) -> tuple[Vec, ...]:
        return self.cone.generators

    @property
    def lineality(self) -> tuple[Vec, ...]:
        return self.cone.lineality

    @property
    def is_pointed(self) -> bool:
        return not self.cone.lineality

    @cached_property
    def structure(self) -> ConeStructure:
        return cone_structure(self.cone)

    def dilation_rows(self, eta: Fraction):
        """`_dilation_rows` of the bounded base of this pointed cone
        (`structure`) at eta, built on the first read for each eta and
        kept."""
        if eta not in self._dilations:
            self._dilations[eta] = _dilation_rows(self.structure.base, eta)
        return self._dilations[eta]

    @cached_property
    def ball_minus(self) -> Polyhedron:
        """B - Y_+ for the unit infinity-norm ball B, from its generators;
        its facets are computed on their first read and kept with it."""
        return Polyhedron.from_vrep(
            self.ambient_dim,
            vertices=box_corners(self.ambient_dim),
            rays=[tuple(-x for x in g) for g in self.generators],
            lines=self.lineality,
        )

    def facet_normals(self) -> tuple[Vec, ...]:
        return tuple(r.normal for r in self.cone.inequalities())

    @cached_property
    def integer_facets(self):
        """The facet rows n.w <= 0 as `integer_rows`, in `facet_normals`
        order."""
        return integer_rows((n, 0) for n in self.facet_normals())

    @cached_property
    def integer_normal_sum(self):
        """-N, for N the sum of the facet normals, in integers: (m, t) with
        m = t.(-N) and t > 0 the lcm of the scales s of `integer_facets`,
        the sum of their normals s.n, each times t / s, negated."""
        facets = self.integer_facets
        t = lcm(*(s for _, _, s in facets))
        m = tuple(
            -sum(a[j] * (t // s) for a, _, s in facets)
            for j in range(self.ambient_dim)
        )
        return m, t

    def below_rows(self, y0: Vec):
        """The rows of y0 - K as `integer_rows`, read off `integer_facets`
        in their order with no Fraction built: y is in y0 - K iff n.(y0 - y)
        <= 0 for every facet normal n, that is (-n).y <= -n.y0.  With y0 =
        x / d over one denominator and the facet row (s.n, 0, s), the row
        (-n, -n.y0) times s.d is (-d.s.n, -(s.n).x, s.d).  y is in y0 - Int K
        iff every row holds strictly.  A y0 of another dimension than K's
        raises DimensionMismatch."""
        return self._rows_below(*self._scaled(y0))

    def minimality_rows(self, y0: Vec):
        """(`below_rows(y0)`, s) for s the strict row N.(y - y0) > 0 in
        integers, N the sum of the facet normals.  On y0 - K every term
        n.(y - y0) is >= 0, so y in y0 - K is outside y0 + K iff s holds at
        y (Ecker & Kouada 1975).  s is (-N).y < (-N).y0 times t.d for y0 =
        x / d and `integer_normal_sum` (m, t): (d.m, m.x, t.d)."""
        x, d = self._scaled(y0)
        m, t = self.integer_normal_sum
        return self._rows_below(x, d), (tuple(d * c for c in m), sum(map(mul, m, x)), t * d)

    def _scaled(self, y0: Vec):
        if len(y0) != self.ambient_dim:
            raise DimensionMismatch(
                f"point of length {len(y0)} against an order cone in dimension "
                f"{self.ambient_dim}"
            )
        return integer_scaled(y0)

    def _rows_below(self, x, d):
        return tuple(
            (tuple(-d * c for c in a), -sum(map(mul, a, x)), s * d)
            for a, _, s in self.integer_facets
        )

    def contains(self, w) -> bool:
        return self.cone.member(w)

    def strictly_contains(self, w) -> bool:
        w = vec(w)
        if len(w) != self.ambient_dim:
            raise DimensionMismatch("interior test in wrong dimension")
        x, d = integer_scaled(w)
        return integer_holds(x, d, strict=self.integer_facets)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix.x + offset.  Both are written over one denominator on
    the first application and kept (`integer_form`), so each image is one
    integer dot and one Fraction per entry (`rational.affine_apply`)."""

    matrix: Mat
    offset: Vec

    @cached_property
    def integer_form(self):
        return integer_affine(self.matrix, self.offset)

    def __call__(self, x) -> Vec:
        return affine_apply(self.integer_form, x)

    @property
    def out_dim(self) -> int:
        return len(self.offset)

    @property
    def in_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def linear_part(self, x) -> Vec:
        return affine_apply(self.integer_form, x, linear=True)


def affine_map(matrix, offset) -> AffineMap:
    matrix = tuple(vec(r) for r in matrix)
    offset = vec(offset)
    if len(matrix) != len(offset):
        raise DimensionMismatch("affine map rows do not match offset length")
    return AffineMap(matrix, offset)


class AffineVectorProgram:
    """Min f(x) over x in Omega with g(x) <= z in the Z_+ order."""

    kind = "affine"

    def __init__(self, omega: OmegaLike, f: AffineMap, g: AffineMap,
                 y_plus: OrderCone, z_plus: OrderCone):
        dim = omega.dim
        if f.in_dim != dim or g.in_dim != dim:
            raise DimensionMismatch("map input width does not match Omega")
        if f.out_dim != y_plus.ambient_dim:
            raise DimensionMismatch("f output width does not match Y_+")
        if g.out_dim != z_plus.ambient_dim:
            raise DimensionMismatch("g output width does not match Z_+")
        if omega.is_empty:
            raise EmptyProgramError("Omega is empty")
        self.omega = omega
        self.f = f
        self.g = g
        self.y_plus = y_plus
        self.z_plus = z_plus

    @property
    def x_dim(self):
        return self.omega.dim

    @property
    def y_dim(self):
        return self.y_plus.ambient_dim

    @property
    def z_dim(self):
        return self.z_plus.ambient_dim


@dataclass(frozen=True)
class SetValuedPoint:
    point_id: str
    f_values: tuple[Vec, ...]
    g_values: tuple[Vec, ...]


@dataclass(frozen=True)
class DiscretePoint:
    """A set-valued point with one f value and one g value."""

    point_id: str
    f_value: Vec
    g_value: Vec

    @property
    def f_values(self) -> tuple[Vec, ...]:
        return (self.f_value,)

    @property
    def g_values(self) -> tuple[Vec, ...]:
        return (self.g_value,)


class SetValuedProgram:
    """Finite set-valued program; feasibility is G(x) meets (z - Z_+).

    A program does not change once built, so the f values of its points
    feasible at z = 0 (`w0_values`) are found on first read and kept with
    it: `w0_cells` and `w0_image_points` share one walk over W(0).
    """

    kind = "setvalued"

    def __init__(self, points: Sequence[Union[SetValuedPoint, DiscretePoint]],
                 y_plus: OrderCone, z_plus: OrderCone):
        points = tuple(points)
        if not points:
            raise EmptyProgramError("no points")
        ids = [p.point_id for p in points]
        if len(set(ids)) != len(ids):
            raise ProcessDualityError("duplicate point ids")
        for p in points:
            if not p.f_values or not p.g_values:
                raise ProcessDualityError(f"point {p.point_id} has empty value set")
            for fv in p.f_values:
                if len(fv) != y_plus.ambient_dim:
                    raise DimensionMismatch("F value width")
            for gv in p.g_values:
                if len(gv) != z_plus.ambient_dim:
                    raise DimensionMismatch("G value width")
        self.points = points
        self.y_plus = y_plus
        self.z_plus = z_plus

    @property
    def y_dim(self):
        return self.y_plus.ambient_dim

    @property
    def z_dim(self):
        return self.z_plus.ambient_dim

    @cached_property
    def w0_values(self) -> tuple[Vec, ...]:
        """The f values of the points feasible at z = 0, in point order."""
        feas = set(feasible_region(self, zeros(self.z_dim)))
        return tuple(
            fv for pt in self.points if pt.point_id in feas for fv in pt.f_values
        )


class DiscreteVectorProgram(SetValuedProgram):
    """Finite sample of a convex program: the set-valued program of its
    DiscretePoints, each with one (f, g) value pair."""

    kind = "discrete"


Program = Union[AffineVectorProgram, SetValuedProgram]


# -- feasible map ----------------------------------------------------------


def _order_rows_for_g(p: AffineVectorProgram, z: Vec):
    """Rows over x expressing z - g(x) in Z_+."""
    rows = []
    for n in p.z_plus.facet_normals():
        normal = tuple(-dot(n, col) for col in zip(*p.g.matrix))
        rhs = dot(n, p.g.offset) - dot(n, z)
        rows.append((normal, rhs, LE))
    return rows


def feasible_region(p: Program, z):
    """The feasible set at level z.

    Affine programs return a Polyhedron or BoundaryRestrictedPolyhedron in
    x-space; finite programs return the tuple of feasible point ids.  A
    point is feasible when z - g is in Z_+ for one of its g values, that is
    when g is in z - Z_+: each g is written over one denominator and tested
    on the integer rows of z - Z_+ (`OrderCone.below_rows`), made once.
    """
    if isinstance(p, AffineVectorProgram):
        z = _coerce_point(p.z_dim, z)
        return p.omega.with_rows(_order_rows_for_g(p, z))
    rows = p.z_plus.below_rows(_coerce_point(p.z_dim, z))
    return tuple(
        pt.point_id
        for pt in p.points
        if any(integer_holds(*integer_scaled(gv), le=rows) for gv in pt.g_values)
    )


# -- the graph of the upper image -------------------------------------------


def _product_cone_gens(p: Program):
    zdim, ydim = p.z_dim, p.y_dim
    rays = [tuple(g) + zeros(ydim) for g in p.z_plus.generators]
    rays += [zeros(zdim) + tuple(g) for g in p.y_plus.generators]
    lines = [tuple(l) + zeros(ydim) for l in p.z_plus.lineality]
    lines += [zeros(zdim) + tuple(l) for l in p.y_plus.lineality]
    return rays, lines


def _graph_map(p: AffineVectorProgram) -> AffineMap:
    matrix = tuple(p.g.matrix) + tuple(p.f.matrix)
    offset = tuple(p.g.offset) + tuple(p.f.offset)
    return AffineMap(matrix, offset)


def graph_closure(p: Program) -> Polyhedron:
    """Closure of the graph of z -> W(z) + Y_+ in Z x Y.

    This is the whole graph for finite programs and for affine programs over
    a plain Omega; over a boundary-restricted Omega it is the graph of the
    closure of Omega.  Continuous functionals, and hence separators, see only
    this set.  It holds only generators, the images of the ones Omega holds
    (`any_vrep`): no reader on the certify path needs its canonical form.
    """
    dim = p.z_dim + p.y_dim
    krays, klines = _product_cone_gens(p)

    if isinstance(p, SetValuedProgram):
        verts = [
            tuple(gv) + tuple(fv)
            for pt in p.points
            for gv in pt.g_values
            for fv in pt.f_values
        ]
        return Polyhedron.from_vrep(dim, verts, krays, klines)

    phi = _graph_map(p)
    v = p.omega.closure.any_vrep()
    verts = [phi(x) for x in v.vertices]
    rays = [phi.linear_part(r) for r in v.rays] + krays
    lines = [phi.linear_part(l) for l in v.lines] + klines
    return Polyhedron.from_vrep(dim, verts, rays, lines)


def upper_image_graph(p: Program):
    """Exact graph of z -> W(z) + Y_+ in Z x Y.

    Affine programs over a plain Omega and finite programs yield the closed
    Polyhedron `graph_closure(p)`; a boundary-restricted Omega yields the
    exact boundary-restricted graph over that closure (restrictions are
    computed per facet from the reachable cell traces).
    """
    g_cl = graph_closure(p)
    if not isinstance(p, AffineVectorProgram) or isinstance(p.omega, Polyhedron):
        return g_cl

    dim = g_cl.dim
    krays, klines = _product_cone_gens(p)
    phi = _graph_map(p)
    restrictions = []
    # phi composed with each cell of Omega, once per cell
    images = [cell.compose(phi.matrix, phi.offset) for cell in as_cells(p.omega)]
    for row in g_cl.inequalities():
        traces = [
            t for t in (_facet_trace(c, row.normal, row.offset) for c in images)
            if t is not None
        ]
        facet = Polyhedron.from_hrep(
            dim, tuple(g_cl.any_hrep()) + ((row.normal, row.offset, EQ),)
        )
        if not traces:
            retained = Polyhedron.empty(dim)
        else:
            # K's part of every trace: its rays on the hyperplane, its lines
            vs = []
            rs = [k for k in krays if dot(row.normal, k) == 0]
            ls = list(klines)
            for t in map(Polyhedron.any_vrep, traces):
                vs += list(t.vertices)
                rs += list(t.rays)
                ls += list(t.lines)
            retained = Polyhedron.from_vrep(dim, vs, rs, ls)
        # retained lies in the facet by construction, so they differ exactly
        # when the facet has a point outside retained
        if not retained.contains_poly(facet):
            restrictions.append(BoundaryRestriction(row.normal, row.offset, retained))
    if not restrictions:
        return g_cl
    return BoundaryRestrictedPolyhedron(g_cl, restrictions)


def _facet_trace(image: Cell, normal, offset):
    """phi(cl cell) on the hyperplane normal.w = offset, or None when the
    cell does not reach it.

    `image` is a cell of Omega composed with the graph map phi.  The row
    normal.w <= offset is valid for the closed graph, so normal.k <= 0 on the
    rays of K, normal.l = 0 on its lines and normal.phi(x) <= offset on
    cl Omega.  A graph point phi(x) + k thus lies on the hyperplane only when
    normal.phi(x) = offset and k is in cone{K rays with normal.k = 0} plus
    the span of the K lines; the caller adds that cone once per facet.
    Reachability honours the cell's strict rows exactly; the returned trace
    is closed (relative-boundary overcount is the documented one-level NNC
    limit).
    """
    on = image.with_target_rows(eq=[(normal, offset)])
    if not on.is_feasible():
        return None
    return on.closure_image()


# -- Slater points -----------------------------------------------------------


def slater_point(p: Program):
    """A point with g strictly interior-negative, or None when none exists."""
    if isinstance(p, AffineVectorProgram):
        strict_rows = [
            (normal, rhs) for normal, rhs, _ in _order_rows_for_g(p, zeros(p.z_dim))
        ]
        for cell in as_cells(p.omega):
            res = strict_feasible(cell.system.extended(strict=strict_rows))
            if res.feasible:
                return res.witness
        return None
    for pt in p.points:
        if any(
            p.z_plus.strictly_contains(tuple(-v for v in gv)) for gv in pt.g_values
        ):
            return pt.point_id
    return None


# -- image cells of W(0) and membership --------------------------------------


def w0_cells(p: Program) -> tuple[Cell, ...]:
    """Exact cell decomposition of W(0) = f(feasible set at z = 0) in Y.

    A finite program gives one point cell {fv} per value of `w0_values`,
    a `PointCell` made by `point_cell`, which keeps fv and fv over one
    denominator with the cell.  Neither a `Polyhedron`, a double
    description, the cell's rows nor the matrix I is built."""
    if isinstance(p, AffineVectorProgram):
        lam0 = feasible_region(p, zeros(p.z_dim))
        return tuple(
            c.compose(p.f.matrix, p.f.offset) for c in as_cells(lam0)
        )
    return tuple(point_cell(fv) for fv in p.w0_values)


def w0_image_points(p: Program) -> tuple[Vec, ...]:
    """The exact image point set of W(0) of a finite program, deduplicated,
    read off the program's `w0_values`; an affine program has no finite
    image set and raises NotMemberError."""
    if isinstance(p, AffineVectorProgram):
        raise NotMemberError("W(0) image points need a finite program")
    return tuple(dict.fromkeys(p.w0_values))


# -- convex relaxation for finite programs -----------------------------------


def simplex_relaxation(p: Program) -> AffineVectorProgram:
    """Embed a finite program as an affine program over the standard simplex.

    Columns are the sampled (f, g) value pairs; the upper-image graph of the
    relaxation is exactly the convex hull used by the finite-program graph.
    """
    if isinstance(p, AffineVectorProgram):
        return p
    pairs = [
        (fv, gv) for pt in p.points for fv in pt.f_values for gv in pt.g_values
    ]
    k = len(pairs)
    rows = [(tuple(-Fraction(int(i == j)) for i in range(k)), 0, LE) for j in range(k)]
    rows.append(((Fraction(1),) * k, 1, EQ))
    omega = Polyhedron.from_hrep(k, rows)
    f = affine_map([[pairs[j][0][i] for j in range(k)] for i in range(p.y_dim)],
                   zeros(p.y_dim))
    g = affine_map([[pairs[j][1][i] for j in range(k)] for i in range(p.z_dim)],
                   zeros(p.z_dim))
    return AffineVectorProgram(omega, f, g, p.y_plus, p.z_plus)
