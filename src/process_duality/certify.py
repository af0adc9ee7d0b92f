"""Minimality tests, proper-efficiency classification, dual image, and the
theorem harness.

All decisions are exact.  Weak minimality and minimality at y0 ask one
question, whether the set under test meets a region of y0 - Y_+ (`_meets`):
y0 - Int Y_+, or y0 - Y_+ cut by the summed strict row.  The region is given
by Y_+'s integer rows at y0 alone, decided cell by cell over the set's cell
decomposition, so boundary-restricted and finite-union sets are handled
without approximation.  This module is the one place where a point is
evaluated: a `PointCell`, as every cell of a finite program's W(0) is, is
decided by one integer evaluation of the region's rows at its point, with
nothing built for the region; the other cells (of affine and
boundary-restricted programs, and of dual images) by an emptiness test with
the region as an identity cell on the same rows, a strict-feasibility LP per
combination of cells.
The proper-efficiency notions are decided on closures, which is equivalent
for these notions because they only involve closed conic hulls and open
dilations.

The public `is_minimal` and `is_weak_minimal` always take that route.  On
the certify path four verdicts are decided by theorem instead, each on a
certificate checked exactly: a member of A that is a vertex of a hull of A
closed under + Y_+, as cl W(0) + Y_+ and M are, is minimal
(`_minimal_vertices`, certified by the rank of its tight rows), Min on a
closed polyhedron is Pos, Min implies WMin, and He and GHe are Pos
(`_classify`).  Three more facts are read off what is already known, with
no LP:
- a closed cell of W(0), one with no strict row, is its own closure image,
  so a vertex of that image is a member of W(0) and a nonempty image shows
  W(0) nonempty (`ProgramContext.closed_vertices`, `minimal_frontier_points`);
- C = cl cone(A - y0) is the tangent cone at y0 of the closed convex hull
  of A, so its canonical rows are the hull's canonical rows tight at y0
  (`_tangent_cone`), read off the hull that the program's context or M
  already holds;
- Pos, He, GHe and SE are functions of C and Y_+ alone, and so is the Pos
  witness, the L1-minimal functional over C's canonical generators, ties
  included, so a certificate decides them once where M's cone at y0 has
  W(0)'s canonical rows (`_cone_verdicts`);
- where Y_+'s base vertices are its generators, He's distance delta is
  1 / ||y*||_1 of the Pos functional y* (`_henig_eta`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Union

from ._dd import tight_rank
from .errors import (
    EmptyFeasibleError,
    InternalConsistencyError,
    NotInW0Error,
    NotMemberError,
    NotPointedError,
)
from .exactlp import LinearSystem
from .model import (
    AffineVectorProgram,
    OrderCone,
    Program,
    graph_closure,
    simplex_relaxation,
    slater_point,
    w0_cells,
    w0_image_points,
)
from .polyhedra import (
    LE,
    BoundaryRestrictedPolyhedron,
    Cell,
    HRow,
    PointCell,
    Polyhedron,
    PolyhedralCone,
    closure_generators,
    cone_structure,
    functional_system,
    identity_cell,
    intersect_empty,
    l1_minimum,
    member,
    positive_functional,
)
from .process import (
    LagrangeProcess,
    SeparatorCone,
    check_nonvertical,
    lagrange_process,
    process_eval,
    separator_cone,
)
from .rational import (
    ONE,
    ZERO,
    Vec,
    dot,
    fmt_vector,
    inf_norm,
    integer_holds,
    integer_scaled,
    vec,
    vsub,
    zeros,
)

SetLike = Union[Polyhedron, BoundaryRestrictedPolyhedron, tuple, list]


# -- per-program context ------------------------------------------------------


class ProgramContext:
    """The parts of a program's certificates that do not depend on y0.

    The closed graph of z -> W(z) + Y_+, the cells of W(0) with the
    generators of their closures, and the Slater witness depend on the
    program alone, while S, L, M and the clauses depend on y0.  Only the
    closure of the graph is kept: separators are continuous, so S and every
    check built on it read nothing else.  `upper_image_graph` gives the
    exact, boundary-restricted graph itself.  `certify_multiplier`,
    `minimal_frontier_points` and `dual_image` take a context in place of
    its program; give them one context to handle several y0 of a program.
    Each part is built on first use and kept for the life of the context.
    `minimal_frontier_points` records in `minimal` the verdicts it reached,
    point -> minimality in W(0), for the members of W(0) it tested, and
    `certify_multiplier` reads them instead of deciding them again.  The
    closure image of each W(0) cell (`images`) is made once.  `closure`
    holds its generators as they were built, which is all that `hull`, the
    frontier filter's upper image and the check W(0) in M need, and
    `closed_vertices` the points among them of the closed cells' images,
    members of W(0) by construction; no image's canonical generators are
    made.  `hull`, the closed convex hull of W(0), has its canonical rows
    converted once per program: at each y0 the cone C = cl cone(W(0) - y0)
    is the tangent cone of `hull`, cut out by its facets through y0
    (`_tangent_cone`; Schrijver 1986, ch. 8), so no y0 converts C from
    generators, and the Pos witness reads only C's own canonical
    generators (`cone_verdicts`).

    A finite program is certified through its simplex relaxation: `convex`
    is the context of the program that the transfer theorems run on, this
    one for an affine program and the relaxation's for a finite one.
    """

    def __init__(self, p: Program):
        self.program = p
        self.minimal: dict = {}

    @property
    def relaxed(self) -> bool:
        return not isinstance(self.program, AffineVectorProgram)

    @cached_property
    def convex(self) -> "ProgramContext":
        if not self.relaxed:
            return self
        return ProgramContext(simplex_relaxation(self.program))

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        return w0_cells(self.program)

    @cached_property
    def images(self) -> tuple[Polyhedron, ...]:
        """The closure image of each W(0) cell, in the order of `cells`."""
        return tuple(c.closure_image() for c in self.cells)

    @cached_property
    def closure(self):
        """(vertices, rays, lines) of the closures of the W(0) cells, the
        generators of `images` as they were built (`any_vrep`)."""
        verts, rays, lines = [], [], []
        for image in self.images:
            v = image.any_vrep()
            verts += v.vertices
            rays += v.rays
            lines += v.lines
        return verts, rays, lines

    @cached_property
    def hull(self) -> Polyhedron:
        """The closed convex hull of W(0): the closure image of its one cell,
        or the hull of `closure`."""
        if len(self.images) == 1:
            return self.images[0]
        return Polyhedron.from_vrep(self.program.y_dim, *self.closure)

    @cached_property
    def closed_vertices(self) -> frozenset:
        """The points of the generators of the closed cells' closure images
        (`Cell.closed`), as those images were built.  Such a cell is its own
        closure image, so each of these points is a member of W(0), known
        with no LP.  A vertex of the upper image that lies in a closed image
        is a vertex of that image, so it is among any generating set's
        points."""
        return frozenset(
            v for c, image in zip(self.cells, self.images) if c.closed
            for v in image.any_vrep().vertices
        )

    def cone_verdicts(self, y0: Vec, with_witnesses: bool = True):
        """The `_cone_verdicts` of y0 in W(0), read off `hull`, None when Y_+
        is not pointed."""
        yplus = self.program.y_plus
        if yplus.is_pointed:
            return _cone_verdicts(self.hull, y0, yplus, with_witnesses)
        return None

    @cached_property
    def slater(self):
        return slater_point(self.program)

    @cached_property
    def graph(self) -> Polyhedron:
        return graph_closure(self.program)


def _context(p) -> ProgramContext:
    return p if isinstance(p, ProgramContext) else ProgramContext(p)


# -- minimality ---------------------------------------------------------------


def _member_of(a: SetLike, y0):
    """(A, y0) for the public verdicts: an iterable of pieces made a tuple,
    so that an iterator or a generator is read once and every test after it
    sees all of A, and y0 a vector.  Raises NotMemberError when y0 is not a
    member of A."""
    if not isinstance(a, (Polyhedron, BoundaryRestrictedPolyhedron, Cell)):
        a = tuple(a)
    y0 = vec(y0)
    if not member(a, y0):
        raise NotMemberError(f"{fmt_vector(y0)} is not a member of the set under test")
    return a, y0


def _meets(a: SetLike, dim: int, le=(), strict=()) -> bool:
    """Does A meet the region of the rows `le`, and `strict` taken strictly,
    rows given as `integer_rows` (a, b, s)?

    A `PointCell` of A, a bare cell being A's one piece, is decided by one
    `integer_holds` at its `integer_point`, with nothing built for the
    region.  Only when A has another piece is the region made, as the
    identity cell on the same rows (`LinearSystem.from_integer_rows`), and
    those pieces are tested by `intersect_empty`, one strict LP per cell."""
    pieces = (a,) if isinstance(a, Cell) else a
    if isinstance(pieces, tuple):
        points = [c.integer_point for c in pieces if isinstance(c, PointCell)]
        if any(integer_holds(x, d, le=le, strict=strict) for x, d in points):
            return True
        if len(points) == len(pieces):
            return False
        if points:
            a = tuple(c for c in pieces if not isinstance(c, PointCell))
    region = identity_cell(LinearSystem.from_integer_rows(dim, le=le, strict=strict))
    return not intersect_empty([a, region]).empty


def is_weak_minimal(a: SetLike, y0, yplus: OrderCone) -> bool:
    """A meets (y0 - Int Y_+) nowhere; y0 must be a member of A.  A
    `PointCell` of A is decided by one integer evaluation, any other cell by
    one strict LP."""
    return _is_weak_minimal(*_member_of(a, y0), yplus)


def _is_weak_minimal(a: SetLike, y0: Vec, yplus: OrderCone) -> bool:
    """is_weak_minimal for a y0 already known to be a member of A: A misses
    y0 - Int Y_+, where every row of `OrderCone.below_rows` holds
    strictly."""
    return not _meets(a, yplus.ambient_dim, strict=yplus.below_rows(y0))


def is_minimal(a: SetLike, y0, yplus: OrderCone) -> bool:
    """A cap (y0 - Y_+) lies inside y0 + Y_+; y0 must be a member of A.

    On y0 - Y_+ every facet term n.(y - y0) is >= 0, so some term is > 0
    iff their sum N.(y - y0) is, and the region of y0 - Y_+ with
    N.(y - y0) > 0 must miss A (Ecker & Kouada 1975).  With no facets
    N = 0, the strict row 0 > 0 is infeasible and y0 is minimal.  A
    `PointCell` of A, as every cell of a finite program's W(0) is, is
    decided by one integer evaluation of Y_+'s rows at its point; any other
    cell by one strict LP.
    """
    return _is_minimal(*_member_of(a, y0), yplus)


def _is_minimal(a: SetLike, y0: Vec, yplus: OrderCone) -> bool:
    """is_minimal for a y0 already known to be a member of A: A misses the
    region of `OrderCone.minimality_rows`, the rows of y0 - Y_+ and,
    strictly, the summed row N.(y - y0) > 0, which comes last."""
    rows, summed = yplus.minimality_rows(y0)
    return not _meets(a, yplus.ambient_dim, le=rows, strict=(summed,))


# -- proper efficiency --------------------------------------------------------


@dataclass(frozen=True)
class EfficiencyStatus:
    minimal: bool
    weak_minimal: bool
    pos: Optional[bool] = None
    ghe: Optional[bool] = None
    he: Optional[bool] = None
    se: Optional[bool] = None
    witnesses: dict = field(default_factory=dict, compare=False)

    def validate(self):
        if self.minimal and not self.weak_minimal:
            raise InternalConsistencyError(
                f"minimal point is not weak minimal: {self}"
            )
        if self.pos:
            if self.ghe is False:
                raise InternalConsistencyError(f"Pos holds but GHe fails: {self}")
            if not self.minimal:
                raise InternalConsistencyError(
                    f"Pos holds at a non-minimal point: {self}"
                )
        if self.se and not (self.minimal and self.ghe and self.he):
            raise InternalConsistencyError(
                f"SE must imply Min, GHe, and He: {self}"
            )
        return self


def _henig_admissible(cone_a: PolyhedralCone, k_eta) -> bool:
    """K_eta = cone(base + eta * infinity-ball), given by its facet rows
    (`OrderCone.dilation_rows`, None when K_eta is not pointed), is pointed
    and meets -cone_a only at 0, decided by double description."""
    if k_eta is None:
        return False
    meet = cone_a.with_rows([(tuple(-x for x in a), ZERO, LE) for a, _, _ in k_eta])
    v = meet.any_vrep()
    return not v.rays and not v.lines


def _henig_distance(cone_a: PolyhedralCone, base: Polyhedron) -> Fraction:
    """delta = min ||d + b||_inf over d in C = `cone_a` and b in base, read
    off an L1 functional.  By minimum-norm duality (Luenberger 1969, 5.8)
    delta = max {min_v h.v : ||h||_1 <= 1, h >= 0 on C} over the base
    vertices v, so for delta > 0 it is 1 / min ||h||_1 over h with h.v >= 1
    on the vertices, h >= 0 on C's extreme rays and h = 0 on its lineality:
    the value of `l1_minimum` over the rows of `positive_functional`, the
    same at every optimal point, so no tie rule runs.  Only that value
    leaves the LP, so it reads C's canonical generators, the fewest rows.
    Under He, delta > 0, so no such h is an internal fault."""
    vertices = base.any_vrep().vertices
    out = l1_minimum(
        functional_system(base.dim, vertices, cone_a.generators, cone_a.lineality)
    )
    if out is None:
        raise InternalConsistencyError("the Henig distance LP has no optimum")
    return 1 / out.objective_value


def _henig_eta(cone_a: PolyhedralCone, yplus: OrderCone, y_star: Vec) -> Fraction:
    """The largest admissible eta = 2^-k, k < 64, for the Henig witness, with
    K_eta built on the bounded base of `yplus`; `y_star` is the Pos
    functional of `cone_a` (`positive_functional` over Y_+'s generators).

    Every eta > delta (`_henig_distance`) is inadmissible, and every eta <
    delta is admissible by delta alone.  delta is 1 / ||h||_1 of the
    L1-minimal functional, whose optimum `verify_outcome` has re-checked
    exactly:
    - d = 0 lies in C = `cone_a`, so ||b||_inf >= delta > eta
      for every b in the base.  Then 0 is not in S = base + eta * B_inf, a
      compact convex set, so K_eta = cone(S) is closed and pointed.
    - If 0 != x in C cap (-K_eta), then -x = lambda * (b + eta * u) with
      lambda > 0, b in the base and ||u||_inf <= 1.  x / lambda is in C and
      ||x / lambda + b||_inf <= eta < delta, against the minimality of delta.
    So the largest 2^-k <= min(delta, 1) is returned without double
    description when it is below delta.  A tie eta = delta can go either way
    and is decided by `_henig_admissible`, on the K_eta rows that `yplus`
    keeps per eta; when it fails, eta/2 < delta is.

    When the base's vertices are Y_+'s generators (R_+ and the orthant, for
    two), delta's LP has the Pos LP's rows, so delta is 1 / ||y_star||_1,
    the Pos optimum, the same at every optimal point, and no second LP
    runs.
    """
    base = yplus.structure.base
    if set(base.vrep.vertices) == set(yplus.generators):
        delta = 1 / sum(map(abs, y_star))
    else:
        delta = _henig_distance(cone_a, base)
    eta = ONE
    for k in range(64):
        if eta < delta:
            return eta
        if eta == delta:
            if _henig_admissible(cone_a, yplus.dilation_rows(eta)):
                return eta
            if k < 63:
                return eta / 2
            break
        eta /= 2
    raise InternalConsistencyError(
        "dilation witness not found although the reduction holds"
    )


def classify_proper(a: SetLike, y0, yplus: OrderCone) -> EfficiencyStatus:
    """Full efficiency status of y0 in A under the Y_+ order.

    Minimality and weak minimality are exact on the (possibly non-closed)
    set.  On a closed `Polyhedron` with Y_+ pointed, Min is read off Pos
    (Isermann 1974), and a minimal y0 is weakly minimal with no LP
    (`_classify`).  The proper notions are decided on the closed conic hull
    C = cl cone(A - y0): Pos by LP, He and GHe read off Pos with an explicit
    dilation witness for He, SE by boundedness of C cap (ball - Y_+).
    Non-pointed order cones report the proper notions as not applicable
    (None).

    The He witness is eta = he_eta: with K_eta = cone(base + eta * B_inf) for
    the bounded base of Y_+, eta is admissible when K_eta is pointed and
    C cap (-K_eta) = {0}, and he_eta is the largest admissible 2^-k, k < 64.
    delta = min ||d + b||_inf over d in C and b in the base is 1 / ||h||_1
    for the L1-minimal h >= 1 on the base's vertices and >= 0 on C, one LP
    whose optimum `verify_outcome` re-checks exactly: every eta < delta is
    admissible and every eta > delta is not.  eta = delta can go either way
    (Y = R, Y_+ = R_+ and C = R_+ give delta = 1 and a pointed K_1).  So
    he_eta is the largest 2^-k <= min(delta, 1), taken from the LP alone
    when it is below delta; only when it equals delta is it checked by
    double description, and when that check fails he_eta is half of it,
    which is below delta.
    """
    return _classify(*_member_of(a, y0), yplus)


@dataclass(frozen=True)
class _ConeVerdicts:
    """What `_classify` decides on the closed cone C = cl cone(A - y0) with
    Y_+ pointed: the Pos functional y* (None when Pos fails), He's eta
    (None without He or without witnesses) and SE's rho (None when SE
    fails).  Each is a function of (C, Y_+) alone (Isermann 1974; Henig
    1982), y* too: it is `positive_functional` over Y_+'s generators and
    C's canonical generators, whose tie rule reads only those rows."""

    cone: PolyhedralCone
    y_star: Optional[Vec]
    he_eta: Optional[Fraction]
    se_rho: Optional[Fraction]


def _tangent_cone(hull: Polyhedron, y0: Vec) -> PolyhedralCone:
    """C = cl cone(hull - y0) for y0 a point of the polyhedron `hull`, read
    off hull's facets.

    C is the tangent cone of hull at y0: the rows of hull tight at y0 cut it
    out, and its facets are hull's facets through y0 (Schrijver 1986,
    *Theory of Linear and Integer Programming*, ch. 8).  So its canonical
    rows are hull's canonical rows tight at y0, decided on the kept integer
    rows, each with offset 0, every EQ row kept, sorted.  That is the cone
    route's canonical form: hull's EQ rows are in reduced row echelon form
    with every pivot in a y column, as an offset column pivot would make the
    row 0 = b, and its LE rows are reduced modulo them, so dropping the
    offsets leaves both as they are.  The generators come from one H->V run
    over these rows, on their first read."""
    inequalities = hull.inequalities()
    le, eq, _ = hull.integer_form()
    x, d = integer_scaled(y0)
    slack = [b * d - sum(map(mul, a, x)) for a, b, _ in le]
    if min(slack, default=0) < 0 or not integer_holds(x, d, eq=eq):
        raise InternalConsistencyError(f"{fmt_vector(y0)} is not a point of the hull")
    rows = [r for r, t in zip(inequalities, slack) if not t] + list(hull.equalities())
    return PolyhedralCone(
        hull.dim, hrep=tuple(sorted(HRow(r.normal, ZERO, r.rel) for r in rows))
    )


def _closed_hull(a: SetLike, dim: int) -> Polyhedron:
    """The closed convex hull of A in dimension dim: A's own closure when A
    is one set, else the hull of its pieces' `closure_generators`."""
    if isinstance(a, (Polyhedron, BoundaryRestrictedPolyhedron)):
        return a.closure
    return Polyhedron.from_vrep(dim, *closure_generators(a))


def _cone_verdicts(hull: Polyhedron, y0: Vec, yplus: OrderCone,
                   with_witnesses: bool = True,
                   like: Optional[_ConeVerdicts] = None) -> _ConeVerdicts:
    """The `_ConeVerdicts` of y0 in a set A whose closed convex hull is
    `hull`, for Y_+ pointed.  C is the tangent cone of hull at y0, cut out
    by its facets through y0 (`_tangent_cone`; Schrijver 1986, ch. 8), so no
    V->H conversion of C runs; when C has Y_+'s canonical rows it is Y_+'s
    own cone, whose generators are known.

    `like` holds the verdicts of another set at y0.  When its cone has the
    same canonical H-representation as C, they are taken whole, y* included:
    every verdict is a function of (C, Y_+)."""
    cone_a = _tangent_cone(hull, y0)
    if cone_a == yplus.cone:
        cone_a = yplus.cone
    if like is not None and like.cone == cone_a:
        return like
    # Pos: y* in Y_+^{+i} supporting cl A at y0.  Its feasible set is fixed
    # by C alone, so the LP reads C's canonical generators, and at a tie the
    # split form over the same rows chooses y*.
    y_star = positive_functional(
        yplus.ambient_dim, yplus.generators, cone_a.generators, cone_a.lineality
    )
    he_eta = None
    if y_star is not None and with_witnesses:
        if yplus.structure.base is None:
            raise NotPointedError("Henig dilation needs a pointed cone with a base")
        he_eta = _henig_eta(cone_a, yplus, y_star)
    bounded_part = cone_a.with_rows(yplus.ball_minus.any_hrep()).any_vrep()
    se_rho = None
    if not bounded_part.rays and not bounded_part.lines:
        se_rho = max((inf_norm(v) for v in bounded_part.vertices), default=ZERO)
    return _ConeVerdicts(cone_a, y_star, he_eta, se_rho)


def _classify(a: SetLike, y0: Vec, yplus: OrderCone, with_witnesses: bool = True,
              minimal: Optional[bool] = None,
              on_cone: Optional[_ConeVerdicts] = None) -> EfficiencyStatus:
    """classify_proper for a y0 already known to be a member of A; `minimal`
    is y0's minimality in A when the caller has decided it, and `on_cone`
    the `_cone_verdicts` of y0 in A when the caller has them, else they are
    decided on A's closed convex hull (`_closed_hull`).
    C = cl cone(A - y0) is read off the facets of the hull through y0
    (`_tangent_cone`; Schrijver 1986, ch. 8), not converted from A's
    generators shifted by y0.

    Three verdicts are decided by theorem, each on a certificate that is
    checked exactly; the strict LPs of `_is_minimal` and `_is_weak_minimal`
    and the double description of SE decide the rest:
    - On a closed polyhedron A with Y_+ pointed, Min is Pos.  Pos implies
      Min, and a minimal point of a polyhedron has a strictly positive
      supporting functional (Arrow, Barankin & Blackwell 1953; Isermann
      1974).  The Pos LP's own certificate decides: y* when Pos holds, the
      Farkas vector that `verify_outcome` re-checked when it does not.
    - Min implies WMin, as Y_+ is not the whole space (`OrderCone`): a point
      of y0 - Int Y_+ that is also in y0 + Y_+ would put 0 in Int Y_+ and
      make Y_+ the whole space.  So WMin runs its LP only where y0 is not
      minimal.
    - With Y_+ pointed, He and GHe are Pos.  For the closed polyhedral cone
      C = cl cone(A - y0), C cap (-Y_+) = {0} iff some y* strictly positive
      on Y_+ minus 0 is >= 0 on C (Isermann 1974; Henig 1982): strictly
      separate C from -B for a compact base B of Y_+, and the converse is
      immediate.  So the Pos LP's certificate decides He as well, and SE,
      decided by double description, must agree with it.
    Pos, He, GHe and SE depend on C and Y_+ alone (`_ConeVerdicts`), so a
    certificate decides them once for two sets with the same C.

    `with_witnesses=False` skips the dilation witness search (the booleans
    are unchanged: for polyhedral data He implies a pointed dilation
    exists)."""
    pointed = yplus.is_pointed
    if pointed:
        if on_cone is None:
            hull = _closed_hull(a, yplus.ambient_dim)
            on_cone = _cone_verdicts(hull, y0, yplus, with_witnesses)
        pos = on_cone.y_star is not None
    if minimal is None:
        if pointed and isinstance(a, Polyhedron):
            minimal = pos
        else:
            minimal = _is_minimal(a, y0, yplus)
    weak = minimal or _is_weak_minimal(a, y0, yplus)
    if not pointed:
        return EfficiencyStatus(minimal, weak).validate()

    witnesses: dict = {"pos": on_cone.y_star} if pos else {}
    he = ghe = pos
    if he and with_witnesses:
        witnesses["he_eta"] = on_cone.he_eta
    if ghe:
        witnesses["ghe_via"] = "he"
    se = on_cone.se_rho is not None
    if se:
        witnesses["se_rho"] = on_cone.se_rho
    if se != he:
        raise InternalConsistencyError(
            "SE and He must coincide for pointed polyhedral order cones"
        )
    return EfficiencyStatus(minimal, weak, pos, ghe, he, se, witnesses).validate()


# -- dual image ---------------------------------------------------------------


def dual_image(p, L: LagrangeProcess):
    """M = {f(x) + L(g(x)) : x in Omega}, for a program or its context.

    Affine programs: a single closed polyhedron (the closure of Omega is
    used; the inclusion W(0) subset-of M is spot-verified on W(0) generator
    points).  Finite programs: the exact finite union of fiber translates,
    returned as a tuple of polyhedra.
    """
    ctx = _context(p)
    p = ctx.program
    if isinstance(p, AffineVectorProgram):
        return _dual_image_affine(ctx, L)
    fibers = {}
    pieces = []
    for pt in p.points:
        for fv in pt.f_values:
            for gv in pt.g_values:
                if gv not in fibers:
                    fibers[gv] = process_eval(L, gv)
                if not fibers[gv].is_empty:
                    pieces.append(fibers[gv].translate(fv))
    return tuple(pieces)


def _dual_image_affine(ctx: ProgramContext, L: LagrangeProcess) -> Polyhedron:
    p = ctx.program
    xdim, ydim, zdim = p.x_dim, p.y_dim, p.z_dim
    rows = []
    for r in p.omega.closure.any_hrep():
        rows.append((tuple(r.normal) + zeros(ydim), r.offset, r.rel))
    for r in L.graph.any_hrep():
        nz, ny = r.normal[:zdim], r.normal[zdim:]
        x_part = tuple(
            sum((nz[i] * p.g.matrix[i][j] for i in range(zdim)), ZERO)
            for j in range(xdim)
        )
        rows.append((x_part + tuple(ny), r.offset - dot(nz, p.g.offset), r.rel))
    lifted = Polyhedron.from_hrep(xdim + ydim, rows)
    matrix = [
        tuple(p.f.matrix[i]) + tuple(ONE if j == i else ZERO for j in range(ydim))
        for i in range(ydim)
    ]
    m = lifted.affine_image(matrix, p.f.offset, ydim)
    _verify_w0_inclusion(ctx, m)
    return m


def _verify_w0_inclusion(ctx: ProgramContext, m: Polyhedron):
    """Guaranteed inclusion W(0) subset-of M, checked on generator points of
    W(0) cell closures that are themselves members of W(0)."""
    for v in ctx.closure[0]:
        if not m.member(v) and member(ctx.cells, v):
            raise InternalConsistencyError("W(0) point escapes the dual image")


# -- brute-force oracle -------------------------------------------------------


def brute_force_status(p: Program, y0) -> EfficiencyStatus:
    """Exhaustive pairwise Min/WMin over the finite image point set, plus a
    points-only Pos LP.  Independent of the polyhedral pipeline."""
    if isinstance(p, AffineVectorProgram):
        raise NotMemberError("brute force needs a finite program")
    y0 = vec(y0)
    points = w0_image_points(p)
    if y0 not in points:
        raise NotMemberError(f"{fmt_vector(y0)} is not an attained image point")
    yplus = p.y_plus
    minimal = all(
        yplus.contains(vsub(q, y0))
        for q in points
        if yplus.contains(vsub(y0, q))
    )
    weak = not any(yplus.strictly_contains(vsub(y0, q)) for q in points)
    pos = None
    if yplus.is_pointed:
        pos = positive_functional(
            p.y_dim, yplus.generators, [vsub(q, y0) for q in points]
        ) is not None
    return EfficiencyStatus(minimal, weak, pos)


# -- the certificate ----------------------------------------------------------


VERIFIED = "verified"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"
UNVERIFIED = "unverified-precondition"


@dataclass(frozen=True)
class Clause:
    clause_id: str
    applicable: bool
    verified: Optional[bool]
    note: str = ""

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return NOT_APPLICABLE
        if self.verified is None:
            return UNVERIFIED
        return VERIFIED if self.verified else VIOLATED


@dataclass(frozen=True)
class Certificate:
    y0: Vec
    separators: SeparatorCone
    process: LagrangeProcess
    graph_structure: object
    dual_image: object
    status_P0: EfficiencyStatus
    status_D: EfficiencyStatus
    clauses: tuple[Clause, ...]
    slater_witness: object
    nonvertical_ok: Optional[bool]
    convex_relaxation: bool
    recovered_multiplier: Optional[tuple[Vec, ...]]

    @property
    def has_violation(self) -> bool:
        return any(c.verdict == VIOLATED for c in self.clauses)


def _is_scalar_halfline(yplus: OrderCone) -> bool:
    """Y = R with Y_+ = R_+ or -R_+: the only polyhedral case in which
    Y_+ minus the origin is open."""
    return yplus.ambient_dim == 1 and yplus.is_pointed


def _c5_applies(s: SeparatorCone, yplus: OrderCone) -> bool:
    """Is there h0 in S with <y*_h0, r> >= 1 on every extreme ray of Y_+?
    Decided by one LP over the generator coefficients (`l1_minimum`); no
    h0 leaves it."""
    if not s.generators or not yplus.is_pointed:
        return False
    le = [
        (tuple(-dot(h.y_star, r) for h in s.generators), -ONE)
        for r in yplus.generators
    ]
    return l1_minimum(LinearSystem(len(s.generators), tuple(le))) is not None


def _internal_graph_checks(p: AffineVectorProgram, closure: Polyhedron, y0,
                           L: LagrangeProcess):
    """Facts the construction guarantees, asserted on the generators of the
    closed graph as it was built: containment needs any generating set."""
    for g in p.z_plus.generators:
        if not L.graph.member(tuple(-x for x in g) + zeros(p.y_dim)):
            raise InternalConsistencyError("(-z_+, 0) escapes the process graph")
    zdim = p.z_dim
    shift = zeros(zdim) + tuple(y0)
    flip = lambda w: tuple(-x for x in w[:zdim]) + tuple(w[zdim:])
    v = closure.any_vrep()
    shifted = Polyhedron.from_vrep(
        closure.dim,
        [flip(vsub(x, shift)) for x in v.vertices],
        [flip(r) for r in v.rays],
        [flip(l) for l in v.lines],
    )
    if not L.graph.contains_poly(shifted):
        raise InternalConsistencyError("graph shift inclusion fails")


def certify_multiplier(p, y0, with_witnesses: bool = True) -> Certificate:
    """Build S, L, and M at y0 and check every transfer clause.

    `p` is a program or its ProgramContext; certifying several y0 through
    one context builds what does not depend on y0 once.  Finite programs are
    certified through their simplex-embedding convex relaxation (the
    transfer theorems require convex data); the certificate is flagged
    accordingly.  Exact point-set statuses for finite programs are available
    through classify_proper / brute_force_status instead.  y0 must be
    attained by a feasible point of the program itself, not only of its
    relaxation; NotInW0Error otherwise.
    """
    ctx = _context(p)
    conv = ctx.convex
    prog = conv.program
    y0 = vec(y0)
    minimal = conv.minimal.get(y0)
    if (minimal is None or ctx.relaxed) and not member(ctx.cells, y0):
        raise NotInW0Error(f"{fmt_vector(y0)} is not attained by a feasible point")

    graph_w = conv.graph
    s = separator_cone(graph_w, y0)
    slater = conv.slater
    nonvertical = None
    if slater is not None:
        nonvertical = check_nonvertical(s, slater).ok
    L = lagrange_process(s)
    structure = cone_structure(L.graph)
    _internal_graph_checks(prog, graph_w, y0, L)
    m = dual_image(conv, L)
    if not m.member(y0):
        raise InternalConsistencyError("y0 escapes the dual image")

    yplus = prog.y_plus
    on_p = on_d = None
    if yplus.is_pointed:
        # D takes P's Pos, He, GHe and SE when its cone at y0 is P's
        on_p = conv.cone_verdicts(y0, with_witnesses)
        on_d = _cone_verdicts(m, y0, yplus, with_witnesses, like=on_p)
    status_p = _classify(conv.cells, y0, yplus, with_witnesses,
                         minimal=minimal, on_cone=on_p)
    status_d = _classify(m, y0, yplus, with_witnesses, on_cone=on_d)

    slater_ok = slater is not None
    clauses = []

    def add(cid, applicable, holds, note="", needs_slater=True):
        if applicable and needs_slater and not slater_ok:
            clauses.append(Clause(cid, True, None, "Slater point missing"))
        else:
            clauses.append(Clause(cid, applicable, holds if applicable else None, note))

    add("C0", status_p.minimal, not s.empty_flag,
        "separator cone nonempty at a minimal point", needs_slater=False)
    add("C1", True, (not status_p.minimal) or status_d.weak_minimal,
        "minimal(P0) implies weak minimal(D)")
    add("C2", True,
        ((not status_d.minimal) or status_p.minimal)
        and ((not status_d.weak_minimal) or status_p.weak_minimal),
        "minimality transfers from D back to P0", needs_slater=False)
    add("C3", _is_scalar_halfline(yplus),
        status_p.minimal == status_d.minimal,
        "scalar case: Y_+ minus origin open")
    add("C4", structure.has_bounded_base,
        status_p.minimal == status_d.minimal,
        "process graph has a bounded base")
    add("C5", slater_ok and _c5_applies(s, yplus),
        status_p.minimal == status_d.minimal,
        "separator strictly positive on the order cone boundary")
    add("C6", yplus.is_pointed,
        status_p.pos == status_d.pos
        and status_p.ghe == status_d.ghe
        and status_p.he == status_d.he,
        "proper-efficiency transfer (Pos/GHe/He)")
    add("C7", yplus.is_pointed,
        status_p.se == status_d.se,
        "super-efficiency transfer (bounded base of Y_+)")

    multiplier = None
    if prog.y_dim == 1 and s.generators:
        normalized = []
        for h in s.generators:
            if h.y_star[0] > 0:
                normalized.append(tuple(z / h.y_star[0] for z in h.z_star))
        if normalized:
            multiplier = tuple(sorted(set(normalized)))

    return Certificate(
        y0=y0,
        separators=s,
        process=L,
        graph_structure=structure,
        dual_image=m,
        status_P0=status_p,
        status_D=status_d,
        clauses=tuple(clauses),
        slater_witness=slater,
        nonvertical_ok=nonvertical,
        convex_relaxation=ctx.relaxed,
        recovered_multiplier=multiplier,
    )


# -- frontier -----------------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    point: Vec
    status: EfficiencyStatus


@dataclass(frozen=True)
class Frontier:
    points: tuple[FrontierPoint, ...]
    truncated: bool = False


def _certified_vertex(rows, v: Vec) -> bool:
    """True once v, a point of the polyhedron of `rows` (le, eq) given as
    `integer_rows`, is certified a vertex of it: the rows tight at v have
    rank dim (`tight_rank`).  Otherwise InternalConsistencyError, as only a
    vertex of the polyhedron's canonical form is ever given."""
    x, d = integer_scaled(v)
    if tight_rank(x, d, *rows)[1] != len(v):
        raise InternalConsistencyError(f"{v} is not a vertex of the upper image")
    return True


def _minimal_vertices(a: SetLike, hull: Polyhedron, yplus: OrderCone,
                      limit: int, verdicts: dict, members=frozenset()):
    """(points, truncated): the first `limit` vertices of `hull`, a closed
    convex set holding A, that are members of A and minimal in A, and
    whether `hull` has more vertices than `limit`.  `verdicts` records
    point -> minimality for each member tested.  A vertex in `members`, a
    set of points known to be in A, is taken as a member with no test.

    When hull + Y_+ lies in hull and hull has no lines, a member v of A
    among its vertices is minimal in A by theorem: if v - d is in A for some
    d in Y_+, then v - d and v + d are both in hull, with midpoint v, so
    d = 0.  The certificates are read off hull's integer rows: Y_+ is
    pointed and its generators are recession rays of hull (`ray_member`),
    and v is a vertex (`_certified_vertex`).  Any other member is decided by
    `_is_minimal`, as is (0, 0) in W(0) = {(t, 0)} under Y_+ = R^2_+, a
    vertex of an upper image with a line and not minimal."""
    if limit < 0:
        raise ValueError(f"the frontier limit must be nonnegative, not {limit}")
    candidates = hull.vrep.vertices
    upward = yplus.is_pointed and all(hull.ray_member(g) for g in yplus.generators)
    rows = hull.integer_form()[:2] if upward and not hull.vrep.lines else None
    points = []
    for v in candidates[:limit]:
        if v in members or member(a, v):
            if rows is None:
                verdicts[v] = _is_minimal(a, v, yplus)
            else:
                verdicts[v] = _certified_vertex(rows, v)
            if verdicts[v]:
                points.append(v)
    return tuple(points), len(candidates) > limit


def minimal_frontier_points(p, limit: int = 10000):
    """Minimal vertices of the closed upper image at z = 0 (no classification),
    for a program or its context, whose `minimal` records each verdict.

    A member of W(0) among the vertices of upper = cl W(0) + Y_+ is minimal
    by theorem when upper has no lines, with its vertex rank as certificate,
    and by one strict LP per cell otherwise (`_minimal_vertices`).  A closed
    cell is its own closure image, so a nonempty image shows W(0) nonempty
    and a vertex of it is a member of W(0) (`ProgramContext.closed_vertices`),
    each with no LP; a cell with strict rows keeps its strict LPs."""
    ctx = _context(p)
    p, cells = ctx.program, ctx.cells
    if not any(
        not image.is_empty if c.closed else c.is_feasible()
        for c, image in zip(cells, ctx.images)
    ):
        raise EmptyFeasibleError("no feasible point at z = 0")
    verts, rays, lines = ctx.closure
    upper = Polyhedron.from_vrep(
        p.y_dim,
        verts,
        list(rays) + list(p.y_plus.generators),
        list(lines) + list(p.y_plus.lineality),
    )
    points, truncated = _minimal_vertices(
        cells, upper, p.y_plus, limit, ctx.minimal, ctx.closed_vertices
    )
    return cells, points, truncated


def minimal_frontier(p, limit: int = 10000) -> Frontier:
    """Vertices of the closed upper image at z = 0, for a program or its
    context, filtered by minimality against W(0) (`minimal_frontier_points`).
    Each point is classified knowing it is minimal, so it is weakly minimal
    with no LP.  Candidate supply for y0, not a complete enumeration of Min
    (non-closed corner points need an explicit y0)."""
    ctx = _context(p)
    cells, points, truncated = minimal_frontier_points(ctx, limit)
    yplus = ctx.program.y_plus
    out = [
        FrontierPoint(v, _classify(cells, v, yplus, minimal=True,
                                   on_cone=ctx.cone_verdicts(v)))
        for v in points
    ]
    return Frontier(tuple(out), truncated)


def dual_frontier(p, L: LagrangeProcess, limit: int = 10000) -> Frontier:
    """Same vertex filter applied to the dual image M, for a program or its
    context, which `dual_image` reads W(0) from.  The hull is M, or the closed
    convex hull of a finite program's pieces; Graph(L) holds {0} x Y_+, so
    M + Y_+ = M and the filter may decide by theorem (`_minimal_vertices`)."""
    ctx = _context(p)
    p = ctx.program
    m = dual_image(ctx, L)
    hull = _closed_hull(m, p.y_dim)
    yplus = p.y_plus
    points, truncated = _minimal_vertices(m, hull, yplus, limit, {})
    out = []
    for v in points:
        on_cone = _cone_verdicts(hull, v, yplus) if yplus.is_pointed else None
        out.append(FrontierPoint(v, _classify(m, v, yplus, minimal=True, on_cone=on_cone)))
    return Frontier(tuple(out), truncated)
