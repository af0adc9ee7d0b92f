"""Polyhedra, polyhedral cones, and boundary-restricted sets.

Every `Polyhedron` carries both canonical representations: a minimal
H-representation (facet inequalities plus affine-hull equalities) and a
minimal V-representation (vertices, extreme rays, lineality basis).  The
canonical form scales each inequality row and each ray so that the first
nonzero coefficient is +-1 (positive leading sign where the sign is free)
and sorts everything lexicographically, which makes golden tests and report
output reproducible.  Because the forms are unique, a set built by duality
may carry both from the start: `polar_cone` runs no double description, as
by Minkowski-Weyl duality its rows are the input cone's generators and its
generators the input cone's rows.

A set that is not a cone is converted on its homogenization, one coordinate
more.  A cone (every row offset 0, or the origin its only vertex) is
converted in its own dimension: its generators, and the rows read off its
polar's generators, come from `_cone_generators`.

`BoundaryRestrictedPolyhedron` represents a closed polyhedron minus some of
its facets, each replaced by a retained closed sub-polyhedron.  Such sets are
handled exactly throughout via a decomposition into relatively open cells,
each an affine image of a linear system with strict rows, so membership and
emptiness reduce to strict-feasibility LPs and no not-necessarily-closed
projection is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from operator import mul
from typing import Iterable, Optional, Sequence

from ._dd import cone_dd, tight_rank
from .errors import DimensionMismatch, InternalConsistencyError
from .exactlp import LinearSystem, LpStatus, lp_solve, strict_feasible
from .rational import (
    ONE,
    ZERO,
    Mat,
    Vec,
    dot,
    integer_holds,
    integer_rows,
    integer_scaled,
    is_zero_vec,
    matvec,
    quotients,
    vadd,
    vec,
    zeros,
)

LE = "le"
EQ = "eq"


@dataclass(frozen=True, order=True)
class HRow:
    normal: Vec
    offset: Fraction
    rel: str = LE

    def scaled_canonical(self) -> "HRow":
        lead = next((x for x in self.normal if x != 0), None)
        if lead is None:
            raise InternalConsistencyError("zero normal in canonical row")
        c = abs(lead) if self.rel == LE else lead
        return HRow(
            tuple(x / c for x in self.normal), self.offset / c, self.rel
        )


@dataclass(frozen=True)
class VRep:
    vertices: tuple[Vec, ...] = ()
    rays: tuple[Vec, ...] = ()
    lines: tuple[Vec, ...] = ()


class Polyhedron:
    """Closed convex polyhedron with both canonical representations.

    Representations are computed lazily: constructing from rows defers the
    facet recomputation until `.hrep` is first read, and vice versa.  The
    canonical forms are unique per set, so equality and hashing compare the
    canonical H-representation.  The integer form of the rows that decide
    membership is also computed on first use and kept.

    A reader asks for the form it needs: `.hrep` and `.vrep` to emit, to
    compare, to pick vertex candidates, or where the row order of an LP
    decides an emitted witness; `any_hrep()` and `any_vrep()`, some valid
    form that is canonical when known, for everything else (a polar,
    containment, membership, LP rows of which only the optimal value
    leaves).  Only this class reads or writes its representation slots.
    """

    __slots__ = ("dim", "_raw_hrep", "_raw_vrep", "_hrep", "_vrep", "_ints")

    def __init__(self, dim, raw_hrep=None, raw_vrep=None, hrep=None, vrep=None):
        self.dim = dim
        self._raw_hrep = raw_hrep
        self._raw_vrep = raw_vrep
        self._hrep = hrep
        self._vrep = vrep
        self._ints = None

    # -- construction ----------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "Polyhedron":
        row = HRow(zeros(dim), Fraction(-1), LE)
        return Polyhedron(dim, hrep=(row,), vrep=VRep())

    @classmethod
    def from_hrep(cls, dim: int, rows: Iterable) -> "Polyhedron":
        return cls(dim, raw_hrep=_coerce_rows(dim, rows))

    @classmethod
    def from_vrep(cls, dim, vertices=(), rays=(), lines=()) -> "Polyhedron":
        vertices = tuple(_coerce_point(dim, v) for v in vertices)
        rays = (_coerce_point(dim, r) for r in rays)
        rays = tuple(r for r in rays if not is_zero_vec(r))
        lines = (_coerce_point(dim, l) for l in lines)
        lines = tuple(l for l in lines if not is_zero_vec(l))
        if not vertices:
            if rays or lines:
                raise InternalConsistencyError(
                    "a nonempty V-representation needs at least one vertex"
                )
            return Polyhedron.empty(dim)
        return cls(dim, raw_vrep=VRep(vertices, rays, lines))

    @classmethod
    def full_space(cls, dim: int) -> "Polyhedron":
        return cls.from_hrep(dim, ())

    # -- lazy canonical representations -----------------------------------

    @property
    def vrep(self) -> VRep:
        if self._vrep is None:
            if self._hrep is not None:
                self._vrep = _hrep_to_vrep(self.dim, self._hrep)
            elif self._raw_hrep is not None:
                self._vrep = _hrep_to_vrep(self.dim, self._raw_hrep)
            else:
                # canonical rows first, then the minimal generators
                self._vrep = _hrep_to_vrep(self.dim, self.hrep)
        return self._vrep

    @property
    def hrep(self) -> tuple[HRow, ...]:
        if self._hrep is None:
            if self._raw_vrep is not None:
                self._hrep = _vrep_to_hrep(self.dim, self._raw_vrep)
            else:
                v = self.vrep
                if not v.vertices:
                    self._hrep = Polyhedron.empty(self.dim).hrep
                else:
                    self._hrep = _vrep_to_hrep(self.dim, v)
        return self._hrep

    # No constructor sets both raw representations, so a set built from
    # generators gets its canonical rows from `any_hrep` on first use, and
    # keeps them, and a set built from rows its canonical generators from
    # `any_vrep`.  Outside this module `.hrep` and `.vrep` are read only to
    # emit, to compare, to pick vertex candidates, or where an LP's row
    # order decides an emitted witness; every other reader takes these.

    def any_hrep(self) -> tuple[HRow, ...]:
        """Some valid row list for this set (canonical if already computed)."""
        if self._hrep is not None:
            return self._hrep
        if self._raw_hrep is not None:
            return self._raw_hrep
        return self.hrep

    def any_vrep(self) -> VRep:
        """Some valid generating set for this set (canonical if already
        computed)."""
        if self._vrep is not None:
            return self._vrep
        if self._raw_vrep is not None:
            return self._raw_vrep
        return self.vrep

    # -- basic queries ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.any_vrep().vertices

    @property
    def closure(self) -> "Polyhedron":
        return self

    def inequalities(self) -> tuple[HRow, ...]:
        return tuple(r for r in self.hrep if r.rel == LE)

    def equalities(self) -> tuple[HRow, ...]:
        return tuple(r for r in self.hrep if r.rel == EQ)

    def system(self) -> LinearSystem:
        rows = self.any_hrep()
        return LinearSystem(
            self.dim,
            le=tuple((r.normal, r.offset) for r in rows if r.rel == LE),
            eq=tuple((r.normal, r.offset) for r in rows if r.rel == EQ),
        )

    def integer_form(self):
        """`system().integer_form`, made on first use and kept."""
        if self._ints is None:
            self._ints = self.system().integer_form
        return self._ints

    def _scaled_member(self, x, d) -> bool:
        """Is x / d in the set, for integers x and d > 0 (d = 0: is the
        direction x in the recession cone)?"""
        return integer_holds(x, d, *self.integer_form())

    def member(self, x) -> bool:
        """Is x in the set?  x is written over one denominator and every row
        is decided by one integer dot."""
        return self._scaled_member(*integer_scaled(_coerce_point(self.dim, x)))

    def ray_member(self, r) -> bool:
        """Is r in the recession cone?  Decided as `member` with d = 0."""
        return self._scaled_member(integer_scaled(_coerce_point(self.dim, r))[0], 0)

    def contains_poly(self, other: "Polyhedron") -> bool:
        if other.is_empty:
            return True
        v = other.any_vrep()
        return (
            all(self.member(x) for x in v.vertices)
            and all(self.ray_member(r) for r in v.rays)
            and all(
                self.ray_member(l) and self.ray_member(vec(-x for x in l))
                for l in v.lines
            )
        )

    def __eq__(self, other):
        return (
            isinstance(other, Polyhedron)
            and self.dim == other.dim
            and self.hrep == other.hrep
        )

    def __hash__(self):
        return hash((self.dim, self.hrep))

    def __repr__(self):
        if self.is_empty:
            return f"Polyhedron.empty({self.dim})"
        return f"Polyhedron(dim={self.dim})"

    # -- geometry --------------------------------------------------------

    def with_rows(self, rows) -> "Polyhedron":
        return Polyhedron.from_hrep(self.dim, tuple(self.any_hrep()) + _coerce_rows(self.dim, rows))

    def translate(self, t) -> "Polyhedron":
        t = _coerce_point(self.dim, t)
        if self.is_empty:
            return self
        v = self.any_vrep()
        return Polyhedron.from_vrep(
            self.dim,
            [vadd(x, t) for x in v.vertices],
            v.rays,
            v.lines,
        )

    def affine_image(self, matrix: Mat, offset, out_dim: int) -> "Polyhedron":
        """Exact image under x -> M.x + o, computed on generators."""
        matrix = tuple(vec(row) for row in matrix)
        offset = _coerce_point(out_dim, offset)
        if self.is_empty:
            return Polyhedron.empty(out_dim)
        src_v = self.any_vrep()
        verts = [vadd(matvec(matrix, v), offset) for v in src_v.vertices]
        rays = [matvec(matrix, r) for r in src_v.rays]
        lines = [matvec(matrix, l) for l in src_v.lines]
        return Polyhedron.from_vrep(out_dim, verts, rays, lines)


class PolyhedralCone(Polyhedron):
    """Polyhedron with zero offsets; the only vertex is the origin."""

    @classmethod
    def from_generators(cls, dim, rays=(), lines=()) -> "PolyhedralCone":
        return cls.from_vrep(dim, [zeros(dim)], rays, lines)

    @classmethod
    def from_normals(cls, dim, ineq_normals=(), eq_normals=()) -> "PolyhedralCone":
        rows = [HRow(vec(n), ZERO, LE) for n in ineq_normals]
        rows += [HRow(vec(n), ZERO, EQ) for n in eq_normals]
        return cls.from_hrep(dim, rows)

    @classmethod
    def from_polyhedron(cls, p: Polyhedron) -> "PolyhedralCone":
        rows, v = p.hrep, p.vrep
        if any(r.offset != 0 for r in rows) or v.vertices != (zeros(p.dim),):
            raise InternalConsistencyError("not a cone")
        return cls(p.dim, hrep=rows, vrep=v)

    @property
    def generators(self) -> tuple[Vec, ...]:
        return self.vrep.rays

    @property
    def lineality(self) -> tuple[Vec, ...]:
        return self.vrep.lines


# -- representation conversion helpers -----------------------------------


def _coerce_point(dim, x) -> Vec:
    return _of_dim(dim, vec(x))


def _of_dim(dim, x: Vec) -> Vec:
    """x, an already coerced point, once its length is checked to be dim."""
    if len(x) != dim:
        raise DimensionMismatch(f"point of length {len(x)} in dimension {dim}")
    return x


def _coerce_rows(dim, rows) -> tuple[HRow, ...]:
    out = []
    for row in rows:
        if isinstance(row, HRow):
            r = row
        else:
            normal, offset, rel = row
            r = HRow(vec(normal), Fraction(offset), rel)
        if len(r.normal) != dim:
            raise DimensionMismatch("row width does not match dimension")
        if r.rel not in (LE, EQ):
            raise ValueError(f"unknown relation {r.rel!r}")
        out.append(r)
    return tuple(out)


def _cone_generators(dim: int, ineq, eq):
    """Canonical (rays, lines) of the cone {x : ineq.x <= 0, eq.x = 0}, each
    sorted, from one `cone_dd` run in dimension dim.

    `cone_dd` returns its lines in reduced row echelon form and its rays
    reduced modulo them, each a primitive integer tuple, so one Fraction per
    entry makes them canonical: a line is divided by its leading entry, a ray
    by the absolute value of its leading entry.  Canonical cone rows have
    the same form (`HRow.scaled_canonical`), which is why `polar_cone` can
    read a polar's generators off them.
    """
    lines, rays = cone_dd(dim, ineq, eq)
    return (
        tuple(sorted(quotients(r, abs(next(x for x in r if x))) for r in rays)),
        tuple(sorted(quotients(l, next(x for x in l if x)) for l in lines)),
    )


def _hrep_to_vrep(dim: int, rows: tuple[HRow, ...]) -> VRep:
    """Canonical generators of the rows' solution set.

    A cone, every row with offset 0, is converted in its own dimension: its
    only vertex is the origin and its rays and lines are `_cone_generators`
    of its normals.  Any other set is homogenized, {(x, t) : a.x <= b.t,
    t >= 0}, and its double description split by the t coordinate.  Lines
    have t = 0 and the t column is last, so dropping it keeps `cone_dd`'s
    form: the recession rays and the vertices come out already reduced.
    Each canonical entry is then one Fraction x / c built from the integers:
    c is a line's leading entry, the absolute value of a recession ray's
    leading entry, or a vertex's t.  For a cone the lift is the cone times
    t >= 0, whose generators are the cone's with t = 0 and the vertex (0, 1),
    so both routes give the same form.
    """
    if all(not row.offset for row in rows):
        rays, lines = _cone_generators(
            dim,
            [row.normal for row in rows if row.rel == LE],
            [row.normal for row in rows if row.rel == EQ],
        )
        return VRep((zeros(dim),), rays, lines)
    ineq = []
    eq = []
    for row in rows:
        lifted = row.normal + (-row.offset,)
        (ineq if row.rel == LE else eq).append(lifted)
    ineq.append(zeros(dim) + (-ONE,))  # t >= 0
    lines, rays = cone_dd(dim + 1, ineq, eq)
    vertices = []
    rec_rays = []
    rec_lines = []
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


def _vrep_to_hrep(dim: int, vrep: VRep) -> tuple[HRow, ...]:
    """Canonical rows of a nonempty set, from the polar of its generators.

    A cone, the origin its only vertex, is converted in its own dimension:
    its rows are the polar's generators, `_cone_generators` of its rays and
    lines, each ray a facet a.x <= 0 and each line an equality a.x = 0.
    Any other set takes the polar of its homogenization cone,
    {(a, b) : a.v + b <= 0, a.r <= 0, a.l = 0}.  Each polar generator (a, b)
    is a primitive integer tuple; its row a.x <= -b (or = -b) is divided by
    the leading coefficient of a, in absolute value for an inequality, one
    Fraction per entry (the sign rule of `HRow.scaled_canonical`, which for
    b = 0 is `_cone_generators`' rule, so both routes give the same rows).
    """
    if all(not any(v) for v in vrep.vertices):
        rays, lines = _cone_generators(dim, vrep.rays, vrep.lines)
        rows = [HRow(r, ZERO, LE) for r in rays] + [HRow(l, ZERO, EQ) for l in lines]
        return tuple(sorted(rows))
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
        rows.append(HRow(quotients(a, c), Fraction(-r[dim], c), LE))
    for l in lines:
        a = l[:dim]
        lead = next((x for x in a if x), 0)
        if not lead:
            raise InternalConsistencyError("trivial equality in polar")
        rows.append(HRow(quotients(a, lead), Fraction(-l[dim], lead), EQ))
    return tuple(sorted(set(rows)))


# -- spec surface operations ----------------------------------------------


def dd_convert(p: Polyhedron, direction: str) -> Polyhedron:
    """Recompute both canonical representations from the named source."""
    if direction == "HtoV":
        return Polyhedron.from_hrep(p.dim, p.hrep)
    if direction == "VtoH":
        return Polyhedron.from_vrep(
            p.dim, p.vrep.vertices, p.vrep.rays, p.vrep.lines
        )
    raise ValueError(f"unknown direction {direction!r}")


def polar_cone(k: PolyhedralCone, sign: str = "negative") -> PolyhedralCone:
    """Negative polar {e : <e,g> <= 0 for all generators}, or its negation,
    with both canonical representations read off k's own, and no double
    description.

    By Minkowski-Weyl duality (Rockafellar, Convex Analysis, sections 14 and
    19) the polar's facets are the extreme rays of k and its equalities span
    the lineality space of k; its extreme rays are the facet normals of k and
    its lineality space is spanned by the equality normals of k.  Canonical
    rays have leading entry +-1 and are reduced modulo the lineality basis,
    which is in reduced row echelon form with pivots 1; canonical rows are
    scaled and reduced the same way.  So each form of the polar is the other
    form of k, sorted (negated for the positive polar; negation reverses
    lexicographic order).  A form k lacks is computed on first read.  A set
    with a row offset other than 0, the empty set included, is not a cone
    and is refused.
    """
    if sign not in ("negative", "positive"):
        raise ValueError(f"unknown polar sign {sign!r}")
    rows = k.hrep
    if any(r.offset for r in rows):
        raise InternalConsistencyError("not a cone")
    v = k.vrep
    rays = tuple(r.normal for r in rows if r.rel == LE)
    gens = v.rays
    if sign == "positive":
        rays = tuple(tuple(-x for x in r) for r in reversed(rays))
        gens = [tuple(-x for x in g) for g in gens]
    lines = tuple(r.normal for r in rows if r.rel == EQ)
    polar_rows = [HRow(g, ZERO, LE) for g in gens] + [HRow(l, ZERO, EQ) for l in v.lines]
    return PolyhedralCone(
        k.dim, hrep=tuple(sorted(polar_rows)), vrep=VRep((zeros(k.dim),), rays, lines)
    )


def project(p: Polyhedron, keep: Sequence[int]) -> Polyhedron:
    """Exact orthogonal projection onto the kept coordinates."""
    keep = tuple(keep)
    if any(j < 0 or j >= p.dim for j in keep):
        raise DimensionMismatch("projection indices out of range")
    if p.is_empty:
        return Polyhedron.empty(len(keep))
    pick = lambda x: tuple(x[j] for j in keep)
    return Polyhedron.from_vrep(
        len(keep),
        [pick(v) for v in p.vrep.vertices],
        [pick(r) for r in p.vrep.rays],
        [pick(l) for l in p.vrep.lines],
    )


@dataclass(frozen=True)
class ConeStructure:
    lineality_dim: int
    is_pointed: bool
    has_bounded_base: bool
    base: Optional[Polyhedron]
    functional: Optional[Vec]


def cone_structure(k: PolyhedralCone) -> ConeStructure:
    """Pointedness and (for polyhedral cones) the bounded-base test.

    A pointed polyhedral cone always admits a bounded base: the convex hull
    of its generators normalized against a strictly positive functional from
    the interior of the positive polar.  The zero cone is reported pointed
    with no base.  The base has one vertex r / (h.r) per extreme ray r, so
    these vertices, sorted, are its canonical V-representation, and reading
    it runs no double description.
    """
    ldim = len(k.lineality)
    pointed = ldim == 0
    if not pointed:
        return ConeStructure(ldim, False, False, None, None)
    rays = k.generators
    if not rays:
        return ConeStructure(0, True, True, None, None)
    h = positive_functional(k.dim, rays)
    if h is None:
        raise InternalConsistencyError("pointed cone without positive functional")
    # With h = hx / hd and r = rx / rd over one denominator each, the base
    # vertex r / (h.r) has entries rx_j.hd / (hx.rx): one integer dot per
    # ray and one Fraction per entry
    hx, hd = integer_scaled(h)
    verts = []
    for r in rays:
        rx = integer_scaled(r)[0]
        s = sum(map(mul, hx, rx))
        verts.append(tuple(Fraction(x * hd, s) for x in rx))
    base = Polyhedron(k.dim, vrep=VRep(tuple(sorted(verts))))
    return ConeStructure(0, True, True, base, h)


def positive_functional(dim, ge_one, ge_zero=(), eq_zero=(), at_tie=None) -> Optional[Vec]:
    """Deterministic h with <h, a> >= 1 on every `ge_one` row, >= 0 on every
    `ge_zero` row and = 0 on every `eq_zero` row, or None when there is none.

    h is split into h+ - h- and the L1-minimal split is taken, by the rule of
    `l1_minimal_point`: the unique optimum when there is one, which is the
    same whatever rows describe the same set of functionals, and at a tie
    the vertex Bland's rule reaches on the split form over the rows met in
    the order given, `ge_one` before `ge_zero`.  `at_tie`, a pair (ge_zero,
    eq_zero) with the same solutions as the given one, names the rows of
    that tie-breaking form in place of the given ones.  h is emitted in
    reports.
    """
    x = l1_minimal_point(
        functional_system(dim, ge_one, ge_zero, eq_zero),
        None if at_tie is None else functional_system(dim, ge_one, *at_tie),
    )
    if x is None:
        return None
    return tuple(x[j] - x[dim + j] for j in range(dim))


def functional_system(dim, ge_one, ge_zero, eq_zero) -> LinearSystem:
    """The rows of `positive_functional` over the split (h+, h-).  At every
    point of `l1_minimum` of this system h+ and h- have disjoint supports,
    so its value is ||h||_1 of every L1-minimal h."""
    le = [(tuple(-x for x in a) + tuple(a), -ONE) for a in ge_one]
    le += [(tuple(-x for x in a) + tuple(a), ZERO) for a in ge_zero]
    eq = [(tuple(a) + tuple(-x for x in a), ZERO) for a in eq_zero]
    return LinearSystem(2 * dim, tuple(le), tuple(eq))


def l1_minimum(system: LinearSystem):
    """The checked optimal `LpOutcome` of the least coordinate sum over the
    points of `system` with every coordinate >= 0, each coordinate a
    nonnegative variable of one column; None when there is no such point.
    The sum is bounded below by 0, so an UNBOUNDED answer is an internal
    fault, never "no point"."""
    dim = system.dim
    out = lp_solve((ONE,) * dim, system.extended(nonneg=range(dim)), "min")
    if out.status is LpStatus.UNBOUNDED:
        raise InternalConsistencyError(
            "L1-minimal LP over nonnegative variables is unbounded"
        )
    return out if out.status is LpStatus.OPTIMAL else None


def l1_minimal_point(system: LinearSystem, at_tie=None) -> Optional[Vec]:
    """Point of `system` with every coordinate >= 0 and the least coordinate
    sum, or None when there is none.

    The point is defined by a rule.  It is the point of `l1_minimum` when
    that optimum is unique, which every exact formulation of the same set
    returns.  Uniqueness is read off the multipliers (Mangasarian 1979,
    "Uniqueness of solution in linear programming"): by complementary
    slackness every optimal point lies on the EQ rows, the LE rows with a
    nonzero dual and the bounds x_j >= 0 with a nonzero multiplier, so when
    those have rank dim no other point is optimal.  Otherwise, at a tie,
    the point is the vertex that Bland's rule reaches on the split form:
    `at_tie` (a system with the same nonnegative points, default `system`)
    with the rows x >= 0 after its own, every coordinate split again by
    `lp_solve`.
    """
    native = l1_minimum(system)
    if native is None:
        return None
    dim = system.dim
    # a bound with a nonzero multiplier fixes its coordinate at 0, so the EQ
    # rows and the LE rows with a nonzero dual must have full rank on the
    # coordinates left
    keep = [j for j in range(dim) if not native.dual_bound[j]]
    held = [(tuple(a[j] for j in keep), b)
            for yi, (a, b) in zip(native.dual_le, system.le) if yi]
    held += [(tuple(a[j] for j in keep), b) for a, b in system.eq]
    x, d = integer_scaled(native.primal_point)
    if tight_rank([x[j] for j in keep], d, (), integer_rows(held))[1] == len(keep):
        return native.primal_point
    split = at_tie if at_tie is not None else system
    bounds = [
        (tuple(-ONE if i == j else ZERO for i in range(dim)), ZERO)
        for j in range(dim)
    ]
    out = lp_solve((ONE,) * dim, split.extended(le=bounds), "min")
    if out.objective_value != native.objective_value:
        raise InternalConsistencyError(
            "the split L1-minimal LP does not reach the native optimum"
        )
    return out.primal_point


# -- boundary-restricted polyhedra ----------------------------------------


@dataclass(frozen=True)
class BoundaryRestriction:
    """Restriction on the boundary slice {x : normal.x = offset} of a closure.

    The row normal.x <= offset must be valid for the closure; the represented
    set keeps only `retained` out of that slice.
    """

    normal: Vec
    offset: Fraction
    retained: Polyhedron

    def canonical(self) -> "BoundaryRestriction":
        row = HRow(vec(self.normal), Fraction(self.offset), LE).scaled_canonical()
        return BoundaryRestriction(row.normal, row.offset, self.retained)


def _generator_witness(p: Polyhedron, row, strict: bool) -> bool:
    """Is a point of the nonempty p on the hyperplane of the integer row
    (a, b, s) (`strict` False), or strictly inside it (`strict` True), among
    the vertices of p's generators and, when strict, the first vertex plus
    each ray?  The row must be valid for p.  Each candidate is checked
    exactly: on or inside the row by integer evaluation, in p by `member`.

    The answer is complete.  Every point of p is a convex combination of
    the vertices plus a nonnegative one of the rays plus a line part, and
    a.l = 0 on the lines, a.v <= b on the vertices and a.r <= 0 on the rays.
    So p meets the hyperplane iff some vertex lies on it, and has a point
    strictly inside iff some vertex does or some ray has a.r < 0."""
    v = p.any_vrep()
    cands = v.vertices
    if strict:
        cands += tuple(vadd(v.vertices[0], r) for r in v.rays)
    on, inside = ((), (row,)) if strict else ((row,), ())
    return any(
        integer_holds(*integer_scaled(w), eq=on, strict=inside) and p.member(w)
        for w in cands
    )


def _on_hyperplane(p: Polyhedron, fr: BoundaryRestriction) -> bool:
    """Does p lie on the hyperplane normal.x = offset of fr?"""
    hyper = Polyhedron.from_hrep(p.dim, [(fr.normal, fr.offset, EQ)])
    return hyper.contains_poly(p)


class BoundaryRestrictedPolyhedron:
    """closure minus each restricted boundary slice, plus its retained part.

    A point on a restricted hyperplane is a member iff it lies in the
    retained sub-polyhedron (for every restricted hyperplane through it).
    Restrictions are keyed by the hyperplane row rather than a facet index so
    that exact intersection with further rows stays representable.
    """

    __slots__ = ("closure", "restrictions", "_slices")

    def __init__(self, closure: Polyhedron, restrictions: Sequence[BoundaryRestriction]):
        """Each restricted row must be valid for the closure, with its
        retained set inside its slice, and must not be an implicit equality
        of the closure.  The last is certified by a point of the closure
        strictly inside the row, read off the closure's generators
        (`_generator_witness`); only when none is found does a strict LP
        decide, whose "no" carries a Farkas certificate checked exactly."""
        if closure.is_empty and restrictions:
            raise InternalConsistencyError("restrictions on an empty closure")
        canon, slices = [], []
        for fr in restrictions:
            fr = fr.canonical()
            if fr.retained.dim != closure.dim:
                raise DimensionMismatch("retained set in wrong dimension")
            half = Polyhedron.from_hrep(closure.dim, [(fr.normal, fr.offset, LE)])
            if not half.contains_poly(closure):
                raise InternalConsistencyError(
                    "restricted row is not valid for the closure"
                )
            if not fr.retained.is_empty:
                hyper = Polyhedron.from_hrep(
                    closure.dim,
                    tuple(closure.hrep) + (HRow(fr.normal, fr.offset, EQ),),
                )
                if not hyper.contains_poly(fr.retained):
                    raise InternalConsistencyError(
                        "retained set leaves its restricted slice"
                    )
            (row,) = integer_rows([(fr.normal, fr.offset)])
            if not (
                _generator_witness(closure, row, strict=True)
                or strict_feasible(
                    closure.system().extended(strict=[(fr.normal, fr.offset)])
                ).feasible
            ):
                raise InternalConsistencyError(
                    "restricted row is an implicit equality of the closure"
                )
            canon.append(fr)
            slices.append(row)
        self.closure = closure
        self.restrictions = tuple(canon)
        self._slices = tuple(slices)

    @staticmethod
    def from_facet_indices(closure: Polyhedron, pairs) -> "BoundaryRestrictedPolyhedron":
        """pairs: (index into closure.inequalities(), retained Polyhedron)."""
        facets = closure.inequalities()
        restrictions = []
        for idx, retained in pairs:
            if not 0 <= idx < len(facets):
                raise InternalConsistencyError("facet index out of range")
            row = facets[idx]
            restrictions.append(BoundaryRestriction(row.normal, row.offset, retained))
        return BoundaryRestrictedPolyhedron(closure, restrictions)

    @property
    def dim(self) -> int:
        return self.closure.dim

    @property
    def is_empty(self) -> bool:
        return not any(c.is_feasible() for c in as_cells(self))

    def member(self, x) -> bool:
        """x over one denominator, decided on the integer rows of the
        closure, of each restricted hyperplane and of its retained set."""
        x, d = integer_scaled(_coerce_point(self.dim, x))
        if not self.closure._scaled_member(x, d):
            return False
        for fr, row in zip(self.restrictions, self._slices):
            if integer_holds(x, d, eq=(row,)) and not fr.retained._scaled_member(x, d):
                return False
        return True

    def with_rows(self, rows):
        """Exact intersection with closed rows: a Polyhedron once no
        restricted slice is left in reach, else a boundary-restricted set.

        A restricted slice is kept when its hyperplane meets the new
        closure.  Its row is valid there, so the meet is a face, and a
        nonempty face holds a vertex: a vertex on the hyperplane certifies
        the slice (`_generator_witness`).  A slice with none is dropped once
        a strict LP agrees, its "no" carrying a Farkas certificate checked
        exactly."""
        closure = self.closure.with_rows(rows)
        pending = [
            BoundaryRestriction(r.normal, r.offset, r.retained.with_rows(rows))
            for r in self.restrictions
        ]
        # collapse onto the first restricted hyperplane that holds the whole
        # set, dropping every restriction on it, until none does
        while not closure.is_empty:
            on = next((fr for fr in pending if _on_hyperplane(closure, fr)), None)
            if on is None:
                break
            closure = closure.with_rows(on.retained.any_hrep())
            pending = [
                fr for fr in pending
                if (fr.normal, fr.offset) != (on.normal, on.offset)
            ]
        if closure.is_empty:
            return closure
        keep = [
            fr for fr in pending
            if _generator_witness(
                closure, integer_rows([(fr.normal, fr.offset)])[0], strict=False
            )
            or strict_feasible(
                closure.system().extended(eq=[(fr.normal, fr.offset)])
            ).feasible
        ]
        return BoundaryRestrictedPolyhedron(closure, keep) if keep else closure

    def __repr__(self):
        return (
            f"BoundaryRestrictedPolyhedron({self.closure!r}, "
            f"{len(self.restrictions)} restricted slice(s))"
        )


# -- cells: relatively open pieces behind an affine map --------------------


@dataclass(frozen=True)
class Cell:
    """Affine image of a linear system that may carry strict rows.

    The represented subset of the target space is
    {M.u + o : u satisfies system (strict rows strictly)}.
    Every exact set query on boundary-restricted data is pulled back
    through cells, so nothing non-closed is ever projected.  An identity
    cell (M = I, o = 0) is answered on its own rows, by integer evaluation
    at the point written over one denominator.  `identity_cell` makes an
    identity cell from its rows without building M, which it makes on its
    first read.  `is_identity` is computed on first read and kept, unless
    the cell was built with it, and so is the integer form of the rows, by
    the system.  `point` and `integer_point` are None: only a `PointCell`
    has them.
    """

    system: LinearSystem
    matrix: Mat
    offset: Vec

    point = None
    integer_point = None

    @property
    def target_dim(self) -> int:
        return len(self.offset)

    @property
    def lift_dim(self) -> int:
        return self.system.dim

    def __getattr__(self, name):
        """The matrix I of an identity cell made without one, built on its
        first read and kept; every other attribute is looked up as usual."""
        if name != "matrix":
            raise AttributeError(name)
        self.__dict__["matrix"] = _identity(self.target_dim)
        return self.matrix

    @cached_property
    def is_identity(self) -> bool:
        n = self.target_dim
        if self.lift_dim != n or any(x != 0 for x in self.offset):
            return False
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )

    def with_target_rows(self, le=(), eq=(), strict=()) -> "Cell":
        pull = lambda rows: tuple(
            (_pullback(self.matrix, c), Fraction(r) - dot(vec(c), self.offset))
            for c, r in rows
        )
        return Cell(
            self.system.extended(
                le=pull(le), eq=pull(eq), strict=pull(strict)
            ),
            self.matrix,
            self.offset,
        )

    def is_feasible(self) -> bool:
        return strict_feasible(self.system).feasible

    def member(self, x) -> bool:
        """Is x = M.u + o for some u of the system?

        An identity cell (M = I, o = 0) checks x against its rows directly,
        strict rows strictly, in integers as `Polyhedron.member` does; any
        other cell solves one strict LP."""
        return self._member(_coerce_point(self.target_dim, x))

    def _member(self, x: Vec) -> bool:
        """`member` for an x already coerced into the target space."""
        if self.is_identity:
            return self.system.holds_at(*integer_scaled(x))
        eye = _identity(len(x))
        return self.with_target_rows(
            eq=[(eye[i], x[i]) for i in range(len(x))]
        ).is_feasible()

    def closure_image(self) -> Polyhedron:
        """Closed polyhedron: image of the lift with strict rows relaxed and
        the bounds u_j >= 0 as rows."""
        lift = Polyhedron.from_hrep(
            self.lift_dim,
            [(n, r, LE) for n, r in self.system.le]
            + [(n, r, LE) for n, r in self.system.strict]
            + [(n, r, EQ) for n, r in self.system.eq]
            + [(tuple(-ONE if i == j else ZERO for i in range(self.lift_dim)), ZERO, LE)
               for j in self.system.nonneg],
        )
        return lift.affine_image(self.matrix, self.offset, self.target_dim)

    def compose(self, matrix: Mat, offset: Vec) -> "Cell":
        """Cell for y = matrix.(M.u + o) + offset."""
        matrix = tuple(vec(r) for r in matrix)
        new_m = tuple(_pullback(self.matrix, row) for row in matrix)
        new_o = vadd(matvec(matrix, self.offset), vec(offset))
        return Cell(self.system, new_m, new_o)


def _pullback(matrix: Mat, coeffs) -> Vec:
    """Row vector c -> c.M (coefficients over the lift variables)."""
    coeffs = vec(coeffs)
    if len(coeffs) != len(matrix):
        raise DimensionMismatch("pullback coefficient length mismatch")
    width = len(matrix[0]) if matrix else 0
    return tuple(
        sum((coeffs[i] * matrix[i][j] for i in range(len(matrix))), ZERO)
        for j in range(width)
    )


def _identity(dim) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim))


def identity_cell(system: LinearSystem) -> Cell:
    """The identity cell (M = I, o = 0) of the solution set of `system`,
    made straight from its rows, which it keeps as given and in order.  It
    is an identity cell by construction, so `is_identity` is set, not
    computed, and M is built only if it is read (`Cell.__getattr__`)."""
    cell = object.__new__(Cell)
    cell.__dict__.update(
        system=system, offset=zeros(system.dim), is_identity=True
    )
    return cell


class PointCell(Cell):
    """The cell {v} of one point v, as every cell of a finite program's
    W(0) is, made by `point_cell` with its `point` v and its
    `integer_point` (x, d), v over one denominator.  It answers from them:
    `member` by comparison with v, `is_feasible` with True and
    `closure_image` with the polyhedron whose one vertex is v.  Its system,
    the identity cell's unit rows y_i = v_i, is built only if it is read."""

    is_identity = True

    @cached_property
    def system(self) -> LinearSystem:
        """The unit rows y_i = v_i, last coordinate first, built from their
        integer form (d.e_i, x_i, d) for v = x / d."""
        x, d = self.integer_point
        n = len(x)
        return LinearSystem.from_integer_rows(n, eq=tuple(
            (tuple(d if j == i else 0 for j in range(n)), x[i], d)
            for i in range(n - 1, -1, -1)
        ))

    def _member(self, x: Vec) -> bool:
        return x == self.point

    def is_feasible(self) -> bool:
        return True

    def closure_image(self) -> Polyhedron:
        return Polyhedron(len(self.point), vrep=VRep((self.point,)))


def point_cell(v) -> PointCell:
    """The point cell {v}, with v and v over one denominator set, and
    neither its rows nor the matrix I built."""
    v = vec(v)
    cell = object.__new__(PointCell)
    cell.__dict__.update(point=v, integer_point=integer_scaled(v), offset=zeros(len(v)))
    return cell


def cell_of_polyhedron(p: Polyhedron) -> Cell:
    return identity_cell(p.system())


def as_cells(obj) -> tuple[Cell, ...]:
    """Decompose Polyhedron | BRP | iterable of cells into exact cells."""
    if isinstance(obj, Polyhedron):
        if obj.is_empty:
            return ()
        return (cell_of_polyhedron(obj),)
    if isinstance(obj, BoundaryRestrictedPolyhedron):
        frs = obj.restrictions
        closure = obj.closure.system()
        cells = []
        for k in range(len(frs) + 1):
            for on in combinations(range(len(frs)), k):
                sys_ = closure
                ok = True
                for i, fr in enumerate(frs):
                    if i in on:
                        if fr.retained.is_empty:
                            ok = False
                            break
                        sys_ = sys_.extended(eq=[(fr.normal, fr.offset)])
                        sys_ = sys_.extended(
                            le=[(r.normal, r.offset) for r in fr.retained.inequalities()],
                            eq=[(r.normal, r.offset) for r in fr.retained.equalities()],
                        )
                    else:
                        sys_ = sys_.extended(strict=[(fr.normal, fr.offset)])
                if ok:
                    cells.append(identity_cell(sys_))
        return tuple(cells)
    if isinstance(obj, Cell):
        return (obj,)
    return tuple(c for piece in obj for c in as_cells(piece))


@dataclass(frozen=True)
class Emptiness:
    empty: bool
    witness: Optional[Vec] = None

    def __bool__(self):
        return self.empty


def intersect_empty(parts, strict_halfspaces=()) -> Emptiness:
    """Exact emptiness of the intersection of parts and open half-spaces.

    Parts may be Polyhedron, BoundaryRestrictedPolyhedron, or cells.  Each
    combination of cells, one from each part, is tested with one
    strict-feasibility LP on the joint lifted system.
    """
    groups = [as_cells(p) for p in parts]
    if any(not g for g in groups):
        return Emptiness(True)
    dims = {g[0].target_dim for g in groups}
    if len(dims) != 1:
        raise DimensionMismatch("intersection parts in different dimensions")
    target = dims.pop()
    strict_rows = [(vec(n), Fraction(r)) for n, r in strict_halfspaces]
    for combo in product(*groups):
        # identity cells constrain the shared target variables directly
        offset_of = []
        pos = target
        for c in combo:
            if c.is_identity:
                offset_of.append(0)
            else:
                offset_of.append(pos)
                pos += c.lift_dim
        width = pos
        le, eq, strict, nonneg = [], [], [], []

        def emb(coeffs, at):
            row = [ZERO] * width
            for j, v in enumerate(coeffs):
                row[at + j] = v
            return tuple(row)

        for c, at in zip(combo, offset_of):
            for n, r in c.system.le:
                le.append((emb(n, at), r))
            for n, r in c.system.eq:
                eq.append((emb(n, at), r))
            for n, r in c.system.strict:
                strict.append((emb(n, at), r))
            nonneg += [at + j for j in c.system.nonneg]
            if c.is_identity:
                continue
            # y = M.u + o, one equality per target coordinate
            for i in range(target):
                row = [ZERO] * width
                row[i] = ONE
                for j in range(c.lift_dim):
                    row[at + j] = -c.matrix[i][j]
                eq.append((tuple(row), c.offset[i]))
        for n, r in strict_rows:
            strict.append((emb(n, 0), r))
        res = strict_feasible(
            LinearSystem(width, tuple(le), tuple(eq), tuple(strict), nonneg=nonneg)
        )
        if res.feasible:
            return Emptiness(False, res.witness[:target])
    return Emptiness(True)


def member(obj, x) -> bool:
    """Exact membership in a Polyhedron, a BoundaryRestrictedPolyhedron or a
    Cell, each of which answers for itself, or in the union of a sequence of
    them.  In a union x is coerced once and every cell of it answers on that
    one vector, a `PointCell` by comparison with its point."""
    if isinstance(obj, (Polyhedron, BoundaryRestrictedPolyhedron, Cell)):
        return obj.member(x)
    x = vec(x)
    return any(
        piece._member(_of_dim(piece.target_dim, x)) if isinstance(piece, Cell)
        else member(piece, x)
        for piece in obj
    )


def closure_generators(obj):
    """Vertices/rays/lines of the closure of a cell-decomposable set.

    A closed Polyhedron gives its own canonical V-representation; a
    boundary-restricted set or a cell gives those of its cells' closure
    images; a sequence gives its pieces' lists, concatenated in order.
    """
    if isinstance(obj, Polyhedron):
        v = obj.vrep
        return list(v.vertices), list(v.rays), list(v.lines)
    if isinstance(obj, (BoundaryRestrictedPolyhedron, Cell)):
        obj = [c.closure_image() for c in as_cells(obj)]
    verts, rays, lines = [], [], []
    for piece in obj:
        v, r, l = closure_generators(piece)
        verts += v
        rays += r
        lines += l
    return verts, rays, lines
