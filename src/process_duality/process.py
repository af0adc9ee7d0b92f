"""Separator cone and the Lagrange process.

The separator cone at (0, y0) is the positive polar of the graph of the
upper image shifted to the candidate point (computed from the closure, since
separating functionals are continuous).  Each separator h = (z*, y*) defines
the half-space process {(z, y) : <z*, z> - <y*, y> <= 0}, and the Lagrange
process is the intersection of these half-spaces over the generators, or the
whole space Z x Y when no separator exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from ._dd import cone_dd
from .errors import (
    DegenerateFunctional,
    DimensionMismatch,
    SlaterMissing,
)
from .polyhedra import (
    EQ,
    LE,
    Polyhedron,
    PolyhedralCone,
)
from .rational import Vec, dot, is_zero_vec, quotients, vec, vsub, zeros


@dataclass(frozen=True)
class Separator:
    """Functional h(z, y) = <z_star, z> + <y_star, y> on Z x Y."""

    z_star: Vec
    y_star: Vec

    def __post_init__(self):
        if is_zero_vec(self.z_star) and is_zero_vec(self.y_star):
            raise DegenerateFunctional("separator must be nonzero")

    def value(self, z, y) -> Fraction:
        return dot(self.z_star, z) + dot(self.y_star, y)

    @property
    def vector(self) -> Vec:
        return tuple(self.z_star) + tuple(self.y_star)


@dataclass(frozen=True)
class SeparatorCone:
    """Generators of the closed separator cone at y0; S itself is this cone
    minus the origin."""

    z_dim: int
    y_dim: int
    y0: Vec
    generators: tuple[Separator, ...]

    @property
    def empty_flag(self) -> bool:
        return not self.generators


@dataclass(frozen=True)
class NonverticalVerdict:
    ok: bool
    offenders: tuple[int, ...] = ()


@dataclass(frozen=True)
class LagrangeProcess:
    """Closed convex process Z => Y, represented by its graph cone."""

    z_dim: int
    y_dim: int
    graph: PolyhedralCone
    source: SeparatorCone

    @property
    def is_whole_space(self) -> bool:
        return self.source.empty_flag

    def __call__(self, z) -> Polyhedron:
        return process_eval(self, z)


def separator_cone(graph_w, y0) -> SeparatorCone:
    """Positive polar of cone(closure(Graph(W_{Y+})) - (0, y0)).

    Only the closure of the graph matters here (every separator is
    continuous), so boundary restrictions are dropped, and callers may pass
    the closure (`model.graph_closure`) directly.  A polar depends on the
    cone alone, and `cone_dd` returns one canonical form for any generating
    set, so the closure's generators are read as built (`any_vrep`).  Lines
    of the polar contribute a +- pair of generators.
    """
    closure = graph_w.closure
    dim = closure.dim
    y0 = vec(y0)
    z_dim = dim - len(y0)
    if z_dim < 0:
        raise DimensionMismatch("y0 longer than the graph dimension")
    shift = zeros(z_dim) + tuple(y0)
    v = closure.any_vrep()
    gens = [vsub(x, shift) for x in v.vertices] + list(v.rays)
    # Positive polar: <h, g> >= 0 for generators, <h, l> = 0 for lines.
    ineq = [tuple(-x for x in g) for g in gens if not is_zero_vec(g)]
    eq = [tuple(l) for l in v.lines]
    lines, rays = cone_dd(dim, ineq, eq)
    seps = []
    for r in rays:
        r = quotients(r, 1)
        seps.append(Separator(r[:z_dim], r[z_dim:]))
    for l in lines:
        l = quotients(l, 1)
        seps.append(Separator(l[:z_dim], l[z_dim:]))
        seps.append(Separator(tuple(-x for x in l[:z_dim]), tuple(-x for x in l[z_dim:])))
    return SeparatorCone(z_dim, len(y0), y0, tuple(seps))


def check_nonvertical(s: SeparatorCone, slater_witness) -> NonverticalVerdict:
    """Every generator must have y* != 0 under the Slater qualification.

    A failure would contradict the separation guarantee, so offenders
    are reported as an internal-consistency violation rather than silently
    accepted.
    """
    if slater_witness is None:
        raise SlaterMissing("nonverticality requires a Slater witness")
    offenders = tuple(
        i for i, h in enumerate(s.generators) if is_zero_vec(h.y_star)
    )
    return NonverticalVerdict(not offenders, offenders)


def halfspace_process(h: Separator) -> PolyhedralCone:
    """Graph of L_h: the half-space {(z, y) : h(z, -y) <= 0}."""
    normal = tuple(h.z_star) + tuple(-c for c in h.y_star)
    dim = len(normal)
    return PolyhedralCone.from_normals(dim, ineq_normals=[normal])


def fiber_bar(h: Separator, z) -> Polyhedron:
    """The affine slice {y : h(z, -y) = 0} = {y : <y*, y> = <z*, z>}."""
    if is_zero_vec(h.y_star):
        raise DegenerateFunctional("fiber of a vertical separator")
    z = vec(z)
    rhs = dot(h.z_star, z)
    return Polyhedron.from_hrep(len(h.y_star), [(h.y_star, rhs, EQ)])


def lagrange_process(s: SeparatorCone) -> LagrangeProcess:
    """Intersection of the generator half-spaces; Z x Y when S is empty.

    Intersecting over the generators suffices: h -> {h(z,-y) <= 0} is linear
    in h, so every positive combination of generators yields an implied
    half-space (tested as a property).
    """
    dim = s.z_dim + s.y_dim
    if s.empty_flag:
        graph = PolyhedralCone.full_space(dim)
        return LagrangeProcess(s.z_dim, s.y_dim, graph, s)
    normals = [n for h in s.generators for n, _ in halfspace_process(h).system().le]
    graph = PolyhedralCone.from_normals(dim, ineq_normals=normals)
    return LagrangeProcess(s.z_dim, s.y_dim, graph, s)


def process_eval(L: LagrangeProcess, z) -> Polyhedron:
    """The fiber {y : (z, y) in Graph(L)}."""
    z = vec(z)
    if len(z) != L.z_dim:
        raise DimensionMismatch("process evaluated at a wrong-width z")
    rows = []
    for row in L.graph.any_hrep():
        normal = row.normal[L.z_dim :]
        rhs = row.offset - dot(row.normal[: L.z_dim], z)
        if is_zero_vec(normal):
            if (row.rel == LE and rhs < 0) or (row.rel == EQ and rhs != 0):
                return Polyhedron.empty(L.y_dim)
            continue
        rows.append((normal, rhs, row.rel))
    return Polyhedron.from_hrep(L.y_dim, rows)
