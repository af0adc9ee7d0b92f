"""Randomized falsification harness for the transfer theorems.

Generates random affine instances with an enforced Slater point, certifies
every frontier candidate, and reports any applicable clause that fails to
verify.  The theorems themselves are the oracle: a violation is an
implementation bug, never a counterexample to the mathematics, so the bundle
produced here is a debugging artifact.  A greedy shrinker reduces failing
instances before reporting.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import process as _process
from .certify import ProgramContext, certify_multiplier, minimal_frontier_points
from .errors import EmptyFeasibleError, ProcessDualityError
from .model import (
    AffineVectorProgram,
    DiscretePoint,
    DiscreteVectorProgram,
    OrderCone,
    SetValuedPoint,
    SetValuedProgram,
    affine_map,
)
from .polyhedra import LE, Polyhedron, PolyhedralCone
from .problemfile import emit_problem
from .process import Separator, halfspace_process
from .rational import Vec, fmt_vector


def random_order_cone(rng: random.Random, dim: int, max_gens: int = 6) -> OrderCone:
    """Random full-dimensional proper polyhedral cone from random normals,
    with at most max_gens generators (rays plus lineality directions); the
    orthant after 60 failed draws."""
    for _ in range(60):
        nrows = rng.randint(1, max(1, 2 * dim))
        normals = []
        for _ in range(nrows):
            n = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(n):
                normals.append(n)
        if not normals:
            continue
        cone = PolyhedralCone.from_normals(dim, ineq_normals=normals)
        # The rows are homogeneous, so {x : n.x < 0 for every n} is nonempty
        # exactly when the cone is full-dimensional: no canonical equality.
        # A nonzero normal keeps the cone a proper subset of the space.
        if cone.equalities():
            continue
        if len(cone.generators) + 2 * len(cone.lineality) > max_gens:
            continue
        return OrderCone(cone)
    # orthant fallback keeps the harness total
    return OrderCone(
        PolyhedralCone.from_normals(
            dim, ineq_normals=[tuple(-int(i == j) for j in range(dim)) for i in range(dim)]
        )
    )


def random_affine_instance(rng: random.Random, dims=(2, 2, 1)) -> AffineVectorProgram:
    """Box-with-cuts Omega, integer affine maps, Slater point enforced at 0:
    g(0) = -w for Z_+'s `interior_witness` w, the sum of its extreme rays."""
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
            rows.append((normal, rng.randint(1, 4), LE))  # keeps 0 interior
    omega = Polyhedron.from_hrep(dx, rows)
    y_plus = random_order_cone(rng, dy)
    z_plus = random_order_cone(rng, dz)
    f = affine_map(
        [[rng.randint(-2, 2) for _ in range(dx)] for _ in range(dy)],
        [rng.randint(-2, 2) for _ in range(dy)],
    )
    g_matrix = [[rng.randint(-2, 2) for _ in range(dx)] for _ in range(dz)]
    g = affine_map(g_matrix, tuple(-x for x in z_plus.interior_witness))
    return AffineVectorProgram(omega, f, g, y_plus, z_plus)


def random_discrete_instance(rng: random.Random, dims=(2, 1), max_points=6):
    dy, dz = dims
    y_plus = random_order_cone(rng, dy)
    z_plus = random_order_cone(rng, dz)
    pts = [
        DiscretePoint(
            f"p{i}",
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(dy)),
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(dz)),
        )
        for i in range(rng.randint(1, max_points))
    ]
    return DiscreteVectorProgram(pts, y_plus, z_plus)


def random_setvalued_instance(rng: random.Random, dims=(2, 1), max_points=4):
    dy, dz = dims
    y_plus = random_order_cone(rng, dy)
    z_plus = random_order_cone(rng, dz)
    pts = []
    for i in range(rng.randint(1, max_points)):
        pts.append(
            SetValuedPoint(
                f"p{i}",
                tuple(
                    tuple(Fraction(rng.randint(-3, 3)) for _ in range(dy))
                    for _ in range(rng.randint(1, 2))
                ),
                tuple(
                    tuple(Fraction(rng.randint(-3, 3)) for _ in range(dz))
                    for _ in range(rng.randint(1, 2))
                ),
            )
        )
    return SetValuedProgram(pts, y_plus, z_plus)


# -- clause checking ----------------------------------------------------------


@dataclass
class Violation:
    y0: Optional[Vec]
    clause_ids: tuple[str, ...]
    detail: str


def check_instance(p: AffineVectorProgram) -> list[Violation]:
    """Certify every frontier candidate; collect violated applicable clauses."""
    out = []
    ctx = ProgramContext(p)
    try:
        _, points, _ = minimal_frontier_points(ctx)
    except EmptyFeasibleError:
        return out
    for y0 in points:
        try:
            cert = certify_multiplier(ctx, y0, with_witnesses=False)
        except ProcessDualityError as e:
            out.append(Violation(y0, ("exception",), repr(e)))
            continue
        bad = tuple(c.clause_id for c in cert.clauses if c.verdict == "violated")
        if bad:
            out.append(Violation(y0, bad, "clause violation"))
    return out


def shrink_instance(p: AffineVectorProgram) -> AffineVectorProgram:
    """Greedy reduction keeping at least one violation alive, within a
    budget of 200 candidate reductions."""

    def still_failing(q) -> bool:
        try:
            return bool(check_instance(q))
        except ProcessDualityError:
            return True

    current = p
    budget = 200
    improved = True
    while improved and budget > 0:
        improved = False
        for candidate in _reductions(current):
            budget -= 1
            if budget <= 0:
                break
            try:
                if still_failing(candidate):
                    current = candidate
                    improved = True
                    break
            except Exception:
                continue
    return current


def _reductions(p: AffineVectorProgram):
    omega = p.omega
    if isinstance(omega, Polyhedron) and len(omega.hrep) > 1:
        for i in range(len(omega.hrep)):
            rows = [r for j, r in enumerate(omega.hrep) if j != i]
            try:
                yield AffineVectorProgram(
                    Polyhedron.from_hrep(omega.dim, rows), p.f, p.g, p.y_plus, p.z_plus
                )
            except ProcessDualityError:
                continue
    for attr in ("f", "g"):
        m = getattr(p, attr)
        for i, row in enumerate(m.matrix):
            for j, v in enumerate(row):
                if v == 0:
                    continue
                new_rows = [list(r) for r in m.matrix]
                new_rows[i][j] = 0
                new_map = affine_map(new_rows, m.offset)
                try:
                    if attr == "f":
                        yield AffineVectorProgram(omega, new_map, p.g, p.y_plus, p.z_plus)
                    else:
                        yield AffineVectorProgram(omega, p.f, new_map, p.y_plus, p.z_plus)
                except ProcessDualityError:
                    continue


# -- defect injection (harness sensitivity testing) ---------------------------


DEFECTS = ("sign-flip-halfspace",)


@contextmanager
def injected_defect(name: Optional[str]):
    """Deliberately wrong kernels, used to prove the harness catches bugs."""
    if not name:
        yield
        return
    if name == "sign-flip-halfspace":
        def flipped(h: Separator):
            return halfspace_process(Separator(h.z_star, tuple(-v for v in h.y_star)))

        original = _process.halfspace_process
        _process.halfspace_process = flipped
        try:
            yield
        finally:
            _process.halfspace_process = original
        return
    raise ValueError(f"unknown defect {name!r}; known: {DEFECTS}")


# -- driver -------------------------------------------------------------------


@dataclass
class FuzzReport:
    instances_checked: int
    counterexample: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def run_fuzz(seed: int, count: int, dims=(2, 2, 1),
             defect: Optional[str] = None) -> FuzzReport:
    """Deterministic per-instance seeding; stops at the first violation."""
    with injected_defect(defect):
        for i in range(count):
            rng = random.Random(seed * 1_000_003 + i)
            p = random_affine_instance(rng, dims)
            violations = check_instance(p)
            if violations:
                shrunk = shrink_instance(p)
                sviol = check_instance(shrunk) or violations
                v = sviol[0]
                bundle = {
                    "instance_index": i,
                    "seed": seed,
                    "problem": emit_problem(shrunk),
                    "y0": fmt_vector(v.y0) if v.y0 is not None else None,
                    "clauses": list(v.clause_ids),
                    "detail": v.detail,
                    "note": (
                        "a violated applicable clause is an implementation "
                        "bug, not a counterexample to the theorems"
                    ),
                }
                return FuzzReport(i + 1, bundle)
    return FuzzReport(count)
