"""Problem file format: parse, validate, and canonically emit programs.

All numbers travel as exact "p/q" strings; emission is canonical (sorted
keys, two-space indent, trailing newline) so that emit(parse(file)) is
byte-identical for canonical files and reports can be hashed stably.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from .errors import ProblemFormatError
from .model import (
    AffineVectorProgram,
    DiscretePoint,
    DiscreteVectorProgram,
    OrderCone,
    Program,
    SetValuedPoint,
    SetValuedProgram,
    affine_map,
)
from .polyhedra import (
    EQ,
    LE,
    BoundaryRestrictedPolyhedron,
    BoundaryRestriction,
    HRow,
    Polyhedron,
    PolyhedralCone,
)
from .rational import fmt, rat

FORMAT_VERSION = 1
RELATIONS = {"<=": LE, "=": EQ}
RELATION_NAMES = {LE: "<=", EQ: "="}


def _fail(path, msg):
    raise ProblemFormatError(path, msg)


def _expect(cond, path, msg):
    if not cond:
        _fail(path, msg)


_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _parse_rat(value, path) -> Fraction:
    if not isinstance(value, str):
        _fail(path, f"expected a 'p/q' string, got {type(value).__name__}")
    if not _RAT_RE.match(value.strip()):
        _fail(path, f"not a 'p/q' rational: {value!r}")
    return rat(value)


def _parse_vec(value, width, path):
    _expect(isinstance(value, list), path, "expected a list of rationals")
    _expect(
        len(value) == width, path, f"expected {width} entries, got {len(value)}"
    )
    return tuple(_parse_rat(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_matrix(value, rows, cols, path):
    _expect(isinstance(value, list), path, "expected a list of rows")
    _expect(len(value) == rows, path, f"expected {rows} rows, got {len(value)}")
    return tuple(
        _parse_vec(row, cols, f"{path}[{i}]") for i, row in enumerate(value)
    )


def _parse_hrep(value, dim, path):
    _expect(isinstance(value, list), path, "expected a list of rows")
    rows = []
    for i, row in enumerate(value):
        p = f"{path}[{i}]"
        _expect(isinstance(row, dict), p, "row must be an object")
        rel = row.get("relation", "<=")
        _expect(rel in RELATIONS, f"{p}.relation", f"unknown relation {rel!r}")
        normal = _parse_vec(row.get("normal"), dim, f"{p}.normal")
        offset = _parse_rat(row.get("offset"), f"{p}.offset")
        rows.append((normal, offset, RELATIONS[rel]))
    return rows


def _parse_cone(value, dim, path) -> OrderCone:
    _expect(isinstance(value, dict), path, "expected an object")
    gens = value.get("generators")
    _expect(isinstance(gens, list) and gens, f"{path}.generators",
            "expected a nonempty list of generators")
    rays = [
        _parse_vec(g, dim, f"{path}.generators[{i}]") for i, g in enumerate(gens)
    ]
    try:
        return OrderCone(PolyhedralCone.from_generators(dim, rays))
    except Exception as e:
        _fail(path, f"invalid order cone: {e}")


def parse_problem(text: str) -> Program:
    """Parse and validate a problem file; raises ProblemFormatError with a
    field-path diagnostic on any defect."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError("$", f"invalid JSON: {e}") from None
    _expect(isinstance(data, dict), "$", "top level must be an object")
    _expect(data.get("version") == FORMAT_VERSION, "$.version",
            f"unsupported version {data.get('version')!r}")
    kind = data.get("kind")
    _expect(kind in ("affine", "discrete", "setvalued"), "$.kind",
            f"unknown kind {kind!r}")
    dims = data.get("dims")
    _expect(isinstance(dims, dict), "$.dims", "expected an object")
    for key in ("y", "z") + (("x",) if kind == "affine" else ()):
        _expect(
            isinstance(dims.get(key), int) and dims[key] >= 1,
            f"$.dims.{key}",
            "expected a positive integer",
        )
    ydim, zdim = dims["y"], dims["z"]
    y_plus = _parse_cone(data.get("y_plus"), ydim, "$.y_plus")
    z_plus = _parse_cone(data.get("z_plus"), zdim, "$.z_plus")

    if kind == "affine":
        xdim = dims["x"]
        omega_spec = data.get("omega")
        _expect(isinstance(omega_spec, dict), "$.omega", "expected an object")
        rows = _parse_hrep(omega_spec.get("h_rep", []), xdim, "$.omega.h_rep")
        closure = Polyhedron.from_hrep(xdim, rows)
        restrictions = []
        for i, fr in enumerate(omega_spec.get("facet_restrictions", [])):
            p = f"$.omega.facet_restrictions[{i}]"
            _expect(isinstance(fr, dict), p, "expected an object")
            idx = fr.get("facet")
            _expect(
                isinstance(idx, int) and 0 <= idx < len(rows),
                f"{p}.facet",
                "facet index out of range of omega.h_rep",
            )
            normal, offset, rel = rows[idx]
            _expect(rel == LE, f"{p}.facet", "restricted row must be an inequality")
            ret_spec = fr.get("retained")
            _expect(isinstance(ret_spec, dict), f"{p}.retained", "expected an object")
            ret_rows = _parse_hrep(
                ret_spec.get("h_rep", []), xdim, f"{p}.retained.h_rep"
            )
            retained = Polyhedron.from_hrep(xdim, ret_rows)
            restrictions.append(BoundaryRestriction(normal, offset, retained))
        try:
            omega = (
                BoundaryRestrictedPolyhedron(closure, restrictions)
                if restrictions
                else closure
            )
        except Exception as e:
            _fail("$.omega", f"invalid boundary restriction: {e}")
        fmap = data.get("f")
        gmap = data.get("g")
        _expect(isinstance(fmap, dict), "$.f", "expected an object")
        _expect(isinstance(gmap, dict), "$.g", "expected an object")
        f = affine_map(
            _parse_matrix(fmap.get("matrix"), ydim, xdim, "$.f.matrix"),
            _parse_vec(fmap.get("offset"), ydim, "$.f.offset"),
        )
        g = affine_map(
            _parse_matrix(gmap.get("matrix"), zdim, xdim, "$.g.matrix"),
            _parse_vec(gmap.get("offset"), zdim, "$.g.offset"),
        )
        try:
            return AffineVectorProgram(omega, f, g, y_plus, z_plus)
        except Exception as e:
            _fail("$", f"invalid program: {e}")

    points = data.get("points")
    _expect(isinstance(points, list) and points, "$.points",
            "expected a nonempty list")
    discrete = kind == "discrete"
    parsed = []
    for i, pt in enumerate(points):
        p = f"$.points[{i}]"
        _expect(isinstance(pt, dict), p, "expected an object")
        pid = pt.get("id")
        _expect(isinstance(pid, str) and pid, f"{p}.id", "expected an id string")
        if discrete:
            parsed.append(
                DiscretePoint(
                    pid,
                    _parse_vec(pt.get("f"), ydim, f"{p}.f"),
                    _parse_vec(pt.get("g"), zdim, f"{p}.g"),
                )
            )
            continue
        fvs = pt.get("f_values")
        gvs = pt.get("g_values")
        _expect(isinstance(fvs, list) and fvs, f"{p}.f_values", "nonempty list required")
        _expect(isinstance(gvs, list) and gvs, f"{p}.g_values", "nonempty list required")
        parsed.append(
            SetValuedPoint(
                pid,
                tuple(
                    _parse_vec(v, ydim, f"{p}.f_values[{j}]") for j, v in enumerate(fvs)
                ),
                tuple(
                    _parse_vec(v, zdim, f"{p}.g_values[{j}]") for j, v in enumerate(gvs)
                ),
            )
        )
    program = DiscreteVectorProgram if discrete else SetValuedProgram
    try:
        return program(parsed, y_plus, z_plus)
    except Exception as e:
        _fail("$.points", f"invalid program: {e}")


# -- emission -----------------------------------------------------------------


def _emit_vec(v):
    return [fmt(x) for x in v]


def _emit_hrep(rows):
    return [
        {
            "normal": _emit_vec(r.normal),
            "offset": fmt(r.offset),
            "relation": RELATION_NAMES[r.rel],
        }
        for r in rows
    ]


def problem_dict(p: Program) -> dict:
    """Canonical dictionary form of a program."""
    base = {
        "version": FORMAT_VERSION,
        "kind": p.kind,
        "y_plus": {"generators": [_emit_vec(g) for g in _cone_gens(p.y_plus)]},
        "z_plus": {"generators": [_emit_vec(g) for g in _cone_gens(p.z_plus)]},
    }
    if isinstance(p, AffineVectorProgram):
        omega = p.omega
        closure = omega.closure
        spec = {"h_rep": _emit_hrep(closure.hrep)}
        if isinstance(omega, BoundaryRestrictedPolyhedron):
            restrictions = []
            for fr in omega.restrictions:
                row = HRow(fr.normal, fr.offset, LE)
                if row not in closure.hrep:
                    raise ProblemFormatError(
                        "$.omega",
                        "restriction row is not a canonical facet; not serializable",
                    )
                hidx = closure.hrep.index(row)
                restrictions.append(
                    {"facet": hidx, "retained": {"h_rep": _emit_hrep(fr.retained.hrep)}}
                )
            spec["facet_restrictions"] = restrictions
        base.update(
            {
                "dims": {"x": p.x_dim, "y": p.y_dim, "z": p.z_dim},
                "omega": spec,
                "f": {
                    "matrix": [_emit_vec(r) for r in p.f.matrix],
                    "offset": _emit_vec(p.f.offset),
                },
                "g": {
                    "matrix": [_emit_vec(r) for r in p.g.matrix],
                    "offset": _emit_vec(p.g.offset),
                },
            }
        )
        return base
    base["dims"] = {"y": p.y_dim, "z": p.z_dim}
    if p.kind == "discrete":
        base["points"] = [
            {"id": pt.point_id, "f": _emit_vec(pt.f_value), "g": _emit_vec(pt.g_value)}
            for pt in p.points
        ]
    else:
        base["points"] = [
            {
                "id": pt.point_id,
                "f_values": [_emit_vec(v) for v in pt.f_values],
                "g_values": [_emit_vec(v) for v in pt.g_values],
            }
            for pt in p.points
        ]
    return base


def _cone_gens(c: OrderCone):
    gens = list(c.generators)
    for l in c.lineality:
        gens.append(l)
        gens.append(tuple(-x for x in l))
    return gens


def emit_problem(p: Program) -> str:
    return json.dumps(problem_dict(p), sort_keys=True, indent=2) + "\n"


def instance_hash(p: Program) -> str:
    return hashlib.sha256(emit_problem(p).encode()).hexdigest()


def load_problem(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())
