"""Problem file format: parse, validate, and canonically emit programs.

All numbers travel as exact "p/q" strings; emission is canonical (sorted
keys, two-space indent, trailing newline) so that emit(parse(file)) is
byte-identical for canonical files and reports can be hashed stably.
`canonical_json` is the one JSON writer of the package: problem files,
instance hashes, fuzz bundles and every CLI report are its output.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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
from .rational import fmt

FORMAT_VERSION = 1
RELATIONS = {"<=": LE, "=": EQ}
RELATION_NAMES = {LE: "<=", EQ: "="}


def _fail(path, msg):
    raise ProblemFormatError(path, msg)


def _expect(cond, path, msg):
    if not cond:
        _fail(path, msg)


_RAT_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def _where(path, parts) -> str:
    """The field path `path` followed by `parts`: an int i as [i], a string
    as it is.  Made only for a message, so a valid file formats none."""
    return path + "".join(p if isinstance(p, str) else f"[{p}]" for p in parts)


def _parse_rat(value, path, *parts) -> Fraction:
    """The rational of a 'p/q' string, built from the integers the format
    check matched; the field is `_where(path, parts)`."""
    m = _RAT_RE.match(value.strip()) if isinstance(value, str) else None
    if m is None:
        where = _where(path, parts)
        if not isinstance(value, str):
            _fail(where, f"expected a 'p/q' string, got {type(value).__name__}")
        _fail(where, f"not a 'p/q' rational: {value!r}")
    num, den = m.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _parse_vec(value, width, path, *parts):
    if not isinstance(value, list):
        _fail(_where(path, parts), "expected a list of rationals")
    if len(value) != width:
        _fail(_where(path, parts), f"expected {width} entries, got {len(value)}")
    return tuple(_parse_rat(v, path, *parts, i) for i, v in enumerate(value))


def _parse_matrix(value, rows, cols, path):
    _expect(isinstance(value, list), path, "expected a list of rows")
    _expect(len(value) == rows, path, f"expected {rows} rows, got {len(value)}")
    return tuple(_parse_vec(row, cols, path, i) for i, row in enumerate(value))


def _parse_hrep(value, dim, path):
    _expect(isinstance(value, list), path, "expected a list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, dict):
            _fail(_where(path, (i,)), "row must be an object")
        rel = row.get("relation", "<=")
        if rel not in RELATIONS:
            _fail(_where(path, (i, ".relation")), f"unknown relation {rel!r}")
        normal = _parse_vec(row.get("normal"), dim, path, i, ".normal")
        offset = _parse_rat(row.get("offset"), path, i, ".offset")
        rows.append((normal, offset, RELATIONS[rel]))
    return rows


def _parse_cone(value, dim, path) -> OrderCone:
    _expect(isinstance(value, dict), path, "expected an object")
    gens = value.get("generators")
    _expect(isinstance(gens, list) and gens, f"{path}.generators",
            "expected a nonempty list of generators")
    rays = [_parse_vec(g, dim, path, ".generators", i) for i, g in enumerate(gens)]
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
    if zdim == ydim and data.get("z_plus") == data.get("y_plus"):
        z_plus = y_plus
    else:
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
                    _parse_vec(pt.get("f"), ydim, p, ".f"),
                    _parse_vec(pt.get("g"), zdim, p, ".g"),
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
                    _parse_vec(v, ydim, p, ".f_values", j) for j, v in enumerate(fvs)
                ),
                tuple(
                    _parse_vec(v, zdim, p, ".g_values", j) for j, v in enumerate(gvs)
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


def canonical_json(data) -> str:
    """`json.dumps(data, sort_keys=True, indent=2)`, byte for byte, for data
    made of dicts with str keys, lists, tuples, str, int, bool and None;
    TypeError on anything else.  The standard encoder runs in Python when
    it indents; this writes the same text with less work per value."""
    out = []
    _write(data, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list):
    """Append the text of `value` to `out`; `newline` is a line break and
    the indent of the enclosing level."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object key of type {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"not canonical JSON data: {type(value).__name__}")


def emit_problem(p: Program) -> str:
    return canonical_json(problem_dict(p)) + "\n"


def instance_hash(p: Program) -> str:
    return hashlib.sha256(emit_problem(p).encode()).hexdigest()


def load_problem(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())
