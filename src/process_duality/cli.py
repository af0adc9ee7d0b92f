"""Command-line interface.

Subcommands: certify, process, classify, frontier, fuzz.  Reports are
canonical JSON (sorted keys, "p/q" rationals) or a short text rendering.
Exit codes: 0 all applicable clauses verified / check passed, 1 an applicable
clause violated (counterexample emitted), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .certify import (
    Certificate,
    EfficiencyStatus,
    ProgramContext,
    _classify,
    certify_multiplier,
    classify_proper,
    dual_frontier,
    dual_image,
    minimal_frontier,
    minimal_frontier_points,
)
from .errors import NotInW0Error, ProblemFormatError, ProcessDualityError
from .fuzzing import DEFECTS, run_fuzz
from .polyhedra import Polyhedron, _of_dim, member
from .problemfile import _emit_hrep, _emit_vec, instance_hash, load_problem
from .process import SeparatorCone, lagrange_process, separator_cone
from .rational import fmt, parse_vector

TOOL = {"name": "process-duality", "version": __version__}


def _emit_vrep(p: Polyhedron):
    v = p.vrep
    return {
        "vertices": [_emit_vec(x) for x in v.vertices],
        "rays": [_emit_vec(x) for x in v.rays],
        "lines": [_emit_vec(x) for x in v.lines],
    }


def _emit_separators(s: SeparatorCone):
    return {
        "empty": s.empty_flag,
        "generators": [
            {"z_star": _emit_vec(h.z_star), "y_star": _emit_vec(h.y_star)}
            for h in s.generators
        ],
    }


def _emit_status(s: EfficiencyStatus):
    out = {
        "minimal": s.minimal,
        "weak_minimal": s.weak_minimal,
        "pos": s.pos,
        "ghe": s.ghe,
        "he": s.he,
        "se": s.se,
    }
    wit = {}
    for key, val in s.witnesses.items():
        if isinstance(val, tuple):
            wit[key] = _emit_vec(val)
        elif hasattr(val, "numerator"):
            wit[key] = fmt(val)
        else:
            wit[key] = val
    out["witnesses"] = wit
    return out


def _emit_certificate(cert: Certificate, digest: str) -> dict:
    dual = cert.dual_image
    if isinstance(dual, Polyhedron):
        dual_repr = {"h_rep": _emit_hrep(dual.hrep)}
    else:
        dual_repr = {"union_pieces": len(dual)}
    return {
        "report": "certificate",
        "tool": TOOL,
        "instance_hash": digest,
        "y0": _emit_vec(cert.y0),
        "slater": {
            "found": cert.slater_witness is not None,
            "witness": (
                _emit_vec(cert.slater_witness)
                if isinstance(cert.slater_witness, tuple)
                else cert.slater_witness
            ),
        },
        "convex_relaxation": cert.convex_relaxation,
        "separators": _emit_separators(cert.separators),
        "nonvertical_ok": cert.nonvertical_ok,
        "process_graph": {
            "whole_space": cert.process.is_whole_space,
            "h_rep": _emit_hrep(cert.process.graph.hrep),
            "v_rep": _emit_vrep(cert.process.graph),
        },
        "graph_structure": {
            "lineality_dim": cert.graph_structure.lineality_dim,
            "is_pointed": cert.graph_structure.is_pointed,
            "has_bounded_base": cert.graph_structure.has_bounded_base,
        },
        "dual_image": dual_repr,
        "status_P0": _emit_status(cert.status_P0),
        "status_D": _emit_status(cert.status_D),
        "recovered_multiplier": (
            [_emit_vec(m) for m in cert.recovered_multiplier]
            if cert.recovered_multiplier
            else None
        ),
        "clauses": [
            {"id": c.clause_id, "applicable": c.applicable, "verdict": c.verdict,
             "note": c.note}
            for c in cert.clauses
        ],
        "verdict": "violation" if cert.has_violation else "all-applicable-verified",
    }


def _dump(data, as_json, out=None):
    out = out if out is not None else sys.stdout
    if as_json:
        out.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        _render_text(data, out)


def _is_flat(seq):
    return isinstance(seq, list) and all(
        not isinstance(v, (dict, list)) for v in seq
    )


def _render_text(data, out, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            val = data[key]
            if _is_flat(val):
                out.write(f"{pad}{key}: [{', '.join(str(v) for v in val)}]\n")
            elif isinstance(val, (dict, list)):
                out.write(f"{pad}{key}:\n")
                _render_text(val, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {val}\n")
    elif isinstance(data, list):
        for val in data:
            if _is_flat(val):
                out.write(f"{pad}- [{', '.join(str(v) for v in val)}]\n")
            elif isinstance(val, (dict, list)):
                _render_text(val, out, indent)
            else:
                out.write(f"{pad}- {val}\n")
    else:
        out.write(f"{pad}{data}\n")


def _load(path):
    try:
        return load_problem(path)
    except FileNotFoundError:
        raise ProblemFormatError(path, "file not found")
    except IsADirectoryError:
        raise ProblemFormatError(path, "is a directory")


def _y0(args, problem):
    """--y0 as a point of the problem's objective space Y."""
    try:
        y0 = parse_vector(args.y0)
    except (ValueError, ZeroDivisionError):
        raise ProblemFormatError("--y0", f"not a rational vector: {args.y0!r}")
    return _of_dim(problem.y_dim, y0)


def _w0_point(args, ctx):
    """--y0 as a point of W(0); NotInW0Error for a y0 that no feasible
    point attains, before anything is built at it."""
    y0 = _y0(args, ctx.program)
    if not member(ctx.cells, y0):
        raise NotInW0Error(f"{args.y0} is not attained by a feasible point")
    return y0


def _nonnegative(option, value):
    if value < 0:
        raise ProblemFormatError(option, "expected a nonnegative integer")
    return value


def _y0_list(ctx, args):
    if args.frontier:
        _, points, truncated = minimal_frontier_points(
            ctx, _nonnegative("--limit", args.limit)
        )
        return list(points), truncated
    if args.y0 is None:
        raise ProblemFormatError("--y0", "either --y0 or --frontier is required")
    return [_y0(args, ctx.program)], False


def cmd_certify(args) -> int:
    problem = _load(args.problem)
    ctx = ProgramContext(problem)
    points, truncated = _y0_list(ctx, args)
    digest = instance_hash(problem)
    reports = []
    worst = 0
    for y0 in points:
        cert = certify_multiplier(ctx, y0)
        reports.append(_emit_certificate(cert, digest))
        if cert.has_violation:
            worst = 1
    payload = reports[0] if len(reports) == 1 and not args.frontier else {
        "report": "certificates",
        "tool": TOOL,
        "count": len(reports),
        "truncated": truncated,
        "certificates": reports,
    }
    _dump(payload, args.json)
    return worst


def cmd_process(args) -> int:
    problem = _load(args.problem)
    if args.y0 is None:
        raise ProblemFormatError("--y0", "required for the process command")
    ctx = ProgramContext(problem)
    y0 = _w0_point(args, ctx)
    s = separator_cone(ctx.graph, y0)
    L = lagrange_process(s)
    payload = {
        "report": "process",
        "tool": TOOL,
        "instance_hash": instance_hash(problem),
        "y0": _emit_vec(y0),
        "separators": _emit_separators(s),
        "graph": (
            {"whole_space": True, "note": "Graph(L) = Z x Y"}
            if L.is_whole_space
            else {
                "whole_space": False,
                "h_rep": _emit_hrep(L.graph.hrep),
                "v_rep": _emit_vrep(L.graph),
            }
        ),
    }
    _dump(payload, args.json)
    return 0


def cmd_classify(args) -> int:
    problem = _load(args.problem)
    if args.y0 is None:
        raise ProblemFormatError("--y0", "required for the classify command")
    ctx = ProgramContext(problem)
    y0 = _w0_point(args, ctx)
    payload = {
        "report": "classification",
        "tool": TOOL,
        "instance_hash": instance_hash(problem),
        "y0": _emit_vec(y0),
        "side": args.side,
    }
    if args.side in ("P", "both"):
        payload["status_P"] = _emit_status(
            _classify(ctx.cells, y0, problem.y_plus, closure=ctx.closure)
        )
    if args.side in ("D", "both"):
        L = lagrange_process(separator_cone(ctx.graph, y0))
        payload["status_D"] = _emit_status(
            classify_proper(dual_image(ctx, L), y0, problem.y_plus)
        )
    if args.side == "both":
        p, d = payload["status_P"], payload["status_D"]
        payload["transfer"] = {
            key: p[key] == d[key] for key in ("minimal", "weak_minimal", "pos", "ghe", "he", "se")
        }
    _dump(payload, args.json)
    return 0


def cmd_frontier(args) -> int:
    problem = _load(args.problem)
    if args.side == "P":
        frontier = minimal_frontier(problem, _nonnegative("--limit", args.limit))
    else:
        if args.y0 is None:
            raise ProblemFormatError(
                "--y0", "the dual-side frontier needs the y0 that builds L"
            )
        ctx = ProgramContext(problem)
        L = lagrange_process(separator_cone(ctx.graph, _w0_point(args, ctx)))
        frontier = dual_frontier(ctx, L, _nonnegative("--limit", args.limit))
    payload = {
        "report": "frontier",
        "tool": TOOL,
        "instance_hash": instance_hash(problem),
        "side": args.side,
        "minimal_points": [
            {"point": _emit_vec(fp.point), "status": _emit_status(fp.status)}
            for fp in frontier.points
        ],
        "count": len(frontier.points),
        "truncated": frontier.truncated,
    }
    _dump(payload, args.json)
    return 0


def cmd_fuzz(args) -> int:
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ProblemFormatError("--dims", "expected dx,dy,dz positive integers")
    count = _nonnegative("--count", args.count)
    report = run_fuzz(args.seed, count, dims, defect=args.inject_defect)
    payload = {
        "report": "fuzz",
        "tool": TOOL,
        "seed": args.seed,
        "count": args.count,
        "dims": list(dims),
        "instances_checked": report.instances_checked,
        "ok": report.ok,
    }
    if not report.ok:
        payload["counterexample"] = report.counterexample
    _dump(payload, args.json)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="process-duality",
        description=(
            "Set-valued Lagrange multipliers for polyhedral convex vector "
            "programs: build the separator cone and the Lagrange process, "
            "form the dual program, and certify minimality transfer."
        ),
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_y0=True):
        p.add_argument("problem", help="problem file (JSON)")
        if needs_y0:
            p.add_argument(
                "--y0",
                help="candidate value, e.g. '0/1,0/1'; write a negative first "
                "coordinate as --y0=-1/1,0/1 (a bare -1/1 reads as an option)",
            )
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--text", dest="json", action="store_false",
                       help="text output (default)")
        p.set_defaults(json=False)

    c = sub.add_parser("certify", help="certify all transfer clauses at y0")
    common(c)
    c.add_argument("--frontier", action="store_true",
                   help="certify every minimal frontier vertex instead of --y0")
    c.add_argument("--limit", type=int, default=10000,
                   help="frontier vertex cap (default 10000)")
    c.set_defaults(func=cmd_certify)

    c = sub.add_parser("process", help="print separator generators and Graph(L)")
    common(c)
    c.set_defaults(func=cmd_process)

    c = sub.add_parser("classify", help="efficiency status on side P, D, or both")
    common(c)
    c.add_argument("--side", choices=["P", "D", "both"], default="both")
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("frontier", help="minimal vertices of the upper image")
    common(c)
    c.add_argument("--side", choices=["P", "D"], default="P")
    c.add_argument("--limit", type=int, default=10000,
                   help="vertex cap with explicit truncation flag")
    c.set_defaults(func=cmd_frontier)

    c = sub.add_parser("fuzz", help="randomized falsification of the theorems")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--count", type=int, default=100)
    c.add_argument("--dims", default="2,2,1", help="dx,dy,dz (default 2,2,1)")
    c.add_argument("--inject-defect", choices=list(DEFECTS), default=None,
                   help="testing aid: run with a deliberately broken kernel")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_fuzz, json=True)

    return ap


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command.  The parser is built on the first call and read by
    every later one in the process: parsing keeps no state in it."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ProcessDualityError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
