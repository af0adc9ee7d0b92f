"""The benchmark's workloads: input generation, the timed item, and its checks.

Each workload maps `(seed, sample)` to a list of items.  `prepare` builds them
(this is set-up time), `run_item` is the timed work, `check_item` is the
untimed correctness gate, and `digest` condenses one output so that two
commits can be compared item by item.  Every call into the package goes
through a module attribute (`certify.is_minimal`, not a from-import), so the
tracer's rebinding sees it.

Why each workload exists, and how it is sized, is in README.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from process_duality import certify, cli, exactlp, fuzzing, model, polyhedra, problemfile

PACKAGE_DIR = Path(cli.__file__).resolve().parent


@dataclass
class Item:
    key: str
    payload: object


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- frontier ----------------------------------------------------------------

# Criterion 3's program stream.  The pool is fixed: per-program cost spans
# three orders of magnitude, so a batch drawn afresh per seed would move
# items_per_s far more than any code change (see README.md).  Programs 3 and
# 5 are left out because each alone takes longer than a whole sample.
CRITERION_3_SEED = 424242
FRONTIER_POOL = tuple(i for i in range(16) if i not in (3, 5))
BUNDLED = ("worked_example", "i3", "scalar_i2")
BOUNDARY_SHARE = 0.25


def criterion_3_program(i: int):
    """Program i of criterion 3; about a quarter get a restricted boundary."""
    rng = random.Random(CRITERION_3_SEED * 1_000_003 + i)
    dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
    p = fuzzing.random_affine_instance(rng, dims)
    if rng.random() < BOUNDARY_SHARE:
        p = restrict_boundary(p, rng)
    return p


def restrict_boundary(p, rng: random.Random):
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
            retained = polyhedra.Polyhedron.from_vrep(closure.dim, [rng.choice(on_facet)])
        else:
            retained = polyhedra.Polyhedron.empty(closure.dim)
        pairs.append((idx, retained))
    omega = polyhedra.BoundaryRestrictedPolyhedron.from_facet_indices(closure, pairs)
    return model.AffineVectorProgram(omega, p.f, p.g, p.y_plus, p.z_plus)


def relabel(doc: dict, rng: random.Random) -> dict:
    """The same program with its x coordinates permuted and Omega's rows
    reordered.  Every set in Y and Z is unchanged, so the certificates are
    too; only the order in which DD and LP meet rows and columns differs."""
    dx = doc["dims"]["x"]
    perm = rng.sample(range(dx), dx)

    def cols(vector):
        return [vector[j] for j in perm]

    def rows(h_rep):
        return [dict(r, normal=cols(r["normal"])) for r in h_rep]

    omega = doc["omega"]
    order = rng.sample(range(len(omega["h_rep"])), len(omega["h_rep"]))
    h_rep = rows(omega["h_rep"])
    new_omega = {"h_rep": [h_rep[k] for k in order]}
    if "facet_restrictions" in omega:
        new_omega["facet_restrictions"] = [
            {"facet": order.index(fr["facet"]),
             "retained": {"h_rep": rows(fr["retained"]["h_rep"])}}
            for fr in omega["facet_restrictions"]
        ]
    return dict(
        doc,
        omega=new_omega,
        f=dict(doc["f"], matrix=[cols(r) for r in doc["f"]["matrix"]]),
        g=dict(doc["g"], matrix=[cols(r) for r in doc["g"]["matrix"]]),
    )


def frontier_sources():
    """(key, canonical problem dict) for every program of the pool."""
    for i in FRONTIER_POOL:
        yield f"c3-{i:02d}", problemfile.problem_dict(criterion_3_program(i))
    for name in BUNDLED:
        text = (PACKAGE_DIR / "instances" / f"{name}.json").read_text(encoding="utf-8")
        yield name, json.loads(text)


def prepare_frontier(seed: int, sample: int, workdir: Path, default_seed: int):
    for key, doc in frontier_sources():
        if seed != default_seed:
            doc = relabel(doc, random.Random(f"{seed}:{sample}:{key}"))
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        yield Item(key, str(path))


def run_frontier(item: Item):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["certify", item.payload, "--frontier", "--json"])
    return code, out.getvalue(), err.getvalue()


def invariant_view(doc: dict) -> str:
    """The report without the parts that name x coordinates or the file:
    the instance hash and the Slater witness (a point in x)."""
    certs = []
    for cert in doc["certificates"]:
        cert = dict(cert, instance_hash=None, slater=dict(cert["slater"], witness=None))
        certs.append(cert)
    return json.dumps(dict(doc, certificates=certs), sort_keys=True)


def check_frontier(item: Item, output, reference: dict):
    code, out, err = output
    if code != 0:
        return f"exit code {code}: {err.strip().splitlines()[-1:] or ''}"
    doc = json.loads(out)
    for cert in doc["certificates"]:
        if cert["verdict"] != "all-applicable-verified":
            bad = [c["id"] for c in cert["clauses"] if c["verdict"] == "violated"]
            return f"y0 {cert['y0']}: clauses {bad} violated"
    ref = reference.get("invariant", {}).get(item.key)
    if ref is not None and digest(invariant_view(doc)) != ref:
        return "certificates differ from the reference after relabelling"
    return None


def digest_frontier(output) -> str:
    return digest(output[1])


# -- minimality --------------------------------------------------------------

# Criterion 4's program stream, fixed for the same reason as the frontier
# pool: the heavy tail (set-valued programs with many image points in Y of
# dimension 3) makes latency_tail_s and items_per_s follow the draw more
# than the code.  Seeds reorder each program's points and values instead.
CRITERION_4_SEED = 909090
MINIMALITY_PER_SAMPLE = 500


def criterion_4_program(i: int):
    rng = random.Random(CRITERION_4_SEED * 999_983 + i)
    dy = rng.randint(1, 3)
    dz = rng.randint(1, 3)
    if i % 2 == 0:
        return fuzzing.random_discrete_instance(rng, (dy, dz), max_points=6)
    return fuzzing.random_setvalued_instance(rng, (dy, dz), max_points=4)


def reorder_points(p, rng: random.Random):
    """The same finite program with its points, and each point's values, in
    another order: the same image set, met by the LPs in another order."""
    points = rng.sample(p.points, len(p.points))
    if isinstance(p, model.DiscreteVectorProgram):
        return model.DiscreteVectorProgram(points, p.y_plus, p.z_plus)
    points = [
        model.SetValuedPoint(pt.point_id, tuple(rng.sample(pt.f_values, len(pt.f_values))),
                             tuple(rng.sample(pt.g_values, len(pt.g_values))))
        for pt in points
    ]
    return model.SetValuedProgram(points, p.y_plus, p.z_plus)


def prepare_minimality(seed: int, sample: int, workdir: Path, default_seed: int):
    first = sample * MINIMALITY_PER_SAMPLE
    for i in range(first, first + MINIMALITY_PER_SAMPLE):
        p = criterion_4_program(i)
        if seed != default_seed:
            p = reorder_points(p, random.Random(f"{seed}:{sample}:{i}"))
        yield Item(str(i), p)


def run_minimality(item: Item):
    p = item.payload
    cells = model.w0_cells(p)
    return [
        (y0, certify.is_minimal(cells, y0, p.y_plus),
         certify.is_weak_minimal(cells, y0, p.y_plus))
        for y0 in model.w0_image_points(p)
    ]


def check_minimality(item: Item, output, reference: dict):
    for y0, minimal, weak in output:
        bf = certify.brute_force_status(item.payload, y0)
        if (minimal, weak) != (bf.minimal, bf.weak_minimal):
            return (f"y0 {fmt(y0)}: pipeline (min, wmin) = {(minimal, weak)}, "
                    f"brute force {(bf.minimal, bf.weak_minimal)}")
    ref = reference.get("digest", {}).get(item.key)
    if ref is not None and digest_minimality(output) != ref:
        return "verdicts differ from the reference after reordering"
    return None


def fmt(v) -> str:
    return "[" + ",".join(str(x) for x in v) + "]"


def digest_minimality(output) -> str:
    """Over the verdicts sorted by point, so reordering leaves it alone."""
    return digest(";".join(sorted(f"{fmt(y0)}:{int(m)}{int(w)}" for y0, m, w in output)))


# -- cones -------------------------------------------------------------------

CRITERION_5_SEED = 31337
CONES_PER_SAMPLE = 800


def criterion_5_rows(seed: int, i: int):
    rng = random.Random(seed * 1_000_003 + i)
    dim = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        n = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(n):
            rows.append((n, 0, polyhedra.LE))
    return dim, rows


def prepare_cones(seed: int, sample: int, workdir: Path, default_seed: int):
    first = sample * CONES_PER_SAMPLE
    for i in range(first, first + CONES_PER_SAMPLE):
        yield Item(str(i), criterion_5_rows(seed, i))


def run_cones(item: Item):
    """H->V->H round trip, polar involution and the bounded-base test.

    Representations are lazy, so each result's canonical rows are read here,
    inside the timed item."""
    dim, rows = item.payload
    k = polyhedra.PolyhedralCone.from_polyhedron(polyhedra.Polyhedron.from_hrep(dim, rows))
    back = polyhedra.dd_convert(polyhedra.dd_convert(k, "HtoV"), "VtoH")
    polar2 = polyhedra.polar_cone(polyhedra.polar_cone(k, "negative"), "negative")
    back.hrep, polar2.hrep
    return k, back, polar2, polyhedra.cone_structure(k)


def check_cones(item: Item, output, reference: dict):
    k, back, polar2, cs = output
    if back != k:
        return "H->V->H round trip changed the cone"
    if polar2 != k:
        return "polar of the polar differs from the cone"
    dim = k.dim
    strict = [(tuple(-x for x in g), 0) for g in k.generators]
    strict += [(tuple(-x for x in l), 0) for l in k.lineality]
    strict += [(tuple(l), 0) for l in k.lineality]
    positive = exactlp.strict_feasible(exactlp.LinearSystem(dim, strict=tuple(strict)))
    if cs.has_bounded_base != positive.feasible:
        return f"bounded base {cs.has_bounded_base}, strict LP {positive.feasible}"
    if cs.base is not None:
        for g in k.generators:
            val = sum(h * x for h, x in zip(cs.functional, g))
            if val <= 0 or not cs.base.member(tuple(x / val for x in g)):
                return "a generator does not meet the base"
    return None


def digest_cones(output) -> str:
    k, back, polar2, cs = output
    parts = [
        repr([(r.normal, r.offset, r.rel) for r in k.hrep]),
        repr((k.generators, k.lineality)),
        repr([(r.normal, r.offset, r.rel) for r in back.hrep]),
        repr([(r.normal, r.offset, r.rel) for r in polar2.hrep]),
        repr((cs.lineality_dim, cs.is_pointed, cs.has_bounded_base, cs.functional)),
    ]
    return digest("|".join(parts))


# -- registry ----------------------------------------------------------------


# Timed seconds of one sample at the reference host speed; the per-sample
# sizes above are chosen to fill it.
SAMPLE_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    prepare: Callable  # (seed, sample, workdir, default_seed) -> Items, one by one
    run_item: Callable  # Item -> output; the timed work
    check_item: Callable  # (Item, output, reference) -> failure reason or None
    digest: Callable  # output -> short hex digest

    def samples(self, seconds: float) -> int:
        """Fresh-interpreter samples that fill about `seconds` of timed work."""
        return max(1, round(seconds / SAMPLE_S))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("frontier", CRITERION_3_SEED, prepare_frontier, run_frontier,
                 check_frontier, digest_frontier),
        Workload("minimality", CRITERION_4_SEED, prepare_minimality, run_minimality,
                 check_minimality, digest_minimality),
        Workload("cones", CRITERION_5_SEED, prepare_cones, run_cones,
                 check_cones, digest_cones),
    )
}


def load_reference(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))
