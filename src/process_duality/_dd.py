"""Double description over exact integers (internal).

`cone_dd` enumerates the lineality basis and the extreme rays of
{x : A.x <= 0, E.x = 0}.  Equalities seed the initial lineality space;
inequalities are processed one at a time, consuming lineality directions
first (the classical projection step) and then combining adjacent ray pairs
(combinatorial zero-set adjacency behind a cardinality test, as in Fukuda &
Prodon, "Double description method revisited", 1996).

The loop runs on primitive integer vectors: every row and every initial line
is rescaled at entry by a positive factor, which leaves the cone unchanged,
and every combination is taken with positive integer weights, so rays keep
their direction.  The zero set of each ray (the processed rows it lies on) is
a bit mask kept up to date by bit operations rather than recomputed:

- in a projection step every processed row vanishes on every line, so a
  shifted ray keeps its bits and gains the new row's, and the consumed line
  becomes a ray lying on every old row but not the new one;
- a combination of an adjacent pair vanishes on an old row exactly when both
  parents do, because it is a positive combination of two values <= 0.

Entry, the null space of the equalities, and the exit all stay on integers
too: a row is scaled by the lcm of its denominators (`rational.integer_scaled`)
and divided by its content (`_kernel.primitive`), the lineality basis is
brought to a fraction-free reduced row echelon form (each row the primitive
multiple of its reduced row, pivot positive), and each ray is reduced modulo
that basis, both by the simplex's integer row step (`_kernel.eliminate`).
The output is that lineality basis and the sorted reduced rays, each a
primitive integer tuple; it is unique, so downstream golden tests are
reproducible whatever the processing order.  No Fraction is built here: each
caller builds one per entry of its canonical form, dividing the integer entry
by the leading entry, its absolute value, or the homogenizing coordinate
(integer generators with a single divisor, as in the Parma Polyhedra Library;
Bagnara, Hill & Zaffanella 2008).  The adjacency step yields only extreme
rays.

`tight_rank` gives the rows tight at a point and their rank, by the same
integer reduced row echelon form: the test of a vertex, and of an extreme
ray, on integer rows.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from ._kernel import eliminate, primitive
from .rational import integer_scaled


def _integer_rref(rows, dim):
    """Fraction-free reduced row echelon form of integer rows.

    Returns (rows, pivot columns).  Each row is the primitive multiple of its
    reduced row echelon row, so its pivot entry is positive and it is zero on
    every other pivot column.  Eliminations scale the updated row by the
    positive pivot entry, which keeps the pivot signs found so far.
    """
    work = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for col in range(dim):
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        if prow[col] < 0:
            prow = work[r] = [-x for x in prow]
        for i, row in enumerate(work):
            if row[col] and i != r:
                work[i] = eliminate(row, prow, col)
        pivots.append(col)
        r += 1
    return [primitive(row) for row in work[:r]], pivots


def tight_rank(x, d, le=(), eq=()):
    """(tight, rank) at the point x / d, for `x` integers and d > 0 (d = 0:
    the direction x): the normals of the rows tight there, every `eq` row
    and each `le` row that holds with equality, and the rank of those
    normals.  Rows are given as `rational.integer_rows` (a, b, s), and a
    tight normal is its integer a.

    A point of a polyhedron is a vertex iff the rows tight at it have rank
    dim (Schrijver 1986, ch. 8); a cone is pointed iff the origin is one."""
    tight = [a for a, _, _ in eq]
    tight += [a for a, b, _ in le if _idot(a, x) == b * d]
    return tight, len(_integer_rref(tight, len(x))[1])


def _integer_null_space(rows, dim) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : rows . x = 0}, one line per free column.

    Each line is the positive multiple of the null vector that is 1 on its
    free column, 0 on the other free columns and minus the reduced row echelon
    entries on the pivot columns.
    """
    basis, pivots = _integer_rref(rows, dim)
    scale = lcm(*(row[p] for row, p in zip(basis, pivots)))
    pivot_set = set(pivots)
    out = []
    for c in range(dim):
        if c in pivot_set:
            continue
        v = [0] * dim
        v[c] = scale
        for row, p in zip(basis, pivots):
            v[p] = -row[c] * (scale // row[p])
        out.append(primitive(v))
    return out


def _reduce_mod_lines(v, lines, pivots) -> tuple[int, ...]:
    """Primitive representative of v modulo span(lines), zero on every pivot
    column (lines as returned by `_integer_rref`); direction kept."""
    for line, p in zip(lines, pivots):
        if v[p]:
            v = eliminate(v, line, p)
    return primitive(v)


def _idot(a, b) -> int:
    return sum(map(mul, a, b))


def _adjacent(common, masks) -> bool:
    """True when no ray but the pair itself lies on every row in `common`."""
    seen = 0
    for m in masks:
        if m & common == common:
            seen += 1
            if seen > 2:
                return False
    return True


def cone_dd(dim, ineq_rows, eq_rows):
    """Lineality basis and extreme rays of {x : ineq.x <= 0, eq.x = 0}, as
    primitive integer tuples (rows given as ints or Fractions).

    Before the `_adjacent` scan a pair is dropped when its common zero set
    has fewer than k0 - |lines| - 2 rows, k0 the dimension left by the
    equalities (the cardinality test of Fukuda & Prodon 1996).  The test
    only drops pairs that are not adjacent: the face spanned by an adjacent
    pair is the lineality space plus two dimensions, cut out of the k0-space
    by its common zero rows, which so number at least k0 - |lines| - 2."""
    ineq = [primitive(integer_scaled(a)[0]) for a in ineq_rows]
    lines = _integer_null_space([primitive(integer_scaled(a)[0]) for a in eq_rows], dim)
    k0 = len(lines)
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []  # bit i set: the ray lies on the i-th processed row
    bit = 1  # the bit of the row being processed

    for a in ineq:
        if not any(a):
            continue
        vals = [_idot(a, l) for l in lines]
        hit = next((k for k, s in enumerate(vals) if s != 0), None)
        if hit is not None:
            l0 = lines[hit]
            s0 = vals[hit]
            if s0 > 0:
                l0 = tuple(-x for x in l0)
                s0 = -s0
            # v - (a.v / s0) l0, scaled by -s0 > 0: zero on a, direction kept.
            lines = [
                primitive([-s0 * x + s * y for x, y in zip(l, l0)])
                for k, (l, s) in enumerate(zip(lines, vals))
                if k != hit
            ]
            new_rays = []
            new_masks = []
            for r, m in zip(rays, masks):
                t = _idot(a, r)
                if t != 0:
                    r = primitive([-s0 * x + t * y for x, y in zip(r, l0)])
                    if not any(r):
                        continue
                new_rays.append(r)
                new_masks.append(m | bit)
            new_rays.append(l0)
            new_masks.append(bit - 1)
            rays, masks = new_rays, new_masks
            bit <<= 1
            continue
        # All lines orthogonal to the new constraint: split rays by sign.
        signs = [_idot(a, r) for r in rays]
        need = k0 - len(lines) - 2
        new_rays = []
        new_masks = []
        for p, sp in enumerate(signs):
            if sp <= 0:
                continue
            rp = rays[p]
            for q, sq in enumerate(signs):
                if sq >= 0:
                    continue
                common = masks[p] & masks[q]
                if common.bit_count() < need or not _adjacent(common, masks):
                    continue
                combo = primitive([sp * x - sq * y for x, y in zip(rays[q], rp)])
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
