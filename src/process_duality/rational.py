"""Exact rational scalars and small dense vector/matrix helpers.

All geometry in this package runs on `fractions.Fraction`: lowest terms,
positive denominator, no rounding ever.  Vectors are tuples of Fractions,
matrices are tuples of row tuples.  The integer kernels (the simplex and
double description) are entered through `integer_scaled` and left through
`quotients`; no other module reads a numerator or a denominator.

The integer forms of rows and points are made here too.  A row set becomes
`integer_rows` once, where its owner keeps it, and a point becomes
`integer_scaled` once per test; `integer_holds` then decides every row at the
point by one integer dot, with no Fraction built.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, Fractions, or 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


def fmt(value: Fraction) -> str:
    """Serialize as 'p/q' with the denominator always explicit."""
    return f"{value.numerator}/{value.denominator}"


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def integer_scaled(values) -> tuple[tuple[int, ...], int]:
    """(ints, d) with d > 0 the lcm of the denominators of `values` (ints or
    Fractions), so that ints / d == values: the one place where a rational
    vector becomes integers (`quotients` is its inverse)."""
    d = lcm(*(x.denominator for x in values))
    if d == 1:
        return tuple(x.numerator for x in values), 1
    return tuple(x.numerator * (d // x.denominator) for x in values), d


def integer_rows(rows) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Each row (normal, rhs) as (s.normal, s.rhs, s) with s > 0 the lcm of
    its own denominators, so the scaled row is integer and keeps its sign."""
    out = []
    for normal, rhs in rows:
        ints, s = integer_scaled(normal + (rhs,))
        out.append((ints[:-1], ints[-1], s))
    return tuple(out)


def integer_holds(x, d, le=(), eq=(), strict=()) -> bool:
    """Does every row hold at the point x / d, for `x` integers and d > 0:
    n.(x / d) <= r for each `le` row, = r for each `eq` row and < r for each
    `strict` row, the rows given as `integer_rows` (s.n, s.r, s)?

    n.y <= r iff (s.n).(d.y) <= (s.r).d, as s, d > 0, and the same for = and
    <.  With d = 0 the rows are tested on the direction x of the recession
    cone: (s.n).x <= 0, and = 0 on the eq rows."""
    for a, b, _ in le:
        if sum(map(mul, a, x)) > b * d:
            return False
    for a, b, _ in eq:
        if sum(map(mul, a, x)) != b * d:
            return False
    for a, b, _ in strict:
        if sum(map(mul, a, x)) >= b * d:
            return False
    return True


def quotients(ints: Iterable[int], c: int) -> Vec:
    """The exact quotients x / c of integers x by a nonzero integer c."""
    if c == 1:
        return tuple(map(Fraction, ints))
    return tuple(Fraction(x, c) for x in ints)


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b) if x and y), ZERO)


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"add of lengths {len(a)} and {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"sub of lengths {len(a)} and {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def matvec(m: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, x) for row in m)


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def inf_norm(a: Sequence[Fraction]) -> Fraction:
    return max((abs(x) for x in a), default=ZERO)


def box_corners(dim: int) -> list[Vec]:
    """The 2^dim corners of the unit infinity-norm ball."""
    corners = [()]
    for _ in range(dim):
        corners = [c + (s,) for c in corners for s in (ONE, -ONE)]
    return corners


def parse_vector(text: str) -> Vec:
    """Parse a comma-separated rational vector like '1/2,-3,0/1'."""
    parts = [p for p in text.split(",") if p.strip()]
    return vec(parts)


def fmt_vector(a: Sequence[Fraction]) -> str:
    return ",".join(fmt(x) for x in a)
