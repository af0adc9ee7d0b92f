"""Fraction-free integer kernel of the exact simplex and double description.

A tableau is a list of rows of Python ints; the objective row comes last.
Every constraint row is a positive integer multiple of its Gauss-Jordan row,
so each sign and each ratio the simplex reads is the rational tableau's.  The
last column holds the objective row's positive denominator and is 0 in every
constraint row, so one update step serves both kinds of row (Edmonds 1967,
Bareiss 1968: integer-preserving elimination).  Double description reduces
its lineality basis with the same step and keeps every vector `primitive`.
"""

from math import gcd


def primitive(ints) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = gcd(*ints)
    if g > 1:
        return tuple(x // g for x in ints)
    return tuple(ints)


def eliminate(row, prow, e):
    """`a·row − row[e]·prow` with a = prow[e] > 0, divided by its content.

    The result is 0 in column e and is a positive multiple of the rational
    row that a Gauss-Jordan step on (prow, e) would give."""
    a = prow[e]
    f = row[e]
    if a == 1:
        return primitive([x - f * y for x, y in zip(row, prow)])
    return primitive([a * x - f * y for x, y in zip(row, prow)])


def pivot(rows, r, e):
    """Pivot on (r, e): make the pivot entry positive by negating row r, then
    eliminate column e from every other row, the objective row included."""
    prow = rows[r]
    if prow[e] < 0:
        prow = rows[r] = [-x for x in prow]
    for i, row in enumerate(rows):
        if i != r and row[e]:
            rows[i] = eliminate(row, prow, e)
