"""Reference routes on `Fraction`s that only `rayzeta.verify` and the tests
call, each an independent check of an integer route that the commands run:
the Bernoulli forms behind `exactmath.term12`, field-element arithmetic and
`mult_matrix` behind `quadfield.unit_matrix`, the plus CF by floors that
`contfrac.cf_value` inverts, and the direct lattice solve behind the
Yamamoto recursion.  No command imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from .contfrac import MAX_PERIOD, MinusCF, NotReducedError, PeriodicCF
from .exactmath import LimitError, frac_unit
from .quadfield import ModuleBasis, QuadElem, coords_in_basis
from .shintani import InternalCheckError, RayLabel


def bernoulli1(x: Fraction) -> Fraction:
    """First Bernoulli polynomial B1(x) = x - 1/2."""
    return x - Fraction(1, 2)


def bernoulli2(x: Fraction) -> Fraction:
    """Second Bernoulli polynomial B2(x) = x^2 - x + 1/6."""
    return x * x - x + Fraction(1, 6)


def conj(x: QuadElem) -> QuadElem:
    """Galois conjugate: a + b*sqrt(D) -> a - b*sqrt(D)."""
    return QuadElem(x.a, -x.b, x.field)


def norm(x: QuadElem) -> Fraction:
    """Field norm x * conj(x) = a^2 - Delta*b^2."""
    return x.a * x.a - x.field.Delta * x.b * x.b


def trace(x: QuadElem) -> Fraction:
    return 2 * x.a


def is_totally_positive(x: QuadElem) -> bool:
    """True iff both real embeddings of x are positive."""
    if x.a == 0 and x.b == 0:
        raise ValueError("total positivity is undefined for zero")
    return norm(x) > 0 and trace(x) > 0  # x, x' of one sign, and their sum positive


def mult_matrix(x: QuadElem, basis: ModuleBasis):
    """2x2 matrix of multiplication by x on the basis [1, delta] (column
    action), on Fractions: the oracle for `unit_matrix`."""
    (a, c), (b, d) = coords_in_basis(x, basis), coords_in_basis(x * basis.delta, basis)
    return (a, b), (c, d)


def _is_plus_reduced(x: QuadElem) -> bool:
    """x > 1 > 0 > x' > -1: x > x', 0 and 1 between them, -1 below both."""
    tr, nm = trace(x), norm(x)
    return x.b > 0 and nm < 0 and 1 - tr + nm < 0 < 1 + tr + nm


def plus_cf(x: QuadElem, max_period: int = MAX_PERIOD) -> PeriodicCF:
    """Purely periodic plus CF of a reduced quadratic irrational.

    Rejects rational input and surds whose expansion has a preperiod.
    """
    if x.is_rational:
        raise NotReducedError("rational numbers have no purely periodic expansion")
    if not _is_plus_reduced(x):
        raise NotReducedError("x must satisfy x > 1 and -1/x' > 1")
    start = (x.a, x.b)
    terms = []
    cur = x
    for _ in range(max_period):
        a = cur.floor()
        terms.append(a)
        cur = (cur - a).inverse()
        if (cur.a, cur.b) == start:
            return PeriodicCF(tuple(terms))
    raise LimitError(f"plus CF period not found within {max_period} terms")


def boundary_points(basis: ModuleBasis, mcf: MinusCF, count: int) -> list[QuadElem]:
    """P_{-1}, P_0, ..., P_count via P_{i+1} = b_i P_i - P_{i-1}, b periodic.

    Index shift: returned[i] is P_{i-1}.
    """
    terms, m = mcf.terms, mcf.m
    pts = [basis.delta, basis.delta.field.elem(1)]
    for i in range(count):
        pts.append(terms[i % m] * pts[-1] - pts[-2])
    return pts


def xy_direct(
    label: RayLabel, i: int, boundary: list[QuadElem], basis: ModuleBasis
) -> tuple[Fraction, Fraction]:
    """The unique (x, y) in (0,1] x [0,1) with x*P_{i-1} + y*P_i congruent to
    (C + D*delta)/q modulo [1, delta].

    Solves the unimodular 2x2 system directly; independent oracle for the
    Yamamoto recursion.
    """
    p_prev, p_cur = boundary[i], boundary[i + 1]  # P_{i-1}, P_i
    u1, v1 = coords_in_basis(p_prev, basis)
    u2, v2 = coords_in_basis(p_cur, basis)
    det = u1 * v2 - u2 * v1
    if abs(det) != 1:
        raise InternalCheckError("consecutive boundary points are not unimodular")
    t0, t1 = Fraction(label.C, label.q), Fraction(label.D, label.q)
    # invert [[u1,u2],[v1,v2]] exactly
    x = (v2 * t0 - u2 * t1) / det
    y = (-v1 * t0 + u1 * t1) / det
    x = frac_unit(x)
    y = y - (y.numerator // y.denominator)
    return x, y
