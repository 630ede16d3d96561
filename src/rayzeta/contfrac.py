"""Periodic continued fractions of quadratic irrationals, exact throughout.

Plus expansions [[a_0,...,a_{s-1}]] follow x -> 1/(x - floor(x)); minus
(ceiling) expansions ((b_0,...,b_{m-1})) follow x -> 1/(ceil(x) - x).
Period detection is by exact repetition of the algebraic state, never by
floating point.

A minus CF is held run-length encoded, as runs (b, k) of k equal terms: in a
family the period is a few terms > 2 separated by runs of 2s whose length
grows with n, while the number of runs does not.  A field's minus CF is read
off its plus period by the index rule `plus_to_minus` in O(s), not O(m); the
m-term tuple is built only where a caller asks for `MinusCF.terms`.  The
ceiling algorithm `minus_cf` runs one term at a time and is the oracle the
index rule is checked against.  The plus CF by floors, `plus_cf`, is an
oracle for `cf_value` and is in `rayzeta.oracle`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .exactmath import LimitError, Record
from .quadfield import QuadElem, QuadField, squarefree_part


MAX_PERIOD = 10**6  # default bound on a period's number of terms


class NotReducedError(ValueError):
    """Input surd fails the reduction hypothesis for the requested expansion."""


class PeriodicCF(Record):
    """One period of a purely periodic plus continued fraction."""

    __slots__ = ()
    _fields = ("terms",)

    def __new__(cls, terms: tuple[int, ...]) -> PeriodicCF:
        if not terms or min(terms) < 1:
            raise ValueError("plus CF terms must be positive integers")
        return tuple.__new__(cls, (terms,))

    @property
    def s(self) -> int:
        return len(self.terms)


Run = tuple[int, int]  # (b, k): k consecutive minus-CF terms equal to b


def _push(runs: list[Run], b: int, k: int) -> None:
    """Append k terms b to `runs`, merged into the last run if it has b."""
    if runs and runs[-1][0] == b:
        runs[-1] = (b, runs[-1][1] + k)
    elif k:
        runs.append((b, k))


class MinusCF(Record):
    """One period of a periodic minus (ceiling) continued fraction, as runs
    (b, k) of k equal terms b; neighbouring runs have different b.  The
    period length m, the number of terms (not of runs), is counted once, as
    the runs are checked."""

    __slots__ = ()
    _fields = ("runs", "m")

    def __new__(cls, runs: tuple[Run, ...]) -> MinusCF:
        if not runs:
            raise ValueError("a minus CF period needs at least one run")
        prev, m = None, 0
        for b, k in runs:
            if b < 2 or k < 1:
                raise ValueError("minus CF runs must be (b, k) with b >= 2, k >= 1")
            if b == prev:
                raise ValueError("neighbouring minus CF runs must differ in b")
            prev, m = b, m + k
        return tuple.__new__(cls, (runs, m))

    @classmethod
    def from_runs(cls, runs) -> "MinusCF":
        """The canonical runs: k = 0 dropped, neighbours with equal b merged."""
        out: list[Run] = []
        for b, k in runs:
            _push(out, b, k)
        return cls(tuple(out))

    @property
    def terms(self) -> tuple[int, ...]:
        """The m terms b_0..b_{m-1}, built on each call: O(m)."""
        terms: list[int] = []
        for b, k in self.runs:
            terms += [b] * k
        return tuple(terms)


def _surd_state(x: QuadElem) -> tuple[int, int, int]:
    """Integers (P, D, Q) with x = (P + sqrt(D))/Q and Q | D - P^2.

    For x = (A + B*sqrt(Delta))/L with B != 0 this is P = A*L,
    D = B^2*Delta*L^2, Q = L^2, both P and Q negated when B < 0.
    """
    L = x.a.denominator * x.b.denominator // gcd(x.a.denominator, x.b.denominator)
    A, B = int(x.a * L), int(x.b * L)
    sign = 1 if B > 0 else -1
    return sign * A * L, B * B * x.field.Delta * L * L, sign * L * L


def minus_cf(x: QuadElem, max_period: int = MAX_PERIOD) -> MinusCF:
    """Periodic minus CF of x by the ceiling algorithm, one term at a time:
    the oracle that `plus_to_minus` is checked against.

    Requires x > 1 and 0 < x' < 1 (reduced for the minus expansion).  Runs
    on the integer state x = (P + sqrt(D))/Q, for which Q > 0 and
    Q | D - P^2 hold throughout: each step is b = ceil(x) =
    (P + isqrt(D))//Q + 1, P <- bQ - P, Q <- (P^2 - D)/Q.  The period is
    found by exact repetition of (P, Q); `max_period` bounds its terms.
    """
    if x.is_rational:
        raise NotReducedError("rational numbers have no periodic minus expansion")
    P, D, Q = _surd_state(x)
    r = isqrt(D)  # sqrt(D) is irrational, so sqrt(D) > t iff r >= t
    # x > x' (Q > 0), x > 1, x' > 0 and x' < 1, decided on integers
    if not (Q > 0 and r >= Q - P and P > r and r >= P - Q):
        raise NotReducedError("x must satisfy x > 1 and 0 < x' < 1")
    P0, Q0 = P, Q
    runs: list[Run] = []
    for _ in range(max_period):
        b = (P + r) // Q + 1
        P = b * Q - P
        Q = (P * P - D) // Q
        _push(runs, b, 1)
        if P == P0 and Q == Q0:
            return MinusCF(tuple(runs))
    raise LimitError(f"minus CF period not found within {max_period} terms")


def fixed_point(terms: tuple[int, ...]) -> tuple[int, int, int]:
    """(A, B, C) with A x^2 + B x + C = 0, A > 0, for x = [[terms]]: the
    fixed-point equation x = (p x + p')/(q x + q') of the last convergents.
    delta = x + 1 has trace (2A - B)/A and norm (A - B + C)/A."""
    p_prev, p_cur = 1, terms[0]  # p_{-1}, p_0
    q_prev, q_cur = 0, 1
    for a in terms[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return q_cur, q_prev - p_cur, -p_prev


def cf_value(cf: PeriodicCF, radicand: int | None = None) -> QuadElem:
    """The value of the purely periodic plus CF, as the root > 1 of its
    `fixed_point` equation, in the field with squarefree radicand.

    A caller that has already certified a squarefree `radicand` passes it:
    when the discriminant is radicand * c^2 no trial division is run.
    Otherwise the radicand is the discriminant's squarefree part.
    """
    A, B, C = fixed_point(cf.terms)
    disc = B * B - 4 * A * C
    c = isqrt(disc // radicand) if radicand else 0
    if not radicand or radicand * c * c != disc:
        radicand = squarefree_part(disc)
        c = isqrt(disc // radicand)
    field = QuadField(radicand)
    # the larger root exceeds 1 iff p(1) = A + B + C < 0 (1 between the
    # roots), or p(1) > 0 and the vertex -B/2A exceeds 1 (both roots above 1)
    p1 = A + B + C
    if not (p1 < 0 or p1 > 0 and -B > 2 * A):
        raise RuntimeError("fixed-point root selection failed")
    return QuadElem(Fraction(-B, 2 * A), Fraction(c, 2 * A), field)


def pair_count(s: int) -> int:
    """Number of (a_{2j-1}, a_{2j}) pairs consumed by one minus-CF period:
    s/2 for even s, s for odd s (the plus period is traversed twice)."""
    return s // 2 if s % 2 == 0 else s


def s_indices(cf: PeriodicCF) -> list[int]:
    """S_0=0, S_j = S_{j-1} + a_{2j-1} for j = 1..pair_count, indices mod s."""
    s = cf.s
    out = [0]
    for j in range(1, pair_count(s) + 1):
        out.append(out[-1] + cf.terms[(2 * j - 1) % s])
    return out


def primitive_period(terms: tuple) -> tuple:
    """The shortest prefix of which `terms` is a repetition."""
    s = len(terms)
    return next(terms[:p] for p in range(1, s + 1) if s % p == 0 and terms == terms[:p] * (s // p))


def plus_to_minus(cf: PeriodicCF) -> MinusCF:
    """Minus CF of 1 + value(cf) via the index rule: b_i = a_{2j} + 2 at
    i = S_j, b_i = 2 otherwise, with period m = S_{s/2} (even s) or S_s (odd s).
    So each pair (a_{2j}, a_{2j+1}) gives the runs (a_{2j} + 2, 1) and
    (2, a_{2j+1} - 1): O(s) work for any m.  On a primitive period it
    equals `minus_cf(cf_value(cf) + 1)`, the ceiling algorithm.
    """
    s = cf.s
    return MinusCF.from_runs(
        run
        for j in range(pair_count(s))
        for run in ((cf.terms[2 * j % s] + 2, 1), (2, cf.terms[(2 * j + 1) % s] - 1))
    )
