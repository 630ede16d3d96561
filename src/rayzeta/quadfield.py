"""Exact arithmetic in real quadratic fields Q(sqrt(Delta)).

Elements are pairs of Fractions (a, b) representing a + b*sqrt(Delta).
Signs are decided exactly from T = tr x, N = N x and the sign of b, never
with floating point: x > x' iff b > 0, and t lies between x and x' iff
t^2 - Tt + N < 0.  `QuadElem.sign` (a^2 against Delta*b^2), and `<` and
`>` on it, are called from no other module: the tests use them as
references for these rules.  `conj`, `norm`, `trace`, `is_totally_positive`
and `mult_matrix` (the oracle for `unit_matrix`) are in `rayzeta.oracle`.

Squarefree certification (`is_squarefree`, `squarefree_part`) is trial
division by p up to min(n^(1/3), bound): a cofactor below p^3 with no prime
factor below p is 1, a prime, a prime square or a product of two distinct
primes, and an integer square root tells these apart.  A cofactor left at
the bound is certified only below bound^3; beyond that is a `LimitError`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .exactmath import LimitError, Record


class FieldMismatchError(ValueError):
    """Raised when elements of distinct fields are combined."""


class UnitSearchError(RuntimeError):
    """Raised when the unit computation exceeds its period bound."""


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def squarefree_part(n: int, bound: int = 10**6) -> int:
    """Largest squarefree divisor d of n > 0 with n = d * m^2.

    Trial division by p while p^3 <= n and p <= bound.  A cofactor left
    below bound^3 (always the case at the cube-root stop) is 1, a square, a
    prime or a product of two distinct primes; a larger one raises
    `LimitError`.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    d = 1
    p = 2
    while p * p * p <= n and p <= bound:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if n > 1:
        if is_perfect_square(n):
            pass  # n = r^2 adds nothing to d
        elif n < bound * bound * bound:
            d *= n  # a prime or two distinct primes
        else:
            raise LimitError(f"cannot certify squarefree part beyond bound {bound}")
    return d


def is_squarefree(n: int, bound: int = 10**6) -> bool:
    """Squarefree test by trial division while p^3 <= n and p <= bound;
    raises `LimitError` if the cofactor left at the bound is not a square
    and not below bound^3.  False for n <= 0."""
    if n <= 0:
        return False
    p = 2
    while p * p * p <= n and p <= bound:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    # the cofactor has no prime factor below p
    if p * p > n:
        return True  # 1 or a prime
    if is_perfect_square(n):
        return False
    if n < bound * bound * bound:
        return True  # two distinct primes (n < p^3 <= bound^3 at the cube root)
    raise LimitError(f"cannot certify squarefreeness beyond bound {bound}")


class QuadField(Record):
    """The real quadratic field Q(sqrt(Delta)); Delta a positive nonsquare."""

    __slots__ = ()
    _fields = ("Delta",)

    def __new__(cls, Delta: int) -> QuadField:
        if Delta <= 0 or is_perfect_square(Delta):
            raise ValueError("Delta must be a positive nonsquare integer")
        return tuple.__new__(cls, (Delta,))

    def elem(self, a, b=0) -> QuadElem:
        return QuadElem(Fraction(a), Fraction(b), self)


class QuadElem:
    """a + b*sqrt(Delta) with exact rational a, b; never mutated.  A plain
    class, not a tuple, so it has no tuple `<=`, `*`, `len` or iteration."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a: Fraction, b: Fraction, field: QuadField):
        self.a, self.b, self.field = a, b, field

    def __eq__(self, other):
        if not isinstance(other, QuadElem):
            return NotImplemented
        return (self.a, self.b, self.field) == (other.a, other.b, other.field)

    def _check(self, other: "QuadElem"):
        if self.field.Delta != other.field.Delta:
            raise FieldMismatchError("elements belong to different fields")

    def _wrap(self, a: Fraction, b: Fraction) -> "QuadElem":
        return QuadElem(a, b, self.field)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __add__(self, other):
        if isinstance(other, QuadElem):
            self._check(other)
            return self._wrap(self.a + other.a, self.b + other.b)
        return self._wrap(self.a + Fraction(other), self.b)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadElem) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QuadElem):
            self._check(other)
            d = self.field.Delta
            return self._wrap(
                self.a * other.a + d * self.b * other.b,
                self.a * other.b + self.b * other.a,
            )
        other = Fraction(other)
        return self._wrap(self.a * other, self.b * other)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        n = self.a * self.a - self.field.Delta * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("element is zero")
        return self._wrap(self.a / n, -self.b / n)

    def __truediv__(self, other):
        if isinstance(other, QuadElem):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def sign(self) -> int:
        """Sign of the real value a + b*sqrt(Delta), decided exactly."""
        a, b, d = self.a, self.b, self.field.Delta
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with Delta*b^2 (equality impossible)
        if a * a > d * b * b:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def __lt__(self, other):
        diff = self - other
        return diff.sign() < 0

    def __gt__(self, other):
        diff = self - other
        return diff.sign() > 0

    def floor(self) -> int:
        """Exact floor of the real value."""
        a, b, d = self.a, self.b, self.field.Delta
        if b == 0:
            return a.numerator // a.denominator
        den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        A = a.numerator * (den // a.denominator)
        B = b.numerator * (den // b.denominator)
        # B*sqrt(d) is irrational, so its floor is +-isqrt with adjustment
        t = isqrt(B * B * d)
        if B < 0:
            t = -t - 1
        return (A + t) // den

    def ceil(self) -> int:
        return -((-self).floor())

    def __repr__(self):
        return f"({self.a}+{self.b}*sqrt({self.field.Delta}))"


class ModuleBasis:
    """The Z-module [1, delta]; delta must be reduced: delta > 1, 0 < delta' < 1,
    decided from `trace_norm` = (tr delta, N delta), which the caller holds
    (a `ConeContext` on integers), and the sign of delta's sqrt(Delta) part."""

    __slots__ = ("delta",)

    def __init__(self, delta: QuadElem, trace_norm: tuple[int, int]):
        self.delta = delta
        tr, nm = trace_norm
        p1 = 1 - tr + nm  # (1 - delta)(1 - delta'), negative iff 1 lies between them
        if not (delta.b > 0 and p1 < 0 and nm > 0):  # delta > 1 > delta' > 0
            # delta > 1 all the same: the larger root above 1, or both roots above 1
            if p1 < 0 < delta.b or p1 > 0 and tr > 2:
                raise ValueError("conjugate of delta must lie in (0,1)")
            raise ValueError("delta must exceed 1")


def coords_in_basis(x: QuadElem, basis: ModuleBasis) -> tuple[Fraction, Fraction]:
    """(u, v) with x = u*1 + v*delta, exact."""
    d = basis.delta
    v = x.b / d.b
    u = x.a - v * d.a
    return u, v


Matrix = tuple[tuple[int, int], tuple[int, int]]


def unit_matrix(runs) -> Matrix:
    """The integer matrix ((a, b), (c, d)) of the unit eps on [1, delta],
    column action: eps = a + c*delta, eps*delta = b + d*delta.  It is the
    adjugate of eps^{-1}'s, whose columns P_m, P_{m-1} end the boundary
    points P_{i+1} = b_i P_i - P_{i-1}, P_{-1} = delta, P_0 = 1, over one
    minus-CF period of runs (b, k).  A run of k 2s is one arithmetic step,
    P_{i+k} = P_i + k(P_i - P_{i-1}), so mod q only k mod q matters."""
    (u_prev, v_prev), (u, v) = (0, 1), (1, 0)
    for b, k in runs:
        if b == 2:
            du, dv = u - u_prev, v - v_prev
            u_prev, v_prev = u + (k - 1) * du, v + (k - 1) * dv
            u, v = u + k * du, v + k * dv
            continue
        for _ in range(k):
            u_prev, v_prev, u, v = u, v, b * u - u_prev, b * v - v_prev
    return (v_prev, -u_prev), (-v, u)


def fundamental_unit_totally_positive(basis: ModuleBasis, matrix: Matrix) -> QuadElem:
    """Totally positive fundamental unit eps = a + c*delta > 1 of the ring
    acting on [1, delta], from its `unit_matrix` ((a, b), (c, d)).  Checked
    on integers: N eps = ad - bc = 1; then eps and eps' are positive and
    differ iff tr eps = a + d > 2, and eps > eps' iff c > 0."""
    (a, b), (c, d) = matrix
    if a * d - b * c != 1 or a + d <= 2 or c <= 0:
        raise UnitSearchError("unit recurrence returned a non-unit; field data malformed")
    return QuadElem(a + c * basis.delta.a, c * basis.delta.b, basis.delta.field)


def unit_index_lambda(matrix: Matrix, q: int) -> int:
    """Least lambda >= 1 with eps^lambda = 1 modulo q*[1, delta], for the
    integer matrix ((m00, m01), (m10, m11)) of a unit eps on [1, delta].

    Equals [E+ : E_q+] and the orbit size of every label in F_delta.  For a
    unit the coordinates of eps^j mod q are never both zero, so they take at
    most q^2 - 1 values and lambda is found within q^2 powers.
    """
    (m00, m01), (m10, m11) = ((e % q for e in row) for row in matrix)
    u, v = 1, 0  # coordinates of eps^j, starting at j=0
    for j in range(1, q * q + 1):
        u, v = (m00 * u + m01 * v) % q, (m10 * u + m11 * v) % q
        if u == 1 % q and v == 0:
            return j
    raise UnitSearchError(f"no lambda found within q^2 = {q * q} powers")
