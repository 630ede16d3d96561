"""Tests for exact quadratic-field arithmetic and the unit machinery."""

import math
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from rayzeta import contfrac
from rayzeta.contfrac import PeriodicCF, cf_value, minus_cf
from rayzeta.exactmath import LimitError
from rayzeta.oracle import _is_plus_reduced, conj, is_totally_positive, mult_matrix, norm, trace
from rayzeta.quadfield import (
    ModuleBasis,
    QuadField,
    UnitSearchError,
    coords_in_basis,
    fundamental_unit_totally_positive,
    is_perfect_square,
    is_squarefree,
    squarefree_part,
    unit_index_lambda,
    unit_matrix,
)


def basis_of(delta):
    return ModuleBasis(delta, (trace(delta), norm(delta)))


def unit_of(basis):
    return fundamental_unit_totally_positive(basis, unit_matrix(minus_cf(basis.delta).runs))


def test_squarefree_classification():
    assert is_squarefree(30)
    assert is_squarefree(105)
    assert not is_squarefree(4)
    assert not is_squarefree(27)
    assert not is_squarefree(12)


def test_squarefree_certification_bound_is_a_limit():
    n = 1009 * 1013 * 1019  # no factor up to the bound, cofactor >= bound^3
    with pytest.raises(LimitError):
        is_squarefree(n, bound=10)
    with pytest.raises(LimitError):
        squarefree_part(n, bound=10)


def test_squarefree_part():
    assert squarefree_part(27) == 3
    assert squarefree_part(50) == 2
    assert squarefree_part(30) == 30


def smallest_prime_factors(limit: int) -> list[int]:
    spf = list(range(limit))
    for i in range(2, math.isqrt(limit - 1) + 1):
        if spf[i] == i:
            for j in range(i * i, limit, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


SPF = smallest_prime_factors(2 * 10**5)
PRIMES = [p for p in range(2, len(SPF)) if SPF[p] == p]


def naive_squarefree(n: int) -> tuple[bool, int]:
    """(is n squarefree, squarefree part of n) from a full factorisation."""
    squarefree, part = True, 1
    while n > 1:
        p, e = SPF[n], 0
        while n % p == 0:
            n //= p
            e += 1
        squarefree &= e == 1
        part *= p if e % 2 else 1
    return squarefree, part


def test_squarefree_matches_factorisation_below_2e5():
    for n in range(1, len(SPF)):
        assert (is_squarefree(n), squarefree_part(n)) == naive_squarefree(n), n


def test_squarefree_of_one_and_nonpositive():
    assert is_squarefree(1) and squarefree_part(1) == 1
    for n in (0, -1, -4, -30):
        assert not is_squarefree(n)
        with pytest.raises(ValueError):
            squarefree_part(n)


# primes far below and far above the cube root of the products drawn from them
primes = st.sampled_from(PRIMES[:25]) | st.sampled_from(PRIMES[1000:])


@settings(max_examples=100, deadline=None)
@given(primes, primes, primes)
def test_squarefree_of_prime_products(p, q, r):
    assert is_squarefree(p * q) == (p != q)
    assert squarefree_part(p * q) == (1 if p == q else p * q)
    assert not is_squarefree(p * p)
    assert squarefree_part(p * p) == 1
    assert not is_squarefree(p * p * r)
    assert squarefree_part(p * p * r) == (p if p == r else r)


def test_squarefree_stops_at_the_bound_before_the_cube_root():
    # bound 10: trial division ends at p = 11 although 7 * 997 >= 11^3
    assert is_squarefree(7 * 997, bound=10)  # cofactor 997 < 10^3
    assert squarefree_part(7 * 997, bound=10) == 7 * 997
    assert not is_squarefree(17 * 17, bound=3)  # a square cofactor past the bound
    assert squarefree_part(17 * 17 * 2, bound=3) == 2
    # 17 * 59 < 11^3 would be settled at a cube-root stop, but the cap comes
    # first and the cofactor is not below bound^3 = 1000
    with pytest.raises(LimitError):
        is_squarefree(17 * 59, bound=10)
    with pytest.raises(LimitError):
        squarefree_part(17 * 59, bound=10)


def test_perfect_square_detection():
    squares = {n * n for n in range(40)}
    for n in range(1, 1000):
        assert is_perfect_square(n) == (n in squares)


def test_elem_arithmetic():
    K = QuadField(3)
    x = K.elem(2, 1)  # 2 + sqrt(3)
    y = K.elem(1, -1)
    assert x + y == K.elem(3)
    assert x * y == K.elem(2 - 3, -1)  # (2+s)(1-s) = 2 - 2s + s - 3
    assert x - x == K.elem(0)
    assert (x / x) == K.elem(1)


def test_norm_trace_conj():
    K = QuadField(3)
    x = K.elem(2, 1)
    assert norm(x) == 1
    assert trace(x) == 4
    assert conj(x) == K.elem(2, -1)
    assert x * conj(x) == K.elem(1)


def test_sign_and_comparisons_match_floats():
    K = QuadField(7)
    root = math.sqrt(7)
    for a in range(-6, 7):
        for b in range(-4, 5):
            x = K.elem(Fraction(a, 3), Fraction(b, 2))
            approx = a / 3 + (b / 2) * root
            assert x.sign() == (0 if approx == 0 else (1 if approx > 0 else -1))


def test_floor_and_ceil_match_floats():
    K = QuadField(13)
    root = math.sqrt(13)
    for a in range(-10, 11):
        for b in range(-6, 7):
            x = K.elem(Fraction(a, 2), Fraction(b, 3))
            approx = a / 2 + (b / 3) * root
            assert x.floor() == math.floor(approx)
            assert x.ceil() == math.ceil(approx)


def test_totally_positive():
    K = QuadField(3)
    assert is_totally_positive(K.elem(2, 1))  # both embeddings ~ 3.73, 0.27
    assert not is_totally_positive(K.elem(1, 1))  # conjugate is negative
    assert not is_totally_positive(K.elem(-2, -1))


def test_module_basis_validates_reduction():
    K = QuadField(3)
    delta = K.elem(2, 1)  # delta > 1 and 0 < delta' < 1
    basis = basis_of(delta)
    assert basis.delta == delta
    with pytest.raises(ValueError):
        basis_of(K.elem(1, 1))  # conjugate negative


def test_coords_round_trip():
    K = QuadField(11)
    delta = K.elem(10, 3)  # 10 + 3*sqrt(11): delta' = 10 - 9.95 in (0,1)
    basis = basis_of(delta)
    x = K.elem(Fraction(7, 2), Fraction(5, 3))
    u, v = coords_in_basis(x, basis)
    assert u + v * delta == x


def test_fundamental_unit_small_fields():
    K3 = QuadField(3)
    basis3 = basis_of(K3.elem(2, 1))
    eps3 = unit_of(basis3)
    assert eps3 == K3.elem(2, 1)

    K11 = QuadField(11)
    basis11 = basis_of(K11.elem(10, 3))
    eps11 = unit_of(basis11)
    assert eps11 == K11.elem(10, 3)


def test_fundamental_unit_properties():
    for delta_pair, Delta in [((2, 1), 3), ((10, 3), 11), ((3, 1), 6)]:
        K = QuadField(Delta)
        basis = basis_of(K.elem(*delta_pair))
        eps = unit_of(basis)
        assert norm(eps) == 1
        assert is_totally_positive(eps)
        u, v = coords_in_basis(eps, basis)
        assert u.denominator == 1 and v.denominator == 1
        # the integer matrix equals the Fraction oracle's
        assert unit_matrix(minus_cf(basis.delta).runs) == mult_matrix(eps, basis)


# on [1, delta], delta = 2 + sqrt(3) = eps: eps's own matrix is ((0, -1), (1, 4))
@pytest.mark.parametrize("matrix", [
    ((1, 0), (0, 1)),  # 1: trace 2
    ((0, 1), (-1, -4)),  # -eps: trace -4
    ((4, 1), (-1, 0)),  # eps' = 1/eps < 1: c < 0
    ((0, 1), (1, 4)),  # determinant -1
])
def test_fundamental_unit_refuses_a_matrix_that_is_not_its_own(matrix):
    basis = basis_of(QuadField(3).elem(2, 1))
    assert fundamental_unit_totally_positive(basis, ((0, -1), (1, 4))) == basis.delta
    with pytest.raises(UnitSearchError):
        fundamental_unit_totally_positive(basis, matrix)


def test_unit_index_lambda_counts_orbit_period():
    K = QuadField(3)
    basis = basis_of(K.elem(2, 1))
    eps = unit_of(basis)
    for q in (2, 3, 5):
        lam = unit_index_lambda(mult_matrix(eps, basis), q)
        # eps^lam must have coordinates congruent to (1, 0) mod q,
        # and no smaller positive power may.
        power = K.elem(1)
        for j in range(1, lam + 1):
            power = power * eps
            u, v = coords_in_basis(power, basis)
            hit = (u - 1) % q == 0 and v % q == 0
            assert hit == (j == lam)


def test_unit_index_lambda_is_bounded_by_q_squared():
    K = QuadField(11)
    basis = basis_of(K.elem(10, 3))
    eps = unit_of(basis)
    for q in range(2, 12):
        assert 1 <= unit_index_lambda(mult_matrix(eps, basis), q) <= q * q - 1
    # 2 is not a unit: its powers never return to 1 modulo 2*[1, delta]
    with pytest.raises(UnitSearchError):
        unit_index_lambda(mult_matrix(K.elem(2), basis), 2)


# Sign decisions from (trace, norm) against the QuadElem.sign route they replace.


def outcome(fn, *args):
    """What a call does: ("ok", its result) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # noqa: BLE001 - the exception is what is compared
        return type(e), str(e)


def build_basis(delta):
    basis_of(delta)


def build_basis_by_sign(delta):
    K = delta.field
    if not (delta > K.elem(1)):
        raise ValueError("delta must exceed 1")
    if not (K.elem(0) < conj(delta) < K.elem(1)):
        raise ValueError("conjugate of delta must lie in (0,1)")


fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
nonsquares = st.integers(2, 60).filter(lambda d: not is_perfect_square(d))


@settings(max_examples=400, deadline=None)
@given(fractions, fractions, nonsquares)
@example(Fraction(2), Fraction(1), 3)  # 2 + sqrt(3): reduced
@example(Fraction(1), Fraction(1), 3)  # conjugate negative
@example(Fraction(3), Fraction(1), 3)  # conjugate above 1
@example(Fraction(-2), Fraction(1), 3)  # below 1, as its conjugate is
@example(Fraction(2), Fraction(0), 3)  # rational above 1
@example(Fraction(1), Fraction(0), 3)  # rational 1
@example(Fraction(3, 4), Fraction(1, 6), 2)  # both roots in (1/2, 1): trace in (1, 2)
def test_trace_norm_signs_match_the_sign_route(a, b, Delta):
    K = QuadField(Delta)
    x = K.elem(a, b)
    want = outcome(build_basis_by_sign, x)
    assert outcome(build_basis, x) == want
    if a or b:
        assert is_totally_positive(x) == (x.sign() > 0 and conj(x).sign() > 0)
    one = K.elem(1)
    assert _is_plus_reduced(x) == (x > one and -one / conj(x) > one)


@settings(max_examples=300, deadline=None)
@given(fractions, fractions.filter(bool), nonsquares)
@example(Fraction(1, 2), Fraction(1, 2), 5)  # the golden ratio, above 1
@example(Fraction(-1), Fraction(1), 3)  # sqrt(3) - 1, below 1
@example(Fraction(3, 4), Fraction(1, 6), 2)  # both roots in (1/2, 1): vertex in (1/2, 1)
def test_cf_value_root_test_matches_the_sign_route(a, b, Delta):
    # the fixed-point equation A x^2 + B x + C = 0 of a + |b| sqrt(Delta), on integers
    L = math.lcm(a.denominator, b.denominator)
    A, B, C = L * L, -2 * int(a * L) * L, int(a * L) ** 2 - Delta * int(b * L) ** 2
    disc = B * B - 4 * A * C
    K = QuadField(squarefree_part(disc))
    root = K.elem(Fraction(-B, 2 * A), Fraction(math.isqrt(disc // K.Delta), 2 * A))
    if root > K.elem(1):
        want = "ok", root
    else:
        want = RuntimeError, "fixed-point root selection failed"
    with patch.object(contfrac, "fixed_point", lambda terms: (A, B, C)):
        assert outcome(cf_value, PeriodicCF((1,))) == want
