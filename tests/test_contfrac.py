"""Tests for plus and minus continued fractions and their conversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rayzeta.contfrac import (
    MinusCF,
    NotReducedError,
    PeriodicCF,
    cf_value,
    minus_cf,
    pair_count,
    plus_cf,
    plus_to_minus,
    s_indices,
)
from rayzeta.exactmath import LimitError
from rayzeta.family import PRESETS, poly_eval
from rayzeta.quadfield import QuadField


def ceiling_expansion(x, max_period=10**4):
    """Oracle: the ceiling algorithm x -> 1/(ceil(x) - x) on field elements,
    period found by repetition of x itself."""
    start, cur, terms = x, x, []
    while len(terms) < max_period:
        b = cur.ceil()
        terms.append(b)
        cur = (b - cur).inverse()
        if cur == start:
            return tuple(terms)
    raise AssertionError("oracle found no period")


def minus_cf_value(terms):
    """The root > 1 of x = ((terms)) written as a field element."""
    p, p1, q, q1 = 1, 0, 0, 1  # [[p, p1], [q, q1]] = product of [[b, -1], [1, 0]]
    for b in terms:
        p, p1, q, q1 = b * p + p1, -p, b * q + q1, -q
    # x = (p x + p1) / (q x + q1):  q x^2 + (q1 - p) x - p1 = 0
    B = q1 - p
    return QuadField(B * B + 4 * q * p1).elem(Fraction(-B, 2 * q), Fraction(1, 2 * q))


def test_term_validation():
    with pytest.raises(ValueError):
        PeriodicCF((2, 0))
    with pytest.raises(ValueError):
        MinusCF((2, 1))
    assert PeriodicCF((2, 1)).s == 2
    assert MinusCF((4,)).m == 1


def test_plus_cf_golden_like():
    # 1 + sqrt(3) is reduced with purely periodic expansion [[2, 1]]
    K = QuadField(3)
    cf = plus_cf(K.elem(1, 1))
    assert cf.terms == (2, 1)


def test_plus_cf_rejects_rationals_and_unreduced():
    K = QuadField(3)
    with pytest.raises(NotReducedError):
        plus_cf(K.elem(5, 0))
    with pytest.raises(NotReducedError):
        plus_cf(K.elem(5, 1))  # conjugate is positive, not reduced


def test_minus_cf_small_cases():
    K = QuadField(3)
    assert minus_cf(K.elem(2, 1)).terms == (4,)
    K11 = QuadField(11)
    cf = plus_cf(K11.elem(3, 1))  # 3 + sqrt(11) ~ 6.32 is reduced
    assert cf.terms[0] == 6


def test_cf_value_inverts_plus_cf():
    for Delta, pair in [(3, (1, 1)), (11, (3, 1)), (6, (2, 1))]:
        K = QuadField(Delta)
        x = K.elem(*pair)
        try:
            cf = plus_cf(x)
        except NotReducedError:
            continue
        assert cf_value(cf) == x


def test_cf_value_round_trip_from_terms():
    cf = PeriodicCF((2, 1))
    x = cf_value(cf)
    assert plus_cf(x).terms == (2, 1)


def test_pair_count():
    assert pair_count(2) == 1
    assert pair_count(4) == 2
    assert pair_count(1) == 1
    assert pair_count(3) == 3


def test_s_indices_partial_sums():
    cf = PeriodicCF((4, 3, 2, 5))
    idx = s_indices(cf)
    # S_0 = 0, S_j = S_{j-1} + a_{2j-1}
    assert idx[0] == 0
    assert idx[1] == idx[0] + 3
    assert idx[2] == idx[1] + 5


def test_plus_to_minus_matches_direct_expansion():
    # delta - 1 = [[2, 1]] for delta = 2 + sqrt(3); minus CF of delta is ((4,))
    K = QuadField(3)
    cf = plus_cf(K.elem(1, 1))
    mcf = plus_to_minus(cf)
    assert mcf.terms == minus_cf(K.elem(2, 1)).terms == (4,)


@pytest.mark.parametrize("pair,Delta", [((3, 1), 11), ((2, 1), 6), ((4, 1), 19)])
def test_plus_to_minus_cross_validated(pair, Delta):
    K = QuadField(Delta)
    x = K.elem(*pair)
    try:
        cf = plus_cf(x)
    except NotReducedError:
        pytest.skip("not reduced")
    mcf = plus_to_minus(cf)  # validate=True checks against minus_cf(x + 1)
    assert all(b >= 2 for b in mcf.terms)


def test_minus_cf_term_structure():
    # the large terms a_{2j} + 2 sit at the S_j positions, twos in between
    K = QuadField(11)
    cf = plus_cf(K.elem(3, 1))
    mcf = plus_to_minus(cf)
    a = cf.terms
    assert mcf.m == sum(a[2 * j - 1] for j in range(1, pair_count(cf.s) + 1))
    assert mcf.terms.count(2) == mcf.m - pair_count(cf.s)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_minus_cf_equals_ceiling_oracle_on_presets(name):
    spec = PRESETS[name]
    for n in range(max(spec.n_range[0], 1), 41):
        delta = cf_value(PeriodicCF(tuple(poly_eval(a, n) for a in spec.a_polys))) + 1
        assert minus_cf(delta).terms == ceiling_expansion(delta), n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 12), min_size=1, max_size=8).filter(lambda t: max(t) > 2))
def test_minus_cf_equals_ceiling_oracle_on_random_surds(period):
    x = minus_cf_value(period)
    terms = minus_cf(x).terms
    assert terms == ceiling_expansion(x)
    assert terms * (len(period) // len(terms)) == tuple(period)


def test_minus_cf_rejects_unreduced():
    K = QuadField(3)
    for a, b in [(5, 0), (1, 1), (3, 1), (2, -1), (Fraction(1, 2), Fraction(3, 2))]:
        with pytest.raises(NotReducedError):
            minus_cf(K.elem(a, b))


def test_period_limits_raise_limit_error():
    with pytest.raises(LimitError):
        minus_cf(minus_cf_value((4, 3)), max_period=1)
    with pytest.raises(LimitError):
        plus_cf(QuadField(3).elem(1, 1), max_period=1)  # [[2, 1]], period 2
