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
    plus_to_minus,
    primitive_period,
    s_indices,
)
from rayzeta.exactmath import LimitError
from rayzeta.family import PRESETS, checked_terms, poly_eval
from rayzeta.oracle import norm, plus_cf, trace
from rayzeta.quadfield import (
    ModuleBasis,
    QuadField,
    fundamental_unit_totally_positive,
    unit_matrix,
)


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


def run_length(terms):
    return MinusCF.from_runs((b, 1) for b in terms)


def per_term_unit(basis, terms):
    """Oracle: the boundary-point recurrence P_{i+1} = b_i P_i - P_{i-1}
    one term at a time, on the coordinates in [1, delta]; P_m = eps^{-1}."""
    (u_prev, v_prev), (u, v) = (0, 1), (1, 0)
    for b in terms:
        u_prev, v_prev, u, v = u, v, b * u - u_prev, b * v - v_prev
    return (u + v * basis.delta).inverse()


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
        run_length((2, 1))
    with pytest.raises(ValueError):
        MinusCF(((4, 1), (4, 2)))  # neighbouring runs with equal b
    with pytest.raises(ValueError):
        MinusCF(((4, 0),))
    assert PeriodicCF((2, 1)).s == 2
    assert run_length((4,)).m == 1
    mcf = run_length((2, 2, 5, 3, 3, 2))
    assert mcf.runs == ((2, 2), (5, 1), (3, 2), (2, 1))
    assert (mcf.m, mcf.terms) == (6, (2, 2, 5, 3, 3, 2))


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


def test_cf_value_takes_a_certified_radicand():
    cf = PeriodicCF((2, 1))  # 1 + sqrt(3); the discriminant is 12 = 3 * 2^2
    assert cf_value(cf, 3) == cf_value(cf) == QuadField(3).elem(1, 1)
    assert cf_value(cf, 5).field.Delta == 3  # 12 is not 5c^2: trial division decides


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
    assert mcf == minus_cf(cf_value(cf) + 1)
    assert mcf.terms == minus_cf(K.elem(2, 1)).terms == (4,)


@pytest.mark.parametrize("pair,Delta", [((3, 1), 11), ((2, 1), 6), ((4, 1), 19)])
def test_plus_to_minus_cross_validated(pair, Delta):
    K = QuadField(Delta)
    x = K.elem(*pair)
    try:
        cf = plus_cf(x)
    except NotReducedError:
        pytest.skip("not reduced")
    mcf = plus_to_minus(cf)
    assert mcf == minus_cf(cf_value(cf) + 1) == minus_cf(x + 1)
    assert all(b >= 2 for b in mcf.terms)


def test_minus_cf_term_structure():
    # the large terms a_{2j} + 2 sit at the S_j positions, twos in between
    K = QuadField(11)
    cf = plus_cf(K.elem(3, 1))
    mcf = plus_to_minus(cf)
    assert mcf == minus_cf(cf_value(cf) + 1)
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


@st.composite
def periods_with_runs(draw):
    """Minus-CF periods of 1..3 terms > 2, each followed by a run of 2s of
    length 0..40, and starting with one: when that first run is not empty
    the surd is < 2 and the period ends inside the run that it starts in."""
    terms = [2] * draw(st.integers(0, 40))
    for _ in range(draw(st.integers(1, 3))):
        terms.append(draw(st.integers(3, 12)))
        terms += [2] * draw(st.integers(0, 40))
    return tuple(terms)


@settings(max_examples=200, deadline=None)
@given(periods_with_runs())
def test_run_length_minus_cf_equals_ceiling_oracle(period):
    x = minus_cf_value(period)
    mcf = minus_cf(x)
    assert mcf.terms == ceiling_expansion(x)
    assert mcf == run_length(mcf.terms)
    assert mcf.terms * (len(period) // mcf.m) == period


@settings(max_examples=100, deadline=None)
@given(periods_with_runs())
def test_unit_from_runs_equals_per_term_recurrence(period):
    x = minus_cf_value(period)
    basis = ModuleBasis(x, (trace(x), norm(x)))
    mcf = minus_cf(x)
    want = per_term_unit(basis, mcf.terms)
    assert fundamental_unit_totally_positive(basis, unit_matrix(mcf.runs)) == want


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_run_length_minus_cf_and_unit_on_presets(name):
    spec = PRESETS[name]
    for n in range(max(spec.n_range[0], 1), 401):
        cf = PeriodicCF(tuple(poly_eval(a, n) for a in spec.a_polys))
        delta = cf_value(cf) + 1
        mcf = plus_to_minus(cf)
        assert mcf == minus_cf(delta), n
        basis = ModuleBasis(delta, (trace(delta), norm(delta)))
        eps = fundamental_unit_totally_positive(basis, unit_matrix(mcf.runs))
        assert eps == per_term_unit(basis, mcf.terms), n


def test_period_limit_counts_terms_not_runs():
    x = minus_cf_value((5,) + (2,) * 9)  # 10 terms in 2 runs
    assert minus_cf(x, max_period=10).runs == ((5, 1), (2, 9))
    with pytest.raises(LimitError):
        minus_cf(x, max_period=9)
    y = minus_cf_value((2,) * 4 + (5,) + (2,) * 5)  # y < 2: starts inside a run
    assert minus_cf(y, max_period=10).runs == ((2, 4), (5, 1), (2, 5))
    with pytest.raises(LimitError):
        minus_cf(y, max_period=9)
    # rd-n2p2 at n = 10^12: the index rule gives m = n in two runs, and the
    # family refuses that n for its period before anything of length m
    n = 10**12
    mcf = plus_to_minus(PeriodicCF((2 * n, n)))
    assert (mcf.runs, mcf.m) == (((2 * n + 2, 1), (2, n - 1)), n)
    with pytest.raises(LimitError, match="within 1000000 terms"):
        checked_terms(PRESETS["rd-n2p2"], n)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.integers(1, 3))
def test_minus_period_equals_least_period(base, repeat):
    # the last S_j of the primitive period, the period `checked_terms` reads
    # in O(s) with repetitions of the plus period included, is the least
    # period the ceiling algorithm finds
    def minus_period(terms):
        return s_indices(PeriodicCF(primitive_period(terms)))[-1]

    terms = tuple(base) * repeat
    assert minus_period(terms) == minus_cf(cf_value(PeriodicCF(terms)) + 1).m
    assert minus_period(terms) == minus_period(tuple(base))
