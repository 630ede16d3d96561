"""Tests for labels, orbits, boundary points, and exact zeta values."""

from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from rayzeta.contfrac import MinusCF, PeriodicCF, cf_value, plus_to_minus
from rayzeta.exactmath import frac_unit, residue_one, term12
from rayzeta.family import PRESETS, NonSquarefreeSkip, get_preset, instantiate, poly_eval
from rayzeta import shintani
from rayzeta.oracle import bernoulli1, bernoulli2, boundary_points, xy_direct
from rayzeta.quadfield import QuadField, coords_in_basis
from rayzeta.shintani import (
    ConeContext,
    InternalCheckError,
    LabelError,
    RayLabel,
    eps_act,
    f_delta,
    _series12,
    orbit,
    partial_zeta0,
    progression_sum,
    series_steps,
    yamamoto_numerators,
    yamamoto_xy,
)


def anchor_ctx(q=2):
    """delta = 1 + [[2, 1]] = 2 + sqrt(3): the smallest family member (n = 1)."""
    return ConeContext(PeriodicCF((2, 1)), 3, q)


def test_label_validation():
    with pytest.raises(LabelError):
        RayLabel(0, 0, 2)
    with pytest.raises(LabelError):
        RayLabel(2, 0, 2)
    with pytest.raises(LabelError):
        RayLabel(-1, 1, 3)


def test_context_anchor_data():
    ctx = anchor_ctx()
    assert ctx.mcf.terms == (4,)
    assert ctx.lam == 2
    assert ctx.eps == ctx.basis.delta.field.elem(2, 1)


def test_f_delta_is_lexicographic_and_coprime():
    ctx = anchor_ctx(3)
    labels = f_delta(ctx)
    assert labels == sorted(labels, key=lambda lab: (lab.C, lab.D))
    from math import gcd
    for lab in labels:
        assert gcd(ctx.norm_of(lab), 3) == 1


def test_eps_act_preserves_f_delta():
    ctx = anchor_ctx(5)
    labels = set((lab.C, lab.D) for lab in f_delta(ctx))
    for lab in f_delta(ctx):
        img = eps_act(ctx.eps, lab, ctx.basis)
        assert (img.C, img.D) in labels


def test_orbit_length_is_lambda():
    ctx = anchor_ctx(3)
    for lab in f_delta(ctx):
        assert len(orbit(lab, ctx)) == ctx.lam


def test_boundary_points_recurrence_and_unimodularity():
    ctx = anchor_ctx()
    count = 8
    pts = boundary_points(ctx.basis, ctx.mcf, count)
    assert pts[0] == ctx.basis.delta
    assert pts[1] == ctx.basis.delta.field.elem(1)
    for i in range(count):
        b = ctx.mcf.terms[i % ctx.mcf.m]
        assert pts[i + 2] == b * pts[i + 1] - pts[i]
    for i in range(count):
        u1, v1 = coords_in_basis(pts[i], ctx.basis)
        u2, v2 = coords_in_basis(pts[i + 1], ctx.basis)
        assert abs(u1 * v2 - u2 * v1) == 1


def test_one_minus_period_recovers_unit():
    # P_m = eps^{-1}, so eps * P_m = 1
    ctx = anchor_ctx()
    pts = boundary_points(ctx.basis, ctx.mcf, ctx.mcf.m)
    assert ctx.eps * pts[ctx.mcf.m + 1] == ctx.basis.delta.field.elem(1)


def test_yamamoto_seed_values():
    ctx = anchor_ctx()
    lab = RayLabel(1, 0, 2)
    seq = yamamoto_xy(lab, ctx.mcf, 4)
    assert seq.xs[0] == 1  # <0/2> = 1 under the (0,1] convention
    assert seq.ys[0] == Fraction(1, 2)
    for x, y in zip(seq.xs, seq.ys):
        assert 0 < x <= 1
        assert 0 <= y < 1


def test_yamamoto_equals_direct_solve():
    for q in (2, 3, 5):
        ctx = anchor_ctx(q)
        total = ctx.lam * ctx.mcf.m
        pts = boundary_points(ctx.basis, ctx.mcf, total + 1)
        for lab in f_delta(ctx):
            seq = yamamoto_xy(lab, ctx.mcf, total)
            for i in range(total + 1):
                assert xy_direct(lab, i, pts, ctx.basis) == (seq.xs[i], seq.ys[i])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_yamamoto_numerators_equal_q_times_xy(name):
    for q in (2, 3, 5, 7):
        spec = PRESETS[name].with_q(q)
        for n in range(spec.n_range[0], spec.n_range[0] + 4):
            try:
                mcf = instantiate(spec, n).ctx.mcf
            except NonSquarefreeSkip:
                continue
            count = 2 * mcf.m + 1
            for C in range(q):
                for D in range(q):
                    if (C, D) == (0, 0):
                        continue
                    lab = RayLabel(C, D, q)
                    xs = yamamoto_xy(lab, mcf, count).xs
                    assert yamamoto_numerators(lab, mcf, count) == [q - C] + [q * x for x in xs]


def test_partial_zeta_anchor_values():
    ctx = anchor_ctx()
    assert partial_zeta0(ctx, RayLabel(1, 0, 2)) == Fraction(1, 6)
    assert partial_zeta0(ctx, RayLabel(0, 1, 2)) == Fraction(1, 6)


def test_partial_zeta_constant_on_orbits():
    ctx = anchor_ctx(3)
    for lab in f_delta(ctx):
        values = {partial_zeta0(ctx, member) for member in orbit(lab, ctx)}
        assert len(values) == 1


def test_partial_zeta_rejects_labels_outside_f_delta():
    spec = PRESETS["rd-n2p2"].with_q(3)
    inst = instantiate(spec, 1)  # norm of (0 + 1*delta) = -2 mod 3 ... check gcd
    bad = [lab for C in range(3) for D in range(3) if (C, D) != (0, 0)
           for lab in [RayLabel(C, D, 3)]
           if lab not in f_delta(inst.ctx)]
    for lab in bad:
        with pytest.raises(LabelError):
            partial_zeta0(inst.ctx, lab)


def test_max_terms_cap(monkeypatch):
    monkeypatch.setenv("RAYZETA_MAX_TERMS", "1")
    with pytest.raises(RuntimeError):
        anchor_ctx()


def test_context_refuses_a_delta_that_is_not_integral():
    # delta = 1 + [[1, 2]] = (3 + sqrt(3))/2 is reduced, with trace 3 but
    # norm 3/2, so no label norm is an ideal norm
    cf = PeriodicCF((1, 2))
    assert cf_value(cf, 3) + 1 == QuadField(3).elem(Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(LabelError, match="^\\(C\\+D\\*delta\\)\\*b is not integral"):
        ConeContext(cf, 3, 2)


def test_context_checks_the_unit_matrix_against_trace_and_norm(monkeypatch):
    # for delta = 2 + sqrt(3) (tr 4, N 1) the unit's matrix is ((0, -1), (1, 4));
    # ((2, 1), (1, 1)) is a unit's matrix too, but d - a = -1 is not tr*c = 4
    assert anchor_ctx().trace_norm == (4, 1)
    monkeypatch.setattr(shintani, "unit_matrix", lambda runs: ((2, 1), (1, 1)))
    with pytest.raises(InternalCheckError, match="disagrees with delta's trace and norm"):
        anchor_ctx()


def test_partial_zeta_checks_each_period_end_against_the_orbit(monkeypatch):
    # acting by eps^{-1}, the adjugate of the unit matrix mod q, keeps every
    # orbit as a set and lambda = 10, and the total summed over the orbit;
    # only the state after each period tells the direction of the walk
    def inverse_act(self, label):
        (a, b), (c, d) = self.matrix
        C, D, q = label
        return RayLabel((d * C - b * D) % q, (a * D - c * C) % q, q)

    monkeypatch.setattr(ConeContext, "act", inverse_act)
    ctx = instantiate(get_preset("rd-n2p2", 11), 45).ctx
    labels = f_delta(ctx)
    assert (ctx.lam, len(labels)) == (10, 100)
    for lab in labels:
        where = f"^label \\({lab.C}, {lab.D}\\) mod 11: after period 1 the state "
        with pytest.raises(InternalCheckError, match=where):
            partial_zeta0(ctx, lab)


def yamamoto_single_sum(ctx, label):
    """Oracle: the single sum over i = 1..lambda*m on Fraction coordinates."""
    m = ctx.mcf.m
    xs = yamamoto_xy(label, ctx.mcf, ctx.lam * m).xs
    return sum(
        (-bernoulli1(xs[i]) * bernoulli1(xs[i - 1])
         + Fraction(ctx.mcf.terms[i % m], 2) * bernoulli2(xs[i])
         for i in range(1, len(xs))),
        Fraction(0),
    )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_partial_zeta_equals_fraction_sum_on_a3_grid(name):
    for q in (2, 3, 5):
        spec = PRESETS[name].with_q(q)
        for n in range(spec.n_range[0], 13):
            try:
                ctx = instantiate(spec, n).ctx
            except NonSquarefreeSkip:
                continue
            for lab in f_delta(ctx):
                assert partial_zeta0(ctx, lab) == yamamoto_single_sum(ctx, lab), (q, n, lab)


def per_term_series12(C, D, q, terms, count):
    """Oracle: the series streamed one term at a time over i = 1..count, and
    its last state (X_{count-1}, X_count)."""
    m = len(terms)
    x_prev, x = q - C, residue_one(D, q)
    total = 0
    for i in range(count):
        x_prev, x = x, residue_one(terms[i % m] * x - x_prev, q)
        total += term12(terms[(i + 1) % m], x, x_prev, q)
    return total, (x_prev, x)


def test_progression_sum_equals_fraction_sum():
    # oracle: the series summed on Fraction coordinates x_i = <nu + i*d>
    for q in range(2, 8):
        for dX in range(1, q + 1):
            for X0 in range(1, q + 1):
                d, nu = Fraction(dX, q), Fraction(X0, q)
                xs = [frac_unit(nu + i * d) for i in range(5 * q + 1)]
                want = Fraction(0)
                for count in range(5 * q + 1):
                    if count:
                        want += -bernoulli1(xs[count]) * bernoulli1(xs[count - 1])
                        want += bernoulli2(xs[count])
                    got = progression_sum(count, dX, X0, q)
                    assert type(got) is int and Fraction(got, 12 * q * q) == want


def steps_of(terms):
    return series_steps(MinusCF.from_runs((b, 1) for b in terms).runs)


def test_series_steps_merge_runs_of_twos():
    # step j pairs b_{j-1} with b_j, indices mod m
    assert steps_of((22, 2, 2, 2)) == ((22, 2, 1), (2, 2, 2), (2, 22, 1))
    # the run across the period end stays a separate last step
    assert steps_of((2, 5, 2)) == ((2, 5, 1), (5, 2, 1), (2, 2, 1))
    assert steps_of((4,)) == ((4, 4, 1),)


@st.composite
def run_length_cfs(draw):
    """(q, terms): minus-CF periods of terms >= 2 whose runs of 2s have length
    0..5q, starting and ending with a run so that one can straddle the period
    end."""
    q = draw(st.integers(2, 11))
    runs = st.integers(0, 5 * q)
    terms = [2] * draw(runs)
    for _ in range(draw(st.integers(1, 3))):
        terms.append(draw(st.integers(2, 30)))
        terms += [2] * draw(runs)
    return q, tuple(terms)


@settings(max_examples=60, deadline=None)
@given(run_length_cfs(), st.integers(1, 4))
def test_run_length_series_equals_per_term_stream(cf, periods):
    q, terms = cf
    steps = steps_of(terms)
    assert sum(k for _, _, k in steps) == len(terms)
    for C in range(q):
        for D in range(q):
            if (C, D) != (0, 0):
                total, state = 0, (q - C, residue_one(D, q))
                for _ in range(periods):
                    part, state = _series12(state, q, steps)
                    total += part
                want = per_term_series12(C, D, q, terms, periods * len(terms))
                assert (total, state) == want, (C, D)


def per_term_series_steps(terms):
    """Oracle: the steps built by walking all m terms, merging (2, 2) pairs."""
    steps = []
    for pair, group in groupby(zip(terms, terms[1:] + terms[:1])):
        k = len(list(group))
        steps += [pair + (k,)] if pair == (2, 2) else [pair + (1,)] * k
    return tuple(steps)


@settings(max_examples=200, deadline=None)
@given(run_length_cfs())
def test_series_steps_from_runs_equal_per_term_steps(cf):
    _, terms = cf
    assert steps_of(terms) == per_term_series_steps(terms)


def test_context_never_builds_the_term_tuple(monkeypatch):
    def refuse(self):
        raise AssertionError("the m-term tuple was built")

    monkeypatch.setattr(MinusCF, "terms", property(refuse))
    spec = get_preset("quartic-16n4", 7)
    ctx = instantiate(spec, 300).ctx  # m = 601, lambda = 4
    assert (ctx.mcf.m, ctx.lam) == (601, 4)
    assert sum(k for _, _, k in ctx.steps) == ctx.mcf.m
    for lab in f_delta(ctx)[:3]:
        partial_zeta0(ctx, lab)


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for k >= 1 and gcd(h, k) = 1, by reciprocity:
    s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4, and s(h, k) = s(h mod k, k)."""
    h %= k
    if h == 0:
        return Fraction(0)  # k = 1: the empty sum
    return Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4) - dedekind_sum(k, h)


def sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - x.numerator // x.denominator - Fraction(1, 2)


def dedekind_sum_oracle(h: int, k: int) -> Fraction:
    """s(h, k) by its definition, the sum of ((j/k))((hj/k)) over j = 1..k-1."""
    return sum((sawtooth(Fraction(j, k)) * sawtooth(Fraction(h * j, k)) for j in range(1, k)),
               Fraction(0))


def assert_dedekind_oracle(mcf: MinusCF) -> None:
    # gamma = prod [[b_i, -1], [1, 0]] over one period = [[a, b], [c, d]]:
    # the q = 1 series, the sum of b_i - 3, is Rademacher's
    # (a + d)/c - 12 s(d, c) - 3, an oracle from outside the cone sums
    a, b, c, d = 1, 0, 0, 1
    for t in mcf.terms:
        a, b, c, d = a * t + b, -a, c * t + d, -c
    assert a * d - b * c == 1 and c > 0
    s = dedekind_sum(d, c)
    if c <= 200:
        assert s == dedekind_sum_oracle(d, c)
    want = Fraction(a + d, c) - 12 * s - 3
    # label (0, 0) at q = 1 is the state (1, 1), fixed by every period
    assert _series12((1, 1), 1, series_steps(mcf.runs)) == (want, (1, 1))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_series_equals_dedekind_sum_formula_on_presets(name):
    spec = PRESETS[name]
    for n in range(max(spec.n_range[0], 1), 21):
        terms = tuple(poly_eval(a, n) for a in spec.a_polys)
        assert_dedekind_oracle(plus_to_minus(PeriodicCF(terms)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 9), st.integers(1, 6)), min_size=1, max_size=5)
       .filter(lambda runs: any(b > 2 for b, _ in runs)))
def test_series_equals_dedekind_sum_formula_on_random_runs(runs):
    # a period with a term > 2 is hyperbolic; a cyclic rotation of the runs
    # is another period of the same class
    mcf = MinusCF.from_runs(runs)
    if mcf.runs[0][0] == mcf.runs[-1][0] and len(mcf.runs) > 1:
        mcf = MinusCF.from_runs(mcf.runs[1:] + mcf.runs[:1])
    assert_dedekind_oracle(mcf)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_orbit_of_files_each_member_with_its_rotation_of_the_cycle(preset):
    # a context walks each cycle once; every member's orbit is the cycle
    # started at that member, as a walk from the member on a fresh context gives
    checked = 0
    for q in range(2, 12):
        spec = get_preset(preset, q)
        for n in range(spec.n_range[0], 9):
            try:
                ctx, fresh = instantiate(spec, n).ctx, instantiate(spec, n).ctx
            except NonSquarefreeSkip:
                continue
            for member in f_delta(ctx):
                assert ctx.orbit_of(member) == orbit(member, fresh)
                checked += 1
    assert checked > 1000
