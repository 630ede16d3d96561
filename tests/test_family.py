"""Tests for the quasi-polynomial engine over polynomial families."""

import json
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rayzeta import family
from rayzeta.cli import main
from rayzeta.contfrac import PeriodicCF, cf_value, minus_cf, plus_to_minus, s_indices
from rayzeta.exactmath import LimitError, frac_unit
from rayzeta.family import (
    A_im,
    FamilySpec,
    HypothesisError,
    NonSquarefreeSkip,
    PRESETS,
    SCAN,
    QuasiPoly,
    FieldTable,
    ResidueContext,
    coeffs_closed,
    delta_trace_norm,
    first_instances,
    fit_oracle,
    get_preset,
    instantiate,
    lagrange_fit,
    norm_invariance_check,
    poly_add,
    poly_div,
    poly_eval,
    poly_mul,
    poly_shift,
    quasi_poly,
)
from rayzeta.oracle import mult_matrix, norm, trace
from rayzeta.quadfield import unit_index_lambda
from rayzeta.shintani import (
    RayLabel,
    eps_act,
    f_delta,
    orbit,
    partial_zeta0,
    yamamoto_numerators,
    yamamoto_xy,
)


def test_poly_eval():
    assert poly_eval((2, 0, 1), 3) == 11  # 2 + 3^2
    assert poly_eval((0, 2), 4) == 8


def test_presets_well_formed():
    rd = get_preset("rd-n2p2")
    assert rd.d == 1 and rd.s == 2
    quartic = get_preset("quartic-16n4", q=3)
    assert quartic.d == 2 and quartic.q == 3


def test_instantiate_skips_non_squarefree():
    spec = PRESETS["rd-n2p2"]
    with pytest.raises(NonSquarefreeSkip):
        instantiate(spec, 5)  # f(5) = 27 = 3^3


def test_instantiate_builds_expected_field():
    spec = PRESETS["rd-n2p2"]
    inst = instantiate(spec, 1)
    assert inst.ctx.cf.terms == (2, 1)
    assert inst.ctx.basis.delta.field.Delta == 3
    assert inst.n == 1  # r = 1, k = 0


def test_instantiate_reports_a_radicand_that_differs_from_f():
    # f(1) = 5 is squarefree, but delta(1) - 1 = [[2, 1]] is 1 + sqrt(3)
    spec = FamilySpec("wrong-f", (5,), ((0, 2), (0, 1)), 2, (0, 10))
    with pytest.raises(HypothesisError, match=r"radicand 3, expected f\(1\) = 5"):
        instantiate(spec, 1)


def test_sample_ks_respects_range_and_squarefreeness():
    # the field table skips n = qk + r below the range and where f(n) is not
    # squarefree, and the oracle takes its used and skipped k from it
    spec = PRESETS["rd-n2p2"]  # n_range starts at 1
    table0, table1 = FieldTable(spec, 0), FieldTable(spec, 1)
    assert table0.check(0) is None  # n = 0 is below the valid range
    assert table1.check(5) is None  # n = 5, f = 27 not squarefree
    assert table1.check(1) and table1.check(3)
    fit = fit_oracle(ResidueContext(spec, 1), RayLabel(1, 0, 2), range(4))
    assert (fit.used_ks, fit.skipped_ks) == ((0, 1, 3), (2,))


def test_gamma_tau_reconstructs_terms():
    spec = PRESETS["quartic-16n4"].with_q(3)
    for r in range(3):
        rctx = ResidueContext(spec, r)
        gammas, taus = rctx.gammas, rctx.taus
        for i, a in enumerate(spec.a_polys):
            assert poly_eval(a, r) == 3 * taus[i] + gammas[i]
            assert 1 <= gammas[i] <= 3


def residue_data_oracle(spec, label, r):
    """The residue-level tables written out by hand on Fractions: Gamma_0 = 0,
    Gamma_j = Gamma_{j-1} + gamma_{2j-1}; nu^{-1} = (q - A)/q, nu^0 = <B/q>,
    nu^{i+1} = <c_i nu^i - nu^{i-1}> with c_i = gamma_{2j} + 2 at i = Gamma_j
    and c_i = 2 elsewhere; d^l = <nu^{Gamma_l + 1} - nu^{Gamma_l}>."""
    q, s = spec.q, spec.s
    J = s // 2 if s % 2 == 0 else s
    gammas = [(poly_eval(spec.a_polys[i % s], r) - 1) % q + 1 for i in range(2 * J)]
    Gammas = [0]
    for j in range(1, J + 1):
        Gammas.append(Gammas[-1] + gammas[2 * j - 1])
    special = {Gammas[j]: gammas[(2 * j) % (2 * J)] + 2 for j in range(J + 1)}
    nus = [Fraction(q - label.C, q), frac_unit(Fraction(label.D, q))]
    for i in range(Gammas[-1]):
        nus.append(frac_unit(special.get(i, 2) * nus[-1] - nus[-2]))
    ds = [frac_unit(nus[G + 2] - nus[G + 1]) for G in Gammas[:-1]]
    return Gammas, nus, ds


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_residue_data_equals_yamamoto_xy(name):
    # coeffs_closed takes Gamma from s_indices and the nu numerators from the
    # integer recursion over the index rule applied to the gamma_i; both
    # equal the hand-written tables, and the numerators equal q * yamamoto_xy
    # over the minus CF of plus_to_minus, which equals the ceiling algorithm's
    cases = 0
    for q in range(2, 12):
        spec = PRESETS[name].with_q(q)
        for r in range(q):
            rcf = PeriodicCF(tuple((poly_eval(a, r) - 1) % q + 1 for a in spec.a_polys))
            mcf = plus_to_minus(rcf)
            assert mcf == minus_cf(cf_value(rcf) + 1)
            Gammas = s_indices(rcf)
            assert Gammas[-1] == mcf.m
            for C in range(q):
                for D in range(q):
                    if (C, D) == (0, 0):
                        continue
                    lab = RayLabel(C, D, q)
                    X = yamamoto_numerators(lab, mcf, mcf.m)
                    want_Gammas, nus, ds = residue_data_oracle(spec, lab, r)
                    assert Gammas == want_Gammas
                    assert X == [q * nu for nu in nus]
                    assert X[1:] == [q * x for x in yamamoto_xy(lab, mcf, mcf.m).xs]
                    steps = [(X[G + 2] - X[G + 1] - 1) % q + 1 for G in Gammas[:-1]]
                    assert steps == [q * d for d in ds]
                    cases += 1
    assert cases == sum(q * (q * q - 1) for q in range(2, 12))


def test_A_im_linear_family():
    # a_0(n) = 2n: a_0(qk+r)/q = 2k + 2r/q, so A_{0,1} = 2
    rctx = ResidueContext(PRESETS["rd-n2p2"].with_q(2), 1)
    assert A_im(rctx, 0, 1) == 2
    assert A_im(rctx, 1, 1) == 1
    # a_0(n) = 8n^2 + 8n + 2 at q = 3: a_0(3k+r)/3 = 24k^2 + (16r + 8)k + ...
    quartic = PRESETS["quartic-16n4"].with_q(3)
    for r in range(3):
        rctx = ResidueContext(quartic, r)
        assert A_im(rctx, 0, 1) == 16 * r + 8
        assert A_im(rctx, 0, 2) == 24
        assert type(A_im(rctx, 0, 2)) is int
        # a_1(n) = 2n + 1 has no k^2 term
        assert A_im(rctx, 1, 2) == 0


def test_coeffs_closed_sum_matches_direct_value():
    spec = PRESETS["rd-n2p2"].with_q(2)
    lab = RayLabel(1, 0, 2)
    inst = instantiate(spec, 3)  # r = 1, k = 1
    rctx = ResidueContext(spec, 1)
    total = [Fraction(0), Fraction(0)]
    for member in orbit(lab, inst.ctx):
        part = coeffs_closed(rctx, member)
        total = [t + p for t, p in zip(total, part)]
    assert total[0] + total[1] * (inst.n // 2) == partial_zeta0(inst.ctx, lab)


def test_quasi_poly_known_coefficients():
    spec = PRESETS["rd-n2p2"].with_q(2)
    qp = quasi_poly(spec, RayLabel(1, 0, 2), 1)
    assert (qp.coeff(1, 0), qp.coeff(1, 1)) == (Fraction(1, 6), Fraction(1, 3))
    qp3 = quasi_poly(PRESETS["rd-n2p2"].with_q(3), RayLabel(0, 1, 3), 1)
    assert (qp3.coeff(1, 0), qp3.coeff(1, 1)) == (Fraction(1, 6), Fraction(1, 6))


def test_quasi_poly_agrees_with_fit_oracle():
    spec = PRESETS["quartic-16n4"].with_q(2)
    lab = RayLabel(0, 1, 2)
    for r in range(2):
        rctx = ResidueContext(spec, r)
        qp = quasi_poly(spec, lab, r, rctx)
        fit = fit_oracle(rctx, lab, range(0, spec.d + 6))
        assert fit.consistent
        assert fit.coeffs == tuple(qp.coeff(r, i) for i in range(spec.d + 1))


def test_quasi_poly_evaluates_to_direct_zeta():
    spec = PRESETS["rd-n2p2"].with_q(2)
    lab = RayLabel(0, 1, 2)
    qp = quasi_poly(spec, lab, 0)
    for n in (2, 4, 6):
        try:
            inst = instantiate(spec, n)
        except NonSquarefreeSkip:
            continue
        assert qp.evaluate(n) == partial_zeta0(inst.ctx, lab)


def test_k_n_form_round_trip_and_pointwise():
    coeffs = {r: tuple(Fraction(3 * r - 2 * i + 1, i + 2) for i in range(3)) for r in range(3)}
    p = QuasiPoly(3, coeffs)
    for n in range(12):
        assert p.evaluate(n) == poly_eval(p.n_coeffs(n % 3), n)
    for r, c in coeffs.items():
        assert poly_shift(p.n_coeffs(r), 3, r) == c
        assert all(type(x) is Fraction for x in p.n_coeffs(r))


def test_quasi_poly_evaluate_names_a_missing_residue():
    p = QuasiPoly(3, {0: (Fraction(1),)})
    assert p.evaluate(6) == 1 and p.coeff(0, 1) == 0 and p.coeff(1, 0) == 0
    with pytest.raises(KeyError, match="no coefficients for residue 1"):
        p.evaluate(7)


int_polys = st.lists(st.integers(-50, 50), max_size=5).map(tuple)
# |x| < 50 with denominator <= 20, drawn by bounds rather than a filter
fractions = st.fractions(min_value=Fraction(-999, 20), max_value=Fraction(999, 20),
                         max_denominator=20)


@settings(max_examples=60, deadline=None)
@given(st.one_of(int_polys, st.lists(fractions, max_size=5).map(tuple)),
       st.one_of(st.integers(-9, 9), fractions), st.one_of(st.integers(-9, 9), fractions),
       st.lists(st.one_of(st.integers(-20, 20), fractions), min_size=1, max_size=4))
def test_poly_shift_equals_direct_evaluation(p, a, b, xs):
    shifted = poly_shift(p, a, b)
    assert len(shifted) == len(p)
    for x in xs:
        assert poly_eval(shifted, x) == poly_eval(p, a * x + b)


@settings(max_examples=60, deadline=None)
@given(st.lists(fractions, min_size=1, max_size=5).map(tuple), st.integers(2, 13), st.data())
def test_poly_shift_to_k_and_back_is_the_identity(p, q, data):
    # n = qk + r takes an n-form to k; k = n/q - r/q takes it back
    r = data.draw(st.integers(0, q - 1))
    assert poly_shift(poly_shift(p, q, r), Fraction(1, q), Fraction(-r, q)) == p
    assert poly_shift(poly_shift(p, Fraction(1, q), Fraction(-r, q)), q, r) == p


def test_norm_invariance_on_presets():
    for name in PRESETS:
        spec = PRESETS[name].with_q(3)
        lab = RayLabel(1, 1, 3)
        for r in range(3):
            assert norm_invariance_check(spec, lab, r)


def test_first_instances_skips_below_range():
    spec = PRESETS["rd-n2p2"].with_q(2)
    insts = first_instances(spec, 0, 2)
    # n = 0 is below the valid range and f(4) = 18 = 2 * 3^2 is skipped
    assert [inst.n for inst in insts] == [2, 6]
    assert all(inst.n >= spec.n_range[0] for inst in insts)


def test_uncertifiable_family_raises():
    # f(n) = 4(n+1)^2 is never squarefree: delta(n) is that of rd-n2p2, so its
    # trace and norm are decided, but no residue holds a field
    spec = FamilySpec("adv", (4, 8, 4), ((0, 2), (0, 1)), 2, (0, 100))
    assert delta_trace_norm(spec) == TRACE_NORM["rd-n2p2"]
    no_witnesses = "^could not find 2 squarefree instances for residue 0$"
    with pytest.raises(HypothesisError, match=no_witnesses):
        norm_invariance_check(spec, RayLabel(1, 0, 2), 0)
    for r in range(2):
        with pytest.raises(HypothesisError, match=f"^could not find 2 squarefree .* residue {r}$"):
            ResidueContext(spec, r)


def test_radicand_other_than_f_is_refused_where_a_field_is_built(monkeypatch, capsys):
    # [[2n, n]] with f off by a constant: the trace and norm of delta(n)
    # are in Z[n], so the label side is decided; f(n) = n^2 + 3 is checked
    # against the radicand n^2 + 2 of delta(n) on integers, by instantiate
    # and by the residue context's scan for its first field, which builds none
    spec = FamilySpec("adv", (3, 0, 1), ((0, 2), (0, 1)), 2, (1, 100))
    assert delta_trace_norm(spec) == TRACE_NORM["rd-n2p2"]
    radicand = r"^Q\(delta\(2\)\) has radicand 6, expected f\(2\) = 7$"
    with pytest.raises(HypothesisError, match=radicand):
        instantiate(spec, 2)
    monkeypatch.setattr(family, "instantiate", no_field)
    with pytest.raises(HypothesisError, match=radicand):
        ResidueContext(spec, 0)
    with pytest.raises(HypothesisError, match=radicand):
        quasi_poly(spec, RayLabel(1, 0, 2), 0)
    # so `family` reports it once per residue, not once per label
    argv = ["family", "--f-poly", "3,0,1", "--a-polys", "0,2;0,1", "--q", "5"]
    assert main(argv) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == []
    assert report["failures"] == [{"r": 0, "error": "a_i(0) = (0, 0) has a term < 1"}] + [
        {"r": r, "error": f"Q(delta({n})) has radicand {n * n + 2}, expected f({n}) = {n * n + 3}"}
        for r, n in ((1, 6), (2, 2), (3, 8))] + [
        {"r": 4, "error": "Q(delta(4)) has radicand 2, expected f(4) = 19"}]  # 18 = 2 * 3^2


def test_lagrange_fit_recovers_polynomial():
    def f(x):
        return Fraction(2, 3) * x**2 - 5 * x + Fraction(1, 7)

    pts = [(x, f(x)) for x in (0, 1, 3, 4)]
    fit = lagrange_fit(pts)
    assert fit == [Fraction(1, 7), Fraction(-5), Fraction(2, 3)]


def reference_lagrange_fit(points):
    """The Lagrange fit written out on Fraction lists, term by term: the
    reference that `lagrange_fit` on the `poly_*` kernels must equal."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for j, (xj, yj) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for i, (xi, _) in enumerate(points):
            if i == j:
                continue
            denom *= xj - xi
            new = [Fraction(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                new[p] += -xi * c
                new[p + 1] += c
            basis = new
        scale = yj / denom
        for p, c in enumerate(basis):
            coeffs[p] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), fractions), max_size=6,
                unique_by=lambda point: point[0]))
@example([(0, Fraction(3)), (2, Fraction(3)), (5, Fraction(3))])  # a constant: trailing zeros
def test_lagrange_fit_equals_the_reference(points):
    fit = lagrange_fit(points)
    assert fit == reference_lagrange_fit(points)
    assert all(type(c) is Fraction for c in fit)


def test_fit_oracle_requires_enough_samples():
    rctx = ResidueContext(PRESETS["rd-n2p2"].with_q(2), 1)
    with pytest.raises(HypothesisError):
        fit_oracle(rctx, RayLabel(1, 0, 2), [0, 1])


def test_denominator_bound_on_k_coefficients():
    for name in PRESETS:
        for q in (2, 3):
            spec = PRESETS[name].with_q(q)
            ctx = first_instances(spec, 1, 1)[0].ctx
            lab = f_delta(ctx)[0]
            qp = quasi_poly(spec, lab, 1)
            for i in range(spec.d + 1):
                assert (12 * q * q * qp.coeff(1, i)).denominator == 1


def test_poly_arithmetic():
    assert poly_add((1, 2), (0, 0, 3), -1) == (1, 2, -3)
    assert poly_mul((1, 1), (-1, 1)) == (-1, 0, 1)
    assert poly_div((-1, 0, 1), (1, 1)) == (-1, 1)
    assert poly_div((0, 0, 6), (0, 2)) == (0, 3)
    assert poly_div((5,), (0, 1)) is None  # nonzero remainder
    assert poly_div((0, 1), (0, 2)) is None  # quotient 1/2 is not in Z[x]
    assert poly_div((1, 1), (0,)) is None  # division by zero
    assert poly_div((0,), (0, 1)) == (0,)


# the trace and norm of delta(n): 2 + 2n and 2n - 1 for rd-n2p2,
# 8n^2 + 8n + 4 and 8n^2 + 4n + 1 for quartic-16n4
TRACE_NORM = {"rd-n2p2": ((2, 2), (-1, 2)), "quartic-16n4": ((4, 8, 8), (1, 4, 8))}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_delta_trace_norm_on_presets(name):
    spec = PRESETS[name]
    assert delta_trace_norm(spec) == TRACE_NORM[name]
    tr, nm = TRACE_NORM[name]
    for n in range(spec.n_range[0], 15):
        try:
            delta = instantiate(spec, n).ctx.basis.delta
        except NonSquarefreeSkip:
            continue
        assert (trace(delta), norm(delta)) == (poly_eval(tr, n), poly_eval(nm, n))


@pytest.mark.parametrize("f_poly,a_polys", [
    ((2, 0, 1), ((0, 1), (0, 2))),  # [[n, 2n]]: N delta = n + 1/2
    ((2, 0, 1), ((1,), (0, 1))),  # [[1, n]]: N delta = 2 - 1/n
    ((2, 0, 1), ((1,), (1,), (0, 1))),  # [[1, 1, n]]: tr delta = 2 + 2n/(n + 1)
])
def test_delta_trace_norm_rejects(f_poly, a_polys):
    assert delta_trace_norm(FamilySpec("adv", f_poly, a_polys, 2, (0, 100))) is None


def trace_norm_of_x(a_terms):
    """tr x and N x for x = [[a_terms]], as Fractions, from the convergents."""
    p_prev, p, q_prev, q = 1, a_terms[0], 0, 1
    for a in a_terms[1:]:
        p_prev, p, q_prev, q = p, a * p + p_prev, q, a * q + q_prev
    return Fraction(p - q_prev, q), Fraction(-p_prev, q)


def test_delta_trace_norm_decides_every_pointwise_integral_family():
    # every family with s <= 2 and each a_i of degree 1 or 2, coefficients
    # 0..3: where tr x and N x (x = delta - 1) are integers for n = 1..30,
    # they are polynomials in Z[n], so delta_trace_norm decides the family;
    # where it does, its polynomials give the trace and norm at each n
    polys = [(c0, c1, c2) for c0 in range(4) for c1 in range(4) for c2 in range(4)
             if c1 or c2]
    families = [(a,) for a in polys] + [(a, b) for a in polys for b in polys]
    decided = 0
    for a_polys in families:
        got = delta_trace_norm(FamilySpec("guard", (2, 0, 1), a_polys, 2))
        values = [trace_norm_of_x([poly_eval(a, n) for a in a_polys]) for n in range(1, 31)]
        integral = all(t.denominator == nx.denominator == 1 for t, nx in values)
        assert (got is not None) == integral, a_polys
        if got is not None:
            decided += 1
            assert all((poly_eval(got[0], n), poly_eval(got[1], n)) == (2 + t, 1 + t + nx)
                       for n, (t, nx) in enumerate(values, 1)), a_polys
    assert (len(families), decided) == (3660, 164)
def matrix_mod(ctx, q):
    return tuple(tuple(int(e) % q for e in row) for row in mult_matrix(ctx.eps, ctx.basis))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_residue_context_equals_instance_data(name):
    # lambda, the unit's matrix mod q, F_delta, every orbit and every label
    # norm mod q of the residue context equal those of three fields per
    # residue, for every q <= 11 and every r; each field's integer lambda
    # and label norms equal the Fraction oracles, lambda of mult_matrix and
    # the field norm of C + D*delta
    cases = empty = 0
    for q in range(2, 12):
        spec = PRESETS[name].with_q(q)
        labels = [RayLabel(C, D, q) for C in range(q) for D in range(q) if C or D]
        for r in range(q):
            if len(list(filter(FieldTable(spec, r).check, range(r, q * SCAN, q)))) < 2:
                with pytest.raises(HypothesisError, match=f"residue {r}$"):
                    ResidueContext(spec, r)
                empty += 1
                continue
            rctx = ResidueContext(spec, r)
            fd = f_delta(rctx)
            orbits = {lab: orbit(lab, rctx) for lab in fd}
            for inst in first_instances(spec, r, 3):
                ctx = inst.ctx
                assert rctx.lam == ctx.lam == unit_index_lambda(matrix_mod(ctx, q), q)
                assert [ctx.norm_of(lab) for lab in labels] == [
                    norm(lab.C + lab.D * ctx.basis.delta) % q for lab in labels]
                assert rctx.matrix == matrix_mod(ctx, q)
                assert [rctx.norm_of(lab) for lab in labels] == [
                    ctx.norm_of(lab) for lab in labels]
                assert fd == f_delta(ctx)
                assert all(orbits[lab] == ctx.orbit_of(lab) for lab in fd)
                cases += 1
    # no field at q = 9: 9 | n^2 + 2 for n = 4, 5 and 9 | (2n+1)^4 + 2(2n+1) for n = 4
    assert empty == {"rd-n2p2": 2, "quartic-16n4": 1}[name]
    assert cases == 3 * (sum(range(2, 12)) - empty)


@st.composite
def decided_families(draw):
    """Inline families with s <= 3 and each a_i of degree <= 2, coefficients
    0..3, q = 2..7, whose tr and N of delta(n) lie in Z[n]; f = tr^2 - 4N is
    the discriminant of delta(n), so every n where f(n) is squarefree and the
    terms are >= 1 is usable."""
    polys = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)
    a_polys = tuple(draw(st.lists(polys, min_size=1, max_size=3)))
    q = draw(st.integers(2, 7))
    decided = delta_trace_norm(FamilySpec("random", (2,), a_polys, q))
    assume(decided is not None)
    tr, nm = decided
    return FamilySpec("random", poly_add(poly_mul(tr, tr), nm, -4), a_polys, q, (0, 31))


@settings(max_examples=40, deadline=None)
@given(decided_families())
# at n = 0 the terms (1, 1, 1) repeat the shorter period (1,)
@example(FamilySpec("random", (5, 8, 4), ((1, 2), (1,), (1,)), 3, (0, 31)))
def test_contexts_equal_the_fraction_route_on_random_families(spec):
    # on every usable n <= 30, the cone context's minus CF (index rule),
    # lambda, tr and N of delta, label norms mod q and orbits equal the
    # ceiling algorithm and the Fraction field arithmetic on delta and eps
    q = spec.q
    labels = [RayLabel(C, D, q) for C in range(q) for D in range(q) if C or D]
    tables = [FieldTable(spec, r) for r in range(q)]
    for n in range(31):
        try:
            inst = tables[n % q].field(n)
        except HypothesisError:
            continue
        if inst is None:
            continue
        ctx = inst.ctx
        delta, eps, basis = ctx.basis.delta, ctx.eps, ctx.basis
        lam = unit_index_lambda(tuple(tuple(map(int, row)) for row in mult_matrix(eps, basis)), q)
        image = {lab: eps_act(eps, lab, basis) for lab in f_delta(ctx)}
        assert ctx.mcf == minus_cf(delta), n
        assert (ctx.lam, ctx.trace_norm) == (lam, (trace(delta), norm(delta))), n
        assert [ctx.norm_of(lab) for lab in labels] == [
            norm(lab.C + lab.D * delta) % q for lab in labels], n
        for lab in image:
            members = [lab]
            while image[members[-1]] != lab:
                members.append(image[members[-1]])
            assert ctx.orbit_of(lab) == members, n


def no_field(*args):
    raise AssertionError("a field was built")


def test_residue_context_of_half_integral_beta_is_symbolic(monkeypatch):
    # delta(n) = 1 + [[2n + 1]] = (2n + 3 + sqrt(4n^2 + 4n + 5))/2: B/2A =
    # -(2n + 1)/2 is not in Z[n], but tr delta = 2n + 3 and N delta = 2n + 1
    # are, so its residue contexts build no field and equal its fields
    spec = FamilySpec("half", (5, 4, 4), ((1, 2),), 3, (0, 100))
    assert delta_trace_norm(spec) == ((3, 2), (1, 2))
    monkeypatch.setattr(family, "instantiate", no_field)
    rctxs = [ResidueContext(spec, r) for r in range(3)]
    monkeypatch.undo()
    labels = [RayLabel(C, D, 3) for C in range(3) for D in range(3) if C or D]
    for r, rctx in enumerate(rctxs):
        for inst in first_instances(spec, r, 2):
            ctx = inst.ctx
            assert (rctx.lam, rctx.matrix) == (ctx.lam, matrix_mod(ctx, 3))
            assert [rctx.norm_of(lab) for lab in labels] == [
                ctx.norm_of(lab) for lab in labels]
            assert f_delta(rctx) == f_delta(ctx)
            for lab in f_delta(rctx):
                assert orbit(lab, rctx) == ctx.orbit_of(lab)


UNDECIDED = "trace and norm of delta(n) are not both in Z[n]: norm invariance is undecided"


def test_undecided_family_is_refused_without_a_field(monkeypatch):
    # [[n, 2n]] with f = n^2 + 2: N delta(n) = n + 1/2 is not in Z[n]
    spec = FamilySpec("undecided", (2, 0, 1), ((0, 1), (0, 2)), 3, (1, 100))
    monkeypatch.setattr(family, "instantiate", no_field)
    for r in range(3):
        with pytest.raises(HypothesisError, match=f"^{re.escape(UNDECIDED)}$"):
            ResidueContext(spec, r)
        with pytest.raises(HypothesisError, match=f"^{re.escape(UNDECIDED)}$"):
            norm_invariance_check(spec, RayLabel(1, 0, 3), r)


def test_norm_invariance_builds_no_field_when_decided_symbolically(monkeypatch):
    monkeypatch.setattr(family, "instantiate", no_field)
    for name in PRESETS:
        spec = PRESETS[name].with_q(5)
        for r in range(5):
            assert norm_invariance_check(spec, RayLabel(1, 2, 5), r)


def test_norm_invariance_needs_two_samples_on_the_symbolic_path():
    spec = PRESETS["rd-n2p2"].with_q(9)  # 9 | f(n) for n = 4 mod 9
    no_witnesses = "^could not find 2 squarefree instances for residue 4$"
    with pytest.raises(HypothesisError, match=no_witnesses):
        norm_invariance_check(spec, RayLabel(1, 0, 9), 4)


def test_quasi_poly_takes_a_given_residue_context():
    spec = PRESETS["quartic-16n4"].with_q(3)
    for r in range(3):
        rctx = ResidueContext(spec, r)
        for lab in f_delta(rctx):
            assert quasi_poly(spec, lab, r, rctx) == quasi_poly(spec, lab, r)


def test_period_limit_is_decided_before_squarefree_certification(monkeypatch):
    def certify(n, bound=10**6):
        raise AssertionError("squarefree certification ran")

    monkeypatch.setattr(family, "is_squarefree", certify)
    spec = PRESETS["rd-n2p2"]  # m = n
    # f(1000003) = 9 * 111112000001 is not squarefree: refused, not skipped
    for n in (1000003, 2 * 10**9):
        with pytest.raises(LimitError, match="^minus CF period not found within 1000000 terms$"):
            instantiate(spec, n)


def test_family_spec_keeps_the_primitive_period():
    # a period repeated t times gives the same delta(n)
    assert FamilySpec("x", (2, 0, 1), ((0, 2), (0, 1)) * 2, 2).a_polys == ((0, 2), (0, 1))
    assert FamilySpec("x", (5, 4, 4), ((1, 2),) * 3, 2).a_polys == ((1, 2),)
    # trailing zero coefficients do not hide a repeat
    assert FamilySpec("x", (2, 0, 1), ((0, 2), (0, 2, 0)), 2).a_polys == ((0, 2),)


def test_period_limit_counts_the_primitive_period():
    # [[2n, n, 2n, n]] repeats [[2n, n]], whose minus period is n, not 2n
    spec = FamilySpec("twice", (2, 0, 1), ((0, 2), (0, 1), (0, 2), (0, 1)), 2, (1, 10**6))
    inst = instantiate(spec, 700000)
    assert inst.ctx.mcf.m == 700000


def test_field_table_builds_each_n_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(spec, n, *args):
            calls[name, n] += 1
            return fn(spec, n, *args)
        return wrapper

    monkeypatch.setattr(family, "instantiate", counted("build", family.instantiate))
    monkeypatch.setattr(family, "checked_terms", counted("check", family.checked_terms))
    table = FieldTable(PRESETS["rd-n2p2"].with_q(2), 0)
    assert table.first_ns(2) == [2, 6]  # n = 0 is below the range, f(4) = 18 is skipped
    assert calls == {("check", 2): 1, ("check", 4): 1, ("check", 6): 1}  # no field built
    assert table.field(0) is table.field(4) is None
    assert table.field(2) is table.field(2) and table.field(6).n == 6
    # the fields are built from the scan's checks, which are not repeated
    assert calls == {("check", 2): 1, ("check", 4): 1, ("check", 6): 1,
                     ("build", 2): 1, ("build", 6): 1}
    # a refused n is refused again without a second check, and never built
    calls.clear()
    table = FieldTable(FamilySpec("adv", (3, 0, 1), ((0, 2), (0, 1)), 2, (1, 100)), 0)
    for _ in range(2):
        with pytest.raises(HypothesisError, match="has radicand 6, expected f"):
            table.field(2)
    with pytest.raises(HypothesisError, match="has radicand 6, expected f"):
        table.first_ns(1)  # the scan meets the refusal before a usable n
    assert calls == {("check", 2): 1}


def test_field_table_skips_an_n_whose_terms_collapse_their_period():
    # a_i = (1 + 2n, 1, 1): at n = 0 the terms (1, 1, 1) have the period (1,),
    # so K_0's unit is a cube root of the unit the residue context of r = 0 takes
    spec = FamilySpec("collapse", (5, 8, 4), ((1, 2), (1,), (1,)), 3, (0, 100))
    assert family.checked_terms(spec, 0) == (5, (1, 1, 1))  # usable as a field
    table = FieldTable(spec, 0)
    assert table.check(0) is None and table.field(0) is None
    assert table.check(3) == family.checked_terms(spec, 3) == (65, (7, 1, 1))
    assert ResidueContext(spec, 0).witnesses == [3, 6]


def test_field_table_skips_an_n_whose_f_is_no_radicand():
    # f = 1 + n^2: f(0) = 1 is no radicand, so n = 0 lies outside the family,
    # where a command that names n = 0 itself is refused
    spec = FamilySpec("unit-radicand", (1, 0, 1), ((0, 2),), 3, (0, 100))
    with pytest.raises(HypothesisError, match=r"^f\(0\) = 1 is not a valid radicand$"):
        family.checked_terms(spec, 0)
    table = FieldTable(spec, 0)
    assert table.check(0) is None and table.field(0) is None
    assert table.check(3) == family.checked_terms(spec, 3) == (10, (6,))
    assert ResidueContext(spec, 0).witnesses == [3, 6]


def test_first_ns_names_the_n_with_f_at_most_1():
    # f = 5 - n^2: residue 0 has n = 0 only; the message lists the n skipped
    # for f(n) <= 1, not just the shortfall
    spec = FamilySpec("negative-f", (5, 0, -1), ((1,),), 3, (0, 100))
    msg = "could not find 2 squarefree instances for residue 0; f(n) <= 1 for n = 3, 6, 9, ..."
    with pytest.raises(HypothesisError, match=f"^{re.escape(msg)}$"):
        ResidueContext(spec, 0)
    table = FieldTable(spec, 0)
    assert table.check(0) == (5, (1,)) and table.check(3) is None
