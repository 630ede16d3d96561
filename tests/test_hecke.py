"""Tests for Dirichlet characters and Hecke L-value assembly at s = 0."""

import cmath
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rayzeta import hecke
from rayzeta.cli import EXIT_INTERNAL, main
from rayzeta.family import (
    PRESETS,
    HypothesisError,
    ResidueContext,
    VerificationError,
    first_instances,
    instantiate,
    quasi_poly,
)
from rayzeta.hecke import (
    CharacterError,
    DirichletChar,
    hecke_L0,
    hecke_L0_family,
    orbit_representatives,
)
from rayzeta.shintani import f_delta, orbit, partial_zeta0


def order4_mod5():
    return DirichletChar.from_generators(5, 4, {2: 1})


def test_trivial_character():
    chi = DirichletChar.trivial(6)
    assert chi.exponent(1) == 0
    assert chi.exponent(5) == 0
    assert chi.exponent(2) is None  # not a unit mod 6
    assert chi.exponent(3) is None


def test_from_generators_order4():
    chi = order4_mod5()
    assert chi.exponent(1) == 0
    assert chi.exponent(2) == 1
    assert chi.exponent(4) == 2
    assert chi.exponent(3) == 3
    assert chi.exponent(5) is None


def test_inconsistent_generator_map_is_refused():
    # 3 = 2^3 mod 5, so chi(2) = i forces chi(3) = i^3 = -i, not i
    with pytest.raises(CharacterError, match="^generator exponents are inconsistent$"):
        DirichletChar.from_generators(5, 4, {2: 1, 3: 1})


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 40), st.integers(1, 12),
       st.dictionaries(st.integers(-80, 80), st.integers(-30, 30), max_size=3))
def test_from_generators_builds_a_character_or_refuses(q, order, gens):
    try:
        chi = DirichletChar.from_generators(q, order, gens)
    except CharacterError:
        return
    units = [a for a in range(1, q) if gcd(a, q) == 1]
    table = dict(chi.exps)
    assert sorted(table) == units and table[1] == 0
    for a in units:
        for b in units:
            assert table[a * b % q] == (table[a] + table[b]) % order


def test_from_generators_requires_generating_set():
    with pytest.raises(CharacterError):
        DirichletChar.from_generators(5, 2, {4: 1})  # 4 generates only {1,4}


def test_modulus_below_two_is_a_character_error():
    for q in (1, 0, -3):
        message = f"^modulus must be >= 2 and order >= 1, got {q} and 1$"
        with pytest.raises(CharacterError, match=message):
            DirichletChar.from_generators(q, 1, {})
        with pytest.raises(CharacterError, match=message):
            DirichletChar.trivial(q)


def test_approx_of_trivial_sum():
    chi = DirichletChar.trivial(5)
    z = chi.approx({1: Fraction(1, 4), 2: Fraction(1, 4)})
    assert abs(z - 0.5) < 1e-12


def test_approx_adds_in_ascending_residue():
    # float addition is not associative: the rendered digits depend on the
    # order, which is ascending a whatever the order of the dict
    chi = order4_mod5()
    sums = {4: Fraction(1, 3), 1: Fraction(1, 10), 3: Fraction(-2, 7), 2: Fraction(5, 9)}
    want = 0j
    for a in (1, 2, 3, 4):
        want += float(sums[a]) * cmath.exp(2j * cmath.pi * chi.exponent(a) / 4)
    assert chi.approx(sums) == want
    assert chi.approx(dict(sorted(sums.items()))) == want


def test_orbit_representatives_partition_f_delta():
    ctx = instantiate(PRESETS["rd-n2p2"].with_q(5), 1).ctx
    reps = orbit_representatives(ctx)
    seen = []
    for rep in reps:
        seen.extend((lab.C, lab.D) for lab in orbit(rep, ctx))
    assert sorted(seen) == sorted((lab.C, lab.D) for lab in f_delta(ctx))


def test_hecke_L0_trivial_is_sum_of_partial_zetas():
    ctx = instantiate(PRESETS["rd-n2p2"].with_q(2), 1).ctx
    total = sum(
        (partial_zeta0(ctx, rep) for rep in orbit_representatives(ctx)), Fraction(0)
    )
    assert hecke_L0(ctx) == ({1: total} if total else {})


def test_hecke_L0_keys_are_the_norm_residues_of_the_representatives():
    for name, q in (("rd-n2p2", 5), ("quartic-16n4", 7)):
        ctx = instantiate(PRESETS[name].with_q(q), 1).ctx
        reps = orbit_representatives(ctx)
        sums = hecke_L0(ctx)
        assert set(sums) == {ctx.norm_of(rep) for rep in reps}
        for a, value in sums.items():
            assert value == sum(partial_zeta0(ctx, rep) for rep in reps
                                if ctx.norm_of(rep) == a)


def test_hecke_family_interpolates_direct_values():
    spec = PRESETS["rd-n2p2"].with_q(5)
    sums = hecke_L0_family(spec)
    for r in range(spec.q):
        for inst in first_instances(spec, r, spec.d + 2):
            values = {a: qp.evaluate(inst.n) for a, qp in sums.items()}
            assert {a: v for a, v in values.items() if v} == hecke_L0(inst.ctx)


def test_hecke_family_symbols_are_unit_residues():
    spec = PRESETS["rd-n2p2"].with_q(5)
    sums = hecke_L0_family(spec)
    assert set(sums) <= {1, 2, 3, 4}
    assert any(qp.coeff(1, i) for qp in sums.values() for i in range(spec.d + 1))
    for qp in sums.values():  # k-form, with every residue's d + 1 coefficients present
        assert qp.q == 5
        assert set(qp.coeffs) == set(range(5))
        assert all(type(c) is tuple and len(c) == spec.d + 1 for c in qp.coeffs.values())


def per_representative(spec):
    """Z_a as the sum over one orbit representative per orbit of its
    `quasi_poly`, the route that sums each orbit member's closed form by
    orbits first."""
    sums = {}
    for r in range(spec.q):
        rctx = ResidueContext(spec, r)
        for rep in orbit_representatives(rctx):
            coeffs = sums.setdefault(rctx.norm_of(rep), {})
            qp = quasi_poly(spec, rep, r, rctx)
            coeffs[r] = [c + qp.coeff(r, i) for i, c in
                         enumerate(coeffs.get(r, [Fraction(0)] * (spec.d + 1)))]
    return sums


@pytest.mark.parametrize("name, count", [("quartic-16n4", 32), ("rd-n2p2", 35)])
def test_hecke_family_equals_the_sum_over_orbit_representatives(name, count):
    # count: the norm classes over q = 2..11
    classes = 0
    for q in range(2, 12):
        spec = PRESETS[name].with_q(q)
        try:
            want = per_representative(spec)
        except HypothesisError as e:  # q = 9: residue 4 holds no field
            with pytest.raises(HypothesisError, match=f"^{e}$"):
                hecke_L0_family(spec)
            continue
        got = hecke_L0_family(spec)
        assert set(got) == set(want)
        for a, qp in got.items():
            for r in range(q):
                assert list(qp.coeffs[r]) == want[a].get(r, [0] * (spec.d + 1))
            classes += 1
    assert classes == count


def test_hecke_family_checks_the_second_witness(monkeypatch, capsys):
    # 1/(12q^2) more in the k^1 coefficient of label (1, 0) at r = 1 leaves
    # the first witness n = 1 (k = 0) exact, so only the second, n = 6, sees it
    closed = hecke.coeffs_closed

    def mutant(rctx, label):
        out = closed(rctx, label)
        if rctx.r == 1 and (label.C, label.D) == (1, 0):
            out[1] += Fraction(1, 12 * rctx.q ** 2)
        return out

    monkeypatch.setattr(hecke, "coeffs_closed", mutant)
    assert main(["lfunc", "--preset", "rd-n2p2", "--q", "5"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal verification failure: family L-value at n=6 disagrees with direct assembly\n")


def test_hecke_family_mismatch_is_a_verification_error(monkeypatch, capsys):
    # a direct L-value that is off by 1 must stop the family assembly
    direct = hecke.hecke_L0

    def off_by_one(ctx):
        sums = direct(ctx)
        return {**sums, 1: sums.get(1, Fraction(0)) + 1}

    monkeypatch.setattr(hecke, "hecke_L0", off_by_one)
    spec = PRESETS["rd-n2p2"].with_q(5)
    with pytest.raises(VerificationError,
                       match="^family L-value at n=10 disagrees with direct assembly$"):
        hecke_L0_family(spec)
    assert main(["lfunc", "--preset", "rd-n2p2", "--q", "5", "--char", "5:4:2=1"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal verification failure: family L-value at n=10 disagrees with direct assembly\n")
