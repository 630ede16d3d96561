"""Tests for Dirichlet characters and Hecke L-value assembly at s = 0."""

from fractions import Fraction

import pytest

from rayzeta import hecke
from rayzeta.cli import EXIT_INTERNAL, main
from rayzeta.family import PRESETS, VerificationError, first_instances, instantiate
from rayzeta.hecke import (
    CharSpanValue,
    CharacterError,
    DirichletChar,
    hecke_L0,
    hecke_L0_family,
    orbit_representatives,
    ray_char_value,
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


def test_multiplicativity_validation():
    with pytest.raises(CharacterError):
        DirichletChar.from_exponents(5, 4, {1: 0, 2: 1, 3: 1, 4: 2})
    with pytest.raises(CharacterError):
        DirichletChar.from_exponents(5, 4, {1: 1, 2: 1, 3: 3, 4: 2})


def test_from_generators_requires_generating_set():
    with pytest.raises(CharacterError):
        DirichletChar.from_generators(5, 2, {4: 1})  # 4 generates only {1,4}


def test_modulus_below_two_is_a_character_error():
    for q in (1, 0, -3):
        message = f"^modulus must be >= 2 and order >= 1, got {q} and 1$"
        with pytest.raises(CharacterError, match=message):
            DirichletChar.from_exponents(q, 1, {0: 0, 1: 0})
        with pytest.raises(CharacterError, match=message):
            DirichletChar.trivial(q)
    with pytest.raises(CharacterError, match="^modulus must be >= 2 and order >= 1, got 1 and 1$"):
        DirichletChar.from_generators(1, 1, {})


def test_char_span_arithmetic():
    a = CharSpanValue.from_dict({1: Fraction(1, 2), 2: Fraction(-1, 3)})
    b = CharSpanValue.from_dict({2: Fraction(1, 3), 3: Fraction(5)})
    total = a + b
    assert total.as_dict() == {1: Fraction(1, 2), 3: Fraction(5)}
    assert total.scale(Fraction(2)).as_dict() == {1: Fraction(1), 3: Fraction(10)}
    assert CharSpanValue.zero() + a == a


def test_to_complex_of_trivial_sum():
    chi = DirichletChar.trivial(5)
    v = CharSpanValue.from_dict({1: Fraction(1, 4), 2: Fraction(1, 4)})
    z = v.to_complex(chi)
    assert abs(z - 0.5) < 1e-12


def test_ray_char_value_is_norm_residue():
    chi = order4_mod5()
    assert ray_char_value(chi, 7) == 2
    assert ray_char_value(chi, 10) is None
    with pytest.raises(ValueError):
        ray_char_value(chi, 0)


def test_orbit_representatives_partition_f_delta():
    ctx = instantiate(PRESETS["rd-n2p2"].with_q(5), 1).ctx
    reps = orbit_representatives(ctx)
    seen = []
    for rep in reps:
        seen.extend((lab.C, lab.D) for lab in orbit(rep, ctx))
    assert sorted(seen) == sorted((lab.C, lab.D) for lab in f_delta(ctx))


def test_hecke_L0_trivial_is_sum_of_partial_zetas():
    ctx = instantiate(PRESETS["rd-n2p2"].with_q(2), 1).ctx
    chi = DirichletChar.trivial(2)
    value = hecke_L0(ctx, chi)
    total = sum(
        (partial_zeta0(ctx, rep) for rep in orbit_representatives(ctx)), Fraction(0)
    )
    assert value.as_dict() == ({1: total} if total else {})


def test_hecke_L0_modulus_mismatch():
    ctx = instantiate(PRESETS["rd-n2p2"].with_q(2), 1).ctx
    with pytest.raises(CharacterError):
        hecke_L0(ctx, order4_mod5())


def test_hecke_family_interpolates_direct_values():
    spec = PRESETS["rd-n2p2"].with_q(5)
    chi = order4_mod5()
    lqp = hecke_L0_family(spec, chi)
    for r in range(spec.q):
        for inst in first_instances(spec, r, spec.d + 2):
            assert lqp.evaluate(inst.n) == hecke_L0(inst.ctx, chi)


def test_hecke_family_symbols_are_unit_residues():
    spec = PRESETS["rd-n2p2"].with_q(5)
    lqp = hecke_L0_family(spec, order4_mod5())
    symbols = set()
    for vec in lqp.coeffs[1]:
        symbols.update(vec.as_dict())
    assert symbols <= {1, 2, 3, 4}
    assert symbols  # at least one nonzero coefficient


def test_hecke_family_mismatch_is_a_verification_error(monkeypatch, capsys):
    # a direct L-value that is off by 1 must stop the family assembly
    direct = hecke.hecke_L0
    monkeypatch.setattr(
        hecke, "hecke_L0",
        lambda ctx, chi: direct(ctx, chi) + CharSpanValue.from_dict({1: Fraction(1)}))
    spec = PRESETS["rd-n2p2"].with_q(5)
    with pytest.raises(VerificationError,
                       match="^family L-value at n=10 disagrees with direct assembly$"):
        hecke_L0_family(spec, order4_mod5())
    assert main(["lfunc", "--preset", "rd-n2p2", "--q", "5", "--char", "5:4:2=1"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal verification failure: family L-value at n=10 disagrees with direct assembly\n")
