"""Tests for the exact scalar helpers and the value-record base."""

from fractions import Fraction

import pytest

from rayzeta.contfrac import MinusCF
from rayzeta.exactmath import (
    Record,
    frac_unit,
    residue_one,
    term12,
)
from rayzeta.family import get_preset
from rayzeta.oracle import bernoulli1, bernoulli2
from rayzeta.quadfield import QuadField
from rayzeta.shintani import LabelError, RayLabel


def test_bernoulli1_values():
    assert bernoulli1(Fraction(0)) == Fraction(-1, 2)
    assert bernoulli1(Fraction(1, 2)) == 0
    assert bernoulli1(Fraction(1)) == Fraction(1, 2)


def test_bernoulli2_values():
    assert bernoulli2(Fraction(0)) == Fraction(1, 6)
    assert bernoulli2(Fraction(1)) == Fraction(1, 6)
    assert bernoulli2(Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli2(Fraction(1, 3)) == Fraction(-1, 18)


def test_frac_unit_lands_in_half_open_unit_interval():
    for num in range(-12, 13):
        for den in (1, 2, 3, 5, 7):
            v = frac_unit(Fraction(num, den))
            assert 0 < v <= 1
            assert (Fraction(num, den) - v).denominator == 1


def test_frac_unit_integers_map_to_one():
    assert frac_unit(Fraction(0)) == 1
    assert frac_unit(Fraction(3)) == 1
    assert frac_unit(Fraction(-2)) == 1


def test_frac_unit_examples():
    assert frac_unit(Fraction(5, 2)) == Fraction(1, 2)
    assert frac_unit(Fraction(-1, 3)) == Fraction(2, 3)


def test_residue_one_range_and_congruence():
    for a in range(-20, 21):
        for q in (2, 3, 5, 7):
            r = residue_one(a, q)
            assert 1 <= r <= q
            assert (a - r) % q == 0
    assert residue_one(6, 3) == 3
    assert residue_one(7, 3) == 1


def test_kernel_matches_bernoulli_expansion():
    # term12 is 12q^2 times the rational series term, on every numerator pair
    for q in range(2, 12):
        for b in range(2, 7):
            for X in range(1, q + 1):
                for Xp in range(1, q + 1):
                    x, xp = Fraction(X, q), Fraction(Xp, q)
                    term = -bernoulli1(x) * bernoulli1(xp) + Fraction(b, 2) * bernoulli2(x)
                    assert term12(b, X, Xp, q) == 12 * q * q * term


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_residue_conventions_agree_on_units(q):
    for a in range(1, q):
        assert a % q == residue_one(a, q) == a


def test_records_are_immutable_values():
    label = RayLabel(1, 2, 5)
    assert (label.C, label.D, label.q) == (1, 2, 5)
    assert repr(label) == "RayLabel(C=1, D=2, q=5)"
    assert len({label, RayLabel(1, 2, 5)}) == 1  # equal and hashed by value
    assert len({(get_preset("rd-n2p2", 3), 4), (get_preset("rd-n2p2", 3), 4)}) == 1
    assert MinusCF(((4, 1), (2, 3))).m == 4
    with pytest.raises(AttributeError):
        label.C = 0
    with pytest.raises(LabelError, match="excluded"):
        RayLabel(0, 0, 5)
    with pytest.raises(TypeError, match="takes 2 fields, got 1"):
        type("Pair", (Record,), {"__slots__": (), "_fields": ("x", "y")})(1)


def test_arithmetic_types_are_not_tuples():
    # a tuple base would give a QuadElem tuple's <=, *, len and iteration
    x = QuadField(3).elem(1, 1)
    assert not isinstance(x, tuple)
    with pytest.raises(TypeError):
        x <= x
    with pytest.raises(TypeError):
        len(x)
