"""Exact rational helpers: fractional parts in (0, 1], residues in [1, q]
and the integer series kernel.  A residue in [0, q - 1] is Python's `%`.

All arithmetic is exact rational; no floats appear anywhere in a
computational path.  The zeta series runs on integers: every Yamamoto
coordinate is X/q with X in [1, q], so each series term is an integer
numerator over the fixed denominator 12q^2 (`term12`), and a sum becomes
a `Fraction` only once, at the end.  `term12` is the one per-term kernel;
`shintani.progression_sum` sums a whole run of 2s in the minus CF with it.
The `Fraction` forms `bernoulli1` and `bernoulli2`, which the tests check
`term12` against, are in `rayzeta.oracle`.

`Record` is the base of the package's immutable value types.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter


class LimitError(RuntimeError):
    """A resource limit is exceeded: the series-term cap, the squarefree
    certification bound or a continued-fraction period bound; or
    RAYZETA_MAX_TERMS is not an integer."""


class Record(tuple):
    """An immutable value: a tuple of the fields named in `_fields`, each
    read through a property.  Equality and hashing are the tuple's, so a
    record is a cheap dict key.  A subclass validates in its own `__new__`
    before calling `tuple.__new__`.  Unlike `dataclasses` and
    `collections.namedtuple`, defining a record generates no code."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(values)}")
        return tuple.__new__(cls, values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


def frac_unit(x: Fraction) -> Fraction:
    """Fractional part of x taken in the half-open interval (0, 1].

    Integers map to 1, not 0.  This is the bracket used throughout the
    cone-decomposition recursions.
    """
    x = Fraction(x)
    f = x - (x.numerator // x.denominator)
    return Fraction(1) if f == 0 else f


def residue_one(a: int, q: int) -> int:
    """Representative of a mod q in [1, q].

    Multiples of q map to q itself, so (a - residue_one(a, q)) / q is the
    integer quotient paired with this residue convention.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    r = a % q
    return q if r == 0 else r


def term12(b: int, X: int, Xp: int, q: int) -> int:
    """12q^2 * (-B1(X/q)*B1(Xp/q) + (b/2)*B2(X/q)), an integer.

    The series term of the cone sums, with x_i = X/q and x_{i-1} = Xp/q.
    """
    return b * (6 * X * X - 6 * X * q + q * q) - 3 * (2 * X - q) * (2 * Xp - q)
