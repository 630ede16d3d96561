"""Dirichlet characters mod q and Hecke L-values at s = 0 assembled from
ray-class partial zeta values.

The exact part of L(0, chi) does not depend on chi: it is the sum Z_a of
the partial zeta values over the ray classes of norm a mod q, so
L(0, chi) = sum_a chi(a) * Z_a.  A field's Z_a are a plain dict a -> Z_a,
and a family's are one quasi-polynomial per a; the character enters only in
`DirichletChar.approx`, a complex rendering for display.  A character is
built and checked by one walk over its generators.  A field's sum
takes one orbit representative per orbit, from the `orbit_of` memo of its
`shintani.LabelSpace`.  A family's sum needs no orbits: the orbits partition
F_delta and the unit has norm 1, so Z_a is the sum of `coeffs_closed` over
the labels of norm a, added label by label with `poly_add`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

from .exactmath import Record
from .family import (
    FamilySpec,
    QuasiPoly,
    ResidueContext,
    VerificationError,
    coeffs_closed,
    decided_trace_norm,
    poly_add,
)
from .shintani import ConeContext, LabelSpace, RayLabel, f_delta, partial_zeta0


class CharacterError(ValueError):
    """Malformed character specification."""


class DirichletChar(Record):
    """Character mod q of order m, stored as an exponent table on (Z/q)^*:
    chi(a) = zeta_m^{exps[a]}, chi(a) = 0 off the units."""

    __slots__ = ()
    _fields = ("modulus", "order", "exps")  # exps: sorted (unit residue, exponent mod order)

    @classmethod
    def from_generators(cls, q: int, order: int, gens: dict[int, int]) -> "DirichletChar":
        """The exponent table from generator -> exponent pairs, by one walk
        from 1 that checks chi(a*g) = chi(a)*chi(g) on every edge: a walk that
        reaches every unit gives a multiplicative chi with chi(1) = 1."""
        if order < 1:
            raise CharacterError("order must be positive")
        for g in gens:
            if gcd(g, q) != 1:
                raise CharacterError(f"generator {g} is not a unit mod {q}")
        if q < 2:  # every ray modulus is at least 2
            raise CharacterError(f"modulus must be >= 2 and order >= 1, got {q} and {order}")
        table = {1: 0}
        frontier = [1]
        while frontier:
            a = frontier.pop()
            for g, e in gens.items():
                b = a * g % q
                val = (table[a] + e) % order
                if b in table:
                    if table[b] != val:
                        raise CharacterError("generator exponents are inconsistent")
                else:
                    table[b] = val
                    frontier.append(b)
        n_units = sum(1 for a in range(q) if gcd(a, q) == 1)
        if len(table) != n_units:
            raise CharacterError("generators do not generate (Z/q)^*")
        return cls(q, order, tuple(sorted(table.items())))

    @classmethod
    def trivial(cls, q: int) -> "DirichletChar":
        return cls.from_generators(q, 1, {a: 0 for a in range(1, q) if gcd(a, q) == 1})

    def exponent(self, a: int) -> int | None:
        """Exponent e with chi(a) = zeta_order^e, or None when chi(a) = 0."""
        return dict(self.exps).get(a % self.modulus)

    def approx(self, sums: dict[int, Fraction]) -> complex:
        """Approximate sum_a chi(a) * sums[a], added in ascending a; rendering
        only, never fed back into exact computations."""
        total = 0j
        for a, c in sorted(sums.items()):
            e = self.exponent(a)
            if e is not None:
                total += float(c) * cmath.exp(2j * cmath.pi * e / self.order)
        return total


def orbit_representatives(ctx: LabelSpace) -> list[RayLabel]:
    """One representative per unit orbit of F_delta, in lexicographic order."""
    reps, seen = [], set()
    for label in f_delta(ctx):
        if label not in seen:
            seen.update(ctx.orbit_of(label))
            reps.append(label)
    return reps


def hecke_L0(ctx: ConeContext) -> dict[int, Fraction]:
    """Per norm residue a mod q, the sum Z_a of the partial zeta values at 0
    over one representative per orbit with norm a; zero sums are dropped.
    L(0, chi) = sum_a chi(a) * Z_a for every character chi mod q."""
    sums: dict[int, Fraction] = {}
    for rep in orbit_representatives(ctx):
        a = ctx.norm_of(rep)
        sums[a] = sums.get(a, Fraction(0)) + partial_zeta0(ctx, rep)
    return {a: c for a, c in sorted(sums.items()) if c}


def hecke_L0_family(spec: FamilySpec) -> dict[int, QuasiPoly]:
    """Per norm residue a, the k-form quasi-polynomial of the family's Z_a,
    with every residue's d + 1 coefficients present.

    Each residue's `ResidueContext` adds the closed-form contribution of
    every label of F_delta into the sum of its norm class; every residue is
    verified exactly against `hecke_L0` on both of its witness fields.
    """
    polys = decided_trace_norm(spec)
    zero = (Fraction(0),) * (spec.d + 1)
    sums: dict[int, QuasiPoly] = {}
    for r in range(spec.q):
        rctx = ResidueContext(spec, r, polys)
        for label in f_delta(rctx):
            qp = sums.setdefault(rctx.norm_of(label),
                                 QuasiPoly(spec.q, dict.fromkeys(range(spec.q), zero)))
            qp.coeffs[r] = poly_add(qp.coeffs[r], coeffs_closed(rctx, label))
        for witness in map(rctx.fields.field, rctx.witnesses):
            values = {a: qp.evaluate(witness.n) for a, qp in sums.items()}
            if {a: v for a, v in values.items() if v} != hecke_L0(witness.ctx):
                raise VerificationError(
                    f"family L-value at n={witness.n} disagrees with direct assembly"
                )
    return dict(sorted(sums.items()))
