"""Dirichlet characters mod q and Hecke L-values at s = 0 assembled from
ray-class partial zeta values.

L-values are kept as exact formal sums over character-value symbols
[chi(a)]; a complex rendering (root-of-unity substitution) is provided for
display only.  Orbit representatives come from the `orbit_of` memo of a
field's or a residue's `shintani.LabelSpace`, so the sums walk no cycle again.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

from .exactmath import Record, residue_zero
from .family import (
    FamilySpec,
    ResidueContext,
    VerificationError,
    decided_trace_norm,
    quasi_poly,
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
    def from_exponents(cls, q: int, order: int, table: dict[int, int]) -> "DirichletChar":
        if q < 2 or order < 1:  # every ray modulus is at least 2
            raise CharacterError(f"modulus must be >= 2 and order >= 1, got {q} and {order}")
        units = [a for a in range(1, q) if gcd(a, q) == 1]
        norm_table = {}
        for a in units:
            if a not in table:
                raise CharacterError(f"missing exponent for unit {a}")
            norm_table[a] = table[a] % order
        if norm_table[1] != 0:
            raise CharacterError("chi(1) must be 1")
        for a in units:
            for b in units:
                if (norm_table[a] + norm_table[b]) % order != norm_table[a * b % q]:
                    raise CharacterError(
                        f"multiplicativity fails at ({a}, {b}) mod {q}"
                    )
        return cls(q, order, tuple(sorted(norm_table.items())))

    @classmethod
    def from_generators(cls, q: int, order: int, gens: dict[int, int]) -> "DirichletChar":
        """Build the full exponent table from generator -> exponent pairs."""
        if order < 1:
            raise CharacterError("order must be positive")
        for g in gens:
            if gcd(g, q) != 1:
                raise CharacterError(f"generator {g} is not a unit mod {q}")
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
        return cls.from_exponents(q, order, table)

    @classmethod
    def trivial(cls, q: int) -> "DirichletChar":
        table = {a: 0 for a in range(1, q) if gcd(a, q) == 1}
        return cls.from_exponents(q, 1, table)

    def exponent(self, a: int) -> int | None:
        """Exponent e with chi(a) = zeta_order^e, or None when chi(a) = 0."""
        a = residue_zero(a, self.modulus)
        if gcd(a, self.modulus) != 1:
            return None
        return dict(self.exps)[a]


class CharSpanValue:
    """Formal sum sum_a c_a * [chi(a)] with exact rational c_a, a a unit mod q;
    never mutated.  A plain class, not a tuple, so `+` is never concatenation."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, Fraction], ...]):
        self.terms = terms  # sorted, zero coefficients dropped

    def __eq__(self, other):
        if not isinstance(other, CharSpanValue):
            return NotImplemented
        return self.terms == other.terms

    @classmethod
    def from_dict(cls, d: dict[int, Fraction]) -> "CharSpanValue":
        return cls(tuple(sorted((a, c) for a, c in d.items() if c != 0)))

    @classmethod
    def zero(cls) -> "CharSpanValue":
        return cls(())

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.terms)

    def __add__(self, other: "CharSpanValue") -> "CharSpanValue":
        d = self.as_dict()
        for a, c in other.terms:
            d[a] = d.get(a, Fraction(0)) + c
        return CharSpanValue.from_dict(d)

    def scale(self, c) -> "CharSpanValue":
        c = Fraction(c)
        return CharSpanValue.from_dict({a: v * c for a, v in self.terms})

    def to_complex(self, chi: DirichletChar) -> complex:
        """Approximate complex value; rendering only, never fed back into
        exact computations."""
        total = 0j
        for a, c in self.terms:
            e = chi.exponent(a)
            if e is None:
                continue
            total += float(c) * cmath.exp(2j * cmath.pi * e / chi.order)
        return total


def ray_char_value(chi: DirichletChar, ideal_norm: int) -> int | None:
    """Symbol index for chi(N(ideal)), from the norm or its residue mod q:
    that residue, or None for the zero symbol (norm not coprime to q)."""
    if ideal_norm <= 0:
        raise ValueError("ideal norm must be positive")
    a = residue_zero(ideal_norm, chi.modulus)
    return a if gcd(a, chi.modulus) == 1 else None


def orbit_representatives(ctx: LabelSpace) -> list[RayLabel]:
    """One representative per unit orbit of F_delta, in lexicographic order."""
    reps, seen = [], set()
    for label in f_delta(ctx):
        if label not in seen:
            seen.update(ctx.orbit_of(label))
            reps.append(label)
    return reps


def hecke_L0(ctx: ConeContext, chi: DirichletChar) -> CharSpanValue:
    """L(chi, 0, b) as a formal sum: over one representative per orbit,
    chi(norm of (C+D*delta)*b) times the partial zeta value at 0."""
    if chi.modulus != ctx.q:
        raise CharacterError("character modulus must equal q")
    total: dict[int, Fraction] = {}
    for rep in orbit_representatives(ctx):
        sym = ray_char_value(chi, ctx.norm_of(rep))
        if sym is None:
            continue  # cannot happen for labels in F_delta
        total[sym] = total.get(sym, Fraction(0)) + partial_zeta0(ctx, rep)
    return CharSpanValue.from_dict(total)


class LValueQuasiPoly:
    """Per residue r, coefficient vectors (powers of k) of formal char-span sums."""

    __slots__ = ("spec", "chi", "coeffs")

    def __init__(self, spec: FamilySpec, chi: DirichletChar,
                 coeffs: dict[int, list[CharSpanValue]]):  # r -> [power 0 .. d]
        self.spec, self.chi, self.coeffs = spec, chi, coeffs

    def evaluate(self, n: int) -> CharSpanValue:
        r = n % self.spec.q
        k = (n - r) // self.spec.q
        out = CharSpanValue.zero()
        for i, v in enumerate(self.coeffs[r]):
            out = out + v.scale(Fraction(k**i))
        return out


def hecke_L0_family(spec: FamilySpec, chi: DirichletChar) -> LValueQuasiPoly:
    """Quasi-polynomial (in k, per residue r) of the family's L-values at 0.

    The representatives, their character symbols and the fields come from
    each residue's `ResidueContext`; every residue is verified exactly
    against an L-value assembled directly on its first witness field.
    """
    if chi.modulus != spec.q:
        raise CharacterError("character modulus must equal q")
    polys = decided_trace_norm(spec)
    out: dict[int, list[CharSpanValue]] = {}
    for r in range(spec.q):
        rctx = ResidueContext(spec, r, polys)
        witness = rctx.fields.field(rctx.witnesses[0])
        vecs = [CharSpanValue.zero() for _ in range(spec.d + 1)]
        for rep in orbit_representatives(rctx):
            sym = ray_char_value(chi, rctx.norm_of(rep))
            if sym is None:
                continue
            qp = quasi_poly(spec, rep, r, rctx)
            for i in range(spec.d + 1):
                vecs[i] = vecs[i] + CharSpanValue.from_dict({sym: qp.coeff(r, i)})
        out[r] = vecs
        lqp = LValueQuasiPoly(spec, chi, {r: vecs})
        direct = hecke_L0(witness.ctx, chi)
        if lqp.evaluate(witness.n) != direct:
            raise VerificationError(
                f"family L-value at n={witness.n} disagrees with direct assembly"
            )
    return LValueQuasiPoly(spec, chi, out)
