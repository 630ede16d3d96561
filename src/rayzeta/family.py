"""Quasi-polynomial engine for polynomial families of real quadratic fields.

A family is given by f(x) and the plus-CF terms a_0(x)..a_{s-1}(x) of
delta(n) - 1.  Per residue r = n mod q the partial zeta value at 0 is a
polynomial in k (n = qk + r); this module computes its coefficients in
closed form and certifies them against exact interpolation through directly
computed zeta values.  A quasi-polynomial holds these k-form coefficients;
its n-form is derived on demand.  `poly_shift` is the one change of
variables: it takes the a_i to k (n = qk + r) and a k-form to n.  The
interpolation oracle, `lagrange_fit`, runs on the same `poly_*` kernels.

The closed forms need only residue-level data: the index rule
`contfrac.plus_to_minus` applied to the residues gamma_i of the a_i(r) mod q,
the k-coefficients A_im of a_i(qk + r)/q,
and the integer Yamamoto recursion `shintani.yamamoto_numerators` over that
minus CF, the same recursion `partial_zeta0` sums.  Every coefficient is an
integer numerator over 12q^2, built with the per-term kernel `term12` at the
special terms and the run kernel `shintani.progression_sum` along the runs of
2s between them, the same two kernels `partial_zeta0` walks.

The label side is residue-level too: `ResidueContext` holds that residue
data once for every orbit member, and is the `shintani.LabelSpace` of every
K_n with n = r mod q.  The paper's norm invariance is decided exactly
by `delta_trace_norm`: the trace and norm of delta(n) either lie in Z[n],
or the family is refused with a HypothesisError.  Fields are built only
for the direct zeta values that check the closed forms.

Each n is decided once, by one rule: it is usable, skipped (below the range,
f(n) <= 1 or not squarefree, or terms a_i(n) of a shorter period than the
a_i) or refused by `checked_terms` (a term < 1, a radicand other than f(n),
delta(n) not integral; f(n) <= 1 where a command names n).  A command keeps
one residue context per residue, and its `FieldTable` holds that answer for
every n it meets and builds each usable field at most once.  The context
checks its two witnesses, the first two usable n with k < `SCAN`, when it is
built, so a residue is refused once, not once per label.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, zip_longest

from .contfrac import (
    MAX_PERIOD,
    PeriodicCF,
    fixed_point,
    plus_to_minus,
    primitive_period,
    s_indices,
)
from .exactmath import LimitError, Record, residue_one, term12
from .quadfield import is_perfect_square, is_squarefree, squarefree_part, unit_matrix
from .shintani import (
    ConeContext,
    LabelSpace,
    RayLabel,
    partial_zeta0,
    progression_sum,
    yamamoto_numerators,
)

Poly = tuple[int, ...]  # integer polynomial, ascending coefficients


class HypothesisError(RuntimeError):
    """A family hypothesis (norm invariance, reduction, degree) is violated."""


class VerificationError(RuntimeError):
    """A closed form failed its self-verification against direct values."""


class NonSquarefreeSkip(Exception):
    """f(n) is not squarefree; this n must be skipped."""

    def __init__(self, n: int, fn: int):
        super().__init__(f"f({n}) = {fn} is not squarefree")
        self.n = n
        self.fn = fn


def poly_eval(p: Poly, x: int) -> int:
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def poly_degree(p: Poly) -> int:
    d = 0
    for i, c in enumerate(p):
        if c != 0:
            d = i
    return d


def poly_add(p: Poly, p2: Poly, c: int = 1) -> Poly:
    """p + c*p2."""
    return tuple(a + c * b for a, b in zip_longest(p, p2, fillvalue=0))


def poly_mul(p: Poly, p2: Poly) -> Poly:
    out = [0] * (len(p) + len(p2) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(p2):
            out[i + j] += a * b
    return tuple(out)


def poly_shift(p: Poly, a, b) -> Poly:
    """The coefficients of p(a*x + b), by Horner's rule; a and b may be
    Fractions."""
    out: Poly = ()
    for c in reversed(p):
        out = poly_add(poly_mul(out, (b, a)), (c,))
    return out


def poly_div(p: Poly, d: Poly) -> Poly | None:
    """The quotient p/d when d divides p in Z[x], else None (d = 0 included)."""
    top = poly_degree(d)
    if d[top] == 0:
        return None
    rem, quot = list(p), [0] * max(len(p) - top, 1)
    for i in reversed(range(len(p) - top)):
        quot[i], bad = divmod(rem[i + top], d[top])
        if bad:
            return None  # the quotient in Q[x] has a non-integral coefficient
        for j in range(top + 1):
            rem[i + j] -= quot[i] * d[j]
    return None if any(rem) else tuple(quot)


class FamilySpec(Record):
    """f(x), the CF term polynomials a_i(x), the modulus q and the range of
    n.  The a_i are kept without trailing zero coefficients and as their
    primitive period: a period repeated t times has the same delta(n), but
    its residue data would be that of eps^t."""

    __slots__ = ()
    _fields = ("name", "f_poly", "a_polys", "q", "n_range")

    def __new__(cls, name: str, f_poly: Poly, a_polys: tuple[Poly, ...], q: int,
                n_range: tuple[int, int] = (0, 60)) -> FamilySpec:
        if q < 2:
            raise ValueError("q must be >= 2")
        if not a_polys:
            raise ValueError("need at least one CF term polynomial")
        a = primitive_period(tuple(poly[: poly_degree(poly) + 1] for poly in a_polys))
        return tuple.__new__(cls, (name, f_poly, a, q, n_range))

    @property
    def s(self) -> int:
        return len(self.a_polys)

    @property
    def d(self) -> int:
        """Max degree of the a_i (the quasi-polynomial degree)."""
        return max(poly_degree(a) for a in self.a_polys)

    def with_q(self, q: int) -> "FamilySpec":
        return FamilySpec(self.name, self.f_poly, self.a_polys, q, self.n_range)


PRESETS = {
    # f(n) = n^2 + 2, delta(n)-1 = [[2n, n]]
    "rd-n2p2": FamilySpec("rd-n2p2", (2, 0, 1), ((0, 2), (0, 1)), 2, (1, 60)),
    # f(n) = 16n^4+32n^3+24n^2+12n+3, delta(n)-1 = [[8n^2+8n+2, 2n+1]]
    "quartic-16n4": FamilySpec(
        "quartic-16n4", (3, 12, 24, 32, 16), ((2, 8, 8), (1, 2)), 2, (0, 40)
    ),
}


def get_preset(name: str, q: int | None = None) -> FamilySpec:
    spec = PRESETS[name]
    return spec.with_q(q) if q is not None else spec


class FieldInstance(Record):
    """One member of the family: `n` and the cone context `ctx` of K_n,
    ready."""

    __slots__ = ()
    _fields = ("n", "ctx")


def delta_trace_norm(spec: FamilySpec) -> tuple[Poly, Poly] | None:
    """Trace and norm of delta(n) in Z[n], or None when either is not an
    integer polynomial.

    The product of [[a_i(n), 1], [1, 0]] over one period gives
    x = (p x + p')/(q x + q') for x = delta(n) - 1, so q x^2 + (q' - p) x - p' = 0
    and delta = x + 1 has trace 2 + (p - q')/q and norm 1 + (p - q' - p')/q.
    When both lie in Z[n], the norm C^2 + C D tr + D^2 N of C + D delta(n) is
    an integer polynomial in n, and its value mod q depends on n mod q only:
    the paper's norm invariance.
    """
    p_prev, p = (1,), spec.a_polys[0]
    q_prev, q = (0,), (1,)
    for a in spec.a_polys[1:]:
        p_prev, p = p, poly_add(poly_mul(a, p), p_prev)
        q_prev, q = q, poly_add(poly_mul(a, q), q_prev)
    tr = poly_div(poly_add(p, q_prev, -1), q)
    nm = poly_div(poly_add(poly_add(p, q_prev, -1), p_prev, -1), q)
    if tr is None or nm is None:
        return None
    return poly_add((2,), tr), poly_add((1,), nm)


def decided_trace_norm(spec: FamilySpec) -> tuple[Poly, Poly]:
    """`delta_trace_norm`, or HypothesisError when it is undecided."""
    polys = delta_trace_norm(spec)
    if polys is None:
        raise HypothesisError(
            "trace and norm of delta(n) are not both in Z[n]: norm invariance is undecided"
        )
    return polys


def checked_terms(spec: FamilySpec, n: int) -> tuple[int, tuple[int, ...]]:
    """f(n) and the terms a_i(n), after every check of `instantiate`, on
    integers; the period limit comes before the costlier squarefree test.
    With (A, B, C) = `fixed_point(terms)`, f(n) is the radicand iff
    B^2 - 4AC = f(n)*c^2, and delta(n) is integral iff A | B and A | C."""
    fn = poly_eval(spec.f_poly, n)
    if fn <= 1:
        raise HypothesisError(f"f({n}) = {fn} is not a valid radicand")
    terms = tuple(poly_eval(a, n) for a in spec.a_polys)
    positive = min(terms) >= 1
    # the minus period m is the last S_j of the primitive period (a period
    # repeated t times would give t*m): O(s) for any m
    if positive and s_indices(PeriodicCF(primitive_period(terms)))[-1] > MAX_PERIOD:
        raise LimitError(f"minus CF period not found within {MAX_PERIOD} terms")
    if not is_squarefree(fn):
        raise NonSquarefreeSkip(n, fn)
    if not positive:
        raise HypothesisError(f"a_i({n}) = {terms} has a term < 1")
    A, B, C = fixed_point(terms)
    disc = B * B - 4 * A * C
    if disc % fn or not is_perfect_square(disc // fn):
        raise HypothesisError(f"Q(delta({n})) has radicand {squarefree_part(disc)}, "
                              f"expected f({n}) = {fn}")
    if B % A or C % A:
        raise HypothesisError(f"delta({n}) has trace {Fraction(2 * A - B, A)} and norm "
                              f"{Fraction(A - B + C, A)}, not both integers")
    return fn, terms


def instantiate(spec: FamilySpec, n: int, checked=None) -> FieldInstance:
    """Build the field K_n = Q(sqrt(f(n))) with delta(n) = 1 + [[a_0(n),...]];
    `checked` is `checked_terms(spec, n)` when the caller already holds it.

    Raises NonSquarefreeSkip if f(n) is not squarefree, HypothesisError
    if the instance violates the family hypotheses (a term < 1, a radicand
    other than f(n), delta(n) not an algebraic integer), and LimitError past
    a size limit (`checked_terms`, `ConeContext`).
    """
    fn, terms = checked or checked_terms(spec, n)
    return FieldInstance(n, ConeContext(PeriodicCF(terms), fn, spec.q))  # fn: the certified radicand


SCAN = 128  # a residue's n = qk + r are scanned for usable fields over k < SCAN


class FieldTable:
    """The n = r mod q that one command meets, each decided once: usable,
    skipped (below the family's range, f(n) <= 1 or not squarefree, or terms
    a_i(n) of a shorter period than the a_i) or refused with the HypothesisError
    `checked_terms` raised; and the field of each usable n, built at most
    once.  The table lives as long as its owner, not the process."""

    def __init__(self, spec: FamilySpec, r: int):
        self.spec, self.r, self.checked, self.built = spec, r, {}, {}

    def check(self, n: int) -> tuple[int, tuple[int, ...]] | None:
        """`checked_terms(spec, n)` where n is usable, None where it is
        skipped; raises the refusal.  No field is built."""
        if n not in self.checked:
            try:
                inside = n >= self.spec.n_range[0] and not self.no_radicand(n)
                checked = checked_terms(self.spec, n) if inside else None
                # terms a_i(n) of a shorter period: K_n's unit is a root of the residue's
                primitive = checked and len(primitive_period(checked[1])) == self.spec.s
                self.checked[n] = checked if primitive else None
            except NonSquarefreeSkip:
                self.checked[n] = None
            except HypothesisError as e:
                self.checked[n] = e
        if isinstance(self.checked[n], HypothesisError):
            raise self.checked[n]
        return self.checked[n]

    def no_radicand(self, n: int) -> bool:
        """f(n) <= 1: such an n lies outside the family and is skipped."""
        return poly_eval(self.spec.f_poly, n) <= 1

    def field(self, n: int) -> FieldInstance | None:
        """The field K_n, or None where n is skipped; raises the refusal."""
        if n not in self.built:
            checked = self.check(n)
            self.built[n] = checked and instantiate(self.spec, n, checked)
        return self.built[n]

    def first_ns(self, count: int) -> list[int]:
        """The first `count` usable n = qk + r, k < SCAN, checked and not
        built; HypothesisError at the first refusal, or if there are fewer
        (naming the first n skipped for f(n) <= 1)."""
        q, r = self.spec.q, self.r
        ns = list(islice(filter(self.check, range(r, q * SCAN + r, q)), count))
        if len(ns) < count:
            low = [n for n in range(r, q * SCAN + r, q)
                   if n >= self.spec.n_range[0] and self.no_radicand(n)]
            more = ", ..." if len(low) > 3 else ""
            why = f"; f(n) <= 1 for n = {', '.join(map(str, low[:3]))}{more}" if low else ""
            raise HypothesisError(f"could not find {count} squarefree instances for residue {r}{why}")
        return ns


# ---------------------------------------------------------------------------
# residue-level coefficients


class ResidueContext(LabelSpace):
    """The label space of every field K_n of the family with n = r mod q,
    from the residue minus CF and tr, N of delta (`delta_trace_norm`) at r,
    and the residue data `coeffs_closed` reads: the terms `shifted` in k,
    a_i(qk + r) to degree d, `gammas` in [1, q] and `taus` with
    a_i(r) = q*tau_i + gamma_i, segment starts `Gammas`, the residue minus
    CF.  No field is built: the context checks its two `witnesses`, the
    first two usable n of its table, and builds neither.  `polys` is
    `delta_trace_norm(spec)` when the caller already holds it.  Raises
    HypothesisError when tr and N of delta(n) are not in Z[n], when the scan
    refuses an n before two usable ones (a wrong f, a term < 1), or when it
    holds fewer than two; LimitError past the period limit.
    """

    def __init__(self, spec: FamilySpec, r: int, polys=None):
        self.spec, self.r = spec, r
        polys = polys or decided_trace_norm(spec)
        self.fields = FieldTable(spec, r)
        self.witnesses = self.fields.first_ns(2)
        self.shifted = [poly_add(poly_shift(a, spec.q, r), (0,) * (spec.d + 1))
                        for a in spec.a_polys]
        self.gammas = [residue_one(a[0], spec.q) for a in self.shifted]
        self.taus = [(a[0] - g) // spec.q for a, g in zip(self.shifted, self.gammas)]
        rcf = PeriodicCF(tuple(self.gammas))
        self.Gammas = s_indices(rcf)
        self.mcf = plus_to_minus(rcf)
        trace_norm = tuple(poly_eval(p, r) % spec.q for p in polys)  # of delta mod q
        super().__init__(spec.q, trace_norm, unit_matrix(self.mcf.runs))


def A_im(rctx: ResidueContext, i: int, m: int) -> int:
    """Coefficient of k^m in a_i(qk+r)/q at the residue of `rctx`, m >= 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return rctx.shifted[i % len(rctx.shifted)][m] // rctx.q


def coeffs_closed(rctx: ResidueContext, label: RayLabel) -> list[Fraction]:
    """Contribution [B^0, ..., B^d] of one orbit member (A, B) to the k-form
    coefficients at the residue of `rctx`, from its residue data alone.

    That data is the minus CF of delta(n) mod q, `plus_to_minus` of
    [[gamma_0, ..., gamma_{s-1}]], with segment starts Gamma_l = `s_indices`;
    the Yamamoto numerators X_i run over it.  Segment l is the progression
    X_{Gamma_l} + i*dX_l; the k^m terms come from the blocks of q steps and
    from the special terms at the Gamma_l.  Every coefficient is an integer
    numerator over 12q^2.
    """
    spec, r, q = rctx.spec, rctx.r, rctx.q
    s, gammas, taus, Gammas = spec.s, rctx.gammas, rctx.taus, rctx.Gammas  # Gamma_0 .. Gamma_J
    J = len(Gammas) - 1
    # X[i + 1] = X_i for i = -1 .. Gamma_J
    X = yamamoto_numerators(label, rctx.mcf, Gammas[-1])
    starts = [X[G + 1] for G in Gammas]
    steps = [residue_one(X[G + 2] - X[G + 1], q) for G in Gammas[:-1]]
    blocks = [progression_sum(q, steps[l], starts[l], q) for l in range(J)]

    # constant coefficient: the special terms b = a_{2l}(r) + 2, then per
    # segment tau_{2l+1} full blocks and a tail of gamma_{2l+1} - 1 steps
    c0 = 0
    for l in range(1, J + 1):
        i = 2 * l % s
        c0 += term12(q * taus[i] + gammas[i] + 2, starts[l], X[Gammas[l]], q)
    for l in range(J):
        tail = Gammas[l + 1] - Gammas[l] - 1
        c0 += taus[(2 * l + 1) % s] * blocks[l]
        c0 += progression_sum(tail, steps[l], starts[l], q)
    out = [c0]

    # k^m coefficients, m >= 1
    for m in range(1, spec.d + 1):
        cm = 0
        for l in range(1, J + 1):
            x = starts[l]
            cm += q * A_im(rctx, 2 * l, m) * (6 * x * x - 6 * x * q + q * q)
        for l in range(J):
            cm += A_im(rctx, 2 * l + 1, m) * blocks[l]
        out.append(cm)
    return [Fraction(c, 12 * q * q) for c in out]


# ---------------------------------------------------------------------------
# quasi-polynomials


class QuasiPoly:
    """Exact quasi-polynomial of period q: at n = qk + r its value is the
    polynomial with ascending coefficients coeffs[r] at k (the k-form)."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs: dict[int, tuple[Fraction, ...]]):
        self.q, self.coeffs = q, coeffs

    def __eq__(self, other):
        if not isinstance(other, QuasiPoly):
            return NotImplemented
        return (self.q, self.coeffs) == (other.q, other.coeffs)

    def coeff(self, r: int, i: int) -> Fraction:
        coeffs = self.coeffs.get(r, ())
        return coeffs[i] if i < len(coeffs) else Fraction(0)

    def n_coeffs(self, r: int) -> tuple[Fraction, ...]:
        """The n-form at residue r: coefficients in n of the same values."""
        return poly_shift(self.coeffs[r], Fraction(1, self.q), Fraction(-r, self.q))

    def evaluate(self, n: int) -> Fraction:
        r = n % self.q
        if r not in self.coeffs:
            raise KeyError(f"no coefficients for residue {r}")
        return poly_eval(self.coeffs[r], n // self.q)


def denom_bounds_ok(q: int, k_coeffs, n_coeffs) -> bool:
    """12 q^2 B^i integral for the k-form B^i; 12 q^{i+2} A_i integral for
    the n-form A_i."""
    return all((12 * q * q * c).denominator == 1 for c in k_coeffs) and all(
        (12 * q ** (i + 2) * c).denominator == 1 for i, c in enumerate(n_coeffs))


def norm_invariance_check(spec: FamilySpec, label: RayLabel, r: int) -> bool:
    """True iff the label's ideal norm mod q is the same for every usable
    n = qk + r, which holds wherever `delta_trace_norm` decides the family
    and the residue context of r can be built; HypothesisError elsewhere.
    No field is built.  `verify` checks the hypothesis with it; `quasi_poly`
    relies on the residue context itself."""
    ResidueContext(spec, r)
    return True


def first_instances(spec: FamilySpec, r: int, count: int) -> list[FieldInstance]:
    """The first `count` usable instances with n congruent to r, k < SCAN."""
    table = FieldTable(spec, r)
    return [table.field(n) for n in table.first_ns(count)]


def quasi_poly(
    spec: FamilySpec, label: RayLabel, r: int, rctx: ResidueContext | None = None
) -> QuasiPoly:
    """Closed-form k-form quasi-polynomial of zeta_q(0, (C+D*delta(n))*b) for
    n = qk + r, assembled over the orbit of the label per the residue-level
    coefficient formulas; self-verified against direct evaluation on the
    two witnesses of `rctx`.  The orbit and both fields come from `rctx`,
    built here if not given.
    """
    rctx = rctx or ResidueContext(spec, r)
    parts = [coeffs_closed(rctx, member) for member in rctx.orbit_of(label)]
    poly = QuasiPoly(spec.q, {r: tuple(sum(column, Fraction(0)) for column in zip(*parts))})
    for inst in map(rctx.fields.field, rctx.witnesses):
        direct = partial_zeta0(inst.ctx, label)
        got = poly.evaluate(inst.n)
        if got != direct:
            raise VerificationError(
                "closed form disagrees with direct zeta values: "
                f"n={inst.n}: closed {got} vs direct {direct}"
            )
    return poly


class FitResult(Record):
    """The oracle's k-form `coeffs`, `consistent`, `used_ks` and `skipped_ks`."""

    __slots__ = ()
    _fields = ("coeffs", "consistent", "used_ks", "skipped_ks")


def lagrange_fit(points: list[tuple[int, Fraction]]) -> list[Fraction]:
    """Exact interpolating polynomial (ascending coefficients) through points."""
    coeffs: tuple = ()
    for j, (xj, yj) in enumerate(points):
        # basis polynomial prod_{i != j} (x - x_i), over prod_{i != j} (x_j - x_i)
        basis, denom = (1,), 1
        for i, (xi, _) in enumerate(points):
            if i != j:
                basis, denom = poly_mul(basis, (-xi, 1)), denom * (xj - xi)
        coeffs = poly_add(coeffs, basis, Fraction(yj, denom))
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fit_oracle(rctx: ResidueContext, label: RayLabel, k_values) -> FitResult:
    """Independent oracle: exact Lagrange fit of direct zeta values at
    n = qk + r over the usable k, with a consistency flag certifying that
    the extra points lie on the degree-<=d polynomial.  The family, r and
    each k's field, or its skip, come from the residue context `rctx`."""
    spec, r = rctx.spec, rctx.r
    d = spec.d
    fields = {k: rctx.fields.field(spec.q * k + r) for k in k_values}
    usable = [k for k in fields if fields[k]]
    if len(usable) < d + 2:
        raise HypothesisError(
            f"need at least {d + 2} squarefree samples, got {len(usable)}"
        )
    points = [(k, partial_zeta0(fields[k].ctx, label)) for k in usable]
    fit = lagrange_fit(points[: d + 1])
    consistent = all(poly_eval(fit, k) == v for k, v in points[d + 1 :])
    fit += [Fraction(0)] * (d + 1 - len(fit))
    skipped = tuple(k for k in fields if not fields[k])
    return FitResult(tuple(fit), consistent, tuple(usable), skipped)
