"""Cone decomposition for a single real quadratic field: ray-class labels,
the unit action and its orbits, the Yamamoto fractional-coordinate
recursion, and exact partial zeta values at s = 0.  The boundary lattice
points and the direct lattice solve that the recursion is checked against
(`boundary_points`, `xy_direct`) are in `rayzeta.oracle`.

zeta(0) depends only on the ray class, so a field (`ConeContext`) and a
residue r mod q (`family.ResidueContext`) share one label space,
`LabelSpace`: F_delta from the label norms mod q (`norm_form`), lambda, and
the orbits of the unit's integer matrix mod q, each cycle walked once
(`orbit_of`).  Only `ConeContext.act` differs: it acts by `eps_act` on
`Fraction`s.  A `ConeContext` reads its minus CF off the plus period by the
index rule `contfrac.plus_to_minus`, as runs (b, k), in O(s), and tr delta
and N delta on integers from the period's `fixed_point`.  From the runs it
takes the unit's matrix (`quadfield.unit_matrix`: a run of 2s is one
arithmetic step), checked against tr and N, its series steps
(`series_steps`) and the lambda*m cap: O(runs), not O(m).  Inside a run of
2s the Yamamoto numerators form an arithmetic progression mod q, so
`progression_sum` adds a run of any length in O(q); `term12` remains the
per-term kernel.  `partial_zeta0` sums the lambda periods once and checks
each period's end state against the label's orbit under `act`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd

from .contfrac import (
    MinusCF,
    PeriodicCF,
    Run,
    cf_value,
    fixed_point,
    plus_to_minus,
    primitive_period,
)
from .exactmath import LimitError, Record, frac_unit, residue_one, term12
from .quadfield import (
    Matrix,
    ModuleBasis,
    QuadElem,
    coords_in_basis,
    fundamental_unit_totally_positive,
    unit_index_lambda,
    unit_matrix,
)

MAX_TERMS_DEFAULT = 10**6

Step = tuple[int, int, int]  # (b_{j-1}, b_j, k): k series steps, see series_steps
State = tuple[int, int]  # (X_{i-1}, X_i), Yamamoto numerators


class LabelError(ValueError):
    """Label outside F_delta or malformed."""


class InternalCheckError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


class RayLabel(Record):
    """(C, D) with 0 <= C, D <= q-1, labelling the ray class of (C+D*delta)*b."""

    __slots__ = ()
    _fields = ("C", "D", "q")

    def __new__(cls, C: int, D: int, q: int) -> RayLabel:
        if q < 2:
            raise LabelError("q must be >= 2")
        if not (0 <= C < q and 0 <= D < q):
            raise LabelError("label coordinates must lie in [0, q-1]")
        if C == 0 and D == 0:
            raise LabelError("(0,0) is excluded")
        return tuple.__new__(cls, (C, D, q))


def norm_form(C: int, D: int, tr: int, nm: int) -> int:
    """N(C + D*delta) = C^2 + C*D*tr + D^2*nm, for delta of trace tr and
    norm nm; positive for a label, as C + D*delta and its conjugate are."""
    return C * C + C * D * tr + D * D * nm


class LabelSpace:
    """F_delta with the unit acting on it, as one field or every K_n with
    n = r mod q sees it: from q, delta's `trace_norm` (over Z or mod q) and
    the unit's `unit_matrix` on [1, delta], kept mod q with its index `lam`;
    `orbit_of` walks each cycle of `act` once."""

    __slots__ = ("q", "trace_norm", "matrix", "lam", "_orbits")

    def __init__(self, q: int, trace_norm: tuple[int, int], matrix: Matrix):
        (a, b), (c, d) = matrix
        self.q, self.trace_norm, self._orbits = q, trace_norm, {}
        self.matrix = (a % q, b % q), (c % q, d % q)
        self.lam = unit_index_lambda(self.matrix, q)

    def norm_of(self, label: RayLabel) -> int:
        """The norm of the integral ideal (C + D*delta)*b mod q."""
        C, D, _ = label
        return norm_form(C, D, *self.trace_norm) % self.q

    def orbit_of(self, label: RayLabel) -> list[RayLabel]:
        """`orbit`, walked once per cycle: y = eps^j x gets x's cycle started at y.
        Each member keeps the one cycle and its offset j in it."""
        if label not in self._orbits:
            cycle = orbit(label, self)
            self._orbits.update((member, (cycle, j)) for j, member in enumerate(cycle))
        cycle, j = self._orbits[label]
        return cycle[j:] + cycle[:j]

    def act(self, label: RayLabel) -> RayLabel:
        """The label's image under the unit: (C + D*delta)*eps = (aC + bD) +
        (cC + dD)*delta for the matrix ((a, b), (c, d)), reduced mod q."""
        (a, b), (c, d) = self.matrix
        C, D, q = label
        return RayLabel((a * C + b * D) % q, (c * C + d * D) % q, q)


class ConeContext(LabelSpace):
    """The label space of one field, given by the purely periodic plus CF
    `cf` of delta - 1 and its radicand, built by `__post_init__`, and what
    its series needs: the minus CF `mcf` (`plus_to_minus` of the primitive
    period) and its `steps`; delta's `basis` and the unit `eps` serve `act`
    and the oracles.  The ideal b with b^{-1} = [1, delta] is taken to be O_K.
    """

    __slots__ = ("cf", "basis", "mcf", "steps", "eps")

    def __init__(self, cf: PeriodicCF, radicand: int, q: int):
        self.cf, self.q = cf, q
        self.__post_init__(radicand)

    def __post_init__(self, radicand: int):
        raw = os.environ.get("RAYZETA_MAX_TERMS", str(MAX_TERMS_DEFAULT))
        try:
            max_terms = int(raw)
        except ValueError:
            raise LimitError(f"RAYZETA_MAX_TERMS={raw!r} is not an integer") from None
        if self.q < 2:
            raise LabelError("q must be >= 2")
        cf = PeriodicCF(primitive_period(self.cf.terms))
        # delta = x + 1 for x = [[cf]], the root of A x^2 + B x + C = 0
        A, B, C = fixed_point(cf.terms)
        (tr, bad_tr), (nm, bad_nm) = divmod(2 * A - B, A), divmod(A - B + C, A)
        if bad_tr or bad_nm:
            raise LabelError("(C+D*delta)*b is not integral; basis data malformed")
        self.basis = ModuleBasis(cf_value(self.cf, radicand) + 1, (tr, nm))
        self.mcf = plus_to_minus(cf)
        matrix = unit_matrix(self.mcf.runs)
        self.eps = fundamental_unit_totally_positive(self.basis, matrix)
        # eps*delta = b + d*delta with eps = a + c*delta and delta^2 = tr*delta - nm
        (a, b), (c, d) = matrix
        if d - a != tr * c or -b != nm * c:
            raise InternalCheckError("the unit's matrix disagrees with delta's trace and norm")
        super().__init__(self.q, (tr, nm), matrix)
        if self.lam * self.mcf.m > max_terms:
            raise LimitError(
                f"lambda*m = {self.lam * self.mcf.m} exceeds cap {max_terms}"
            )
        self.steps = series_steps(self.mcf.runs)

    def act(self, label: RayLabel) -> RayLabel:
        """`eps_act` on `Fraction`s, equal to the matrix action (`verify` A4)."""
        return eps_act(self.eps, label, self.basis)


def f_delta(ctx: LabelSpace) -> list[RayLabel]:
    """All labels (C,D) != (0,0) in [0,q-1]^2 whose ideal norm is coprime to q,
    in lexicographic order."""
    q = ctx.q
    out = []
    for C in range(q):
        for D in range(q):
            if (C, D) == (0, 0):
                continue
            label = RayLabel(C, D, q)
            if gcd(ctx.norm_of(label), q) == 1:
                out.append(label)
    return out


def eps_act(eps: QuadElem, label: RayLabel, basis: ModuleBasis) -> RayLabel:
    """Image of the label under multiplication by the unit: coordinates of
    (C + D*delta)*eps in [1, delta], reduced into [0, q-1]."""
    C, D, q = label
    u, v = coords_in_basis((C + D * basis.delta) * eps, basis)
    if u.denominator != 1 or v.denominator != 1:
        raise LabelError("unit does not stabilize [1, delta]")
    return RayLabel(int(u) % q, int(v) % q, q)


def orbit(label: RayLabel, ctx: LabelSpace) -> list[RayLabel]:
    """Orbit of the label under the unit action `ctx.act`, starting at the
    seed.  Its length always equals lambda = [E+ : E_q+]."""
    members = [label]
    cur = ctx.act(label)
    while cur != label:
        members.append(cur)
        if len(members) > ctx.lam:
            raise InternalCheckError("orbit did not close within lambda steps")
        cur = ctx.act(cur)
    if len(members) != ctx.lam:
        raise InternalCheckError(
            f"orbit length {len(members)} differs from lambda {ctx.lam}"
        )
    return members


class XYSeq(Record):
    """Fractional coordinates xs = (x_i) in (0,1], ys = (y_i) in [0,1) for
    i = 0..count."""

    __slots__ = ()
    _fields = ("xs", "ys")


def yamamoto_xy(label: RayLabel, mcf: MinusCF, count: int) -> XYSeq:
    """x_0 = <D/q>, y_0 = C/q, x_{i+1} = <b_i x_i - x_{i-1}> with x_{-1} = (q-C)/q."""
    q, terms, m = label.q, mcf.terms, mcf.m
    x_prev = Fraction(q - label.C, q)  # x_{-1} = 1 - y_0
    xs = [frac_unit(Fraction(label.D, q))]
    ys = [Fraction(label.C, q)]
    for i in range(count):
        b = terms[i % m]
        x_next = frac_unit(b * xs[-1] - x_prev)
        x_prev = xs[-1]
        xs.append(x_next)
        ys.append(1 - x_prev)
    return XYSeq(tuple(xs), tuple(ys))


def yamamoto_numerators(label: RayLabel, mcf: MinusCF, count: int) -> list[int]:
    """[X_{-1}, X_0, ..., X_count], the numerators X_i = q*x_i of `yamamoto_xy`:
    X_{-1} = q - C, X_0 = <D>_q, X_{i+1} = <b_i X_i - X_{i-1}>_q in [1, q]."""
    C, D, q = label
    terms, m = mcf.terms, mcf.m
    xs = [q - C, residue_one(D, q)]
    for i in range(count):
        xs.append(residue_one(terms[i % m] * xs[-1] - xs[-2], q))
    return xs


def progression_sum(count: int, dX: int, X0: int, q: int) -> int:
    """12q^2 times the sum of -B1(x_i)B1(x_{i-1}) + B2(x_i) for i = 1..count
    along the arithmetic progression x_i = X_i/q, X_i = <X0 + i*dX>_q in [1, q].

    This is the series over a run of 2s in the minus CF, where the Yamamoto
    recursion X_{i+1} = <2X_i - X_{i-1}>_q is exactly such a progression.
    X_{i+q} = X_i, so the sum is count // q copies of the first q terms plus
    the first count % q terms: O(min(count, q)) work.
    """
    head = total = 0
    prev = X0
    for i in range(1, min(count, q) + 1):
        cur = residue_one(X0 + i * dX, q)
        total += term12(2, cur, prev, q)
        prev = cur
        if i == count % q:
            head = total
    return total if count < q else count // q * total + head


def series_steps(runs: tuple[Run, ...]) -> tuple[Step, ...]:
    """One period j = 1..m of the series as run-length steps, from the runs
    (b, k) of the minus CF: O(runs) plus one step per term > 2.

    Step j advances X_j = <b_{j-1} X_{j-1} - X_{j-2}>_q and adds the term with
    b_j (indices mod m).  Consecutive steps with b_{j-1} = b_j = 2 merge into
    one (2, 2, k) run; every other step is (b_{j-1}, b_j, 1).  A run (b, k)
    holds k - 1 steps (b, b) and then one step (b, b'), b' the next run's b;
    a last run of 2s followed by a first run of 2s is one (2, 2, k) step.
    """
    steps: list[Step] = []
    for (b, k), (b_next, _) in zip(runs, runs[1:] + runs[:1]):
        if b == b_next == 2:  # the last run of 2s runs on into the first
            steps.append((2, 2, k))
            continue
        if k > 1:
            steps += [(2, 2, k - 1)] if b == 2 else [(b, b, 1)] * (k - 1)
        steps.append((b, b_next, 1))
    return tuple(steps)


def _series12(state: State, q: int, steps: tuple[Step, ...]) -> tuple[int, State]:
    """12q^2 times the sum over one period i = 1..m of -B1(x_i)B1(x_{i-1}) +
    (b_i/2)B2(x_i), x_i = X_i/q from the state (X_{-1}, X_0), and the end state
    (X_{m-1}, X_m).  A run of k 2s is one `progression_sum` with step
    d = <X_i - X_{i-1}>_q, after which the state jumps k places ahead."""
    x_prev, x = state
    total = 0
    for b_prev, b, k in steps:
        if k == 1:
            x_prev, x = x, residue_one(b_prev * x - x_prev, q)
            total += term12(b, x, x_prev, q)
        else:
            d = (x - x_prev) % q
            total += progression_sum(k, d, x, q)
            x_prev, x = residue_one(x + (k - 1) * d, q), residue_one(x + k * d, q)
    return total, (x_prev, x)


def partial_zeta0(ctx: ConeContext, label: RayLabel) -> Fraction:
    """Exact zeta_q(0, (C+D*delta)*b): lambda periods of `_series12` from the
    state (q - C, <D>_q), O(lambda * steps * q).  After period j the state must
    be the start (q - C_j, <D_j>_q) of the j-th member eps^j (C, D) of the orbit
    `ctx.orbit_of(label)`, and after lambda periods the label's own: the integer
    recursion checked against the unit action at every period end."""
    if gcd(ctx.norm_of(label), ctx.q) != 1:
        raise LabelError("label lies outside F_delta")
    C, D, q = label
    members = ctx.orbit_of(label)
    state, total = (q - C, residue_one(D, q)), 0
    for j, (c, d, _) in enumerate(members[1:] + members[:1], 1):
        part, state = _series12(state, q, ctx.steps)
        total += part
        if state != (want := (q - c, residue_one(d, q))):
            raise InternalCheckError(f"label ({C}, {D}) mod {q}: after period {j} the state "
                                     f"{state} is not {want}, the start of member ({c}, {d})")
    return Fraction(total, 12 * q * q)
