"""The verification suite behind `rayzeta verify`: criteria A1-A9.

Each check compares independent exact computations of the same quantities,
returns the number of comparisons made, and raises Mismatch at the first
disagreement.  A5 and A6 read the rows that `rayzeta family` prints: each
row's `oracle_ok` and `denominator_bounds_ok`, for each preset and q.
"""

from __future__ import annotations

import inspect
import os
import random
import time
from fractions import Fraction
from functools import partial

from .cli import EXIT_HYPOTHESIS, EXIT_INTERNAL, EXIT_OK, ConfigError, emit, family_report, main
from .contfrac import minus_cf
from .family import (
    PRESETS,
    FamilySpec,
    FieldInstance,
    FieldTable,
    QuasiPoly,
    delta_trace_norm,
    denom_bounds_ok,
    first_instances,
    instantiate,
    norm_invariance_check,
    poly_eval,
    poly_shift,
)
from .hecke import hecke_L0, hecke_L0_family, orbit_representatives
from .oracle import boundary_points, mult_matrix, xy_direct
from .quadfield import unit_index_lambda
from .shintani import (
    LabelSpace,
    RayLabel,
    eps_act,
    f_delta,
    orbit,
    partial_zeta0,
    yamamoto_xy,
)

# Closed forms of each preset at n: the plus-CF terms of delta(n) - 1, the
# coordinates (a, b) of its fundamental unit a + b*sqrt(f(n)), and the rows
# of the unit's action on labels, (C, D) -> (row . (C, D) for row) mod q.
STRUCTURE = {
    "rd-n2p2": lambda n: (
        (2 * n, n),
        (n * n + 1, n),
        ((1 - n, n - 2 * n * n), (n, 2 * n * n + n + 1)),
    ),
    "quartic-16n4": lambda n: (
        (8 * n * n + 8 * n + 2, 2 * n + 1),
        ((2 * n + 1) ** 3 + 1, 2 * n + 1),
        ((-2 * n, -(16 * n**3 + 16 * n**2 + 6 * n + 1)),
         (2 * n + 1, 16 * n**3 + 24 * n**2 + 14 * n + 4)),
    ),
}


class Mismatch(Exception):
    """Two computations that must agree did not; the message locates it."""


def _fields(spec: FamilySpec, n_max: int) -> list[FieldInstance]:
    """The field of every n <= n_max that the family's rule does not skip,
    from one `FieldTable` per residue."""
    tables = [FieldTable(spec, r) for r in range(spec.q)]
    return [inst for n in range(n_max + 1) if (inst := tables[n % spec.q].field(n))]


def check_structure(name: str, n_max: int) -> int:
    """Plus-CF terms and fundamental unit equal the preset's closed forms,
    and each field's minus CF, from the index rule, equals the ceiling
    algorithm `minus_cf` run on its delta."""
    spec = PRESETS[name]
    checked = 0
    for inst in _fields(spec, n_max):
        n = inst.n
        terms, (a, b), _ = STRUCTURE[name](n)
        if inst.ctx.cf.terms != terms:
            raise Mismatch(f"CF terms wrong at n={n}")
        if inst.ctx.eps != inst.ctx.basis.delta.field.elem(a, b):
            raise Mismatch(f"unit wrong at n={n}")
        if inst.ctx.mcf != minus_cf(inst.ctx.basis.delta):
            raise Mismatch(f"minus CF wrong at n={n}")
        checked += 1
    return checked


def check_yamamoto_vs_direct(n_max: int = 12, qs=(2, 3, 5)) -> int:
    """Recursion equals the direct lattice solve at every index 0..lambda*m."""
    checked = 0
    for name in sorted(PRESETS):
        for q in qs:
            spec = PRESETS[name].with_q(q)
            for inst in _fields(spec, n_max):
                n, ctx = inst.n, inst.ctx
                total = ctx.lam * ctx.mcf.m
                bps = boundary_points(ctx.basis, ctx.mcf, total + 1)
                for lab in f_delta(ctx):
                    seq = yamamoto_xy(lab, ctx.mcf, total)
                    for i in range(total + 1):
                        x, y = xy_direct(lab, i, bps, ctx.basis)
                        if (x, y) != (seq.xs[i], seq.ys[i]):
                            raise Mismatch(f"{name} q={q} n={n} ({lab.C},{lab.D}) index {i}")
                        checked += 1
    return checked


def check_orbit_recursions(n_max: int = 12, qs=(2, 3, 5)) -> int:
    """`eps_act` equals the per-family label recursions and `LabelSpace.act`;
    orbit length equals lambda of `mult_matrix(eps)` on Fractions, a second
    route to the context's `unit_matrix`; orbits at n and n+q coincide."""
    checked = 0
    for name in sorted(PRESETS):
        for q in qs:
            spec = PRESETS[name].with_q(q)
            fields = {inst.n: inst for inst in _fields(spec, n_max + q)}
            for n, inst in fields.items():
                if n > n_max:
                    break
                ctx = inst.ctx
                _, _, action = STRUCTURE[name](n)
                for lab in f_delta(ctx):
                    img = eps_act(ctx.eps, lab, ctx.basis)
                    step = tuple((u * lab.C + v * lab.D) % q for u, v in action)
                    if (img.C, img.D) != step or LabelSpace.act(ctx, lab) != img:
                        raise Mismatch(f"{name} q={q} n={n} label ({lab.C},{lab.D})")
                    orb = orbit(lab, ctx)
                    if len(orb) != unit_index_lambda(mult_matrix(ctx.eps, ctx.basis), q):
                        raise Mismatch(f"orbit length mismatch {name} q={q} n={n}")
                    if n + q in fields:
                        ctx2 = fields[n + q].ctx
                        orb2 = orbit(RayLabel(lab.C, lab.D, q), ctx2)
                        if [(o.C, o.D) for o in orb] != [(o.C, o.D) for o in orb2]:
                            raise Mismatch(f"orbit changed {name} q={q} n={n}->{n + q}")
                    checked += 1
    return checked


def _check_family_rows(qs, flag: str) -> int:
    """`flag` holds on every row of `rayzeta family` with k = 0..6, for each
    preset and q in qs.  A refused residue is a failure row, not a row, so
    it compares nothing."""
    checked = 0
    for name in sorted(PRESETS):
        for q in qs:
            spec = PRESETS[name].with_q(q)
            report, _ = family_report(spec, range(7), None, delta_trace_norm(spec))
            for row in report["rows"]:
                if not row[flag]:
                    raise Mismatch(f"{name} q={q} r={row['r']} ({row['C']},{row['D']})")
                checked += 1
    return checked


def check_quasi_polynomials(qs=(2, 3, 5)) -> int:
    """Closed-form coefficients equal the exact interpolation oracle."""
    anchor_ctx = instantiate(PRESETS["rd-n2p2"].with_q(2), 1).ctx
    if anchor_ctx.basis.delta.field.Delta != 3:
        raise Mismatch("anchor field is not Q(sqrt(3))")
    if partial_zeta0(anchor_ctx, RayLabel(1, 0, 2)) != Fraction(1, 6):
        raise Mismatch("anchor zeta value is not 1/6")
    return 1 + _check_family_rows(qs, "oracle_ok")


def check_denominator_bounds(qs=(2, 3, 5)) -> int:
    """12 q^2 B^i and 12 q^{i+2} A_i are integers for all computed coefficients."""
    return _check_family_rows(qs, "denominator_bounds_ok")


ROUND_TRIPS = 100  # random quasi-polynomials A7 checks
ROUND_TRIP_SEED = 20260826


def check_form_round_trip() -> int:
    """The n-form of a random k-form quasi-polynomial agrees with it
    pointwise, and `poly_shift` by (q, r) takes it back to the k-form."""
    rng = random.Random(ROUND_TRIP_SEED)
    checked = 0
    for _ in range(ROUND_TRIPS):
        q = rng.randint(2, 7)
        degree = rng.randint(0, 3)
        coeffs = {
            r: tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                     for _ in range(degree + 1))
            for r in range(q)
        }
        p = QuasiPoly(q, coeffs)
        for n in range(4 * q):
            if p.evaluate(n) != poly_eval(p.n_coeffs(n % q), n):
                raise Mismatch(f"pointwise mismatch at n={n}")
        for r, c in coeffs.items():
            if poly_shift(p.n_coeffs(r), q, r) != c:
                raise Mismatch(f"round trip broke at r={r}")
        checked += 1
    return checked


def check_l_assembly() -> int:
    """The norm-class sums of a field with q = 2 reduce to the sum of its
    partial zetas; the family's per-norm quasi-polynomials mod 5 interpolate
    the sums of single fields with bounded denominators."""
    checked = 0
    for name in sorted(PRESETS):
        spec = PRESETS[name].with_q(2)
        ctx = first_instances(spec, 1, 1)[0].ctx
        want = sum(
            (partial_zeta0(ctx, rep) for rep in orbit_representatives(ctx)),
            Fraction(0),
        )
        if hecke_L0(ctx) != ({1: want} if want else {}):
            raise Mismatch(f"trivial character on {name}")
        checked += 1

    spec = PRESETS["rd-n2p2"].with_q(5)
    sums = hecke_L0_family(spec)
    for r in range(5):
        for inst in first_instances(spec, r, spec.d + 2):
            values = {a: qp.evaluate(inst.n) for a, qp in sums.items()}
            if {a: v for a, v in values.items() if v} != hecke_L0(inst.ctx):
                raise Mismatch(f"L-value mismatch at n={inst.n}")
            checked += 1
        for a, qp in sums.items():
            if not denom_bounds_ok(5, (), qp.n_coeffs(r)):
                raise Mismatch(f"denominator bound broken at r={r} chi^{a}")
            checked += spec.d + 1
    return checked


def check_hypothesis_tripwires() -> int:
    """Norm invariance holds on the shipped families; an uncertifiable inline
    family makes the family command exit with the hypothesis-violation code."""
    checked = 0
    for name in sorted(PRESETS):
        for q in (2, 3, 4, 5):
            spec = PRESETS[name].with_q(q)
            ctx = first_instances(spec, spec.n_range[0] % q, 1)[0].ctx
            for lab in f_delta(ctx):
                for r in range(q):
                    if not norm_invariance_check(spec, lab, r):
                        raise Mismatch(f"{name} q={q} r={r} ({lab.C},{lab.D})")
                    checked += 1
    # f(n) = 4(n+1)^2 is never squarefree, so no instance can be built and
    # the invariance check cannot be certified.
    code = main([
        "family", "--f-poly", "4,8,4", "--a-polys", "0,2;0,1", "--q", "2",
        "--out", os.devnull,
    ])
    if code != EXIT_HYPOTHESIS:
        raise Mismatch(f"expected exit 3, got {code}")
    return checked + 1


CRITERIA = {
    "A1": ("degree-2 family structure (CF terms and fundamental unit)",
           partial(check_structure, "rd-n2p2", n_max=20)),
    "A2": ("degree-4 family structure (CF terms and fundamental unit)",
           partial(check_structure, "quartic-16n4", n_max=12)),
    "A3": ("recursion vs direct lattice coordinates", check_yamamoto_vs_direct),
    "A4": ("unit-action orbit recursions and orbit stability",
           check_orbit_recursions),
    "A5": ("closed quasi-polynomials equal the interpolation oracle",
           check_quasi_polynomials),
    "A6": ("denominator bounds on all coefficients", check_denominator_bounds),
    "A7": ("k-form/n-form round trip", check_form_round_trip),
    "A8": ("L-value assembly and interpolation", check_l_assembly),
    "A9": ("hypothesis tripwires", check_hypothesis_tripwires),
}


def check_params(name: str) -> set[str]:
    """The keyword arguments that a criterion's check accepts."""
    return set(inspect.signature(CRITERIA[name][1]).parameters)


def run_criterion(name: str, **overrides) -> dict:
    """Run one criterion, passing only the overrides its check accepts.

    `rayzeta verify` refuses a flag that no selected criterion accepts."""
    description, fn = CRITERIA[name]
    params = check_params(name)
    kwargs = {key: value for key, value in overrides.items() if key in params}
    start = time.perf_counter()
    try:
        checked = fn(**kwargs)
        result = {"passed": checked > 0, "checked": checked}
        if not checked:
            result["detail"] = "nothing was compared"
    except Mismatch as e:
        result = {"passed": False, "detail": str(e)}
    result.update(
        criterion=name,
        description=description,
        seconds=round(time.perf_counter() - start, 3),
    )
    return result


def cmd_verify(args) -> int:
    """`rayzeta verify`: run the selected criteria with the overrides from
    --q and --n-max, and emit one row per criterion."""
    names = sorted(CRITERIA)
    if args.criterion is not None:
        names = [c.strip() for c in args.criterion.split(",")]
        unknown = [c for c in names if c not in CRITERIA]
        if unknown:
            raise ConfigError(f"unknown criteria {unknown}; available: {sorted(CRITERIA)}")
    overrides = {}
    if args.q is not None:
        if args.q < 2:
            raise ConfigError("q must be >= 2")
        overrides["qs"] = (args.q,)
    if args.n_max is not None:
        if args.n_max < 1:
            raise ConfigError("n-max must be >= 1")
        overrides["n_max"] = args.n_max
    taken = set().union(*(check_params(name) for name in names))
    unused = [flag for key, flag in (("qs", "--q"), ("n_max", "--n-max"))
              if key in overrides and key not in taken]
    if unused:
        raise ConfigError(
            f"{', '.join(unused)}: taken by none of the selected criteria "
            f"({', '.join(names)})"
        )
    rows = [run_criterion(name, **overrides) for name in names]
    report = {
        "command": "verify",
        "rows": rows,
        "passed": all(row["passed"] for row in rows),
    }
    emit(report, args)
    return EXIT_OK if report["passed"] else EXIT_INTERNAL
