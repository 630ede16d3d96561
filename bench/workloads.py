"""The benchmark's workloads: seeded inputs, the jobs that run them, and the
exact checks applied to every job output outside the timed region.

Every workload is a stream of passes. A pass is a list of jobs plus optional
timed preparation that belongs to the pass but to no job (the context build
of `zeta-deep`). `warm_up()` runs one untimed job before timing starts; for
`zeta-wide` on a field outside the measured ranges, so that no measured field
runs twice. Inputs are drawn so that the seed changes which fields are used,
or the job order, but not how much work a pass holds: field sizes are
stratified over narrow ranges and restricted to residues with the same unit
index, so a run's latencies depend on the program, not on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


class JobError(RuntimeError):
    """A job ended with a non-zero exit code."""


@dataclass
class Job:
    key: str  # identifies the input; equal keys must give equal outputs
    run: Callable[[], str]  # does the work and returns its exact output as text


@dataclass
class Pass:
    jobs: list[Job]
    prepare: Callable[[], None] | None = None


def run_cli(api, argv: list[str]) -> str:
    """One in-process `rayzeta` invocation; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(argv)
    if code != 0:
        raise JobError(f"exit code {code} for {' '.join(argv)}")
    return buf.getvalue()


def usable(api, spec, n: int) -> bool:
    """f(n) is squarefree, so instantiate() never takes the skip path."""
    return api.quadfield.is_squarefree(api.family.poly_eval(spec.f_poly, n))


class ZetaChecker:
    """Compares partial zeta values with the closed-form quasi-polynomial
    built from residue data, one quasi-polynomial per (family, label, r)."""

    def __init__(self, api):
        self.api = api
        self.polys = {}

    def mismatch(self, preset: str, q: int, n: int, C: int, D: int, value: str) -> str | None:
        key = (preset, q, C, D, n % q)
        if key not in self.polys:
            spec = self.api.family.get_preset(preset, q)
            label = self.api.shintani.RayLabel(C, D, q)
            self.polys[key] = self.api.family.quasi_poly(spec, label, n % q)
        want = self.polys[key].evaluate(n)
        if Fraction(value) != want:
            return f"{preset} q={q} n={n} ({C},{D}): got {value}, closed form {want}"
        return None


class ZetaDeep:
    """One field of quartic-16n4 at q = 7, every label of F_delta, each label
    one `partial_zeta0` call through the library API. Long Bernoulli series
    (lambda = 4, m about 600) make the kernel nearly all of the time."""

    preset, q = "quartic-16n4", 7
    # n = 1, 2, 6 (mod 7) gives lambda = 4 and all 48 labels; the other
    # classes give lambda = 1 or 8, which would tie the cost to the seed.
    residues = (1, 2, 6)
    # [299, 304] holds n = 300 and 303 (m = 601 and 607), so the seed moves
    # the series length by 1% at most
    sizes = {"full": ((299, 304), None), "small": ((20, 40), 4)}

    def __init__(self, api, seed: int, size: str, out_dir: Path):
        self.api = api
        (lo, hi), self.max_labels = self.sizes[size]
        rng = random.Random(f"zeta-deep:{seed}")
        self.spec = api.family.get_preset(self.preset, self.q)
        candidates = [n for n in range(lo, hi + 1) if n % self.q in self.residues]
        rng.shuffle(candidates)
        self.n = next(n for n in candidates if usable(api, self.spec, n))
        self.rng = rng
        self.ctx = None
        self.pass_ = None
        self.checker = ZetaChecker(api)

    def build(self) -> None:
        self.ctx = self.api.family.instantiate(self.spec, self.n).ctx

    def next_pass(self) -> Pass:
        if self.pass_ is None:
            self.build()
            labels = self.api.shintani.f_delta(self.ctx)[: self.max_labels]
            self.rng.shuffle(labels)
            self.pass_ = Pass([self.job(lab) for lab in labels], prepare=self.build)
        return self.pass_

    def warm_up(self) -> None:
        self.next_pass().jobs[0].run()

    def job(self, label) -> Job:
        def run() -> str:
            value = self.api.shintani.partial_zeta0(self.ctx, label)
            return f"{value.numerator}/{value.denominator}"

        return Job(f"zeta {self.preset} q={self.q} n={self.n} label={label.C},{label.D}", run)

    def describe(self) -> str:
        return f"{self.preset} q={self.q} n={self.n} lambda={self.ctx.lam} m={self.ctx.mcf.m}"

    def check(self, key: str, output: str) -> str | None:
        C, D = map(int, key.rsplit("=", 1)[1].split(","))
        return self.checker.mismatch(self.preset, self.q, self.n, C, D, output)


class ZetaWide:
    """A stream of fresh fields, each one `rayzeta zeta` run over all of
    F_delta at q = 2. No field repeats within a run, so a cache keyed on the
    field can never hit; context construction is a large share."""

    q = 2
    # (preset, lo, hi, alternate parity): rd-n2p2 has lambda = 1 for even n
    # and 2 for odd n, so its strata alternate parity to fix the mix.
    families = {
        "full": [("rd-n2p2", 500, 1000, True), ("quartic-16n4", 200, 400, False)],
        "small": [("rd-n2p2", 30, 50, True), ("quartic-16n4", 5, 15, False)],
    }
    strata = {"full": 10, "small": 2}

    def __init__(self, api, seed: int, size: str, out_dir: Path):
        self.api = api
        self.rng = random.Random(f"zeta-wide:{seed}")
        self.families = self.families[size]
        self.count = self.strata[size]
        self.used = set()
        self.out = out_dir / "zeta-wide.json"
        self.checker = ZetaChecker(api)

    def draw(self, preset: str, lo: int, hi: int, alternate: bool) -> list[int] | None:
        """One unused field per stratum, or None once a stratum has none left."""
        spec = self.api.family.get_preset(preset, self.q)
        width = (hi - lo) // self.count
        chosen = []
        for i in range(self.count):
            start = lo + i * width
            cands = [
                n for n in range(start, start + width)
                if (not alternate or n % 2 == i % 2) and (preset, n) not in self.used
            ]
            self.rng.shuffle(cands)
            n = next((n for n in cands if usable(self.api, spec, n)), None)
            if n is None:
                return None
            self.used.add((preset, n))
            chosen.append(n)
        return chosen

    def next_pass(self) -> Pass | None:
        """A pass of fresh fields; None when the ranges are used up, which
        ends the run early rather than repeat a field."""
        drawn = [(preset, self.draw(preset, lo, hi, alternate))
                 for preset, lo, hi, alternate in self.families]
        if any(ns is None for _, ns in drawn):
            return None
        jobs = [self.job(preset, n) for preset, ns in drawn for n in ns]
        self.rng.shuffle(jobs)
        return Pass(jobs)

    def warm_up(self) -> None:
        """One field below every stratum, so no measured field runs twice."""
        preset, lo = self.families[0][:2]
        spec = self.api.family.get_preset(preset, self.q)
        n = next(n for n in range(lo - 1, 0, -1) if usable(self.api, spec, n))
        self.job(preset, n).run()

    def job(self, preset: str, n: int) -> Job:
        argv = ["zeta", "--preset", preset, "--q", str(self.q), "--n", str(n),
                "--out", str(self.out)]

        def run() -> str:
            run_cli(self.api, argv)
            return self.out.read_text(encoding="utf-8")

        return Job(f"zeta {preset} q={self.q} n={n}", run)

    def describe(self) -> str:
        ranges = ", ".join(f"{p} n in [{lo}, {hi})" for p, lo, hi, _ in self.families)
        return f"{self.count} fields per family per pass, q={self.q}: {ranges}"

    def check(self, key: str, output: str) -> str | None:
        report = json.loads(output)
        if not report["rows"]:
            return f"{key}: no rows"
        for row in report["rows"]:
            bad = self.checker.mismatch(
                report["family"], report["q"], report["n"], row["C"], row["D"], row["value"]
            )
            if bad:
                return bad
        return None


class FamilySweep:
    """Certification traffic: `rayzeta family` for each label of F_delta over
    several (family, q), plus two `rayzeta lfunc` runs. Each job
    re-instantiates many small fields and runs the Lagrange oracle."""

    sizes = {
        "full": (
            [("rd-n2p2", 2), ("rd-n2p2", 3), ("rd-n2p2", 5),
             ("quartic-16n4", 2), ("quartic-16n4", 3)],
            [("rd-n2p2", 5, "5:4:2=1"), ("quartic-16n4", 3, "3:2:2=1")],
            None,
        ),
        "small": ([("rd-n2p2", 2)], [("rd-n2p2", 2, "trivial")], 1),
    }

    def __init__(self, api, seed: int, size: str, out_dir: Path):
        self.api = api
        groups, lfuncs, max_labels = self.sizes[size]
        rng = random.Random(f"family-sweep:{seed}")
        jobs = []
        for preset, q in groups:
            spec = api.family.get_preset(preset, q)
            # F_delta of the family's first usable field
            first = api.family.first_instances(spec, spec.n_range[0] % q, 1)[0]
            labels = api.shintani.f_delta(first.ctx)[:max_labels]
            # the oracle's cost grows with k0 and differs between labels; k0
            # cycles through 0..3 in label order and the seed sets only the
            # job order, so the cost of a pass does not depend on the seed
            for i, lab in enumerate(labels):
                k0 = i % 4
                jobs.append(self.job(
                    f"family {preset} q={q} label={lab.C},{lab.D} k={k0}:{k0 + 6}",
                    ["family", "--preset", preset, "--q", str(q),
                     "--label", f"{lab.C},{lab.D}", "--k-range", f"{k0}:{k0 + 6}"],
                ))
        for preset, q, char in lfuncs:
            jobs.append(self.job(
                f"lfunc {preset} q={q} char={char}",
                ["lfunc", "--preset", preset, "--q", str(q), "--char", char],
            ))
        rng.shuffle(jobs)
        self.pass_ = Pass(jobs)

    def warm_up(self) -> None:
        self.pass_.jobs[0].run()

    def job(self, key: str, argv: list[str]) -> Job:
        return Job(key, lambda: run_cli(self.api, argv))

    def next_pass(self) -> Pass:
        return self.pass_

    def describe(self) -> str:
        return f"{len(self.pass_.jobs)} family/lfunc jobs per pass"

    def check(self, key: str, output: str) -> str | None:
        report = json.loads(output)
        if not report["rows"]:
            return f"{key}: no rows"
        if report["command"] == "lfunc":
            return None  # hecke_L0_family checks every residue against a direct L-value
        if report["failures"]:
            return f"{key}: failures {report['failures']}"
        for row in report["rows"]:
            if not (row["oracle_ok"] and row["denominator_bounds_ok"]):
                return f"{key}: r={row['r']} oracle_ok={row['oracle_ok']} " \
                       f"denominator_bounds_ok={row['denominator_bounds_ok']}"
        return None


WORKLOADS = {"zeta-deep": ZetaDeep, "zeta-wide": ZetaWide, "family-sweep": FamilySweep}
