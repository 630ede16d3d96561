"""Spans around the public functions of each rayzeta layer, recorded from
outside the library by patching the functions in every module that binds
them. `exactmath` is not wrapped: it is called 10^5-10^6 times per pass, so a
wrapper would cost more than it measures; its time stays inside the self time
of `partial_zeta0`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name)
WRAPPED = [
    ("quadfield", "fundamental_unit_totally_positive", "quadfield.unit"),
    ("quadfield", "unit_index_lambda", "quadfield.lambda"),
    ("quadfield", "is_squarefree", "quadfield.squarefree"),
    ("contfrac", "minus_cf", "contfrac.minus_cf"),
    ("contfrac", "cf_value", "contfrac.cf_value"),
    ("shintani", "ConeContext.__post_init__", "shintani.context"),
    ("shintani", "partial_zeta0", "shintani.partial_zeta0"),
    ("shintani", "yamamoto_xy", "shintani.yamamoto"),
    ("shintani", "orbit", "shintani.orbit"),
    ("shintani", "f_delta", "shintani.f_delta"),
    ("family", "instantiate", "family.instantiate"),
    ("family", "quasi_poly", "family.quasi_poly"),
    ("family", "coeffs_closed", "family.coeffs_closed"),
    ("family", "norm_invariance_check", "family.norm_invariance"),
    ("family", "fit_oracle", "family.fit_oracle"),
    ("family", "lagrange_fit", "family.lagrange_fit"),
    ("hecke", "hecke_L0_family", "hecke.L0_family"),
    ("hecke", "hecke_L0", "hecke.L0"),
    ("hecke", "orbit_representatives", "hecke.orbit_reps"),
    ("cli", "main", "cli.main"),
    ("cli", "render_json", "cli.render"),
    ("cli", "render_csv", "cli.render"),
]

# (metric, unit); "/pass" metrics are totals over the traced passes divided
# by their number, so counts repeat exactly from run to run.
PER_LAYER = [
    ("quadfield.unit_s", "s/pass"),
    ("quadfield.unit_calls", "calls/pass"),
    ("quadfield.lambda_s", "s/pass"),
    ("quadfield.squarefree_s", "s/pass"),
    ("quadfield.squarefree_calls", "calls/pass"),
    ("contfrac.minus_cf_s", "s/pass"),
    ("contfrac.minus_cf_calls", "calls/pass"),
    ("contfrac.minus_cf_terms", "terms/pass"),
    ("contfrac.minus_cf_per_context", "ratio"),
    ("contfrac.cf_value_s", "s/pass"),
    ("shintani.context_s", "s/pass"),
    ("shintani.context_builds", "calls/pass"),
    ("shintani.partial_zeta0_s", "s/pass"),
    ("shintani.partial_zeta0_calls", "calls/pass"),
    ("shintani.yamamoto_s", "s/pass"),
    ("shintani.series_terms", "terms/pass"),
    ("shintani.ns_per_term", "ns"),
    ("shintani.orbit_s", "s/pass"),
    ("shintani.f_delta_s", "s/pass"),
    ("family.instantiate_s", "s/pass"),
    ("family.instantiate_calls", "calls/pass"),
    ("family.instantiate_distinct_ratio", "ratio"),
    ("family.quasi_poly_s", "s/pass"),
    ("family.coeffs_closed_s", "s/pass"),
    ("family.norm_invariance_s", "s/pass"),
    ("family.fit_oracle_s", "s/pass"),
    ("family.lagrange_fit_s", "s/pass"),
    ("hecke.L0_family_s", "s/pass"),
    ("hecke.L0_s", "s/pass"),
    ("hecke.orbit_reps_s", "s/pass"),
    ("cli.self_s", "s/pass"),
    ("cli.render_s", "s/pass"),
    ("design.partial_zeta0_frac", "ratio"),
    ("design.context_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
]


class Tracer:
    """Keeps spans (name, start, end, parent, job) in memory while installed."""

    def __init__(self, api):
        self.api = api
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1  # index of the running job; -1 is work outside jobs
        self.pass_index = 0
        self.counts: Counter = Counter()
        self.instances: defaultdict = defaultdict(set)  # pass -> {(spec, n)}
        self.patched: list = []
        self.missing: set[str] = set()

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.job)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after(self, name: str):
        if name == "contfrac.minus_cf":
            return lambda args, mcf: self.counts.update({name + ".terms": mcf.m})
        if name == "shintani.partial_zeta0":
            def series(args, value):
                ctx = args[0]
                self.counts[name + ".terms"] += 2 * ctx.lam * ctx.mcf.m
            return series
        if name == "family.instantiate":
            return lambda args, inst: self.instances[self.pass_index].add((args[0], args[1]))
        return None

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "rayzeta" or k.startswith("rayzeta.")]
        for module_name, attr, name in WRAPPED:
            module = getattr(self.api, module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:  # a method, patched once on its class
                owner = getattr(module, owner_name)
                original = owner.__dict__.get(fn_name)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                setattr(owner, fn_name, self.wrap(name, original, self._after(name)))
                self.patched.append((owner, fn_name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, self._after(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.patched.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        self.patched.clear()

    def write(self, path: Path) -> None:
        """Spans as [name, start, end, parent, job] rows, times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    def layer_metrics(self, passes: int, wall: float) -> dict[str, float]:
        """Per-pass layer metrics from the recorded spans; `wall` is the
        traced time of all passes, jobs plus preparation."""
        total = Counter()
        calls = Counter()
        child = Counter()  # by parent name: time covered by direct children
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                if pname == "shintani.partial_zeta0":
                    child["shintani.partial_zeta0"] += end - start
                # library time under the CLI; rendering counts as CLI work
                elif pname == "cli.main" and not name.startswith("cli."):
                    child["cli.main"] += end - start
        pz0_self = total["shintani.partial_zeta0"] - child["shintani.partial_zeta0"]
        terms = self.counts["shintani.partial_zeta0.terms"]
        distinct = sum(len(keys) for keys in self.instances.values())
        per_pass = {
            "quadfield.unit_s": total["quadfield.unit"],
            "quadfield.unit_calls": calls["quadfield.unit"],
            "quadfield.lambda_s": total["quadfield.lambda"],
            "quadfield.squarefree_s": total["quadfield.squarefree"],
            "quadfield.squarefree_calls": calls["quadfield.squarefree"],
            "contfrac.minus_cf_s": total["contfrac.minus_cf"],
            "contfrac.minus_cf_calls": calls["contfrac.minus_cf"],
            "contfrac.minus_cf_terms": self.counts["contfrac.minus_cf.terms"],
            "contfrac.cf_value_s": total["contfrac.cf_value"],
            "shintani.context_s": total["shintani.context"],
            "shintani.context_builds": calls["shintani.context"],
            "shintani.partial_zeta0_s": pz0_self,
            "shintani.partial_zeta0_calls": calls["shintani.partial_zeta0"],
            "shintani.yamamoto_s": total["shintani.yamamoto"],
            "shintani.series_terms": terms,
            "shintani.orbit_s": total["shintani.orbit"],
            "shintani.f_delta_s": total["shintani.f_delta"],
            "family.instantiate_s": total["family.instantiate"],
            "family.instantiate_calls": calls["family.instantiate"],
            "family.quasi_poly_s": total["family.quasi_poly"],
            "family.coeffs_closed_s": total["family.coeffs_closed"],
            "family.norm_invariance_s": total["family.norm_invariance"],
            "family.fit_oracle_s": total["family.fit_oracle"],
            "family.lagrange_fit_s": total["family.lagrange_fit"],
            "hecke.L0_family_s": total["hecke.L0_family"],
            "hecke.L0_s": total["hecke.L0"],
            "hecke.orbit_reps_s": total["hecke.orbit_reps"],
            "cli.self_s": total["cli.main"] - child["cli.main"],
            "cli.render_s": total["cli.render"],
        }
        out = {k: v / passes for k, v in per_pass.items()}
        out["contfrac.minus_cf_per_context"] = ratio(
            calls["contfrac.minus_cf"], calls["shintani.context"])
        out["shintani.ns_per_term"] = ratio(
            1e9 * (pz0_self + total["shintani.yamamoto"]), terms)
        out["family.instantiate_distinct_ratio"] = ratio(
            distinct, calls["family.instantiate"])
        out["design.partial_zeta0_frac"] = ratio(total["shintani.partial_zeta0"], wall)
        out["design.context_frac"] = ratio(total["shintani.context"], wall)
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
