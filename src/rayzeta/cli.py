"""Batch front end: subcommands for single-field zeta values, family
analysis, L-value assembly, and the verification suite (`rayzeta.verify`).

Reports are deterministic: JSON output has sorted keys and every exact
rational is serialized as a "num/den" string; floating-point renderings are
explicitly tagged as approximate.  Exit codes: 0 ok, 2 config error or
resource limit, 3 hypothesis violation, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import stat
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import gcd

from .contfrac import NotReducedError
from .family import (
    FamilySpec,
    HypothesisError,
    NonSquarefreeSkip,
    PRESETS,
    ResidueContext,
    VerificationError,
    delta_trace_norm,
    denom_bounds_ok,
    fit_oracle,
    instantiate,
    poly_eval,
    quasi_poly,
)
from .hecke import CharacterError, DirichletChar, hecke_L0_family
from .shintani import (
    InternalCheckError,
    LabelError,
    LimitError,
    RayLabel,
    f_delta,
    norm_form,
    partial_zeta0,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    """Malformed flags, config document, or inline family definition."""


# ---------------------------------------------------------------------------
# parsing helpers


def parse_poly(text: str) -> tuple[int, ...]:
    """"2,0,1" -> (2, 0, 1), ascending integer coefficients."""
    try:
        coeffs = tuple(int(t) for t in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad polynomial {text!r}: {e}") from None
    if not coeffs:
        raise ConfigError("empty polynomial")
    return coeffs


def parse_a_polys(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated list of polynomials: "0,2;0,1"."""
    return tuple(parse_poly(part) for part in text.split(";"))


def parse_label(text: str, q: int) -> RayLabel:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"label must be C,D — got {text!r}")
    try:
        c, d = int(parts[0]), int(parts[1])
        return RayLabel(c, d, q)
    except (ValueError, LabelError) as e:
        raise ConfigError(f"bad label {text!r}: {e}") from None


def parse_k_range(text: str) -> range:
    """"0:6" -> range(0, 7)."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"k-range must be lo:hi — got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"bad k-range {text!r}") from None
    if lo < 0:
        raise ConfigError(f"k-range lower bound {lo} is negative: n = qk + r is never below 0")
    if hi < lo:
        raise ConfigError("k-range upper bound below lower bound")
    return range(lo, hi + 1)


def parse_char(text: str, q: int) -> DirichletChar:
    """"5:4:2=1" -> character mod 5 of order 4 with chi(2) = zeta_4^1.

    "trivial" (or omitting --char) gives the trivial character mod q.
    """
    if text == "trivial":
        return DirichletChar.trivial(q)
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"character must be modulus:order:g=e[,g=e...] — got {text!r}")
    try:
        modulus, order = int(parts[0]), int(parts[1])
        pairs = [pair.split("=") for pair in parts[2].split(",")]
        gens = {int(g): int(e) for g, e in pairs}
    except ValueError:
        raise ConfigError(f"bad character spec {text!r}") from None
    if len(gens) != len(pairs):
        raise ConfigError(f"a generator is given more than once in {text!r}")
    if modulus != q:
        raise ConfigError(f"character modulus {modulus} differs from q = {q}")
    try:
        return DirichletChar.from_generators(modulus, order, gens)
    except CharacterError as e:
        raise ConfigError(str(e)) from None


# Report formats; the first is the default.
FORMATS = ("json", "csv")

ALL = ("zeta", "family", "lfunc", "verify")
FAMILY = ("zeta", "family", "lfunc")

# Every option, once: flag, type (int, str or the tuple of its choices), help,
# and the subcommands that read it.  A subcommand takes exactly these flags,
# and every one but --config is also its config key (the flag's argparse
# dest), of the JSON type int or str.  No option has an argparse default, so
# a config document's value applies where the flag is absent.
OPTIONS = (
    ("--config", str, "JSON config document; flags override it", ALL),
    ("--preset", str, "named family (rd-n2p2, quartic-16n4)", FAMILY),
    ("--f-poly", str, "radicand polynomial, ascending coefficients: '2,0,1'", FAMILY),
    ("--a-polys", str, "CF term polynomials, ';'-separated: '0,2;0,1'", FAMILY),
    ("--q", int, "ray modulus (default 2; verify: each criterion's own)", ALL),
    ("--label", str, "restrict to one label 'C,D'", ("zeta", "family")),
    ("--out", str, "write the report to this file", ALL),
    ("--format", FORMATS, "report format (default json)", ALL),
    ("--n", int, "family parameter n", ("zeta",)),
    ("--k-range", str, "oracle sample range 'lo:hi'", ("family",)),
    ("--char", str, "character 'modulus:order:g=e[,g=e...]' or 'trivial'", ("lfunc",)),
    ("--criterion", str, "comma-separated subset, e.g. 'A5'", ("verify",)),
    ("--n-max", int, "extend structure checks up to this n", ("verify",)),
)


def load_config(path: str, command: str) -> dict:
    """Read the JSON config document; a key that `command` does not read
    (its options in `OPTIONS`, but --config) is rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    keys = {flag[2:].replace("-", "_"): kind for flag, kind, _, commands in OPTIONS
            if command in commands and flag != "--config"}
    unknown = set(doc) - keys.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        kind = keys[key]
        json_type = int if kind is int else str
        if type(value) is not json_type:  # exact type: rejects bool for int
            raise ConfigError(
                f"config key {key!r} must be {json_type.__name__}, "
                f"got {type(value).__name__}"
            )
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"config key {key!r} must be one of {list(kind)}")
    return doc


def merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the --config document (flags win)."""
    if args.config is None:
        return args
    doc = load_config(args.config, args.command)
    for key, value in doc.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def family_from_args(args) -> FamilySpec:
    q = args.q if args.q is not None else 2
    if q < 2:
        raise ConfigError("q must be >= 2")
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}"
            )
        return PRESETS[args.preset].with_q(q)
    if args.f_poly is None or args.a_polys is None:
        raise ConfigError("need --preset, or both --f-poly and --a-polys")
    f = parse_poly(args.f_poly)
    a = parse_a_polys(args.a_polys)
    try:
        return FamilySpec("inline", f, a, q, (0, 10**6))
    except ValueError as e:
        raise ConfigError(str(e)) from None


# ---------------------------------------------------------------------------
# report rendering


class TermRuns:
    """A minus CF's terms in a report, held as its runs (b, k), so that
    `_json_text` writes them run by run instead of term by term."""

    __slots__ = ("runs",)

    def __init__(self, runs):
        self.runs = runs


def fraction_str(obj) -> str | list:
    """A Fraction as "num/den" and `TermRuns` as its list of terms;
    TypeError for any other type, so that it can serve as the `default`
    hook of `json.dumps` (as in `render_csv`)."""
    if isinstance(obj, TermRuns):
        return [b for b, k in obj.runs for _ in range(k)]
    if not isinstance(obj, Fraction):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return f"{obj.numerator}/{obj.denominator}"


def _json_text(obj, indent: str) -> str:
    """The text of `obj` in `json.dumps(..., sort_keys=True, indent=2,
    default=fraction_str)`, for a value whose first line is indented by
    `indent`.  Dict keys must be str, as every report key is."""
    if type(obj) is int:
        return repr(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # json's own escaping
    if isinstance(obj, Fraction):
        return encode_basestring_ascii(fraction_str(obj))
    if isinstance(obj, TermRuns):  # never empty: a period has a run
        body = "".join(f"{indent}  {b},\n" * k for b, k in obj.runs)
        return "[\n" + body[:-2] + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report key {key!r} is not a str")
            value = _json_text(obj[key], inner)
            items.append(f"{inner}{encode_basestring_ascii(key)}: {value}")
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        body = ",\n".join([inner + _json_text(v, inner) for v in obj])
        return "[\n" + body + "\n" + indent + "]"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    # None, floats (NaN and infinities included), int subclasses; TypeError otherwise
    return json.dumps(obj)


def render_json(report: dict) -> str:
    """The report as `json.dumps(report, sort_keys=True, indent=2,
    default=fraction_str) + "\n"`, byte for byte, without json's pure-Python
    indenting encoder."""
    return _json_text(report, "") + "\n"


def render_csv(report: dict) -> str:
    """Flatten report["rows"] to CSV; nested values become compact JSON."""
    import csv  # only CSV reports load it

    rows = report.get("rows", [])
    buf = io.StringIO()
    if not rows:
        return ""
    fieldnames = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        flat = {}
        for k in fieldnames:
            v = row.get(k, "")
            if isinstance(v, (dict, list, tuple)):
                v = json.dumps(v, sort_keys=True, default=fraction_str)
            elif isinstance(v, Fraction):
                v = fraction_str(v)
            flat[k] = v
        writer.writerow(flat)
    return buf.getvalue()


def emit(report: dict, args) -> None:
    text = render_csv(report) if args.format == "csv" else render_json(report)
    if args.out is not None:
        # Overwritten in place, then cut to the report's length: on ext4 a
        # file truncated to zero and refilled is flushed to disk when closed.
        # A non-regular target (/dev/null, a pipe) cannot be truncated.
        try:
            with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
        except OSError as e:
            raise ConfigError(f"cannot write {args.out}: {e}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_zeta(args) -> int:
    spec = family_from_args(args)
    if args.n is None:
        raise ConfigError("zeta requires --n")
    want = parse_label(args.label, spec.q) if args.label is not None else None
    report = {
        "command": "zeta",
        "family": spec.name,
        "q": spec.q,
        "n": args.n,
        "skipped": [],
        "rows": [],
    }
    try:
        inst = instantiate(spec, args.n)
    except NonSquarefreeSkip as e:
        print(f"warning: {e}; skipping", file=sys.stderr)
        report["skipped"].append({"n": e.n, "f": e.fn})
        emit(report, args)
        return EXIT_OK
    ctx = inst.ctx
    labels = f_delta(ctx)
    if want is not None:
        labels = [lab for lab in labels if lab == want]
        if not labels:
            raise ConfigError(f"label {args.label} is not in F_delta")
    report["Delta"] = ctx.basis.delta.field.Delta
    report["minus_cf"] = TermRuns(ctx.mcf.runs)
    report["lambda"] = ctx.lam
    report["m"] = ctx.mcf.m
    for lab in labels:
        report["rows"].append({
            "C": lab.C,
            "D": lab.D,
            "value": partial_zeta0(ctx, lab),
            "norm_mod_q": ctx.norm_of(lab),
            "orbit": [[o.C, o.D] for o in ctx.orbit_of(lab)],
            "lambda": ctx.lam,
            "m": ctx.mcf.m,
        })
    emit(report, args)
    return EXIT_OK


def family_report(spec: FamilySpec, ks: range, want: RayLabel | None, polys) -> tuple[dict, int]:
    """The `family` report and its exit code: closed form and oracle per
    (residue, label), or only for `want`.  A refusal, met by the residue's
    context or by its oracle, is the same for every label of the residue (a
    refused n, too few usable n), so it is one failure row for the residue.
    The exit code is the gravest seen, 4 (an oracle mismatch) over 3 (a
    refusal).  `polys` is `delta_trace_norm(spec)`."""
    report = {
        "command": "family",
        "family": spec.name,
        "q": spec.q,
        "degree": spec.d,
        "k_range": [ks.start, ks.stop - 1],
        "rows": [],
        "failures": [],
    }
    exit_code = EXIT_OK
    for r in range(spec.q):
        try:
            rctx = ResidueContext(spec, r, polys)
            for lab in f_delta(rctx):
                if want is not None and lab != want:
                    continue
                qp = quasi_poly(spec, lab, r, rctx)
                fit = fit_oracle(rctx, lab, ks)
                k_coeffs, n_coeffs = list(qp.coeffs[r]), list(qp.n_coeffs(r))
                oracle_ok = bool(fit.consistent and fit.coeffs == qp.coeffs[r])
                report["rows"].append({
                    "r": r,
                    "C": lab.C,
                    "D": lab.D,
                    "k_coeffs": k_coeffs,
                    "n_coeffs": n_coeffs,
                    "denominator_bounds_ok": denom_bounds_ok(spec.q, k_coeffs, n_coeffs),
                    "oracle_ok": oracle_ok,
                    "used_ks": list(fit.used_ks),
                    "skipped_ks": list(fit.skipped_ks),
                })
                if not oracle_ok:
                    exit_code = EXIT_INTERNAL  # a mismatch outranks any refusal
        except HypothesisError as e:
            report["failures"].append({"r": r, "error": str(e)})
            exit_code = max(exit_code, EXIT_HYPOTHESIS)
    return report, exit_code


def cmd_family(args) -> int:
    """`family_report` for the flags, after refusing a --label that lies in
    F_delta at no residue."""
    spec = family_from_args(args)
    ks = parse_k_range(args.k_range) if args.k_range is not None else range(0, 7)
    want = parse_label(args.label, spec.q) if args.label is not None else None
    polys = delta_trace_norm(spec)  # None: each residue reports the family undecided
    if want is not None and polys and all(
            gcd(norm_form(want.C, want.D, *(poly_eval(p, r) for p in polys)), spec.q) > 1
            for r in range(spec.q)):
        raise ConfigError(f"label {args.label} is not in F_delta at any residue")
    report, exit_code = family_report(spec, ks, want, polys)
    emit(report, args)
    return exit_code


def cmd_lfunc(args) -> int:
    spec = family_from_args(args)
    chi = DirichletChar.trivial(spec.q) if args.char is None else parse_char(args.char, spec.q)
    sums = hecke_L0_family(spec)
    report = {
        "command": "lfunc",
        "family": spec.name,
        "q": spec.q,
        "degree": spec.d,
        "character": {
            "modulus": chi.modulus,
            "order": chi.order,
            "exponents": {str(a): e for a, e in chi.exps},
        },
        "rows": [],
    }
    for r in range(spec.q):
        for i in range(spec.d + 1):
            coeff = {a: c for a, qp in sums.items() if (c := qp.coeff(r, i))}
            approx = chi.approx(coeff)
            report["rows"].append({
                "r": r,
                "power": i,
                "coeff": {f"chi({a})": c for a, c in coeff.items()},
                "approx_re": repr(approx.real),
                "approx_im": repr(approx.imag),
                "approx_precision": "float64 (approximate)",
            })
    emit(report, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    # Imported here so that the other subcommands never load the suite.
    from .verify import cmd_verify

    return cmd_verify(args)


# ---------------------------------------------------------------------------
# driver


COMMANDS = {  # name: (function, help)
    "zeta": (cmd_zeta, "partial zeta values for a single field"),
    "family": (cmd_family, "quasi-polynomial analysis of a family"),
    "lfunc": (cmd_lfunc, "Hecke L-values at 0 from a character"),
    "verify": (cmd_verify, "run the verification suite"),
}


class SubcommandParser(argparse.ArgumentParser):
    """Refuses what its subcommand does not take, so the error names it."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@cache  # built on the first call, then reused: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayzeta",
        description="Exact partial zeta values at s=0 for real quadratic fields.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=SubcommandParser)
    for command, (_, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for flag, kind, help_text, commands in OPTIONS:
            if command in commands:
                p.add_argument(flag, type=int if kind is int else str, help=help_text,
                               choices=kind if isinstance(kind, tuple) else None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code else EXIT_OK
    try:
        args = merge_config(args)
        return COMMANDS[args.command][0](args)
    except (ConfigError, CharacterError, LabelError, NotReducedError, LimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (HypothesisError, NonSquarefreeSkip) as e:
        print(f"hypothesis violation: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (VerificationError, InternalCheckError, RuntimeError) as e:
        print(f"internal verification failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
