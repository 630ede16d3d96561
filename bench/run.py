"""rayzeta benchmark: seeded workloads, exact output checks, and end-to-end
or per-layer metrics.

    python3 bench/run.py --workload zeta-wide --seed 1 --seconds 48 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`, never from an installed copy. One process, one thread.

--trace 0 measures for --seconds and reports the end-to-end metrics:
set-up time (median of several imports plus input generation), jobs per
second, median and 90th-percentile job latency, and peak resident memory.
One untimed warm-up job runs first. A run measures whole passes and stops
at the pass boundary nearest to --seconds, but not before it has at least
100 job samples, so the 90th percentile has ten samples beyond it.

BENCHMARK.json lists the workloads whose end-to-end metrics gate a change.
It lists two, so that each run can last 48 s in the time allowed for all
runs: shorter runs did not average out the speed drift of a shared host.
`zeta-deep` is the one left out, since `zeta-wide` spends about three
quarters of its time in `partial_zeta0` too and the traced sweeps time that
kernel alone. It still runs by name, traced or not.

--trace 1 alternates untraced and traced passes for --seconds, with spans
around each layer's public functions (see spans.py), reports the per-layer metrics,
the tracing overhead and the n and q sweeps of one-label `partial_zeta0`,
and writes the spans to .bench_out/.

Every job output is checked exactly after timing stops; at the default seed
the digest of the first pass must also match bench/digests.json. The last
line of standard output is one JSON object; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import PER_LAYER, Tracer
from workloads import WORKLOADS, ZetaChecker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 1
SETUP_REPS = 15
MIN_JOBS = {"full": 100, "small": 1}
CAP_S = 120.0  # no pass starts after this, even short of MIN_JOBS

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# n sweep and q sweep of one-label partial_zeta0 on rd-n2p2 (m = n)
SWEEP_PRESET = "rd-n2p2"
SWEEP_N = (100, 1000, 10000)
SWEEP_Q = (2, 3, 5, 7, 11)
SWEEP_Q_N = 20
SWEEP_METRICS = [
    (f"sweep.{axis}.{v}{suffix}", "s")
    for axis, values in (("n", SWEEP_N), ("q", SWEEP_Q))
    for v in values
    for suffix in ("_s", ".context_s")
]


class SetupError(RuntimeError):
    """The checkout does not hold a usable rayzeta source tree."""


@dataclass
class Record:
    key: str
    seconds: float
    output: str | None
    error: str | None
    pass_index: int


@dataclass
class Measurement:
    records: list[Record] = field(default_factory=list)
    wall: float = 0.0  # job time plus timed pass preparation
    passes: int = 0  # complete passes


@dataclass
class Outcome:
    workload: object
    m: Measurement
    metrics: dict[str, float]
    names: list[tuple[str, str]]  # (metric, unit) in report order
    notes: list[str]
    extra_attempted: int = 0  # checked results that are not jobs (sweep points)
    extra_failures: list[str] = field(default_factory=list)


def import_rayzeta() -> SimpleNamespace:
    """Fresh import of every rayzeta module from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "rayzeta" or k.startswith("rayzeta.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("rayzeta")
    except ImportError as e:
        raise SetupError(f"cannot import rayzeta from {SRC}: {e}") from None
    if Path(pkg.__file__).resolve().parent != (SRC / "rayzeta").resolve():
        raise SetupError(f"rayzeta was imported from {pkg.__file__}, not from {SRC}")
    names = ("quadfield", "contfrac", "shintani", "family", "hecke", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"rayzeta.{n}") for n in names})


def set_up(name: str, seed: int, size: str):
    """Import the library and generate the seeded inputs up to the first job."""
    start = perf_counter()
    api = import_rayzeta()
    workload = WORKLOADS[name](api, seed, size, OUT)
    first = workload.next_pass()
    return perf_counter() - start, api, workload, first


def run_pass(p, index: int, m: Measurement, tracer=None) -> None:
    """Run pass `p` into `m`; its records carry pass index `index`."""
    if p.prepare is not None:
        start = perf_counter()
        p.prepare()
        m.wall += perf_counter() - start
    for job in p.jobs:
        if tracer is not None:
            tracer.job = len(m.records)
        start = perf_counter()
        try:
            output, error = job.run(), None
        except Exception as e:  # a failed job is counted, not fatal
            output, error = None, f"{type(e).__name__}: {e}"
        elapsed = perf_counter() - start
        m.wall += elapsed
        m.records.append(Record(job.key, elapsed, output, error, index))
    m.passes += 1


def measure_for(workload, first, seconds: float, min_jobs: int) -> Measurement:
    """Whole passes until `min_jobs` jobs ran and the pass boundary nearest
    to `seconds` is reached, judged by the length of the last pass. Every job
    of a pass is measured equally often, so the percentiles do not depend on
    where a run happens to stop."""
    m = Measurement()
    start = perf_counter()
    p = first
    while True:
        pass_start = perf_counter()
        run_pass(p, m.passes, m)
        now = perf_counter()
        elapsed = now - start
        if elapsed >= CAP_S or (len(m.records) >= min_jobs
                                and elapsed + (now - pass_start) / 2 >= seconds):
            return m
        p = workload.next_pass()
        if p is None:
            return m


def check(workload, m: Measurement) -> dict[int, str]:
    """Failure message per failed record index. A repeated input must give
    the output it gave before; a new one goes through the workload's check."""
    failures = {}
    first: dict[str, str] = {}
    verdict: dict[str, str | None] = {}
    for i, rec in enumerate(m.records):
        if rec.error is not None:
            failures[i] = f"{rec.key}: {rec.error}"
            continue
        if rec.key not in first:
            first[rec.key] = rec.output
            try:
                verdict[rec.key] = workload.check(rec.key, rec.output)
            except (ValueError, KeyError, TypeError) as e:
                verdict[rec.key] = f"{rec.key}: unreadable output ({type(e).__name__}: {e})"
        elif rec.output != first[rec.key]:
            failures[i] = f"{rec.key}: output differs from an earlier run of the same input"
            continue
        if verdict[rec.key]:
            failures[i] = verdict[rec.key]
    return failures


def digest(m: Measurement) -> str:
    """sha256 over the keys and exact outputs of the first pass, in job order."""
    h = hashlib.sha256()
    for rec in m.records:
        if rec.pass_index == 0:
            h.update(f"{rec.key}\n{rec.output}\n\0".encode())
    return h.hexdigest()


def digest_failures(name: str, m: Measurement, stored: dict) -> dict[int, str]:
    """Every first-pass job fails when the first pass's digest is not the
    stored one: the digest cannot tell which output changed."""
    got = digest(m)
    if stored.get(name) == got:
        return {}
    msg = f"{name}: first-pass digest {got} differs from stored {stored.get(name)}"
    return {i: msg for i, rec in enumerate(m.records) if rec.pass_index == 0}


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    rank = -(-9 * len(values) // 10)
    return sorted(values)[rank - 1], len(values) - rank


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_median(fn, reps: int = 5, budget_s: float = 0.5) -> tuple[float, object]:
    """Median wall time of `fn` over up to `reps` calls within `budget_s`."""
    times, result, spent = [], None, 0.0
    while len(times) < reps and (not times or spent < budget_s):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
        spent += times[-1]
    return statistics.median(times), result


def sweeps(api) -> tuple[dict[str, float], list[str], list[str]]:
    """Context build and one-label partial_zeta0 time at each sweep point,
    checked against the closed form. Returns metrics, notes and failures."""
    metrics, notes, failures = {}, [], []
    checker = ZetaChecker(api)
    points = [("n", n, 2, n) for n in SWEEP_N] + [("q", q, q, SWEEP_Q_N) for q in SWEEP_Q]
    for axis, tag, q, n in points:
        spec = api.family.get_preset(SWEEP_PRESET, q)
        ctx_s, inst = timed_median(lambda: api.family.instantiate(spec, n))
        label = api.shintani.f_delta(inst.ctx)[0]
        zeta_s, value = timed_median(lambda: api.shintani.partial_zeta0(inst.ctx, label))
        metrics[f"sweep.{axis}.{tag}_s"] = zeta_s
        metrics[f"sweep.{axis}.{tag}.context_s"] = ctx_s
        notes.append(f"sweep.{axis}.{tag}: {SWEEP_PRESET} q={q} n={n} label=({label.C},{label.D}) "
                     f"lambda={inst.ctx.lam} m={inst.ctx.mcf.m}")
        bad = checker.mismatch(SWEEP_PRESET, q, n, label.C, label.D,
                               f"{value.numerator}/{value.denominator}")
        if bad:
            failures.append(bad)
    return metrics, notes, failures


def timed_run(name: str, seed: int, seconds: float, size: str):
    times = []
    for _ in range(SETUP_REPS):
        elapsed, api, workload, first = set_up(name, seed, size)
        times.append(elapsed)
    setup_s = statistics.median(times)
    workload.warm_up()
    m = measure_for(workload, first, seconds, MIN_JOBS[size])
    rss = peak_rss_mib()
    lat = [rec.seconds for rec in m.records]
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(lat) / m.wall,
        "job_p50_s": statistics.median(lat),
        "job_p90_s": p90(lat)[0],
        "peak_rss_mib": rss,
    }
    beyond = p90(lat)[1]
    notes = [f"{len(lat)} jobs in {m.passes} complete passes, {m.wall:.3f} s of job time",
             f"job_p90_s is nearest-rank over {len(lat)} samples, {beyond} beyond it"]
    return Outcome(workload, m, metrics, END_TO_END, notes)


def traced_run(name: str, seed: int, seconds: float, size: str):
    _, api, workload, first = set_up(name, seed, size)
    workload.warm_up()
    untraced, traced = Measurement(), Measurement()
    tracer = Tracer(api)
    start = perf_counter()
    p = first
    # untraced and traced passes alternate, so that drift in machine speed
    # falls on both sides of trace_overhead_frac
    while True:
        run_pass(p, 2 * untraced.passes, untraced)
        p = workload.next_pass()  # drawn before tracing starts
        if p is None:
            break
        tracer.pass_index = traced.passes
        tracer.install()
        try:
            run_pass(p, 2 * traced.passes + 1, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        p = workload.next_pass()
        if p is None or perf_counter() - start >= seconds:
            break
    tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    metrics = tracer.layer_metrics(traced.passes, traced.wall)
    metrics["trace_overhead_frac"] = traced.wall / untraced.wall - 1.0
    sweep_metrics, notes, failures = sweeps(api)
    metrics.update(sweep_metrics)
    both = Measurement(untraced.records + traced.records, untraced.wall + traced.wall,
                       untraced.passes + traced.passes)
    notes = [f"{untraced.passes} untraced and {traced.passes} traced passes, alternating, "
             f"{len(tracer.spans)} spans"] + notes
    if tracer.missing:
        notes.append(f"not found, reported as 0: {', '.join(sorted(tracer.missing))}")
    return Outcome(workload, both, metrics, PER_LAYER + SWEEP_METRICS, notes,
                   len(SWEEP_METRICS) // 2, failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(MIN_JOBS), default="full",
                        help="'small' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "rayzeta" / "__init__.py").is_file():
        print(f"error: no rayzeta sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = traced_run if args.trace else timed_run
    try:
        outcome = run(args.workload, args.seed, args.seconds, args.size)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return report(args.workload, args.seed, args.size, outcome, stored)


def report(name: str, seed: int, size: str, out: Outcome, stored: dict[str, str]) -> int:
    """Check every output, print the metrics and the result line, and
    return the exit code: 0 only when nothing failed. `stored` maps each
    workload to its first-pass digest at the default seed and full size."""
    m = out.m
    failed = check(out.workload, m)
    compared = seed == DEFAULT_SEED and size == "full"
    if compared:
        failed = {**digest_failures(name, m, stored), **failed}
    messages = list(failed.values()) + out.extra_failures
    attempted = len(m.records) + out.extra_attempted

    print(f"workload {name}, seed {seed}: {out.workload.describe()}")
    for note in out.notes:
        print(f"  {note}")
    for metric, unit in out.names:
        print(f"{metric:36s} {out.metrics[metric]:.6g} {unit}")
    print(f"{'failed_frac':36s} {len(messages) / attempted:.6g} ({len(messages)} of {attempted})")
    print(f"{'digest':36s} {digest(m)} "
          f"({'checked against' if compared else 'not compared with'} bench/digests.json)")
    for msg in sorted(set(messages))[:10]:
        print(f"FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": len(messages),
        "metrics": {n: {"value": out.metrics[n], "unit": u} for n, u in out.names},
    }
    print(json.dumps(result))
    return 0 if not messages else 1


if __name__ == "__main__":
    sys.exit(main())
