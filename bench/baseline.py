"""Record the benchmark's baseline in bench/baseline.json: every end-to-end
metric over ten seeds per workload, those BENCHMARK.json leaves out too,
with tracing off (median, quartiles and
their spread as a share of the median), every per-layer metric from one
traced run at the default seed, and the interpreter and core count.

    python3 bench/baseline.py [--seeds 10]

Runs one benchmark process at a time, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def src_commit() -> str | None:
    proc = subprocess.run(["git", "log", "-1", "--format=%H", "--", "src"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    seeds = [DEFAULT_SEED + i for i in range(args.seeds)]
    out = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "default_seed": DEFAULT_SEED,
        "src_commit": src_commit(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    listed = {w["name"] for w in SPEC["workloads"]}
    for name in sorted(WORKLOADS, key=lambda n: n not in listed):
        runs = [bench(name, seed, 0) for seed in seeds]
        e2e = {}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            e2e[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
            print(f"{name:13s} {metric['name']:13s} median {median:.6g} {metric['unit']:7s} "
                  f"spread {(q3 - q1) / median:.4f} (bound {metric['bound']})", flush=True)
        traced = bench(name, DEFAULT_SEED, 1)
        out["workloads"][name] = {
            "in_benchmark_json": name in listed,
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
