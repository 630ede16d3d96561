"""Tests of the benchmark itself, on the smallest size of each workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(run.WORKLOADS)


def run_main(*argv: str) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def corrupt(output: str) -> str:
    """The same output with one exact value changed."""
    if not output.startswith("{"):
        return str(Fraction(output) + 1)
    report = json.loads(output)
    row = report["rows"][0]
    if "value" in row:
        row["value"] = str(Fraction(row["value"]) + 1)
    else:
        row["oracle_ok"] = False
    return json.dumps(report)


class MetricNames(unittest.TestCase):
    def test_spec_workloads_exist(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_end_to_end(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                code, result = run_main("--workload", name, "--seconds", "0",
                                        "--trace", "0", "--size", "small")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_per_layer(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                code, result = run_main("--workload", name, "--seconds", "0",
                                        "--trace", "1", "--size", "small")
                self.assertEqual(code, 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)


class Checks(unittest.TestCase):
    def measure_for(self, name: str, seconds: float = 0):
        _, _, workload, first = run.set_up(name, 1, "small")
        return workload, run.measure_for(workload, first, seconds, 1)

    def test_corrupted_output_fails_digest_and_counts(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload, m = self.measure_for(name)
                stored = {name: run.digest(m)}
                self.assertEqual(run.digest_failures(name, m, stored), {})
                self.assertEqual(run.check(workload, m), {})

                i = next(i for i, rec in enumerate(m.records)
                         if not rec.key.startswith("lfunc"))
                m.records[i].output = corrupt(m.records[i].output)
                self.assertNotEqual(run.digest_failures(name, m, stored), {})
                self.assertEqual(list(run.check(workload, m)), [i])

                outcome = run.Outcome(workload, m, {}, [], [])
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = run.report(name, run.DEFAULT_SEED, "full", outcome, stored)
                result = json.loads(buf.getvalue().strip().splitlines()[-1])
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                first_pass = sum(1 for rec in m.records if rec.pass_index == 0)
                self.assertEqual(result["failed"], first_pass)
                self.assertEqual(result["attempted"], len(m.records))

    def test_zeta_wide_never_repeats_a_field(self):
        # the small ranges run out after a few passes; the run then ends early
        workload, m = self.measure_for("zeta-wide", seconds=60)
        keys = [rec.key for rec in m.records]
        self.assertGreater(m.passes, 1)
        self.assertEqual(len(keys), len(set(keys)))
        self.assertEqual(run.check(workload, m), {})

    def test_job_error_counts(self):
        workload, m = self.measure_for("zeta-deep")
        m.records[0].output, m.records[0].error = None, "RuntimeError: boom"
        self.assertEqual(list(run.check(workload, m)), [0])


class Contract(unittest.TestCase):
    def test_fails_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
