"""Acceptance gate: the nine exact end-to-end criteria behind `rayzeta verify`.

Each test runs one criterion and prints a single pass/fail line; every
comparison inside the criteria is exact (tolerance 0).
"""

import sys

import pytest

from rayzeta.verify import CRITERIA, run_criterion

# How many comparisons each criterion makes at its defaults; a check that
# silently stops visiting part of its grid shows here.
CHECKED = {
    "A1": 15, "A2": 11, "A3": 25114, "A4": 624, "A5": 257,
    "A6": 256, "A7": 100, "A8": 57, "A9": 349,
}


@pytest.mark.parametrize("name", sorted(CRITERIA))
def test_criterion(name):
    result = run_criterion(name)
    status = "PASS" if result["passed"] else "FAIL"
    line = (
        f"{name} {result['description']}: {status} "
        f"(checked {result.get('checked', 0)}, {result['seconds']}s)"
    )
    print(line)
    print(line, file=sys.stderr)
    assert result["passed"], result.get("detail", name)
    assert result["checked"] == CHECKED[name]
