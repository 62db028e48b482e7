"""Byte-for-byte regression against committed CSV outputs.

Each case runs one CLI command on configs/baseline.ini from the
repository root (the prior file's path is written into the output's
metadata, so it must be the same relative path every time) and
compares the bytes with tests/golden/<name>.csv.

A change that moves output on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names every changed value, and why, in CHANGES.md.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

from plateforces.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path("tests") / "golden"
CONFIG = "configs/baseline.ini"

CASES = {
    "forces": ["forces", "--config", CONFIG, "--gap", "1 um", "--gap", "3 um",
               "--gap", "5 um", "--gap", "12.5 um", "--gap", "50 um"],
    "budget": ["budget", "--config", CONFIG],
    "sensitivity": ["sensitivity", "--config", CONFIG],
    "exclusion": ["exclusion", "--config", CONFIG],
    "exclusion_prior": ["exclusion", "--config", CONFIG,
                        "--prior", str(GOLDEN_DIR / "prior_fixture.csv")],
    # inf alpha rows, nan improvement_1 rows and the overflow warning line
    "exclusion_edge": ["exclusion", "--config", CONFIG, "--lambda-min", "1 nm",
                       "--points", "60",
                       "--prior", str(GOLDEN_DIR / "prior_fixture.csv")],
    # a repeated thickness merges two blocks into one 80-row run of
    # equal leads; the smaller thickness after it starts a 40-row run
    "exclusion_runs": ["exclusion", "--config", CONFIG, "--points", "40",
                       "--thickness", "1 um", "--thickness", "1 um",
                       "--thickness", "0.3 um"],
}


def _run(name: str, out: pathlib.Path) -> int:
    return main(CASES[name] + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / f"{name}.csv"
    assert _run(name, out) == 0
    expected = (REPO_ROOT / GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert out.read_bytes() == expected


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    for case in sorted(CASES):
        code = _run(case, GOLDEN_DIR / f"{case}.csv")
        print(f"{case}: exit {code}", file=sys.stderr)
