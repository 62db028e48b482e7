"""Byte-for-byte regression against committed CSV outputs.

Each case runs one CLI command on configs/baseline.ini from the
repository root (the prior file's path is written into the output's
metadata, so it must be the same relative path every time) and
compares the bytes with tests/golden/<name>.csv.

A change that moves output on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names every changed value, and why, in CHANGES.md.  The two
100 000-point scans are pinned by SHA-256 in SCALE_HASHES, which such a
change updates by hand from the digests that the same command prints.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sys
import tempfile
from unittest import mock

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


# The 100 000-point stress scan (4 x 100 000 rows, about 26 MB) is too
# large to commit, so its bytes are pinned by SHA-256 instead; the 1 nm
# start crosses the inf rows where exp(gap/lambda) overflows and those
# where only the bound itself does, each named by its own warning.
SCALE_HASHES = {
    "scan": (["exclusion", "--config", CONFIG, "--points", "100000"],
             "bc26bd8670bf33057198a870bbe72207f1cb77ecfea0cb97720b1dea1e60c665"),
    "scan_from_1nm": (["exclusion", "--config", CONFIG, "--points", "100000",
                       "--lambda-min", "1 nm"],
                      "438fcdc8aefd959dbd65f40aad6e87baf1a0c9a8d21db0561d67c5d0d68891ad"),
}


def _stress_scan_digest(name, tmp_path, monkeypatch, cpus):
    """The SHA-256 of a stress scan's output, written with cpus usable CPUs,
    and the number of forks it made."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    argv, _ = SCALE_HASHES[name]
    out = tmp_path / f"{name}.csv"
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest(), fork.call_count


# the alpha kernel and the write each form their second half in a forked child
@pytest.mark.parametrize("name", sorted(SCALE_HASHES))
def test_stress_scan_matches_pinned_sha256(name, tmp_path, monkeypatch):
    assert _stress_scan_digest(name, tmp_path, monkeypatch, 2) == (SCALE_HASHES[name][1], 2)


# the same bytes when one process forms and writes every line
@pytest.mark.parametrize("name", sorted(SCALE_HASHES))
def test_stress_scan_in_one_process_matches_pinned_sha256(name, tmp_path, monkeypatch):
    assert _stress_scan_digest(name, tmp_path, monkeypatch, 1) == (SCALE_HASHES[name][1], 0)


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    for case in sorted(CASES):
        code = _run(case, GOLDEN_DIR / f"{case}.csv")
        print(f"{case}: exit {code}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, pinned) in sorted(SCALE_HASHES.items()):
            out = pathlib.Path(tmp) / f"{name}.csv"
            code = main(argv + ["--out", str(out)])
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            status = "pinned" if digest == pinned else "differs from the pin"
            print(f"{name}: exit {code}, sha256 {digest} ({status})", file=sys.stderr)
