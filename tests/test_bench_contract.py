"""The benchmark's own checker accepts every output of its workloads.

bench/checker.py counts an invocation as failed when a column it reads
is renamed, a row goes missing or a value moves; this test runs the
cli-small and prior-merge invocations, and the one 400 000-row
scan-large invocation for seed 0, in-process so such a change fails
here rather than only in a benchmark run.  The benchmark's setup
script, which imports names from the package root, runs as it does
there.
"""

import ast
import contextlib
import io
import os
import subprocess
import sys

import pytest

from plateforces.cli import main
from plateforces.tables import ResultTable
from conftest import REPO_ROOT


@pytest.mark.parametrize(
    "workload, seed",
    [("cli-small", 0), ("cli-small", 1), ("prior-merge", 0), ("prior-merge", 1), ("scan-large", 0)],
)
def test_checker_accepts_every_invocation(bench, tmp_path, workload, seed):
    checker, inputs = bench
    invocations = inputs.build(workload, seed, str(tmp_path)).invocations
    assert invocations
    for inv in invocations:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(inv.args)
        with open(inv.out, "rb") as handle:
            output = handle.read()
        reason = checker.check(inv, code, stderr.getvalue(), output, ResultTable.from_csv)
        assert reason is None, f"{inv.kind}: {reason}"


def test_bench_setup_imports_and_loads_its_inputs():
    # SETUP as bench/run.py defines it, on the inputs it loads: a config
    # and a prior table
    tree = ast.parse((REPO_ROOT / "bench" / "run.py").read_text())
    (setup,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP"]
    )
    inputs = [REPO_ROOT / "configs" / "baseline.ini", REPO_ROOT / "tests" / "golden" / "prior_fixture.csv"]
    result = subprocess.run(
        [sys.executable, "-c", setup, *map(str, inputs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (result.returncode, result.stderr) == (0, "")
