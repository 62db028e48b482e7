"""Output checker for the benchmark, with oracles written from the
formulas in the stdlib only.

The checker accepts an invocation when it exited 0, printed no
traceback, wrote a CSV that `ResultTable.from_csv` parses, the expected
columns are present by name with the right number of rows, and the
values it recomputes agree to REL_TOL.  Extra columns and metadata are
tolerated, so later additions to a table do not fail the benchmark.

Values are recomputed only where the physics is meant to stay fixed:
the zero-T, classical thermal, Newton and electrostatic forces, the
Yukawa signal and its slab inversion (`alpha_1`), the prior
interpolation (`improvement_1`), and the balance figures.  The tilted
plate force and the thermal trust flag are checked for presence and
finiteness only, because the planned tilt-model and exact-thermal work
may change them on purpose.

Run this file to execute the checker self-test:

    python3 bench/checker.py
"""

from __future__ import annotations

import bisect
import contextlib
import io
import math
import os
import sys

import inputs
from inputs import SCAN_LAMBDA_MAX, SCAN_LAMBDA_MIN, SCAN_THICKNESSES, WIRES, Invocation

# Agreement required between program output and oracle.  A perturbation
# of 1e-6 relative, as in the self-test, is far outside it.
REL_TOL = 1e-9
# Beyond this many rows only a strided sample of rows is recomputed;
# structure (thickness blocks, lambda grid, finiteness) is checked on all.
FULL_CHECK_ROWS = 20_000
SAMPLE_ROWS = 4000

# Constants as the program states them (its CODATA-2018 set).  G is
# 6.674e-11 there, not 6.67430e-11; the checker tests the formulas at
# the program's constants, so that difference is not flagged here.
HBAR = 1.054571817e-34
C = 2.99792458e8
K_B = 1.380649e-23
G = 6.674e-11
EPSILON0 = 8.8541878128e-12
ZETA3 = 1.2020569032

COLUMNS = {
    "forces": ("gap_m", "casimir_zero_t_N", "thermal_N", "total_N", "newton_N", "electrostatic_N"),
    "budget": (
        "gap_m", "casimir_zero_t_N", "thermal_N", "total_casimir_N", "newton_N", "yukawa_N",
        "electrostatic_N", "resolution_N", "ratio_electrostatic_casimir_zero_t_1",
        "ratio_newton_casimir_zero_t_1", "ratio_total_casimir_resolution_1", "ratio_yukawa_resolution_1",
    ),
    "sensitivity": (
        "kappa_wire_Nm_per_rad", "f_min_wire_N", "kappa_balance_Nm_per_rad", "f_min_balance_N",
        "gap_variation_m", "casimir_flat_N", "casimir_tilted_N", "tilted_flat_ratio_1", "resolution_met_1",
    ),
    "exclusion": ("thickness_m", "lambda_m", "alpha_1"),
}


class CheckFailed(Exception):
    pass


def _close(name: str, got: float, want: float) -> None:
    if want == 0.0 or not math.isfinite(want):
        ok = got == want
    else:
        ok = abs(got - want) <= REL_TOL * abs(want)
    if not ok:
        raise CheckFailed(f"{name}: got {got!r}, oracle {want!r}")


def casimir_zero_t(area: float, d: float) -> float:
    return math.pi**2 * HBAR * C * area / (240.0 * d**4)


def thermal_classical(area: float, d: float, temperature: float) -> float:
    return ZETA3 * K_B * temperature * area / (4.0 * math.pi * d**3)


def newton_stacks(cfg) -> float:
    return sum(
        2.0 * math.pi * G * a.density * b.density * cfg.area * a.thickness * b.thickness
        for a in cfg.stack_a
        for b in cfg.stack_b
    )


def electrostatic(cfg, d: float) -> float:
    return EPSILON0 * cfg.area * cfg.stray_voltage**2 / (2.0 * d**2)


def _bracket(thickness: float, lam: float) -> float:
    return -math.expm1(-thickness / lam)


def yukawa_facing(cfg, alpha: float, lam: float, thickness_a: float, thickness_b: float) -> float:
    """Slab-slab Yukawa force of the two facing layers at the config gap."""
    a, b = cfg.stack_a[0], cfg.stack_b[0]
    return (
        2.0 * math.pi * G * a.density * b.density * cfg.area * alpha * lam**2
        * math.exp(-cfg.gap / lam) * _bracket(thickness_a, lam) * _bracket(thickness_b, lam)
    )


def alpha_bound(cfg, lam: float, thickness: float) -> float:
    """Coupling whose facing-layer Yukawa force equals the resolution."""
    return cfg.force_resolution / yukawa_facing(cfg, 1.0, lam, thickness, thickness)


def prior_at(lambdas: list[float], alphas: list[float], lam: float) -> float:
    """Log-log interpolation of the prior; nan outside its domain."""
    if not lambdas[0] <= lam <= lambdas[-1]:
        return math.nan
    i = min(bisect.bisect_right(lambdas, lam), len(lambdas) - 1)
    x0, x1 = math.log(lambdas[i - 1]), math.log(lambdas[i])
    y0, y1 = math.log(alphas[i - 1]), math.log(alphas[i])
    return math.exp(y0 + (math.log(lam) - x0) * (y1 - y0) / (x1 - x0))


def _check_forces(inv: Invocation, col, rows) -> None:
    cfg = inv.config
    newton = newton_stacks(cfg)
    for k, gap in enumerate(inv.gaps):
        row = rows[k]
        d = row[col["gap_m"]]
        _close(f"row {k} gap_m", d, gap)
        zero_t = casimir_zero_t(cfg.area, d)
        thermal = thermal_classical(cfg.area, d, cfg.temperature)
        _close(f"row {k} casimir_zero_t_N", row[col["casimir_zero_t_N"]], zero_t)
        _close(f"row {k} thermal_N", row[col["thermal_N"]], thermal)
        _close(f"row {k} total_N", row[col["total_N"]], zero_t + cfg.eta * thermal)
        _close(f"row {k} newton_N", row[col["newton_N"]], newton)
        _close(f"row {k} electrostatic_N", row[col["electrostatic_N"]], electrostatic(cfg, d))


def _check_budget(inv: Invocation, col, rows) -> None:
    cfg = inv.config
    row = rows[0]
    d = cfg.gap
    zero_t = casimir_zero_t(cfg.area, d)
    thermal = thermal_classical(cfg.area, d, cfg.temperature)
    total = zero_t + cfg.eta * thermal
    newton = newton_stacks(cfg)
    a, b = cfg.stack_a[0], cfg.stack_b[0]
    yukawa = abs(yukawa_facing(cfg, cfg.yukawa_alpha, cfg.yukawa_lambda, a.thickness, b.thickness))
    static = electrostatic(cfg, d)
    want = {
        "gap_m": d,
        "casimir_zero_t_N": zero_t,
        "thermal_N": thermal,
        "total_casimir_N": total,
        "newton_N": newton,
        "yukawa_N": yukawa,
        "electrostatic_N": static,
        "resolution_N": cfg.force_resolution,
        "ratio_electrostatic_casimir_zero_t_1": static / zero_t,
        "ratio_newton_casimir_zero_t_1": newton / zero_t,
        "ratio_total_casimir_resolution_1": total / cfg.force_resolution,
        "ratio_yukawa_resolution_1": yukawa / cfg.force_resolution,
    }
    for name, value in want.items():
        _close(name, row[col[name]], value)


def _check_sensitivity(inv: Invocation, col, rows) -> None:
    cfg = inv.config
    row = rows[0]
    kappa_wire = math.pi * WIRES[cfg.wire_material] * (cfg.wire_diameter / 2.0) ** 4 / (2.0 * cfg.wire_length)
    f_min_balance = cfg.torque_sensitivity * cfg.min_displacement / cfg.arm_length**2
    want = {
        "kappa_wire_Nm_per_rad": kappa_wire,
        "f_min_wire_N": kappa_wire * cfg.min_displacement / cfg.arm_length**2,
        "kappa_balance_Nm_per_rad": cfg.torque_sensitivity,
        "f_min_balance_N": f_min_balance,
        "gap_variation_m": cfg.tilt_angle * cfg.tilt_length,
        "casimir_flat_N": casimir_zero_t(cfg.area, cfg.gap),
        "resolution_met_1": 1.0 if f_min_balance <= cfg.force_resolution else 0.0,
    }
    for name, value in want.items():
        _close(name, row[col[name]], value)
    for name in ("casimir_tilted_N", "tilted_flat_ratio_1"):
        value = row[col[name]]
        if not (math.isfinite(value) and value > 0):
            raise CheckFailed(f"{name}: not a finite positive number: {value!r}")


def _check_exclusion(inv: Invocation, col, rows) -> None:
    cfg = inv.config
    n = inv.points
    i_t, i_lam, i_alpha = col["thickness_m"], col["lambda_m"], col["alpha_1"]
    i_imp = col["improvement_1"] if inv.prior is not None else None
    lo, hi = math.log10(SCAN_LAMBDA_MIN), math.log10(SCAN_LAMBDA_MAX)
    for block, thickness in enumerate(SCAN_THICKNESSES):
        previous = 0.0
        for k in range(n):
            row = rows[block * n + k]
            lam = row[i_lam]
            if row[i_t] != thickness:
                raise CheckFailed(f"row {block * n + k}: thickness {row[i_t]!r}, expected {thickness!r}")
            if not lam > previous:
                raise CheckFailed(f"row {block * n + k}: lambda grid not increasing")
            if not (math.isfinite(row[i_alpha]) and row[i_alpha] > 0):
                raise CheckFailed(f"row {block * n + k}: alpha_1 not finite positive: {row[i_alpha]!r}")
            previous = lam
    stride = 1 if len(rows) <= FULL_CHECK_ROWS else max(1, len(rows) // SAMPLE_ROWS)
    sample = set(range(0, len(rows), stride))
    sample.update(b * n + k for b in range(len(SCAN_THICKNESSES)) for k in (0, n - 1))
    for r in sorted(sample):
        row = rows[r]
        k = r % n
        lam = row[i_lam]
        _close(f"row {r} lambda_m", lam, 10 ** (lo + k * (hi - lo) / (n - 1)))
        alpha = alpha_bound(cfg, lam, row[i_t])
        _close(f"row {r} alpha_1", row[i_alpha], alpha)
        if i_imp is not None:
            prior = prior_at(inv.prior.lambdas, inv.prior.alphas, lam)
            got = row[i_imp]
            if math.isnan(prior):
                if not math.isnan(got):
                    raise CheckFailed(f"row {r} improvement_1: {got!r} outside the prior domain, expected nan")
            else:
                _close(f"row {r} improvement_1", got, prior / row[i_alpha])


_CHECKS = {
    "forces": _check_forces,
    "budget": _check_budget,
    "sensitivity": _check_sensitivity,
    "exclusion": _check_exclusion,
}


def exit_problem(exit_code: int, stderr: str) -> str | None:
    """The reason a run failed before its output is looked at, if any."""
    if exit_code != 0:
        return f"exit code {exit_code}: {stderr.strip()[-300:]}"
    if "Traceback (most recent call last)" in stderr:
        return f"traceback on stderr: {stderr.strip()[-300:]}"
    return None


def check(inv: Invocation, exit_code: int, stderr: str, output: bytes | None, parse) -> str | None:
    """Return None when the invocation's result is right, else the reason.

    `parse` is `ResultTable.from_csv` of the program under test.
    """
    reason = exit_problem(exit_code, stderr)
    if reason is not None:
        return reason
    if output is None:
        return "no output file"
    try:
        table = parse(output.decode("utf-8"))
    except Exception as exc:  # any parse failure is a rejected output
        return f"output does not parse: {exc!r}"
    columns = list(COLUMNS[inv.kind])
    if inv.kind == "exclusion" and inv.prior is not None:
        columns.append("improvement_1")
    missing = [name for name in columns if name not in table.columns]
    if missing:
        return f"missing columns {missing}"
    if len(table.rows) != inv.rows:
        return f"{len(table.rows)} rows, expected {inv.rows}"
    col = {name: table.columns.index(name) for name in columns}
    try:
        _CHECKS[inv.kind](inv, col, table.rows)
    except CheckFailed as exc:
        return str(exc)
    return None


class Tally:
    """Attempted and failed invocations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def self_test(work_dir: str, main, parse) -> None:
    """Feed the checker a good output and three corrupted ones; raise
    RuntimeError unless exactly the corrupted ones count as failures.

    `main` is the program's `cli.main`, run in-process to produce a
    real prior-merge output to corrupt.
    """
    workload = inputs.build("prior-merge", 0, work_dir)
    inv = workload.invocations[0]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(inv.args)
    with open(inv.out, "rb") as handle:
        good = handle.read()
    lines = good.decode("utf-8").splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    alpha_col = lines[header].strip().split(",").index("alpha_1")
    # a row of the second curve with lambda inside the prior's domain
    target = header + 1 + inputs.SCAN_POINTS + inputs.SCAN_POINTS // 2
    cells = lines[target].rstrip("\n").split(",")
    cells[alpha_col] = format(float(cells[alpha_col]) * (1 + 1e-6), ".17g")
    off_by_1e6 = "".join(lines[:target] + [",".join(cells) + "\n"] + lines[target + 1 :]).encode()
    missing_row = "".join(lines[:target] + lines[target + 1 :]).encode()

    tally = Tally()
    cases = [
        ("unchanged output", code, err.getvalue(), good, False),
        ("alpha_1 off by 1e-6 relative", 0, "", off_by_1e6, True),
        ("one row missing", 0, "", missing_row, True),
        ("non-zero exit", 3, "domain error: plate contact", None, True),
    ]
    for label, exit_code, stderr, output, should_fail in cases:
        before = tally.failed
        tally.add(check(inv, exit_code, stderr, output, parse))
        if (tally.failed > before) != should_fail:
            verdict = "accepted" if should_fail else f"rejected ({tally.reasons[-1]})"
            raise RuntimeError(f"checker self-test: {label} was {verdict}")


if __name__ == "__main__":
    import tempfile

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from plateforces.cli import main
    from plateforces.tables import ResultTable

    with tempfile.TemporaryDirectory(dir=root) as tmp:
        self_test(tmp, main, ResultTable.from_csv)
    print("checker self-test passed: corrupted outputs are counted as failures")
