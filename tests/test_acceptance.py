"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all)
and then asserts, so a red criterion is visible both in the log and in
the pytest summary.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from plateforces.balance import (
    SHEAR_MODULUS,
    BalanceConfig,
    TorsionWire,
    min_detectable_force,
    tilted_casimir,
    torsion_constant,
)
from plateforces.budget import electrostatic_force
from plateforces.casimir import casimir_zero_t, thermal_casimir
from plateforces.core import (
    CODATA2018,
    GapConfig,
    MaterialLayer,
    PlateGeometry,
    PlateStack,
    YukawaParams,
)
from plateforces.exclusion import exclusion_scan
from plateforces.gravity import PlatePairConfig, plate_newton, plate_yukawa, stack_newton
from plateforces import ResultTable
from plateforces.cli import cmd_forces

from conftest import kernel_alpha
from oracles import tilted_casimir_force, yukawa_slab_force

AREA = 0.012
GOLD = 19.3e3
GLASS = 3.0e3
G = CODATA2018.G


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {status}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def rel_dev(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def test_criterion_01_zero_t_casimir_anchors():
    f5 = casimir_zero_t(AREA, 5e-6)
    f10 = casimir_zero_t(AREA, 10e-6)
    ok = (
        rel_dev(f5, 2.496e-8) < 1e-3
        and rel_dev(f10, 1.560e-9) < 1e-3
        and rel_dev(f5, 25e-9) < 0.05
        and rel_dev(f10, 1.5e-9) < 0.05
    )
    report(
        1,
        ok,
        f"zero-T Casimir {f5:.4e} N at 5 um ({rel_dev(f5, 25e-9):.1%} from 25 nN), "
        f"{f10:.4e} N at 10 um ({rel_dev(f10, 1.5e-9):.1%} from 1.5 nN)",
    )


def test_criterion_02_thermal_casimir_anchors():
    f5 = thermal_casimir(AREA, 5e-6, 300.0)
    f10 = thermal_casimir(AREA, 10e-6, 300.0)
    ok = (
        rel_dev(f5, 3.80e-8) < 1e-3
        and rel_dev(f10, 4.75e-9) < 1e-3
        and rel_dev(f5, 38e-9) < 0.05
        and rel_dev(f10, 5e-9) < 0.05
    )
    report(
        2,
        ok,
        f"thermal Casimir at 300 K: {f5:.4e} N at 5 um, {f10:.4e} N at 10 um "
        f"({rel_dev(f10, 5e-9):.2%} from 5 nN)",
    )


def test_criterion_03_newton_anchor_and_gap_independence(glass_pair):
    force = plate_newton(GLASS, GLASS, AREA, 15e-3, 15e-3)
    values = set()
    for gap in (1e-6, 5e-6, 10e-6):
        pair = PlatePairConfig(
            glass_pair.stack_a,
            glass_pair.stack_b,
            glass_pair.geometry,
            GapConfig(separation=gap, temperature=300.0),
        )
        values.add(stack_newton(pair))
    ok = (
        rel_dev(force, 1.019e-8) < 1e-3
        and rel_dev(force, 1e-8) < 0.05
        and len(values) == 1
        and values == {force}
    )
    report(
        3,
        ok,
        f"Newtonian slab force {force:.4e} N ({rel_dev(force, 1e-8):.1%} from 10 nN), "
        f"bitwise identical at 1/5/10 um gaps",
    )


def test_criterion_05_electrostatic_anchors():
    f5 = electrostatic_force(AREA, 5e-6, 0.1)
    f10 = electrostatic_force(AREA, 10e-6, 0.1)
    ok = (
        rel_dev(f5, 2.125e-5) < 1e-3
        and rel_dev(f10, 5.3125e-6) < 1e-3
        and rel_dev(f5, 25e-6) < 0.25
        and rel_dev(f10, 5e-6) < 0.07
    )
    report(
        5,
        ok,
        f"electrostatic background at 0.1 V: {f5:.4e} N at 5 um "
        f"({rel_dev(f5, 25e-6):.1%} from 25 uN), {f10:.4e} N at 10 um "
        f"({rel_dev(f10, 5e-6):.1%} from 5 uN)",
    )


def test_criterion_06_inversion_prefactor():
    prefactor_m2 = 1e-12 / (2.0 * math.pi * G * GOLD**2 * AREA)
    prefactor_um2 = prefactor_m2 * 1e12
    ok = rel_dev(prefactor_um2, 532.0) < 0.01
    print(
        "[acceptance] unit reconciliation: F_res / (2 pi G rho_gold^2 S) = "
        f"{prefactor_m2:.6e} m^2; the reference constant 532 is quoted in um^2 "
        "with lambda in um, so the m^2 value is multiplied by 1e12 before "
        f"comparing: {prefactor_um2:.2f} um^2 vs 532 um^2 "
        f"({rel_dev(prefactor_um2, 532.0):.2%})"
    )
    report(
        6,
        ok,
        f"inversion prefactor {prefactor_um2:.2f} um^2 within 1% of the "
        "reference constant 532",
    )


def test_criterion_07_yukawa_force_vs_quadrature():
    lams = [float(x) for x in np.logspace(-7, -2, 25)]
    taus = (0.3e-6, 1e-6, 3e-6, 10e-6)
    gaps = (1e-6, 5e-6, 10e-6)
    start = time.perf_counter()
    worst = 0.0
    for lam in lams:
        for tau in taus:
            for gap in gaps:
                closed = plate_yukawa(
                    GOLD, GOLD, AREA, tau, tau, gap, YukawaParams(1.0, lam)
                )
                brute = yukawa_slab_force(GOLD, GOLD, AREA, tau, tau, gap, 1.0, lam, G)
                worst = max(worst, abs(closed - brute) / abs(brute))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(
        7,
        ok,
        f"slab Yukawa force vs quadrature oracle over "
        f"{len(lams)}x{len(taus)}x{len(gaps)} grid: worst rel dev {worst:.2e}, "
        f"{elapsed:.2f} s",
    )


def gold_plates(thickness=1e-5):
    """10 x 12 cm gold films 5 um apart; PlateGeometry(0.1, 0.12).area() == AREA."""
    gold = PlateStack((MaterialLayer("gold", GOLD, thickness),))
    return PlatePairConfig(gold, gold, PlateGeometry(0.1, 0.12), GapConfig(5e-6))


def test_criterion_08_inversion_round_trip():
    (curve,) = exclusion_scan(gold_plates(), 1e-12, 1e-6, 1e-2, 1000, (1e-5,))
    worst = 0.0
    for lam, alpha in zip(curve.lambdas, curve.alphas):
        force = plate_yukawa(
            GOLD, GOLD, AREA, 1e-5, 1e-5, 5e-6, YukawaParams(alpha=alpha, lam=lam)
        )
        worst = max(worst, abs(force - 1e-12) / 1e-12)
    ok = worst <= 1e-12
    report(
        8,
        ok,
        f"force(alpha(lam)) of the scan reproduces the 1 pN resolution over 1000 "
        f"lambda points: worst rel dev {worst:.2e}",
    )


def unimodal(values):
    smallest = min(values)
    if values.count(smallest) != 1:
        return False
    arg = values.index(smallest)
    falling = all(b < a for a, b in zip(values[: arg + 1], values[1 : arg + 1]))
    rising = all(b > a for a, b in zip(values[arg:], values[arg + 1 :]))
    return falling and rising


def test_criterion_09_exclusion_scan_shape():
    thicknesses = (0.3e-6, 1e-6, 3e-6, 10e-6)
    start = time.perf_counter()
    curves = exclusion_scan(gold_plates(), 1e-12, 1e-6, 1e-2, 1000, thicknesses)
    elapsed = time.perf_counter() - start
    ordered = all(
        all(lo < hi for hi, lo in zip(thin.alphas, thick.alphas))
        for thin, thick in zip(curves, curves[1:])
    )
    shapes = all(unimodal(list(curve.alphas)) for curve in curves)
    derived = kernel_alpha(1e-5, gold_plates(), 1e-12)
    print(
        "[acceptance] recorded bounds at lam = 10 um with 10 um films: exact "
        f"inversion gives alpha = {derived:.3f}; the ballpark ~1000 sometimes "
        "quoted for this layout is about 45x looser and is recorded here "
        "without being asserted"
    )
    ok = ordered and shapes and elapsed < 1.0 and rel_dev(derived, 22.0) < 0.01
    report(
        9,
        ok,
        f"4x1000-point scan: thickness-ordered={ordered}, unimodal={shapes}, "
        f"{elapsed:.3f} s, alpha(10 um) = {derived:.3f}",
    )


def test_criterion_10_balance_sensitivity_band():
    diameters = [float(d) for d in np.linspace(50e-6, 150e-6, 11)]
    overlaps = {}
    for label in ("tungsten", "quartz"):
        kappas = [
            torsion_constant(TorsionWire(label, SHEAR_MODULUS[label], d, 0.5)) for d in diameters
        ]
        overlaps[label] = min(kappas) <= 1e-4 and max(kappas) >= 1e-6
    force = min_detectable_force(
        BalanceConfig(torque_sensitivity=1e-6, arm_length=0.1, min_displacement=1e-9)
    )
    ok = all(overlaps.values()) and force < 1e-12
    report(
        10,
        ok,
        f"kappa sweeps overlap [1e-6, 1e-4] N m/rad (tungsten={overlaps['tungsten']}, "
        f"quartz={overlaps['quartz']}); F_min = {force:.1e} N < 1e-12 N",
    )


def test_criterion_11_consistency_bundle(baseline_config):
    # (b) tilted closed form vs quadrature, plus continuity at zero tilt
    worst_tilt = 0.0
    for angle in (1e-9, 1e-7, 1e-6, 1e-5, 3e-5):
        closed = tilted_casimir(0.10 * 0.12, 0.12, 5e-6, angle)
        brute = tilted_casimir_force(0.10, 0.12, 5e-6, angle, CODATA2018.hbar, CODATA2018.c)
        worst_tilt = max(worst_tilt, abs(closed - brute) / abs(brute))
    flat = tilted_casimir(0.10 * 0.12, 0.12, 5e-6, 0.0)
    tiny = tilted_casimir(0.10 * 0.12, 0.12, 5e-6, 1e-15)
    tilt_ok = worst_tilt < 1e-10 and abs(tiny - flat) / flat < 1e-10

    # (c) scaling laws
    scaling_ok = (
        casimir_zero_t(AREA, 2e-6) / casimir_zero_t(AREA, 4e-6) == pytest.approx(16.0, rel=1e-12)
        and thermal_casimir(AREA, 2e-6, 300.0) / thermal_casimir(AREA, 4e-6, 300.0)
        == pytest.approx(8.0, rel=1e-12)
        and electrostatic_force(AREA, 5e-6, 0.2)
        / electrostatic_force(AREA, 5e-6, 0.1)
        == pytest.approx(4.0, rel=1e-12)
        and electrostatic_force(AREA, 5e-6, 0.1)
        / electrostatic_force(AREA, 10e-6, 0.1)
        == pytest.approx(4.0, rel=1e-12)
    )

    # (d) CSV round-trip, bit for bit
    table = cmd_forces(baseline_config, gaps=[1e-6, 5e-6, 1e-5])
    csv_ok = ResultTable.from_csv(table.to_csv()) == table

    ok = tilt_ok and scaling_ok and csv_ok
    report(
        11,
        ok,
        f"tilt-vs-quadrature worst {worst_tilt:.2e} (<1e-10); scaling laws at 1e-12: {scaling_ok}; "
        f"CSV round-trip bitwise: {csv_ok}",
    )
