"""Command-line interface.

Four subcommands, each writing one CSV table to stdout or --out:

    plateforces forces      --config exp.ini [--gap '5 um' ...]
    plateforces budget      --config exp.ini
    plateforces exclusion   --config exp.ini [--lambda-min ...] [--prior prior.csv]
    plateforces sensitivity --config exp.ini

Exit codes: 0 success, 2 config/parse error, 3 domain error (e.g.
plate contact), 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence
from dataclasses import replace
from operator import truediv

from .balance import (
    gap_variation_from_tilt,
    min_detectable_force,
    tilted_casimir,
    torsion_constant,
)
from .budget import electrostatic_force
from .casimir import THERMAL_TRUST_MIN_GAP, casimir_zero_t, thermal_casimir
from .config import ExperimentConfig, ingest_prior_bounds, load_config, parse_length
from .core import CODATA2018
from .errors import ConfigError, DomainError, InvalidParameterError
from .exclusion import Curve, exclusion_scan
from .gravity import stack_newton, stack_yukawa
from .tables import ResultTable

DEFAULT_SCAN_LAMBDA_MIN = 1e-6
DEFAULT_SCAN_LAMBDA_MAX = 1e-2
DEFAULT_SCAN_POINTS = 1000
DEFAULT_SCAN_THICKNESSES = (0.3e-6, 1e-6, 3e-6, 10e-6)


def _metadata(command: str, config: ExperimentConfig) -> list[tuple[str, str]]:
    return [
        ("tool", "plateforces"),
        ("command", command),
        ("constants", CODATA2018.name),
        ("sign_convention", "attractive forces reported as positive magnitudes"),
        ("config_sha256", config.source_sha256),
    ]


FORCES_COLUMNS = (
    "gap_m",
    "casimir_zero_t_N",
    "thermal_N",
    "total_N",
    "newton_N",
    "electrostatic_N",
    "thermal_trusted_1",
)
BUDGET_COLUMNS = (
    "gap_m",
    "casimir_zero_t_N",
    "thermal_N",
    "total_casimir_N",
    "newton_N",
    "yukawa_N",
    "electrostatic_N",
    "resolution_N",
    "ratio_electrostatic_casimir_zero_t_1",
    "ratio_newton_casimir_zero_t_1",
    "ratio_total_casimir_resolution_1",
    "ratio_yukawa_resolution_1",
)
SENSITIVITY_COLUMNS = (
    "kappa_wire_Nm_per_rad",
    "f_min_wire_N",
    "kappa_balance_Nm_per_rad",
    "f_min_balance_N",
    "gap_variation_m",
    "casimir_flat_N",
    "casimir_tilted_N",
    "tilted_flat_ratio_1",
    "resolution_met_1",
)
PATCH_WARNING = (
    "electrostatic: assumes a uniform stray potential; patch-potential "
    "patterns are not modeled"
)


def _gap_forces(
    config: ExperimentConfig, gap: float
) -> tuple[tuple[float, float, float, float], str | None]:
    """Zero-T, thermal, eta-weighted total Casimir and electrostatic
    forces at gap, in N, and the thermal-trust warning (None where the
    classical thermal expression is trusted).

    The thermal force is unweighted; eta applies only to the total.
    """
    area = config.geometry.area()
    zero_t = casimir_zero_t(area, gap)
    thermal = thermal_casimir(area, gap, config.gap.temperature)
    total = zero_t + config.thermal.reduction_factor * thermal
    electrostatic = electrostatic_force(area, gap, config.stray_voltage)
    warning = None
    if gap < THERMAL_TRUST_MIN_GAP:
        warning = (
            f"thermal force at gap {gap:g} m extrapolates the classical "
            f"expression below its {THERMAL_TRUST_MIN_GAP:g} m trust gap"
        )
    return (zero_t, thermal, total, electrostatic), warning


def _finite_forces(columns: Sequence[str], gap: float, row: tuple) -> tuple:
    """row, once every force column (suffix _N) is known to be finite.

    Raises DomainError naming the first column whose force overflowed
    to inf (or went nan) and the gap it was evaluated at.
    """
    for column, value in zip(columns, row):
        if column.endswith("_N") and not math.isfinite(value):
            raise DomainError(
                f"{column} at gap {gap:g} m is {value!r}: the force "
                "overflows a double"
            )
    return row


def cmd_forces(
    config: ExperimentConfig,
    gaps: Sequence[float] | None = None,
) -> ResultTable:
    """Casimir, Newton and electrostatic forces at each requested gap.

    With no gaps given, the config's own gap is used.  An explicitly
    empty list yields a header-only table.
    """
    if gaps is None:
        gaps = [config.gap.separation]
    newton = stack_newton(config.plate_pair())
    rows = []
    warnings = []
    for gap in gaps:
        (zero_t, thermal, total, electrostatic), warning = _gap_forces(config, gap)
        if warning is not None:
            warnings.append(warning)
        row = (gap, zero_t, thermal, total, newton, electrostatic, float(warning is None))
        rows.append(_finite_forces(FORCES_COLUMNS, gap, row))
    warnings.append(PATCH_WARNING)
    metadata = _metadata("forces", config)
    metadata.append(("eta", format(config.thermal.reduction_factor, "g")))
    metadata.append(("temperature_K", format(config.gap.temperature, "g")))
    return ResultTable(
        columns=FORCES_COLUMNS,
        rows=tuple(rows),
        metadata=tuple(metadata),
        warnings=tuple(warnings),
    )


def _ratio(column: str, numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        return math.inf if numerator > 0 else math.nan
    ratio = numerator / denominator
    # an infinite quotient of a finite numerator is an overflow, not a result
    if math.isinf(ratio) and math.isfinite(numerator):
        raise DomainError(
            f"{column}: {numerator!r} / {denominator!r} overflows a double"
        )
    return ratio


def cmd_budget(config: ExperimentConfig) -> ResultTable:
    """Single-row force budget at the config gap, with signal/background
    and signal/resolution ratios.

    The Yukawa signal is that of the facing layers (LayerMode.METAL_ONLY)
    for the [yukawa] reference coupling, as a positive magnitude.
    """
    plates = config.plate_pair()
    gap = plates.gap.separation
    (zero_t, thermal, total, electrostatic), warning = _gap_forces(config, gap)
    newton = stack_newton(plates)
    yukawa = abs(stack_yukawa(plates, config.yukawa))
    resolution = config.force_resolution
    row = (
        gap,
        zero_t,
        thermal,
        total,
        newton,
        yukawa,
        electrostatic,
        resolution,
        _ratio("ratio_electrostatic_casimir_zero_t_1", electrostatic, zero_t),
        _ratio("ratio_newton_casimir_zero_t_1", newton, zero_t),
        _ratio("ratio_total_casimir_resolution_1", total, resolution),
        _ratio("ratio_yukawa_resolution_1", yukawa, resolution),
    )
    metadata = _metadata("budget", config)
    metadata.append(("eta", format(config.thermal.reduction_factor, "g")))
    metadata.append(("yukawa_alpha", format(config.yukawa.alpha, "g")))
    metadata.append(("yukawa_lambda_m", format(config.yukawa.lam, "g")))
    return ResultTable(
        columns=BUDGET_COLUMNS,
        rows=(_finite_forces(BUDGET_COLUMNS, gap, row),),
        metadata=tuple(metadata),
        warnings=(PATCH_WARNING,) if warning is None else (warning, PATCH_WARNING),
    )


def cmd_exclusion(
    config: ExperimentConfig,
    lambda_min: float = DEFAULT_SCAN_LAMBDA_MIN,
    lambda_max: float = DEFAULT_SCAN_LAMBDA_MAX,
    n_points: int = DEFAULT_SCAN_POINTS,
    thicknesses: Sequence[float] = DEFAULT_SCAN_THICKNESSES,
    prior: Curve | None = None,
) -> ResultTable:
    """Exclusion curves in long format: one table block per thickness.

    With a prior-bounds file, an improvement column is appended; rows
    whose lambda falls outside the prior's domain get nan there.
    """
    curves = exclusion_scan(
        config.plate_pair(),
        config.force_resolution,
        lambda_min,
        lambda_max,
        n_points,
        tuple(thicknesses),
    )
    columns = ["thickness_m", "lambda_m", "alpha_1"]
    if prior is not None:
        columns.append("improvement_1")
        # every curve shares the grid, so the prior is interpolated once
        prior_alphas = prior.alphas_at(curves[0].lambdas)
    # the thickness repeats down its block; every block holds one grid object
    rows = []
    for thickness, curve in zip(thicknesses, curves):
        block = (thickness, curve.lambdas, curve.alphas)
        if prior is not None:
            block += (tuple(map(truediv, prior_alphas, curve.alphas)),)
        rows.append(block)
    warnings = []
    unbounded = [
        lam
        for curve in curves
        if math.inf in curve.alphas
        for lam, alpha in zip(curve.lambdas, curve.alphas)
        if alpha == math.inf
    ]
    if unbounded:
        warnings.append(
            f"alpha is inf on {len(unbounded)} rows with lambda from "
            f"{min(unbounded):g} to {max(unbounded):g} m: exp(gap/lambda) "
            "overflows, so no finite coupling is detectable there"
        )
    metadata = _metadata("exclusion", config)
    metadata.append(("force_resolution_N", format(config.force_resolution, "g")))
    metadata.append(("gap_m", format(config.gap.separation, "g")))
    if prior is not None:
        metadata.append(("prior_source", prior.source))
    return ResultTable(
        columns=tuple(columns),
        rows=tuple(rows),
        metadata=tuple(metadata),
        warnings=tuple(warnings),
    )


def cmd_sensitivity(config: ExperimentConfig) -> ResultTable:
    """Balance sensitivity and tilt effects for the configured setup."""
    kappa_wire = torsion_constant(config.wire)
    balance = config.balance
    f_min_wire = min_detectable_force(replace(balance, torque_sensitivity=kappa_wire))
    f_min_balance = min_detectable_force(balance)
    tilt = config.tilt
    gap = config.gap.separation
    area = config.geometry.area()
    strip_width = area / tilt.plate_length_along_tilt
    flat = casimir_zero_t(area, gap)
    tilted = tilted_casimir(strip_width, tilt.plate_length_along_tilt, gap, tilt.angle)
    row = (
        kappa_wire,
        f_min_wire,
        balance.torque_sensitivity,
        f_min_balance,
        gap_variation_from_tilt(tilt),
        flat,
        tilted,
        tilted / flat,
        1.0 if f_min_balance <= config.force_resolution else 0.0,
    )
    metadata = _metadata("sensitivity", config)
    metadata.append(("wire_material", config.wire.material))
    metadata.append(("tilt_angle_rad", format(tilt.angle, "g")))
    return ResultTable(
        columns=SENSITIVITY_COLUMNS,
        rows=(_finite_forces(SENSITIVITY_COLUMNS, gap, row),),
        metadata=tuple(metadata),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plateforces",
        description="Force budget and Yukawa reach of a parallel-plate "
        "Casimir experiment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment config file (INI)")
        p.add_argument(
            "--out",
            default="-",
            help="output CSV path (default: stdout)",
        )

    p_forces = sub.add_parser("forces", help="forces vs gap")
    common(p_forces)
    p_forces.add_argument(
        "--gap",
        action="append",
        metavar="LENGTH",
        help="gap to evaluate, unit suffix allowed (repeatable; "
        "default: the config gap)",
    )

    p_budget = sub.add_parser("budget", help="full force budget at the config gap")
    common(p_budget)

    p_excl = sub.add_parser("exclusion", help="alpha-lambda exclusion curves")
    common(p_excl)
    p_excl.add_argument("--lambda-min", default=None, metavar="LENGTH")
    p_excl.add_argument("--lambda-max", default=None, metavar="LENGTH")
    p_excl.add_argument("--points", type=int, default=DEFAULT_SCAN_POINTS)
    p_excl.add_argument(
        "--thickness",
        action="append",
        metavar="LENGTH",
        help="facing-layer thickness (repeatable; default 0.3, 1, 3, 10 um)",
    )
    p_excl.add_argument("--prior", default=None, help="prior-bounds CSV for the improvement column")

    p_sens = sub.add_parser("sensitivity", help="balance sensitivity and tilt effects")
    common(p_sens)

    return parser


def _write(table: ResultTable, out: str) -> None:
    if out == "-":
        table.write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            table.write(handle)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "forces":
            gaps = None
            if args.gap is not None:
                gaps = [parse_length(text) for text in args.gap]
            table = cmd_forces(config, gaps)
        elif args.command == "budget":
            table = cmd_budget(config)
        elif args.command == "exclusion":
            lambda_min = (
                DEFAULT_SCAN_LAMBDA_MIN
                if args.lambda_min is None
                else parse_length(args.lambda_min)
            )
            lambda_max = (
                DEFAULT_SCAN_LAMBDA_MAX
                if args.lambda_max is None
                else parse_length(args.lambda_max)
            )
            thicknesses = (
                DEFAULT_SCAN_THICKNESSES
                if args.thickness is None
                else tuple(parse_length(text) for text in args.thickness)
            )
            prior = None if args.prior is None else ingest_prior_bounds(args.prior)
            table = cmd_exclusion(
                config, lambda_min, lambda_max, args.points, thicknesses, prior
            )
        else:
            table = cmd_sensitivity(config)
        _write(table, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameterError, DomainError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
