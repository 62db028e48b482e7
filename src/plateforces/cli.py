"""Command-line interface.

Four subcommands, each writing one CSV table to stdout or --out:

    plateforces forces      --config exp.ini [--gap '5 um' ...]
    plateforces budget      --config exp.ini
    plateforces exclusion   --config exp.ini [--lambda-min ...] [--lambda-max ...]
                            [--points N] [--thickness '1 um' ...] [--prior prior.csv]
    plateforces sensitivity --config exp.ini

Each is one entry of _COMMANDS, from which main builds the parser.  main
reads the config first, then each flag given, in table order, and passes
them to cmd_<subcommand>; a flag left out takes that function's default.

Exit codes: 0 success, 2 config/parse error, 3 domain error (e.g.
plate contact), 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from array import array
from collections.abc import Callable, Iterable, Sequence
from itertools import compress, islice
from operator import truediv

from . import __version__
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
from .exclusion import Curve, exclusion_scan, overflow_prefix
from .gravity import stack_newton, stack_yukawa
from .tables import ResultTable

DEFAULT_SCAN_LAMBDA_MIN = 1e-6
DEFAULT_SCAN_LAMBDA_MAX = 1e-2
DEFAULT_SCAN_POINTS = 1000
DEFAULT_SCAN_THICKNESSES = (0.3e-6, 1e-6, 3e-6, 10e-6)


def _metadata(
    command: str, config: ExperimentConfig, *extra: tuple[str, str]
) -> tuple[tuple[str, str], ...]:
    """The metadata every table starts with, then the command's extra pairs."""
    return (
        ("tool", "plateforces"),
        ("version", __version__),
        ("command", command),
        ("constants", CODATA2018.name),
        ("sign_convention", "attractive forces reported as positive magnitudes"),
        ("config_sha256", config.source_sha256),
        *extra,
    )


PATCH_WARNING = (
    "electrostatic: assumes a uniform stray potential; patch-potential "
    "patterns are not modeled"
)

# One entry per output column of forces, budget and sensitivity: its value
# as a function of c, the config, g, the gap, and r, the row so far.  Each
# entry calls the physics through this module's globals when it runs, so a
# function rebound here (as the benchmark's tracer does) is the one called.
# A row keeps the previous gap's values until they are overwritten, so
# newton_N, which does not depend on the gap, is computed once per table.
_COLUMNS: dict[str, Callable[[ExperimentConfig, float, dict[str, float]], float]] = {
    "gap_m": lambda c, g, r: g,
    "casimir_zero_t_N": lambda c, g, r: casimir_zero_t(c.plates.geometry.area(), g),
    "thermal_N": lambda c, g, r: thermal_casimir(
        c.plates.geometry.area(), g, c.plates.gap.temperature
    ),
    # the thermal force is unweighted; eta applies only to the total
    "total_N": lambda c, g, r: r["casimir_zero_t_N"] + c.thermal.reduction_factor * r["thermal_N"],
    "newton_N": lambda c, g, r: r["newton_N"] if "newton_N" in r else stack_newton(c.plates),
    "yukawa_N": lambda c, g, r: abs(stack_yukawa(c.plates, c.yukawa)),
    "electrostatic_N": lambda c, g, r: electrostatic_force(
        c.plates.geometry.area(), g, c.stray_voltage
    ),
    "thermal_trusted_1": lambda c, g, r: float(g >= THERMAL_TRUST_MIN_GAP),
    "resolution_N": lambda c, g, r: c.force_resolution,
    "ratio_electrostatic_casimir_zero_t_1": lambda c, g, r: (
        r["electrostatic_N"] / r["casimir_zero_t_N"]
    ),
    "ratio_newton_casimir_zero_t_1": lambda c, g, r: r["newton_N"] / r["casimir_zero_t_N"],
    "ratio_total_casimir_resolution_1": lambda c, g, r: r["total_casimir_N"] / r["resolution_N"],
    "ratio_yukawa_resolution_1": lambda c, g, r: r["yukawa_N"] / r["resolution_N"],
    "kappa_wire_Nm_per_rad": lambda c, g, r: torsion_constant(c.wire),
    "f_min_wire_N": lambda c, g, r: min_detectable_force(c.balance, c.wire),
    "kappa_balance_Nm_per_rad": lambda c, g, r: c.balance.torque_sensitivity,
    "f_min_balance_N": lambda c, g, r: min_detectable_force(c.balance),
    "gap_variation_m": lambda c, g, r: gap_variation_from_tilt(c.tilt),
    "casimir_tilted_N": lambda c, g, r: tilted_casimir(
        c.plates.geometry.area(), c.tilt.plate_length_along_tilt, g, c.tilt.angle
    ),
    "tilted_flat_ratio_1": lambda c, g, r: r["casimir_tilted_N"] / r["casimir_flat_N"],
    "resolution_met_1": lambda c, g, r: float(r["f_min_balance_N"] <= c.force_resolution),
}
# one entry, two names
_COLUMNS["total_casimir_N"] = _COLUMNS["total_N"]
_COLUMNS["casimir_flat_N"] = _COLUMNS["casimir_zero_t_N"]


def _table(
    command: str, config: ExperimentConfig, gaps: Iterable[float], columns: tuple[str, ...],
    warnings: Iterable[str], *extra: tuple[str, str],
) -> ResultTable:
    """One row of the given columns per gap, each evaluated in column order
    and then checked in that order, a row at a time.

    Raises DomainError naming the first gap, in input order, with a value
    that overflowed to inf (or went nan), and the first such column.
    """
    rows = []
    row: dict[str, float] = {}
    for gap in gaps:
        for column in columns:
            row[column] = _COLUMNS[column](config, gap, row)
        for column, value in row.items():
            if not math.isfinite(value):
                raise DomainError(
                    f"{column} at gap {gap:g} m is {value!r}: the value overflows a double"
                )
        rows.append(tuple(row.values()))
    return ResultTable(columns, rows, _metadata(command, config, *extra), warnings)


def _gap_warnings(gaps: Sequence[float]) -> tuple[str, ...]:
    """A warning at each gap where the thermal force is not trusted, then
    the patch-potential warning."""
    return (
        *(
            f"thermal force at gap {gap:g} m extrapolates the classical "
            f"expression below its {THERMAL_TRUST_MIN_GAP:g} m trust gap"
            for gap in gaps
            if not gap >= THERMAL_TRUST_MIN_GAP
        ),
        PATCH_WARNING,
    )


def cmd_forces(
    config: ExperimentConfig,
    gaps: Sequence[float] | None = None,
) -> ResultTable:
    """Casimir, Newton and electrostatic forces at each requested gap.

    With no gaps given, the config's own gap is used.  An explicitly
    empty list yields a header-only table.
    """
    if gaps is None:
        gaps = [config.plates.gap.separation]
    columns = (
        "gap_m", "casimir_zero_t_N", "thermal_N", "total_N", "newton_N", "electrostatic_N",
        "thermal_trusted_1",
    )
    return _table(
        "forces", config, gaps, columns, _gap_warnings(gaps),
        ("eta", format(config.thermal.reduction_factor, "g")),
        ("temperature_K", format(config.plates.gap.temperature, "g")),
    )


def cmd_budget(config: ExperimentConfig) -> ResultTable:
    """Single-row force budget at the config gap, with signal/background
    and signal/resolution ratios.

    Its forces are the `_COLUMNS` entries of the `forces` row at the
    config gap.
    The Yukawa signal is that of the facing layers (gravity.stack_yukawa)
    for the [yukawa] reference coupling, as a positive magnitude.
    """
    gaps = [config.plates.gap.separation]
    columns = (
        "gap_m", "casimir_zero_t_N", "thermal_N", "total_casimir_N", "newton_N", "yukawa_N",
        "electrostatic_N", "resolution_N", "ratio_electrostatic_casimir_zero_t_1",
        "ratio_newton_casimir_zero_t_1", "ratio_total_casimir_resolution_1",
        "ratio_yukawa_resolution_1",
    )
    return _table(
        "budget", config, gaps, columns, _gap_warnings(gaps),
        ("eta", format(config.thermal.reduction_factor, "g")),
        ("yukawa_alpha", format(config.yukawa.alpha, "g")),
        ("yukawa_lambda_m", format(config.yukawa.lam, "g")),
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

    With a prior-bounds file, an improvement column is appended: nan
    where lambda falls outside the prior's domain, and inf, announced by
    a warning, where prior alpha / alpha overflows.
    """
    curves = exclusion_scan(
        config.plates,
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
    # the thickness repeats down its block; every block holds one grid object.
    # alpha's inf rows split at the kernel's own overflow prefix of the grid
    gap = config.plates.gap.separation
    prefix = overflow_prefix(curves[0].lambdas, gap)
    unbounded: dict[str, list[float]] = {"exp": [], "bound": [], "improvement": []}
    rows = []
    for thickness, curve in zip(thicknesses, curves):
        block = (thickness, curve.lambdas, curve.alphas)
        unbounded["exp"] += islice(curve.lambdas, prefix)
        if math.inf in curve.alphas:
            lams, alphas = islice(curve.lambdas, prefix, None), islice(curve.alphas, prefix, None)
            unbounded["bound"] += compress(lams, map(math.isinf, alphas))
        if prior is not None:
            block += (improvements := array("d", map(truediv, prior_alphas, curve.alphas)),)
            unbounded["improvement"] += compress(curve.lambdas, map(math.isinf, improvements))
        rows.append(block)
    causes = {
        "exp": "alpha is inf on {} rows with lambda from {:g} to {:g} m: exp(gap/lambda) "
        "overflows, so no finite coupling is detectable there",
        "bound": "alpha is inf on {} rows with lambda from {:g} to {:g} m: the bound "
        "exceeds the largest double, or the Yukawa force per unit alpha underflows to zero",
        "improvement": "improvement_1 is inf on {} rows with lambda from {:g} to {:g} m: "
        "prior alpha / alpha exceeds the largest double",
    }
    warnings = [
        causes[cause].format(len(lams), min(lams), max(lams))
        for cause, lams in unbounded.items()
        if lams
    ]
    extra = [
        ("force_resolution_N", format(config.force_resolution, "g")),
        ("gap_m", format(gap, "g")),
    ]
    if prior is not None:
        extra.append(("prior_source", prior.source))
    return ResultTable(
        columns=tuple(columns),
        rows=tuple(rows),
        metadata=_metadata("exclusion", config, *extra),
        warnings=tuple(warnings),
    )


def cmd_sensitivity(config: ExperimentConfig) -> ResultTable:
    """Balance sensitivity and tilt effects for the configured setup."""
    columns = (
        "kappa_wire_Nm_per_rad", "f_min_wire_N", "kappa_balance_Nm_per_rad", "f_min_balance_N",
        "gap_variation_m", "casimir_flat_N", "casimir_tilted_N", "tilted_flat_ratio_1",
        "resolution_met_1",
    )
    return _table(
        "sensitivity", config, [config.plates.gap.separation], columns, (),
        ("wire_material", config.wire.material),
        ("tilt_angle_rad", format(config.tilt.angle, "g")),
    )


# One entry per subcommand: its help line and its flags past --config and
# --out, each the cmd_<subcommand> keyword it sets, the reader of its text
# and its argparse options.  As in _COLUMNS, the readers call this module's
# globals when they run, and main finds cmd_<subcommand> there, so a
# function rebound here (as the benchmark's tracer does) is the one called.
_COMMANDS: dict[str, tuple[str, tuple[tuple[str, str, Callable, dict], ...]]] = {
    "forces": ("forces vs gap", (
        ("--gap", "gaps", lambda texts: tuple(map(parse_length, texts)), dict(
            action="append", metavar="LENGTH",
            help="gap to evaluate, unit suffix allowed (repeatable; default: the config gap)")),
    )),
    "budget": ("full force budget at the config gap", ()),
    "exclusion": ("alpha-lambda exclusion curves", (
        ("--lambda-min", "lambda_min", lambda text: parse_length(text), dict(
            metavar="LENGTH", help=f"first grid lambda (default: {DEFAULT_SCAN_LAMBDA_MIN:g} m)")),
        ("--lambda-max", "lambda_max", lambda text: parse_length(text), dict(
            metavar="LENGTH", help=f"last grid lambda (default: {DEFAULT_SCAN_LAMBDA_MAX:g} m)")),
        # argparse reads --points, so a non-integer is refused before the config
        ("--points", "n_points", int, dict(
            type=int, metavar="POINTS", help=f"grid points (default: {DEFAULT_SCAN_POINTS})")),
        ("--thickness", "thicknesses", lambda texts: tuple(map(parse_length, texts)), dict(
            action="append", metavar="LENGTH", help="facing-layer thickness (repeatable; "
            f"default: {', '.join(format(t, 'g') for t in DEFAULT_SCAN_THICKNESSES)} m)")),
        ("--prior", "prior", lambda path: ingest_prior_bounds(path), dict(
            metavar="PRIOR", help="prior-bounds CSV for the improvement column")),
    )),
    "sensitivity": ("balance sensitivity and tilt effects", ()),
}


def _write(table: ResultTable, out: str) -> None:
    if out == "-":
        table.write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            table.write(handle)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="plateforces",
        description="Force budget and Yukawa reach of a parallel-plate Casimir experiment",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        command.add_argument("--config", required=True, help="experiment config file (INI)")
        command.add_argument("--out", default="-", help="output CSV path (default: stdout)")
        for flag, keyword, _, options in flags:
            command.add_argument(flag, dest=keyword, **options)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        # only the flags given, in table order: cmd_exclusion's signature holds the defaults
        given = {
            keyword: read(text)
            for _, keyword, read, _ in _COMMANDS[args.command][1]
            if (text := getattr(args, keyword)) is not None
        }
        _write(globals()[f"cmd_{args.command}"](config, **given), args.out)
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
