"""Experiment description files and prior-bounds files.

Config files are INI.  Lengths accept a unit suffix (nm, um, mm, cm,
m); bare numbers are meters.  Everything is normalized to SI here so
the physics modules never see a unit string.  Example:

    [geometry]
    length = 0.10 m
    width = 12 cm

    [stack_a]
    layer_0 = gold, 19.3e3, 10 um
    layer_1 = glass, 3.0e3, 15 mm

    [gap]
    separation = 5 um
    temperature = 300

Prior-bounds files are two-column CSV ``lambda_m,alpha`` with optional
``#`` comment lines and an optional literal header row.

``config_sha256`` is taken with the interpreter's builtin SHA-256, the
same bytes as ``hashlib``'s without loading OpenSSL.
"""

from __future__ import annotations

import configparser
import math
import re

try:  # hashlib loads OpenSSL, megabytes of memory for one digest
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .balance import SHEAR_MODULUS, BalanceConfig, TiltConfig, TorsionWire
from .casimir import ThermalModel
from .core import (
    GapConfig,
    MaterialLayer,
    PlateGeometry,
    PlateStack,
    YukawaParams,
    _Record,
    require_non_negative,
    require_positive,
)
from .errors import ConfigError, InvalidParameterError
from .exclusion import Curve
from .gravity import PlatePairConfig

# each unit as a shift of the power-of-ten exponent
_LENGTH_UNITS = {"nm": -9, "um": -6, "µm": -6, "mm": -3, "cm": -2, "m": 0}

_LENGTH_RE = re.compile(r"^\s*([^\s]+?)\s*(nm|um|µm|mm|cm|m)?\s*$")

# every section load_config reads; any other is refused
_SECTIONS = ("geometry", "stack_a", "stack_b", "gap", "thermal", "electrostatic",
             "wire", "balance", "tilt", "resolution", "yukawa")


def parse_length(text: str) -> float:
    """Parse '5 um', '12cm', '0.1 m' or a bare number (meters) to meters.

    The number is read as float() reads it and the unit shifts its
    exponent: '5 um' is the literal 5e-6, and a length past the double
    range is +-inf or 0, which the range check of its quantity refuses.
    """
    match = _LENGTH_RE.match(text)
    number, unit = match.groups() if match else ("", None)
    try:
        value = float(number)
    except ValueError:
        raise InvalidParameterError(f"cannot parse length {text!r}") from None
    mantissa, _, exponent = number.lower().partition("e")
    # int() reads at most 4 300 digits, so the exponent's leading zeros go first
    digits = exponent.lstrip("+-").lstrip("0_") or "0"
    try:
        power = int(digits) * (-1 if exponent.startswith("-") else 1)
        return float(f"{mantissa}e{power + _LENGTH_UNITS[unit or 'm']}")
    except ValueError:
        # inf or nan as text, or an exponent still too long for int(): 0 or inf
        if value == 0 or not math.isfinite(value):
            return value
        raise InvalidParameterError(f"cannot parse length {text!r}") from None


class ExperimentConfig(_Record):
    """Fully parsed experiment description, all SI.

    plates holds the two stacks, their footprint and their gap.
    source_sha256 is the hash of the config file bytes, recorded in
    output metadata so results can be traced to their inputs.  The
    plate area, the stray voltage and the force resolution are checked
    here, so no command divides by a zero resolution or area; errors
    name the INI section and key.
    """

    def __init__(
        self,
        plates: PlatePairConfig,
        thermal: ThermalModel,
        stray_voltage: float,
        wire: TorsionWire,
        balance: BalanceConfig,
        tilt: TiltConfig,
        force_resolution: float,
        yukawa: YukawaParams,
        source_sha256: str = "",
    ) -> None:
        area = plates.geometry.area()
        if not 0 < area < math.inf:
            raise InvalidParameterError(
                f"[geometry] length and width: their product, the plate area, "
                f"must be finite and > 0, got {area!r} m^2"
            )
        require_non_negative("[electrostatic] stray_voltage", stray_voltage)
        require_positive("[resolution] force_resolution", force_resolution)
        self._freeze(
            plates, thermal, stray_voltage, wire, balance, tilt,
            force_resolution, yukawa, source_sha256,
        )


class _SectionReader:
    """Wraps one INI section so errors carry their file location.

    Used as a context manager around building the section's record, it
    turns the record's InvalidParameterError into a ConfigError naming
    the section, and once the record is built refuses any key of the
    section that was never read.
    """

    def __init__(self, parser: configparser.ConfigParser, section: str):
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")
        self._section = section
        self._proxy = parser[section]
        self._read: set[str] = set()

    def __enter__(self) -> _SectionReader:
        return self

    def __exit__(self, kind: type | None, exc: BaseException | None, traceback: object) -> None:
        if isinstance(exc, InvalidParameterError):
            raise ConfigError(f"[{self._section}] {exc}") from None
        unknown = [key for key in self._proxy if key not in self._read]
        if exc is None and unknown:
            raise ConfigError(f"[{self._section}] {unknown[0]}: unknown key")

    def raw(self, key: str) -> str:
        self._read.add(key)
        if key not in self._proxy:
            raise ConfigError(f"[{self._section}] {key}: missing")
        text = self._proxy[key].strip()
        # an indented line continues the value; output metadata holds one line
        if len(text.splitlines()) > 1:
            raise ConfigError(f"[{self._section}] {key}: value spans lines: {text!r}")
        return text

    def number(self, key: str) -> float:
        text = self.raw(key)
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"[{self._section}] {key}: not a number: {text!r}") from None

    def length(self, key: str, default: float | None = None) -> float:
        if default is not None and key not in self._proxy:
            return default
        text = self.raw(key)
        try:
            return parse_length(text)
        except InvalidParameterError as exc:
            raise ConfigError(f"[{self._section}] {key}: {exc}") from None


def _parse_stack(parser: configparser.ConfigParser, section: str) -> PlateStack:
    reader = _SectionReader(parser, section)
    keys = list(parser[section])
    expected = [f"layer_{i}" for i in range(len(keys))]
    if not keys or set(keys) != set(expected):
        raise ConfigError(f"[{section}]: keys must run layer_0, layer_1, ... without gaps")
    layers = []
    for key in expected:
        text = reader.raw(key)
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 3:
            raise ConfigError(
                f"[{section}] {key}: expected 'name, density_kg_m3, thickness', got {text!r}"
            )
        name, density_text, thickness_text = parts
        try:
            density = float(density_text)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: density not a number: {density_text!r}"
            ) from None
        try:
            thickness = parse_length(thickness_text)
            layers.append(MaterialLayer(name=name, density=density, thickness=thickness))
        except InvalidParameterError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return PlateStack(layers=tuple(layers))


def _parse_wire(parser: configparser.ConfigParser) -> TorsionWire:
    reader = _SectionReader(parser, "wire")
    material = reader.raw("material").lower()
    if "shear_modulus" in parser["wire"]:
        shear_modulus = reader.number("shear_modulus")
    elif material in SHEAR_MODULUS:
        shear_modulus = SHEAR_MODULUS[material]
    else:
        known = ", ".join(sorted(SHEAR_MODULUS))
        raise ConfigError(
            f"[wire] material: unknown material {material!r} "
            f"(known: {known}); set shear_modulus explicitly"
        )
    with reader:
        return TorsionWire(
            material=material,
            shear_modulus=shear_modulus,
            diameter=reader.length("diameter"),
            length=reader.length("length"),
        )


def load_config(path: str) -> ExperimentConfig:
    """Parse an experiment config file.

    Raises ConfigError (with section/key context) on malformed content
    and lets OSError propagate for unreadable paths.  A leading UTF-8
    byte-order mark is skipped; source_sha256 hashes the raw bytes.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    # a % in a value is literal text; [DEFAULT] is just an unknown section
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
    try:
        parser.read_string(raw.decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")

    with _SectionReader(parser, "geometry") as reader:
        geometry = PlateGeometry(length=reader.length("length"), width=reader.length("width"))
    stack_a = _parse_stack(parser, "stack_a")
    stack_b = _parse_stack(parser, "stack_b")
    with _SectionReader(parser, "gap") as reader:
        gap = GapConfig(
            separation=reader.length("separation"), temperature=reader.number("temperature")
        )
    if parser.has_section("thermal"):
        with _SectionReader(parser, "thermal") as reader:
            thermal = ThermalModel(reduction_factor=reader.number("reduction_factor"))
    else:
        thermal = ThermalModel()
    with _SectionReader(parser, "electrostatic") as reader:
        stray_voltage = reader.number("stray_voltage")
    wire = _parse_wire(parser)
    with _SectionReader(parser, "balance") as reader:
        balance = BalanceConfig(
            torque_sensitivity=reader.number("torque_sensitivity"),
            arm_length=reader.length("arm_length"),
            min_displacement=reader.length("min_displacement"),
        )
    if parser.has_section("tilt"):
        with _SectionReader(parser, "tilt") as reader:
            tilt = TiltConfig(
                angle=reader.number("angle"),
                plate_length_along_tilt=reader.length("plate_length_along_tilt", geometry.width),
            )
    else:
        # default: the parallelism spec over the wider plate side
        tilt = TiltConfig(angle=1e-6, plate_length_along_tilt=geometry.width)
    with _SectionReader(parser, "resolution") as reader:
        force_resolution = reader.number("force_resolution")
    if parser.has_section("yukawa"):
        with _SectionReader(parser, "yukawa") as reader:
            yukawa = YukawaParams(alpha=reader.number("alpha"), lam=reader.length("lambda"))
    else:
        yukawa = YukawaParams(alpha=1.0, lam=1e-5)

    try:
        return ExperimentConfig(
            plates=PlatePairConfig(stack_a, stack_b, geometry, gap),
            thermal=thermal,
            stray_voltage=stray_voltage,
            wire=wire,
            balance=balance,
            tilt=tilt,
            force_resolution=force_resolution,
            yukawa=yukawa,
            source_sha256=sha256(raw).hexdigest(),
        )
    except InvalidParameterError as exc:
        # the message already names the section and key
        raise ConfigError(str(exc)) from None


def ingest_prior_bounds(path: str) -> Curve:
    """Read a prior-bounds CSV: columns lambda_m,alpha, '#' comments.

    Lines must come in strictly increasing lambda.  Errors name the
    offending line; a file with no data rows is rejected.  The curve's
    source is the path.  A leading UTF-8 byte-order mark is skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8: {exc}") from None
    lambdas: list[float] = []
    alphas: list[float] = []
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.replace(" ", "") == "lambda_m,alpha":
            continue
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 2:
            raise ConfigError(
                f"{path}: line {line_no}: expected 2 columns (lambda_m,alpha), "
                f"got {len(parts)}: {text!r}"
            )
        try:
            lam, alpha = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(
                f"{path}: line {line_no}: not numeric: {text!r}"
            ) from None
        try:
            require_positive("lambda", lam)
            require_positive("alpha", alpha)
        except InvalidParameterError as exc:
            raise ConfigError(f"{path}: line {line_no}: {exc}") from None
        if lambdas and not lam > lambdas[-1]:
            raise ConfigError(
                f"{path}: line {line_no}: lambda {lam!r} does not increase "
                f"past {lambdas[-1]!r}"
            )
        lambdas.append(lam)
        alphas.append(alpha)
    if len(lambdas) < 2:
        raise ConfigError(f"{path}: needs at least 2 data rows, found {len(lambdas)}")
    return Curve(lambdas=tuple(lambdas), alphas=tuple(alphas), source=path)
