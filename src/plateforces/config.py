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

``_KEYS`` is the one list of sections and keys: each key's reader
(length, number or lower-cased name) in its record's argument order.
A stack's layer_0, layer_1, ... lines go through the same key loop,
each read by ``_layer``.
``_ABSENT`` holds the text an omitted optional section reads as, and
``_DERIVED`` the two defaults taken from values read before them.

A prior-bounds file holds ``lambda_m,alpha`` rows in increasing lambda;
blank lines, ``#`` comments and the header (spaces ignored) may stand
anywhere, lines end in LF, CR or CRLF and a leading BOM is skipped.  One
walk over the lines reads the rows and names the first bad one.

``config_sha256`` is taken with the interpreter's builtin SHA-256, the
same bytes as ``hashlib``'s without loading OpenSSL.
"""

from __future__ import annotations

import configparser
import math
import re
from array import array

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
    require_in_box,
    require_positive,
)
from .errors import ConfigError, InvalidParameterError
from .exclusion import Curve
from .gravity import PlatePairConfig

# each unit as a shift of the power-of-ten exponent
_LENGTH_UNITS = {"nm": -9, "um": -6, "µm": -6, "mm": -3, "cm": -2, "m": 0}

_LENGTH_RE = re.compile(r"^\s*([^\s]+?)\s*(nm|um|µm|mm|cm|m)?\s*$")

def parse_length(text: str) -> float:
    """Parse '5 um', '12cm', '0.1 m' or a bare number (meters) to meters.

    The number is read as float() reads it and the unit shifts its
    exponent: '5 um' is the literal 5e-6, and a length past the double
    range is +-inf or 0.  Any value is returned: the record or function
    that takes it refuses one outside the BOX of core.
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
        # inf or nan as text, or an exponent still too long for int(), whose
        # value float() read as 0 or +-inf
        return value


class ExperimentConfig(_Record):
    """Fully parsed experiment description, all SI.

    plates holds the two stacks, their footprint and their gap.
    source_sha256 is the hash of the config file bytes, recorded in
    output metadata so results can be traced to their inputs.  The
    stray voltage and the force resolution are checked against the BOX
    here, with errors that name the INI section and key; the plate area
    needs no check, since two in-box sides give an area in its box.
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
        source_sha256: str,
    ) -> None:
        require_in_box("[electrostatic] stray_voltage", stray_voltage, "voltage")
        require_in_box("[resolution] force_resolution", force_resolution, "force")
        self._freeze(
            plates, thermal, stray_voltage, wire, balance, tilt,
            force_resolution, yukawa, source_sha256,
        )


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidParameterError(f"not a number: {text!r}") from None


def _layer(text: str) -> MaterialLayer:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 3:
        raise InvalidParameterError(f"expected 'name, density_kg_m3, thickness', got {text!r}")
    name, density, thickness = parts
    try:
        density = float(density)
    except ValueError:
        raise InvalidParameterError(f"density not a number: {density!r}") from None
    return MaterialLayer(name, density, parse_length(thickness))


# each section in reading order: the record it builds from its keys, each
# key with its reader, in the record's argument order; None marks a stack,
# whose keys are the layer_0, layer_1, ... lines the key loop reads by _layer
_KEYS = {
    "geometry": (PlateGeometry, {"length": parse_length, "width": parse_length}),
    "stack_a": (lambda *layers: PlateStack(layers), None),
    "stack_b": (lambda *layers: PlateStack(layers), None),
    "gap": (GapConfig, {"separation": parse_length, "temperature": _number}),
    "thermal": (ThermalModel, {"reduction_factor": _number}),
    "electrostatic": (float, {"stray_voltage": _number}),
    "wire": (TorsionWire, {"material": str.lower, "shear_modulus": _number,
                           "diameter": parse_length, "length": parse_length}),
    "balance": (BalanceConfig, {"torque_sensitivity": _number, "arm_length": parse_length,
                                "min_displacement": parse_length}),
    "tilt": (TiltConfig, {"angle": _number, "plate_length_along_tilt": parse_length}),
    "resolution": (float, {"force_resolution": _number}),
    "yukawa": (YukawaParams, {"alpha": _number, "lambda": parse_length}),
}

# what an omitted optional section reads as; a present one sets every key
_ABSENT = {
    "thermal": {"reduction_factor": "1.0"},
    # the parallelism spec, over the wider plate side (_DERIVED)
    "tilt": {"angle": "1e-6"},
    "yukawa": {"alpha": "1.0", "lambda": "10 um"},
}


def _known_modulus(built: dict, values: dict) -> float:
    material = values["material"]
    if material in SHEAR_MODULUS:
        return SHEAR_MODULUS[material]
    known = ", ".join(sorted(SHEAR_MODULUS))
    raise ConfigError(
        f"[wire] material: unknown material {material!r} (known: {known}); set shear_modulus explicitly"
    )


# an omitted key's default from the records built and the section's values read
_DERIVED = {
    ("tilt", "plate_length_along_tilt"): lambda built, values: built["geometry"].width,
    ("wire", "shear_modulus"): _known_modulus,
}


def _line(proxy, section: str, key: str) -> str:
    text = proxy[key].strip()
    # an indented line continues the value; output metadata holds one line
    if len(text.splitlines()) > 1:
        raise ConfigError(f"[{section}] {key}: value spans lines: {text!r}")
    return text


def _read(path: str) -> tuple[bytes, str]:
    """A file's bytes and their UTF-8 text, after any leading byte-order mark."""
    with open(path, "rb") as handle:
        raw = handle.read()
    bom = 3 if raw.startswith(b"\xef\xbb\xbf") else 0
    try:
        return raw, str(memoryview(raw)[bom:], "utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's offset in the file, the mark counted
        exc = UnicodeDecodeError(exc.encoding, raw, exc.start + bom, exc.end + bom, exc.reason)
        raise ConfigError(f"{path}: not valid UTF-8: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    """Parse an experiment config file.

    Raises ConfigError (with section/key context) on malformed content
    and lets OSError propagate for unreadable paths.  A leading UTF-8
    byte-order mark is skipped; source_sha256 hashes the raw bytes.
    """
    raw, text = _read(path)
    # a % in a value is literal text; [DEFAULT] is just an unknown section
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"[{section}]: unknown section")

    built: dict = {}
    for section, (record, keys) in _KEYS.items():
        if parser.has_section(section):
            proxy = parser[section]
        elif section in _ABSENT:
            proxy = _ABSENT[section]
        else:
            raise ConfigError(f"missing section [{section}]")
        if keys is None:
            keys = dict.fromkeys([f"layer_{i}" for i in range(len(proxy))], _layer)
            if not keys or set(proxy) != set(keys):
                raise ConfigError(f"[{section}]: keys must run layer_0, layer_1, ... without gaps")
        values: dict = {}
        for key, read in keys.items():
            if key in proxy:
                try:
                    values[key] = read(_line(proxy, section, key))
                except InvalidParameterError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from None
            elif (section, key) in _DERIVED:
                values[key] = _DERIVED[section, key](built, values)
            else:
                raise ConfigError(f"[{section}] {key}: missing")
        try:
            built[section] = record(*values.values())
        except InvalidParameterError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
        unknown = [key for key in proxy if key not in keys]
        if unknown:
            raise ConfigError(f"[{section}] {unknown[0]}: unknown key")

    # the sections after [gap] are the rest of ExperimentConfig's arguments
    geometry, stack_a, stack_b, gap, *rest = built.values()
    try:
        return ExperimentConfig(
            PlatePairConfig(stack_a, stack_b, geometry, gap), *rest, sha256(raw).hexdigest()
        )
    except InvalidParameterError as exc:
        # the message already names the section and key
        raise ConfigError(str(exc)) from None


def ingest_prior_bounds(path: str) -> Curve:
    """Read a prior-bounds CSV into a Curve whose source is the path.

    Rows are lambda_m,alpha, both finite and > 0, at least two, in
    strictly increasing lambda.  Blank lines, '#' comments and the header
    (spaces ignored) may stand anywhere; lines end in LF, CR or CRLF; a
    leading UTF-8 byte-order mark is skipped.  One walk over the lines
    checks each row in turn and names the line of the first bad one.
    """
    # universal newlines: the lines of readlines()
    text = _read(path)[1].replace("\r\n", "\n").replace("\r", "\n")
    lambdas, alphas = array("d"), array("d")
    previous = 0.0  # the last row's lambda; the first must only be > 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        row = line.strip()
        # a row starts with neither '#' nor 'l', so only such lines need the test
        if not row or row[0] in "#l" and (
            row[0] == "#" or row.replace(" ", "") == "lambda_m,alpha"
        ):
            continue
        fields = row.split(",")
        try:
            if len(fields) != 2:
                raise InvalidParameterError(
                    f"expected 2 columns (lambda_m,alpha), got {len(fields)}: {row!r}"
                )
            try:
                lam, alpha = float(fields[0]), float(fields[1])
            except ValueError:
                raise InvalidParameterError(f"not numeric: {row!r}") from None
            if not (previous < lam < math.inf and 0 < alpha < math.inf):
                # name the first check the row fails
                require_positive("lambda", lam)
                require_positive("alpha", alpha)
                raise InvalidParameterError(f"lambda {lam!r} does not increase past {previous!r}")
        except InvalidParameterError as exc:
            raise ConfigError(f"{path}: line {line_no}: {exc}") from None
        lambdas.append(lam)
        alphas.append(alpha)
        previous = lam
    if len(lambdas) < 2:
        raise ConfigError(f"{path}: needs at least 2 data rows, found {len(lambdas)}")
    return Curve(lambdas, alphas, source=path)
