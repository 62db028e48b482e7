import configparser
import contextlib
import hashlib
import inspect
import io
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plateforces import (
    ConfigError,
    InvalidParameterError,
    ResultTable,
    ingest_prior_bounds,
    load_config,
    parse_length,
)
from plateforces.casimir import casimir_zero_t
from plateforces.cli import main
from plateforces.core import BOX, MaterialLayer, PlateGeometry, PlateStack, box_range
from plateforces.config import _ABSENT, _KEYS, ExperimentConfig, _number
from plateforces.exclusion import Curve
from plateforces.gravity import PlatePairConfig
from conftest import BASELINE_CONFIG_PATH, REPO_ROOT, with_fields
from oracles import prior_reference

GOOD = textwrap.dedent(
    """\
    [geometry]
    length = 0.10 m
    width = 12 cm

    [stack_a]
    layer_0 = gold, 19.3e3, 10 um
    layer_1 = glass, 3.0e3, 15 mm

    [stack_b]
    layer_0 = glass, 3.0e3, 15 mm

    [gap]
    separation = 5 um
    temperature = 300

    [electrostatic]
    stray_voltage = 0.1

    [wire]
    material = tungsten
    diameter = 50 um
    length = 0.5 m

    [balance]
    torque_sensitivity = 1e-6
    arm_length = 0.1 m
    min_displacement = 1 nm

    [resolution]
    force_resolution = 1e-12
    """
)


# the quantity in core.BOX of each _KEYS key; None for a name
KEY_QUANTITIES = {
    ("geometry", "length"): "length",
    ("geometry", "width"): "length",
    ("gap", "separation"): "length",
    ("gap", "temperature"): "temperature",
    ("thermal", "reduction_factor"): "reduction_factor",
    ("electrostatic", "stray_voltage"): "voltage",
    ("wire", "material"): None,
    ("wire", "shear_modulus"): "shear_modulus",
    ("wire", "diameter"): "diameter",
    ("wire", "length"): "length",
    ("balance", "torque_sensitivity"): "torque_sensitivity",
    ("balance", "arm_length"): "length",
    ("balance", "min_displacement"): "length",
    ("tilt", "angle"): "angle",
    ("tilt", "plate_length_along_tilt"): "length",
    ("resolution", "force_resolution"): "force",
    ("yukawa", "alpha"): "alpha",
    ("yukawa", "lambda"): "length",
}


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseLength:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("5 um", 5e-6),
            ("5um", 5e-6),
            ("5 µm", 5e-6),
            ("0.3um", 0.3e-6),
            ("15 mm", 15e-3),
            ("12 cm", 0.12),
            ("1 nm", 1e-9),
            ("0.1 m", 0.1),
            ("1e-6", 1e-6),
            ("1.2e-3 um", 1.2e-9),
            # the number alone overflows a double; shifted by its unit it does not
            ("1e309 nm", 1e300),
            # 1 + 2**-53 exactly, the tie between 1 and the next double
            ("1.00000000000000011102230246251565404236316680908203125", 1.0),
            # exponents with more leading zeros than int() reads digits
            pytest.param("1e" + "0" * 5000 + "5 um", 0.1, id="zero-padded-exponent"),
            pytest.param("1e+" + "0" * 5000 + "5 um", 0.1, id="zero-padded-plus-exponent"),
            pytest.param("1e-" + "0" * 5000 + "1 m", 0.1, id="zero-padded-minus-exponent"),
            pytest.param("1e-" + "0" * 5000 + " cm", 0.01, id="zero-padded-zero-exponent"),
        ],
    )
    def test_units(self, text, expected):
        assert parse_length(text) == expected

    # the Greek letter mu (U+03BC) is not the micro sign (U+00B5)
    @pytest.mark.parametrize("text", ["", "abc", "5 parsec", "1 2 m", "5 \u03bcm", "5\u03bcm"])
    def test_rejects_garbage(self, text):
        with pytest.raises(InvalidParameterError):
            parse_length(text)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1e9999999", math.inf),
            ("1e99999999 um", math.inf),
            ("-1e9999999 nm", -math.inf),
            ("1e-9999999 m", 0.0),
            ("1e-320 um", 0.0),
            # exponents with more digits than int() reads
            pytest.param("1e" + "9" * 5000 + " um", math.inf, id="long-exponent-inf"),
            pytest.param("-1e-" + "9" * 5000 + " nm", -0.0, id="long-exponent-zero"),
        ],
    )
    def test_length_past_double_range_is_inf_or_zero(self, text, expected):
        assert parse_length(text) == expected


class TestLoadConfig:
    def test_shipped_baseline(self, baseline_config):
        config = baseline_config
        assert config.plates.geometry.length == 0.10
        assert config.plates.geometry.width == 0.12
        assert config.plates.stack_a.layers[0].name == "gold"
        assert config.plates.stack_a.layers[0].density == 19.3e3
        assert config.plates.stack_a.layers[0].thickness == 1e-5
        assert config.plates.stack_a.layers[1].thickness == 15e-3
        assert config.plates.gap.separation == 5e-6
        assert config.plates.gap.temperature == 300.0
        assert config.thermal.reduction_factor == 1.0
        assert config.stray_voltage == 0.1
        assert config.wire.material == "tungsten"
        assert config.wire.shear_modulus == 1.61e11
        assert config.wire.diameter == 50e-6
        assert config.balance.torque_sensitivity == 1e-6
        assert config.balance.min_displacement == 1e-9
        assert config.tilt.angle == 1e-6
        assert config.tilt.plate_length_along_tilt == 0.12
        assert config.force_resolution == 1e-12
        assert config.yukawa.alpha == 1.0
        assert config.yukawa.lam == 1e-5

    def test_hash_is_of_file_bytes(self, baseline_config):
        expected = hashlib.sha256(BASELINE_CONFIG_PATH.read_bytes()).hexdigest()
        assert baseline_config.source_sha256 == expected

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xef\xbb\xbf" + BASELINE_CONFIG_PATH.read_bytes(),
            (GOOD.replace("5 um", "5 \u00b5m") + "# plaques dor\u00e9es\n").encode("utf-8"),
        ],
        ids=["byte-order-mark", "non-ascii"],
    )
    def test_hash_of_marked_or_non_ascii_file_matches_hashlib(self, tmp_path, raw):
        # hashlib is the oracle for the builtin SHA-256 the loader uses
        path = tmp_path / "exp.ini"
        path.write_bytes(raw)
        assert load_config(str(path)).source_sha256 == hashlib.sha256(raw).hexdigest()

    def test_hash_falls_back_to_hashlib_without_a_builtin_sha256(self, baseline_config):
        # None in sys.modules makes an import fail, as on a build without them
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
             "from plateforces import load_config; "
             f"print(load_config({str(BASELINE_CONFIG_PATH)!r}).source_sha256, "
             "'hashlib' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [baseline_config.source_sha256, "True"]

    def test_optional_sections_defaulted(self, tmp_path):
        config = load_config(write(tmp_path, GOOD))
        assert config.thermal.reduction_factor == 1.0
        assert config.tilt.angle == 1e-6
        # the tilt default spans the wider plate side
        assert config.tilt.plate_length_along_tilt == config.plates.geometry.width
        assert config.yukawa.alpha == 1.0
        assert config.yukawa.lam == 1e-5

    def test_derived_views(self, tmp_path):
        config = load_config(write(tmp_path, GOOD))
        pair = config.plates
        assert pair.geometry.area() == 0.10 * 0.12
        assert pair.gap.separation == 5e-6
        # the facing layers the exclusion scan reads
        facing_a, facing_b = pair.stack_a.layers[0], pair.stack_b.layers[0]
        assert (facing_a.density, facing_b.density) == (19.3e3, 3.0e3)
        assert (facing_a.thickness, facing_b.thickness) == (1e-5, 15e-3)

    def test_missing_section_named(self, tmp_path):
        broken = GOOD.replace("[gap]\nseparation = 5 um\ntemperature = 300\n", "")
        with pytest.raises(ConfigError, match=r"\[gap\]"):
            load_config(write(tmp_path, broken))

    def test_missing_key_named(self, tmp_path):
        broken = GOOD.replace("separation = 5 um\n", "")
        with pytest.raises(ConfigError, match="separation"):
            load_config(write(tmp_path, broken))

    def test_bad_number_named(self, tmp_path):
        broken = GOOD.replace("temperature = 300", "temperature = warm")
        with pytest.raises(ConfigError, match="temperature"):
            load_config(write(tmp_path, broken))

    def test_nonpositive_rejected_as_config_error(self, tmp_path):
        broken = GOOD.replace("separation = 5 um", "separation = -5 um")
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, broken))

    @pytest.mark.parametrize("key,text", [("alpha", "inf"), ("alpha", "nan"), ("lambda", "inf um")])
    def test_non_finite_yukawa_named(self, tmp_path, key, text):
        yukawa = {"alpha": "1.0", "lambda": "10 um", key: text}
        extended = GOOD + f"\n[yukawa]\nalpha = {yukawa['alpha']}\nlambda = {yukawa['lambda']}\n"
        with pytest.raises(ConfigError, match=rf"\[yukawa\] {key}: must lie in "):
            load_config(write(tmp_path, extended))

    @pytest.mark.parametrize(
        "section,key,text",
        [
            ("resolution", "force_resolution", "-1e-12"),
            ("resolution", "force_resolution", "0"),
            ("resolution", "force_resolution", "nan"),
            ("resolution", "force_resolution", "inf"),
            ("electrostatic", "stray_voltage", "-0.1"),
            ("electrostatic", "stray_voltage", "nan"),
            ("electrostatic", "stray_voltage", "inf"),
            ("electrostatic", "stray_voltage", "-inf"),
        ],
    )
    def test_out_of_range_numbers_named(self, tmp_path, section, key, text):
        good = {"force_resolution": "1e-12", "stray_voltage": "0.1"}[key]
        broken = GOOD.replace(f"{key} = {good}", f"{key} = {text}")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: must lie in "):
            load_config(write(tmp_path, broken))

    def test_zero_stray_voltage_allowed(self, tmp_path):
        compensated = GOOD.replace("stray_voltage = 0.1", "stray_voltage = 0")
        assert load_config(write(tmp_path, compensated)).stray_voltage == 0.0

    @pytest.mark.parametrize(
        "section, line, bad",
        [
            ("gap", "separation = 5 um", "separation = five"),
            ("balance", "arm_length = 0.1 m", "arm_length = ten"),
            ("tilt", "plate_length_along_tilt = 0.1 m", "plate_length_along_tilt = ten"),
        ],
        ids=["gap", "balance", "tilt"],
    )
    def test_unparsable_length_named(self, tmp_path, section, line, bad):
        text = GOOD + "\n[tilt]\nangle = 1e-6\nplate_length_along_tilt = 0.1 m\n"
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: cannot parse length"):
            load_config(write(tmp_path, text.replace(line, bad)))

    def test_length_out_of_range_named(self, tmp_path):
        broken = GOOD.replace("separation = 5 um", "separation = 1e9999999 um")
        message = r"^\[gap\] separation: must lie in \[1e-10, 1e\+06\] m, got inf$"
        with pytest.raises(ConfigError, match=message):
            load_config(write(tmp_path, broken))

    def test_layer_numbering_must_be_dense(self, tmp_path):
        broken = GOOD.replace("layer_1 = glass", "layer_2 = glass")
        with pytest.raises(ConfigError, match="without gaps"):
            load_config(write(tmp_path, broken))

    def test_layer_key_with_a_leading_zero_refused(self, tmp_path):
        broken = GOOD.replace("layer_1 = glass", "layer_01 = glass")
        message = r"^\[stack_a\]: keys must run layer_0, .* without gaps"
        with pytest.raises(ConfigError, match=message):
            load_config(write(tmp_path, broken))

    def test_layer_field_count_checked(self, tmp_path):
        broken = GOOD.replace("layer_0 = glass, 3.0e3, 15 mm", "layer_0 = glass, 3.0e3")
        with pytest.raises(ConfigError, match="layer_0"):
            load_config(write(tmp_path, broken))

    def test_unknown_wire_material_needs_modulus(self, tmp_path):
        broken = GOOD.replace("material = tungsten", "material = unobtainium")
        with pytest.raises(ConfigError, match="shear_modulus"):
            load_config(write(tmp_path, broken))
        fixed = GOOD.replace(
            "material = tungsten", "material = unobtainium\nshear_modulus = 5e10"
        )
        assert load_config(write(tmp_path, fixed)).wire.shear_modulus == 5e10

    @pytest.mark.parametrize(
        "section, line, misspelt",
        [
            ("geometry", "width = 12 cm", "width = 12 cm\nheight = 1 mm"),
            ("gap", "temperature = 300", "temperature = 300\ntemprature = 4"),
            ("electrostatic", "stray_voltage = 0.1", "stray_voltage = 0.1\nstray_volts = 1"),
            ("wire", "length = 0.5 m", "length = 0.5 m\nshear_modulos = 5e10"),
            ("resolution", "force_resolution = 1e-12", "force_resolution = 1e-12\nfloor = 1"),
        ],
        ids=["geometry", "gap", "electrostatic", "wire", "resolution"],
    )
    def test_unknown_key_refused(self, tmp_path, section, line, misspelt):
        broken = GOOD.replace(line, misspelt)
        key = misspelt.splitlines()[-1].split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: unknown key$"):
            load_config(write(tmp_path, broken))

    @pytest.mark.parametrize(
        "section",
        [
            "[tilt]\nangle = 1e-6\nplate_lenght_along_tilt = 0.05 m",
            "[yukawa]\nalpha = 1\nlambda = 10 um\nlambda_max = 1 m",
            "[thermal]\nreduction_factor = 1\neta = 0.5",
        ],
        ids=["tilt", "yukawa", "thermal"],
    )
    def test_unknown_key_in_an_optional_section_refused(self, tmp_path, section):
        name, *_, last = section.splitlines()
        key = last.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^\{name[:-1]}\] {key}: unknown key$"):
            load_config(write(tmp_path, GOOD + "\n" + section + "\n"))

    @pytest.mark.parametrize("section", ["yukwa", "DEFAULT"])
    def test_unknown_section_refused(self, tmp_path, section):
        # a [DEFAULT] would otherwise hand its keys to every section
        extended = GOOD + f"\n[{section}]\nalpha = 1e3\n"
        with pytest.raises(ConfigError, match=rf"^\[{section}\]: unknown section$"):
            load_config(write(tmp_path, extended))

    @pytest.mark.parametrize(
        "edits, message",
        [
            # a key's parse error, before a later key that spans lines
            (
                [("width = 12 cm", "width = x\nnote = a\n  b")],
                "[geometry] width: cannot parse length 'x'",
            ),
            # a section's record is checked before its unknown keys
            (
                [("width = 12 cm", "width = -1 m\nheight = 1 mm")],
                "[geometry] width: must lie in [1e-10, 1e+06] m, got -1.0",
            ),
            # the material is looked up before the diameter is read
            (
                [("material = tungsten", "material = unobtainium"), ("50 um", "5 um")],
                "[wire] material: unknown material 'unobtainium' (known: quartz, tungsten); "
                "set shear_modulus explicitly",
            ),
            # the stray voltage is checked once every section is read
            (
                [("stray_voltage = 0.1", "stray_voltage = -1"), ("50 um", "5 um")],
                "[wire] diameter: must lie in [1e-05, 0.001] m, got 5e-06",
            ),
            # a present [tilt] must set its angle
            (
                [("force_resolution = 1e-12", "force_resolution = 1e-12\n\n"
                  "[tilt]\nplate_length_along_tilt = ten")],
                "[tilt] angle: missing",
            ),
            # layer keys in any file order are read in index order
            (
                [("layer_0 = gold, 19.3e3, 10 um\nlayer_1 = glass, 3.0e3, 15 mm",
                  "layer_1 = glass, 3.0e3, 15 mm\nlayer_0 = gold, 19.3e3, 10 um")],
                None,
            ),
        ],
        ids=["parse-before-lines", "range-before-unknown", "material-before-diameter",
             "wire-before-stray-voltage", "tilt-angle-missing", "layers-reordered"],
    )
    def test_first_defect_reported(self, tmp_path, edits, message):
        text = GOOD
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        path = write(tmp_path, text)
        if message is None:
            layers = load_config(path).plates.stack_a.layers
            assert [layer.name for layer in layers] == ["gold", "glass"]
            return
        with pytest.raises(ConfigError) as raised:
            load_config(path)
        assert str(raised.value) == message

    def test_readme_lists_every_key(self):
        kinds = {parse_length: "length", _number: "number", str.lower: "name"}
        table = {
            (section, key): kinds[read]
            for section, (_, keys) in _KEYS.items()
            for key, read in (keys or {}).items()
        }
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| (\w+) \| (.*?) \| (.*) \|$", readme, re.M)
        assert {(section, key): kind for section, key, kind, _, _ in rows} == table
        assert len(rows) == len(table)
        # each key's Range is the box of its quantity in core.BOX
        assert set(KEY_QUANTITIES) == set(table)
        ranges = {(section, key): box for section, key, _, box, _ in rows}
        assert ranges == {
            key: "any" if quantity is None else box_range(quantity)
            for key, quantity in KEY_QUANTITIES.items()
        }
        layers = f"density in {box_range('density')} and the thickness in\n{box_range('length')}."
        assert layers in readme
        defaults = {(section, key): default for section, key, _, _, default in rows}
        for section, keys in _ABSENT.items():
            for key, text in keys.items():
                assert defaults[section, key] == f"`{text}`"

    def test_inline_comments_ignored(self, tmp_path):
        commented = GOOD.replace("separation = 5 um", "separation = 5 um  # nominal")
        assert load_config(write(tmp_path, commented)).plates.gap.separation == 5e-6

    def test_not_ini_at_all(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "just some words\nwithout sections\n"))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "nope.ini"))


def _edges(quantity: str) -> list[tuple[float, bool]]:
    """(value, accepted) at each edge of the quantity's box: both ends, the
    next double outside each, nan, 0, and alpha's negative ends."""
    lo, hi, _, zero = BOX[quantity]
    edges = [(lo, True), (hi, True), (math.nextafter(lo, -math.inf), False),
             (math.nextafter(hi, math.inf), False), (math.nan, False), (0.0, zero)]
    if quantity == "alpha":
        edges += [(-lo, True), (-hi, True), (math.nextafter(-lo, 0.0), False),
                  (math.nextafter(-hi, -math.inf), False)]
    return edges


# (route, where, quantity): a config key, a layer field, a flag (its
# command and the keyword its errors name) or a physics function argument
BOX_ROUTES = [
    *(("config", key, quantity) for key, quantity in KEY_QUANTITIES.items() if quantity),
    ("layer", "density", "density"),
    ("layer", "thickness", "length"),
    ("flag", ("forces", "--gap", "separation"), "length"),
    ("flag", ("exclusion", "--lambda-min", "lambda_min"), "length"),
    ("flag", ("exclusion", "--lambda-max", "lambda_max"), "length"),
    ("flag", ("exclusion", "--thickness", "thickness"), "length"),
    ("function", "area", "area"),
]
BOX_EDGES = [
    (route, where, quantity, value, accepted)
    for route, where, quantity in BOX_ROUTES
    for value, accepted in _edges(quantity)
]


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _edge_id(route, where, value) -> str:
    name = "[{}] {}".format(*where) if route == "config" else where[1] if route == "flag" else where
    return f"{route}-{name}-{value!r}"


@pytest.mark.parametrize(
    "route, where, quantity, value, accepted", BOX_EDGES,
    ids=[_edge_id(route, where, value) for route, where, _, value, _ in BOX_EDGES],
)
def test_box_edges(tmp_path, route, where, quantity, value, accepted):
    # a value is accepted from lo to hi (and at 0 where the box allows it)
    # and refused just outside, by name: a config key exits 2 naming
    # [section] key, a flag exits 3 naming its keyword
    refusal = f"must lie in {box_range(quantity)}, got {value!r}"
    length = "" if quantity != "length" else " m"
    if route == "function":
        if accepted:
            assert casimir_zero_t(value, 5e-6) > 0.0
        else:
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(f'{where}: {refusal}')}$"):
                casimir_zero_t(value, 5e-6)
        return
    if route == "flag":
        command, flag, name = where
        points = ["--points", "2"] if command == "exclusion" else []
        out = ["--out", str(tmp_path / "out.csv")]
        code, err = _run([command, "--config", str(BASELINE_CONFIG_PATH), flag, repr(value), *points, *out])
        if accepted:
            # a --lambda-min at the top of the box leaves a degenerate scan
            assert code in (0, 3) and "must lie in" not in err, err
        else:
            assert (code, err) == (3, f"domain error: {name}: {refusal}\n")
        return
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(BASELINE_CONFIG_PATH)
    if route == "layer":
        fields = {"density": "19.3e3", "thickness": "10 um", where: f"{value!r}{length}"}
        section, key, text = "stack_a", "layer_0", f"gold, {fields['density']}, {fields['thickness']}"
        refusal = f"{where}: {refusal}"
    else:
        (section, key), text = where, f"{value!r}{length}"
    parser[section][key] = text
    path = tmp_path / "exp.ini"
    with open(path, "w") as handle:
        parser.write(handle)
    if accepted:
        load_config(str(path))
    else:
        code, err = _run(["budget", "--config", str(path), "--out", str(tmp_path / "out.csv")])
        assert (code, err) == (2, f"config error: [{section}] {key}: {refusal}\n")


class TestExperimentConfigInvariants:
    """A record built in code is checked as strictly as a parsed file."""

    def test_records_take_every_field(self):
        # what an omitted section or key reads as is said only in _ABSENT
        # and _DERIVED, never by a record's parameter default; a curve's
        # source and a table's metadata and warnings are always given
        records = {record for record, _ in _KEYS.values() if isinstance(record, type)}
        records -= {float}
        records |= {MaterialLayer, PlateStack, PlatePairConfig, ExperimentConfig, Curve, ResultTable}
        assert len(records) == 13
        for record in records:
            parameters = inspect.signature(record).parameters.values()
            assert [p.name for p in parameters if p.default is not p.empty] == [], record

    @pytest.mark.parametrize("value", [0.0, -1e-12, math.nan, math.inf])
    def test_force_resolution_must_be_finite_and_positive(self, baseline_config, value):
        with pytest.raises(
            InvalidParameterError, match=r"^\[resolution\] force_resolution: must lie in \[1e-30, 1\] N, got "
        ):
            with_fields(baseline_config, force_resolution=value)

    def test_negative_stray_voltage_refused(self, baseline_config):
        with pytest.raises(
            InvalidParameterError,
            match=r"^\[electrostatic\] stray_voltage: must lie in 0 or \[1e-12, 1000\] V, got -0.1$",
        ):
            with_fields(baseline_config, stray_voltage=-0.1)

    def test_area_that_overflows_refused(self, baseline_config):
        # sides whose area would overflow are outside the box; two sides in
        # it give an area in the area box, so no config checks the product
        with pytest.raises(InvalidParameterError, match=r"^length: must lie in .* got 1e\+200$"):
            PlateGeometry(1e200, 1e200)
        for side in BOX["length"][:2]:
            geometry = PlateGeometry(side, side)
            assert BOX["area"][0] <= geometry.area() <= BOX["area"][1]
            with_fields(baseline_config, plates=with_fields(baseline_config.plates, geometry=geometry))


class TestIngestPriorBounds:
    def test_good_file(self, tmp_path):
        path = write(
            tmp_path,
            "# source: earlier survey\nlambda_m,alpha\n1e-6,1e8\n1e-5,1e4\n1e-4,1e2\n",
            "prior.csv",
        )
        prior = ingest_prior_bounds(path)
        assert prior.lambdas == array("d", (1e-6, 1e-5, 1e-4))
        assert prior.alphas == array("d", (1e8, 1e4, 1e2))
        assert prior.source == path

    def test_readme_example(self, tmp_path):
        readme = (REPO_ROOT / "README.md").read_text()
        section = readme.split("\n### Prior bounds file\n", 1)[1]
        path = write(tmp_path, section.split("\n```\n", 1)[1].split("```", 1)[0], "prior.csv")
        prior = ingest_prior_bounds(path)
        assert prior.lambdas == array("d", (1e-6, 1e-5, 1e-4))
        assert prior.alphas == array("d", (1e8, 1e4, 1e2))

    def test_non_monotone_names_line(self, tmp_path):
        path = write(tmp_path, "1e-6,1e8\n1e-6,1e4\n", "prior.csv")
        with pytest.raises(ConfigError, match="line 2"):
            ingest_prior_bounds(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = write(tmp_path, "1e-6,1e8\n1e-5,1e4,extra\n", "prior.csv")
        with pytest.raises(ConfigError, match="line 2"):
            ingest_prior_bounds(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = write(tmp_path, "1e-6,1e8\nten,1e4\n", "prior.csv")
        with pytest.raises(ConfigError, match="line 2"):
            ingest_prior_bounds(path)

    def test_nonpositive_alpha_names_line(self, tmp_path):
        path = write(tmp_path, "1e-6,1e8\n1e-5,-3\n", "prior.csv")
        with pytest.raises(ConfigError, match="line 2"):
            ingest_prior_bounds(path)

    @pytest.mark.parametrize(
        "row", ["inf,1e4", "1e-5,inf", "nan,1e4", "1e-5,nan"],
        ids=["lambda-inf", "alpha-inf", "lambda-nan", "alpha-nan"],
    )
    def test_non_finite_names_line(self, tmp_path, row):
        path = write(tmp_path, f"1e-6,1e8\n{row}\n", "prior.csv")
        with pytest.raises(ConfigError, match="line 2: .* finite"):
            ingest_prior_bounds(path)

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path, "lambda_m,alpha\n", "prior.csv")
        with pytest.raises(ConfigError, match="data rows"):
            ingest_prior_bounds(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ingest_prior_bounds(str(tmp_path / "nope.csv"))

    def test_non_utf8_file_names_path(self, tmp_path):
        # a UTF-16 byte-order mark is not valid UTF-8
        path = tmp_path / "prior.csv"
        path.write_bytes(b"\xff\xfe1\x00e\x00")
        with pytest.raises(ConfigError, match=f"{path}: not valid UTF-8"):
            ingest_prior_bounds(str(path))

    def test_non_utf8_byte_past_8_kib_names_its_file_offset(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_bytes(b"#" + b"a" * 20_999 + b"\xff\n1e-6,1\n1e-5,2\n")
        with pytest.raises(ConfigError, match="in position 21000: invalid start byte"):
            ingest_prior_bounds(str(path))


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
@pytest.mark.parametrize(
    "read,name,head",
    [(load_config, "exp.ini", b"[geometry]\nlength = 0.1 m"), (ingest_prior_bounds, "prior.csv", b"1e-6,1\n")],
    ids=["config", "prior"],
)
def test_non_utf8_byte_is_named_by_its_file_offset(tmp_path, read, name, head, mark):
    # a leading byte-order mark counts toward the offset like any other byte
    path = tmp_path / name
    path.write_bytes(mark + head + b"\xff\n")
    message = f"{path}: not valid UTF-8: .* in position {len(mark + head)}: invalid start byte"
    with pytest.raises(ConfigError, match=message):
        read(str(path))


class TestPriorOnePass:
    """One walk over the lines reads a prior as the line-by-line reference does."""

    def test_bench_prior(self, bench, tmp_path):
        _, inputs = bench
        prior = inputs.make_prior(random.Random(401), str(tmp_path / "prior.csv"))
        with open(prior.path, "w", encoding="utf-8") as handle:
            handle.write(prior.text)
        expected = prior_reference(prior.path)
        assert len(expected.lambdas) == inputs.PRIOR_ROWS
        assert ingest_prior_bounds(prior.path) == expected

    def test_golden_fixture(self):
        path = str(REPO_ROOT / "tests" / "golden" / "prior_fixture.csv")
        assert ingest_prior_bounds(path) == prior_reference(path)

    def test_fillers_between_rows(self, tmp_path):
        text = "1e-6,1e8\n\n# mid\n lambda_m , alpha\n1e-5,1e4\n  # end\n1e-4,1e2\nlambda_m,alpha\n"
        path = write(tmp_path, text, "prior.csv")
        prior = ingest_prior_bounds(path)
        assert prior == prior_reference(path)
        assert prior.lambdas == array("d", (1e-6, 1e-5, 1e-4))


# lines that hold no row, two near-headers that are refused, and value texts
# that are not a positive double
PRIOR_FILLERS = [
    "", "  ", "\t", "# survey", "#1e-6,1", "  # x, y", "lambda_m,alpha", " lambda_m , alpha ",
    "lambda_m,alpha,", "lambda,alpha",
]
ODD_VALUES = ["inf", "-inf", "nan", "0", "-0", "-1e-6", "", "x", "1_0", "1e400", "1e-400", "1e-6 1"]
PADS = ["", "", " ", "\t", " \t "]


@st.composite
def prior_texts(draw) -> str:
    """A prior file's text: mostly increasing rows of two positive values,
    with fillers before, between and after them, odd values and column
    counts, and every line end the reader takes."""

    def rarely(strategy, usual):
        return draw(strategy) if draw(st.integers(0, 15)) == 15 else usual

    lines = draw(st.lists(st.sampled_from(PRIOR_FILLERS), max_size=3))
    lam = 1e-6
    for _ in range(draw(st.integers(0, 6))):
        # x1 repeats the lambda before and x0.5 goes back
        lam *= rarely(st.sampled_from([1.0, 0.5]), draw(st.sampled_from([10.0, 3.0])))
        lam_text = rarely(st.sampled_from(ODD_VALUES), repr(lam))
        alpha = draw(st.sampled_from(["1e8", "25.5", "1_0", "3e-300"]))
        alpha_text = rarely(st.sampled_from(ODD_VALUES), alpha)
        pad = st.sampled_from(PADS)
        fields = [draw(pad) + text + draw(pad) for text in (lam_text, alpha_text)]
        fields += rarely(st.sampled_from([[""], ["7"], ["", ""]]), [])
        lines.append(",".join(rarely(st.just(fields[:1]), fields)))
        lines += rarely(st.sampled_from(PRIOR_FILLERS).map(lambda filler: [filler]), [])
    lines += draw(st.lists(st.sampled_from(PRIOR_FILLERS), max_size=1))
    ends = draw(st.sampled_from([["\n"], ["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]]))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return draw(st.sampled_from(["", "", "\ufeff"])) + text


def _read(reader, path):
    try:
        return reader(path)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=prior_texts())
# an inf alpha, which Curve takes; rows of 1 and 3 columns whose fields pair up
@example(text="1e-6,1e8\n1e-5,inf\n")
@example(text="1e-6\n1,1e-5,2\n")
# fillers between every row, a bad row right after a comment, a header after the last row
@example(text="\n1e-6,1e8\n# a\n1e-5,1e4\n lambda_m , alpha \n1e-4,1e2\n\t\n1e-3,1\n  # z\n")
@example(text="1e-6,1e8\n# survey\n1e-5,-1e4\n1e-4,1e2\n")
@example(text="1e-6,1e8\n1e-5,1e4\nlambda_m,alpha")
# a row that fails every value check: lambda is named first
@example(text="1e-6,1e8\n-1,nan\n")
def test_prior_reader_matches_line_by_line_reference(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "oracle_prior.csv"
    path.write_bytes(text.encode("utf-8"))
    got, expected = _read(ingest_prior_bounds, str(path)), _read(prior_reference, str(path))
    assert type(got) is type(expected)
    assert got == expected
