import hashlib
import math
import os
import subprocess
import sys
import textwrap

import pytest

from plateforces import (
    ConfigError,
    InvalidParameterError,
    PlateGeometry,
    ingest_prior_bounds,
    load_config,
    parse_length,
)
from conftest import BASELINE_CONFIG_PATH, with_fields

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

    @pytest.mark.parametrize("text", ["", "abc", "5 parsec", "1 2 m"])
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
        with pytest.raises(ConfigError, match=rf"\[yukawa\] {key}: must be finite"):
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
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: must be finite"):
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
        with pytest.raises(ConfigError, match=r"^\[gap\] separation: must be finite and > 0, got inf$"):
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

    def test_inline_comments_ignored(self, tmp_path):
        commented = GOOD.replace("separation = 5 um", "separation = 5 um  # nominal")
        assert load_config(write(tmp_path, commented)).plates.gap.separation == 5e-6

    def test_not_ini_at_all(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "just some words\nwithout sections\n"))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "nope.ini"))


class TestExperimentConfigInvariants:
    """A record built in code is checked as strictly as a parsed file."""

    @pytest.mark.parametrize("value", [0.0, -1e-12, math.nan, math.inf])
    def test_force_resolution_must_be_finite_and_positive(self, baseline_config, value):
        with pytest.raises(
            InvalidParameterError, match=r"\[resolution\] force_resolution: must be finite and > 0"
        ):
            with_fields(baseline_config, force_resolution=value)

    def test_negative_stray_voltage_refused(self, baseline_config):
        with pytest.raises(
            InvalidParameterError, match=r"\[electrostatic\] stray_voltage: must be finite and >= 0"
        ):
            with_fields(baseline_config, stray_voltage=-0.1)

    def test_area_that_overflows_refused(self, baseline_config):
        plates = with_fields(baseline_config.plates, geometry=PlateGeometry(1e200, 1e200))
        with pytest.raises(InvalidParameterError, match=r"\[geometry\] length and width: .* got inf m\^2"):
            with_fields(baseline_config, plates=plates)


class TestIngestPriorBounds:
    def test_good_file(self, tmp_path):
        path = write(
            tmp_path,
            "# source: earlier survey\nlambda_m,alpha\n1e-6,1e8\n1e-5,1e4\n1e-4,1e2\n",
            "prior.csv",
        )
        prior = ingest_prior_bounds(path)
        assert prior.lambdas == (1e-6, 1e-5, 1e-4)
        assert prior.alphas == (1e8, 1e4, 1e2)
        assert prior.source == path

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
