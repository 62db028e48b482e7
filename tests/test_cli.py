import math
import os
import subprocess
import sys

import pytest

from plateforces import ResultTable
from plateforces.cli import cmd_exclusion, cmd_forces, main
from plateforces.exclusion import MAX_SCAN_POINTS
from plateforces import (
    alpha_bound,
    casimir_zero_t,
    min_detectable_force,
    stack_newton,
    torsion_constant,
)
from conftest import BASELINE_CONFIG_PATH, REPO_ROOT

BASELINE = str(BASELINE_CONFIG_PATH)
PRIOR = str(REPO_ROOT / "tests" / "golden" / "prior_fixture.csv")


def run(argv, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def run_fresh(argv):
    """The CLI in a fresh process, so a traceback would show on its stderr."""
    return subprocess.run(
        [sys.executable, "-m", "plateforces.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


class TestForcesCommand:
    def test_rows_match_library(self, tmp_path, baseline_config):
        code, out = run(
            ["forces", "--config", BASELINE, "--gap", "5 um", "--gap", "10 um"],
            tmp_path,
        )
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert table.columns[0] == "gap_m"
        assert len(table.rows) == 2
        by_gap = {row[0]: row for row in table.rows}
        area = baseline_config.geometry.area()
        assert by_gap[5e-6][1] == casimir_zero_t(area, 5e-6)
        assert by_gap[1e-5][4] == stack_newton(baseline_config.plate_pair())
        # newton entry repeats identically at every gap
        assert by_gap[5e-6][4] == by_gap[1e-5][4]
        # 5 um sits exactly at the thermal trust gap: trusted
        assert by_gap[5e-6][6] == 1.0

    def test_default_gap_is_config_gap(self, tmp_path):
        code, out = run(["forces", "--config", BASELINE], tmp_path)
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert len(table.rows) == 1
        assert table.rows[0][0] == 5e-6

    def test_empty_gap_list_gives_header_only(self, baseline_config):
        table = cmd_forces(baseline_config, gaps=[])
        assert table.rows == ()
        assert table.columns[0] == "gap_m"

    def test_untrusted_gap_flagged(self, baseline_config):
        table = cmd_forces(baseline_config, gaps=[1e-6])
        assert table.rows[0][6] == 0.0
        assert any("trust" in w for w in table.warnings)

    def test_metadata_identifies_inputs(self, tmp_path, baseline_config):
        code, out = run(["forces", "--config", BASELINE], tmp_path)
        table = ResultTable.from_csv(out.read_text())
        meta = dict(table.metadata)
        assert meta["constants"] == "CODATA-2018"
        assert meta["config_sha256"] == baseline_config.source_sha256
        assert meta["eta"] == "1"
        assert "positive magnitudes" in meta["sign_convention"]


    def test_patch_warning_present(self, baseline_config):
        table = cmd_forces(baseline_config, gaps=[1e-6, 5e-6])
        assert [w for w in table.warnings if "patch" in w] == [table.warnings[-1]]


class TestBudgetCommand:
    def test_single_row_with_ratios(self, tmp_path, baseline_config):
        code, out = run(["budget", "--config", BASELINE], tmp_path)
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert len(table.rows) == 1
        row = dict(zip(table.columns, table.rows[0]))
        assert row["gap_m"] == 5e-6
        # stray electrostatics dwarf the zero-T signal roughly 850-fold
        assert row["ratio_electrostatic_casimir_zero_t_1"] == pytest.approx(
            851.3, rel=1e-3
        )
        assert row["ratio_total_casimir_resolution_1"] == pytest.approx(
            row["total_casimir_N"] / row["resolution_N"], rel=1e-12
        )
        assert row["total_casimir_N"] == pytest.approx(
            row["casimir_zero_t_N"] + row["thermal_N"], rel=1e-12
        )

    def test_patch_warning_present(self, tmp_path):
        code, out = run(["budget", "--config", BASELINE], tmp_path)
        table = ResultTable.from_csv(out.read_text())
        assert any("patch" in w for w in table.warnings)


class TestExclusionCommand:
    def test_long_format_and_ordering(self, baseline_config):
        table = cmd_exclusion(
            baseline_config, 1e-6, 1e-2, 50, thicknesses=(1e-6, 1e-5)
        )
        assert table.columns == ("thickness_m", "lambda_m", "alpha_1")
        # one block per thickness, in the order given, on one shared grid
        (thin, grid, thin_alphas), (thick, thick_grid, thick_alphas) = table.rows
        assert (thin, thick) == (1e-6, 1e-5)
        assert thick_grid is grid and len(grid) == len(thin_alphas) == 50
        assert len(ResultTable.from_csv(table.to_csv()).rows) == 100
        assert all(t > k for t, k in zip(thin_alphas, thick_alphas))

    def test_values_match_library(self, baseline_config):
        table = cmd_exclusion(baseline_config, 1e-6, 1e-2, 5, thicknesses=(1e-5,))
        # alpha_bound reads the facing layers as configured: 10 um gold on 10 um gold
        plates = baseline_config.plate_pair()
        assert plates.stack_a.layers[0].thickness == plates.stack_b.layers[0].thickness == 1e-5
        ((thickness, lambdas, alphas),) = table.rows
        assert thickness == 1e-5 and len(lambdas) == len(alphas) == 5
        for lam, alpha in zip(lambdas, alphas):
            assert alpha == alpha_bound(lam, plates, baseline_config.force_resolution)

    def test_improvement_column_against_prior(self, tmp_path, baseline_config):
        scan = cmd_exclusion(baseline_config, 1e-6, 1e-2, 20, thicknesses=(1e-5,))
        prior_path = tmp_path / "prior.csv"
        lines = ["lambda_m,alpha"]
        ((_, lambdas, alphas),) = scan.rows
        for lam, alpha in zip(lambdas, alphas):
            lines.append(f"{lam!r},{100.0 * alpha!r}")
        prior_path.write_text("\n".join(lines) + "\n")
        code, out = run(
            [
                "exclusion",
                "--config",
                BASELINE,
                "--points",
                "20",
                "--thickness",
                "10 um",
                "--prior",
                str(prior_path),
            ],
            tmp_path,
        )
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert table.columns[-1] == "improvement_1"
        for row in table.rows:
            assert row[-1] == pytest.approx(100.0, rel=1e-9)

    def test_overflowing_alpha_is_inf_with_one_warning(self, tmp_path):
        code, out = run(
            ["exclusion", "--config", BASELINE, "--lambda-min", "1e-9", "--points", "5"],
            tmp_path,
        )
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        unbounded = [row for row in table.rows if row[2] == math.inf]
        assert [row[1] for row in unbounded] == [table.rows[0][1]] * 4
        assert all(math.isfinite(row[2]) for row in table.rows if row[1] > 1e-9)
        (warning,) = table.warnings
        assert "4 rows" in warning and "1e-09" in warning

    def test_prior_knot_on_requested_lambda_min(self, tmp_path):
        # the grid starts at exactly 5e-6, so the prior's first knot covers it
        prior = tmp_path / "prior.csv"
        prior.write_text("5e-6,1e8\n1e-3,1e2\n")
        code, out = run(
            ["exclusion", "--config", BASELINE, "--lambda-min", "5 um",
             "--lambda-max", "1 mm", "--points", "4", "--thickness", "10 um",
             "--prior", str(prior)],
            tmp_path,
        )
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert table.rows[0][1] == 5e-6
        assert all(math.isfinite(row[-1]) for row in table.rows)

    def test_cli_flags_reach_scan(self, tmp_path):
        code, out = run(
            [
                "exclusion",
                "--config",
                BASELINE,
                "--lambda-min",
                "2 um",
                "--lambda-max",
                "1 mm",
                "--points",
                "7",
                "--thickness",
                "0.3 um",
                "--thickness",
                "3 um",
            ],
            tmp_path,
        )
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert len(table.rows) == 14
        lams = sorted({row[1] for row in table.rows})
        assert lams[0] == pytest.approx(2e-6, rel=1e-12)
        assert lams[-1] == pytest.approx(1e-3, rel=1e-12)


class TestSensitivityCommand:
    def test_row_matches_library(self, tmp_path, baseline_config):
        code, out = run(["sensitivity", "--config", BASELINE], tmp_path)
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        row = dict(zip(table.columns, table.rows[0]))
        assert row["kappa_wire_Nm_per_rad"] == torsion_constant(baseline_config.wire)
        assert row["f_min_balance_N"] == min_detectable_force(baseline_config.balance)
        assert row["f_min_balance_N"] == pytest.approx(1e-13, rel=1e-12)
        assert row["gap_variation_m"] == pytest.approx(1.2e-7, rel=1e-12)
        assert row["tilted_flat_ratio_1"] == pytest.approx(0.95385, rel=1e-4)
        assert row["resolution_met_1"] == 1.0


class TestExitCodes:
    def test_success(self, tmp_path):
        code, _ = run(["budget", "--config", BASELINE], tmp_path)
        assert code == 0

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["budget", "--config", str(tmp_path / "ghost.ini")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[geometry]\nlength = ten meters\n")
        code = main(["budget", "--config", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_plate_contact_tilt(self, tmp_path, capsys):
        text = BASELINE_CONFIG_PATH.read_text().replace(
            "angle = 1e-6", "angle = 1e-1"
        )
        contact = tmp_path / "contact.ini"
        contact.write_text(text)
        code = main(["sensitivity", "--config", str(contact)])
        assert code == 3
        assert "domain error" in capsys.readouterr().err

    def test_degenerate_scan(self, capsys):
        code = main(
            [
                "exclusion",
                "--config",
                BASELINE,
                "--lambda-min",
                "1 um",
                "--lambda-max",
                "1 um",
            ]
        )
        assert code == 3

    def test_too_many_points(self, capsys):
        code = main(
            ["exclusion", "--config", BASELINE, "--points", str(MAX_SCAN_POINTS + 1)]
        )
        assert code == 3
        assert f"at most {MAX_SCAN_POINTS} points" in capsys.readouterr().err

    def test_bad_prior_file(self, tmp_path, capsys):
        prior = tmp_path / "prior.csv"
        prior.write_text("1e-6,1e8\n1e-7,1e4\n")
        code = main(
            ["exclusion", "--config", BASELINE, "--prior", str(prior), "--points", "5"]
        )
        assert code == 2

    def test_unwritable_output(self, tmp_path, capsys):
        code = main(
            ["budget", "--config", BASELINE, "--out", str(tmp_path / "no" / "dir.csv")]
        )
        assert code == 4

    def test_underflowing_gap_is_a_domain_error(self):
        result = run_fresh(["forces", "--config", BASELINE, "--gap", "1e-300"])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "separation 1e-300 m" in result.stderr

    def test_lambda_max_whose_square_overflows_is_a_domain_error(self):
        result = run_fresh(
            ["exclusion", "--config", BASELINE, "--lambda-max", "1e300", "--points", "4"]
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "lambda_max 1e+300 m" in result.stderr

    @pytest.mark.parametrize("command", ["forces", "budget", "sensitivity"])
    def test_overflowing_gap_is_a_domain_error(self, tmp_path, command):
        text = BASELINE_CONFIG_PATH.read_text().replace(
            "separation = 5 um", "separation = 1e80 m"
        )
        config = tmp_path / "huge.ini"
        config.write_text(text)
        result = run_fresh([command, "--config", str(config)])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "separation 1e+80 m is too large" in result.stderr

    @pytest.mark.parametrize(
        "command, line, bad, message",
        [
            ("forces", "stray_voltage = 0.1", "stray_voltage = 1e200", "stray_voltage 1e+200 V"),
            ("budget", "stray_voltage = 0.1", "stray_voltage = 1e200", "stray_voltage 1e+200 V"),
            ("sensitivity", "arm_length = 0.1 m", "arm_length = 1e200 m", "arm_length 1e+200 m"),
            ("sensitivity", "arm_length = 0.1 m", "arm_length = 1e-170 m", "arm_length 1e-170 m"),
        ],
        ids=["forces-voltage", "budget-voltage", "sensitivity-long-arm", "sensitivity-short-arm"],
    )
    def test_overflowing_config_value_is_a_domain_error(
        self, tmp_path, command, line, bad, message
    ):
        text = BASELINE_CONFIG_PATH.read_text()
        assert line in text
        config = tmp_path / "bad.ini"
        config.write_text(text.replace(line, bad))
        result = run_fresh([command, "--config", str(config)])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert message in result.stderr

    def test_overflowing_gap_flag_is_a_domain_error(self):
        result = run_fresh(["forces", "--config", BASELINE, "--gap", "1e80"])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "separation 1e+80 m" in result.stderr

    def test_non_utf8_prior_is_a_config_error(self, tmp_path):
        prior = tmp_path / "prior.csv"
        prior.write_bytes(b"\xff\xfe1\x00e\x00")
        result = run_fresh(
            ["exclusion", "--config", BASELINE, "--points", "5", "--prior", str(prior)]
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"{prior}: not valid UTF-8" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["forces", "--gap", "1e9999999"],
            ["exclusion", "--lambda-max", "1e99999999 um", "--points", "4"],
        ],
    )
    def test_length_flag_past_decimal_range_is_a_domain_error(self, argv):
        result = run_fresh([*argv, "--config", BASELINE])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "out of range" in result.stderr

    def test_config_length_past_decimal_range_is_a_config_error(self, tmp_path):
        text = BASELINE_CONFIG_PATH.read_text().replace(
            "separation = 5 um", "separation = 1e9999999 um"
        )
        config = tmp_path / "huge.ini"
        config.write_text(text)
        result = run_fresh(["budget", "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "[gap] separation" in result.stderr

    @pytest.mark.parametrize("command", ["forces", "budget", "exclusion", "sensitivity"])
    @pytest.mark.parametrize(
        "key,good,bad,section",
        [
            ("force_resolution", "1e-12", "-1e-12", "resolution"),
            ("stray_voltage", "0.1", "nan", "electrostatic"),
        ],
    )
    def test_out_of_range_config_number_is_a_config_error(
        self, tmp_path, capsys, command, key, good, bad, section
    ):
        text = BASELINE_CONFIG_PATH.read_text()
        assert f"{key} = {good}" in text
        config = tmp_path / "bad.ini"
        config.write_text(text.replace(f"{key} = {good}", f"{key} = {bad}"))
        code = main([command, "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"[{section}] {key}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["forces", "budget", "exclusion", "sensitivity"])
    def test_plate_area_that_overflows_is_a_config_error(self, tmp_path, command):
        text = BASELINE_CONFIG_PATH.read_text()
        for line in ("length = 0.10 m", "width = 0.12 m"):
            assert line in text
            text = text.replace(line, line.split("=")[0] + "= 1e200 m")
        config = tmp_path / "huge.ini"
        config.write_text(text)
        result = run_fresh([command, "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "[geometry] length and width" in result.stderr
        assert result.stdout == ""

    def test_ratio_that_overflows_is_a_domain_error(self, tmp_path):
        text = BASELINE_CONFIG_PATH.read_text()
        assert "temperature = 300" in text
        config = tmp_path / "hot.ini"
        config.write_text(text.replace("temperature = 300", "temperature = 1e308"))
        result = run_fresh(["budget", "--config", str(config)])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "ratio_total_casimir_resolution_1" in result.stderr
        assert "/ 1e-12 overflows" in result.stderr
        assert "inf" not in result.stdout

    def test_tilt_length_whose_strip_width_overflows_is_a_config_error(self, tmp_path):
        text = BASELINE_CONFIG_PATH.read_text()
        line = "plate_length_along_tilt = 0.12 m"
        assert line in text
        config = tmp_path / "thin.ini"
        config.write_text(text.replace(line, "plate_length_along_tilt = 1e-320 m"))
        result = run_fresh(["sensitivity", "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "[tilt] plate_length_along_tilt" in result.stderr
        assert result.stdout == ""

    def test_infinite_yukawa_alpha_is_a_config_error(self, tmp_path, capsys):
        text = BASELINE_CONFIG_PATH.read_text().replace("alpha = 1.0", "alpha = inf")
        config = tmp_path / "inf.ini"
        config.write_text(text)
        code = main(["budget", "--config", str(config)])
        assert code == 2
        assert "[yukawa] alpha" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "edits, argv, message",
        [
            ({"length = 0.10 m": "length = 1e150 m", "width = 0.12 m": "width = 1e150 m"},
             ["forces", "--gap", "1e-10 m"], "casimir_zero_t_N at gap 1e-10 m is inf"),
            ({"temperature = 300": "temperature = 1e308"},
             ["forces", "--gap", "1 nm"], "thermal_N at gap 1e-09 m is inf"),
            ({"gold, 19.3e3, 10 um": "gold, 1e200, 10 um"},
             ["forces"], "newton_N at gap 5e-06 m is inf"),
            ({"gold, 19.3e3, 10 um": "gold, 1e200, 10 um"},
             ["budget"], "newton_N at gap 5e-06 m is inf"),
            ({"length = 0.10 m": "length = 1e150 m", "width = 0.12 m": "width = 1e150 m",
              "separation = 5 um": "separation = 1e-10 m", "angle = 1e-6": "angle = 0"},
             ["sensitivity"], "casimir_flat_N at gap 1e-10 m is inf"),
            ({"gold, 19.3e3, 10 um": "gold, 1e200, 10 um"},
             ["exclusion", "--points", "4"],
             "facing densities 1e+200 and 1e+200 kg/m^3 with area 0.012 m^2"),
            ({"gold, 19.3e3, 10 um": "gold, 1e-200, 10 um"},
             ["exclusion", "--points", "4"],
             "facing densities 1e-200 and 1e-200 kg/m^3 with area 0.012 m^2"),
            ({"material = tungsten": "material = tungsten\nshear_modulus = 1e308"},
             ["sensitivity"], "shear_modulus 1e+308 Pa with diameter 5e-05 m and length 0.5 m"),
            ({"material = tungsten": "material = tungsten\nshear_modulus = 1e-320"},
             ["sensitivity"], "shear_modulus 9.99989e-321 Pa with diameter 5e-05 m"),
        ],
        ids=["forces-area", "forces-temperature", "forces-density", "budget-density",
             "sensitivity-area", "exclusion-dense", "exclusion-light",
             "sensitivity-stiff-wire", "sensitivity-soft-wire"],
    )
    def test_overflowing_force_or_factor_is_a_domain_error(self, tmp_path, edits, argv, message):
        text = BASELINE_CONFIG_PATH.read_text()
        for line, bad in edits.items():
            assert line in text
            text = text.replace(line, bad)
        config = tmp_path / "bad.ini"
        config.write_text(text)
        result = run_fresh([*argv, "--config", str(config)])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert message in result.stderr
        assert "inf" not in result.stdout and "nan" not in result.stdout


class TestStartup:
    def test_cli_import_does_not_load_numpy(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, plateforces.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        _, first = run(["budget", "--config", BASELINE], tmp_path, "a.csv")
        _, second = run(["budget", "--config", BASELINE], tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_exclusion_identical_across_runs(self, tmp_path):
        argv = ["exclusion", "--config", BASELINE, "--points", "200"]
        _, first = run(argv, tmp_path, "a.csv")
        _, second = run(argv, tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_streamed_exclusion_stdout_matches_file(self, tmp_path, capsysbinary):
        # more points than one write slice, so every block is split mid-way
        argv = ["exclusion", "--config", BASELINE, "--points", "5000", "--prior", PRIOR]
        assert main([*argv, "--out", "-"]) == 0
        stdout = capsysbinary.readouterr().out
        _, out = run(argv, tmp_path)
        assert stdout == out.read_bytes()

    def test_stdout_matches_file(self, tmp_path, capsys):
        code = main(["budget", "--config", BASELINE])
        assert code == 0
        stdout = capsys.readouterr().out
        _, out = run(["budget", "--config", BASELINE], tmp_path)
        assert stdout == out.read_text()
