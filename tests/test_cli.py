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
from conftest import BASELINE_CONFIG_PATH

BASELINE = str(BASELINE_CONFIG_PATH)


def run(argv, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


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
        assert len(table.rows) == 100
        thin = [row for row in table.rows if row[0] == 1e-6]
        thick = [row for row in table.rows if row[0] == 1e-5]
        assert all(t[2] > k[2] for t, k in zip(thin, thick))

    def test_values_match_library(self, baseline_config):
        table = cmd_exclusion(baseline_config, 1e-6, 1e-2, 5, thicknesses=(1e-5,))
        spec = baseline_config.resolution_spec().with_thickness(1e-5)
        for _, lam, alpha in table.rows:
            assert alpha == alpha_bound(lam, spec)

    def test_improvement_column_against_prior(self, tmp_path, baseline_config):
        scan = cmd_exclusion(baseline_config, 1e-6, 1e-2, 20, thicknesses=(1e-5,))
        prior_path = tmp_path / "prior.csv"
        lines = ["lambda_m,alpha"]
        for _, lam, alpha in scan.rows:
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
        # a fresh process, so a traceback would show on its stderr
        result = subprocess.run(
            [sys.executable, "-m", "plateforces.cli", "forces", "--config", BASELINE,
             "--gap", "1e-300"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "separation 1e-300 m" in result.stderr

    def test_lambda_max_whose_square_overflows_is_a_domain_error(self):
        # a fresh process, so a traceback would show on its stderr
        result = subprocess.run(
            [sys.executable, "-m", "plateforces.cli", "exclusion", "--config",
             BASELINE, "--lambda-max", "1e300", "--points", "4"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "lambda_max 1e+300 m" in result.stderr

    def test_infinite_yukawa_alpha_is_a_config_error(self, tmp_path, capsys):
        text = BASELINE_CONFIG_PATH.read_text().replace("alpha = 1.0", "alpha = inf")
        config = tmp_path / "inf.ini"
        config.write_text(text)
        code = main(["budget", "--config", str(config)])
        assert code == 2
        assert "[yukawa] alpha" in capsys.readouterr().err


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

    def test_stdout_matches_file(self, tmp_path, capsys):
        code = main(["budget", "--config", BASELINE])
        assert code == 0
        stdout = capsys.readouterr().out
        _, out = run(["budget", "--config", BASELINE], tmp_path)
        assert stdout == out.read_text()
