import importlib.util
import inspect
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plateforces.cli
from plateforces import ResultTable
from plateforces.cli import (
    DEFAULT_SCAN_LAMBDA_MAX,
    DEFAULT_SCAN_LAMBDA_MIN,
    DEFAULT_SCAN_POINTS,
    DEFAULT_SCAN_THICKNESSES,
    _COMMANDS,
    _parser,
    _plain,
    cmd_budget,
    cmd_exclusion,
    cmd_forces,
    cmd_sensitivity,
    main,
)
from plateforces.exclusion import MAX_SCAN_POINTS
from plateforces.balance import min_detectable_force, torsion_constant
from plateforces.casimir import casimir_zero_t
from plateforces.gravity import stack_newton
from conftest import BASELINE_CONFIG_PATH, REPO_ROOT, kernel_alpha

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
        area = baseline_config.plates.geometry.area()
        assert by_gap[5e-6][1] == casimir_zero_t(area, 5e-6)
        assert by_gap[1e-5][4] == stack_newton(baseline_config.plates)
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
        assert meta["version"] == plateforces.__version__
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


class TestColumnTable:
    UNITS = {"Nm_per_rad": "N m/rad", "N": "N", "m": "m", "1": "1"}

    def test_readme_lists_every_column(self, tmp_path):
        argvs = {
            "forces": [], "budget": [], "exclusion": ["--prior", PRIOR], "sensitivity": [],
        }
        writers = {}
        for command, extra in argvs.items():
            code, out = run([command, "--config", BASELINE, *extra], tmp_path, f"{command}.csv")
            assert code == 0
            for column in ResultTable.from_csv(out.read_text()).columns:
                writers.setdefault(column, []).append(command)
        readme = (REPO_ROOT / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([a-z, ]+) \| .+ \|$", readme, re.M)
        assert {column: commands for column, _, commands in rows} == {
            column: ", ".join(commands) for column, commands in writers.items()
        }
        assert len(rows) == len(writers)
        for column, unit, _ in rows:
            suffix = next(s for s in self.UNITS if column.endswith("_" + s))
            assert unit == self.UNITS[suffix], column

    def test_rebound_physics_function_reaches_every_command(self, baseline_config, monkeypatch):
        # the benchmark's tracer rebinds names in plateforces.cli; a column
        # entry holding its own reference to the function would bypass it
        calls = []
        real = plateforces.cli.casimir_zero_t

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(plateforces.cli, "casimir_zero_t", counting)
        cmd_forces(baseline_config, gaps=[1e-6, 5e-6, 1e-5])
        assert len(calls) == 3
        cmd_budget(baseline_config)
        assert len(calls) == 4
        cmd_sensitivity(baseline_config)
        assert len(calls) == 5


class TestCommandTable:
    def test_readme_lists_every_flag(self):
        readme = (REPO_ROOT / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        flags = {"--config", "--out"}
        for command, (_, command_flags) in _COMMANDS.items():
            assert f"`{command}`" in section, command
            flags.update(flag for flag, *_ in command_flags)
        assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section)) == flags

    def test_config_is_read_before_the_flags(self, tmp_path, capsys):
        code = main(["exclusion", "--config", str(tmp_path / "ghost.ini"), "--lambda-min", "bad"])
        assert code == 4
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_flags_are_read_in_table_order(self, tmp_path, capsys):
        argv = ["--prior", str(tmp_path / "missing.csv"), "--lambda-min", "bad"]
        code = main(["exclusion", "--config", BASELINE, *argv])
        assert code == 3
        assert capsys.readouterr().err == "domain error: cannot parse length 'bad'\n"

    def test_non_integer_points_is_refused_before_the_config(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["exclusion", "--config", str(tmp_path / "ghost.ini"), "--points", "x"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: plateforces exclusion ")
        assert err.endswith("argument --points: invalid int value: 'x'\n")

    @pytest.mark.parametrize("argv", [[name, "--help"] for name in _COMMANDS] + [["--help"]])
    def test_help_exits_0_with_its_usage_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(" ".join(["usage: plateforces", *argv[:-1]]))
        if argv == ["--help"]:
            assert "{" + ",".join(_COMMANDS) + "}" in out
            for name, (help_line, _) in _COMMANDS.items():
                assert re.search(rf"^ +{name} +{help_line}$", out, re.M), name

    def test_rebound_command_and_readers_are_the_ones_called(self, tmp_path, monkeypatch):
        # the benchmark's tracer rebinds names in plateforces.cli; a table
        # entry holding its own reference to a function would bypass it
        calls = []
        for name in ("cmd_exclusion", "parse_length", "ingest_prior_bounds"):
            real = getattr(plateforces.cli, name)

            def counting(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(plateforces.cli, name, counting)
        argv = ["--thickness", "1 um", "--lambda-min", "2 um", "--points", "5", "--prior", PRIOR]
        code, _ = run(["exclusion", "--config", BASELINE, *argv], tmp_path)
        assert code == 0
        assert calls == ["parse_length", "parse_length", "ingest_prior_bounds", "cmd_exclusion"]


# argv tokens for the plain-form differential: every exact flag, and
# abbreviated, "=", help and "--" forms, which argparse alone reads
EXACT_FLAGS = sorted({"--config", "--out", *(f for _, fs in _COMMANDS.values() for f, *_ in fs)})
FLAGS = [
    *EXACT_FLAGS, "--conf", "--o", "--ga", "--lambda", "--lambda-m", "--poi", "--th", "--pri",
    "--config=x", "--points=5", "--gap=5 um", "-h", "--help", "--",
]
PLAIN = ["-", "", " -5", "+7", "1_000", "\u0663", "a=b", "5 um", "3", "x", *_COMMANDS]
VALUES = [*PLAIN, "-1", "-x", *FLAGS]


def parsed(argv):
    """What the parser reads from argv, without the flags left out."""
    return {key: value for key, value in vars(_parser().parse_args(argv)).items() if value is not None}


@st.composite
def argvs(draw):
    """A command (or a bogus one), then flag-value pairs, with a --config
    pair three times in four and a stray token one time in four.  Three
    flags in four are the command's own and three values in four plain
    text, so that many argv are in the plain form."""
    command = draw(st.sampled_from([*_COMMANDS, "scan"]))
    own = ["--config", "--out", *(flag for flag, *_ in _COMMANDS.get(command, ("", ()))[1])]

    def pick(likely, anything):
        return draw(st.sampled_from(likely if draw(st.integers(0, 3)) else anything))

    pairs = [[pick(own, FLAGS), pick(PLAIN, VALUES)] for _ in range(draw(st.integers(0, 4)))]
    if draw(st.integers(0, 3)):
        pairs.insert(draw(st.integers(0, len(pairs))), ["--config", pick(PLAIN, VALUES)])
    tokens = [token for pair in pairs for token in pair]
    if not draw(st.integers(0, 3)):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(VALUES)))
    return [command, *tokens]


class TestPlainArgv:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(argv=argvs())
    @example(argv=["forces", "--gap", "+7", "--config", "-", "--gap", "\u0663", "--out", ""])
    @example(argv=["exclusion", "--config", "a=b", "--points", "1_000", "--points", " -5"])
    @example(argv=["budget", "--out", "budget", "--config", "exclusion", "--out", "-"])
    def test_plain_argv_reads_as_the_parser_does(self, argv):
        args = _plain(argv)
        if args is not None:
            assert args == parsed(argv)

    def test_plain_refuses_what_only_the_parser_reads(self):
        config = ["--config", BASELINE]
        for argv in (
            [], ["--help"], ["scan", *config], ["budget"], ["budget", "--help", *config],
            ["budget", "--conf", BASELINE], ["budget", f"--config={BASELINE}"],
            ["budget", *config, "--out"], ["budget", *config, "--", "x"],
            ["forces", *config, "--gap", "-1"], ["forces", *config, "--points", "5"],
            ["exclusion", *config, "--points", "x"],
        ):
            assert _plain(argv) is None, argv

    def test_plain_reads_every_benchmark_and_readme_argv(self, bench, tmp_path):
        _, inputs = bench
        benchmark = [
            inv.args
            for workload in inputs.WORKLOADS
            for inv in inputs.build(workload, 0, str(tmp_path / workload)).invocations
        ]
        readme = (REPO_ROOT / "README.md").read_text().splitlines()
        examples = [shlex.split(line)[1:] for line in readme if line.startswith("plateforces ")]
        assert len(examples) == len(_COMMANDS)
        for argv in benchmark + examples:
            assert _plain(argv) == parsed(argv), argv


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
        # the kernel reads the facing layers as configured: 10 um gold on 10 um gold
        plates = baseline_config.plates
        assert plates.stack_a.layers[0].thickness == plates.stack_b.layers[0].thickness == 1e-5
        ((thickness, lambdas, alphas),) = table.rows
        assert thickness == 1e-5 and len(lambdas) == len(alphas) == 5
        for lam, alpha in zip(lambdas, alphas):
            assert alpha == kernel_alpha(lam, plates, baseline_config.force_resolution)

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

    def test_inf_alpha_from_a_vanishing_film_names_its_own_cause(self, tmp_path):
        # just past the lambdas where exp(gap/lambda) overflows, the bound of
        # the box's thinnest film, 1e-10 m, exceeds the largest double
        argv = ["--thickness", "1e-10 m", "--lambda-min", "1 nm", "--lambda-max", "10 nm"]
        code, out = run(["exclusion", "--config", BASELINE, *argv, "--points", "200"], tmp_path)
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert [row[2] for row in table.rows[:172]] == [math.inf] * 172
        assert math.inf not in [row[2] for row in table.rows[172:]]
        exp, bound = table.warnings
        assert "169 rows with lambda from 1e-09 to 6.98588e-09 m: exp(gap/lambda) overflows" in exp
        assert bound == (
            "alpha is inf on 3 rows with lambda from 7.06718e-09 to 7.23263e-09 m: the bound "
            "exceeds the largest double"
        )

    def test_overflow_warning_is_read_off_the_grid(self, baseline_config):
        # about 46 000 lambdas of each of the 4 curves overflow exp(gap/lambda):
        # a list of them as floats would take about 6 MB beside the arrays
        tracemalloc.start()
        try:
            table = cmd_exclusion(baseline_config, lambda_min=1e-10, n_points=200_000)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.warnings[0].startswith("alpha is inf on 184784 rows with lambda from 1e-10 to ")
        # held is the grid and the four alpha curves the table keeps
        assert held > 4e6 and peak - held < 1e6

    def test_overflowing_improvement_is_inf_with_a_warning(self, tmp_path):
        # prior alpha 1e308 over the alpha of a 1e-30 N resolution overflows
        text = BASELINE_CONFIG_PATH.read_text()
        config = tmp_path / "fine.ini"
        config.write_text(text.replace("force_resolution = 1e-12", "force_resolution = 1e-30"))
        prior = tmp_path / "prior.csv"
        prior.write_text("1e-6,1e308\n1e-2,1e308\n")
        argv = ["exclusion", "--config", str(config), "--points", "5", "--prior", str(prior)]
        code, out = run(argv, tmp_path)
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert all(math.isfinite(row[2]) for row in table.rows)
        assert [row[3] for row in table.rows] == [math.inf] * 20
        (warning,) = table.warnings
        assert warning == (
            "improvement_1 is inf on 20 rows with lambda from 1e-06 to 0.01 m: "
            "prior alpha / alpha exceeds the largest double"
        )

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

    def test_help_states_the_scan_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["exclusion", "--help"])
        # argparse wraps the help text, so compare with the line breaks folded
        text = " ".join(capsys.readouterr().out.split())
        thicknesses = ", ".join(format(t, "g") for t in DEFAULT_SCAN_THICKNESSES)
        for shown in (
            f"(default: {DEFAULT_SCAN_LAMBDA_MIN:g} m)",
            f"(default: {DEFAULT_SCAN_LAMBDA_MAX:g} m)",
            f"(default: {DEFAULT_SCAN_POINTS})",
            f"default: {thicknesses} m)",
        ):
            assert shown in text


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

    def test_zero_points_reach_the_scan(self, capsys):
        # --points has no parser default, so an explicit 0 is not taken for "absent"
        code = main(["exclusion", "--config", BASELINE, "--points", "0"])
        assert code == 3
        assert "degenerate scan: need at least 2 points, got 0" in capsys.readouterr().err

    def test_grid_whose_points_collide_is_degenerate(self, capsys):
        argv = ["--lambda-min", "1 m", "--lambda-max", "1.000000000000001 m", "--points", "100"]
        code = main(["exclusion", "--config", BASELINE, *argv])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "domain error: degenerate scan: 100 points from lambda_min 1.0 "
            "to lambda_max 1.000000000000001 m collide in double precision: "
        )

    # An input outside the box is refused by the box of its quantity before
    # it can overflow or underflow anything: a flag value exits 3 as a domain
    # error naming the flag's keyword, a config value exits 2 naming its
    # [section] key.  The tests below are named for what the input would do.

    def test_grid_that_rounds_past_max_lambda_is_degenerate(self):
        # a grid this far past the box's 1e6 m (where interior points would
        # round above lambda_max) is refused for its range before it is built
        result = run_fresh(
            [
                "exclusion", "--config", BASELINE, "--points", "1000",
                "--lambda-min", "1.3407807929942e154", "--lambda-max", "1.3407807929942596e154",
            ]
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert result.stderr == (
            "domain error: lambda_min: must lie in [1e-10, 1e+06] m, got 1.3407807929942e+154\n"
        )

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
        assert "domain error: separation: must lie in [1e-10, 1e+06] m, got 1e-300" in result.stderr

    def test_lambda_max_whose_square_overflows_is_a_domain_error(self):
        result = run_fresh(
            ["exclusion", "--config", BASELINE, "--lambda-max", "1e300", "--points", "4"]
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "domain error: lambda_max: must lie in [1e-10, 1e+06] m, got 1e+300" in result.stderr

    @pytest.mark.parametrize("command", ["forces", "budget", "sensitivity"])
    def test_overflowing_gap_is_a_domain_error(self, tmp_path, command):
        text = BASELINE_CONFIG_PATH.read_text().replace(
            "separation = 5 um", "separation = 1e80 m"
        )
        config = tmp_path / "huge.ini"
        config.write_text(text)
        result = run_fresh([command, "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == (
            "config error: [gap] separation: must lie in [1e-10, 1e+06] m, got 1e+80\n"
        )

    @pytest.mark.parametrize(
        "command, line, bad, message",
        [
            ("forces", "stray_voltage = 0.1", "stray_voltage = 1e200",
             "[electrostatic] stray_voltage: must lie in 0 or [1e-12, 1000] V, got 1e+200"),
            ("budget", "stray_voltage = 0.1", "stray_voltage = 1e200",
             "[electrostatic] stray_voltage: must lie in 0 or [1e-12, 1000] V, got 1e+200"),
            ("sensitivity", "arm_length = 0.1 m", "arm_length = 1e200 m",
             "[balance] arm_length: must lie in [1e-10, 1e+06] m, got 1e+200"),
            ("sensitivity", "arm_length = 0.1 m", "arm_length = 1e-170 m",
             "[balance] arm_length: must lie in [1e-10, 1e+06] m, got 1e-170"),
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
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == f"config error: {message}\n"

    def test_overflowing_gap_flag_is_a_domain_error(self):
        result = run_fresh(["forces", "--config", BASELINE, "--gap", "1e80"])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert result.stderr == "domain error: separation: must lie in [1e-10, 1e+06] m, got 1e+80\n"

    def test_non_utf8_config_is_a_config_error(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_bytes(BASELINE_CONFIG_PATH.read_bytes().replace(b"gold", b"gol\xe9"))
        result = run_fresh(["budget", "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"{config}: not valid UTF-8" in result.stderr

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
        "argv,message",
        [
            (["forces", "--gap", "1e9999999"], "separation: must lie in [1e-10, 1e+06] m, got inf"),
            (["forces", "--gap", "1e-320 um"], "separation: must lie in [1e-10, 1e+06] m, got 0.0"),
            (
                ["exclusion", "--lambda-max", "1e99999999 um", "--points", "4"],
                "lambda_max: must lie in [1e-10, 1e+06] m, got inf",
            ),
        ],
    )
    def test_length_flag_past_double_range_is_a_domain_error(self, argv, message):
        result = run_fresh([*argv, "--config", BASELINE])
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert message in result.stderr

    def test_config_length_past_double_range_is_a_config_error(self, tmp_path):
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
        assert f"[{section}] {key}: must lie in " in capsys.readouterr().err

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
        assert result.stderr == "config error: [geometry] length: must lie in [1e-10, 1e+06] m, got 1e+200\n"
        assert result.stdout == ""

    def test_ratio_that_overflows_is_a_domain_error(self, tmp_path, capsys, monkeypatch):
        # a temperature whose ratio would overflow is refused; the finite
        # gate still names a value that overflows, here from a rebound force
        text = BASELINE_CONFIG_PATH.read_text()
        assert "temperature = 300" in text
        config = tmp_path / "hot.ini"
        config.write_text(text.replace("temperature = 300", "temperature = 1e308"))
        assert main(["budget", "--config", str(config)]) == 2
        assert "[gap] temperature: must lie in 0 or [0.001, 10000] K, got 1e+308" in capsys.readouterr().err
        monkeypatch.setattr(plateforces.cli, "thermal_casimir", lambda *args: 1e308)
        out = tmp_path / "o.csv"
        assert main(["budget", "--config", BASELINE, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "domain error: ratio_total_casimir_resolution_1 at gap 5e-06 m is inf: "
            "the value overflows a double\n"
        )
        assert not out.exists()

    def test_plate_area_whose_casimir_coefficient_product_is_subnormal(self, tmp_path):
        # pi^2 hbar c / 240 times 1e-299 m^2 would be subnormal: such sides
        # are refused, and at the box's smallest sides, 1e-10 m, the
        # coefficient times the area is about 1.3e-47
        text = BASELINE_CONFIG_PATH.read_text()
        sides = ("length = 0.10 m", "width = 0.12 m", "plate_length_along_tilt = 0.12 m")
        for tiny, code in (("1e-150 m", 2), ("1e-10 m", 0)):
            edited = text
            for line in sides:
                assert line in text
                edited = edited.replace(line, line.split("=")[0] + f"= {tiny}")
            config = tmp_path / "tiny.ini"
            config.write_text(edited)
            result = run_fresh(["forces", "--config", str(config)])
            assert result.returncode == code
        assert result.stderr == ""
        row = dict(zip(*(line.split(",") for line in result.stdout.splitlines()[-2:])))
        assert float(row["casimir_zero_t_N"]) == casimir_zero_t(1e-10 * 1e-10, 5e-6)
        assert 2.08e-26 < float(row["casimir_zero_t_N"]) < 2.09e-26
        assert float(row["thermal_N"]) > 0.0

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("length = 0.10 m", "length = -0.10 m", "[geometry] length: must lie in"),
            ("length = 0.5 m", "length = -0.5 m", "[wire] length: must lie in"),
            ("lambda = 10 um", "lambda = -10 um", "[yukawa] lambda: must lie in"),
            ("separation = 5 um", "separation = -5 um", "[gap] separation: must lie in"),
            ("arm_length = 0.1 m", "arm_length = -0.1 m", "[balance] arm_length: must lie in"),
            ("angle = 1e-6", "angle = -1e-6", "[tilt] angle: must lie in"),
        ],
        ids=["geometry", "wire", "yukawa", "gap", "balance", "tilt"],
    )
    def test_record_error_names_its_section(self, tmp_path, line, bad, message):
        text = BASELINE_CONFIG_PATH.read_text()
        assert text.count(line) == 1
        config = tmp_path / "negative.ini"
        config.write_text(text.replace(line, bad))
        result = run_fresh(["budget", "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert message in result.stderr
        assert result.stdout == ""

    # one refused value per config key: (section, key, line of the baseline, bad line)
    BAD_VALUES = [
        ("geometry", "length", "length = 0.10 m", "length = -0.10 m"),
        ("geometry", "width", "width = 0.12 m", "width = 0 m"),
        ("gap", "separation", "separation = 5 um", "separation = -5 um"),
        ("gap", "temperature", "temperature = 300", "temperature = -1"),
        ("thermal", "reduction_factor", "reduction_factor = 1.0", "reduction_factor = 2"),
        ("wire", "shear_modulus", "material = tungsten",
         "material = tungsten\nshear_modulus = -1"),
        ("wire", "diameter", "diameter = 50 um", "diameter = 5 um"),
        ("wire", "length", "length = 0.5 m", "length = inf m"),
        ("balance", "torque_sensitivity", "torque_sensitivity = 1e-6",
         "torque_sensitivity = 0"),
        ("balance", "arm_length", "arm_length = 0.1 m", "arm_length = -0.1 m"),
        ("balance", "min_displacement", "min_displacement = 1 nm", "min_displacement = nan"),
        ("tilt", "angle", "angle = 1e-6", "angle = -1e-6"),
        ("tilt", "plate_length_along_tilt", "plate_length_along_tilt = 0.12 m",
         "plate_length_along_tilt = 0 m"),
        ("electrostatic", "stray_voltage", "stray_voltage = 0.1", "stray_voltage = -0.1"),
        ("resolution", "force_resolution", "force_resolution = 1e-12", "force_resolution = 0"),
        ("yukawa", "alpha", "alpha = 1.0", "alpha = nan"),
        ("yukawa", "lambda", "lambda = 10 um", "lambda = -10 um"),
        ("stack_a", "layer_0", "layer_0 = gold, 19.3e3, 10 um", "layer_0 = gold, -1, 10 um"),
    ]

    # further refused values of keys above, under their own ids
    MORE_BAD_VALUES = {
        "yukawa-lambda-whose-square-overflows":
            ("yukawa", "lambda", "lambda = 10 um", "lambda = 1e200 m"),
        "yukawa-lambda-far-beyond-the-films":
            ("yukawa", "lambda", "lambda = 10 um", "lambda = 1e150 m"),
    }

    @pytest.mark.parametrize(
        "section, key, line, bad",
        [*BAD_VALUES, *MORE_BAD_VALUES.values()],
        ids=[*(f"{s}-{k}" for s, k, _, _ in BAD_VALUES), *MORE_BAD_VALUES],
    )
    def test_config_error_names_section_and_key(
        self, tmp_path, capsys, section, key, line, bad
    ):
        # every refused config value reads "[section] key: problem"
        text = BASELINE_CONFIG_PATH.read_text()
        assert line in text
        config = tmp_path / "bad.ini"
        config.write_text(text.replace(line, bad, 1))  # the first match: [stack_a]
        code = main(["budget", "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: [{section}] {key}: ")

    def test_subnormal_tilt_length_leaves_the_flat_force(self, tmp_path):
        # a 1e-320 m tilt length is refused; the rise over the box's
        # shortest, 1e-10 m, at its smallest tilt, 1e-15 rad, is below the
        # resolution of the gap: the tilted force is the flat one
        text = BASELINE_CONFIG_PATH.read_text()
        line = "plate_length_along_tilt = 0.12 m"
        assert line in text and "angle = 1e-6" in text
        config = tmp_path / "thin.ini"
        config.write_text(text.replace(line, "plate_length_along_tilt = 1e-320 m"))
        result = run_fresh(["sensitivity", "--config", str(config)])
        assert result.returncode == 2
        assert "config error: [tilt] plate_length_along_tilt: must lie in " in result.stderr
        text = text.replace("angle = 1e-6", "angle = 1e-15")
        config.write_text(text.replace(line, "plate_length_along_tilt = 1e-10 m"))
        result = run_fresh(["sensitivity", "--config", str(config)])
        assert result.returncode == 0
        assert result.stderr == ""
        table = ResultTable.from_csv(result.stdout)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["casimir_tilted_N"] == row["casimir_flat_N"]
        assert row["tilted_flat_ratio_1"] == 1.0

    def test_infinite_yukawa_alpha_is_a_config_error(self, tmp_path, capsys):
        text = BASELINE_CONFIG_PATH.read_text().replace("alpha = 1.0", "alpha = inf")
        config = tmp_path / "inf.ini"
        config.write_text(text)
        code = main(["budget", "--config", str(config)])
        assert code == 2
        assert "[yukawa] alpha" in capsys.readouterr().err


    LENGTH = "must lie in [1e-10, 1e+06] m, got "

    @pytest.mark.parametrize(
        "edits, argv, message",
        [
            ({"length = 0.10 m": "length = 1e150 m", "width = 0.12 m": "width = 1e150 m"},
             ["forces", "--gap", "1e-10 m"], f"[geometry] length: {LENGTH}1e+150"),
            ({"length = 0.10 m": "length = 1e150 m", "width = 0.12 m": "width = 1e150 m"},
             ["forces", "--gap", "1e-10 m", "--gap", "1e80 m"], f"[geometry] length: {LENGTH}1e+150"),
            ({"temperature = 300": "temperature = 1e308"},
             ["forces", "--gap", "1 nm"],
             "[gap] temperature: must lie in 0 or [0.001, 10000] K, got 1e+308"),
            ({"gold, 19.3e3, 10 um": "gold, 1e200, 10 um"},
             ["forces"], "[stack_a] layer_0: density: must lie in [0.001, 100000] kg/m^3, got 1e+200"),
            ({"gold, 19.3e3, 10 um": "gold, 1e200, 10 um"},
             ["budget"], "[stack_a] layer_0: density: must lie in [0.001, 100000] kg/m^3, got 1e+200"),
            ({"length = 0.10 m": "length = 1e150 m", "width = 0.12 m": "width = 1e150 m",
              "separation = 5 um": "separation = 1e-10 m", "angle = 1e-6": "angle = 0"},
             ["sensitivity"], f"[geometry] length: {LENGTH}1e+150"),
            ({"gold, 19.3e3, 10 um": "gold, 1e200, 10 um"},
             ["exclusion", "--points", "4"],
             "[stack_a] layer_0: density: must lie in [0.001, 100000] kg/m^3, got 1e+200"),
            ({"gold, 19.3e3, 10 um": "gold, 1e-200, 10 um"},
             ["exclusion", "--points", "4"],
             "[stack_a] layer_0: density: must lie in [0.001, 100000] kg/m^3, got 1e-200"),
            ({"material = tungsten": "material = tungsten\nshear_modulus = 1e308"},
             ["sensitivity"], "[wire] shear_modulus: must lie in [1e+06, 1e+13] Pa, got 1e+308"),
            ({"material = tungsten": "material = tungsten\nshear_modulus = 1e-320"},
             ["sensitivity"], "[wire] shear_modulus: must lie in [1e+06, 1e+13] Pa, got 1e-320"),
        ],
        ids=["forces-area", "forces-area-two-gaps", "forces-temperature", "forces-density",
             "budget-density", "sensitivity-area", "exclusion-dense", "exclusion-light",
             "sensitivity-stiff-wire", "sensitivity-soft-wire"],
    )
    def test_overflowing_force_or_factor_is_a_domain_error(self, tmp_path, edits, argv, message):
        # each force, prefactor or torsion constant would overflow or
        # underflow to zero: the config value is refused before any is formed
        text = BASELINE_CONFIG_PATH.read_text()
        for line, bad in edits.items():
            assert line in text
            text = text.replace(line, bad)
        config = tmp_path / "bad.ini"
        config.write_text(text)
        result = run_fresh([*argv, "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == f"config error: {message}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "thickness, alpha, value", [("1e-170 m", "1e300", "nan"), ("1e-165 m", "1e12", "inf")]
    )
    def test_long_range_yukawa_on_a_vanishing_film_is_refused(
        self, tmp_path, capsys, thickness, alpha, value
    ):
        # tau/lam would be zero or subnormal, and the force lost, or nan or
        # inf: the film is refused before any force is formed, and so is the
        # range once the film is in the box
        text = BASELINE_CONFIG_PATH.read_text()
        text = text.replace("alpha = 1.0", f"alpha = {alpha}").replace("lambda = 10 um", "lambda = 1e154 m")
        config = tmp_path / "thin.ini"
        out = tmp_path / "out.csv"
        config.write_text(text.replace("gold, 19.3e3, 10 um", f"gold, 19.3e3, {thickness}"))
        assert main(["budget", "--config", str(config), "--out", str(out)]) == 2
        assert "config error: [stack_a] layer_0: thickness: must lie in " in capsys.readouterr().err
        config.write_text(text)
        assert main(["budget", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: [yukawa] ")
        assert not out.exists()

    def test_wire_force_floor_underflow_names_the_wire(self, tmp_path):
        # kappa_wire would be a positive subnormal, and kappa x_min / arm^2
        # zero: the error names the wire's modulus, not [balance]
        # torque_sensitivity
        text = BASELINE_CONFIG_PATH.read_text().replace(
            "material = tungsten", "material = tungsten\nshear_modulus = 1e-305"
        )
        config = tmp_path / "soft.ini"
        config.write_text(text)
        result = run_fresh(["sensitivity", "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == (
            "config error: [wire] shear_modulus: must lie in [1e+06, 1e+13] Pa, got 1e-305\n"
        )
        assert "torque_sensitivity" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["forces", "budget", "sensitivity"])
    def test_casimir_force_underflow_is_a_domain_error(self, tmp_path, command):
        # the Casimir force on 1e-320 m^2 would round to zero: sides of
        # 1e-160 m are refused before any force is formed
        text = BASELINE_CONFIG_PATH.read_text()
        for line in ("length = 0.10 m", "width = 0.12 m", "plate_length_along_tilt = 0.12 m"):
            assert line in text
            text = text.replace(line, line.split("=")[0] + "= 1e-160 m")
        config = tmp_path / "tiny.ini"
        config.write_text(text)
        result = run_fresh([command, "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == "config error: [geometry] length: must lie in [1e-10, 1e+06] m, got 1e-160\n"
        assert result.stdout == ""

    def test_material_spanning_lines_is_a_config_error(self, tmp_path):
        # an indented line continues an INI value; written to metadata, the
        # break would split the wire_material comment line
        text = BASELINE_CONFIG_PATH.read_text().replace(
            "material = tungsten", "material = tungsten\n  steel\nshear_modulus = 1.61e11"
        )
        config = tmp_path / "two_lines.ini"
        config.write_text(text)
        result = run_fresh(["sensitivity", "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "[wire] material: value spans lines" in result.stderr
        assert result.stdout == ""

    def test_empty_material_round_trips(self, tmp_path):
        text = BASELINE_CONFIG_PATH.read_text().replace(
            "material = tungsten", "material =\nshear_modulus = 1.61e11"
        )
        config = tmp_path / "unnamed.ini"
        config.write_text(text)
        result = run_fresh(["sensitivity", "--config", str(config)])
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        assert "# wire_material = \n" in result.stdout
        assert dict(ResultTable.from_csv(result.stdout).metadata)["wire_material"] == ""

    def test_percent_sign_in_a_value_is_literal(self, tmp_path):
        text = BASELINE_CONFIG_PATH.read_text().replace(
            "material = tungsten", "material = tungsten 50%\nshear_modulus = 1.61e11"
        )
        config = tmp_path / "percent.ini"
        config.write_text(text)
        result = run_fresh(["sensitivity", "--config", str(config)])
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        assert "# wire_material = tungsten 50%\n" in result.stdout

    def test_interpolation_syntax_is_an_unparsable_length(self, tmp_path):
        text = BASELINE_CONFIG_PATH.read_text()
        assert "separation = 5 um" in text
        config = tmp_path / "interpolated.ini"
        config.write_text(text.replace("separation = 5 um", "separation = %(x)s"))
        result = run_fresh(["budget", "--config", str(config)])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "[gap] separation: cannot parse length" in result.stderr
        assert result.stdout == ""

    def test_prior_path_with_a_line_break_is_a_domain_error(self, tmp_path):
        prior = tmp_path / "prior\nfile.csv"
        prior.write_bytes(pathlib.Path(PRIOR).read_bytes())
        out = tmp_path / "out.csv"
        result = run_fresh(
            ["exclusion", "--config", BASELINE, "--points", "5", "--prior", str(prior),
             "--out", str(out)]
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "metadata 'prior_source'" in result.stderr
        assert not out.exists()

    def test_prior_path_that_is_not_utf8_text_is_a_domain_error(self, tmp_path):
        # the byte 0xff decodes to a lone surrogate, which no UTF-8 line can hold
        prior = tmp_path / os.fsdecode(b"prior\xff.csv")
        prior.write_bytes(pathlib.Path(PRIOR).read_bytes())
        out = tmp_path / "out.csv"
        result = run_fresh(
            ["exclusion", "--config", BASELINE, "--points", "5", "--prior", str(prior),
             "--out", str(out)]
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "metadata 'prior_source'" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, source",
        [
            (["sensitivity", "--config", "{}"], BASELINE),
            (["exclusion", "--points", "50", "--config", BASELINE, "--prior", "{}"], PRIOR),
        ],
        ids=["config", "prior"],
    )
    def test_byte_order_mark_is_ignored(self, tmp_path, argv, source):
        marked = tmp_path / pathlib.Path(source).name
        marked.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(source).read_bytes())
        plain = run_fresh([arg.format(source) for arg in argv])
        result = run_fresh([arg.format(marked) for arg in argv])
        assert result.returncode == plain.returncode == 0
        assert "Traceback" not in result.stderr

        def data_lines(text):
            return [line for line in text.splitlines() if not line.startswith("#")]

        assert data_lines(result.stdout) == data_lines(plain.stdout)


class TestStartup:
    # each costs start-up time on every command and computes no number:
    # numpy about 100 ms, dataclasses with inspect about 25 ms, hashlib
    # with its OpenSSL binding about 5 ms and 3.7 MB of peak memory, decimal
    # about 2 ms and 0.4 MB, argparse with gettext about 1 ms (argparse is
    # imported only for an argv the plain reader leaves to it)
    @pytest.mark.parametrize(
        "module",
        [
            "numpy", "dataclasses", "inspect", "hashlib", "_hashlib", "decimal", "_decimal",
            "argparse", "gettext",
        ],
    )
    def test_cli_import_does_not_load(self, module):
        result = subprocess.run(
            [sys.executable, "-c",
             f"import sys, plateforces.cli; print({module!r} in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_cli_import_loads_every_traced_layer(self):
        # the benchmark tracer finds each layer as sys.modules["plateforces.<layer>"]
        spec = importlib.util.spec_from_file_location("spans", REPO_ROOT / "bench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, plateforces.cli; "
             "print(' '.join(name for name in sys.modules if name.startswith('plateforces.')))"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        missing = [layer for layer in spans.LAYERS if f"plateforces.{layer}" not in loaded]
        assert not missing
        # a span the tracer names outright, or counts work at, is a function
        # or method defined in its layer: a renamed one would read zero, not fail
        for name in [*spans.EXTRA, *spans.COUNTERS]:
            layer, *path = name.split(".")
            module = importlib.import_module(f"plateforces.{layer}")
            owner = module
            for attr in path:
                owner = vars(owner).get(attr)
            assert inspect.isfunction(owner) and owner.__module__ == module.__name__, name


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


class TestForks:
    """With two usable CPUs only the 100 000-point scan forks: once for its
    alpha kernel, then once for its write.  cli-small's commands and the
    prior-merge scan stay in one process."""

    @pytest.mark.parametrize(
        "argv, forks",
        [
            (["forces"], 0),
            (["budget"], 0),
            (["sensitivity"], 0),
            (["exclusion"], 0),
            (["exclusion", "--prior", PRIOR], 0),
            (["exclusion", "--points", "100000"], 2),
        ],
        ids=["forces", "budget", "sensitivity", "exclusion", "prior", "stress-scan"],
    )
    def test_only_the_stress_scan_forks(self, argv, forks, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            code, _ = run([argv[0], "--config", BASELINE, *argv[1:]], tmp_path)
        assert code == 0
        assert fork.call_count == forks
