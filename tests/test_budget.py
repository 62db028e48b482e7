import math
import re

import pytest

from plateforces import InvalidParameterError
from plateforces.budget import electrostatic_force
from plateforces.casimir import ThermalModel
from plateforces.core import GapConfig, YukawaParams
from conftest import with_fields
from plateforces.cli import cmd_budget, cmd_forces

AREA = 0.012


def es(voltage=0.1, area=AREA, gap=5e-6):
    """(area, separation, stray_voltage) of the baseline capacitor."""
    return area, gap, voltage


class TestElectrostaticForce:
    def test_anchor_5um(self):
        force = electrostatic_force(*es(gap=5e-6))
        assert force == pytest.approx(2.125e-5, rel=1e-3)
        assert abs(force - 25e-6) / 25e-6 < 0.25

    def test_anchor_10um(self):
        force = electrostatic_force(*es(gap=10e-6))
        assert force == pytest.approx(5.3125e-6, rel=1e-3)
        assert abs(force - 5e-6) / 5e-6 < 0.07

    def test_zero_voltage(self):
        assert electrostatic_force(*es(voltage=0.0)) == 0.0

    def test_quadratic_in_voltage(self):
        assert electrostatic_force(*es(voltage=0.2)) == pytest.approx(
            4 * electrostatic_force(*es(voltage=0.1)), rel=1e-12
        )

    def test_inverse_square_in_gap(self):
        assert electrostatic_force(*es(gap=5e-6)) == pytest.approx(
            4 * electrostatic_force(*es(gap=10e-6)), rel=1e-12
        )

    def test_rejects_negative_voltage(self):
        with pytest.raises(InvalidParameterError):
            electrostatic_force(*es(voltage=-0.1))

    @pytest.mark.parametrize(
        "area, gap, voltage, name",
        [
            (0.0, 5e-6, 0.1, "area"),
            # epsilon0 S would be subnormal
            (1e-299, 5e-6, 0.1, "area"),
            (AREA, -5e-6, 0.1, "separation"),
            (AREA, 5e-6, math.nan, "stray_voltage"),
            (AREA, 5e-6, math.inf, "stray_voltage"),
        ],
    )
    def test_rejects_bad_arguments(self, area, gap, voltage, name):
        with pytest.raises(InvalidParameterError, match=name):
            electrostatic_force(area, gap, voltage)

    @pytest.mark.parametrize("gap, message", [(1e160, "d\\^2 overflows"), (1e-170, "underflows")])
    def test_gap_powers_out_of_range_are_domain_errors(self, gap, message):
        # d^2 would overflow or underflow to zero: the gap is refused
        refused = re.escape(f"separation: must lie in [1e-10, 1e+06] m, got {gap!r}")
        with pytest.raises(InvalidParameterError, match=f"^{refused}$"):
            electrostatic_force(AREA, gap, 0.1)

    @pytest.mark.parametrize("gap, voltage", [(5e-6, 1e200), (1e-150, 1e100)])
    def test_overflowing_force_names_stray_voltage(self, gap, voltage):
        # V^2, or the finite V^2 / d^2, would overflow: the voltage is
        # refused, and so is a gap outside the box
        refused = re.escape(f"stray_voltage: must lie in 0 or [1e-12, 1000] V, got {voltage!r}")
        with pytest.raises(InvalidParameterError, match=f"^{refused}$"):
            electrostatic_force(AREA, 5e-6, voltage)
        with pytest.raises(InvalidParameterError, match="^separation: " if gap < 1e-10 else "^stray_voltage: "):
            electrostatic_force(AREA, gap, voltage)


class TestForceBudget:
    """The `budget` command's row, on bare 15 mm glass plates."""

    @pytest.fixture
    def glass_config(self, baseline_config, glass_pair):
        plates = with_fields(
            baseline_config.plates, stack_a=glass_pair.stack_a, stack_b=glass_pair.stack_b
        )
        return with_fields(baseline_config, plates=plates)

    @staticmethod
    def row(table):
        (row,) = table.rows
        return dict(zip(table.columns, row))

    def test_baseline_entries(self, glass_config):
        budget = self.row(cmd_budget(glass_config))
        assert budget["casimir_zero_t_N"] == pytest.approx(2.496e-8, rel=1e-3)
        assert budget["thermal_N"] == pytest.approx(3.80e-8, rel=1e-3)
        assert budget["newton_N"] == pytest.approx(1.019e-8, rel=1e-3)
        assert budget["electrostatic_N"] == pytest.approx(2.125e-5, rel=1e-3)
        assert budget["resolution_N"] == 1e-12
        assert budget["total_casimir_N"] == pytest.approx(6.30e-8, rel=1e-3)

    def test_thermal_stored_unweighted(self, glass_config):
        half = cmd_budget(with_fields(glass_config, thermal=ThermalModel(0.5)))
        full = cmd_budget(with_fields(glass_config, thermal=ThermalModel(1.0)))
        # the raw thermal entry is model-independent; eta applies at totaling
        assert self.row(half)["thermal_N"] == self.row(full)["thermal_N"]
        assert dict(half.metadata)["eta"] == "0.5"
        assert self.row(half)["total_casimir_N"] == pytest.approx(4.40e-8, rel=1e-3)

    def test_all_entries_non_negative_even_for_repulsive_alpha(self, glass_config):
        budget = self.row(cmd_budget(with_fields(glass_config, yukawa=YukawaParams(-10.0, 1e-5))))
        forces = {name: value for name, value in budget.items() if name.endswith("_N")}
        assert len(forces) == 7
        assert all(value >= 0.0 for value in forces.values())

    def test_thermal_flag_below_trust_gap(self, glass_config):
        plates = with_fields(glass_config.plates, gap=GapConfig(separation=1e-6, temperature=300.0))
        narrow = with_fields(glass_config, plates=plates)
        # one wording for the thermal-trust warning in `budget` and `forces`
        (thermal_warning, _) = cmd_forces(narrow, [1e-6]).warnings
        assert "thermal" in thermal_warning
        assert cmd_budget(narrow).warnings[0] == thermal_warning

    def test_no_thermal_flag_at_trust_gap(self, glass_config):
        budget = cmd_budget(glass_config)
        assert not any(flag.startswith("thermal") for flag in budget.warnings)
