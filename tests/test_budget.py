import math
import re
from dataclasses import replace

import pytest

from plateforces import (
    DomainError,
    GapConfig,
    InvalidParameterError,
    ThermalModel,
    YukawaParams,
    electrostatic_force,
    voltage_control_requirement,
)
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
            (AREA, -5e-6, 0.1, "separation"),
            (AREA, 5e-6, math.nan, "stray_voltage"),
            (AREA, 5e-6, math.inf, "stray_voltage"),
        ],
    )
    def test_rejects_bad_arguments(self, area, gap, voltage, name):
        with pytest.raises(InvalidParameterError, match=name):
            electrostatic_force(area, gap, voltage)
        with pytest.raises(InvalidParameterError, match=name):
            voltage_control_requirement(area, gap, voltage, 1e-12)

    @pytest.mark.parametrize("gap, message", [(1e160, "d\\^2 overflows"), (1e-170, "underflows")])
    def test_gap_powers_out_of_range_are_domain_errors(self, gap, message):
        with pytest.raises(DomainError, match=message):
            electrostatic_force(AREA, gap, 0.1)

    @pytest.mark.parametrize("gap, voltage", [(5e-6, 1e200), (1e-150, 1e100)])
    def test_overflowing_force_names_stray_voltage(self, gap, voltage):
        # V^2 overflows, or the finite V^2 / d^2 does
        with pytest.raises(DomainError, match=re.escape(f"stray_voltage {voltage:g} V ") + ".*overflows"):
            electrostatic_force(AREA, gap, voltage)
        with pytest.raises(DomainError, match="stray_voltage"):
            voltage_control_requirement(AREA, gap, voltage, 1e-12)


class TestVoltageControl:
    def test_part_per_thousand(self):
        # suppressing the force by 1e6 takes voltage control at the 1e-3 level
        config = es()
        target = electrostatic_force(*config) * 1e-6
        assert voltage_control_requirement(*config, target) == pytest.approx(
            1e-3, rel=1e-12
        )

    def test_round_trip(self):
        config = es()
        target = 1e-12
        ratio = voltage_control_requirement(*config, target)
        compensated = es(voltage=0.1 * ratio)
        assert electrostatic_force(*compensated) == pytest.approx(target, rel=1e-12)

    def test_saturates_at_one(self):
        config = es()
        background = electrostatic_force(*config)
        assert voltage_control_requirement(*config, background) == 1.0
        assert voltage_control_requirement(*config, 2 * background) == 1.0

    def test_zero_voltage_needs_no_control(self):
        assert voltage_control_requirement(*es(voltage=0.0), 1e-12) == 1.0

    def test_rejects_nonpositive_target(self):
        with pytest.raises(InvalidParameterError):
            voltage_control_requirement(*es(), 0.0)
        with pytest.raises(InvalidParameterError):
            voltage_control_requirement(*es(), -1e-12)


class TestForceBudget:
    """The `budget` command's row, on bare 15 mm glass plates."""

    @pytest.fixture
    def glass_config(self, baseline_config, glass_pair):
        return replace(baseline_config, stack_a=glass_pair.stack_a, stack_b=glass_pair.stack_b)

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
        half = cmd_budget(replace(glass_config, thermal=ThermalModel(0.5)))
        full = cmd_budget(replace(glass_config, thermal=ThermalModel(1.0)))
        # the raw thermal entry is model-independent; eta applies at totaling
        assert self.row(half)["thermal_N"] == self.row(full)["thermal_N"]
        assert dict(half.metadata)["eta"] == "0.5"
        assert self.row(half)["total_casimir_N"] == pytest.approx(4.40e-8, rel=1e-3)

    def test_all_entries_non_negative_even_for_repulsive_alpha(self, glass_config):
        budget = self.row(cmd_budget(replace(glass_config, yukawa=YukawaParams(-10.0, 1e-5))))
        forces = {name: value for name, value in budget.items() if name.endswith("_N")}
        assert len(forces) == 7
        assert all(value >= 0.0 for value in forces.values())

    def test_thermal_flag_below_trust_gap(self, glass_config):
        narrow = replace(glass_config, gap=GapConfig(separation=1e-6, temperature=300.0))
        # one wording for the thermal-trust warning in `budget` and `forces`
        (thermal_warning, _) = cmd_forces(narrow, [1e-6]).warnings
        assert "thermal" in thermal_warning
        assert cmd_budget(narrow).warnings[0] == thermal_warning

    def test_no_thermal_flag_at_trust_gap(self, glass_config):
        budget = cmd_budget(glass_config)
        assert not any(flag.startswith("thermal") for flag in budget.warnings)
