import math
import re

import pytest

from plateforces import DomainError, InvalidParameterError
from plateforces.casimir import (
    THERMAL_TRUST_MIN_GAP,
    ThermalModel,
    casimir_zero_t,
    thermal_casimir,
)
from conftest import with_fields
from plateforces.cli import cmd_forces

AREA = 0.012


class TestCasimirZeroT:
    def test_anchor_5um(self):
        force = casimir_zero_t(AREA, 5e-6)
        assert force == pytest.approx(2.496e-8, rel=1e-3)
        assert abs(force - 25e-9) / 25e-9 < 0.05

    def test_anchor_10um(self):
        force = casimir_zero_t(AREA, 10e-6)
        assert force == pytest.approx(1.560e-9, rel=1e-3)
        assert abs(force - 1.5e-9) / 1.5e-9 < 0.05

    def test_prefactor(self):
        # unit area, unit gap isolates pi^2 hbar c / 240
        expected = math.pi**2 * 1.054571817e-34 * 2.99792458e8 / 240.0
        assert casimir_zero_t(1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_inverse_fourth_power(self):
        d = 3.7e-6
        assert casimir_zero_t(AREA, d) / casimir_zero_t(AREA, 2 * d) == pytest.approx(
            16.0, rel=1e-12
        )

    def test_linear_in_area(self):
        assert casimir_zero_t(2 * AREA, 5e-6) == pytest.approx(
            2 * casimir_zero_t(AREA, 5e-6), rel=1e-15
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            casimir_zero_t(0.0, 5e-6)
        with pytest.raises(InvalidParameterError):
            casimir_zero_t(AREA, -5e-6)


class TestThermalCasimir:
    def test_anchor_5um(self):
        force = thermal_casimir(AREA, 5e-6, 300.0)
        assert force == pytest.approx(3.80e-8, rel=1e-3)
        assert abs(force - 38e-9) / 38e-9 < 0.05

    def test_anchor_10um(self):
        force = thermal_casimir(AREA, 10e-6, 300.0)
        assert force == pytest.approx(4.75e-9, rel=1e-3)
        assert abs(force - 5e-9) / 5e-9 < 0.05

    def test_zero_temperature(self):
        assert thermal_casimir(AREA, 5e-6, 0.0) == 0.0

    def test_linear_in_temperature(self):
        assert thermal_casimir(AREA, 5e-6, 600.0) == pytest.approx(
            2 * thermal_casimir(AREA, 5e-6, 300.0), rel=1e-15
        )

    def test_inverse_cube(self):
        d = 5e-6
        ratio = thermal_casimir(AREA, d, 300.0) / thermal_casimir(AREA, 2 * d, 300.0)
        assert ratio == pytest.approx(8.0, rel=1e-12)

    def test_small_gap_still_computes(self):
        # below the trust gap the value is flagged downstream, not refused
        assert thermal_casimir(AREA, 1e-6, 300.0) > 0.0

    def test_underflowing_gap_is_a_domain_error(self):
        # d^3 is 0.0 in double precision; the zero-T force guards d^4 alike
        with pytest.raises(DomainError, match="separation 1e-110 m"):
            thermal_casimir(AREA, 1e-110, 300.0)
        with pytest.raises(DomainError, match="separation 1e-300 m"):
            casimir_zero_t(AREA, 1e-300)

    def test_overflowing_gap_is_a_domain_error(self):
        # d^4 overflows above about 1.16e77 m and d^3 above about 5.6e102 m
        with pytest.raises(DomainError, match="separation 1e\\+80 m is too large: d\\^4"):
            casimir_zero_t(AREA, 1e80)
        assert thermal_casimir(AREA, 1e80, 300.0) > 0.0
        with pytest.raises(DomainError, match="separation 1e\\+103 m is too large: d\\^3"):
            thermal_casimir(AREA, 1e103, 300.0)

    @pytest.mark.parametrize("area, gap", [(1e-320, 5e-6), (AREA, 1e76)])
    def test_underflowing_force_is_a_domain_error(self, area, gap):
        # S and d^4 are both in range, but the force rounds to zero
        with pytest.raises(DomainError, match=re.escape(f"area {area:g} m^2 at separation {gap:g} m")):
            casimir_zero_t(area, gap)

    def test_trust_gap_constant(self):
        assert THERMAL_TRUST_MIN_GAP == 5e-6


class TestTotalCasimir:
    """The eta-weighted total_N column of `forces` at the baseline gap."""

    @staticmethod
    def forces(config, eta):
        table = cmd_forces(with_fields(config, thermal=ThermalModel(eta)), [5e-6])
        (row,) = table.rows
        return dict(zip(table.columns, row))

    def test_full_thermal_weight(self, baseline_config):
        assert baseline_config.plates.geometry.area() == AREA
        total = self.forces(baseline_config, 1.0)["total_N"]
        assert total == pytest.approx(6.2998072789511829e-08, rel=1e-12)

    def test_half_thermal_weight(self, baseline_config):
        total = self.forces(baseline_config, 0.5)["total_N"]
        assert total == pytest.approx(4.3980243810254396e-08, rel=1e-12)

    def test_is_sum_of_parts(self, baseline_config):
        eta = 0.73
        expected = casimir_zero_t(AREA, 5e-6) + eta * thermal_casimir(AREA, 5e-6, 300.0)
        assert self.forces(baseline_config, eta)["total_N"] == pytest.approx(
            expected, rel=1e-15
        )

    def test_monotone_in_eta(self, baseline_config):
        low = self.forces(baseline_config, 0.5)["total_N"]
        high = self.forces(baseline_config, 1.0)["total_N"]
        assert high > low

    @pytest.mark.parametrize("eta", [0.49, 1.01, -1.0, math.nan])
    def test_model_rejects_out_of_band(self, eta):
        with pytest.raises(InvalidParameterError):
            ThermalModel(eta)

