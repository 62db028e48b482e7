import math
import re
from fractions import Fraction

import pytest

from plateforces import InvalidParameterError
from plateforces.core import CODATA2018
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

    # a gap or area outside the box is refused before any power of it is
    # formed; from a --gap flag the refusal exits 3 as a domain error
    def test_underflowing_gap_is_a_domain_error(self):
        # d^3 and d^4 would be 0.0 in double precision
        message = re.escape("separation: must lie in [1e-10, 1e+06] m, got ")
        with pytest.raises(InvalidParameterError, match=f"^{message}1e-110$"):
            thermal_casimir(AREA, 1e-110, 300.0)
        with pytest.raises(InvalidParameterError, match=f"^{message}1e-300$"):
            casimir_zero_t(AREA, 1e-300)

    def test_overflowing_gap_is_a_domain_error(self):
        # d^4 would overflow above about 1.16e77 m and d^3 above about 5.6e102 m
        message = re.escape("separation: must lie in [1e-10, 1e+06] m, got ")
        with pytest.raises(InvalidParameterError, match=f"^{message}1e\\+80$"):
            casimir_zero_t(AREA, 1e80)
        with pytest.raises(InvalidParameterError, match=f"^{message}1e\\+80$"):
            thermal_casimir(AREA, 1e80, 300.0)
        with pytest.raises(InvalidParameterError, match=f"^{message}1e\\+103$"):
            thermal_casimir(AREA, 1e103, 300.0)

    @pytest.mark.parametrize("area, gap", [(1e-320, 5e-6), (AREA, 1e76)])
    def test_underflowing_force_is_a_domain_error(self, area, gap):
        # the force would round to zero; the area or the gap is refused first
        name, value = ("area", area) if area < 1e-20 else ("separation", gap)
        with pytest.raises(InvalidParameterError, match=f"^{name}: must lie in .* got {re.escape(repr(value))}$"):
            casimir_zero_t(area, gap)

    @pytest.mark.parametrize("area", [1e-285, 1e-290, 1e-295, 1e-299])
    def test_tiny_area_matches_exact_rationals(self, area):
        # the coefficient times S would be subnormal at these areas, which
        # the box refuses; at its smallest area, 1e-20 m^2, and the smallest
        # temperature, both forces match exact rationals
        for force in (lambda s: casimir_zero_t(s, 5e-6), lambda s: thermal_casimir(s, 5e-6, 1e-3)):
            with pytest.raises(InvalidParameterError, match=f"^area: must lie in .* got {re.escape(repr(area))}$"):
                force(area)
        gap, temperature, smallest = Fraction(5e-6), Fraction(1e-3), Fraction(1e-20)
        pi, hbar, c = Fraction(math.pi), Fraction(CODATA2018.hbar), Fraction(CODATA2018.c)
        zeta3, k_B = Fraction(CODATA2018.zeta3), Fraction(CODATA2018.k_B)
        exact = {
            casimir_zero_t(1e-20, 5e-6): pi**2 * hbar * c / 240 * smallest / gap**4,
            thermal_casimir(1e-20, 5e-6, 1e-3): (
                zeta3 * k_B * temperature / (4 * pi) * smallest / gap**3
            ),
        }
        for force, want in exact.items():
            assert abs(Fraction(force) - want) <= want / 10**15

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

