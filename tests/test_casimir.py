import math

import pytest

from plateforces import (
    THERMAL_TRUST_MIN_GAP,
    DomainError,
    FieldKind,
    InvalidParameterError,
    ThermalModel,
    border_correction,
    casimir_zero_t,
    thermal_casimir,
    total_casimir,
)

AREA = 0.012
PERIMETER = 0.44


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

    def test_trust_gap_constant(self):
        assert THERMAL_TRUST_MIN_GAP == 5e-6


class TestTotalCasimir:
    def test_full_thermal_weight(self):
        total = total_casimir(AREA, 5e-6, 300.0, ThermalModel(1.0))
        assert total == pytest.approx(6.2998072789511829e-08, rel=1e-12)

    def test_half_thermal_weight(self):
        total = total_casimir(AREA, 5e-6, 300.0, ThermalModel(0.5))
        assert total == pytest.approx(4.3980243810254396e-08, rel=1e-12)

    def test_is_sum_of_parts(self):
        eta = 0.73
        expected = casimir_zero_t(AREA, 5e-6) + eta * thermal_casimir(AREA, 5e-6, 300.0)
        assert total_casimir(AREA, 5e-6, 300.0, ThermalModel(eta)) == pytest.approx(
            expected, rel=1e-15
        )

    def test_monotone_in_eta(self):
        low = total_casimir(AREA, 5e-6, 300.0, ThermalModel(0.5))
        high = total_casimir(AREA, 5e-6, 300.0, ThermalModel(1.0))
        assert high > low

    @pytest.mark.parametrize("eta", [0.49, 1.01, -1.0, math.nan])
    def test_model_rejects_out_of_band(self, eta):
        with pytest.raises(InvalidParameterError):
            ThermalModel(eta)


class TestBorderCorrection:
    def test_scalar_anchor(self):
        # 10 cm x 10 cm plate at 1 um
        value = border_correction(0.01, 0.4, 1e-6, FieldKind.SCALAR)
        assert value == pytest.approx(4.8e-6, rel=1e-12)

    def test_electromagnetic_anchor(self):
        value = border_correction(0.01, 0.4, 1e-6, FieldKind.ELECTROMAGNETIC)
        assert value == pytest.approx(4.8e-6 / 0.36, rel=1e-12)

    def test_em_scalar_ratio(self):
        scalar = border_correction(AREA, PERIMETER, 5e-6, FieldKind.SCALAR)
        em = border_correction(AREA, PERIMETER, 5e-6, FieldKind.ELECTROMAGNETIC)
        assert em / scalar == pytest.approx(1.0 / 0.36, rel=1e-15)

    def test_linear_in_separation(self):
        one = border_correction(AREA, PERIMETER, 1e-6)
        five = border_correction(AREA, PERIMETER, 5e-6)
        assert five == pytest.approx(5 * one, rel=1e-12)

    def test_small_for_baseline(self):
        # centimeter plates microns apart: the correction is parts in 1e5
        assert border_correction(AREA, PERIMETER, 5e-6) < 1e-4

    def test_scalar_is_default(self):
        assert border_correction(0.01, 0.4, 1e-6) == border_correction(
            0.01, 0.4, 1e-6, FieldKind.SCALAR
        )
