import math
import re

import pytest

from plateforces import (
    CODATA2018,
    BalanceConfig,
    DomainError,
    InvalidParameterError,
    SHEAR_MODULUS,
    TiltConfig,
    TorsionWire,
    casimir_zero_t,
    gap_variation_from_tilt,
    min_detectable_force,
    tilted_casimir,
    torsion_constant,
)

from oracles import tilted_casimir_force


class TestTorsionWire:
    def test_material_table(self):
        assert SHEAR_MODULUS["tungsten"] == 1.61e11
        assert SHEAR_MODULUS["quartz"] == 3.1e10

    def test_constructors_pick_modulus(self):
        assert TorsionWire.tungsten(50e-6).shear_modulus == 1.61e11
        assert TorsionWire.quartz(50e-6).shear_modulus == 3.1e10
        assert TorsionWire.tungsten(50e-6).length == 0.5

    @pytest.mark.parametrize("diameter", [5e-6, 9.9e-6, 1.1e-3, 1e-2])
    def test_rejects_unbuildable_diameters(self, diameter):
        with pytest.raises(InvalidParameterError):
            TorsionWire.tungsten(diameter)

    @pytest.mark.parametrize("diameter", [10e-6, 50e-6, 150e-6, 1e-3])
    def test_accepts_band(self, diameter):
        TorsionWire.tungsten(diameter)


class TestTorsionConstant:
    def test_tungsten_50um(self):
        kappa = torsion_constant(TorsionWire.tungsten(50e-6))
        expected = math.pi * 1.61e11 * (25e-6) ** 4 / (2 * 0.5)
        assert kappa == pytest.approx(expected, rel=1e-12)
        assert kappa == pytest.approx(1.976e-7, rel=1e-3)

    def test_tungsten_150um(self):
        kappa = torsion_constant(TorsionWire.tungsten(150e-6))
        assert kappa == pytest.approx(1.600e-5, rel=1e-3)

    def test_fourth_power_of_diameter(self):
        thin = torsion_constant(TorsionWire.tungsten(50e-6))
        thick = torsion_constant(TorsionWire.tungsten(100e-6))
        assert thick / thin == pytest.approx(16.0, rel=1e-12)

    def test_inverse_in_length(self):
        short = torsion_constant(TorsionWire.tungsten(50e-6, length=0.25))
        long = torsion_constant(TorsionWire.tungsten(50e-6, length=0.5))
        assert short == pytest.approx(2 * long, rel=1e-12)

    def test_softer_material_softer_wire(self):
        assert torsion_constant(TorsionWire.quartz(50e-6)) < torsion_constant(
            TorsionWire.tungsten(50e-6)
        )


    @pytest.mark.parametrize("modulus, outcome", [(1e308, "overflows"), (1e-320, "underflows")])
    def test_out_of_range_is_a_domain_error_naming_the_wire(self, modulus, outcome):
        wire = TorsionWire("custom", modulus, 50e-6, 0.5)
        with pytest.raises(DomainError, match=f"^shear_modulus .* diameter 5e-05 m and length 0.5 m: .*{outcome}"):
            torsion_constant(wire)


class TestMinDetectableForce:
    def test_nominal_setup(self):
        balance = BalanceConfig(
            torque_sensitivity=1e-6, arm_length=0.1, min_displacement=1e-9
        )
        force = min_detectable_force(balance)
        assert force == pytest.approx(1e-13, rel=1e-12)
        assert force < 1e-12

    def test_linear_in_kappa_and_displacement(self):
        base = BalanceConfig(1e-6, 0.1, 1e-9)
        assert min_detectable_force(
            BalanceConfig(2e-6, 0.1, 1e-9)
        ) == pytest.approx(2 * min_detectable_force(base), rel=1e-12)
        assert min_detectable_force(
            BalanceConfig(1e-6, 0.1, 2e-9)
        ) == pytest.approx(2 * min_detectable_force(base), rel=1e-12)

    def test_longer_arm_helps_quadratically(self):
        short = min_detectable_force(BalanceConfig(1e-6, 0.1, 1e-9))
        long = min_detectable_force(BalanceConfig(1e-6, 0.2, 1e-9))
        assert short == pytest.approx(4 * long, rel=1e-12)

    @pytest.mark.parametrize(
        "arm, outcome", [(1e200, "underflows to zero"), (1e-170, "overflows")]
    )
    def test_arm_out_of_range_is_a_domain_error(self, arm, outcome):
        # arm^2 overflows, or underflows to zero
        with pytest.raises(DomainError, match=re.escape(f"arm_length {arm:g} m ") + f".*{outcome}"):
            min_detectable_force(BalanceConfig(1e-6, arm, 1e-9))


class TestGapVariation:
    def test_parallelism_requirement(self):
        # 1 urad over a 12 cm plate: a tenth of a micron of gap spread
        assert gap_variation_from_tilt(TiltConfig(1e-6, 0.12)) == pytest.approx(
            1.2e-7, rel=1e-12
        )

    def test_coarser_alignment(self):
        # 3e-5 rad leaves microns of spread, comparable to the gap itself
        assert gap_variation_from_tilt(TiltConfig(3e-5, 0.12)) == pytest.approx(
            3.6e-6, rel=1e-12
        )

    def test_zero_angle(self):
        assert gap_variation_from_tilt(TiltConfig(0.0, 0.12)) == 0.0


class TestTiltedCasimir:
    W = 0.10
    L = 0.12
    D = 5e-6

    def test_zero_angle_is_flat_plate(self):
        tilted = tilted_casimir(self.W, self.L, self.D, 0.0)
        flat = casimir_zero_t(self.W * self.L, self.D)
        assert tilted == pytest.approx(flat, rel=1e-15)

    def test_continuous_at_tiny_angle(self):
        tilted = tilted_casimir(self.W, self.L, self.D, 1e-15)
        flat = tilted_casimir(self.W, self.L, self.D, 0.0)
        assert abs(tilted - flat) / flat < 1e-10

    def test_matches_quadrature(self):
        for angle in (1e-9, 1e-7, 1e-6, 1e-5, 3e-5):
            closed = tilted_casimir(self.W, self.L, self.D, angle)
            brute = tilted_casimir_force(
                self.W, self.L, self.D, angle, CODATA2018.hbar, CODATA2018.c
            )
            assert closed == pytest.approx(brute, rel=1e-10), angle

    def test_branches_agree_at_crossover(self):
        # u = angle * L / d straddles the series/exact switch at 1e-4
        for u in (0.99e-4, 1.01e-4):
            angle = u * self.D / self.L
            closed = tilted_casimir(self.W, self.L, self.D, angle)
            brute = tilted_casimir_force(
                self.W, self.L, self.D, angle, CODATA2018.hbar, CODATA2018.c
            )
            assert closed == pytest.approx(brute, rel=1e-10), u

    def test_baseline_deficit(self):
        # a 1 urad tilt at a 5 um near-edge gap sheds about 4.6% of the
        # flat-plate force as the far edge recedes
        tilted = tilted_casimir(self.W, self.L, self.D, 1e-6)
        flat = casimir_zero_t(self.W * self.L, self.D)
        assert tilted / flat == pytest.approx(0.9538531303405744, rel=1e-10)

    def test_monotone_decreasing_in_angle(self):
        # at fixed near-edge gap, tilting only opens the gap elsewhere
        angles = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 3e-5)
        forces = [tilted_casimir(self.W, self.L, self.D, a) for a in angles]
        assert all(b < a for a, b in zip(forces, forces[1:]))

    def test_exceeds_mean_gap_force(self):
        # the pressure is convex in the gap, so averaging the gap first
        # underestimates the force
        angle = 1e-6
        mean_gap = self.D + angle * self.L / 2.0
        assert tilted_casimir(self.W, self.L, self.D, angle) > casimir_zero_t(
            self.W * self.L, mean_gap
        )

    def test_rejects_contact(self):
        with pytest.raises(DomainError):
            tilted_casimir(self.W, self.L, self.D, 5e-5)  # rise 6e-6 > 5e-6 gap
        with pytest.raises(DomainError):
            # exact touch at the far edge is already out
            tilted_casimir(self.W, self.L, self.D, self.D / self.L)

    @pytest.mark.parametrize(
        "separation, angle, message",
        [
            (1e80, 0.0, "1e\\+80 m is too large: d\\^4 overflows"),
            (1e80, 1e-6, "1e\\+80 m is too large: d\\^4 overflows"),
            (1e-300, 0.0, "1e-300 m is too small: d\\^4 underflows"),
            (1e-110, 1e-111 / 12e-2, "1e-110 m is too small: d\\^-3 overflows"),
        ],
        ids=["flat-huge", "series-huge", "flat-tiny", "closed-form-tiny"],
    )
    def test_gap_powers_out_of_range_are_domain_errors(self, separation, angle, message):
        with pytest.raises(DomainError, match=f"separation {message}"):
            tilted_casimir(self.W, self.L, separation, angle)

    def test_rejects_negative_angle(self):
        with pytest.raises(InvalidParameterError):
            tilted_casimir(self.W, self.L, self.D, -1e-6)
