import math

import pytest

from plateforces.core import CODATA2018, GapConfig, PlateStack, YukawaParams
from plateforces.gravity import (
    PlatePairConfig,
    plate_newton,
    plate_yukawa,
    stack_newton,
    stack_yukawa,
    yukawa_thickness_bracket,
)

from oracles import yukawa_slab_force, yukawa_stack_force

G = CODATA2018.G
AREA = 0.012
GOLD = 19.3e3
GLASS = 3.0e3


class TestPlateNewton:
    def test_glass_anchor(self):
        force = plate_newton(GLASS, GLASS, AREA, 15e-3, 15e-3)
        assert force == pytest.approx(1.019e-8, rel=1e-3)
        assert abs(force - 1e-8) / 1e-8 < 0.05

    def test_linear_in_each_factor(self):
        base = plate_newton(GLASS, GLASS, AREA, 15e-3, 15e-3)
        assert plate_newton(2 * GLASS, GLASS, AREA, 15e-3, 15e-3) == pytest.approx(
            2 * base, rel=1e-15
        )
        assert plate_newton(GLASS, GLASS, AREA, 30e-3, 15e-3) == pytest.approx(
            2 * base, rel=1e-15
        )

    def test_swap_symmetric(self):
        ab = plate_newton(GOLD, GLASS, AREA, 1e-5, 15e-3)
        ba = plate_newton(GLASS, GOLD, AREA, 15e-3, 1e-5)
        assert ab == pytest.approx(ba, rel=1e-14)


class TestThicknessBracket:
    def test_tiny_ratio_no_cancellation(self):
        # naive 1 - exp(-x) at x = 1e-12 is wrong in the 5th digit;
        # the bracket must stay exact
        assert yukawa_thickness_bracket(1e-12, 1.0) == pytest.approx(
            1e-12 * (1 - 0.5e-12), rel=1e-10
        )

    def test_thick_saturates_to_one(self):
        assert yukawa_thickness_bracket(50.0, 1.0) == 1.0

    def test_bounded_and_increasing(self):
        values = [yukawa_thickness_bracket(t, 1e-5) for t in (1e-7, 1e-6, 1e-5, 1e-4)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestPlateYukawa:
    def test_gold_anchor(self):
        force = plate_yukawa(
            GOLD, GOLD, AREA, 1e-5, 1e-5, 5e-6, YukawaParams(1.0, 1e-5)
        )
        assert force == pytest.approx(4.5427048909473834e-14, rel=1e-12)

    def test_matches_quadrature_spot_checks(self):
        y_cases = [
            (1e-7, 0.3e-6, 1e-6),
            (1e-5, 1e-5, 5e-6),
            (1e-3, 3e-6, 1e-5),
            (1e-2, 1e-5, 1e-5),
        ]
        for lam, tau, d in y_cases:
            closed = plate_yukawa(GOLD, GOLD, AREA, tau, tau, d, YukawaParams(1.0, lam))
            brute = yukawa_slab_force(GOLD, GOLD, AREA, tau, tau, d, 1.0, lam, G)
            assert closed == pytest.approx(brute, rel=1e-9), (lam, tau, d)

    def test_thick_plate_limit(self):
        lam = 1e-6
        thick = (
            2 * math.pi * G * GOLD**2 * AREA * lam**2 * 1.0 * math.exp(-5e-6 / lam)
        )
        # at tau = 50 lam the brackets are exactly 1.0 in floating point
        assert plate_yukawa(
            GOLD, GOLD, AREA, 50 * lam, 50 * lam, 5e-6, YukawaParams(1.0, lam)
        ) == pytest.approx(thick, rel=1e-14)
        # at tau = 15 lam the deficit is the bracket tail, about 2 e^-15
        moderate = plate_yukawa(
            GOLD, GOLD, AREA, 15 * lam, 15 * lam, 5e-6, YukawaParams(1.0, lam)
        )
        assert abs(moderate - thick) / thick < 2.1 * math.exp(-15.0)

    def test_thin_plate_limit(self):
        # tau << lam: each bracket ~ tau/lam, so lam^2 cancels
        lam, tau, d = 1e-2, 1e-10, 5e-6
        sheet = 2 * math.pi * G * GOLD**2 * AREA * tau * tau * math.exp(-d / lam)
        assert plate_yukawa(
            GOLD, GOLD, AREA, tau, tau, d, YukawaParams(1.0, lam)
        ) == pytest.approx(sheet, rel=1e-7)

    def test_long_range_keeps_the_thin_film_force_finite(self):
        # lam**2 overflows the left-to-right product; lam cancels against
        # each bracket, tau/lam, to leave the thin-film limit
        alpha, lam, tau, d = 1e12, 1e150, 1e-5, 5e-6
        sheet = 2 * math.pi * G * GOLD**2 * AREA * alpha * tau * tau
        assert plate_yukawa(
            GOLD, GOLD, AREA, tau, tau, d, YukawaParams(alpha, lam)
        ) == pytest.approx(sheet, rel=1e-12)

    def test_long_range_with_vanishing_bracket_is_not_finite(self):
        # tau/lam rounds to zero or to a subnormal: re-forming the product
        # would return 0 or a value that lost its digits, so nan or inf stands
        alpha, lam = 1e300, 1e154
        zero = plate_yukawa(GOLD, GOLD, AREA, 1e-170, 1e-170, 5e-6, YukawaParams(alpha, lam))
        assert math.isnan(zero)
        tiny = plate_yukawa(GOLD, GOLD, AREA, 1e-165, 1e-165, 5e-6, YukawaParams(1e12, lam))
        assert tiny == math.inf

    def test_alpha_zero_gives_exactly_zero(self):
        assert (
            plate_yukawa(GOLD, GOLD, AREA, 1e-5, 1e-5, 5e-6, YukawaParams(0.0, 1e-5))
            == 0.0
        )

    def test_negative_alpha_flips_sign(self):
        plus = plate_yukawa(GOLD, GOLD, AREA, 1e-5, 1e-5, 5e-6, YukawaParams(1.0, 1e-5))
        minus = plate_yukawa(
            GOLD, GOLD, AREA, 1e-5, 1e-5, 5e-6, YukawaParams(-1.0, 1e-5)
        )
        assert minus == -plus

    def test_decreases_with_gap(self):
        y = YukawaParams(1.0, 1e-5)
        forces = [
            plate_yukawa(GOLD, GOLD, AREA, 1e-5, 1e-5, d, y)
            for d in (1e-6, 5e-6, 1e-5, 5e-5)
        ]
        assert all(b < a for a, b in zip(forces, forces[1:]))

    def test_swap_symmetric(self):
        y = YukawaParams(1.0, 1e-5)
        ab = plate_yukawa(GOLD, GLASS, AREA, 1e-5, 15e-3, 5e-6, y)
        ba = plate_yukawa(GLASS, GOLD, AREA, 15e-3, 1e-5, 5e-6, y)
        assert ab == pytest.approx(ba, rel=1e-14)


class TestStackForces:
    def test_stack_newton_glass_anchor(self, glass_pair):
        assert stack_newton(glass_pair) == pytest.approx(1.019e-8, rel=1e-3)

    def test_stack_newton_gap_independent_bitwise(self, glass_pair):
        forces = set()
        for d in (1e-6, 5e-6, 1e-5):
            pair = PlatePairConfig(
                glass_pair.stack_a,
                glass_pair.stack_b,
                glass_pair.geometry,
                GapConfig(separation=d, temperature=300.0),
            )
            forces.add(stack_newton(pair))
        assert len(forces) == 1

    def test_stack_newton_sums_layer_pairs(self, gold_glass_pair):
        expected = (
            plate_newton(GOLD, GOLD, AREA, 1e-5, 1e-5)
            + 2 * plate_newton(GOLD, GLASS, AREA, 1e-5, 15e-3)
            + plate_newton(GLASS, GLASS, AREA, 15e-3, 15e-3)
        )
        assert stack_newton(gold_glass_pair) == pytest.approx(expected, rel=1e-14)

    def test_metal_only_equals_facing_layers(self, gold_glass_pair):
        y = YukawaParams(1.0, 1e-5)
        direct = plate_yukawa(GOLD, GOLD, AREA, 1e-5, 1e-5, 5e-6, y)
        assert stack_yukawa(gold_glass_pair, y) == direct

    def test_facing_films_match_profile_quadrature(self, gold_glass_pair):
        # the quadrature oracle over the facing films alone: the substrates
        # behind them add nothing to stack_yukawa
        film_a = PlateStack(gold_glass_pair.stack_a.layers[:1])
        film_b = PlateStack(gold_glass_pair.stack_b.layers[:1])
        for lam in (1e-6, 1e-5, 1e-3):
            closed = stack_yukawa(gold_glass_pair, YukawaParams(1.0, lam))
            brute = yukawa_stack_force(film_a, film_b, AREA, 5e-6, 1.0, lam, G)
            assert closed == pytest.approx(brute, rel=1e-9), lam
