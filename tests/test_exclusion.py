import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import alpha_bound_reference
from plateforces import (
    Curve,
    DomainError,
    GapConfig,
    InvalidParameterError,
    MaterialLayer,
    PlateGeometry,
    PlatePairConfig,
    PlateStack,
    YukawaParams,
    alpha_bound,
    exclusion_scan,
    plate_yukawa,
)
from plateforces.cli import cmd_exclusion
from plateforces.exclusion import MAX_LAMBDA, MAX_SCAN_POINTS

GOLD = 19.3e3
RESOLUTION = 1e-12


def gold_plates(thickness=1e-5, gap=5e-6):
    """Two gold films of one thickness on 10 x 12 cm plates (area 0.012 m^2)."""
    gold = PlateStack((MaterialLayer("gold", GOLD, thickness),))
    return PlatePairConfig(gold, gold, PlateGeometry(0.1, 0.12), GapConfig(gap))


def reference_spec(thickness=1e-5, gap=5e-6, resolution=RESOLUTION):
    """gold_plates in the field names alpha_bound_reference reads."""
    return SimpleNamespace(
        force_resolution=resolution,
        gap=gap,
        density_a=GOLD,
        density_b=GOLD,
        thickness_a=thickness,
        thickness_b=thickness,
        area=0.012,
    )


def test_gold_plates_area_is_exact():
    # tests pin values computed with area 0.012; the plate footprint gives it exactly
    assert gold_plates().geometry.area() == 0.012


class TestAlphaBound:
    def test_gold_baseline(self):
        # 1 pN resolution, 10 um films, 5 um gap, probed at lam = 10 um
        assert alpha_bound(1e-5, gold_plates(), RESOLUTION) == pytest.approx(
            22.013316383214352, rel=1e-12
        )
        assert alpha_bound(1e-5, gold_plates(), RESOLUTION) == pytest.approx(22.0, rel=1e-2)

    def test_round_trip_through_force(self):
        plates = gold_plates()
        for lam in (1e-6, 3.7e-6, 1e-5, 2.9e-4, 1e-2):
            alpha = alpha_bound(lam, plates, RESOLUTION)
            force = plate_yukawa(
                GOLD, GOLD, 0.012, 1e-5, 1e-5, 5e-6, YukawaParams(alpha=alpha, lam=lam)
            )
            assert force == pytest.approx(RESOLUTION, rel=1e-12), lam

    def test_linear_in_resolution(self):
        assert alpha_bound(1e-5, gold_plates(), 2e-12) == pytest.approx(
            2 * alpha_bound(1e-5, gold_plates(), 1e-12), rel=1e-12
        )

    def test_thicker_films_see_smaller_couplings(self):
        bounds = [
            alpha_bound(1e-5, gold_plates(thickness=t), RESOLUTION)
            for t in (0.3e-6, 1e-6, 3e-6, 1e-5)
        ]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_uses_each_facing_layer_thickness(self):
        # an asymmetric pair: the bound sees the facing layer of each stack,
        # not the substrate behind it
        gold = gold_plates()
        thin = PlateStack(
            (MaterialLayer("gold", GOLD, 1e-6), MaterialLayer("glass", 3e3, 1e-2))
        )
        pair = PlatePairConfig(gold.stack_a, thin, gold.geometry, gold.gap)
        spec = reference_spec()
        spec.thickness_b = 1e-6
        for lam in (1e-6, 1e-5, 1e-3):
            assert alpha_bound(lam, pair, RESOLUTION) == alpha_bound_reference(lam, spec)

    def test_approaches_thick_plate_floor_from_above(self):
        floor = RESOLUTION / (2 * math.pi * 6.674e-11 * GOLD**2 * 0.012 * 1e-5 * 1e-5)
        far = alpha_bound(1e4 * 1e-5, gold_plates(), RESOLUTION)
        assert far > floor
        assert far == pytest.approx(floor, rel=1e-3)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(InvalidParameterError):
            alpha_bound(0.0, gold_plates(), RESOLUTION)

    @pytest.mark.parametrize("resolution", [0.0, -1e-12, math.nan, math.inf])
    def test_rejects_bad_resolution(self, resolution):
        with pytest.raises(InvalidParameterError, match="force_resolution"):
            alpha_bound(1e-5, gold_plates(), resolution)
        with pytest.raises(InvalidParameterError, match="force_resolution"):
            exclusion_scan(gold_plates(), resolution, 1e-6, 1e-2, 10, (1e-5,))

    def test_rejects_lam_whose_square_overflows(self):
        assert math.isfinite(alpha_bound(MAX_LAMBDA, gold_plates(), RESOLUTION))
        with pytest.raises(DomainError, match="lam 1e\\+300 m"):
            alpha_bound(1e300, gold_plates(), RESOLUTION)
        with pytest.raises(DomainError, match="lam "):
            alpha_bound(math.nextafter(MAX_LAMBDA, math.inf), gold_plates(), RESOLUTION)

    @pytest.mark.parametrize("density, outcome", [(1e200, "overflows"), (1e-200, "underflows")])
    def test_slab_prefactor_out_of_range_names_densities_and_area(self, density, outcome):
        film = PlateStack((MaterialLayer("gold", density, 1e-5),))
        plates = PlatePairConfig(film, film, PlateGeometry(0.1, 0.12), GapConfig(5e-6))
        message = "^" + re.escape(f"facing densities {density:g} and {density:g} kg/m^3 with area 0.012 m^2: ") + f".*{outcome}"
        with pytest.raises(DomainError, match=message):
            alpha_bound(1e-2, plates, RESOLUTION)
        with pytest.raises(DomainError, match=message):
            exclusion_scan(plates, RESOLUTION, 1e-6, 1e-2, 10, (1e-5,))


class TestExclusionScan:
    def test_grid_shape_and_endpoints(self):
        curves = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 2, (1e-5,))
        (curve,) = curves
        assert len(curve.lambdas) == 2
        assert curve.alphas[0] == alpha_bound(curve.lambdas[0], gold_plates(), RESOLUTION)
        assert curve.alphas[1] == alpha_bound(curve.lambdas[1], gold_plates(), RESOLUTION)

    def test_endpoints_are_the_requested_lambdas(self):
        # 10 ** log10(5e-6) is 4.9999999999999996e-06, one ulp short
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 5e-6, 1e-3, 4, (1e-5,))
        assert curve.lambdas[0] == 5e-6
        assert curve.lambdas[-1] == 1e-3

    def test_monotone_decreasing_over_micron_to_centimeter(self):
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 1000, (1e-5,))
        assert all(b < a for a, b in zip(curve.alphas, curve.alphas[1:]))

    def test_thickness_ordering_pointwise(self):
        thicknesses = (0.3e-6, 1e-6, 3e-6, 1e-5)
        curves = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 200, thicknesses)
        for thin, thick in zip(curves, curves[1:]):
            assert all(
                lo < hi for hi, lo in zip(thin.alphas, thick.alphas)
            ), "curves must not touch or cross"

    def test_deterministic(self):
        a = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 500, (1e-6, 1e-5))
        b = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 500, (1e-6, 1e-5))
        for ca, cb in zip(a, b):
            assert ca.lambdas == cb.lambdas
            assert ca.alphas == cb.alphas

    def test_rejects_degenerate_grids(self):
        with pytest.raises(DomainError):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-6, 10, (1e-5,))
        with pytest.raises(DomainError):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-2, 1e-6, 10, (1e-5,))
        with pytest.raises(DomainError):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 1, (1e-5,))

    def test_rejects_lambda_max_whose_square_overflows(self):
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, MAX_LAMBDA, 4, (1e-5,))
        assert all(math.isfinite(alpha) for alpha in curve.alphas)
        with pytest.raises(DomainError, match="lambda_max 1e\\+300 m"):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e300, 4, (1e-5,))

    def test_curves_share_one_grid(self):
        # cmd_exclusion puts each curve's lambdas in its table block, and
        # to_csv formats a tuple that several blocks hold once; a grid copied
        # per curve loses that
        curves = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 50, (3e-7, 1e-6, 1e-5))
        assert all(curve.lambdas is curves[0].lambdas for curve in curves)

    def test_rejects_more_than_max_points(self):
        with pytest.raises(DomainError, match=f"at most {MAX_SCAN_POINTS} points"):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, MAX_SCAN_POINTS + 1, (1e-5,))

    def test_rejects_bad_thicknesses(self):
        with pytest.raises(InvalidParameterError):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 10, ())
        with pytest.raises(InvalidParameterError):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 10, (-1e-6,))


    def test_overflow_below_the_gap_gives_inf(self):
        # exp(5 um / 1 nm) overflows a double
        assert alpha_bound(1e-9, gold_plates(), RESOLUTION) == math.inf
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-9, 1e-2, 5, (1e-5,))
        assert curve.alphas[0] == math.inf
        assert all(math.isfinite(alpha) for alpha in curve.alphas[1:])


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


@example(resolution=1e-12, gap=5e-6, thicknesses=[1e-5], lambda_min=1e-9,
         decades=7.0, n_points=60)
@given(
    resolution=_log_uniform(-16, -8),
    gap=_log_uniform(-7, -4),
    thicknesses=st.lists(_log_uniform(-8, -1), min_size=1, max_size=3),
    lambda_min=_log_uniform(-9, -5),
    decades=st.floats(0.1, 7.0),
    n_points=st.integers(2, 60),
)
def test_scan_alpha_equals_reference_bit_for_bit(
    resolution, gap, thicknesses, lambda_min, decades, n_points
):
    # lambda_min reaches 1 nm, below which exp(gap/lambda) overflows;
    # the scan sets both facing layers to each thickness in turn
    plates = gold_plates(gap=gap)
    lambda_max = lambda_min * 10.0**decades
    curves = exclusion_scan(
        plates, resolution, lambda_min, lambda_max, n_points, tuple(thicknesses)
    )
    for thickness, curve in zip(thicknesses, curves):
        curve_spec = reference_spec(thickness, gap, resolution)
        expected = [alpha_bound_reference(lam, curve_spec) for lam in curve.lambdas]
        assert list(curve.alphas) == expected


def test_reference_oracle_reaches_the_overflow_region():
    (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-9, 1e-2, 60, (1e-5,))
    expected = [alpha_bound_reference(lam, reference_spec()) for lam in curve.lambdas]
    assert list(curve.alphas) == expected
    assert expected.count(math.inf) == 8


class TestCurveInterpolation:
    def test_power_law_is_exact(self):
        lambdas = tuple(1e-6 * 10 ** (i / 4) for i in range(17))
        alphas = tuple(2.5 * (lam / 1e-6) ** -1.7 for lam in lambdas)
        curve = Curve(lambdas=lambdas, alphas=alphas)
        for i in range(len(lambdas) - 1):
            lam = math.sqrt(lambdas[i] * lambdas[i + 1])
            assert curve.alpha_at(lam) == pytest.approx(
                2.5 * (lam / 1e-6) ** -1.7, rel=1e-12
            )

    def test_nodes_reproduce(self):
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 50, (1e-5,))
        for lam, alpha in zip(curve.lambdas, curve.alphas):
            assert curve.alpha_at(lam) == pytest.approx(alpha, rel=1e-14)

    def test_extrapolation_refused(self):
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 50, (1e-5,))
        with pytest.raises(DomainError):
            curve.alpha_at(9.9e-7)
        with pytest.raises(DomainError):
            curve.alpha_at(1.1e-2)

    def test_curve_validation(self):
        with pytest.raises(InvalidParameterError, match="1e-06 follows 1e-06"):
            Curve(lambdas=(1e-6, 1e-6), alphas=(1.0, 2.0))
        with pytest.raises(InvalidParameterError, match="2 lambda values but 1 alpha"):
            Curve(lambdas=(1e-6, 1e-5), alphas=(1.0,))
        with pytest.raises(InvalidParameterError, match=r"alpha .* got -2\.0$"):
            Curve(lambdas=(1e-6, 1e-5), alphas=(1.0, -2.0))
        with pytest.raises(InvalidParameterError, match="at least two points"):
            Curve(lambdas=(1e-6,), alphas=(1.0,))
        # alpha may be inf, lambda may not, and nothing may be nan; the
        # message names the first offending value, also mid-grid
        lam_message = "lambda must be a finite positive number, got "
        alpha_message = "alpha must be a finite positive number, got "
        for lambdas, alphas, message in (
            ((1e-6, math.inf), (1.0, 2.0), lam_message + "inf"),
            ((1e-6, 1e-5), (math.nan, 2.0), alpha_message + "nan"),
            ((1e-6, 1e-5), (-math.inf, 2.0), alpha_message + "-inf"),
            ((1e-6, math.nan, 1e-4), (1.0, 2.0, 3.0), lam_message + "nan"),
            ((1e-6, math.inf, 1e-4), (1.0, 2.0, 3.0), lam_message + "inf"),
            ((-1e-6, 1e-5, 1e-4), (1.0, 2.0, 3.0), lam_message + "-1e-06"),
            (
                (1e-5, 1e-6, 1e-4),
                (1.0, 2.0, 3.0),
                "lambda grid must be strictly increasing; 1e-06 follows 1e-05",
            ),
            ((1e-6, 1e-5, 1e-4), (1.0, math.nan, 3.0), alpha_message + "nan"),
            ((1e-6, 1e-5, 1e-4), (1.0, -0.0, 3.0), alpha_message + "-0.0"),
        ):
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
                Curve(lambdas=lambdas, alphas=alphas)
        assert Curve(lambdas=(1e-9, 1e-6), alphas=(math.inf, 1.0)).alphas[0] == math.inf


class TestImprovementFactor:
    """The `exclusion` command's improvement_1 column: prior / new alpha."""

    @staticmethod
    def improvements(config, prior=None, scale=1.0):
        (block,) = cmd_exclusion(config, 1e-6, 1e-2, 100, (1e-5,)).rows
        _, lambdas, alphas = block
        if prior is None:
            prior = Curve(lambdas=lambdas, alphas=tuple(scale * a for a in alphas))
        (block,) = cmd_exclusion(config, 1e-6, 1e-2, 100, (1e-5,), prior).rows
        return dict(zip(lambdas, block[3]))

    def test_identical_curves_give_exactly_one(self, baseline_config):
        # the prior side is exp(log(alpha)), a few ulp from alpha itself
        improvements = self.improvements(baseline_config)
        assert len(improvements) == 100
        for value in improvements.values():
            assert value == pytest.approx(1.0, rel=1e-14)

    def test_hundredfold_prior(self, baseline_config):
        for value in self.improvements(baseline_config, scale=100.0).values():
            assert value == pytest.approx(100.0, rel=1e-12)

    def test_outside_prior_domain_is_nan(self, baseline_config):
        prior = Curve(lambdas=(1e-5, 1e-4), alphas=(1e3, 1e2), source="narrow")
        improvements = self.improvements(baseline_config, prior)
        inside = [v for lam, v in improvements.items() if 1e-5 <= lam <= 1e-4]
        outside = [v for lam, v in improvements.items() if not 1e-5 <= lam <= 1e-4]
        assert inside and outside
        assert all(math.isfinite(v) for v in inside)
        assert all(math.isnan(v) for v in outside)

    def test_prior_bounds_validation(self):
        with pytest.raises(InvalidParameterError):
            Curve(lambdas=(1e-5, 1e-6), alphas=(1.0, 2.0))
        with pytest.raises(InvalidParameterError):
            Curve(lambdas=(1e-6, 1e-5), alphas=(0.0, 2.0))
