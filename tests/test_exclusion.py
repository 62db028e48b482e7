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
from plateforces.core import MAX_LAMBDA
from plateforces.exclusion import _SLICE_LAMBDAS, MAX_SCAN_POINTS, _alpha_bounds
from plateforces.gravity import slab_coupling

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
        for lam in (1e-9, 1e-8, 1e-6, 1e-5, 1e-3, 1.0):
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
        with pytest.raises(InvalidParameterError, match="^lam: must be at most 1.34e\\+154 m, got 1e\\+300$"):
            alpha_bound(1e300, gold_plates(), RESOLUTION)
        with pytest.raises(InvalidParameterError, match="^lam: must be at most "):
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


    @pytest.mark.parametrize("thickness", [1e-5, 1e-300], ids=["alpha-zero", "alpha-nan"])
    def test_overflowing_coupling_times_lambda_squared_names_densities_area_and_lambda(
        self, thickness
    ):
        # 2 pi G rho^2 S is about 5e68 for 1e40 kg/m^3: times lam^2 it overflows
        # past lam of about 2e120 m, once giving alpha 0 and, with a film whose
        # bracket is zero there, nan; neither is a grid collision
        film = PlateStack((MaterialLayer("dense", 1e40, thickness),))
        plates = PlatePairConfig(film, film, PlateGeometry(0.1, 0.12), GapConfig(5e-6))
        prefix = re.escape(
            "facing densities 1e+40 and 1e+40 kg/m^3 with area 0.012 m^2: "
            "2 pi G rho_a rho_b S lambda^2 overflows from lambda "
        )
        with pytest.raises(DomainError, match=f"^{prefix}2.223e\\+121 m$"):
            exclusion_scan(plates, RESOLUTION, 1e-6, 1e150, 50, (thickness,))
        with pytest.raises(DomainError, match=f"^{prefix}1e\\+150 m$"):
            alpha_bound(1e150, plates, RESOLUTION)

    def test_alpha_that_underflows_names_force_resolution(self):
        # at 1e-300 N against 1e24 kg/m^3 films alpha is 3e-323 at 1 um and
        # below the smallest double from the next grid point on
        film = PlateStack((MaterialLayer("dense", 1e24, 1e-5),))
        plates = PlatePairConfig(film, film, PlateGeometry(0.1, 0.12), GapConfig(5e-6))
        assert alpha_bound(1e-6, plates, 1e-300) == 3e-323
        message = "^force_resolution 1e-300 N: alpha underflows to zero at lambda 2.78256e-06 m$"
        with pytest.raises(DomainError, match=message):
            exclusion_scan(plates, 1e-300, 1e-6, 1e-2, 10, (1e-5,))


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

    def test_grid_whose_points_collide_is_degenerate(self):
        # 100 log-spaced points within five ulps of 1 m cannot all be distinct
        message = (
            "^degenerate scan: 100 points from lambda_min 1.0 to lambda_max "
            "1.000000000000001 m collide in double precision: "
        )
        with pytest.raises(DomainError, match=message):
            exclusion_scan(gold_plates(), RESOLUTION, 1.0, 1.000000000000001, 100, (1e-5,))

    def test_rejects_lambda_max_whose_square_overflows(self):
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, MAX_LAMBDA, 4, (1e-5,))
        assert all(math.isfinite(alpha) for alpha in curve.alphas)
        with pytest.raises(
            InvalidParameterError, match="^lambda_max: must be at most 1.34e\\+154 m, got 1e\\+300$"
        ):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e300, 4, (1e-5,))
        with pytest.raises(InvalidParameterError, match="^lambda_max: must be at most "):
            exclusion_scan(
                gold_plates(), RESOLUTION, 1e-6, math.nextafter(MAX_LAMBDA, math.inf), 4, (1e-5,)
            )

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


def facing_plates(thickness_a, thickness_b, gap=5e-6):
    """gold_plates with facing films of two thicknesses."""
    gold = gold_plates(thickness_a, gap)
    other = PlateStack((MaterialLayer("gold", GOLD, thickness_b),))
    return PlatePairConfig(gold.stack_a, other, gold.geometry, gold.gap)


def _scan_matches_reference(thickness, gap, lambda_min, lambda_max, n_points):
    plates = gold_plates(thickness, gap)
    (curve,) = exclusion_scan(plates, RESOLUTION, lambda_min, lambda_max, n_points, (thickness,))
    spec = reference_spec(thickness, gap)
    expected = [alpha_bound_reference(lam, spec) for lam in curve.lambdas]
    assert list(curve.alphas) == expected
    return expected


class TestKernelBranches:
    """Every branch of the shared alpha kernel against the one-lambda
    reference, bit for bit."""

    def test_exp_overflow(self):
        # exp(gap/lam) overflows below lam = 5 um / 709.78, about 7.04 nm
        expected = _scan_matches_reference(1e-5, 5e-6, 1e-9, 1e-7, 200)
        assert 0 < expected.count(math.inf) < len(expected)
        # one grid across the overflow and, for a 1e-175 m film against a
        # 10 um one, into the zero bracket above lam of about 4e148 m
        grid = tuple(10.0 ** (k / 10) for k in range(-90, 1501))
        pairs = ((1e-5, 1e-175), (1e-5, 1e-5), (1e-175, 1e-5))
        bounds = _alpha_bounds(grid, facing_plates(1e-5, 1e-175), pairs, RESOLUTION)
        for (thickness_a, thickness_b), alphas in zip(pairs, bounds):
            spec = reference_spec(thickness_a)
            spec.thickness_b = thickness_b
            assert list(alphas) == [alpha_bound_reference(lam, spec) for lam in grid]
        # exp(gap/lam) overflows on the 9 lambdas below 7.04 nm; the thin
        # film's bracket is zero on the top 14
        thin, thick, _ = bounds
        assert thick[:9] == (math.inf,) * 9 and math.inf not in thick[9:]
        assert thin[-14:] == (math.inf,) * 14 and math.inf not in thin[13:-14]
        assert [lam for lam in grid if math.expm1(-1e-175 / lam) == 0.0] == list(grid[-14:])

    def test_slices_match_alpha_bound_bit_for_bit(self):
        # three slices and a few points: exp(gap/lam) overflows below lam of
        # about 7.04 nm, inside the second slice, and the 1e-175 m film's
        # bracket is zero above about 4e148 m, in the second of the slices
        # walked past the overflow prefix
        n = _SLICE_LAMBDAS
        grid = (
            *(1e-9 + k * 4.5e-9 / n for k in range(2 * n)),
            *(10.0 ** (-8 + 158 * (j + 1) / (n + 5)) for j in range(n + 5)),
        )
        pairs = ((1e-5, 1e-175), (1e-5, 1e-5), (1e-175, 1e-5))
        bounds = _alpha_bounds(grid, facing_plates(1e-5, 1e-175), pairs, RESOLUTION)
        for pair, alphas in zip(pairs, bounds):
            plates = facing_plates(*pair)
            assert alphas == tuple(alpha_bound(lam, plates, RESOLUTION) for lam in grid)
        thin, thick, _ = bounds
        first = thick.count(math.inf)
        assert n < first < 2 * n and thick[:first] == (math.inf,) * first
        zero = [k for k, lam in enumerate(grid) if math.expm1(-1e-175 / lam) == 0.0]
        assert first + n <= zero[0] and zero == list(range(zero[0], len(grid)))
        assert thin[zero[0] :] == (math.inf,) * len(zero)

    def test_scale_overflow_in_a_later_slice_names_its_lambda(self):
        # 2 pi G rho^2 S lam^2 overflows for 1e40 kg/m^3 films from the
        # 11 894th of these lambdas, in the third slice
        film = PlateStack((MaterialLayer("dense", 1e40, 1e-5),))
        plates = PlatePairConfig(film, film, PlateGeometry(0.1, 0.12), GapConfig(5e-6))
        n = _SLICE_LAMBDAS
        grid = tuple(10.0 ** (-6 + 130 * k / (3 * n + 4)) for k in range(3 * n + 5))
        prefactor = slab_coupling(1e40, 1e40, 0.012)
        first = next(k for k, lam in enumerate(grid) if prefactor * lam**2 == math.inf)
        assert 2 * n < first < 3 * n
        message = (
            "facing densities 1e+40 and 1e+40 kg/m^3 with area 0.012 m^2: 2 pi G "
            f"rho_a rho_b S lambda^2 overflows from lambda {grid[first]:g} m"
        )
        assert message.endswith(" 6.02812e+119 m")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _alpha_bounds(grid, plates, ((1e-5, 1e-5),), RESOLUTION)

    def test_lambda_squared_underflow(self):
        # a gap of 1e-175 m keeps exp(gap/lam) near 1, so the inf comes
        # from lam**2 rounding to zero below about 2.2e-162 m
        gap = 1e-175
        expected = _scan_matches_reference(1e-5, gap, 1e-170, 1e-150, 200)
        assert 0 < expected.count(math.inf) < len(expected)
        assert all(math.exp(gap / lam) < 2.0 for lam in (1e-170, 1e-150))

    def test_zero_bracket(self):
        # a 1e-175 m film: -t/lam rounds to zero above lam of about 4e148 m.
        # With both films this thin the squared bracket is already zero
        # over the whole grid, so every alpha is inf
        thickness = 1e-175
        expected = _scan_matches_reference(thickness, 5e-6, 1e140, 1e150, 50)
        assert expected == [math.inf] * 50
        assert math.expm1(-thickness / 1e150) == 0.0

    def test_one_zero_bracket_of_distinct_thicknesses(self):
        # only the thin film's bracket is zero; the thick one stays finite
        plates = facing_plates(1e-5, 1e-310)
        spec = reference_spec()
        spec.thickness_b = 1e-310
        for lam in (1e-6, 1e-3, 1e10, 1e20, 1e30):
            assert alpha_bound(lam, plates, RESOLUTION) == alpha_bound_reference(lam, spec)
        assert alpha_bound(1e20, plates, RESOLUTION) == math.inf


@given(
    resolution=_log_uniform(-20, -5),
    gap=_log_uniform(-180, -1),
    thickness_a=_log_uniform(-310, 1),
    thickness_b=_log_uniform(-310, 1),
    lam=_log_uniform(-200, 150),
)
def test_alpha_bound_equals_reference_bit_for_bit(
    resolution, gap, thickness_a, thickness_b, lam
):
    # gap, films and lambda span every branch: exp(gap/lam) overflow,
    # lam**2 and bracket underflow, and the finite bound
    spec = reference_spec(thickness_a, gap, resolution)
    spec.thickness_b = thickness_b
    plates = facing_plates(thickness_a, thickness_b, gap)
    assert alpha_bound(lam, plates, resolution) == alpha_bound_reference(lam, spec)


class TestCurveInterpolation:
    def test_power_law_is_exact(self):
        lambdas = tuple(1e-6 * 10 ** (i / 4) for i in range(17))
        alphas = tuple(2.5 * (lam / 1e-6) ** -1.7 for lam in lambdas)
        curve = Curve(lambdas=lambdas, alphas=alphas)
        mids = [math.sqrt(lambdas[i] * lambdas[i + 1]) for i in range(len(lambdas) - 1)]
        for lam, alpha in zip(mids, curve.alphas_at(mids)):
            assert alpha == pytest.approx(2.5 * (lam / 1e-6) ** -1.7, rel=1e-12)

    def test_nodes_reproduce(self):
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 50, (1e-5,))
        assert curve.alphas_at(curve.lambdas) == pytest.approx(curve.alphas, rel=1e-14)

    def test_extrapolation_refused(self):
        # refused as nan: alphas_at serves no value outside the curve
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 50, (1e-5,))
        below, above = curve.alphas_at([9.9e-7, 1.1e-2])
        assert math.isnan(below) and math.isnan(above)

    def test_curve_validation(self):
        with pytest.raises(InvalidParameterError, match="1e-06 follows 1e-06"):
            Curve(lambdas=(1e-6, 1e-6), alphas=(1.0, 2.0))
        with pytest.raises(InvalidParameterError, match="2 lambda values but 1 alpha"):
            Curve(lambdas=(1e-6, 1e-5), alphas=(1.0,))
        with pytest.raises(InvalidParameterError, match=r"alpha: .* got -2\.0$"):
            Curve(lambdas=(1e-6, 1e-5), alphas=(1.0, -2.0))
        with pytest.raises(InvalidParameterError, match="at least two points"):
            Curve(lambdas=(1e-6,), alphas=(1.0,))
        # alpha may be inf, lambda may not, and nothing may be nan; the
        # message names the first offending value, also mid-grid
        lam_message = "lambda: must be finite and > 0, got "
        alpha_message = "alpha: must be finite and > 0, got "
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
