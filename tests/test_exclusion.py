import math
import os
import re
import signal
import tracemalloc
from array import array
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    UNSAFE_FORKS,
    assert_closed,
    assert_no_child_left,
    kernel_alpha,
    time_limit,
    unsafe_fork,
)
from oracles import alpha_bound_reference
from plateforces import DomainError, InvalidParameterError, core, exclusion
from plateforces.core import (
    GapConfig,
    MaterialLayer,
    PlateGeometry,
    PlateStack,
    YukawaParams,
)
from plateforces.exclusion import (
    MAX_SCAN_POINTS,
    Curve,
    _alpha_bounds,
    exclusion_scan,
    overflow_prefix,
)
from plateforces.gravity import PlatePairConfig, plate_yukawa, slab_coupling
from plateforces.cli import DEFAULT_SCAN_THICKNESSES, cmd_exclusion

GOLD = 19.3e3
RESOLUTION = 1e-12


def gold_plates(thickness=1e-5, gap=5e-6):
    """Two gold films of one thickness on 10 x 12 cm plates (area 0.012 m^2)."""
    gold = PlateStack((MaterialLayer("gold", GOLD, thickness),))
    return PlatePairConfig(gold, gold, PlateGeometry(0.1, 0.12), GapConfig(gap, 300.0))


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
        assert kernel_alpha(1e-5, gold_plates(), RESOLUTION) == pytest.approx(
            22.013316383214352, rel=1e-12
        )
        assert kernel_alpha(1e-5, gold_plates(), RESOLUTION) == pytest.approx(22.0, rel=1e-2)

    def test_round_trip_through_force(self):
        plates = gold_plates()
        for lam in (1e-6, 3.7e-6, 1e-5, 2.9e-4, 1e-2):
            alpha = kernel_alpha(lam, plates, RESOLUTION)
            force = plate_yukawa(
                GOLD, GOLD, 0.012, 1e-5, 1e-5, 5e-6, YukawaParams(alpha=alpha, lam=lam)
            )
            assert force == pytest.approx(RESOLUTION, rel=1e-12), lam

    def test_linear_in_resolution(self):
        assert kernel_alpha(1e-5, gold_plates(), 2e-12) == pytest.approx(
            2 * kernel_alpha(1e-5, gold_plates(), 1e-12), rel=1e-12
        )

    def test_thicker_films_see_smaller_couplings(self):
        bounds = [
            kernel_alpha(1e-5, gold_plates(thickness=t), RESOLUTION)
            for t in (0.3e-6, 1e-6, 3e-6, 1e-5)
        ]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_approaches_thick_plate_floor_from_above(self):
        floor = RESOLUTION / (2 * math.pi * 6.674e-11 * GOLD**2 * 0.012 * 1e-5 * 1e-5)
        far = kernel_alpha(1e4 * 1e-5, gold_plates(), RESOLUTION)
        assert far > floor
        assert far == pytest.approx(floor, rel=1e-3)

    @pytest.mark.parametrize("resolution", [0.0, -1e-12, math.nan, math.inf])
    def test_rejects_bad_resolution(self, resolution):
        with pytest.raises(InvalidParameterError, match="force_resolution"):
            exclusion_scan(gold_plates(), resolution, 1e-6, 1e-2, 10, (1e-5,))

    @pytest.mark.parametrize("density, outcome", [(1e200, "overflows"), (1e-200, "underflows")])
    def test_slab_prefactor_out_of_range_names_densities_and_area(self, density, outcome):
        # 2 pi G rho_a rho_b S would overflow or underflow to zero: the film
        # refuses the density, and over the box the prefactor stays within
        # about 4.2e-36 to 4.2e12
        refused = re.escape(f"density: must lie in [0.001, 100000] kg/m^3, got {density!r}")
        with pytest.raises(InvalidParameterError, match=f"^{refused}$"):
            MaterialLayer("gold", density, 1e-5)
        assert 4.1e-36 < slab_coupling(1e-3, 1e-3, 1e-20) < 4.2e-36
        assert 4.1e12 < slab_coupling(1e5, 1e5, 1e12) < 4.2e12

    @pytest.mark.parametrize("thickness", [1e-5, 1e-300], ids=["alpha-zero", "alpha-nan"])
    def test_overflowing_coupling_times_lambda_squared_names_densities_area_and_lambda(
        self, thickness
    ):
        # 2 pi G rho^2 S lam^2 would overflow for 1e40 kg/m^3 films past lam
        # of about 2e120 m: the density, a 1e-300 m film and a lambda_max of
        # 1e150 m are each refused by name
        with pytest.raises(InvalidParameterError, match="^density: must lie in "):
            MaterialLayer("dense", 1e40, thickness)
        with pytest.raises(InvalidParameterError, match=r"^lambda_max: must lie in .* got 1e\+150$"):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e150, 50, (thickness,))
        if thickness < 1e-10:
            with pytest.raises(InvalidParameterError, match="^thickness: must lie in "):
                exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e6, 50, (thickness,))

    def test_alpha_that_underflows_names_force_resolution(self):
        # alpha would underflow at 1e-300 N against 1e24 kg/m^3 films: the
        # resolution is refused by name, and at the box's corner (a 1e-30 N
        # resolution, the densest, widest and thickest plates, lambda
        # 1 000 km) alpha is about 6e-55, a normal double
        message = r"^force_resolution: must lie in \[1e-30, 1\] N, got 1e-300$"
        with pytest.raises(InvalidParameterError, match=message):
            exclusion_scan(gold_plates(), 1e-300, 1e-6, 1e-2, 10, (1e-5,))
        film = PlateStack((MaterialLayer("dense", 1e5, 1e6),))
        plates = PlatePairConfig(film, film, PlateGeometry(1e6, 1e6), GapConfig(1e-10, 300.0))
        assert 5.9e-55 < kernel_alpha(1e6, plates, 1e-30) < 6e-55


class TestExclusionScan:
    def test_grid_shape_and_endpoints(self):
        curves = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 2, (1e-5,))
        (curve,) = curves
        assert len(curve.lambdas) == 2
        assert curve.alphas[0] == kernel_alpha(curve.lambdas[0], gold_plates(), RESOLUTION)
        assert curve.alphas[1] == kernel_alpha(curve.lambdas[1], gold_plates(), RESOLUTION)

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

    def test_grid_past_max_lambda_is_refused_before_the_kernel(self):
        # lambdas far past the box's 1e6 m are refused, and so is a grid in
        # it whose points collide, before the kernel sees either
        lambda_min, lambda_max = 1.3407807929942e154, 1.3407807929942596e154
        collision = "^" + re.escape(
            "degenerate scan: 100 points from lambda_min 1.0 to lambda_max "
            "1.000000000000001 m collide in double precision: "
            "lambda grid must be strictly increasing; "
        )
        with mock.patch.object(exclusion, "_alpha_bounds") as kernel:
            refused = r"^lambda_min: must lie in .* got 1\.3407807929942e\+154$"
            with pytest.raises(InvalidParameterError, match=refused):
                exclusion_scan(gold_plates(), RESOLUTION, lambda_min, lambda_max, 1000, (1e-5,))
            with pytest.raises(DomainError, match=collision):
                exclusion_scan(gold_plates(), RESOLUTION, 1.0, 1.000000000000001, 100, (1e-5,))
        kernel.assert_not_called()

    def test_grid_whose_points_collide_is_degenerate(self):
        # 100 log-spaced points within five ulps of 1 m cannot all be distinct
        message = (
            "^degenerate scan: 100 points from lambda_min 1.0 to lambda_max "
            "1.000000000000001 m collide in double precision: "
        )
        with pytest.raises(DomainError, match=message):
            exclusion_scan(gold_plates(), RESOLUTION, 1.0, 1.000000000000001, 100, (1e-5,))

    def test_rejects_lambda_max_whose_square_overflows(self):
        # the box ends at 1e6 m, far below where lam**2 would overflow
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e6, 4, (1e-5,))
        assert all(math.isfinite(alpha) for alpha in curve.alphas)
        with pytest.raises(
            InvalidParameterError, match=r"^lambda_max: must lie in \[1e-10, 1e\+06\] m, got 1e\+300$"
        ):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e300, 4, (1e-5,))
        with pytest.raises(InvalidParameterError, match="^lambda_max: must lie in "):
            exclusion_scan(gold_plates(), RESOLUTION, 1e-6, math.nextafter(1e6, math.inf), 4, (1e-5,))

    def test_curves_share_one_grid(self):
        # cmd_exclusion puts each curve's lambdas in its table block, and
        # to_csv formats a tuple that several blocks hold once; a grid copied
        # per curve loses that
        curves = exclusion_scan(gold_plates(), RESOLUTION, 1e-6, 1e-2, 50, (3e-7, 1e-6, 1e-5))
        assert all(curve.lambdas is curves[0].lambdas for curve in curves)

    def test_curves_built_on_the_checked_grid_equal_checked_curves(self):
        # the scan checks the shared grid once and builds no curve through
        # Curve's checks; every curve, inf alphas below the gap included, is
        # the same record as a checked one
        thicknesses = (3e-7, 1e-6, 1e-5)
        curves = exclusion_scan(gold_plates(), RESOLUTION, 1e-9, 1e-2, 50, thicknesses)
        assert curves[1].alphas[0] == math.inf
        for curve in curves:
            checked = Curve(lambdas=curves[0].lambdas, alphas=curve.alphas, source="")
            assert checked.lambdas is curve.lambdas
            assert curve == checked
            with pytest.raises(TypeError):
                hash(curve)
            assert repr(curve) == repr(checked)
            assert curve.alphas_at(curve.lambdas[1:]) == checked.alphas_at(curve.lambdas[1:])

    def test_stress_scan_holds_its_numbers_as_doubles(self, baseline_config):
        # the 4 x 100 000 alphas and the shared grid, 500 000 values: 4.0 MB
        # as 8-byte doubles, 16.0 MB as float objects in tuples
        tracemalloc.start()
        try:
            curves = exclusion_scan(
                baseline_config.plates, baseline_config.force_resolution,
                1e-6, 1e-2, 100_000, DEFAULT_SCAN_THICKNESSES,
            )
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(curves) == 4 and all(len(curve.alphas) == 100_000 for curve in curves)
        assert all(curve.lambdas is curves[0].lambdas for curve in curves)
        assert held < 6e6
        # beside that the kernel holds one slice's factors and alphas at a time
        assert peak - held < 0.4e6

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
        assert kernel_alpha(1e-9, gold_plates(), RESOLUTION) == math.inf
        (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-9, 1e-2, 5, (1e-5,))
        assert curve.alphas[0] == math.inf
        assert all(math.isfinite(alpha) for alpha in curve.alphas[1:])


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


@contextmanager
def two_processes():
    """The kernel forks for its upper half from two alphas past the overflow
    prefix on, as on a host with two usable CPUs, so that a one-lambda
    reference stays in one process.  Yields os.fork, wrapped; afterwards
    every such split has forked once and no child is left."""
    splits, real_forked = [], core._forked

    def forked(n_values, send):
        splits.append(n_values)
        return real_forked(n_values, send)

    with (
        mock.patch.object(core, "_PARALLEL_LINES", 2),
        mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True),
        mock.patch.object(os, "fork", wraps=os.fork) as fork,
        mock.patch.object(core, "_forked", forked),
        time_limit(60),
    ):
        yield fork
    assert fork.call_count == sum(n_values >= 2 for n_values in splits)
    assert_no_child_left()


SCAN_CASES = dict(
    resolution=_log_uniform(-16, -8),
    gap=_log_uniform(-7, -4),
    thicknesses=st.lists(_log_uniform(-8, -1), min_size=1, max_size=3),
    lambda_min=_log_uniform(-9, -5),
    decades=st.floats(0.1, 7.0),
    n_points=st.integers(2, 60),
)
SCAN_EXAMPLE = dict(resolution=1e-12, gap=5e-6, thicknesses=[1e-5], lambda_min=1e-9,
                    decades=7.0, n_points=60)


def _scan_equals_reference(resolution, gap, thicknesses, lambda_min, decades, n_points):
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


@example(**SCAN_EXAMPLE)
@given(**SCAN_CASES)
def test_scan_alpha_equals_reference_bit_for_bit(
    resolution, gap, thicknesses, lambda_min, decades, n_points
):
    _scan_equals_reference(resolution, gap, thicknesses, lambda_min, decades, n_points)


@example(**SCAN_EXAMPLE)
@given(**SCAN_CASES)
def test_scan_alpha_equals_reference_bit_for_bit_in_two_processes(
    resolution, gap, thicknesses, lambda_min, decades, n_points
):
    with two_processes():
        _scan_equals_reference(resolution, gap, thicknesses, lambda_min, decades, n_points)


def test_reference_oracle_reaches_the_overflow_region():
    (curve,) = exclusion_scan(gold_plates(), RESOLUTION, 1e-9, 1e-2, 60, (1e-5,))
    expected = [alpha_bound_reference(lam, reference_spec()) for lam in curve.lambdas]
    assert list(curve.alphas) == expected
    assert expected.count(math.inf) == 8


def overflows(x):
    try:
        math.exp(x)
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize(
    "lambda_min, lambda_max, prefix", [(1e-9, 1e-2, 8), (1e-10, 7e-9, 60), (1e-8, 1e-2, 0)]
)
def test_overflow_prefix_is_every_lambda_where_exp_overflows(lambda_min, lambda_max, prefix):
    (curve,) = exclusion_scan(gold_plates(), RESOLUTION, lambda_min, lambda_max, 60, (1e-5,))
    expected = [True] * prefix + [False] * (60 - prefix)
    assert [overflows(5e-6 / lam) for lam in curve.lambdas] == expected
    assert overflow_prefix(curve.lambdas, 5e-6) == prefix
    assert list(curve.alphas[:prefix]) == [math.inf] * prefix


# two curves: films of the box's smallest thickness, 1e-10 m, whose bracket
# falls to 1e-16 at its largest lambda, and 10 um
THICKNESSES = (1e-10, 1e-5)


def _scan_matches_reference(thickness, gap, lambda_min, lambda_max, n_points):
    plates = gold_plates(thickness, gap)
    (curve,) = exclusion_scan(plates, RESOLUTION, lambda_min, lambda_max, n_points, (thickness,))
    spec = reference_spec(thickness, gap)
    expected = [alpha_bound_reference(lam, spec) for lam in curve.lambdas]
    assert list(curve.alphas) == expected
    return expected


class TestKernelBranches:
    """Every branch of the shared alpha kernel against the one-lambda
    reference, bit for bit, out to the corners of the box."""

    def test_exp_overflow(self):
        # exp(gap/lam) overflows below lam = 5 um / 709.78, about 7.04 nm
        expected = _scan_matches_reference(1e-5, 5e-6, 1e-9, 1e-7, 200)
        assert 0 < expected.count(math.inf) < len(expected)
        # one grid across the overflow and up to the box's largest lambda
        grid = tuple(10.0 ** (k / 10) for k in range(-90, 61))
        bounds = _alpha_bounds(grid, gold_plates(), THICKNESSES, RESOLUTION)
        for thickness, alphas in zip(THICKNESSES, bounds):
            spec = reference_spec(thickness)
            assert list(alphas) == [alpha_bound_reference(lam, spec) for lam in grid]
        # exp(gap/lam) overflows on the 9 lambdas below 7.04 nm, and only there
        for alphas in bounds:
            assert alphas[:9] == array("d", [math.inf] * 9) and math.inf not in alphas[9:]

    def test_slices_match_alpha_bound_bit_for_bit(self):
        # three slices and a few points: exp(gap/lam) overflows below lam of
        # about 7.04 nm, inside the second slice, and the last slice reaches
        # the box's largest lambda, where the thin films' bracket is 1e-16
        n = core._SLICE_LINES
        grid = (
            *(1e-9 + k * 4.5e-9 / n for k in range(2 * n)),
            *(10.0 ** (-8 + 14 * (j + 1) / (n + 5)) for j in range(n + 5)),
        )
        assert grid[-1] == 1e6
        bounds = _alpha_bounds(grid, gold_plates(), THICKNESSES, RESOLUTION)
        for thickness, alphas in zip(THICKNESSES, bounds):
            plates = gold_plates(thickness)
            assert alphas == array("d", (kernel_alpha(lam, plates, RESOLUTION) for lam in grid))
        thin, thick = bounds
        first = thick.count(math.inf)
        assert n < first < 2 * n and thick[:first] == array("d", [math.inf] * first)
        # just past the prefix the thin films' alpha exceeds the largest double
        unbounded = thin.count(math.inf)
        assert first < unbounded < 2 * n and thin[:unbounded] == array("d", [math.inf] * unbounded)

    def test_scale_overflow_in_a_later_slice_names_its_lambda(self):
        # 2 pi G rho^2 S lam^2 would overflow for 1e40 kg/m^3 films in a later
        # slice: the density is refused by name, and the densest, widest
        # plates keep every scale of a three-slice grid up to 1e6 m finite
        with pytest.raises(InvalidParameterError, match=r"^density: must lie in .* got 1e\+40$"):
            MaterialLayer("dense", 1e40, 1e-5)
        film = PlateStack((MaterialLayer("dense", 1e5, 1e-5),))
        plates = PlatePairConfig(film, film, PlateGeometry(1e6, 1e6), GapConfig(5e-6, 300.0))
        n = core._SLICE_LINES
        grid = tuple(10.0 ** (-6 + 12 * k / (3 * n + 4)) for k in range(3 * n + 5))
        assert slab_coupling(1e5, 1e5, 1e12) * grid[-1] ** 2 < 4.2e24
        spec = SimpleNamespace(
            **{**vars(reference_spec()), "density_a": 1e5, "density_b": 1e5, "area": 1e12}
        )
        (alphas,) = _alpha_bounds(grid, plates, (1e-5,), RESOLUTION)
        assert list(alphas) == [alpha_bound_reference(lam, spec) for lam in grid]
        assert math.inf not in alphas

    def test_lambda_squared_underflow(self):
        # lam**2 would round to zero below about 2.2e-162 m: such a range is
        # refused, and at the box's smallest gap and lambdas (1e-10 m) every
        # alpha is finite
        with pytest.raises(InvalidParameterError, match="^lambda_min: must lie in "):
            exclusion_scan(gold_plates(gap=1e-10), RESOLUTION, 1e-170, 1e-150, 200, (1e-5,))
        expected = _scan_matches_reference(1e-5, 1e-10, 1e-10, 1e-8, 200)
        assert math.inf not in expected

    def test_zero_bracket(self):
        # a 1e-175 m film's bracket would be zero, and it is refused; the
        # box's thinnest film keeps a bracket of 1e-16 at its largest
        # lambda, so every alpha is finite
        with pytest.raises(InvalidParameterError, match="^thickness: must lie in "):
            exclusion_scan(gold_plates(), RESOLUTION, 1e4, 1e6, 50, (1e-175,))
        expected = _scan_matches_reference(1e-10, 5e-6, 1e4, 1e6, 50)
        assert math.inf not in expected
        assert math.expm1(-1e-10 / 1e6) == pytest.approx(-1e-16, rel=1e-15)

    def test_one_zero_bracket_of_distinct_thicknesses(self):
        # one scan, the box's thinnest and thickest films: no bracket is
        # zero, and both curves are finite and match the reference
        grid = (1e-6, 1e-3, 1.0, 1e3, 1e6)
        bounds = _alpha_bounds(grid, gold_plates(), (1e-10, 1e6), RESOLUTION)
        for thickness, alphas in zip((1e-10, 1e6), bounds):
            spec, plates = reference_spec(thickness), gold_plates(thickness)
            assert list(alphas) == [alpha_bound_reference(lam, spec) for lam in grid]
            assert all(kernel_alpha(lam, plates, RESOLUTION) == a for lam, a in zip(grid, alphas))
            assert math.inf not in alphas


class TestKernelBranchesInTwoProcesses(TestKernelBranches):
    """The same branches with every alpha past the middle of the grid's
    finite-exp part formed in a forked child."""

    @pytest.fixture(autouse=True)
    def forked(self):
        with two_processes():
            yield


def one_process_bounds(grid, plates, thicknesses):
    with mock.patch.object(core, "_PARALLEL_LINES", math.inf):
        return _alpha_bounds(grid, plates, thicknesses, RESOLUTION)


class TestTwoProcessKernel:
    @staticmethod
    def split(grid):
        first = sum(map(overflows, (5e-6 / lam for lam in grid)))
        return first, first + (len(grid) - first) // 2

    def test_split_past_an_overflow_run_over_half_the_grid(self):
        # exp(gap/lam) overflows below about 7.04 nm: on 60 of these 100 lambdas
        grid = (*(1e-9 + k * 6e-9 / 60 for k in range(60)), *(10.0 ** (-8 + k / 8) for k in range(40)))
        first, mid = self.split(grid)
        assert first == 60 and first > len(grid) // 2 and mid == 80
        plates = gold_plates()
        expected = one_process_bounds(grid, plates, THICKNESSES)
        with two_processes() as fork:
            assert _alpha_bounds(grid, plates, THICKNESSES, RESOLUTION) == expected
        assert fork.call_count == 1

    def test_split_inside_a_zero_bracket_run(self):
        # the thin films' bracket is below 1e-14 on the top 17 of these 50
        # lambdas, the box's nearest to a zero bracket, and the split at 25
        # falls inside that run
        grid = tuple(10.0 ** (-0.125 + k / 8) for k in range(49)) + (1e6,)
        first, mid = self.split(grid)
        small = [k for k, lam in enumerate(grid) if -math.expm1(-1e-10 / lam) < 1e-14]
        assert (first, mid, small) == (0, 25, list(range(33, 50)))
        plates = gold_plates()
        expected = one_process_bounds(grid, plates, THICKNESSES)
        assert math.inf not in expected[0]
        with two_processes() as fork:
            assert _alpha_bounds(grid, plates, THICKNESSES, RESOLUTION) == expected
        assert fork.call_count == 1

    def test_child_dying_mid_send_raises_oserror(self, pipes):
        # the child's upper halves, 20 000 doubles a curve, outgrow the pipe:
        # it is still sending when the parent has read the first of them
        grid = tuple(10.0 ** (-6 + k / 10_000) for k in range(40_000))
        children, real_fork, real_fill = [], os.fork, core._fill

        def fork():
            children.append(pid := real_fork())
            return pid

        def fill(pipe, buffer):
            if fill.calls == 1:
                os.kill(children[0], signal.SIGKILL)
            fill.calls += 1
            return real_fill(pipe, buffer)

        fill.calls = 0
        with two_processes() as forks, mock.patch.object(core, "_fill", fill):
            forks.side_effect = fork
            with pytest.raises(OSError, match="exited with -9"):
                _alpha_bounds(grid, gold_plates(), (1e-5, 3e-7), RESOLUTION)
        assert fill.calls == 2
        assert len(pipes) == 1
        assert_closed(pipes)

    @pytest.mark.parametrize("cause", UNSAFE_FORKS)
    def test_one_process_without_a_safe_fork(self, cause, monkeypatch, pipes):
        grid = tuple(10.0 ** (-9 + k / 4_000) for k in range(28_000))
        thicknesses = (1e-7, 3e-7, 1e-6)
        expected = one_process_bounds(grid, gold_plates(), thicknesses)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with unsafe_fork(cause, monkeypatch) as fork:
            assert _alpha_bounds(grid, gold_plates(), thicknesses, RESOLUTION) == expected
        assert fork.call_count == (cause == "refused")
        assert_closed(pipes)


@given(
    resolution=_log_uniform(-20, -5),
    gap=_log_uniform(-10, -1),
    thickness=_log_uniform(-10, 1),
    lam=_log_uniform(-10, 6),
)
def test_alpha_bound_equals_reference_bit_for_bit(resolution, gap, thickness, lam):
    # gap, films and lambda span the box: exp(gap/lam) overflow and the
    # finite bound
    spec = reference_spec(thickness, gap, resolution)
    plates = gold_plates(thickness, gap)
    assert kernel_alpha(lam, plates, resolution) == alpha_bound_reference(lam, spec)


class TestCurveInterpolation:
    def test_power_law_is_exact(self):
        lambdas = tuple(1e-6 * 10 ** (i / 4) for i in range(17))
        alphas = tuple(2.5 * (lam / 1e-6) ** -1.7 for lam in lambdas)
        curve = Curve(lambdas=lambdas, alphas=alphas, source="")
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
            Curve(lambdas=(1e-6, 1e-6), alphas=(1.0, 2.0), source="")
        with pytest.raises(InvalidParameterError, match="2 lambda values but 1 alpha"):
            Curve(lambdas=(1e-6, 1e-5), alphas=(1.0,), source="")
        with pytest.raises(InvalidParameterError, match=r"alpha: .* got -2\.0$"):
            Curve(lambdas=(1e-6, 1e-5), alphas=(1.0, -2.0), source="")
        with pytest.raises(InvalidParameterError, match="at least two points"):
            Curve(lambdas=(1e-6,), alphas=(1.0,), source="")
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
                Curve(lambdas=lambdas, alphas=alphas, source="")
        assert Curve(lambdas=(1e-9, 1e-6), alphas=(math.inf, 1.0), source="").alphas[0] == math.inf


def test_curve_holds_its_values_as_doubles():
    lambdas, alphas = (1e-6, 1e-5, 1e-4), (10.0, 1.0, math.inf)
    grid = array("d", lambdas)
    from_tuples = Curve(lambdas=lambdas, alphas=alphas, source="")
    from_arrays = Curve(lambdas=grid, alphas=array("d", alphas), source="")
    # an array('d') is kept, anything else copied into one
    assert from_arrays.lambdas is grid
    for field in (from_tuples.lambdas, from_tuples.alphas, from_arrays.alphas):
        assert type(field) is array and field.typecode == "d"
    floats = array("f", (1.0, 2.0))
    assert Curve(lambdas=floats, alphas=alphas[:2], source="").lambdas.typecode == "d"
    assert from_tuples == from_arrays
    with pytest.raises(TypeError):
        hash(from_arrays)
    assert Curve(lambdas=list(lambdas), alphas=list(alphas), source="") == from_arrays
    assert from_tuples != Curve(lambdas=lambdas, alphas=(10.0, 2.0, math.inf), source="")
    expected = (
        "Curve(lambdas=array('d', [1e-06, 1e-05, 0.0001]), "
        "alphas=array('d', [10.0, 1.0, inf]), source='')"
    )
    assert repr(from_tuples) == repr(from_arrays) == expected


class TestImprovementFactor:
    """The `exclusion` command's improvement_1 column: prior / new alpha."""

    @staticmethod
    def improvements(config, prior=None, scale=1.0):
        (block,) = cmd_exclusion(config, 1e-6, 1e-2, 100, (1e-5,)).rows
        _, lambdas, alphas = block
        if prior is None:
            prior = Curve(lambdas=lambdas, alphas=tuple(scale * a for a in alphas), source="")
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
            Curve(lambdas=(1e-5, 1e-6), alphas=(1.0, 2.0), source="")
        with pytest.raises(InvalidParameterError):
            Curve(lambdas=(1e-6, 1e-5), alphas=(0.0, 2.0), source="")
