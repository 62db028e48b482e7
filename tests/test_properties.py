"""Invariants checked over randomized inputs rather than fixed anchors."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BASELINE_CONFIG_PATH, kernel_alpha, with_fields
from oracles import plate_newton_reference, plate_yukawa_reference

from plateforces import load_config, parse_length
from plateforces.balance import tilted_casimir
from plateforces.budget import electrostatic_force
from plateforces.casimir import ThermalModel, casimir_zero_t, thermal_casimir
from plateforces.core import GapConfig, MaterialLayer, PlateGeometry, PlateStack, YukawaParams
from plateforces.gravity import PlatePairConfig, plate_newton, plate_yukawa, slab_coupling
from plateforces.cli import cmd_budget, cmd_forces

sides = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
gaps = st.floats(min_value=1e-8, max_value=1e-3, allow_nan=False)
voltages = st.floats(min_value=1e-4, max_value=10.0, allow_nan=False)
densities = st.floats(min_value=1e2, max_value=3e4, allow_nan=False)
thicknesses = st.floats(min_value=1e-8, max_value=0.1, allow_nan=False)
lams = st.floats(min_value=1e-7, max_value=1e-1, allow_nan=False)
# each length unit as a shift of the power-of-ten exponent; "" is meters
UNIT_SHIFTS = {"": 0, "m": 0, "cm": -2, "mm": -3, "um": -6, "µm": -6, "nm": -9}


@given(length=sides, width=sides)
def test_geometry_symmetric(length, width):
    a = PlateGeometry(length, width)
    b = PlateGeometry(width, length)
    assert a.area() == b.area()


@given(area=sides, gap=gaps)
def test_casimir_scales_inverse_fourth(area, gap):
    assert casimir_zero_t(area, gap) == pytest.approx(
        16.0 * casimir_zero_t(area, 2.0 * gap), rel=1e-12
    )


@given(area=sides, gap=gaps, temperature=st.floats(min_value=1.0, max_value=1e3))
def test_thermal_scales_inverse_cube(area, gap, temperature):
    assert thermal_casimir(area, gap, temperature) == pytest.approx(
        8.0 * thermal_casimir(area, 2.0 * gap, temperature), rel=1e-12
    )


@given(area=sides, gap=gaps, voltage=voltages)
def test_electrostatic_quadratic_in_voltage(area, gap, voltage):
    one = electrostatic_force(area, gap, voltage)
    two = electrostatic_force(area, gap, 2.0 * voltage)
    assert two == pytest.approx(4.0 * one, rel=1e-12)


@given(
    density_a=densities,
    density_b=densities,
    area=sides,
    thickness_a=thicknesses,
    thickness_b=thicknesses,
)
def test_plate_newton_swap_symmetric(density_a, density_b, area, thickness_a, thickness_b):
    ab = plate_newton(density_a, density_b, area, thickness_a, thickness_b)
    ba = plate_newton(density_b, density_a, area, thickness_b, thickness_a)
    assert ab == pytest.approx(ba, rel=1e-13)


@given(
    density_a=densities,
    density_b=densities,
    area=sides,
    thickness_a=thicknesses,
    thickness_b=thicknesses,
)
def test_plate_newton_equals_reference_bit_for_bit(
    density_a, density_b, area, thickness_a, thickness_b
):
    args = (density_a, density_b, area, thickness_a, thickness_b)
    assert plate_newton(*args) == plate_newton_reference(*args)


# the first example is the budget golden's yukawa_N point
@example(19.3e3, 19.3e3, 0.012, 1e-5, 1e-5, 5e-6, 1.0, 1e-5)
@example(19.3e3, 3.0e3, 0.012, 3e-7, 15e-3, 1e-6, -2.5, 1e-9)
@given(
    density_a=densities,
    density_b=densities,
    area=sides,
    thickness_a=thicknesses,
    thickness_b=thicknesses,
    gap=gaps,
    # 0, or the box's magnitudes of alpha
    alpha=st.floats(min_value=-1e6, max_value=1e6).filter(lambda a: a == 0 or abs(a) >= 1e-50),
    lam=lams,
)
def test_plate_yukawa_equals_reference_bit_for_bit(
    density_a, density_b, area, thickness_a, thickness_b, gap, alpha, lam
):
    # the budget golden pins one point; this pins the whole product order
    args = (density_a, density_b, area, thickness_a, thickness_b, gap, YukawaParams(alpha, lam))
    assert plate_yukawa(*args) == plate_yukawa_reference(*args)


@given(thickness_a=thicknesses, thickness_b=thicknesses, gap=gaps, lam=lams)
def test_bracket_in_unit_interval(thickness_a, thickness_b, gap, lam):
    # plate_yukawa's brackets lie in (0, 1], so |F| <= |2 pi G rho_a rho_b S alpha lam^2 exp(-d/lam)|
    alpha = -2.5
    bound = slab_coupling(19.3e3, 3.0e3, 0.012) * alpha * lam**2 * math.exp(-gap / lam)
    force = plate_yukawa(19.3e3, 3.0e3, 0.012, thickness_a, thickness_b, gap, YukawaParams(alpha, lam))
    assert abs(force) <= abs(bound)
    assert force * alpha >= 0.0  # of alpha's sign, or 0 where exp(-d/lam) underflows


@given(
    density=densities,
    area=sides,
    thickness=thicknesses,
    gap=gaps,
    lam=lams,
    alpha=st.floats(min_value=1e-3, max_value=1e6),
)
def test_plate_yukawa_linear_in_alpha(density, area, thickness, gap, lam, alpha):
    one = plate_yukawa(density, density, area, thickness, thickness, gap, YukawaParams(1.0, lam))
    scaled = plate_yukawa(
        density, density, area, thickness, thickness, gap, YukawaParams(alpha, lam)
    )
    assert scaled == pytest.approx(alpha * one, rel=1e-12)


@given(
    lam=st.floats(min_value=1e-6, max_value=1e-3),
    step=st.floats(min_value=1.01, max_value=100.0),
)
def test_alpha_bound_strictly_decreasing(lam, step):
    gold = PlateStack((MaterialLayer("gold", 19.3e3, 1e-5),))
    plates = PlatePairConfig(gold, gold, PlateGeometry(0.1, 0.12), GapConfig(5e-6))
    assert kernel_alpha(lam * step, plates, 1e-12) < kernel_alpha(lam, plates, 1e-12)


@settings(max_examples=50)
@given(
    angle=st.floats(min_value=1e-12, max_value=1e-6),
    factor=st.floats(min_value=1.5, max_value=20.0),
)
def test_tilted_casimir_decreasing_in_angle(angle, factor):
    # fixed near-edge gap: more tilt means more average gap, less force
    low = tilted_casimir(0.10 * 0.12, 0.12, 5e-6, angle)
    high = tilted_casimir(0.10 * 0.12, 0.12, 5e-6, angle * factor)
    assert high < low


BASELINE = load_config(str(BASELINE_CONFIG_PATH))
# budget column -> the forces column it must equal bit for bit
SHARED_COLUMNS = {
    "gap_m": "gap_m",
    "casimir_zero_t_N": "casimir_zero_t_N",
    "thermal_N": "thermal_N",
    "total_casimir_N": "total_N",
    "newton_N": "newton_N",
    "electrostatic_N": "electrostatic_N",
}


# the config gap on each side of the thermal trust gap
@example(5e-6, 300.0, 1.0, 0.1, 0.10, 0.12)
@example(4.999e-6, 300.0, 0.5, 0.1, 0.10, 0.12)
@given(
    gap=gaps,
    # 0, or the box's temperatures
    temperature=st.just(0.0) | st.floats(min_value=1e-3, max_value=1e3),
    eta=st.floats(min_value=0.5, max_value=1.0),
    voltage=voltages,
    length=sides,
    width=sides,
)
def test_budget_row_is_the_forces_row_at_the_config_gap(
    gap, temperature, eta, voltage, length, width
):
    plates = with_fields(
        BASELINE.plates, geometry=PlateGeometry(length, width), gap=GapConfig(gap, temperature)
    )
    config = with_fields(BASELINE, plates=plates, thermal=ThermalModel(eta), stray_voltage=voltage)
    budget, forces = cmd_budget(config), cmd_forces(config, [gap])
    budget_row = dict(zip(budget.columns, budget.rows[0]))
    forces_row = dict(zip(forces.columns, forces.rows[0]))
    for budget_column, forces_column in SHARED_COLUMNS.items():
        assert budget_row[budget_column] == forces_row[forces_column], budget_column
    assert budget.warnings == forces.warnings


@given(
    sign=st.sampled_from(["", "+", "-"]),
    whole=st.text("0123456789", max_size=30),
    fraction=st.none() | st.text("0123456789", max_size=30),
    exponent=st.none() | st.integers(min_value=-400, max_value=400),
    space=st.sampled_from(["", " "]),
    unit=st.sampled_from(sorted(UNIT_SHIFTS)),
)
@example(sign="-", whole="1", fraction=None, exponent=-320, space=" ", unit="um")
def test_length_is_its_number_with_the_unit_shifting_the_exponent(
    sign, whole, fraction, exponent, space, unit
):
    mantissa = sign + whole + ("" if fraction is None else "." + fraction)
    assume(any(map(str.isdigit, mantissa)))
    text = mantissa + ("" if exponent is None else f"e{exponent}") + space + unit
    shift = (exponent or 0) + UNIT_SHIFTS[unit]
    value = parse_length(text)
    # bit for bit, the sign of a zero included
    assert repr(value) == repr(float(f"{mantissa}e{shift}"))
    # and the double nearest the exact decimal value
    exact = Fraction(mantissa) * Fraction(10) ** shift
    try:
        nearest = float(exact)
    except OverflowError:
        nearest = math.inf if exact > 0 else -math.inf
    assert value == nearest
