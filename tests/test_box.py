"""The physical input box, core.BOX, against exact rationals.

Every physics column of forces, budget and sensitivity (cli._COLUMNS) and
every alpha of the exclusion kernel must lie within 1e-12 relative of the
oracles in tests/oracles.py, at each corner of the box and on a sample
drawn inside it.  The one exemption is a value whose true size, or a
factor its formula names (exp(-d/lam), a thickness bracket, the Yukawa
force in its ratio to the resolution), is below the smallest normal
double: the test computes that factor and then asks only that the value
be finite.  An alpha where exp(d/lam) overflows is inf by
the kernel's overflow prefix.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exact_alpha, exact_row
from plateforces import DomainError, ExperimentConfig
from plateforces.balance import BalanceConfig, TiltConfig, TorsionWire
from plateforces.casimir import ThermalModel
from plateforces.cli import _COLUMNS
from plateforces.core import BOX, GapConfig, MaterialLayer, PlateGeometry, PlateStack, YukawaParams
from plateforces.exclusion import exclusion_scan
from plateforces.gravity import PlatePairConfig

TINY = sys.float_info.min

# each flat parameter of exact_row, its quantity in the box and its baseline value
PARAMETERS = {
    "length": ("length", 0.10), "width": ("length", 0.12),
    "rho_a": ("density", 19.3e3), "tau_a": ("length", 1e-5),
    "rho_b": ("density", 19.3e3), "tau_b": ("length", 1e-5),
    "gap": ("length", 5e-6), "temperature": ("temperature", 300.0),
    "eta": ("reduction_factor", 1.0), "voltage": ("voltage", 0.1),
    "shear": ("shear_modulus", 1.61e11), "diameter": ("diameter", 5e-5),
    "wire_length": ("length", 0.5), "kappa": ("torque_sensitivity", 1e-6),
    "arm": ("length", 0.1), "x_min": ("length", 1e-9),
    "angle": ("angle", 1e-6), "tilt_length": ("length", 0.12),
    "resolution": ("force", 1e-12), "alpha": ("alpha", 1.0), "lam": ("length", 1e-5),
}
BASE = {name: value for name, (_, value) in PARAMETERS.items()}


def corners(name: str) -> tuple[float, ...]:
    """Both ends of the parameter's box, 0 where the box allows it, and
    alpha's negative ends."""
    lo, hi, _, zero = BOX[PARAMETERS[name][0]]
    return (lo, hi) + ((0.0,) if zero else ()) + ((-lo, -hi) if name == "alpha" else ())


# the parameters that each physics column reads, its code value at every
# corner of them checked with the rest at the baseline; the other columns
# copy an input, a flag or an earlier column
FORCE = ("length", "width", "gap")
YUKAWA = ("rho_a", "tau_a", "rho_b", "tau_b", "length", "width", "gap", "alpha", "lam")
WIRE = ("shear", "diameter", "wire_length")
COLUMN_PARAMETERS = {
    "casimir_zero_t_N": FORCE,
    "casimir_flat_N": FORCE,
    "thermal_N": (*FORCE, "temperature"),
    "total_N": (*FORCE, "temperature", "eta"),
    "total_casimir_N": (*FORCE, "temperature", "eta"),
    "newton_N": ("rho_a", "tau_a", "rho_b", "tau_b", "length", "width"),
    "yukawa_N": YUKAWA,
    "electrostatic_N": (*FORCE, "voltage"),
    "ratio_electrostatic_casimir_zero_t_1": (*FORCE, "voltage"),
    "ratio_newton_casimir_zero_t_1": ("rho_a", "tau_a", "rho_b", "tau_b", *FORCE),
    "ratio_total_casimir_resolution_1": (*FORCE, "temperature", "eta", "resolution"),
    "ratio_yukawa_resolution_1": (*YUKAWA, "resolution"),
    "kappa_wire_Nm_per_rad": WIRE,
    "f_min_wire_N": (*WIRE, "x_min", "arm"),
    "f_min_balance_N": ("kappa", "x_min", "arm"),
    "gap_variation_m": ("angle", "tilt_length"),
    "casimir_tilted_N": (*FORCE, "angle", "tilt_length"),
    "tilted_flat_ratio_1": (*FORCE, "angle", "tilt_length"),
}
NOT_PHYSICS = {
    "gap_m", "thermal_trusted_1", "resolution_N", "kappa_balance_Nm_per_rad", "resolution_met_1",
}
# _COLUMNS in an order that evaluates each column after those it reads
ORDER = (
    "gap_m", "casimir_zero_t_N", "casimir_flat_N", "thermal_N", "total_N", "total_casimir_N",
    "newton_N", "yukawa_N", "electrostatic_N", "thermal_trusted_1", "resolution_N",
    "ratio_electrostatic_casimir_zero_t_1", "ratio_newton_casimir_zero_t_1",
    "ratio_total_casimir_resolution_1", "ratio_yukawa_resolution_1", "kappa_wire_Nm_per_rad",
    "f_min_wire_N", "kappa_balance_Nm_per_rad", "f_min_balance_N", "gap_variation_m",
    "casimir_tilted_N", "tilted_flat_ratio_1", "resolution_met_1",
)


def config_of(p: dict) -> ExperimentConfig:
    plates = PlatePairConfig(
        PlateStack((MaterialLayer("a", p["rho_a"], p["tau_a"]),)),
        PlateStack((MaterialLayer("b", p["rho_b"], p["tau_b"]),)),
        PlateGeometry(p["length"], p["width"]),
        GapConfig(p["gap"], p["temperature"]),
    )
    return ExperimentConfig(
        plates, ThermalModel(p["eta"]), p["voltage"],
        TorsionWire("w", p["shear"], p["diameter"], p["wire_length"]),
        BalanceConfig(p["kappa"], p["arm"], p["x_min"]), TiltConfig(p["angle"], p["tilt_length"]),
        p["resolution"], YukawaParams(p["alpha"], p["lam"]), "",
    )


def code_row(p: dict) -> dict:
    """Every _COLUMNS value at the config gap; None for the tilted columns
    where the tilt closes the gap (a DomainError)."""
    config, row = config_of(p), {}
    for column in ORDER:
        if column == "tilted_flat_ratio_1" and row["casimir_tilted_N"] is None:
            row[column] = None
            continue
        try:
            row[column] = _COLUMNS[column](config, p["gap"], row)
        except DomainError:
            row[column] = None
    return row


def assert_close(value, exact, factors=(), where=None) -> None:
    if exact is None:
        assert value is None, where
    elif exact == 0:
        assert value == 0, where
    elif abs(exact) < TINY or min(factors, default=1) < TINY:
        assert math.isfinite(value), where
    else:
        assert abs(Fraction(value) - exact) <= abs(exact) / 10**12, (where, value, float(exact))


def assert_row(p: dict, columns=COLUMN_PARAMETERS) -> None:
    row = code_row(p)
    exact, factors = exact_row(p)
    for column in columns:
        assert_close(row[column], exact[column], factors.get(column, ()), (column, p))


def test_every_column_is_checked_or_not_physics():
    assert set(ORDER) == set(_COLUMNS) == set(COLUMN_PARAMETERS) | NOT_PHYSICS
    assert set(COLUMN_PARAMETERS).isdisjoint(NOT_PHYSICS)
    assert {quantity for quantity, _ in PARAMETERS.values()} == set(BOX) - {"area"}


def test_columns_at_every_corner_of_the_box():
    # two sides in the length box give an area in the area box
    (side_lo, side_hi, *_), (area_lo, area_hi, *_) = BOX["length"], BOX["area"]
    assert area_lo <= side_lo * side_lo and side_hi * side_hi <= area_hi
    for column, names in COLUMN_PARAMETERS.items():
        for values in product(*map(corners, names)):
            assert_row({**BASE, **dict(zip(names, values))}, (column,))


def box_values(name: str) -> st.SearchStrategy[float]:
    """Log-uniform in the parameter's box, 0 where allowed, either sign for alpha."""
    lo, hi, _, zero = BOX[PARAMETERS[name][0]]
    if name == "eta":
        return st.floats(lo, hi)
    inside = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))
    if name == "alpha":
        inside = st.tuples(inside, st.sampled_from([1.0, -1.0])).map(lambda pair: pair[0] * pair[1])
    return inside | st.just(0.0) if zero else inside


# plate_yukawa's exp(-d/lam) is 2e-322, a subnormal, at d = 1 mm and lam =
# 1.35 um, while the force at the largest coupling is about 1.5e-271 N
SUBNORMAL_DECAY = {
    **BASE, "gap": 1e-3, "lam": 1.35e-6, "alpha": 1e50, "rho_a": 1e5, "rho_b": 1e5,
    "length": 1e6, "width": 1e6, "tau_a": 1e6, "tau_b": 1e6,
}


@example(p=SUBNORMAL_DECAY)
@settings(max_examples=300, deadline=None)
@given(p=st.fixed_dictionaries({name: box_values(name) for name in PARAMETERS}))
def test_columns_inside_the_box(p):
    assert_row(p)


def test_subnormal_decay_loses_the_yukawa_force_digits():
    # a normal force from a subnormal factor: 1.0 % low, and exempt above
    exact, factors = exact_row(SUBNORMAL_DECAY)
    force = code_row(SUBNORMAL_DECAY)["yukawa_N"]
    assert 1e-323 < factors["yukawa_N"][0] < TINY
    assert 1e-271 < exact["yukawa_N"] < 2e-271 and force > TINY
    assert abs(Fraction(force) - exact["yukawa_N"]) > exact["yukawa_N"] / 10**3


def alpha_spec(p: dict) -> SimpleNamespace:
    return SimpleNamespace(
        force_resolution=p["resolution"], gap=p["gap"], density_a=p["rho_a"],
        density_b=p["rho_b"], thickness_a=p["tau_a"], thickness_b=p["tau_a"],
        area=p["length"] * p["width"],
    )


def assert_alphas(p: dict, lambdas: tuple[float, float]) -> None:
    config = config_of(p)
    (curve,) = exclusion_scan(config.plates, p["resolution"], *lambdas, 2, (p["tau_a"],))
    spec = alpha_spec(p)
    for lam, alpha in zip(curve.lambdas, curve.alphas):
        try:
            math.exp(p["gap"] / lam)
        except OverflowError:  # the overflow prefix
            assert alpha == math.inf, (lam, p)
            continue
        exact = exact_alpha(lam, spec)
        if exact > sys.float_info.max:
            assert alpha == math.inf, (lam, p)
        else:
            assert_close(alpha, exact, where=(lam, p))


ALPHA_PARAMETERS = ("rho_a", "rho_b", "length", "width", "gap", "resolution", "tau_a")


def test_alphas_at_every_corner_of_the_box():
    for values in product(*map(corners, ALPHA_PARAMETERS)):
        assert_alphas({**BASE, **dict(zip(ALPHA_PARAMETERS, values))}, BOX["length"][:2])


@settings(max_examples=200, deadline=None)
@given(
    p=st.fixed_dictionaries({name: box_values(name) for name in ALPHA_PARAMETERS}),
    lambdas=st.lists(box_values("lam"), min_size=2, max_size=2, unique=True).map(sorted),
)
def test_alphas_inside_the_box(p, lambdas):
    assert_alphas({**BASE, **p}, tuple(lambdas))
