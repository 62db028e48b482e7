"""Torsion-balance sensitivity and plate-alignment effects.

Converts wire properties into a torque sensitivity, torque sensitivity
into a minimum detectable force, and plate tilt into both a gap spread
and the tilt-averaged Casimir force.
"""

from __future__ import annotations

import math

from .casimir import casimir_zero_t
from .core import _Record, require_non_negative, require_positive
from .errors import DomainError, InvalidParameterError

# Shear moduli (Pa) for the usual torsion fiber materials.
SHEAR_MODULUS = {
    "tungsten": 1.61e11,
    "quartz": 3.1e10,
}

# Manufacturable torsion-fiber diameters, m; outside this band the
# wire model is being asked about hardware nobody can wind a balance
# from, so construction refuses.
WIRE_DIAMETER_MIN = 10e-6
WIRE_DIAMETER_MAX = 1e-3

DEFAULT_WIRE_LENGTH = 0.5


class TorsionWire(_Record):
    """Torsion fiber: material label, shear modulus (Pa), diameter and length (m)."""

    def __init__(
        self,
        material: str,
        shear_modulus: float,
        diameter: float,
        length: float = DEFAULT_WIRE_LENGTH,
    ) -> None:
        require_positive("shear_modulus", shear_modulus)
        require_positive("diameter", diameter)
        require_positive("length", length)
        if not WIRE_DIAMETER_MIN <= diameter <= WIRE_DIAMETER_MAX:
            raise InvalidParameterError(
                f"diameter: must lie in the supported band "
                f"[{WIRE_DIAMETER_MIN:g}, {WIRE_DIAMETER_MAX:g}] m, got {diameter!r} m"
            )
        self._freeze(material, shear_modulus, diameter, length)


class BalanceConfig(_Record):
    """Balance readout: torque sensitivity kappa (N m/rad), torque arm
    length (m) and the smallest resolvable arm-tip displacement (m)."""

    def __init__(
        self, torque_sensitivity: float, arm_length: float, min_displacement: float
    ) -> None:
        require_positive("torque_sensitivity", torque_sensitivity)
        require_positive("arm_length", arm_length)
        require_positive("min_displacement", min_displacement)
        self._freeze(torque_sensitivity, arm_length, min_displacement)


class TiltConfig(_Record):
    """Relative plate tilt angle (rad) and the plate extent along the
    tilt direction (m)."""

    def __init__(self, angle: float, plate_length_along_tilt: float) -> None:
        require_non_negative("angle", angle)
        require_positive("plate_length_along_tilt", plate_length_along_tilt)
        self._freeze(angle, plate_length_along_tilt)


def torsion_constant(wire: TorsionWire) -> float:
    """Torsional spring constant of a cylindrical fiber, N m/rad.

    kappa = pi * G_shear * r^4 / (2 * L)

    Raises DomainError naming the shear modulus, diameter and length if
    kappa overflows or underflows to zero.
    """
    radius = wire.diameter / 2.0
    kappa = math.pi * wire.shear_modulus * radius**4 / (2.0 * wire.length)
    if 0.0 < kappa < math.inf:
        return kappa
    outcome = "underflows to zero" if kappa == 0.0 else "overflows"
    raise DomainError(
        f"shear_modulus {wire.shear_modulus:g} Pa with diameter {wire.diameter:g} m "
        f"and length {wire.length:g} m: the torsion constant {outcome}"
    )


def min_detectable_force(balance: BalanceConfig, wire: TorsionWire | None = None) -> float:
    """Smallest force resolvable by the balance, N.

    A force F on the arm twists it by theta = F * arm / kappa and moves
    the tip by x = theta * arm, so the resolvable force is
    F_min = kappa * x_min / arm^2, with kappa the balance's
    torque_sensitivity or, if given, the torsion constant of wire.

    Raises DomainError naming all three inputs (for a wire, its own) if
    F_min overflows or underflows to zero.
    """
    kappa = balance.torque_sensitivity if wire is None else torsion_constant(wire)
    x_min, arm = balance.min_displacement, balance.arm_length
    try:
        force = kappa * x_min / arm**2
    except OverflowError:  # arm^2 overflows
        force = 0.0
    except ZeroDivisionError:  # arm^2 underflows to zero
        force = math.inf
    if 0.0 < force < math.inf:
        return force
    outcome = "underflows to zero" if force == 0.0 else "overflows"
    source = f"torque_sensitivity {kappa:g} N m/rad"
    if wire is not None:
        source = (
            f"wire torsion constant {kappa:g} N m/rad (shear_modulus {wire.shear_modulus:g} "
            f"Pa, diameter {wire.diameter:g} m, length {wire.length:g} m)"
        )
    raise DomainError(
        f"arm_length {arm:g} m with {source} and min_displacement {x_min:g} m: "
        f"kappa x_min / arm_length^2 {outcome}"
    )


def gap_variation_from_tilt(tilt: TiltConfig) -> float:
    """Peak-to-peak gap variation across the plate, m (small angles)."""
    return tilt.angle * tilt.plate_length_along_tilt


def tilted_casimir(
    area: float, plate_length: float, separation: float, angle: float
) -> float:
    """Casimir force on a plate tilted about its near edge, in N.

    The gap grows linearly from d = ``separation`` at the near edge to
    d + theta l at the far edge, so the flat-plate force on ``area``
    is multiplied by g(u) = (1 - (1 + u)^-3) / (3 u), u = theta l / d,
    taken as -expm1(-3 log1p(u)) / (3 u) without cancellation; g is 1
    at u = 0.  Tilts that close the gap (theta l >= d) are rejected.
    """
    require_positive("area", area)
    require_positive("plate_length", plate_length)
    require_positive("separation", separation)
    require_non_negative("angle", angle)
    rise = angle * plate_length
    if rise >= separation:
        raise DomainError(
            f"plate contact: tilt angle {angle:g} rad over {plate_length:g} m "
            f"raises the far edge by {rise:g} m, not less than the "
            f"{separation:g} m gap"
        )
    u = rise / separation
    g = -math.expm1(-3.0 * math.log1p(u)) / (3.0 * u) if u else 1.0
    return casimir_zero_t(area, separation) * g
