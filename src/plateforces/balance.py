"""Torsion-balance sensitivity and plate-alignment effects.

Converts wire properties into a torque sensitivity, torque sensitivity
into a minimum detectable force, and plate tilt into both a gap spread
and the tilt-averaged Casimir force.
"""

from __future__ import annotations

import math

from .casimir import casimir_zero_t
from .core import _Record, require_in_box
from .errors import DomainError

# Shear moduli (Pa) for the usual torsion fiber materials.
SHEAR_MODULUS = {
    "tungsten": 1.61e11,
    "quartz": 3.1e10,
}


class TorsionWire(_Record):
    """Torsion fiber: material label, shear modulus (Pa), diameter and length (m)."""

    def __init__(
        self, material: str, shear_modulus: float, diameter: float, length: float
    ) -> None:
        require_in_box("shear_modulus", shear_modulus, "shear_modulus")
        require_in_box("diameter", diameter, "diameter")
        require_in_box("length", length, "length")
        self._freeze(material, shear_modulus, diameter, length)


class BalanceConfig(_Record):
    """Balance readout: torque sensitivity kappa (N m/rad), torque arm
    length (m) and the smallest resolvable arm-tip displacement (m)."""

    def __init__(
        self, torque_sensitivity: float, arm_length: float, min_displacement: float
    ) -> None:
        require_in_box("torque_sensitivity", torque_sensitivity, "torque_sensitivity")
        require_in_box("arm_length", arm_length, "length")
        require_in_box("min_displacement", min_displacement, "length")
        self._freeze(torque_sensitivity, arm_length, min_displacement)


class TiltConfig(_Record):
    """Relative plate tilt angle (rad) and the plate extent along the
    tilt direction (m)."""

    def __init__(self, angle: float, plate_length_along_tilt: float) -> None:
        require_in_box("angle", angle, "angle")
        require_in_box("plate_length_along_tilt", plate_length_along_tilt, "length")
        self._freeze(angle, plate_length_along_tilt)


def torsion_constant(wire: TorsionWire) -> float:
    """Torsional spring constant of a cylindrical fiber, N m/rad.

    kappa = pi * G_shear * r^4 / (2 * L), from about 1e-21 to 1e10 N m/rad
    over the BOX.
    """
    radius = wire.diameter / 2.0
    return math.pi * wire.shear_modulus * radius**4 / (2.0 * wire.length)


def min_detectable_force(balance: BalanceConfig, wire: TorsionWire | None = None) -> float:
    """Smallest force resolvable by the balance, N.

    A force F on the arm twists it by theta = F * arm / kappa and moves
    the tip by x = theta * arm, so the resolvable force is
    F_min = kappa * x_min / arm^2, with kappa the balance's
    torque_sensitivity or, if given, the torsion constant of wire.  Over
    the BOX F_min lies between about 1e-52 N and 1e36 N.
    """
    kappa = balance.torque_sensitivity if wire is None else torsion_constant(wire)
    return kappa * balance.min_displacement / balance.arm_length**2


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
    require_in_box("area", area, "area")
    require_in_box("plate_length", plate_length, "length")
    require_in_box("separation", separation, "length")
    require_in_box("angle", angle, "angle")
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
