"""Torsion-balance sensitivity and plate-alignment effects.

Converts wire properties into a torque sensitivity, torque sensitivity
into a minimum detectable force, and plate tilt into both a gap spread
and the tilt-averaged Casimir force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .casimir import CASIMIR_COEFF
from .core import require_non_negative, require_positive, separation_power
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


@dataclass(frozen=True)
class TorsionWire:
    """Torsion fiber: material label, shear modulus (Pa), diameter and length (m)."""

    material: str
    shear_modulus: float
    diameter: float
    length: float = DEFAULT_WIRE_LENGTH

    def __post_init__(self) -> None:
        require_positive("shear_modulus", self.shear_modulus)
        require_positive("diameter", self.diameter)
        require_positive("length", self.length)
        if not WIRE_DIAMETER_MIN <= self.diameter <= WIRE_DIAMETER_MAX:
            raise InvalidParameterError(
                f"wire diameter {self.diameter!r} m outside the supported "
                f"band [{WIRE_DIAMETER_MIN:g}, {WIRE_DIAMETER_MAX:g}] m"
            )

    @classmethod
    def tungsten(cls, diameter: float, length: float = DEFAULT_WIRE_LENGTH) -> "TorsionWire":
        return cls("tungsten", SHEAR_MODULUS["tungsten"], diameter, length)

    @classmethod
    def quartz(cls, diameter: float, length: float = DEFAULT_WIRE_LENGTH) -> "TorsionWire":
        return cls("quartz", SHEAR_MODULUS["quartz"], diameter, length)


@dataclass(frozen=True)
class BalanceConfig:
    """Balance readout: torque sensitivity kappa (N m/rad), torque arm
    length (m) and the smallest resolvable arm-tip displacement (m)."""

    torque_sensitivity: float
    arm_length: float
    min_displacement: float

    def __post_init__(self) -> None:
        require_positive("torque_sensitivity", self.torque_sensitivity)
        require_positive("arm_length", self.arm_length)
        require_positive("min_displacement", self.min_displacement)


@dataclass(frozen=True)
class TiltConfig:
    """Relative plate tilt angle (rad) and the plate extent along the
    tilt direction (m)."""

    angle: float
    plate_length_along_tilt: float

    def __post_init__(self) -> None:
        require_non_negative("angle", self.angle)
        require_positive("plate_length_along_tilt", self.plate_length_along_tilt)


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


def min_detectable_force(balance: BalanceConfig) -> float:
    """Smallest force resolvable by the balance, N.

    A force F on the arm twists it by theta = F * arm / kappa and moves
    the tip by x = theta * arm, so the resolvable force is
    F_min = kappa * x_min / arm^2.

    Raises DomainError naming all three inputs if F_min overflows or
    underflows to zero.
    """
    kappa, x_min, arm = balance.torque_sensitivity, balance.min_displacement, balance.arm_length
    try:
        force = kappa * x_min / arm**2
    except OverflowError:  # arm^2 overflows
        force = 0.0
    except ZeroDivisionError:  # arm^2 underflows to zero
        force = math.inf
    if 0.0 < force < math.inf:
        return force
    outcome = "underflows to zero" if force == 0.0 else "overflows"
    raise DomainError(
        f"arm_length {arm:g} m with torque_sensitivity {kappa:g} N m/rad and "
        f"min_displacement {x_min:g} m: kappa x_min / arm_length^2 {outcome}"
    )


def gap_variation_from_tilt(tilt: TiltConfig) -> float:
    """Peak-to-peak gap variation across the plate, m (small angles)."""
    return tilt.angle * tilt.plate_length_along_tilt


def tilted_casimir(
    plate_width: float, plate_length: float, separation: float, angle: float
) -> float:
    """Casimir force on a plate tilted about its near edge, in N.

    The gap grows linearly from ``separation`` at the near edge to
    separation + angle * plate_length at the far edge.  Integrating the
    ideal-mirror pressure over strips of width ``plate_width`` gives

        F = (pi^2 hbar c / 240) * w * (d^-3 - (d + theta l)^-3) / (3 theta)

    which reduces to the flat-plate force as theta -> 0.  Tilts that close
    the gap (theta * l >= d) and gaps whose powers overflow are rejected.
    For tiny theta the closed form subtracts nearly equal numbers, so a series
    in u = theta * l / d is used instead; the two branches agree to
    better than 1e-12 at the switch point.
    """
    require_positive("plate_width", plate_width)
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
    if angle == 0.0:
        return CASIMIR_COEFF * plate_width * plate_length / separation_power(separation, 4)
    u = rise / separation
    if u < 1e-4:
        # (1 - (1+u)^-3) / (3u) = 1 - 2u + (10/3)u^2 - 5u^3 + 7u^4 - ...
        # truncation below 1e-19 relative at the branch point
        g = 1.0 - 2.0 * u + (10.0 / 3.0) * u * u - 5.0 * u**3 + 7.0 * u**4
        return CASIMIR_COEFF * plate_width * plate_length / separation_power(separation, 4) * g
    return (
        CASIMIR_COEFF
        * plate_width
        * (separation_power(separation, -3) - (separation + rise) ** -3)
        / (3.0 * angle)
    )
