"""Electrostatic background from residual surface potentials.

The `budget` command sets this background next to the Casimir signal,
the Newtonian pull of the plates, the hypothetical Yukawa signal and
the instrument's force resolution.
"""

from __future__ import annotations

import math

from .core import CODATA2018, require_non_negative, require_positive, separation_power
from .errors import DomainError


def electrostatic_force(area: float, separation: float, stray_voltage: float) -> float:
    """Attraction of a parallel-plate capacitor at the stray voltage, in N.

    F = epsilon0 S V^2 / (2 d^2)

    stray_voltage is in V; zero is allowed (perfectly compensated
    plates).  Raises DomainError if d^2 overflows or underflows to zero,
    or naming the stray voltage if the force overflows.
    """
    require_positive("area", area)
    require_positive("separation", separation)
    require_non_negative("stray_voltage", stray_voltage)
    d_squared = separation_power(separation, 2)
    try:
        force = CODATA2018.epsilon0 * area * stray_voltage**2 / (2.0 * d_squared)
    except OverflowError:  # V^2 overflows
        force = math.inf
    if force < math.inf:
        return force
    raise DomainError(
        f"stray_voltage {stray_voltage:g} V is too large: the electrostatic "
        f"force at separation {separation:g} m overflows"
    )


def voltage_control_requirement(
    area: float,
    separation: float,
    stray_voltage: float,
    residual_target: float,
) -> float:
    """Fraction of the stray voltage that may survive compensation.

    Returns the ratio V_allowed / V_stray such that the electrostatic
    force at V_allowed equals residual_target.  Because the force is
    quadratic in V this is sqrt(target / background).  If the target is
    already at or above the uncompensated background the answer is
    capped at 1 (no compensation needed).
    """
    require_positive("residual_target", residual_target)
    background = electrostatic_force(area, separation, stray_voltage)
    if residual_target >= background:
        return 1.0
    return math.sqrt(residual_target / background)
