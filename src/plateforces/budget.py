"""Electrostatic background from residual surface potentials.

The `budget` command sets this background next to the Casimir signal,
the Newtonian pull of the plates, the hypothetical Yukawa signal and
the instrument's force resolution.
"""

from __future__ import annotations

from .core import CODATA2018, require_in_box


def electrostatic_force(area: float, separation: float, stray_voltage: float) -> float:
    """Attraction of a parallel-plate capacitor at the stray voltage, in N.

    F = epsilon0 S V^2 / (2 d^2)

    stray_voltage is in V; zero is allowed (perfectly compensated
    plates).  Over the BOX epsilon0 S is at least about 8.9e-32 and F
    at most about 4.4e26 N, so F keeps its digits.
    """
    require_in_box("area", area, "area")
    require_in_box("separation", separation, "length")
    require_in_box("stray_voltage", stray_voltage, "voltage")
    return CODATA2018.epsilon0 * area * stray_voltage**2 / (2.0 * separation**2)
