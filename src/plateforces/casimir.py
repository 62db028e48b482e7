"""Casimir attraction between ideal parallel mirrors.

Covers the zero-temperature force, the classical thermal correction
and the finite-conductivity reduction factor that weights it.  All
forces are attractive and returned as positive magnitudes in newtons.
"""

from __future__ import annotations

import math

from .core import CODATA2018, _Record, require_in_box

# pi^2 hbar c / 240, J m: the ideal-mirror zero-temperature pressure
# times d^4
CASIMIR_COEFF = math.pi**2 * CODATA2018.hbar * CODATA2018.c / 240.0

# Below roughly this separation the photon thermal wavelength no longer
# dwarfs the gap and the classical n=0 term stops being the whole
# thermal story; results are still computed but flagged.
THERMAL_TRUST_MIN_GAP = 5e-6


class ThermalModel(_Record):
    """How much of the ideal thermal Casimir term to credit.

    reduction_factor interpolates between the Drude-type prediction
    (about 0.5) and the plasma/ideal-mirror prediction (1.0); the
    spread between the two is an honest model uncertainty, not noise.
    """

    def __init__(self, reduction_factor: float) -> None:
        require_in_box("reduction_factor", reduction_factor, "reduction_factor")
        self._freeze(reduction_factor)


def casimir_zero_t(area: float, separation: float) -> float:
    """Zero-temperature Casimir force between ideal mirrors.

    F = (pi^2 hbar c / 240) * S / d^4

    Parameters
    ----------
    area : float
        Facing plate area S, m^2, in the BOX.
    separation : float
        Plate separation d, m, in the BOX.

    Returns
    -------
    float
        Attractive force magnitude, N: a normal double, from about 1e-71 N
        to 1e25 N over the box.
    """
    require_in_box("area", area, "area")
    require_in_box("separation", separation, "length")
    return CASIMIR_COEFF * area / separation**4


def thermal_casimir(area: float, separation: float, temperature: float) -> float:
    """Classical (high-temperature) thermal Casimir force for ideal mirrors.

    F = (zeta(3) k_B T / 4 pi) * S / d^3

    This is the large-separation limit where the thermal photon
    wavelength is small compared to the gap; see THERMAL_TRUST_MIN_GAP
    for where that assumption starts to strain.  T = 0 returns 0; every
    input lies in the BOX.
    """
    require_in_box("area", area, "area")
    require_in_box("separation", separation, "length")
    require_in_box("temperature", temperature, "temperature")
    coeff = CODATA2018.zeta3 * CODATA2018.k_B * temperature / (4.0 * math.pi)
    return coeff * area / separation**3
