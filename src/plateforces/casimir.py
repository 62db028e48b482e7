"""Casimir attraction between ideal parallel mirrors.

Covers the zero-temperature force, the classical thermal correction
and the finite-conductivity reduction factor that weights it.  All
forces are attractive and returned as positive magnitudes in newtons.
"""

from __future__ import annotations

import math
import sys

from .core import CODATA2018, _Record, require_non_negative, require_positive, separation_power
from .errors import DomainError, InvalidParameterError

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

    def __init__(self, reduction_factor: float = 1.0) -> None:
        if not 0.5 <= reduction_factor <= 1.0:
            raise InvalidParameterError(
                f"reduction_factor: must lie in [0.5, 1.0], got {reduction_factor!r}"
            )
        self._freeze(reduction_factor)


def _per_power(coeff: float, area: float, power: float) -> float:
    """coeff * area / power; coeff * (area / power), where finite, if
    coeff * area is below the normal doubles and so has lost digits."""
    if coeff * area < sys.float_info.min and (quotient := area / power) < math.inf:
        return coeff * quotient
    return coeff * area / power


def casimir_zero_t(area: float, separation: float) -> float:
    """Zero-temperature Casimir force between ideal mirrors.

    F = (pi^2 hbar c / 240) * S / d^4, with S / d^4 taken first below an
    area of about 1.7e-281 m^2, where the coefficient times S is subnormal.

    Parameters
    ----------
    area : float
        Facing plate area S, m^2.
    separation : float
        Plate separation d, m.

    Returns
    -------
    float
        Attractive force magnitude, N.

    Raises
    ------
    DomainError
        If d^4 underflows to zero or overflows (d below about 1.3e-81 m
        or above about 1.16e77 m), or naming the area and the separation
        if the force underflows to zero.
    """
    require_positive("area", area)
    require_positive("separation", separation)
    force = _per_power(CASIMIR_COEFF, area, separation_power(separation, 4))
    if force > 0.0:
        return force
    raise DomainError(
        f"area {area:g} m^2 at separation {separation:g} m: the Casimir "
        "force underflows to zero"
    )


def thermal_casimir(area: float, separation: float, temperature: float) -> float:
    """Classical (high-temperature) thermal Casimir force for ideal mirrors.

    F = (zeta(3) k_B T / 4 pi) * S / d^3

    This is the large-separation limit where the thermal photon
    wavelength is small compared to the gap; see THERMAL_TRUST_MIN_GAP
    for where that assumption starts to strain.  T = 0 returns 0.  S / d^3
    is taken first below an area of about 5.6e-287 m^2 at 300 K.

    Raises DomainError if d^3 underflows to zero or overflows (d below
    about 1.4e-108 m or above about 5.6e102 m).
    """
    require_positive("area", area)
    require_positive("separation", separation)
    require_non_negative("temperature", temperature)
    coeff = CODATA2018.zeta3 * CODATA2018.k_B * temperature / (4.0 * math.pi)
    return _per_power(coeff, area, separation_power(separation, 3))

