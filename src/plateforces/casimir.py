"""Casimir attraction between ideal parallel mirrors.

Covers the zero-temperature force, the classical thermal correction,
the finite-conductivity reduction factor that weights it, and the
finite-size (border) correction.  All forces are attractive and
returned as positive magnitudes in newtons.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import CODATA2018, require_non_negative, require_positive, separation_power
from .errors import InvalidParameterError

# pi^2 hbar c / 240, J m: the ideal-mirror zero-temperature pressure
# times d^4
CASIMIR_COEFF = math.pi**2 * CODATA2018.hbar * CODATA2018.c / 240.0

# Below roughly this separation the photon thermal wavelength no longer
# dwarfs the gap and the classical n=0 term stops being the whole
# thermal story; results are still computed but flagged.
THERMAL_TRUST_MIN_GAP = 5e-6

# Fractional force correction from the open border of a finite plate:
# delta F / F = BORDER_FORCE_COEFF_SCALAR * C * d / S for a scalar
# field.  The equivalent effective-area statement S_eff = S + 0.36 C d
# uses BORDER_AREA_COEFF_SCALAR; for the electromagnetic field that
# area prefactor is replaced by unity, which scales the force
# coefficient by 1/0.36.
BORDER_FORCE_COEFF_SCALAR = 0.12
BORDER_AREA_COEFF_SCALAR = 0.36


class FieldKind(enum.Enum):
    """Field content assumed for the border correction."""

    SCALAR = "scalar"
    ELECTROMAGNETIC = "electromagnetic"


@dataclass(frozen=True)
class ThermalModel:
    """How much of the ideal thermal Casimir term to credit.

    reduction_factor interpolates between the Drude-type prediction
    (about 0.5) and the plasma/ideal-mirror prediction (1.0); the
    spread between the two is an honest model uncertainty, not noise.
    """

    reduction_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.5 <= self.reduction_factor <= 1.0:
            raise InvalidParameterError(
                "reduction_factor must lie in [0.5, 1.0], got "
                f"{self.reduction_factor!r}"
            )


def casimir_zero_t(area: float, separation: float) -> float:
    """Zero-temperature Casimir force between ideal mirrors.

    F = (pi^2 hbar c / 240) * S / d^4

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
        or above about 1.16e77 m).
    """
    require_positive("area", area)
    require_positive("separation", separation)
    return CASIMIR_COEFF * area / separation_power(separation, 4)


def thermal_casimir(area: float, separation: float, temperature: float) -> float:
    """Classical (high-temperature) thermal Casimir force for ideal mirrors.

    F = (zeta(3) k_B T / 4 pi) * S / d^3

    This is the large-separation limit where the thermal photon
    wavelength is small compared to the gap; see THERMAL_TRUST_MIN_GAP
    for where that assumption starts to strain.  T = 0 returns 0.

    Raises DomainError if d^3 underflows to zero or overflows (d below
    about 1.4e-108 m or above about 5.6e102 m).
    """
    require_positive("area", area)
    require_positive("separation", separation)
    require_non_negative("temperature", temperature)
    coeff = CODATA2018.zeta3 * CODATA2018.k_B * temperature / (4.0 * math.pi)
    return coeff * area / separation_power(separation, 3)


def border_correction(
    area: float,
    perimeter: float,
    separation: float,
    kind: FieldKind = FieldKind.SCALAR,
) -> float:
    """Fractional force correction from the plate border, dimensionless.

    For a scalar field the open border adds
    delta F / F = 0.12 * C * d / S; restoring the electromagnetic mode
    count replaces the 0.36 effective-area prefactor by unity, i.e.
    multiplies the scalar result by 1/0.36.  Valid for d much smaller
    than the plate size, where the correction is tiny.
    """
    require_positive("area", area)
    require_positive("perimeter", perimeter)
    require_positive("separation", separation)
    scalar = BORDER_FORCE_COEFF_SCALAR * perimeter * separation / area
    if kind is FieldKind.SCALAR:
        return scalar
    if kind is FieldKind.ELECTROMAGNETIC:
        return scalar / BORDER_AREA_COEFF_SCALAR
    raise InvalidParameterError(f"unknown field kind: {kind!r}")
