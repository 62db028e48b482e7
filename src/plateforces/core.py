"""Physical constants, plate geometry and material stacks.

Everything downstream of the config parser works in SI base units;
conversion from human-friendly units (um, mm, ...) happens only at the
I/O boundary.  The types here are frozen dataclasses: invariants are
checked once at construction, after which instances are immutable and
safe to share.

Sign convention used throughout the package: attractive forces are
reported as positive magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameterError


def require_positive(name: str, value: float) -> None:
    """Raise InvalidParameterError unless value is a finite number > 0."""
    if not value > 0 or value != value or value == float("inf"):
        raise InvalidParameterError(f"{name} must be a finite positive number, got {value!r}")


def require_non_negative(name: str, value: float) -> None:
    """Raise InvalidParameterError unless value is a finite number >= 0."""
    if not value >= 0 or value == float("inf"):
        raise InvalidParameterError(f"{name} must be a finite non-negative number, got {value!r}")


def separation_power(separation: float, exponent: int) -> float:
    """d**exponent, or DomainError naming d when it overflows or underflows to zero."""
    try:
        power = separation**exponent
    except OverflowError:
        power = math.inf
    if 0.0 < power < math.inf:
        return power
    size = "small" if (power == 0.0) == (exponent > 0) else "large"
    outcome = "underflows to zero" if power == 0.0 else "overflows"
    raise DomainError(f"separation {separation:g} m is too {size}: d^{exponent} {outcome}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants entering the force expressions.

    The one instance in use is CODATA2018, compiled into every physics
    function; none of them takes another set.  G = 6.674e-11 is
    rounded: it sits 4.5e-5 (relative) below CODATA-2018's 6.67430e-11,
    although output metadata names the set CODATA-2018.

    Attributes
    ----------
    hbar : float
        Reduced Planck constant, J s.
    c : float
        Speed of light in vacuum, m/s.
    k_B : float
        Boltzmann constant, J/K.
    G : float
        Newtonian gravitational constant, m^3 kg^-1 s^-2.
    epsilon0 : float
        Vacuum permittivity, F/m.
    zeta3 : float
        Riemann zeta(3), dimensionless.
    name : str
        Label recorded in output metadata.
    """

    hbar: float = 1.054571817e-34
    c: float = 2.99792458e8
    k_B: float = 1.380649e-23
    G: float = 6.674e-11
    epsilon0: float = 8.8541878128e-12
    zeta3: float = 1.2020569032
    name: str = "CODATA-2018"

    def __post_init__(self) -> None:
        for field_name in ("hbar", "c", "k_B", "G", "epsilon0", "zeta3"):
            require_positive(field_name, getattr(self, field_name))


CODATA2018 = PhysicalConstants()


@dataclass(frozen=True)
class PlateGeometry:
    """Rectangular plate footprint, lengths in meters."""

    length: float
    width: float

    def __post_init__(self) -> None:
        require_positive("length", self.length)
        require_positive("width", self.width)

    def area(self) -> float:
        """Face area S in m^2."""
        return self.length * self.width


@dataclass(frozen=True)
class MaterialLayer:
    """One homogeneous layer of a plate.

    density is in kg/m^3 and thickness in m.  The name is carried
    through to output metadata but has no physical meaning.
    """

    name: str
    density: float
    thickness: float

    def __post_init__(self) -> None:
        require_positive("density", self.density)
        require_positive("thickness", self.thickness)


@dataclass(frozen=True)
class PlateStack:
    """Layered plate, listed from the surface facing the gap inward.

    Layer 0 is the facing layer (e.g. a metal film); deeper layers sit
    behind it (e.g. a glass substrate).
    """

    layers: tuple[MaterialLayer, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise InvalidParameterError("a plate stack needs at least one layer")

    def layer_offset(self, index: int) -> float:
        """Distance from the facing surface to the near face of layer ``index``."""
        if not 0 <= index < len(self.layers):
            raise InvalidParameterError(
                f"layer index {index} out of range for a stack of {len(self.layers)} layers"
            )
        return sum(layer.thickness for layer in self.layers[:index])


@dataclass(frozen=True)
class GapConfig:
    """Face-to-face plate separation (m) and ambient temperature (K)."""

    separation: float
    temperature: float = 300.0

    def __post_init__(self) -> None:
        require_positive("separation", self.separation)
        require_non_negative("temperature", self.temperature)


@dataclass(frozen=True)
class YukawaParams:
    """Strength and range of a Yukawa-type correction to gravity.

    alpha is the dimensionless coupling relative to Newtonian gravity
    (any sign allowed); lam is the interaction range in meters.
    """

    alpha: float
    lam: float

    def __post_init__(self) -> None:
        if not self.alpha == self.alpha:
            raise InvalidParameterError("alpha must be a number, got nan")
        require_positive("lam", self.lam)
