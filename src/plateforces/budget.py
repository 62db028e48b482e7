"""Electrostatic background and the combined force budget.

The budget gathers every force acting between the plates at one gap:
the Casimir signal (zero-T and thermal pieces), the Newtonian pull of
the plates, the hypothetical Yukawa signal being hunted, and the
electrostatic background from residual surface potentials, next to the
instrument's force resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .casimir import THERMAL_TRUST_MIN_GAP, ThermalModel, casimir_zero_t, thermal_casimir
from .core import (
    CODATA2018,
    YukawaParams,
    require_non_negative,
    require_positive,
    separation_power,
)
from .errors import DomainError
from .gravity import PlatePairConfig, stack_newton, stack_yukawa


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


@dataclass(frozen=True)
class ForceBudget:
    """All forces at one gap, as positive magnitudes in N.

    thermal is the ideal-mirror thermal term before the reduction
    factor; eta records the factor so consumers can form the total
    Casimir force as casimir + eta * thermal.  yukawa_hypothesis is the
    magnitude of the hypothetical signal for the reference coupling.
    flags carries human-readable validity warnings (e.g. the thermal
    expression being extrapolated below its trusted gap).
    """

    gap: float
    casimir: float
    thermal: float
    newton: float
    yukawa_hypothesis: float
    electrostatic: float
    resolution: float
    eta: float = 1.0
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        require_positive("gap", self.gap)
        for name in ("casimir", "thermal", "newton", "yukawa_hypothesis", "electrostatic", "resolution"):
            require_non_negative(name, getattr(self, name))
        object.__setattr__(self, "flags", tuple(self.flags))

    def total_casimir(self) -> float:
        return self.casimir + self.eta * self.thermal


def build_budget(
    plates: PlatePairConfig,
    thermal_model: ThermalModel,
    stray_voltage: float,
    yukawa_reference: YukawaParams,
    force_resolution: float,
) -> ForceBudget:
    """Assemble the full force budget for one plate configuration.

    The Yukawa signal is that of the facing layers (LayerMode.METAL_ONLY).
    The electrostatic background is that of the plates themselves: their
    area and gap at stray_voltage.
    """
    require_positive("force_resolution", force_resolution)
    area = plates.geometry.area()
    d = plates.gap.separation
    flags: list[str] = []
    if d < THERMAL_TRUST_MIN_GAP:
        flags.append(
            f"thermal: gap {d:g} m is below the {THERMAL_TRUST_MIN_GAP:g} m "
            "trust threshold for the classical thermal expression"
        )
    flags.append(
        "electrostatic: assumes a uniform stray potential; patch-potential "
        "patterns are not modeled"
    )
    return ForceBudget(
        gap=d,
        casimir=casimir_zero_t(area, d),
        thermal=thermal_casimir(area, d, plates.gap.temperature),
        newton=stack_newton(plates),
        yukawa_hypothesis=abs(stack_yukawa(plates, yukawa_reference)),
        electrostatic=electrostatic_force(area, d, stray_voltage),
        resolution=force_resolution,
        eta=thermal_model.reduction_factor,
        flags=tuple(flags),
    )
