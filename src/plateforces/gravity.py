"""Newtonian and Yukawa forces between layered plates.

The plate expressions treat the plates as laterally infinite slabs of
the given area.  That holds for the micron-thick facing films, which
the Yukawa force sees, but not for substrates as thick as 15 mm under
a 10 x 12 cm footprint: finite plates of that shape pull at about
0.615 of the slab value, so stack_newton overstates the Newtonian
force of such stacks (by about 3.9 nN for configs/baseline.ini).
Attractive forces are positive magnitudes; a negative Yukawa coupling
alpha yields a negative (repulsive) Yukawa contribution.
"""

from __future__ import annotations

import math
import sys

from .core import (
    CODATA2018,
    GapConfig,
    PlateGeometry,
    PlateStack,
    YukawaParams,
    _Record,
    require_positive,
)


class PlatePairConfig(_Record):
    """Two facing layered plates of common footprint and their gap."""

    def __init__(
        self, stack_a: PlateStack, stack_b: PlateStack, geometry: PlateGeometry, gap: GapConfig
    ) -> None:
        self._freeze(stack_a, stack_b, geometry, gap)


def yukawa_thickness_bracket(thickness: float, lam: float) -> float:
    """(1 - exp(-thickness/lam)) evaluated without cancellation.

    expm1 keeps full precision when thickness/lam is tiny, where the
    naive form loses all significant digits.  The inversion side,
    exclusion._alpha_bounds, does not call this helper: it multiplies
    math.expm1(-thickness/lam) by itself, so the minus signs cancel and
    force and bound still take the same brackets.
    """
    return -math.expm1(-thickness / lam)


def slab_coupling(density_a: float, density_b: float, area: float) -> float:
    """2 pi G rho_a rho_b S, unchecked: the factor every slab-slab force
    starts with.  Python multiplies left to right, so this factor times
    further terms is the same double as the whole product spelled out."""
    return 2.0 * math.pi * CODATA2018.G * density_a * density_b * area


def plate_newton(
    density_a: float,
    density_b: float,
    area: float,
    thickness_a: float,
    thickness_b: float,
) -> float:
    """Newtonian attraction between two uniform slabs, in N.

    F = 2 pi G rho_a rho_b S tau_a tau_b

    Independent of the gap: an infinite slab pulls like an infinite
    sheet, and the sheet field does not decay with distance.
    """
    require_positive("density_a", density_a)
    require_positive("density_b", density_b)
    require_positive("area", area)
    require_positive("thickness_a", thickness_a)
    require_positive("thickness_b", thickness_b)
    return slab_coupling(density_a, density_b, area) * thickness_a * thickness_b


def plate_yukawa(
    density_a: float,
    density_b: float,
    area: float,
    thickness_a: float,
    thickness_b: float,
    separation: float,
    yukawa: YukawaParams,
) -> float:
    """Yukawa force between two uniform slabs separated by a gap, in N.

    F = 2 pi G rho_a rho_b S alpha lam^2 exp(-d/lam)
        * (1 - exp(-tau_a/lam)) * (1 - exp(-tau_b/lam))

    Obtained by integrating the point-point Yukawa force over both slab
    volumes.  Only material within about one range lam of each facing
    surface contributes, hence the thickness brackets.
    """
    require_positive("density_a", density_a)
    require_positive("density_b", density_b)
    require_positive("area", area)
    require_positive("thickness_a", thickness_a)
    require_positive("thickness_b", thickness_b)
    require_positive("separation", separation)
    lam = yukawa.lam
    coupling = slab_coupling(density_a, density_b, area) * yukawa.alpha
    decay = math.exp(-separation / lam)
    bracket_a = yukawa_thickness_bracket(thickness_a, lam)
    bracket_b = yukawa_thickness_bracket(thickness_b, lam)
    force = coupling * lam**2 * decay * bracket_a * bracket_b
    if math.isinf(force) and min(bracket_a, bracket_b) >= sys.float_info.min:
        # lam**2 can overflow where lam times each bracket does not; a zero or
        # subnormal bracket would lose the force, so that inf or nan stands
        force = coupling * (lam * bracket_a) * (lam * bracket_b) * decay
    return force


def stack_newton(config: PlatePairConfig) -> float:
    """Newtonian force between two layered plates: sum over layer pairs."""
    area = config.geometry.area()
    total = 0.0
    for layer_a in config.stack_a.layers:
        for layer_b in config.stack_b.layers:
            total += plate_newton(
                layer_a.density,
                layer_b.density,
                area,
                layer_a.thickness,
                layer_b.thickness,
            )
    return total


def stack_yukawa(config: PlatePairConfig, yukawa: YukawaParams) -> float:
    """Yukawa force between the facing layers (layers[0]) of two layered
    plates at the bare gap, in N: in magnitude a lower bound on the
    stacks' force, and nearly all of it for lam well below the films."""
    a, b = config.stack_a.layers[0], config.stack_b.layers[0]
    area, gap = config.geometry.area(), config.gap.separation
    return plate_yukawa(a.density, b.density, area, a.thickness, b.thickness, gap, yukawa)
