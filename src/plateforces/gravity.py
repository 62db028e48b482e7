"""Newtonian and Yukawa forces between layered plates.

The plate expressions treat the plates as laterally infinite slabs of
the given area (edge effects in gravity are negligible for gaps
microns wide and plates centimeters wide).  Attractive forces are
positive magnitudes; a negative Yukawa coupling alpha yields a
negative (repulsive) Yukawa contribution.
"""

from __future__ import annotations

import enum
import math

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


class LayerMode(enum.Enum):
    """Which layer pairs contribute to a stack-stack Yukawa force.

    METAL_ONLY keeps just the two facing layers; for micron ranges the
    films screen everything behind them and this is the conservative
    choice.  FULL_STACK sums every layer pair including the substrates,
    which matters once the range approaches the substrate thickness.
    """

    METAL_ONLY = "metal-only"
    FULL_STACK = "full-stack"


def yukawa_thickness_bracket(thickness: float, lam: float) -> float:
    """(1 - exp(-thickness/lam)) evaluated without cancellation.

    expm1 keeps full precision when thickness/lam is tiny, where the
    naive form loses all significant digits.  The inversion side,
    exclusion._alpha_bounds, does not call this helper: it multiplies
    two math.expm1(-thickness/lam) values directly, whose minus signs
    cancel, so force and bound still take the same brackets.
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
    return (
        slab_coupling(density_a, density_b, area)
        * yukawa.alpha
        * lam**2
        * math.exp(-separation / lam)
        * yukawa_thickness_bracket(thickness_a, lam)
        * yukawa_thickness_bracket(thickness_b, lam)
    )


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


def stack_yukawa(
    config: PlatePairConfig,
    yukawa: YukawaParams,
    mode: LayerMode = LayerMode.METAL_ONLY,
) -> float:
    """Yukawa force between two layered plates, in N.

    Sums plate_yukawa over layer pairs, each at the bare gap plus the
    two layers' depth offsets: every pair for FULL_STACK, only the
    facing pair (offsets 0, so the bare gap) for METAL_ONLY.
    """
    if mode is LayerMode.METAL_ONLY:
        depth = 1
    elif mode is LayerMode.FULL_STACK:
        depth = None
    else:
        raise ValueError(f"unknown layer mode: {mode!r}")
    area = config.geometry.area()
    d = config.gap.separation
    total = 0.0
    for i, layer_a in enumerate(config.stack_a.layers[:depth]):
        offset_a = config.stack_a.layer_offset(i)
        for j, layer_b in enumerate(config.stack_b.layers[:depth]):
            gap_ij = d + offset_a + config.stack_b.layer_offset(j)
            total += plate_yukawa(
                layer_a.density,
                layer_b.density,
                area,
                layer_a.thickness,
                layer_b.thickness,
                gap_ij,
                yukawa,
            )
    return total
