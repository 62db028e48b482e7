"""Yukawa exclusion curves from a stated force resolution.

With the plate Yukawa force as the would-be signal, the smallest
coupling alpha the apparatus can see at each range lam follows from
inverting the force expression at the force resolution.  Anything
above the resulting curve would have produced a detectable force, so
the curve is an upper bound on allowed couplings.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import lt

from .core import require_positive
from .errors import DomainError, InvalidParameterError
from .gravity import PlatePairConfig, slab_coupling, yukawa_thickness_bracket

# ten times the 100 000-point stress scan; a larger one is refused before
# its grid is built
MAX_SCAN_POINTS = 1_000_000
# lam**2 in the inversion overflows a double above this range, in m
MAX_LAMBDA = math.sqrt(sys.float_info.max)


def alpha_bound(lam: float, plates: PlatePairConfig, force_resolution: float) -> float:
    """Smallest detectable |alpha| at range lam, dimensionless.

    Exact inversion of the Yukawa force between the two facing layers
    of plates, at their own thicknesses and the plate gap, at the
    force resolution (N):

        alpha = F_res * exp(d/lam) /
                (2 pi G rho_a rho_b S lam^2
                 * (1 - exp(-tau_a/lam)) * (1 - exp(-tau_b/lam)))

    Uses the same cancellation-safe thickness bracket as the force
    expression, so feeding the bound back into the force reproduces
    the resolution exactly.  Where exp(d/lam) overflows (lam far below
    the gap) no finite coupling is detectable and the bound is inf.
    """
    require_positive("lam", lam)
    require_positive("force_resolution", force_resolution)
    _require_squarable("lam", lam)
    facing_a, facing_b = plates.stack_a.layers[0], plates.stack_b.layers[0]
    return _alpha_bounds(
        (lam,), plates, facing_a.thickness, facing_b.thickness, force_resolution
    )[0]


def _require_squarable(name: str, lam: float) -> None:
    if lam > MAX_LAMBDA:
        raise DomainError(
            f"{name} {lam:g} m is above {MAX_LAMBDA:.3g} m: lambda**2 overflows"
        )


def _alpha_bounds(
    grid: Iterable[float],
    plates: PlatePairConfig,
    thickness_a: float,
    thickness_b: float,
    force_resolution: float,
) -> tuple[float, ...]:
    """alpha_bound at every lambda of grid for facing layers of the
    given thicknesses, unchecked.

    The lambda-independent factor is taken once; Python multiplies left
    to right, so every alpha is the same double as the full product.
    Raises DomainError naming both facing densities and the area if
    that factor overflows or underflows to zero.
    """
    facing_a, facing_b = plates.stack_a.layers[0], plates.stack_b.layers[0]
    area = plates.geometry.area()
    prefactor = slab_coupling(facing_a.density, facing_b.density, area)
    if not 0.0 < prefactor < math.inf:
        outcome = "underflows to zero" if prefactor == 0.0 else "overflows"
        raise DomainError(
            f"facing densities {facing_a.density:g} and {facing_b.density:g} "
            f"kg/m^3 with area {area:g} m^2: 2 pi G rho_a rho_b S {outcome}"
        )
    gap = plates.gap.separation
    exp, bracket = math.exp, yukawa_thickness_bracket
    alphas = []
    for lam in grid:
        denominator = (
            prefactor * lam**2 * bracket(thickness_a, lam) * bracket(thickness_b, lam)
        )
        try:
            alphas.append(force_resolution * exp(gap / lam) / denominator)
        except (OverflowError, ZeroDivisionError):
            # exp(d/lam) overflows, or lam**2 underflows to zero
            alphas.append(math.inf)
    return tuple(alphas)


@dataclass(frozen=True)
class Curve:
    """alpha on a strictly increasing lambda grid: an exclusion curve
    or previously published bounds.

    alpha is positive, or inf where no finite coupling is detectable.
    Between knots alpha is interpolated linearly in (log lambda,
    log alpha), exact on power laws, from knot logs taken once per
    curve.
    """

    lambdas: tuple[float, ...]
    alphas: tuple[float, ...]
    source: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        object.__setattr__(self, "alphas", tuple(self.alphas))
        if len(self.lambdas) != len(self.alphas):
            raise InvalidParameterError(
                f"{len(self.lambdas)} lambda values but {len(self.alphas)} alpha values"
            )
        if len(self.lambdas) < 2:
            raise InvalidParameterError("a curve needs at least two points")
        # one pass in C: a strictly increasing grid from > 0 to < inf is
        # finite and positive throughout (any comparison with nan fails)
        lams, alphas = self.lambdas, self.alphas
        if (
            all(map(lt, repeat(0.0), alphas))
            and 0.0 < lams[0]
            and lams[-1] < math.inf
            and all(map(lt, lams, lams[1:]))
        ):
            return
        # the checks again, one value at a time, to name the offending one
        for lam, alpha in zip(self.lambdas, self.alphas):
            require_positive("lambda", lam)
            if alpha != math.inf:
                require_positive("alpha", alpha)
        for left, right in zip(self.lambdas, self.lambdas[1:]):
            if not right > left:
                raise InvalidParameterError(
                    f"lambda grid must be strictly increasing; {right!r} follows {left!r}"
                )

    @cached_property
    def _logs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return tuple(map(math.log, self.lambdas)), tuple(map(math.log, self.alphas))

    def domain(self) -> tuple[float, float]:
        return self.lambdas[0], self.lambdas[-1]

    def alphas_at(self, grid: Iterable[float]) -> list[float]:
        """alpha at every lambda of grid in one pass; nan outside the domain."""
        lo, hi = self.domain()
        return [self._interp(lam) if lo <= lam <= hi else math.nan for lam in grid]

    def alpha_at(self, lam: float) -> float:
        """alpha at lam; DomainError outside the domain (no extrapolation)."""
        lo, hi = self.domain()
        if not lo <= lam <= hi:
            raise DomainError(
                f"lambda {lam:g} m outside the curve domain "
                f"[{lo:g}, {hi:g}] m; extrapolation is not supported"
            )
        return self._interp(lam)

    def _interp(self, lam: float) -> float:
        # numpy.interp's arithmetic and retries on the logs: bit for bit
        # numpy.interp(log(lam), log(lambdas), log(alphas))
        xs, ys = self._logs
        x = math.log(lam)
        j = bisect_right(xs, x) - 1
        if j == len(xs) - 1 or xs[j] == x:
            return math.exp(ys[j])
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        y = slope * (x - xs[j]) + ys[j]
        if y != y:  # an infinite knot
            y = slope * (x - xs[j + 1]) + ys[j + 1]
            if y != y and ys[j] == ys[j + 1]:
                y = ys[j]
        return math.exp(y)


def exclusion_scan(
    plates: PlatePairConfig,
    force_resolution: float,
    lambda_min: float,
    lambda_max: float,
    n_points: int,
    thicknesses: tuple[float, ...],
) -> list[Curve]:
    """One exclusion curve per facing-layer thickness.

    Each curve is alpha_bound for plates with both facing layers set to
    its scan thickness; densities, area and gap are those of plates,
    and force_resolution is in N.  The lambda grid is log-spaced with
    n_points from lambda_min to lambda_max inclusive; every curve shares
    it, and n_points is at most MAX_SCAN_POINTS.  Output order follows
    the thicknesses argument.
    """
    require_positive("force_resolution", force_resolution)
    require_positive("lambda_min", lambda_min)
    require_positive("lambda_max", lambda_max)
    _require_squarable("lambda_max", lambda_max)
    if not lambda_max > lambda_min:
        raise DomainError(
            f"degenerate scan: lambda_max {lambda_max:g} must exceed "
            f"lambda_min {lambda_min:g}"
        )
    if n_points < 2:
        raise DomainError(f"degenerate scan: need at least 2 points, got {n_points}")
    if n_points > MAX_SCAN_POINTS:
        raise DomainError(
            f"scan too large: at most {MAX_SCAN_POINTS} points, got {n_points}"
        )
    if not thicknesses:
        raise InvalidParameterError("thicknesses must not be empty")
    # numpy.linspace's arithmetic on the exponents, with the endpoints
    # pinned so the grid starts and ends at exactly the requested lambdas
    lo, hi = math.log10(lambda_min), math.log10(lambda_max)
    step = (hi - lo) / (n_points - 1)
    grid = (
        lambda_min,
        *(10.0 ** (k * step + lo) for k in range(1, n_points - 1)),
        lambda_max,
    )
    curves = []
    for thickness in thicknesses:
        require_positive("thickness", thickness)
        alphas = _alpha_bounds(grid, plates, thickness, thickness, force_resolution)
        curves.append(Curve(lambdas=grid, alphas=alphas))
    return curves
