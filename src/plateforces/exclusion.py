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
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from operator import lt

from .core import CODATA2018, PhysicalConstants, require_positive
from .errors import DomainError, InvalidParameterError
from .gravity import yukawa_thickness_bracket

# ten times the 100 000-point stress scan; a larger one is refused before
# its grid is built
MAX_SCAN_POINTS = 1_000_000
# lam**2 in the inversion overflows a double above this range, in m
MAX_LAMBDA = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class ResolutionSpec:
    """Apparatus summary for the inversion: what force it can see and
    what plates it sees it with.

    force_resolution in N; gap in m; densities of the two facing layers
    in kg/m^3; their thicknesses in m; plate area in m^2.
    """

    force_resolution: float
    gap: float
    density_a: float
    density_b: float
    thickness_a: float
    thickness_b: float
    area: float

    def __post_init__(self) -> None:
        require_positive("force_resolution", self.force_resolution)
        require_positive("gap", self.gap)
        require_positive("density_a", self.density_a)
        require_positive("density_b", self.density_b)
        require_positive("thickness_a", self.thickness_a)
        require_positive("thickness_b", self.thickness_b)
        require_positive("area", self.area)

    def with_thickness(self, thickness: float) -> "ResolutionSpec":
        """Same apparatus with both facing layers at a new thickness."""
        return replace(self, thickness_a=thickness, thickness_b=thickness)


def alpha_bound(
    lam: float, spec: ResolutionSpec, constants: PhysicalConstants = CODATA2018
) -> float:
    """Smallest detectable |alpha| at range lam, dimensionless.

    Exact inversion of the slab-slab Yukawa force at the resolution:

        alpha = F_res * exp(d/lam) /
                (2 pi G rho_a rho_b S lam^2
                 * (1 - exp(-tau_a/lam)) * (1 - exp(-tau_b/lam)))

    Uses the same cancellation-safe thickness bracket as the force
    expression, so feeding the bound back into the force reproduces
    the resolution exactly.  Where exp(d/lam) overflows (lam far below
    the gap) no finite coupling is detectable and the bound is inf.
    """
    require_positive("lam", lam)
    _require_squarable("lam", lam)
    return _alpha_bounds((lam,), spec, constants)[0]


def _require_squarable(name: str, lam: float) -> None:
    if lam > MAX_LAMBDA:
        raise DomainError(
            f"{name} {lam:g} m is above {MAX_LAMBDA:.3g} m: lambda**2 overflows"
        )


def _alpha_bounds(
    grid: Iterable[float], spec: ResolutionSpec, constants: PhysicalConstants
) -> tuple[float, ...]:
    """alpha_bound at every lambda of grid, unchecked.

    The lambda-independent factor is taken once; Python multiplies left
    to right, so every alpha is the same double as the full product.
    """
    prefactor = (
        2.0 * math.pi * constants.G * spec.density_a * spec.density_b * spec.area
    )
    resolution, gap = spec.force_resolution, spec.gap
    thickness_a, thickness_b = spec.thickness_a, spec.thickness_b
    exp, bracket = math.exp, yukawa_thickness_bracket
    alphas = []
    for lam in grid:
        denominator = (
            prefactor * lam**2 * bracket(thickness_a, lam) * bracket(thickness_b, lam)
        )
        try:
            alphas.append(resolution * exp(gap / lam) / denominator)
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
    spec: ResolutionSpec,
    lambda_min: float,
    lambda_max: float,
    n_points: int,
    thicknesses: tuple[float, ...],
    constants: PhysicalConstants = CODATA2018,
) -> list[Curve]:
    """One exclusion curve per facing-layer thickness.

    The lambda grid is log-spaced with n_points from lambda_min to
    lambda_max inclusive; every curve shares it, and n_points is at most
    MAX_SCAN_POINTS.  Output order follows the thicknesses argument.
    """
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
        alphas = _alpha_bounds(grid, spec.with_thickness(thickness), constants)
        curves.append(Curve(lambdas=grid, alphas=alphas))
    return curves


def improvement_factor(new: Curve, prior: Curve, lam: float) -> float:
    """How far the new curve undercuts the prior bound at lam.

    Ratio prior/new of interpolated bounds; > 1 means improvement.
    lam must lie inside both domains.
    """
    new_lo, new_hi = new.domain()
    prior_lo, prior_hi = prior.domain()
    if not (new_lo <= lam <= new_hi and prior_lo <= lam <= prior_hi):
        raise DomainError(
            f"lambda {lam:g} m must lie inside both domains: "
            f"curve [{new_lo:g}, {new_hi:g}] m, "
            f"prior [{prior_lo:g}, {prior_hi:g}] m"
        )
    return prior.alpha_at(lam) / new.alpha_at(lam)
