"""Yukawa exclusion curves from a stated force resolution.

With the plate Yukawa force as the would-be signal, the smallest
coupling alpha the apparatus can see at each range lam follows from
inverting the force expression at the force resolution.  Anything
above the resulting curve would have produced a detectable force, so
the curve is an upper bound on allowed couplings.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import repeat, tee
from operator import lt, mul, truediv

from .core import _Record, require_lambda, require_positive
from .errors import DomainError, InvalidParameterError
from .gravity import PlatePairConfig, slab_coupling

# ten times the 100 000-point stress scan; a larger one is refused before
# its grid is built
MAX_SCAN_POINTS = 1_000_000
# lambdas whose scales and signals the alpha kernel holds at once
_SLICE_LAMBDAS = 4096


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
    require_lambda("lam", lam)
    require_positive("force_resolution", force_resolution)
    facing_a, facing_b = plates.stack_a.layers[0], plates.stack_b.layers[0]
    ((alpha,),) = _alpha_bounds(
        (lam,), plates, ((facing_a.thickness, facing_b.thickness),), force_resolution
    )
    return alpha


def _alpha_bounds(
    grid: tuple[float, ...],
    plates: PlatePairConfig,
    thickness_pairs: Iterable[tuple[float, float]],
    force_resolution: float,
) -> list[tuple[float, ...]]:
    """alpha_bound at every lambda of grid for each (thickness_a,
    thickness_b) pair of facing layers, one tuple per pair, unchecked.

    The grid past the overflow prefix is walked in slices of
    _SLICE_LAMBDAS lambdas: 2 pi G rho_a rho_b S * lam^2 and
    F_res * exp(d/lam) are taken once per slice for all pairs, which add
    only their brackets; C-level maps form every alpha.  Python
    multiplies left to right and negation is exact, so each alpha is the
    same double as the full product.  alpha is inf on the prefix of the
    grid where exp(d/lam) overflows, found by bisection, and where a
    denominator is zero; only the slice of a pair with a zero
    denominator is redone one lambda at a time.  Raises DomainError
    naming both facing densities and the area if 2 pi G rho_a rho_b S
    overflows or underflows to zero, or if its product with lam^2
    overflows, and naming force_resolution if an alpha underflows to
    zero, so every alpha is positive or inf.
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
    gap, pairs = plates.gap.separation, tuple(thickness_pairs)
    # exp(gap/lam) falls as lam rises, so the lambdas where it overflows
    # (alpha inf) are a prefix of the grid; the maps take the rest.  The
    # scales rise with lam, so any overflow is at the end
    first = bisect_left(grid, True, key=lambda lam: _exp_is_finite(gap / lam))
    overflow = bisect_left(grid, math.inf, first, key=lambda lam: prefactor * lam**2)
    if overflow < len(grid):
        raise DomainError(
            f"facing densities {facing_a.density:g} and {facing_b.density:g} "
            f"kg/m^3 with area {area:g} m^2: 2 pi G rho_a rho_b S lambda^2 "
            f"overflows from lambda {grid[overflow]:g} m"
        )
    # every signal is at least F_res and every denominator at most the last
    # scale, so an alpha can underflow to zero only where F_res / scale does
    top = prefactor * grid[-1] ** 2
    may_underflow = top > 0.0 and force_resolution / top == 0.0

    def denominators(thickness_a: float, thickness_b: float) -> Iterator[float]:
        # over the current slice's lams and scales.  expm1(-t/lam) is a
        # bracket without its minus sign; the two signs cancel in the product
        bracket_a = map(math.expm1, map(truediv, repeat(-thickness_a), lams))
        bracket_b = map(math.expm1, map(truediv, repeat(-thickness_b), lams))
        if thickness_b == thickness_a:  # read in step: tee holds one value
            bracket_a, bracket_b = tee(bracket_a)
        return map(mul, map(mul, scales, bracket_a), bracket_b)

    # full length from the start, inf on the overflow prefix; a slice is
    # assigned in place, and an assignment that raises leaves its list as it was
    bounds = [[math.inf] * len(grid) for _ in pairs]
    for lo in range(first, len(grid), _SLICE_LAMBDAS):
        # a slice at a time, so that no full-length temporary sits beside the
        # alphas; tuples, not arrays: an array builds a float on every read
        lams = grid[lo : lo + _SLICE_LAMBDAS]
        scales = tuple(map(mul, repeat(prefactor), map(pow, lams, repeat(2))))
        exps = map(math.exp, map(truediv, repeat(gap), lams))
        signals = tuple(map(mul, repeat(force_resolution), exps))
        for bound, pair in zip(bounds, pairs):
            try:
                bound[lo : lo + len(lams)] = map(truediv, signals, denominators(*pair))
            except ZeroDivisionError:
                # lam**2 or a bracket underflows to zero: alpha inf there
                bound[lo : lo + len(lams)] = (
                    signal / den if den else math.inf
                    for signal, den in zip(signals, denominators(*pair))
                )
    for k, bound in enumerate(bounds):
        if may_underflow and 0.0 in bound:
            raise DomainError(
                f"force_resolution {force_resolution:g} N: alpha underflows to "
                f"zero at lambda {grid[bound.index(0.0)]:g} m"
            )
        bounds[k] = tuple(bound)
    return bounds


def _exp_is_finite(x: float) -> bool:
    try:
        return math.exp(x) < math.inf
    except OverflowError:
        return False


class Curve(_Record):
    """alpha on a strictly increasing lambda grid: an exclusion curve
    or previously published bounds.

    alpha is positive, or inf where no finite coupling is detectable.
    Between knots alpha is interpolated linearly in (log lambda,
    log alpha), exact on power laws, from knot logs taken once per
    curve, on first use.
    """

    def __init__(
        self, lambdas: tuple[float, ...], alphas: tuple[float, ...], source: str = ""
    ) -> None:
        lams, alphas = tuple(lambdas), tuple(alphas)
        if len(lams) != len(alphas):
            raise InvalidParameterError(
                f"{len(lams)} lambda values but {len(alphas)} alpha values"
            )
        if len(lams) < 2:
            raise InvalidParameterError("a curve needs at least two points")
        # one pass in C: a strictly increasing grid from > 0 to < inf is
        # finite and positive throughout (any comparison with nan fails)
        if not (
            all(map(lt, repeat(0.0), alphas))
            and 0.0 < lams[0]
            and lams[-1] < math.inf
            and all(map(lt, lams, lams[1:]))
        ):
            # the checks again, one value at a time, to name the offending one
            for lam, alpha in zip(lams, alphas):
                require_positive("lambda", lam)
                if alpha != math.inf:
                    require_positive("alpha", alpha)
            for left, right in zip(lams, lams[1:]):
                if not right > left:
                    raise InvalidParameterError(
                        f"lambda grid must be strictly increasing; {right!r} follows {left!r}"
                    )
        self._freeze(lams, alphas, source)

    @cached_property
    def _logs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return tuple(map(math.log, self.lambdas)), tuple(map(math.log, self.alphas))

    def domain(self) -> tuple[float, float]:
        return self.lambdas[0], self.lambdas[-1]

    def alphas_at(self, grid: Iterable[float]) -> list[float]:
        """alpha at every lambda of grid in one pass; nan outside the domain."""
        lo, hi = self.domain()
        return [self._interp(lam) if lo <= lam <= hi else math.nan for lam in grid]

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
    n_points from lambda_min to lambda_max (at most MAX_LAMBDA)
    inclusive; every curve shares it, and n_points is at most
    MAX_SCAN_POINTS.  Points that collide in double precision make the
    scan degenerate.  Output order follows the thicknesses argument.
    """
    require_positive("force_resolution", force_resolution)
    require_positive("lambda_min", lambda_min)
    require_lambda("lambda_max", lambda_max)
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
    for thickness in thicknesses:
        require_positive("thickness", thickness)
    bounds = _alpha_bounds(grid, plates, zip(thicknesses, thicknesses), force_resolution)
    try:
        return [Curve(lambdas=grid, alphas=alphas) for alphas in bounds]
    except InvalidParameterError as exc:
        # the kernel refuses an alpha of zero or nan: only the grid can fail
        raise DomainError(
            f"degenerate scan: {n_points} points from lambda_min {lambda_min!r} "
            f"to lambda_max {lambda_max!r} m collide in double precision: {exc}"
        ) from None
