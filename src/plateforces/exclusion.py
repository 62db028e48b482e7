"""Yukawa exclusion curves from a stated force resolution.

With the plate Yukawa force as the would-be signal, the smallest
coupling alpha the apparatus can see at each range lam follows from
inverting the force expression at the force resolution.  Anything
above the resulting curve would have produced a detectable force, so
the curve is an upper bound on allowed couplings.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import repeat
from operator import lt, mul, truediv

from .core import _forked, _Record, require_lambda, require_positive
from .errors import DomainError, InvalidParameterError
from .gravity import PlatePairConfig, slab_coupling

# ten times the 100 000-point stress scan; a larger one is refused before
# its grid is built
MAX_SCAN_POINTS = 1_000_000
# lambdas whose scales and signals the alpha kernel holds at once
_SLICE_LAMBDAS = 4096


def _alpha_bounds(
    grid: Sequence[float],
    plates: PlatePairConfig,
    thicknesses: Iterable[float],
    force_resolution: float,
) -> list[array]:
    """Smallest detectable |alpha| at every lambda of grid for each
    thickness tau of both facing layers, one array('d') per thickness:
    the Yukawa force between the facing layers of plates (densities,
    area S, gap d) inverted at the force resolution (N),

        alpha = F_res * exp(d/lam) / (2 pi G rho_a rho_b S lam^2
                * (1 - exp(-tau/lam))^2),

    with the force's cancellation-safe bracket.  grid must be strictly
    increasing within (0, MAX_LAMBDA]; exclusion_scan checks that before
    calling, and this function does not.  Past the prefix where
    exp(d/lam) overflows (alpha inf, found by bisection), the grid is
    walked in slices of _SLICE_LAMBDAS lambdas: the scales
    2 pi G rho_a rho_b S lam^2 and signals F_res exp(d/lam) are taken once
    per slice, each thickness adds its bracket b, and one comprehension
    forms its alphas, s / (c * b * b).  Python multiplies left to right
    and negation is exact, so each alpha is the same double as the full
    product.  A slice with a zero denominator (alpha inf there) is redone
    one lambda at a time.  Where core._forked forks (from
    core._PARALLEL_LINES alphas past the prefix), a child forms the upper
    half of every curve there and sends it as raw doubles; the alphas are
    the same.  Raises DomainError, always in this process, naming both
    facing densities and the area if 2 pi G rho_a rho_b S overflows or
    underflows to zero or its product with lam^2 overflows, and naming
    force_resolution if an alpha underflows to zero, so every alpha is
    positive or inf.
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
    gap, thicknesses = plates.gap.separation, tuple(thicknesses)
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

    # full length from the start, inf on the overflow prefix; each slice is
    # assigned in place once all its alphas are formed
    bounds = [array("d", [math.inf]) * len(grid) for _ in thicknesses]

    def form(start: int, stop: int) -> None:
        for lo in range(start, stop, _SLICE_LAMBDAS):
            # a slice at a time, so that no full-length temporary sits beside the
            # alphas; its factors are tuples, since an array builds a float on every read
            lams = tuple(grid[lo : min(lo + _SLICE_LAMBDAS, stop)])
            scales = tuple(map(mul, repeat(prefactor), map(pow, lams, repeat(2))))
            exps = map(math.exp, map(truediv, repeat(gap), lams))
            signals = tuple(map(mul, repeat(force_resolution), exps))
            for bound, thickness in zip(bounds, thicknesses):
                # expm1(-t/lam) is a bracket without its minus sign, which
                # cancels in the square
                brackets = tuple(map(math.expm1, map(truediv, repeat(-thickness), lams)))
                try:
                    alphas = [s / (c * b * b) for s, c, b in zip(signals, scales, brackets)]
                except ZeroDivisionError:  # lam**2 or the bracket underflows to zero: alpha inf there
                    alphas = [s / d if (d := c * b * b) else math.inf for s, c, b in zip(signals, scales, brackets)]
                bound[lo : lo + len(lams)] = array("d", alphas)

    def send(pipe: object) -> None:
        form(mid, len(grid))
        pipe.writelines(memoryview(bound)[mid:] for bound in bounds)

    # past the prefix, a forked child forms the upper half of every curve
    mid = first + (len(grid) - first) // 2
    with _forked((len(grid) - first) * len(thicknesses), send) as receive:
        form(first, mid if receive else len(grid))
        for bound in bounds if receive else ():
            receive(memoryview(bound)[mid:])
    for bound in bounds:
        if may_underflow and 0.0 in bound:
            raise DomainError(
                f"force_resolution {force_resolution:g} N: alpha underflows to "
                f"zero at lambda {grid[bound.index(0.0)]:g} m"
            )
    return bounds


def _require_increasing(lams: Sequence[float]) -> None:
    """Raise InvalidParameterError unless lams is strictly increasing,
    naming the first lambda that does not exceed the one before it."""
    if all(map(lt, lams, lams[1:])):
        return
    for left, right in zip(lams, lams[1:]):
        if not right > left:
            raise InvalidParameterError(
                f"lambda grid must be strictly increasing; {right!r} follows {left!r}"
            )


def _exp_is_finite(x: float) -> bool:
    try:
        return math.exp(x) < math.inf
    except OverflowError:
        return False


class Curve(_Record):
    """alpha on a strictly increasing lambda grid: an exclusion curve
    or previously published bounds.

    alpha is positive, or inf where no finite coupling is detectable.
    Both fields are array('d'), and one passed in is kept, not copied;
    the record owns its arrays and nothing writes to them.
    Between knots alpha is interpolated linearly in (log lambda,
    log alpha), exact on power laws, from knot logs taken once per
    curve, on first use.
    """

    def __init__(
        self, lambdas: Sequence[float], alphas: Sequence[float], source: str = ""
    ) -> None:
        lams, alphas = (
            v if type(v) is array and v.typecode == "d" else array("d", v)
            for v in (lambdas, alphas)
        )
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
            _require_increasing(lams)
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

    Each curve is _alpha_bounds on the grid for plates with both facing
    layers set to its scan thickness; densities, area and gap are those of
    plates, and force_resolution is in N.  The lambda grid is log-spaced
    with n_points from lambda_min to lambda_max (at most MAX_LAMBDA)
    inclusive; every curve holds it as one array('d'), and n_points is at
    most MAX_SCAN_POINTS.  Points that collide in double precision make
    the scan degenerate; that is checked before any alpha is formed, so a
    grid that rounds past lambda_max never reaches the kernel.  Output
    order follows the thicknesses argument.
    A scan of at least 20 000 alphas past the overflow prefix (the 4 x
    100 000 stress scan, not the default 4 x 1 000) forms the upper half of
    its grid in a forked child, with the same doubles as one process.
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
    grid = array("d", [lambda_min])
    grid.extend(10.0 ** (k * step + lo) for k in range(1, n_points - 1))
    grid.append(lambda_max)
    for thickness in thicknesses:
        require_positive("thickness", thickness)
    try:
        _require_increasing(grid)
    except InvalidParameterError as exc:
        raise DomainError(
            f"degenerate scan: {n_points} points from lambda_min {lambda_min!r} "
            f"to lambda_max {lambda_max!r} m collide in double precision: {exc}"
        ) from None
    # the grid is checked and the kernel makes every alpha positive or inf:
    # each curve is built on the one grid without Curve's checks
    curves = []
    for alphas in _alpha_bounds(grid, plates, thicknesses, force_resolution):
        curves.append(curve := object.__new__(Curve))
        curve._freeze(grid, alphas, "")
    return curves
