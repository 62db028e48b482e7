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
from itertools import repeat
from operator import lt, mul, truediv

from . import core
from .core import _forked, _Record, require_in_box, require_positive
from .errors import DomainError, InvalidParameterError
from .gravity import PlatePairConfig, slab_coupling

# ten times the 100 000-point stress scan; a larger one is refused before
# its grid is built
MAX_SCAN_POINTS = 1_000_000


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
    increasing, and it, plates, thicknesses and force_resolution must lie
    in the BOX; exclusion_scan checks that before calling, and this
    function does not.  There every denominator is at least about 1.7e-56
    and every alpha at least about 6e-55: positive, or inf where it
    exceeds the largest double.  Past the prefix where exp(d/lam)
    overflows (alpha inf, found by bisection), the grid is walked in
    slices of core._SLICE_LINES lambdas, the table writer's slice: the
    scales 2 pi G rho_a rho_b S lam^2 and signals F_res exp(d/lam) are
    taken once per slice, each thickness adds its bracket b, and one
    comprehension forms its alphas, s / (c * b * b).  Python multiplies
    left to right and negation is exact, so each alpha is the same double
    as the full product.  Where core._forked forks (from
    core._PARALLEL_LINES alphas past the prefix), a child forms the upper
    half of every curve there and sends it as raw doubles; the alphas
    are the same.
    """
    facing_a, facing_b = plates.stack_a.layers[0], plates.stack_b.layers[0]
    prefactor = slab_coupling(facing_a.density, facing_b.density, plates.geometry.area())
    gap, thicknesses = plates.gap.separation, tuple(thicknesses)
    # alpha is inf on the overflow prefix; the maps take the rest
    first = overflow_prefix(grid, gap)

    # full length from the start, inf on the overflow prefix; each slice is
    # assigned in place once all its alphas are formed
    bounds = [array("d", [math.inf]) * len(grid) for _ in thicknesses]

    def form(start: int, stop: int) -> None:
        for lo in range(start, stop, core._SLICE_LINES):
            # a slice at a time, so that no full-length temporary sits beside the
            # alphas; its factors are tuples, since an array builds a float on every read
            lams = tuple(grid[lo : min(lo + core._SLICE_LINES, stop)])
            scales = tuple(map(mul, repeat(prefactor), map(pow, lams, repeat(2))))
            exps = map(math.exp, map(truediv, repeat(gap), lams))
            signals = tuple(map(mul, repeat(force_resolution), exps))
            for bound, thickness in zip(bounds, thicknesses):
                # expm1(-t/lam) is a bracket without its minus sign, which
                # cancels in the square
                brackets = tuple(map(math.expm1, map(truediv, repeat(-thickness), lams)))
                alphas = [s / (c * b * b) for s, c, b in zip(signals, scales, brackets)]
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


def overflow_prefix(grid: Sequence[float], gap: float) -> int:
    """How many leading lambdas of the increasing grid overflow exp(gap/lam),
    alpha inf there: it falls as lam rises, so bisection finds them."""
    def exp_is_finite(lam: float) -> bool:
        try:
            return math.exp(gap / lam) < math.inf
        except OverflowError:
            return False
    return bisect_left(grid, True, key=exp_is_finite)


class Curve(_Record):
    """alpha on a strictly increasing lambda grid: an exclusion curve
    or previously published bounds.

    alpha is positive, or inf where no finite coupling is detectable.
    Both fields are array('d'), and one passed in is kept, not copied;
    the record owns its arrays and nothing writes to them.
    Between knots alpha is interpolated linearly in (log lambda,
    log alpha), exact on power laws, from knot logs taken once per
    call of alphas_at.
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

    def domain(self) -> tuple[float, float]:
        return self.lambdas[0], self.lambdas[-1]

    def alphas_at(self, grid: Iterable[float]) -> list[float]:
        """alpha at every lambda of grid in one pass; nan outside the domain."""
        lo, hi = self.domain()
        xs, ys = tuple(map(math.log, self.lambdas)), tuple(map(math.log, self.alphas))
        def interp(lam: float) -> float:
            # numpy.interp's arithmetic and retries on the knot logs: bit for
            # bit numpy.interp(log(lam), log(lambdas), log(alphas))
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
        return [interp(lam) if lo <= lam <= hi else math.nan for lam in grid]


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
    with n_points from lambda_min to lambda_max inclusive; every curve
    holds it as one array('d'), and n_points is at most MAX_SCAN_POINTS.
    force_resolution, both lambdas and every thickness must lie in the
    BOX, and plates' records already do.  Points that collide in double precision make
    the scan degenerate; that is checked before any alpha is formed, so a
    grid that rounds past lambda_max never reaches the kernel.  Output
    order follows the thicknesses argument.
    A scan of at least 20 000 alphas past the overflow prefix (the 4 x
    100 000 stress scan, not the default 4 x 1 000) forms the upper half of
    its grid in a forked child, with the same doubles as one process.
    """
    require_in_box("force_resolution", force_resolution, "force")
    require_in_box("lambda_min", lambda_min, "length")
    require_in_box("lambda_max", lambda_max, "length")
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
        require_in_box("thickness", thickness, "length")
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
