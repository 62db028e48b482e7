"""Independent numerical cross-checks used only by the test suite.

Each oracle recomputes a closed-form result by brute force (adaptive
quadrature or finite differences), sharing no algebra with the
expressions under test beyond the point-interaction kernel itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import dblquad, quad

from plateforces.core import CODATA2018, require_positive
from plateforces.gravity import yukawa_thickness_bracket

# Beyond this many interaction ranges the integrand has decayed to
# ~1e-27 of its surface value; truncating there keeps the adaptive
# quadrature honest on centimeter-thick substrates probed at micron
# ranges without touching the digits any test looks at.
_RANGE_CUTOFF = 60.0


def yukawa_slab_force(
    density_a: float,
    density_b: float,
    area: float,
    thickness_a: float,
    thickness_b: float,
    separation: float,
    alpha: float,
    lam: float,
    G: float,
) -> float:
    """Slab-slab Yukawa force by double quadrature over both depths.

    A sheet at depth z_a in one slab pulls a sheet at depth z_b in the
    other with force per pair 2 pi G rho_a rho_b S alpha
    exp(-(d + z_a + z_b)/lam) dz_a dz_b; integrating over both slabs
    gives the total.
    """
    prefactor = 2.0 * math.pi * G * density_a * density_b * area * alpha
    integral, _ = dblquad(
        lambda zb, za: math.exp(-(separation + za + zb) / lam),
        0.0,
        min(thickness_a, _RANGE_CUTOFF * lam),
        0.0,
        min(thickness_b, _RANGE_CUTOFF * lam),
        epsabs=0.0,
        epsrel=1e-12,
    )
    return prefactor * integral


def _density_profile(stack):
    """Piecewise-constant density vs depth plus interior breakpoints."""
    spans = []
    depth = 0.0
    for layer in stack.layers:
        spans.append((depth, depth + layer.thickness, layer.density))
        depth += layer.thickness
    breaks = [span[0] for span in spans[1:]]

    def rho(z: float) -> float:
        for low, high, density in spans:
            if low <= z <= high:
                return density
        return 0.0

    return rho, breaks, depth


def yukawa_stack_force(
    stack_a,
    stack_b,
    area: float,
    separation: float,
    alpha: float,
    lam: float,
    G: float,
) -> float:
    """Stack-stack Yukawa force by quadrature over both density profiles."""
    rho_a, breaks_a, depth_a = _density_profile(stack_a)
    rho_b, breaks_b, depth_b = _density_profile(stack_b)
    hi_a = min(depth_a, _RANGE_CUTOFF * lam)
    hi_b = min(depth_b, _RANGE_CUTOFF * lam)

    def inner(za: float) -> float:
        value, _ = quad(
            lambda zb: rho_b(zb) * math.exp(-(separation + za + zb) / lam),
            0.0,
            hi_b,
            points=[b for b in breaks_b if b < hi_b],
            epsabs=0.0,
            epsrel=1e-11,
            limit=200,
        )
        return value

    outer, _ = quad(
        lambda za: rho_a(za) * inner(za),
        0.0,
        hi_a,
        points=[b for b in breaks_a if b < hi_a],
        epsabs=0.0,
        epsrel=1e-11,
        limit=200,
    )
    return 2.0 * math.pi * G * area * alpha * outer


def tilted_casimir_force(
    plate_width: float,
    plate_length: float,
    separation: float,
    angle: float,
    hbar: float,
    c: float,
) -> float:
    """Tilted-plate Casimir force by quadrature of the strip pressure."""
    coeff = math.pi**2 * hbar * c / 240.0
    integral, _ = quad(
        lambda x: (separation + angle * x) ** -4,
        0.0,
        plate_length,
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )
    return coeff * plate_width * integral


def central_difference(func, x: float, step: float) -> float:
    """Symmetric finite-difference derivative of func at x."""
    return (func(x + step) - func(x - step)) / (2.0 * step)


def loglog_interp(lam: float, lambdas, alphas, knot_log=np.log) -> float:
    """Log-log interpolation the way the package computed it per query
    before it cached knot logs: numpy.interp on freshly taken logs, nan
    outside [lambdas[0], lambdas[-1]].

    knot_log takes the logs of the knot arrays.  numpy.log's vectorised
    loop (SIMD on AVX512 builds) can round an element one ulp away from
    libm's log, so passing LIBM_LOG isolates the interpolation
    arithmetic from that difference.
    """
    if not lambdas[0] <= lam <= lambdas[-1]:
        return math.nan
    log_alpha = np.interp(
        math.log(lam), knot_log(np.asarray(lambdas)), knot_log(np.asarray(alphas))
    )
    return float(math.exp(log_alpha))


LIBM_LOG = np.vectorize(math.log, otypes=[float])


def alpha_bound_reference(lam: float, spec, constants=CODATA2018) -> float:
    """The Yukawa inversion as alpha_bound computed it one lambda at a
    time, before the scan took the lambda-independent factor out of its
    loop: the whole denominator as one left-to-right product.
    """
    require_positive("lam", lam)
    denominator = (
        2.0
        * math.pi
        * constants.G
        * spec.density_a
        * spec.density_b
        * spec.area
        * lam**2
        * yukawa_thickness_bracket(spec.thickness_a, lam)
        * yukawa_thickness_bracket(spec.thickness_b, lam)
    )
    try:
        return spec.force_resolution * math.exp(spec.gap / lam) / denominator
    except (OverflowError, ZeroDivisionError):
        # exp(d/lam) overflows, or lam**2 underflows to zero
        return math.inf


def csv_reference(table) -> str:
    """ResultTable.to_csv as it was before it wrote rows run by run:
    every data row through one %.17g template, every value formatted
    on its own.
    """
    lines = [f"# {key} = {value}\n" for key, value in table.metadata]
    lines.extend(f"# warning: {warning}\n" for warning in table.warnings)
    lines.append(",".join(table.columns) + "\n")
    # one % call per row formats every value as format_float does
    row_format = ",".join(["%.17g"] * len(table.columns)) + "\n"
    lines.extend(map(row_format.__mod__, table.rows))
    return "".join(lines)
