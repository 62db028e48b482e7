"""Independent numerical cross-checks used only by the test suite.

Each oracle recomputes a closed-form result by brute force (adaptive
quadrature or exact rational arithmetic), sharing no algebra with the
expressions under test beyond the point-interaction kernel itself.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.integrate import dblquad, quad

from plateforces.core import CODATA2018, require_positive
from plateforces.errors import ConfigError, InvalidParameterError
from plateforces.exclusion import Curve

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


def tilt_factor(u: float) -> Fraction:
    """g(u) = (1 - (1 + u)^-3) / (3 u), the tilted-plate force over the
    flat-plate force at rise u = theta l / d, in exact rationals (1 at
    u = 0)."""
    q = Fraction(u)
    return (1 - 1 / (1 + q) ** 3) / (3 * q) if q else Fraction(1)


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


def plate_newton_reference(
    density_a, density_b, area, thickness_a, thickness_b, constants=CODATA2018
) -> float:
    """plate_newton's expression as it was before the slab coupling
    2 pi G rho_a rho_b S became one shared factor: one left-to-right
    product.
    """
    return (
        2.0
        * math.pi
        * constants.G
        * density_a
        * density_b
        * area
        * thickness_a
        * thickness_b
    )


def plate_yukawa_reference(
    density_a, density_b, area, thickness_a, thickness_b, separation, yukawa,
    constants=CODATA2018,
) -> float:
    """plate_yukawa's expression as it was before the slab coupling
    became one shared factor: one left-to-right product.
    """
    lam = yukawa.lam
    return (
        2.0
        * math.pi
        * constants.G
        * density_a
        * density_b
        * area
        * yukawa.alpha
        * lam**2
        * math.exp(-separation / lam)
        * -math.expm1(-thickness_a / lam)
        * -math.expm1(-thickness_b / lam)
    )


def alpha_bound_reference(lam: float, spec, constants=CODATA2018) -> float:
    """The Yukawa inversion one lambda at a time, as the package computed
    it before the kernel shared its per-lambda factors between
    thicknesses: the whole denominator as one left-to-right product of
    negated brackets, inf where exp(d/lam) overflows or the denominator
    is zero.
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
        * -math.expm1(-spec.thickness_a / lam)
        * -math.expm1(-spec.thickness_b / lam)
    )
    try:
        return spec.force_resolution * math.exp(spec.gap / lam) / denominator
    except (OverflowError, ZeroDivisionError):
        # exp(d/lam) overflows, or lam**2 or a bracket underflows to zero
        return math.inf


def exact_exp(x: Fraction) -> Fraction:
    """e**x to 60 significant digits, as a rational, for x below 710, where
    the doubles end; 0 at or below -1000, far under the smallest double."""
    if x <= -1000:
        return Fraction(0)
    with localcontext() as context:
        context.prec = 60
        return Fraction((Decimal(x.numerator) / Decimal(x.denominator)).exp())


def exact_row(p: dict) -> tuple[dict, dict]:
    """The physics columns of a forces, budget and sensitivity row in exact
    rationals, and the factors each names: exp(-d/lam) and both thickness
    brackets for the Yukawa force, and those and the force for its ratio
    to the resolution.

    p holds one plate pair with one layer each and its balance, flat: sides
    length and width, rho_a, tau_a, rho_b, tau_b, gap, temperature, eta,
    voltage, shear, diameter, wire_length, kappa, arm, x_min, angle,
    tilt_length, resolution, alpha and lam, all SI.  The constants are the
    package's doubles, pi included; exp is taken to 60 digits.  The tilted
    columns are None where the tilt closes the gap.
    """
    q = {key: Fraction(value) for key, value in p.items()}
    pi, constants = Fraction(math.pi), CODATA2018
    hbar, c, k_B, G = (Fraction(getattr(constants, k)) for k in ("hbar", "c", "k_B", "G"))
    epsilon0, zeta3 = Fraction(constants.epsilon0), Fraction(constants.zeta3)
    area, d, lam = q["length"] * q["width"], q["gap"], q["lam"]
    casimir = pi**2 * hbar * c / 240 * area / d**4
    thermal = zeta3 * k_B * q["temperature"] / (4 * pi) * area / d**3
    coupling = 2 * pi * G * q["rho_a"] * q["rho_b"] * area
    factors = (exact_exp(-d / lam), 1 - exact_exp(-q["tau_a"] / lam), 1 - exact_exp(-q["tau_b"] / lam))
    yukawa = abs(coupling * q["alpha"] * lam**2 * factors[0] * factors[1] * factors[2])
    kappa_wire = pi * q["shear"] * (q["diameter"] / 2) ** 4 / (2 * q["wire_length"])
    rise = q["angle"] * q["tilt_length"]
    tilted = None if rise >= d else casimir * tilt_factor(rise / d)
    row = {
        "casimir_zero_t_N": casimir,
        "casimir_flat_N": casimir,
        "thermal_N": thermal,
        "total_N": casimir + q["eta"] * thermal,
        "total_casimir_N": casimir + q["eta"] * thermal,
        "newton_N": coupling * q["tau_a"] * q["tau_b"],
        "yukawa_N": yukawa,
        "electrostatic_N": epsilon0 * area * q["voltage"] ** 2 / (2 * d**2),
        "kappa_wire_Nm_per_rad": kappa_wire,
        "f_min_wire_N": kappa_wire * q["x_min"] / q["arm"] ** 2,
        "f_min_balance_N": q["kappa"] * q["x_min"] / q["arm"] ** 2,
        "gap_variation_m": rise,
        "casimir_tilted_N": tilted,
        "tilted_flat_ratio_1": None if tilted is None else tilted / casimir,
    }
    row["ratio_electrostatic_casimir_zero_t_1"] = row["electrostatic_N"] / casimir
    row["ratio_newton_casimir_zero_t_1"] = row["newton_N"] / casimir
    row["ratio_total_casimir_resolution_1"] = row["total_N"] / q["resolution"]
    row["ratio_yukawa_resolution_1"] = yukawa / q["resolution"]
    return row, {"yukawa_N": factors, "ratio_yukawa_resolution_1": (*factors, yukawa)}


def exact_alpha(lam: float, spec) -> Fraction:
    """The smallest detectable |alpha| at lam for alpha_bound_reference's
    spec, in exact rationals with exp taken to 60 digits."""
    lam, gap = Fraction(lam), Fraction(spec.gap)
    brackets = (1 - exact_exp(-Fraction(spec.thickness_a) / lam)) * (
        1 - exact_exp(-Fraction(spec.thickness_b) / lam)
    )
    coupling = (
        2 * Fraction(math.pi) * Fraction(CODATA2018.G) * Fraction(spec.density_a)
        * Fraction(spec.density_b) * Fraction(spec.area)
    )
    return Fraction(spec.force_resolution) * exact_exp(gap / lam) / (coupling * lam**2 * brackets)


def csv_reference(table) -> str:
    """ResultTable.to_csv as it was before it wrote rows run by run:
    every data row through one %.17g template, every value formatted
    on its own.
    """
    lines = [f"# {key} = {value}\n" for key, value in table.metadata]
    lines.extend(f"# warning: {warning}\n" for warning in table.warnings)
    lines.append(",".join(table.columns) + "\n")
    # one % call per row formats every value to 17 significant digits
    row_format = ",".join(["%.17g"] * len(table.columns)) + "\n"
    lines.extend(map(row_format.__mod__, table.rows))
    return "".join(lines)


# a prior reader written apart from config.ingest_prior_bounds: the lines of
# readlines(), every one stripped, split into stripped fields and checked
def prior_reference(path: str) -> Curve:
    """Read a prior-bounds CSV: columns lambda_m,alpha, '#' comments.

    Lines must come in strictly increasing lambda.  Errors name the
    offending line; a file with no data rows is rejected.  The curve's
    source is the path.  A leading UTF-8 byte-order mark is skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8: {exc}") from None
    lambdas: list[float] = []
    alphas: list[float] = []
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.replace(" ", "") == "lambda_m,alpha":
            continue
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 2:
            raise ConfigError(
                f"{path}: line {line_no}: expected 2 columns (lambda_m,alpha), "
                f"got {len(parts)}: {text!r}"
            )
        try:
            lam, alpha = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(
                f"{path}: line {line_no}: not numeric: {text!r}"
            ) from None
        try:
            require_positive("lambda", lam)
            require_positive("alpha", alpha)
        except InvalidParameterError as exc:
            raise ConfigError(f"{path}: line {line_no}: {exc}") from None
        if lambdas and not lam > lambdas[-1]:
            raise ConfigError(
                f"{path}: line {line_no}: lambda {lam!r} does not increase "
                f"past {lambdas[-1]!r}"
            )
        lambdas.append(lam)
        alphas.append(alpha)
    if len(lambdas) < 2:
        raise ConfigError(f"{path}: needs at least 2 data rows, found {len(lambdas)}")
    return Curve(lambdas=lambdas, alphas=alphas, source=path)
