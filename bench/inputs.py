"""Seeded inputs for the three benchmark workloads.

Everything the program reads is generated here from the workload seed:
experiment configs, the `forces` gap sweep and the prior-bounds file.
The same seed always gives the same files.  Each generated value is
kept next to its text so the checker can recompute outputs without
re-parsing the files through the package.

Why each workload exists is stated in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-small", "scan-large", "prior-merge")

# Defaults of the `exclusion` subcommand that the checker relies on.
SCAN_LAMBDA_MIN = 1e-6
SCAN_LAMBDA_MAX = 1e-2
SCAN_POINTS = 1000
SCAN_THICKNESSES = (0.3e-6, 1e-6, 3e-6, 10e-6)
LARGE_SCAN_POINTS = 100_000

CLI_SMALL_CONFIGS = 3
FORCES_GAPS = 36
FORCES_GAPS_BELOW_TRUST = 8
PRIOR_ROWS = 5000

FILMS = (("gold", 19.3e3), ("copper", 8.96e3), ("platinum", 21.45e3), ("silver", 10.49e3))
ADHESION = (("chromium", 7.19e3), ("titanium", 4.51e3))
SUBSTRATES = (("glass", 2.5e3), ("silicon", 2.33e3), ("sapphire", 3.98e3))
# Shear moduli (Pa) the program documents for its known wire materials.
WIRES = {"tungsten": 1.61e11, "quartz": 3.1e10}

_EXPONENT = {"nm": "e-9", "um": "e-6", "mm": "e-3", "cm": "e-2", "m": ""}

# The tilted-plate force switches from a series to the closed form at
# u = tilt rise / gap = 1e-4; configs take u well inside one side.
TILT_SERIES_U = (1e-6, 2e-5)
TILT_CLOSED_U = (1e-3, 0.5)


def _length(rng: random.Random, lo: float, hi: float, unit: str) -> tuple[str, float]:
    """Log-uniform length in [lo, hi] (in `unit`), as INI text and SI float.

    Four significant digits keep the text short; the SI value is the
    correctly rounded double of exactly that decimal text.
    """
    number = format(math.exp(rng.uniform(math.log(lo), math.log(hi))), ".4g")
    return f"{number} {unit}", float(number + _EXPONENT[unit])


@dataclass
class Layer:
    name: str
    density: float
    thickness: float
    text: str


@dataclass
class Config:
    """One experiment config: its INI text and the values it encodes (SI)."""

    path: str
    text: str
    length: float
    width: float
    stack_a: list[Layer]
    stack_b: list[Layer]
    gap: float
    temperature: float
    eta: float
    stray_voltage: float
    wire_material: str
    wire_diameter: float
    wire_length: float
    torque_sensitivity: float
    arm_length: float
    min_displacement: float
    tilt_angle: float
    tilt_length: float
    force_resolution: float
    yukawa_alpha: float
    yukawa_lambda: float

    @property
    def area(self) -> float:
        return self.length * self.width


def _stack(rng: random.Random, n_layers: int) -> list[Layer]:
    name, density = rng.choice(FILMS)
    if n_layers == 1:
        text, thickness = _length(rng, 0.5, 5.0, "mm")
        return [Layer(name, density, thickness, text)]
    text, thickness = _length(rng, 0.5, 20.0, "um")
    layers = [Layer(name, density, thickness, text)]
    if n_layers == 3:
        glue, glue_density = rng.choice(ADHESION)
        text, thickness = _length(rng, 20.0, 200.0, "nm")
        layers.append(Layer(glue, glue_density, thickness, text))
    sub, sub_density = rng.choice(SUBSTRATES)
    text, thickness = _length(rng, 1.0, 20.0, "mm")
    layers.append(Layer(sub, sub_density, thickness, text))
    return layers


def make_config(rng: random.Random, path: str, tilt_u: tuple[float, float], with_thermal: bool) -> Config:
    length_text, length = _length(rng, 5.0, 15.0, "cm")
    width_text, width = _length(rng, 5.0, 15.0, "cm")
    stack_a = _stack(rng, rng.randint(1, 3))
    stack_b = _stack(rng, rng.randint(1, 3))
    gap_text, gap = _length(rng, 3.0, 20.0, "um")
    temperature = round(rng.uniform(4.0, 350.0), 2)
    eta = round(rng.uniform(0.5, 1.0), 3) if with_thermal else 1.0
    stray_voltage = round(rng.uniform(0.01, 0.3), 4)
    wire_material = rng.choice(sorted(WIRES))
    wire_d_text, wire_diameter = _length(rng, 20.0, 200.0, "um")
    wire_l_text, wire_length = _length(rng, 0.2, 1.0, "m")
    torque_sensitivity = float(format(10 ** rng.uniform(-7, -5), ".4g"))
    arm_text, arm_length = _length(rng, 5.0, 20.0, "cm")
    xmin_text, min_displacement = _length(rng, 0.5, 5.0, "nm")
    tilt_length = width
    u = math.exp(rng.uniform(math.log(tilt_u[0]), math.log(tilt_u[1])))
    tilt_angle = float(format(u * gap / tilt_length, ".6g"))
    force_resolution = float(format(10 ** rng.uniform(-13, -11), ".4g"))
    yukawa_alpha = float(format(rng.choice((1, -1)) * 10 ** rng.uniform(-1, 3), ".4g"))
    lam_text, yukawa_lambda = _length(rng, 1.0, 100.0, "um")

    def stack_text(layers: list[Layer]) -> str:
        return "\n".join(
            f"layer_{i} = {layer.name}, {layer.density!r}, {layer.text}"
            for i, layer in enumerate(layers)
        )

    sections = [
        f"# generated benchmark config\n\n[geometry]\nlength = {length_text}\nwidth = {width_text}",
        f"[stack_a]\n{stack_text(stack_a)}",
        f"[stack_b]\n{stack_text(stack_b)}",
        f"[gap]\nseparation = {gap_text}\ntemperature = {temperature!r}",
    ]
    if with_thermal:
        sections.append(f"[thermal]\nreduction_factor = {eta!r}")
    sections += [
        f"[electrostatic]\nstray_voltage = {stray_voltage!r}",
        f"[wire]\nmaterial = {wire_material}\ndiameter = {wire_d_text}\nlength = {wire_l_text}",
        f"[balance]\ntorque_sensitivity = {torque_sensitivity!r}\n"
        f"arm_length = {arm_text}\nmin_displacement = {xmin_text}",
        f"[tilt]\nangle = {tilt_angle!r}\nplate_length_along_tilt = {width_text}",
        f"[resolution]\nforce_resolution = {force_resolution!r}",
        f"[yukawa]\nalpha = {yukawa_alpha!r}\nlambda = {lam_text}",
    ]
    return Config(
        path=path,
        text="\n\n".join(sections) + "\n",
        length=length,
        width=width,
        stack_a=stack_a,
        stack_b=stack_b,
        gap=gap,
        temperature=temperature,
        eta=eta,
        stray_voltage=stray_voltage,
        wire_material=wire_material,
        wire_diameter=wire_diameter,
        wire_length=wire_length,
        torque_sensitivity=torque_sensitivity,
        arm_length=arm_length,
        min_displacement=min_displacement,
        tilt_angle=tilt_angle,
        tilt_length=tilt_length,
        force_resolution=force_resolution,
        yukawa_alpha=yukawa_alpha,
        yukawa_lambda=yukawa_lambda,
    )


def make_gap_sweep(rng: random.Random) -> tuple[list[str], list[float]]:
    """Several dozen gaps from 1 to 50 um, some below the thermal trust gap,
    written in um, nm and mm to exercise the length parser."""
    texts, values = [], []
    for i in range(FORCES_GAPS):
        # the program trusts its thermal term from 5 um up
        lo, hi = (1.0, 4.99) if i < FORCES_GAPS_BELOW_TRUST else (5.0, 50.0)
        text, value = _length(rng, lo, hi, "um")
        if i % 5 == 1:
            number = format(value * 1e9, ".6g")
            text, value = f"{number} nm", float(number + "e-9")
        elif i % 7 == 3:
            number = format(value * 1e3, ".6g")
            text, value = f"{number} mm", float(number + "e-3")
        texts.append(text)
        values.append(value)
    order = list(range(FORCES_GAPS))
    rng.shuffle(order)
    return [texts[i] for i in order], [values[i] for i in order]


@dataclass
class Prior:
    path: str
    text: str
    lambdas: list[float]
    alphas: list[float]


def make_prior(rng: random.Random, path: str) -> Prior:
    """5 000 strictly increasing lambdas from about 3 um to 3 mm with
    jittered spacing, and a smooth falling alpha with jitter."""
    lo, decades = math.log10(3e-6), 3.0
    step = decades / (PRIOR_ROWS - 1)
    lambdas, alphas = [], []
    for k in range(PRIOR_ROWS):
        log_lam = lo + step * (k + rng.uniform(-0.3, 0.3))
        lam = float(format(10**log_lam, ".12g"))
        log_alpha = 2.0 - 2.0 * (log_lam + 4.0) + rng.gauss(0.0, 0.02)
        lambdas.append(lam)
        alphas.append(float(format(10**log_alpha, ".12g")))
    lines = [
        "# generated prior bounds for the benchmark",
        "lambda_m,alpha",
        *(f"{lam!r},{alpha!r}" for lam, alpha in zip(lambdas, alphas)),
    ]
    return Prior(path, "\n".join(lines) + "\n", lambdas, alphas)


@dataclass
class Invocation:
    """One distinct command line and what its output must contain."""

    kind: str  # budget | forces | sensitivity | exclusion
    args: list[str]
    out: str
    config: Config
    gaps: list[float] = field(default_factory=list)
    points: int = SCAN_POINTS
    prior: Prior | None = None

    @property
    def rows(self) -> int:
        if self.kind == "forces":
            return len(self.gaps)
        if self.kind == "exclusion":
            return self.points * len(SCAN_THICKNESSES)
        return 1


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    configs: list[Config]
    prior: Prior | None


def build(name: str, seed: int, work_dir: str) -> Workload:
    """Generate the workload's files under work_dir and its invocation cycle."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(work_dir, exist_ok=True)

    def config(i: int, tilt_u: tuple[float, float], with_thermal: bool = True) -> Config:
        return make_config(rng, os.path.join(work_dir, f"config-{i}.ini"), tilt_u, with_thermal)

    def invocation(kind: str, cfg: Config, extra: list[str], **kw) -> Invocation:
        out = os.path.join(work_dir, f"out-{len(invocations)}.csv")
        args = [kind, "--config", cfg.path, *extra, "--out", out]
        return Invocation(kind, args, out, cfg, **kw)

    invocations: list[Invocation] = []
    prior = None
    if name == "cli-small":
        # both tilt branches always present; the last config has no
        # [thermal] section, so the default eta applies
        sides = [TILT_SERIES_U, TILT_CLOSED_U, rng.choice((TILT_SERIES_U, TILT_CLOSED_U))]
        configs = [config(i, sides[i], with_thermal=i < CLI_SMALL_CONFIGS - 1) for i in range(CLI_SMALL_CONFIGS)]
        gap_texts, gaps = make_gap_sweep(rng)
        for kind in ("budget", "forces", "sensitivity", "exclusion"):
            for cfg in configs:
                if kind == "forces":
                    extra = [arg for text in gap_texts for arg in ("--gap", text)]
                    invocations.append(invocation(kind, cfg, extra, gaps=gaps))
                else:
                    invocations.append(invocation(kind, cfg, []))
    elif name == "scan-large":
        configs = [config(0, TILT_CLOSED_U)]
        invocations.append(
            invocation("exclusion", configs[0], ["--points", str(LARGE_SCAN_POINTS)], points=LARGE_SCAN_POINTS)
        )
    else:
        configs = [config(0, TILT_CLOSED_U)]
        prior = make_prior(rng, os.path.join(work_dir, "prior.csv"))
        invocations.append(invocation("exclusion", configs[0], ["--prior", prior.path], prior=prior))

    for cfg in configs:
        with open(cfg.path, "w", encoding="utf-8") as handle:
            handle.write(cfg.text)
    if prior is not None:
        with open(prior.path, "w", encoding="utf-8") as handle:
            handle.write(prior.text)
    return Workload(name, invocations, configs, prior)
