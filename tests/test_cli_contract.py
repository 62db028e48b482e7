"""The CLI's exit-code contract, over generated configs, flags and prior files.

Each case edits a copy of configs/baseline.ini (values replaced, keys or
sections dropped or added), picks a command and its flags, and may write
a prior-bounds file; main(argv) then runs in process.  Whatever the
input, the run must end in a documented exit code without a traceback,
an exit 2 must read "config error: ...", one about a prior file must
name its line unless the file has too few rows, a stdout that fails must end
in exit 4 and "i/o error: ...", a reported grid collision must
be one of the grid's own points, an exit-0 CSV must parse and name the
--prior argument as its prior_source, and every inf or nan in it must
be announced by a warning line, except the nan improvement_1 of a
lambda outside the prior's domain.

The search is derandomized, so every run tries the same inputs.  The
@example cases are inputs that once ended in a traceback, a silent inf
or a misleading message, and prior layouts that the reader's one-pass
read leaves to its line-by-line walk.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import math
import re
from typing import NamedTuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plateforces import ResultTable, ingest_prior_bounds
from plateforces.cli import _COMMANDS, main
from plateforces.config import _KEYS
from conftest import BASELINE_CONFIG_PATH, FullDiskHandle


def _baseline_sections() -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(BASELINE_CONFIG_PATH)
    return {name: dict(parser[name]) for name in parser.sections()}


BASE = _baseline_sections()
# every key load_config reads, the stacks' baseline layers, and two misspellings
KEYS = [
    (section, key) for section, (_, keys) in _KEYS.items() for key in keys or BASE[section]
] + [("tilt", "plate_lenght_along_tilt"), ("yukwa", "alpha")]
NUMBERS = [
    "0", "-1", "1", "0.5", "2", "300", "5", "10", "19.3e3", "1e-320", "5e-324",
    "1e-305", "1e-160", "1e-149", "1e-110", "1e-30", "1e-9", "1e-6", "1e-3",
    "1e160", "1e200", "1e300", "1e308", "1.8e308", "nan", "inf", "-inf",
    "ten", "", "%(x)s", "1e9999999",
]
UNITS = ["", " m", " um", " nm", " mm", "cm"]

lengths = st.builds(str.__add__, st.sampled_from(NUMBERS), st.sampled_from(UNITS))
values = st.one_of(
    lengths,
    st.floats().map(repr),
    st.builds(
        "{}, {}, {}".format, st.sampled_from(["gold", "glass", ""]), lengths, lengths
    ),
    st.sampled_from(["tungsten", "quartz", "unobtainium", "tungsten 50%", "gold\n  leaf"]),
)
FACTORS = [1e-300, 1e-6, 0.01, 0.5, 0.99, 1.0, 1.01, 2.0, 100.0, 1e6, 1e300]
PRIOR_ALPHAS = ["1", "1e10", "1e-300", "1e308", "inf", "nan", "-3", "x"]
PRIOR_LAMBDAS = ["1e-7", "1e-6", "3e-6", "1e-5", "1e-4", "1e-3", "1e-2", "0.1"]


def _scaled(text: str) -> st.SearchStrategy[str]:
    """A baseline value times a factor, in its own unit: each number of a
    layer line, or the value itself where it is a number."""
    if "," in text:
        name, density, thickness = (part.strip() for part in text.split(","))
        return st.builds("{}, {}, {}".format, st.just(name), _scaled(density), _scaled(thickness))
    number, _, unit = text.partition(" ")
    try:
        value = float(number)
    except ValueError:
        return values
    return st.sampled_from(FACTORS).map(lambda factor: f"{value * factor!r} {unit}".strip())


def _edit(section_key: tuple[str, str]) -> st.SearchStrategy:
    section, key = section_key
    base = BASE.get(section, {}).get(key)
    near = values if base is None else _scaled(base)
    return st.tuples(st.just(section_key), st.one_of(near, near, st.none(), values))


class Case(NamedTuple):
    """One CLI run: the command, config edits, flags and prior file.

    edits maps (section, key) to a new value, or None to drop the key;
    dropped names whole sections.  prior is the prior file's text, or
    None for no --prior flag; prior_name is its file name.  With
    stdout_fails, stdout takes the CSV header and then fails like a full
    disk.
    """

    command: str
    edits: dict = {}
    dropped: tuple = ()
    flags: tuple = ()
    prior: str | None = None
    prior_name: str = "prior.csv"
    stdout_fails: bool = False


def _config_text(case: Case) -> str:
    sections = {name: dict(keys) for name, keys in BASE.items() if name not in case.dropped}
    for (section, key), value in case.edits.items():
        keys = sections.setdefault(section, {})
        if value is None:
            keys.pop(key, None)
        else:
            keys[key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    )


@st.composite
def cases(draw) -> Case:
    command = draw(st.sampled_from(list(_COMMANDS)))
    edits = dict(draw(st.lists(st.sampled_from(KEYS).flatmap(_edit), max_size=3)))
    # one case in three drops a section
    dropped = draw(st.sampled_from([()] * 2 * len(BASE) + [(name,) for name in BASE]))
    flags = []
    prior = None
    if command == "forces":
        flags += [f"--gap={gap}" for gap in draw(st.lists(lengths, max_size=2))]
    if command == "exclusion":
        for flag in ("--lambda-min", "--lambda-max"):
            if draw(st.booleans()):
                flags.append(f"{flag}={draw(lengths)}")
        points = draw(st.sampled_from([2, 3, 5, 17, 40, 0, 1, -3, 1_000_001]))
        flags.append(f"--points={points}")
        flags += [f"--thickness={t}" for t in draw(st.lists(lengths, max_size=2))]
        if draw(st.booleans()):
            lams = sorted(
                draw(st.sets(st.sampled_from(PRIOR_LAMBDAS), max_size=4)), key=float
            )
            rows = [f"{lam},{draw(st.sampled_from(PRIOR_ALPHAS))}" for lam in lams]
            prior = "\n".join(["lambda_m,alpha", *rows]) + "\n"
    name = draw(st.sampled_from(["prior.csv", "prior.csv", "missing.csv"]))
    return Case(command, edits, dropped, tuple(flags), prior, name)


# both facing films at 1e40 kg/m^3, whose 2 pi G rho^2 S is about 5e68
DENSE_FILMS = {
    ("stack_a", "layer_0"): "gold, 1e40, 10 um",
    ("stack_b", "layer_0"): "gold, 1e40, 10 um",
}
INF_WARNING = re.compile(r"^(\w+) is inf on (\d+) rows with lambda from (\S+) to (\S+) m: ")
# the column each warning subject names
WARNED_COLUMN = {"alpha": "alpha_1", "improvement_1": "improvement_1"}


def _check_non_finite_values(table: ResultTable, prior_path: str | None) -> None:
    announced = {}  # column -> [(count, lo, hi)]
    for warning in table.warnings:
        match = INF_WARNING.match(warning)
        if match:
            subject, count, lo, hi = match.groups()
            announced.setdefault(WARNED_COLUMN[subject], []).append(
                (int(count), float(lo), float(hi))
            )
    domain = ingest_prior_bounds(prior_path).domain() if prior_path else None
    infs = {}  # column -> count of inf values
    for row in table.rows:
        cells = dict(zip(table.columns, row))
        for column, value in cells.items():
            if math.isfinite(value):
                continue
            lam = cells.get("lambda_m")
            if math.isnan(value) and column == "improvement_1":
                assert not domain[0] <= lam <= domain[1], (column, lam)
                continue
            assert value == math.inf, (column, value)
            # %g rounds the range to six digits
            assert any(
                lo * (1 - 1e-5) <= lam <= hi * (1 + 1e-5)
                for _, lo, hi in announced.get(column, ())
            ), (column, lam, table.warnings)
            infs[column] = infs.get(column, 0) + 1
    for column, ranges in announced.items():
        assert infs.get(column, 0) == sum(count for count, _, _ in ranges), column


TILT_LENGTH = "plate_length_along_tilt"


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
# defects this contract has caught before, each once a traceback, a silent
# inf or a misleading message
@example(case=Case("exclusion", flags=("--points=5",), prior="1e-6,1\n1e-5,inf\n"))
@example(case=Case("exclusion", flags=("--lambda-max=1e300", "--points=4")))
@example(case=Case("forces", edits={("electrostatic", "stray_voltage"): "1e200"}))
@example(case=Case("budget", edits={("electrostatic", "stray_voltage"): "1e200"}))
@example(case=Case("sensitivity", edits={("tilt", TILT_LENGTH): "ten"}))
@example(
    case=Case("budget", edits={("geometry", "length"): "1e200 m", ("geometry", "width"): "1e200 m"})
)
@example(
    case=Case("exclusion", edits={("geometry", "length"): "1e200 m", ("geometry", "width"): "1e200 m"})
)
@example(case=Case("budget", edits={("gap", "temperature"): "1e308"}))
@example(case=Case("sensitivity", edits={("tilt", TILT_LENGTH): "1e-320 m"}))
@example(
    case=Case(
        "sensitivity",
        edits={
            ("geometry", "length"): "1e-160 m",
            ("geometry", "width"): "1e-160 m",
            ("tilt", TILT_LENGTH): "1e-160 m",
        },
    )
)
@example(
    case=Case(
        "forces",
        edits={
            ("geometry", "length"): "1e-150 m",
            ("geometry", "width"): "1e-149 m",
            ("tilt", TILT_LENGTH): "1e-149 m",
        },
    )
)
@example(case=Case("sensitivity", edits={("wire", "shear_modulus"): "1e-305"}))
@example(case=Case("budget", edits={("yukawa", "lambda"): "-10 um"}))
@example(case=Case("budget", edits={("wire", "diameter"): "5 um"}))
@example(case=Case("forces", flags=("--gap=1e-110 m", "--gap=1e160 m")))
@example(case=Case("budget", edits={("wire", "material"): "tungsten 50%"}))
@example(case=Case("budget", edits={("gap", "separation"): "%(x)s"}))
# a nonzero gap that its unit shift underflows to 0 (exit 3), and a config
# gap past the double range (exit 2)
@example(case=Case("forces", flags=("--gap=1e-320 um",)))
@example(case=Case("budget", edits={("gap", "separation"): "1e9999999 um"}))
@example(case=Case("exclusion", flags=("--points=5",), prior="1e-6,1\n1e-2,1\n", prior_name="p\udcff.csv"))
@example(case=Case("exclusion", flags=("--points=5",), prior="1e-6,1\n1e-2,1\n", prior_name="p\n.csv"))
@example(case=Case("exclusion", flags=("--thickness=1e-200 m", "--points=5")))
@example(
    case=Case(
        "exclusion",
        flags=("--lambda-min=1 nm", "--points=60"),
        prior="1e-8,1e20\n1e-5,1\n1e-3,1e-2\n",
    )
)
@example(case=Case("budget", edits={("yukawa", "lambda"): "1e200 m"}))
# lambda**2 overflows a Yukawa force of about 0.19 N
@example(case=Case("budget", edits={("yukawa", "alpha"): "1e12", ("yukawa", "lambda"): "1e150 m"}))
# ... but a film far thinner than lambda leaves a zero or subnormal bracket
@example(case=Case("budget", edits={("stack_a", "layer_0"): "gold, 19.3e3, 1e-170 m", ("yukawa", "alpha"): "1e300", ("yukawa", "lambda"): "1e154 m"}))
@example(case=Case("budget", edits={("stack_a", "layer_0"): "gold, 19.3e3, 1e-165 m", ("yukawa", "alpha"): "1e12", ("yukawa", "lambda"): "1e154 m"}))
@example(case=Case("budget", edits={("yukwa", "alpha"): "1e3"}))
@example(case=Case("sensitivity", edits={("tilt", "plate_lenght_along_tilt"): "0.05 m"}))
@example(
    case=Case(
        "exclusion",
        edits={("resolution", "force_resolution"): "1e-30"},
        flags=("--points=5",),
        prior="1e-6,1e308\n1e-2,1e308\n",
    )
)
@example(
    case=Case(
        "exclusion",
        flags=("--lambda-min=1 m", "--lambda-max=1.000000000000001 m", "--points=100"),
    )
)
# a grid whose interior points round past lambda_max = MAX_LAMBDA
@example(
    case=Case(
        "exclusion",
        flags=("--lambda-min=1.3407807929942e154", "--lambda-max=1.3407807929942596e154", "--points=1000"),
    )
)
@example(case=Case("exclusion", flags=("--points=5",), prior="1e-6,1\n1e-2,1\n", prior_name=" p9.csv "))
@example(case=Case("exclusion", edits=DENSE_FILMS, flags=("--lambda-max=1e150", "--points=50")))
@example(
    case=Case(
        "exclusion",
        edits=DENSE_FILMS,
        flags=("--lambda-max=1e150", "--points=50", "--thickness=1e-300"),
    )
)
@example(
    case=Case("exclusion", edits={**DENSE_FILMS, ("resolution", "force_resolution"): "1e-300"})
)
# prior layouts the one-pass reader hands to its line-by-line walk: read
# alike (exit 0) or refused naming their line (exit 2)
@example(case=Case("exclusion", flags=("--points=5",), prior="1e-6,1\n\n1e-2,1\n"))
@example(case=Case("exclusion", flags=("--points=5",), prior="1e-6,1\n1e-2,1\n# end\n"))
@example(
    case=Case(
        "exclusion",
        flags=("--points=5",),
        prior="lambda_m,alpha\n1e-6,1\nlambda_m,alpha\n1e-2,1\n",
    )
)
@example(
    case=Case("exclusion", flags=("--points=5",), prior="\ufefflambda_m,alpha\r\n1e-6,1\r\n1e-2,1\r\n")
)
@example(case=Case("exclusion", flags=("--points=5",), prior="1e-6,1\n1e-2,1,3\n"))
@example(case=Case("exclusion", flags=("--points=5",), prior="1e-6,\n1e-2,1\n"))
# 4 x 10 000 lines, formatted in two processes, to a stdout that fails on the
# first data slice
@example(case=Case("exclusion", flags=("--points=10000",), stdout_fails=True))
def test_every_input_ends_in_a_documented_exit(case, tmp_path_factory):
    work = tmp_path_factory.mktemp("contract")
    config = work / "exp.ini"
    config.write_text(_config_text(case))
    argv = [case.command, f"--config={config}", *case.flags]
    prior_path = None
    if case.prior is not None:
        prior_path = str(work / case.prior_name)
        if case.prior_name != "missing.csv":
            with open(prior_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(case.prior)
        argv.append(f"--prior={prior_path}")
    out, err = FullDiskHandle() if case.stdout_fails else io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 2, 3, 4), (code, stderr)
    assert "Traceback" not in stderr
    if code == 2:
        assert stderr.startswith("config error: "), stderr
        detail = stderr.removeprefix(f"config error: {prior_path}: ")
        if prior_path and detail != stderr:
            # a refused prior names its line, unless it has too few rows
            assert re.match(r"line \d+: |needs at least 2 data rows", detail), stderr
    if case.stdout_fails:
        assert code == 4 and stderr.startswith("i/o error: "), (code, stderr)
    if "collide in double precision" in stderr:
        # only the grid itself can collide; an alpha of 0 or nan names its cause
        assert "lambda grid must be strictly increasing" in stderr, stderr
    if code == 0:
        table = ResultTable.from_csv(out.getvalue())
        if prior_path is not None:
            assert dict(table.metadata)["prior_source"] == prior_path
        _check_non_finite_values(table, prior_path)
