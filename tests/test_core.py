import ast
import importlib
import inspect
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from array import array
from types import SimpleNamespace

import pytest

import plateforces
from plateforces import ExperimentConfig, InvalidParameterError, ResultTable
from plateforces.balance import SHEAR_MODULUS, BalanceConfig, TiltConfig, TorsionWire
from plateforces.casimir import ThermalModel
from plateforces.core import (
    CODATA2018,
    MAX_LAMBDA,
    GapConfig,
    MaterialLayer,
    PlateGeometry,
    PlateStack,
    YukawaParams,
    _Record,
)
from plateforces.exclusion import Curve
from plateforces.gravity import PlatePairConfig


class TestPhysicalConstants:
    def test_pinned_values(self):
        # the compiled-in set; changing any of these silently would move
        # every number in the package
        assert CODATA2018.hbar == 1.054571817e-34
        assert CODATA2018.c == 2.99792458e8
        assert CODATA2018.k_B == 1.380649e-23
        assert CODATA2018.G == 6.674e-11
        assert CODATA2018.epsilon0 == 8.8541878128e-12
        assert CODATA2018.zeta3 == 1.2020569032
        assert CODATA2018.name == "CODATA-2018"


class TestPlateGeometry:
    def test_area(self):
        geo = PlateGeometry(length=0.10, width=0.12)
        assert geo.area() == pytest.approx(0.012, rel=1e-15)

    def test_symmetric_under_swap(self):
        a = PlateGeometry(0.10, 0.12)
        b = PlateGeometry(0.12, 0.10)
        assert a.area() == b.area()

    @pytest.mark.parametrize("length,width", [(0.0, 0.1), (0.1, -0.2), (math.nan, 0.1), (math.inf, 0.1)])
    def test_rejects_bad_sides(self, length, width):
        with pytest.raises(InvalidParameterError):
            PlateGeometry(length, width)


class TestMaterialLayer:
    def test_holds_values(self):
        layer = MaterialLayer("gold", 19.3e3, 10e-6)
        assert layer.density == 19.3e3
        assert layer.thickness == 10e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            MaterialLayer("gold", -19.3e3, 10e-6)
        with pytest.raises(InvalidParameterError):
            MaterialLayer("gold", 19.3e3, 0.0)


class TestPlateStack:
    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            PlateStack(())

    def test_accepts_list_and_freezes(self):
        stack = PlateStack([MaterialLayer("glass", 3.0e3, 15e-3)])
        assert isinstance(stack.layers, tuple)


class TestGapConfig:
    def test_zero_temperature_allowed(self):
        assert GapConfig(separation=5e-6, temperature=0.0).temperature == 0.0

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidParameterError):
            GapConfig(separation=0.0)
        with pytest.raises(InvalidParameterError):
            GapConfig(separation=5e-6, temperature=-1.0)


class TestYukawaParams:
    def test_any_sign_alpha(self):
        assert YukawaParams(alpha=-2.0, lam=1e-5).alpha == -2.0
        assert YukawaParams(alpha=0.0, lam=1e-5).alpha == 0.0

    def test_rejects_bad_lam_and_nan_alpha(self):
        with pytest.raises(InvalidParameterError):
            YukawaParams(alpha=1.0, lam=0.0)
        with pytest.raises(InvalidParameterError):
            YukawaParams(alpha=math.nan, lam=1e-5)

    def test_lambda_up_to_the_largest_squarable_range(self):
        # lam**2 in the force stays finite up to MAX_LAMBDA, and past it
        # the record refuses
        assert YukawaParams(alpha=1.0, lam=MAX_LAMBDA).lam == MAX_LAMBDA
        assert math.isfinite(MAX_LAMBDA**2)
        with pytest.raises(InvalidParameterError, match=r"^lambda: must be at most .* got 1e\+200$"):
            YukawaParams(alpha=1.0, lam=1e200)


def test_all_exports_resolve_sorted_and_unique():
    names = plateforces.__all__
    assert [name for name in names if not hasattr(plateforces, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_version_is_the_project_version():
    # a regex, since tomllib is not in every supported Python
    pyproject = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]+)"$', project, re.M)
    assert plateforces.__version__ == version


def test_single_valued_settings_are_not_parameters():
    # the constants are compiled in, and a prior curve's source is always
    # its path
    modules = [
        importlib.import_module(f"plateforces.{info.name}")
        for info in pkgutil.iter_modules(plateforces.__path__)
    ]
    functions = {
        f"{module.__name__}.{name}": obj
        for module in modules
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
    }
    assert {"plateforces.cli.cmd_forces", "plateforces.casimir.casimir_zero_t"} <= set(functions)
    taking_constants = [
        name for name, function in functions.items()
        if "constants" in inspect.signature(function).parameters
    ]
    assert taking_constants == []
    assert "source" not in inspect.signature(plateforces.ingest_prior_bounds).parameters


def test_readme_library_example_prints_its_comments():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 0, result.stderr
    # each print's trailing comment opens with the value it prints
    lines = code.splitlines()
    calls = [
        node for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    commented = [float(lines[call.end_lineno - 1].split("#")[1].split()[0]) for call in calls]
    printed = [float(line) for line in result.stdout.splitlines()]
    assert len(commented) == 4
    assert [f"{v:.4g}" for v in printed] == [f"{v:.4g}" for v in commented]


_GOLD = MaterialLayer("gold", 19.3e3, 10e-6)
_STACK = PlateStack((_GOLD,))
_GAP = GapConfig(5e-6)
# (type, constructor arguments, a field, another value of that field)
_RECORDS = [
    (PlateGeometry, {"length": 0.10, "width": 0.12}, "width", 0.13),
    (MaterialLayer, {"name": "gold", "density": 19.3e3, "thickness": 10e-6}, "thickness", 1e-6),
    (PlateStack, {"layers": (_GOLD,)}, "layers", (_GOLD, _GOLD)),
    (GapConfig, {"separation": 5e-6}, "temperature", 4.0),
    (YukawaParams, {"alpha": 1.0, "lam": 1e-5}, "alpha", -1.0),
    (
        TorsionWire,
        {"material": "tungsten", "shear_modulus": 1.61e11, "diameter": 25e-6},
        "length",
        1.0,
    ),
    (
        BalanceConfig,
        {"torque_sensitivity": 1e-9, "arm_length": 0.1, "min_displacement": 1e-9},
        "arm_length",
        0.2,
    ),
    (TiltConfig, {"angle": 1e-6, "plate_length_along_tilt": 0.1}, "angle", 0.0),
    (ThermalModel, {}, "reduction_factor", 0.5),
    (
        PlatePairConfig,
        {"stack_a": _STACK, "stack_b": _STACK, "geometry": PlateGeometry(0.1, 0.12), "gap": _GAP},
        "gap",
        GapConfig(1e-6),
    ),
    (
        ExperimentConfig,
        {
            "plates": PlatePairConfig(_STACK, _STACK, PlateGeometry(0.1, 0.12), _GAP),
            "thermal": ThermalModel(),
            "stray_voltage": 0.01,
            "wire": TorsionWire("tungsten", SHEAR_MODULUS["tungsten"], 25e-6, 0.5),
            "balance": BalanceConfig(1e-9, 0.1, 1e-9),
            "tilt": TiltConfig(1e-6, 0.1),
            "force_resolution": 1e-12,
            "yukawa": YukawaParams(1.0, 1e-5),
        },
        "force_resolution",
        2e-12,
    ),
    (
        Curve,
        {"lambdas": array("d", (1e-6, 1e-5)), "alphas": array("d", (10.0, 1.0))},
        "source",
        "prior.csv",
    ),
    (ResultTable, {"columns": ("gap_m",), "rows": ((5e-6,),)}, "warnings", ("note",)),
]


def test_every_record_type_is_covered():
    assert {record_type for record_type, *_ in _RECORDS} == set(_Record.__subclasses__())


def test_one_type_per_concept():
    # the plates, stacks and gap live in one PlatePairConfig, and the
    # constants are fixed values rather than a record
    assert ExperimentConfig._fields == (
        "plates", "thermal", "stray_voltage", "wire", "balance", "tilt",
        "force_resolution", "yukawa", "source_sha256",
    )
    assert not hasattr(ExperimentConfig, "plate_pair")
    assert not hasattr(plateforces.core, "PhysicalConstants")
    assert len(_Record.__subclasses__()) == 13


@pytest.mark.parametrize(
    "record_type, arguments, field, other", _RECORDS, ids=[case[0].__name__ for case in _RECORDS]
)
def test_frozen(record_type, arguments, field, other):
    record, copy = record_type(**arguments), record_type(**arguments)
    assert all(getattr(record, name) == value for name, value in arguments.items())
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record is not copy and record == copy
    # __eq__ without __hash__: no record is hashable
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    changed = record_type(**{**arguments, field: other})
    assert getattr(changed, field) == other
    assert record != changed
    # equal only to an instance of the same type
    assert record.__eq__(SimpleNamespace(**vars(record))) is NotImplemented
    assert repr(record).startswith(f"{record_type.__name__}(") and f"{field}=" in repr(record)
