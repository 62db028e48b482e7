import importlib
import inspect
import math
import pkgutil

import pytest

import plateforces
from plateforces import (
    CODATA2018,
    GapConfig,
    InvalidParameterError,
    MaterialLayer,
    PlateGeometry,
    PlateStack,
    YukawaParams,
)
from plateforces.core import PhysicalConstants


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

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            PhysicalConstants(G=0.0)
        with pytest.raises(InvalidParameterError):
            PhysicalConstants(hbar=-1e-34)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CODATA2018.G = 1.0


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
    def test_offsets_accumulate(self):
        stack = PlateStack(
            (
                MaterialLayer("gold", 19.3e3, 10e-6),
                MaterialLayer("glass", 3.0e3, 15e-3),
                MaterialLayer("backing", 2.7e3, 1e-3),
            )
        )
        assert stack.layer_offset(0) == 0.0
        assert stack.layer_offset(1) == pytest.approx(10e-6, rel=1e-15)
        assert stack.layer_offset(2) == pytest.approx(10e-6 + 15e-3, rel=1e-15)

    def test_offsets_strictly_increase(self):
        stack = PlateStack(
            tuple(MaterialLayer(f"l{i}", 1e3, 1e-6 * (i + 1)) for i in range(5))
        )
        offsets = [stack.layer_offset(i) for i in range(5)]
        assert all(b > a for a, b in zip(offsets, offsets[1:]))

    def test_index_out_of_range(self):
        stack = PlateStack((MaterialLayer("glass", 3.0e3, 15e-3),))
        with pytest.raises(InvalidParameterError):
            stack.layer_offset(1)
        with pytest.raises(InvalidParameterError):
            stack.layer_offset(-1)

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


def test_all_exports_resolve_sorted_and_unique():
    names = plateforces.__all__
    assert [name for name in names if not hasattr(plateforces, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


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
