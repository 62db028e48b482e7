"""Physical constants, plate geometry and material stacks.

Everything downstream of the config parser works in SI base units;
conversion from human-friendly units (um, mm, ...) happens only at the
I/O boundary.  The constants are the fixed values of CODATA2018, not
a record.  The record types here and in the other modules are
immutable value objects built on _Record rather than the dataclasses
module, which would add about 20 ms to every command's start-up:
invariants are checked once in __init__, after which instances compare
by value and are safe to share.  BOX is the one table of the input
range: the records and the public physics functions check each input
against it with require_in_box.  _forked is the one place
that forks: the alpha kernel and the table writer each form their second
half in a child through it.

Sign convention used throughout the package: attractive forces are
reported as positive magnitudes.
"""

from __future__ import annotations

import io
import math
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from .errors import InvalidParameterError

# from this many values on (table lines, or alphas past the overflow
# prefix), work that splits in two halves forks a child for its second half
_PARALLEL_LINES = 20_000
# table lines, or alpha kernel lambdas, a process forms at once: its scratch
_SLICE_LINES = 1024

# The physical box: each input quantity's smallest and largest value, its
# unit and whether it may also be exactly 0 (alpha: its magnitude, of either
# sign).  No product of in-box inputs that a force, kappa, F_min or alpha
# forms overflows, and none underflows unless its true value or a named
# factor (exp(-d/lam), a thickness bracket, a force divided in a ratio) is
# below the normal doubles.
BOX = {
    "length": (1e-10, 1e6, "m", False),
    "area": (1e-20, 1e12, "m^2", False),
    "density": (1e-3, 1e5, "kg/m^3", False),
    "temperature": (1e-3, 1e4, "K", True),
    "voltage": (1e-12, 1e3, "V", True),
    "force": (1e-30, 1.0, "N", False),
    "alpha": (1e-50, 1e50, "in magnitude", True),
    "shear_modulus": (1e6, 1e13, "Pa", False),
    "torque_sensitivity": (1e-30, 1e3, "N m/rad", False),
    "angle": (1e-15, 1.0, "rad", True),
    # hardware a balance can be wound from, and the Drude-to-plasma span
    "diameter": (1e-5, 1e-3, "m", False),
    "reduction_factor": (0.5, 1.0, "", False),
}


def box_range(quantity: str) -> str:
    """The box of quantity as its error message and the README give it."""
    lo, hi, unit, zero = BOX[quantity]
    return f"{'0 or ' if zero else ''}[{lo:g}, {hi:g}] {unit}".rstrip()


def require_positive(name: str, value: float) -> None:
    """Raise InvalidParameterError unless value is a finite number > 0."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name}: must be finite and > 0, got {value!r}")


def require_in_box(name: str, value: float, quantity: str) -> None:
    """Raise InvalidParameterError unless value lies in the BOX of quantity."""
    lo, hi, _, zero = BOX[quantity]
    size = abs(value) if quantity == "alpha" else value
    if not (lo <= size <= hi or zero and size == 0):
        raise InvalidParameterError(
            f"{name}: must lie in {box_range(quantity)}, got {value!r}"
        )


def _fill(pipe: io.RawIOBase, buffer: object) -> None:
    """Read into every byte of buffer from pipe; EOFError if the pipe ends first."""
    view = memoryview(buffer).cast("B")
    while view:
        if not (size := pipe.readinto(view)):
            raise EOFError
        view = view[size:]


@contextmanager
def _forked(n_values: int, send: Callable[[io.BufferedWriter], object]) -> Iterator[Callable | None]:
    """receive, a function that fills a buffer with the next bytes a forked
    child sends, or None if this process is to do all the work.  From
    _PARALLEL_LINES values on, with os.fork, no other Python thread and a
    second usable CPU, a child runs send(pipe) on the write end of a pipe
    while this process does its own half, then leaves; a refused pipe or
    fork leaves one process.  The pipe is closed and the child reaped on
    every path, and a child that fails or sends too little raises OSError."""
    pid = None
    if (n_values >= _PARALLEL_LINES and hasattr(os, "fork") and threading.active_count() == 1
            and (not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) > 1)):
        try:
            read_end, write_end = os.pipe()
        except OSError:
            pass
        else:
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
    if pid is None:
        yield None
        return
    if pid == 0:
        # the child's only way out: it runs no exit hook and never flushes
        # the buffers it inherited
        status = 1
        try:
            # so that a write fails, not blocks, once the parent stops reading
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                send(pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    ended = False
    try:
        # closed first, so that a child blocked on a full pipe ends
        with open(read_end, "rb", buffering=0) as pipe:
            yield lambda buffer: _fill(pipe, buffer)
    except EOFError:
        ended = True
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise OSError(f"the forked child forming the second half exited with {status}")
    if ended:
        raise OSError("the forked child forming the second half sent too little")


class _Record:
    """Base of the immutable record types.

    A subclass's fields, _fields, are the parameters of its __init__,
    which checks its arguments and stores them, in that order, with
    _freeze.  Instances refuse assignment and deletion, compare by their
    field values (equal only to instances of the same class) and repr as
    Name(field=value, ...).  Defining __eq__ leaves them unhashable.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _freeze(self, *values: object) -> None:
        # through __dict__: __setattr__ refuses every assignment
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"


class CODATA2018:
    """Fundamental constants entering the force expressions, compiled in.

    A namespace of fixed values, never instantiated; every physics
    function reads it and none takes another set.  G = 6.674e-11 is
    rounded: it sits 4.5e-5 (relative) below CODATA-2018's 6.67430e-11,
    although output metadata names the set CODATA-2018.
    """

    hbar = 1.054571817e-34  # reduced Planck constant, J s
    c = 2.99792458e8  # speed of light in vacuum, m/s
    k_B = 1.380649e-23  # Boltzmann constant, J/K
    G = 6.674e-11  # Newtonian gravitational constant, m^3 kg^-1 s^-2
    epsilon0 = 8.8541878128e-12  # vacuum permittivity, F/m
    zeta3 = 1.2020569032  # Riemann zeta(3), dimensionless
    name = "CODATA-2018"  # label recorded in output metadata


class PlateGeometry(_Record):
    """Rectangular plate footprint, lengths in meters."""

    def __init__(self, length: float, width: float) -> None:
        require_in_box("length", length, "length")
        require_in_box("width", width, "length")
        self._freeze(length, width)

    def area(self) -> float:
        """Face area S in m^2."""
        return self.length * self.width


class MaterialLayer(_Record):
    """One homogeneous layer of a plate.

    density is in kg/m^3 and thickness in m.  The name is a label
    only: no force and no output reads it.
    """

    def __init__(self, name: str, density: float, thickness: float) -> None:
        require_in_box("density", density, "density")
        require_in_box("thickness", thickness, "length")
        self._freeze(name, density, thickness)


class PlateStack(_Record):
    """Layered plate, listed from the surface facing the gap inward.

    Layer 0 is the facing layer (e.g. a metal film); deeper layers sit
    behind it (e.g. a glass substrate).
    """

    def __init__(self, layers: tuple[MaterialLayer, ...]) -> None:
        layers = tuple(layers)
        if not layers:
            raise InvalidParameterError("a plate stack needs at least one layer")
        self._freeze(layers)


class GapConfig(_Record):
    """Face-to-face plate separation (m) and ambient temperature (K)."""

    def __init__(self, separation: float, temperature: float = 300.0) -> None:
        require_in_box("separation", separation, "length")
        require_in_box("temperature", temperature, "temperature")
        self._freeze(separation, temperature)


class YukawaParams(_Record):
    """Strength and range of a Yukawa-type correction to gravity.

    alpha is the dimensionless coupling relative to Newtonian gravity,
    of either sign; lam is the range in meters, lambda in errors.  Both
    lie in the BOX.
    """

    def __init__(self, alpha: float, lam: float) -> None:
        require_in_box("alpha", alpha, "alpha")
        require_in_box("lambda", lam, "length")
        self._freeze(alpha, lam)
