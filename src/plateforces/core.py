"""Physical constants, plate geometry and material stacks.

Everything downstream of the config parser works in SI base units;
conversion from human-friendly units (um, mm, ...) happens only at the
I/O boundary.  The constants are the fixed values of CODATA2018, not
a record.  The record types here and in the other modules are
immutable value objects built on _Record rather than the dataclasses
module, which would add about 20 ms to every command's start-up:
invariants are checked once in __init__, after which instances compare
and hash by value and are safe to share.  _forked is the one place
that forks: the alpha kernel and the table writer each form their second
half in a child through it.

Sign convention used throughout the package: attractive forces are
reported as positive magnitudes.
"""

from __future__ import annotations

import io
import math
import os
import sys
import threading
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from .errors import DomainError, InvalidParameterError

MAX_LAMBDA = math.sqrt(sys.float_info.max)  # largest Yukawa range, m: lambda**2 stays finite
# from this many values on (table lines, or alphas past the overflow
# prefix), work that splits in two halves forks a child for its second half
_PARALLEL_LINES = 20_000


def require_positive(name: str, value: float) -> None:
    """Raise InvalidParameterError unless value is a finite number > 0."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(f"{name}: must be finite and > 0, got {value!r}")


def require_non_negative(name: str, value: float) -> None:
    """Raise InvalidParameterError unless value is a finite number >= 0."""
    if not 0 <= value < math.inf:
        raise InvalidParameterError(f"{name}: must be finite and >= 0, got {value!r}")


def require_lambda(name: str, value: float) -> None:
    """Raise InvalidParameterError unless value is a Yukawa range in (0, MAX_LAMBDA] m."""
    require_positive(name, value)
    if value > MAX_LAMBDA:
        raise InvalidParameterError(f"{name}: must be at most {MAX_LAMBDA:.3g} m, got {value!r}")


def separation_power(separation: float, exponent: int) -> float:
    """d**exponent, or DomainError naming d when it overflows or underflows to zero."""
    try:
        power = separation**exponent
    except OverflowError:
        power = math.inf
    if 0.0 < power < math.inf:
        return power
    size = "small" if (power == 0.0) == (exponent > 0) else "large"
    outcome = "underflows to zero" if power == 0.0 else "overflows"
    raise DomainError(f"separation {separation:g} m is too {size}: d^{exponent} {outcome}")


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
    _freeze.  Instances refuse assignment and deletion, compare and hash
    by their field values (equal only to instances of the same class)
    and repr as Name(field=value, ...); an array hashes as a tuple.
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

    def __hash__(self) -> int:
        return hash(_hashable(self._values()))

    def __repr__(self) -> str:
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"


def _hashable(value: object) -> object:
    if type(value) is array:
        return tuple(value)
    return tuple(map(_hashable, value)) if type(value) is tuple else value


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
        require_positive("length", length)
        require_positive("width", width)
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
        require_positive("density", density)
        require_positive("thickness", thickness)
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
        require_positive("separation", separation)
        require_non_negative("temperature", temperature)
        self._freeze(separation, temperature)


class YukawaParams(_Record):
    """Strength and range of a Yukawa-type correction to gravity.

    alpha is the dimensionless coupling relative to Newtonian gravity
    (finite, any sign); lam is the range in meters, at most MAX_LAMBDA,
    lambda in errors.
    """

    def __init__(self, alpha: float, lam: float) -> None:
        if not math.isfinite(alpha):
            raise InvalidParameterError(f"alpha: must be finite, got {alpha!r}")
        require_lambda("lambda", lam)
        self._freeze(alpha, lam)
