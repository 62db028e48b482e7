import errno
import importlib
import io
import os
import pathlib
import signal
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from plateforces import load_config
from plateforces.core import GapConfig, MaterialLayer, PlateGeometry, PlateStack
from plateforces.exclusion import _alpha_bounds
from plateforces.gravity import PlatePairConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_CONFIG_PATH = REPO_ROOT / "configs" / "baseline.ini"

# Baseline numbers shared across tests: 10 cm x 12 cm plates, 5 um gap.
AREA = 0.012
PERIMETER = 0.44
GAP = 5e-6
TEMPERATURE = 300.0


def kernel_alpha(lam: float, plates: PlatePairConfig, force_resolution: float) -> float:
    """The exclusion kernel's alpha at one lambda, with both facing layers
    of plates as thick as the facing layer of stack_a."""
    thickness = plates.stack_a.layers[0].thickness
    return _alpha_bounds((lam,), plates, (thickness,), force_resolution)[0][0]


@pytest.fixture
def geometry() -> PlateGeometry:
    return PlateGeometry(length=0.10, width=0.12)


@pytest.fixture
def glass_pair(geometry) -> PlatePairConfig:
    """Bare 15 mm glass plates: the minimal mass configuration."""
    glass = PlateStack((MaterialLayer("glass", 3.0e3, 15e-3),))
    return PlatePairConfig(
        stack_a=glass,
        stack_b=glass,
        geometry=geometry,
        gap=GapConfig(separation=GAP, temperature=TEMPERATURE),
    )


@pytest.fixture
def gold_glass_pair(geometry) -> PlatePairConfig:
    """Gold-coated glass plates: the realistic stack."""
    stack = PlateStack(
        (
            MaterialLayer("gold", 19.3e3, 10e-6),
            MaterialLayer("glass", 3.0e3, 15e-3),
        )
    )
    return PlatePairConfig(
        stack_a=stack,
        stack_b=stack,
        geometry=geometry,
        gap=GapConfig(separation=GAP, temperature=TEMPERATURE),
    )


@pytest.fixture
def baseline_config():
    return load_config(str(BASELINE_CONFIG_PATH))


def with_fields(record, **changes):
    """A record (an ExperimentConfig, its PlatePairConfig, ...) rebuilt
    through its constructor with some fields changed."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


class FullDiskHandle(io.StringIO):
    """A text handle that takes the CSV header, then fails like a full disk
    on the first data slice."""

    def write(self, text):
        if self.tell():
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pipes(monkeypatch):
    """The file descriptor pairs of every os.pipe call."""
    made, real_pipe = [], os.pipe

    def pipe():
        made.append(real_pipe())
        return made[-1]

    monkeypatch.setattr(os, "pipe", pipe)
    return made


def assert_closed(pipes):
    for fd in (fd for pair in pipes for fd in pair):
        with pytest.raises(OSError):
            os.fstat(fd)


# each keeps core._forked to one process
UNSAFE_FORKS = ["refused", "missing", "threads", "one-cpu", "no-pipe"]


@contextmanager
def unsafe_fork(cause, monkeypatch):
    """One of UNSAFE_FORKS in force: os.fork refused or missing, another
    thread running, one usable CPU, or os.pipe refused.  Yields the
    stand-in for os.fork, which refuses every call."""
    fork = mock.Mock(side_effect=OSError(errno.EAGAIN, "Resource temporarily unavailable"))
    if cause == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    if cause == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if cause == "no-pipe":
        monkeypatch.setattr(os, "pipe", mock.Mock(side_effect=OSError(errno.EMFILE, "Too many open files")))
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    if cause == "threads":
        worker.start()
    try:
        yield fork
    finally:
        release.set()
    if cause == "threads":
        worker.join(timeout=10)
        assert not worker.is_alive()


@pytest.fixture
def bench(monkeypatch):
    """bench/checker and bench/inputs, imported without writing bytecode
    under bench/ and without leaving bench/ on sys.path."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    checker = importlib.import_module("checker")
    yield checker, importlib.import_module("inputs")
    for name in ("checker", "inputs"):
        sys.modules.pop(name, None)
