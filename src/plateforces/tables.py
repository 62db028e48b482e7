"""Tabular results and their CSV serialization.

One table = named float columns (units embedded in the names, e.g.
force_N, lambda_m, dimensionless columns end in _1), key=value
metadata and free-text warnings.  Each item of ``rows`` is one line of
floats or a block of lines: in a block a tuple entry gives one value
per line and a float entry repeats on every line, so a long-format
table holds (thickness, shared lambda grid, alphas) without a tuple
per line.  Serialization is deterministic and round-trips bitwise:
numbers are written with 17 significant digits, metadata keeps
insertion order, and nothing time- or host-dependent is ever emitted.
``from_csv`` returns flat rows, so ``from_csv(to_csv(t)) == t`` only
for tables without blocks.
"""

from __future__ import annotations

import io
import os
import threading
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from itertools import chain, islice

from .core import _Record
from .errors import InvalidParameterError

_METADATA_PREFIX = "# "
_WARNING_KEY = "warning"
_FLOAT_FORMAT = "%.17g"
# data lines formatted per % call and per write: bounds the text held at once
_SLICE_LINES = 4096
# from this many data lines on, write formats in two processes; a child's
# text reaches the handle in strings of at most _RELAY_BYTES
_PARALLEL_LINES = 20_000
_RELAY_BYTES = 1 << 14


def format_float(value: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return _FLOAT_FORMAT % value


def _block_indices(rows: tuple[tuple, ...]) -> list[int]:
    """Indices of the rows holding a tuple entry; rows are walked only if one does."""
    if tuple not in set(map(type, chain.from_iterable(rows))):
        return []
    return [i for i, row in enumerate(rows) if tuple in map(type, row)]


def _slices(line_format: str, start: int, stop: int, lines: Callable) -> Iterator[str]:
    """Lines start to stop of a template, at most _SLICE_LINES to a string:
    one % call applies the line template to the values of a slice's lines."""
    for a in range(start, stop, _SLICE_LINES):
        b = min(a + _SLICE_LINES, stop)
        yield (line_format * (b - a)) % tuple(chain.from_iterable(lines(a, b)))


def _read(fd: int, size: int) -> Iterator[bytes]:
    """size bytes from fd in reads of at most _RELAY_BYTES; EOFError if it ends first."""
    while size:
        if not (data := os.read(fd, min(size, _RELAY_BYTES))):
            raise EOFError
        size -= len(data)
        yield data


@contextmanager
def _halves(n_lines: int, pieces: Callable, *args: object) -> Iterator[tuple[tuple, Callable]]:
    """(halves, relay): the halves of each template this process writes,
    (0, 2) for all of it or (0, 1) for its first half, and a function that
    returns the text of the child's lines of the next template.  From
    _PARALLEL_LINES lines on, with a second CPU to run it, a forked child
    sends pieces(*args, (1, 2)), the second half of every template, through
    a pipe, each after its byte length; otherwise this process writes every
    line and relay returns no text."""
    pid = None
    if (n_lines >= _PARALLEL_LINES and hasattr(os, "fork") and threading.active_count() == 1
            and (not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) > 1)):
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
    if pid is None:
        yield (0, 2), lambda: ()
        return
    if pid == 0:
        # the child's only way out: it runs no exit hook and never flushes
        # the buffers it inherited
        status = 1
        try:
            # so that a write fails, not blocks, once the parent stops reading
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                for piece in pieces(*args, (1, 2)):
                    data = [text.encode() for text in piece]
                    pipe.writelines([sum(map(len, data)).to_bytes(8, "big"), *data])
                    pipe.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)

    def relay() -> Iterator[str]:
        size = int.from_bytes(b"".join(_read(read_end, 8)), "big")
        yield from map(bytes.decode, _read(read_end, size))

    ended = False
    try:
        yield (0, 1), relay
    except EOFError:
        ended = True
    finally:
        # closed first, so that a child blocked on a full pipe ends
        os.close(read_end)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise OSError(f"the child formatting the second half of each block exited with {status}")
    if ended:
        raise OSError("the child formatting the second half of each block sent too little")


class ResultTable(_Record):
    """Immutable table of float rows and blocks with metadata and warnings."""

    def __init__(
        self,
        columns: tuple[str, ...],
        rows: tuple[tuple[float | tuple[float, ...], ...], ...],
        metadata: tuple[tuple[str, str], ...] = (),
        warnings: tuple[str, ...] = (),
    ) -> None:
        columns, rows = tuple(columns), tuple(map(tuple, rows))
        metadata, warnings = tuple(tuple(item) for item in metadata), tuple(warnings)
        width = len(columns)
        if not width:
            raise InvalidParameterError("a table needs at least one column")
        # one pass in C; the rows are walked only to name the offending one
        if not set(map(len, rows)) <= {width}:
            bad = next(len(row) for row in rows if len(row) != width)
            raise InvalidParameterError(f"row of {bad} values in a table of {width} columns")
        for i in _block_indices(rows):
            if len({len(v) for v in rows[i] if type(v) is tuple}) > 1:
                raise InvalidParameterError(f"block {i} holds tuples of different lengths")
        if any(key == _WARNING_KEY for key, _ in metadata):
            raise InvalidParameterError("metadata key 'warning' is reserved for the warnings list")
        # each is written as one UTF-8 comment line, which a line break would
        # split and a lone surrogate (an undecodable path byte) cannot encode
        for key, text in [*metadata, *((_WARNING_KEY, text) for text in warnings)]:
            line = f"{key} = {text}"
            if "".join(line.splitlines()) != line:
                raise InvalidParameterError(f"metadata {key!r}: {text!r} holds a line break")
            try:
                line.encode()
            except UnicodeEncodeError:
                raise InvalidParameterError(f"metadata {key!r}: {text!r} is not UTF-8") from None
        self._freeze(columns, rows, metadata, warnings)

    def write(self, handle: io.TextIOBase) -> None:
        """Write the CSV to a text handle: the metadata, warnings and header in
        one call, then the data lines in strings of at most _SLICE_LINES lines.
        From _PARALLEL_LINES lines on, each block and each run of rows of
        floats splits at its middle line: a forked child formats the second
        halves into its own memory, and this process writes the first half of
        each, then relays the child's second half; each formats a shared
        grid's text over its halves only.  Without os.fork, beside another
        thread, with one usable CPU or if the fork is refused, this process
        formats every line."""
        lines = [f"{_METADATA_PREFIX}{key} = {value}\n" for key, value in self.metadata]
        lines += [f"{_METADATA_PREFIX}{_WARNING_KEY}: {text}\n" for text in self.warnings]
        lines.append(",".join(self.columns) + "\n")
        handle.write("".join(lines))
        rows, blocks = self.rows, _block_indices(self.rows)
        # a block is as many lines as its tuples are long, any other row one
        n_lines = len(rows) - len(blocks)
        n_lines += sum(len(next(v for v in rows[i] if type(v) is tuple)) for i in blocks)
        with _halves(n_lines, self._pieces, blocks) as (halves, relay):
            for piece in self._pieces(blocks, halves):
                for text in chain(piece, relay()):
                    handle.write(text)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        self.write(buffer)
        return buffer.getvalue()

    def _pieces(self, blocks: list[int], halves: tuple[int, int]) -> Iterator[Iterator[str]]:
        """The text of each block and each run of rows of floats alone, in
        _slices of one line template: of its n lines, lines n * a // 2 to
        n * b // 2 for halves (a, b).  A block's floats are formatted into its
        template.  A tuple several blocks hold (a shared lambda grid) is as
        long in each, so its text is formatted once, over those lines; it is
        keyed by identity since equal tuples need not print alike (0.0, -0.0)."""
        rows, (a, b) = self.rows, halves
        held = Counter(id(v) for i in blocks for v in rows[i] if type(v) is tuple)
        texts = {}
        flat = ",".join([_FLOAT_FORMAT] * len(self.columns)) + "\n"
        after = 0  # the first row past the last block
        for i in [*blocks, len(rows)]:
            if after < i:
                n, lines = i - after, lambda x, y, o=after: rows[o + x : o + y]
                yield _slices(flat, n * a // 2, n * b // 2, lines)
            after = i + 1
            if i == len(rows):
                return
            cells, columns = [], []
            for v in rows[i]:
                if type(v) is not tuple:
                    cells.append(_FLOAT_FORMAT % v)
                    continue
                start, stop = len(v) * a // 2, len(v) * b // 2  # alike in a block
                if held[id(v)] > 1 and id(v) not in texts:
                    texts[id(v)] = list(map(_FLOAT_FORMAT.__mod__, islice(v, start, stop)))
                cells.append("%s" if id(v) in texts else _FLOAT_FORMAT)
                columns.append((texts[id(v)], start) if id(v) in texts else (v, 0))
            # the template holds one % field per tuple entry
            lines = lambda x, y, cs=columns: zip(*(c[x - o : y - o] for c, o in cs))  # noqa: E731
            yield _slices(",".join(cells) + "\n", start, stop, lines)

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        metadata, warnings, rows = [], [], []
        columns = None
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line.lstrip("#")
                # partition before stripping: the value is kept verbatim, even empty
                key, equals, value = body.partition(" = ")
                body = body.strip()
                if body.startswith(f"{_WARNING_KEY}:"):
                    warnings.append(body[len(_WARNING_KEY) + 1 :].strip())
                elif equals:
                    metadata.append((key.strip(), value))
                else:
                    raise InvalidParameterError(
                        f"line {line_no}: comment line is neither 'key = value' "
                        f"nor 'warning: ...': {line!r}"
                    )
                continue
            if columns is None:
                columns = tuple(name.strip() for name in line.split(","))
                continue
            try:
                rows.append(tuple(map(float, line.split(","))))
            except ValueError:
                raise InvalidParameterError(
                    f"line {line_no}: non-numeric data row: {line!r}"
                ) from None
        if columns is None:
            raise InvalidParameterError("no header line found")
        return cls(columns, tuple(rows), tuple(metadata), tuple(warnings))
