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
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain

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


def _data_slices(templates: list[tuple], first: int, stop: int) -> Iterator[str]:
    """Data lines first to stop, at most _SLICE_LINES to a string: one %
    call applies a line template to the values of a slice's lines."""
    at = 0
    for line_format, n_lines, lines in templates:
        for start in range(max(first - at, 0), min(stop - at, n_lines), _SLICE_LINES):
            end = min(start + _SLICE_LINES, stop - at, n_lines)
            yield (line_format * (end - start)) % tuple(chain.from_iterable(lines(start, end)))
        at += n_lines


@contextmanager
def _second_half(templates: list[tuple], n_lines: int) -> Iterator[tuple[int, Iterable[str]]]:
    """(middle, the text of lines middle to n_lines): from _PARALLEL_LINES
    lines on, with a second CPU to run it, a forked child formats the second
    half and sends its text through a pipe; otherwise middle is n_lines and
    the text empty."""
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
        yield n_lines, ()
        return
    middle = n_lines // 2
    if pid == 0:
        # the child's only way out: it runs no exit hook and never flushes
        # the buffers it inherited
        status = 1
        try:
            # so that a write fails, not blocks, once the parent stops reading
            os.close(read_end)
            data = [text.encode() for text in _data_slices(templates, middle, n_lines)]
            with open(write_end, "wb") as pipe:
                pipe.writelines(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        yield middle, map(bytes.decode, iter(lambda: os.read(read_end, _RELAY_BYTES), b""))
    finally:
        # closed first, so that a child blocked on a full pipe ends
        os.close(read_end)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise OSError(f"the child formatting lines {middle + 1}-{n_lines} exited with {status}")


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
        From _PARALLEL_LINES lines on, a forked child formats the second half
        into its own memory, and this process relays that text after writing
        the first half.  Without os.fork, beside another thread or if the fork
        is refused, this process formats every line."""
        lines = [f"{_METADATA_PREFIX}{key} = {value}\n" for key, value in self.metadata]
        lines += [f"{_METADATA_PREFIX}{_WARNING_KEY}: {text}\n" for text in self.warnings]
        lines.append(",".join(self.columns) + "\n")
        handle.write("".join(lines))
        templates = self._line_templates()
        n_lines = sum(n for _, n, _ in templates)
        with _second_half(templates, n_lines) as (middle, rest):
            for text in chain(_data_slices(templates, 0, middle), rest):
                handle.write(text)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        self.write(buffer)
        return buffer.getvalue()

    def _line_templates(self) -> list[tuple]:
        """(line template, line count, values of lines a to b) of each block
        and each run of rows of floats alone; a block's floats are formatted
        into its template.  A tuple several blocks hold (a shared lambda grid)
        is formatted once, here, so that both processes of a write share its
        text; it is keyed by identity since equal tuples need not print alike
        (0.0, -0.0)."""
        rows = self.rows
        blocks = _block_indices(rows)
        held = Counter(id(v) for i in blocks for v in rows[i] if type(v) is tuple)
        texts = {}
        flat = ",".join([_FLOAT_FORMAT] * len(self.columns)) + "\n"
        templates, after = [], 0  # after: the first row past the last block
        for i in [*blocks, len(rows)]:
            if after < i:
                templates.append((flat, i - after, lambda a, b, o=after: rows[o + a : o + b]))
            after = i + 1
            if i == len(rows):
                break
            cells, columns = [], []
            for v in rows[i]:
                if type(v) is not tuple:
                    cells.append(_FLOAT_FORMAT % v)
                    continue
                if held[id(v)] > 1 and id(v) not in texts:
                    texts[id(v)] = list(map(_FLOAT_FORMAT.__mod__, v))
                cells.append("%s" if id(v) in texts else _FLOAT_FORMAT)
                columns.append(texts.get(id(v), v))
            # the template holds one % field per tuple entry
            lines = lambda a, b, columns=columns: zip(*(c[a:b] for c in columns))  # noqa: E731
            templates.append((",".join(cells) + "\n", len(columns[0]), lines))
        return templates

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
