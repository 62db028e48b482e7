"""Tabular results and their CSV serialization.

One table = named float columns (units embedded in the names, e.g.
force_N, lambda_m, dimensionless columns end in _1), key=value
metadata and free-text warnings.  Each item of ``rows`` is one line of
floats or a block of lines: in a block a tuple or array('d') entry
gives one value per line and a float entry repeats on every line, so
a long-format table holds (thickness, shared lambda grid, alphas)
without a tuple per line.  The writer writes a run of rows of floats
as the block of its columns.  Serialization is deterministic and
round-trips bitwise: numbers are written with 17 significant digits,
metadata keeps insertion order, and nothing time- or host-dependent is
ever emitted.  ``from_csv`` returns flat rows, so
``from_csv(to_csv(t)) == t`` only for tables without blocks.
"""

from __future__ import annotations

import io
from array import array
from collections import Counter
from collections.abc import Callable, Iterator
from itertools import chain, groupby

from . import core
from .errors import InvalidParameterError

_METADATA_PREFIX = "# "
_WARNING_KEY = "warning"
_FLOAT_FORMAT = "%.17g"
# a forked child's text reaches the handle in strings of at most _RELAY_BYTES
_RELAY_BYTES = 1 << 14


def _is_column(value: object) -> bool:
    """A block entry, which gives one value per line: a tuple or an array('d')."""
    return type(value) is tuple or type(value) is array


def _block_indices(rows: tuple[tuple, ...]) -> list[int]:
    """Indices of the rows holding a block entry; rows are walked only if one does."""
    if not any(map(_is_column, chain.from_iterable(rows))):
        return []
    return [i for i, row in enumerate(rows) if any(map(_is_column, row))]


def _slices(line_format: str, start: int, stop: int, lines: Callable) -> Iterator[str]:
    """Lines start to stop of a template, at most core._SLICE_LINES to a
    string: one % call applies the line template to the flat values lines(a, b)."""
    for a in range(start, stop, core._SLICE_LINES):
        b = min(a + core._SLICE_LINES, stop)
        yield (line_format * (b - a)) % tuple(lines(a, b))


def _joined(values: tuple | array, start: int, stop: int) -> dict[int, str]:
    """values[start:stop] as text, one NUL-joined string per slice keyed by its first line."""
    firsts = range(start, stop, core._SLICE_LINES)
    chunks = (tuple(values[x : min(x + core._SLICE_LINES, stop)]) for x in firsts)
    return {x: "\0".join([_FLOAT_FORMAT] * len(c)) % c for x, c in zip(firsts, chunks)}


def _relay(receive: Callable) -> Iterator[str]:
    """The text of the child's next piece, after its byte length, in strings
    of at most _RELAY_BYTES."""
    receive(head := bytearray(8))
    size = int.from_bytes(head, "big")
    while size:
        receive(data := bytearray(min(size, _RELAY_BYTES)))
        size -= len(data)
        yield data.decode()


def _send(pipe: io.BufferedWriter, pieces: Iterator[Iterator[str]]) -> None:
    """Each piece encoded, after its byte length, flushed as it is done."""
    for piece in pieces:
        data = [text.encode() for text in piece]
        pipe.writelines([sum(map(len, data)).to_bytes(8, "big"), *data])
        pipe.flush()


def _pieces(blocks: list[tuple], halves: tuple[int, int]) -> Iterator[Iterator[str]]:
    """The text of each block (a run of rows of floats comes as the block of
    its columns) alone, in _slices of one line template: of its n lines,
    lines n * a // 2 to n * b // 2 for halves (a, b).  A block's floats are
    formatted into its template.  A column several blocks hold (a shared
    lambda grid) is as long in each, so its text is _joined once, over
    those lines, and split as each block formats a slice; it is keyed by
    identity since equal columns need not print alike (0.0, -0.0)."""
    a, b = halves
    held = Counter(id(v) for block in blocks for v in filter(_is_column, block))
    texts = {}
    for block in blocks:
        cells, columns = [], []
        for v in block:
            if not _is_column(v):
                cells.append(_FLOAT_FORMAT % v)
                continue
            start, stop = len(v) * a // 2, len(v) * b // 2  # alike in a block
            if held[id(v)] > 1 and id(v) not in texts:
                texts[id(v)] = _joined(v, start, stop)
            cells.append("%s" if id(v) in texts else _FLOAT_FORMAT)
            columns.append(texts.get(id(v), v))
        # one % field per column entry, filled a column at a time
        def lines(x: int, y: int, columns: list = columns) -> list:
            values = [None] * (len(columns) * (y - x))
            for k, c in enumerate(columns):
                values[k :: len(columns)] = c[x].split("\0") if type(c) is dict else c[x:y]
            return values
        yield _slices(",".join(cells) + "\n", start, stop, lines)


class ResultTable(core._Record):
    """Immutable table of float rows and blocks with metadata and warnings."""

    def __init__(
        self,
        columns: tuple[str, ...],
        rows: tuple[tuple[float | tuple[float, ...] | array, ...], ...],
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
            if len({len(v) for v in rows[i] if _is_column(v)}) > 1:
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
        one call, then the data lines in strings of at most core._SLICE_LINES lines.
        A run of rows of floats is written as the block of its columns.
        Where core._forked forks (from core._PARALLEL_LINES lines on), each
        block splits at its middle line: the child formats the second halves
        into its own memory, and this process writes the first half of each,
        then relays the child's second half; each formats a shared grid's
        text over its halves only.  Otherwise this process formats every
        line."""
        lines = [f"{_METADATA_PREFIX}{key} = {value}\n" for key, value in self.metadata]
        lines += [f"{_METADATA_PREFIX}{_WARNING_KEY}: {text}\n" for text in self.warnings]
        lines.append(",".join(self.columns) + "\n")
        handle.write("".join(lines))
        blocks = []
        for flat, run in groupby(self.rows, lambda row: not any(map(_is_column, row))):
            blocks += [tuple(zip(*run))] if flat else run
        # a block is as many lines as its columns are long
        n_lines = sum(len(next(filter(_is_column, block))) for block in blocks)
        with core._forked(n_lines, lambda pipe: _send(pipe, _pieces(blocks, (1, 2)))) as receive:
            for piece in _pieces(blocks, (0, 1) if receive else (0, 2)):
                for text in chain(piece, _relay(receive) if receive else ()):
                    handle.write(text)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        self.write(buffer)
        return buffer.getvalue()

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
