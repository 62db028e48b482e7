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
from collections import Counter
from collections.abc import Iterator
from itertools import chain

from .core import _Record
from .errors import InvalidParameterError

_METADATA_PREFIX = "# "
_WARNING_KEY = "warning"
_FLOAT_FORMAT = "%.17g"
# data lines formatted per % call and per write: bounds the text held at once
_SLICE_LINES = 4096


def format_float(value: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return _FLOAT_FORMAT % value


def _block_indices(rows: tuple[tuple, ...]) -> list[int]:
    """Indices of the rows holding a tuple entry; rows are walked only if one does."""
    if tuple not in set(map(type, chain.from_iterable(rows))):
        return []
    return [i for i, row in enumerate(rows) if tuple in map(type, row)]


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
        one call, then the data lines in strings of at most _SLICE_LINES lines,
        so neither a whole block nor the whole file is ever held as text."""
        lines = [f"{_METADATA_PREFIX}{key} = {value}\n" for key, value in self.metadata]
        lines += [f"{_METADATA_PREFIX}{_WARNING_KEY}: {text}\n" for text in self.warnings]
        lines.append(",".join(self.columns) + "\n")
        handle.write("".join(lines))
        for text in self._data_slices():
            handle.write(text)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        self.write(buffer)
        return buffer.getvalue()

    def _data_slices(self) -> Iterator[str]:
        """The data lines, at most _SLICE_LINES to a string.  Every item of rows
        is a block, and an item of floats alone is a block of one line.  A
        block's float entries are formatted once into its line template, and
        one % call applies that template to every line of a slice.  A tuple
        several blocks hold (a shared lambda grid) is formatted once per call,
        keyed by identity since equal tuples need not print alike (0.0, -0.0).
        """
        blocks = _block_indices(self.rows)
        held = Counter(id(v) for i in blocks for v in self.rows[i] if type(v) is tuple)
        texts = {}
        for row in self.rows:
            cells, columns = [], []
            for v in row:
                if type(v) is not tuple:
                    cells.append(_FLOAT_FORMAT % v)
                    continue
                if held[id(v)] > 1 and id(v) not in texts:
                    texts[id(v)] = list(map(_FLOAT_FORMAT.__mod__, v))
                cells.append("%s" if id(v) in texts else _FLOAT_FORMAT)
                columns.append(texts.get(id(v), v))
            # the template holds one % field per tuple entry, and none in a row of floats
            line_format = ",".join(cells) + "\n"
            n_lines = len(columns[0]) if columns else 1
            for start in range(0, n_lines, _SLICE_LINES):
                stop = min(start + _SLICE_LINES, n_lines)
                values = tuple(chain.from_iterable(zip(*(c[start:stop] for c in columns))))
                yield (line_format * (stop - start)) % values

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
