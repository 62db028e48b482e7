"""Tabular results and their CSV serialization.

One table = named float columns (units embedded in the names, e.g.
force_N, lambda_m, dimensionless columns end in _1), key=value
metadata and free-text warnings.  Serialization is deterministic and
round-trips bitwise: numbers are written with 17 significant digits,
metadata keeps insertion order, and nothing time- or host-dependent is
ever emitted.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import groupby
from operator import is_, itemgetter

from .errors import InvalidParameterError

_METADATA_PREFIX = "# "
_WARNING_KEY = "warning"
_FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return _FLOAT_FORMAT % value


@dataclass(frozen=True)
class ResultTable:
    """Immutable table of float rows with metadata and warnings."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: tuple[tuple[str, str], ...] = field(default=())
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        object.__setattr__(self, "metadata", tuple(tuple(item) for item in self.metadata))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if not self.columns:
            raise InvalidParameterError("a table needs at least one column")
        # one pass in C; the rows are walked only to name the offending one
        if not set(map(len, self.rows)) <= {len(self.columns)}:
            for row in self.rows:
                if len(row) != len(self.columns):
                    raise InvalidParameterError(
                        f"row of {len(row)} values in a table of "
                        f"{len(self.columns)} columns"
                    )
        for key, _ in self.metadata:
            if key == _WARNING_KEY:
                raise InvalidParameterError(
                    "metadata key 'warning' is reserved for the warnings list"
                )

    def to_csv(self) -> str:
        lines = [f"{_METADATA_PREFIX}{key} = {value}\n" for key, value in self.metadata]
        lines.extend(
            f"{_METADATA_PREFIX}{_WARNING_KEY}: {warning}\n" for warning in self.warnings
        )
        lines.append(",".join(self.columns) + "\n")
        lines.extend(self._row_runs())
        return "".join(lines)

    def _row_runs(self) -> Iterator[str]:
        """Data rows, one joined string per run of rows with equal leads.

        Long-format tables repeat a lead down each run and often the second
        column (a shared lambda grid) from run to run; each is formatted once.
        Only one run's row strings are alive at a time, and the grid text is
        freed before to_csv's final join.
        """
        width = len(self.columns)
        # one % call per row formats every value as format_float does
        row_format = ",".join([_FLOAT_FORMAT] * width) + "\n"
        tail_format = f",{_FLOAT_FORMAT}" * (width - 2) + "\n"
        column = [itemgetter(k) for k in range(width)]
        grid, grid_text = (), []
        for lead, run in groupby(self.rows, column[0]):
            run = tuple(run)
            # a single row gains nothing from a run template; 0.0 and -0.0
            # share a run but print as "0" and "-0"
            if len(run) == 1 or width == 1 or lead == 0.0:
                yield "".join(map(row_format.__mod__, run))
                continue
            # identity, not ==: equal floats need not print alike (0.0, -0.0)
            if len(run) != len(grid) or not all(map(is_, map(column[1], run), grid)):
                grid = tuple(map(column[1], run))
                grid_text = list(map(_FLOAT_FORMAT.__mod__, grid))
            run_format = f"{_FLOAT_FORMAT % lead},%s{tail_format}"
            values = zip(grid_text, *(map(get, run) for get in column[2:]))
            yield "".join(map(run_format.__mod__, values))

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        metadata: list[tuple[str, str]] = []
        warnings: list[str] = []
        columns: tuple[str, ...] | None = None
        rows: list[tuple[float, ...]] = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith(f"{_WARNING_KEY}:"):
                    warnings.append(body[len(_WARNING_KEY) + 1 :].strip())
                elif " = " in body:
                    key, value = body.split(" = ", 1)
                    metadata.append((key.strip(), value.strip()))
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
                rows.append(tuple(float(cell) for cell in line.split(",")))
            except ValueError:
                raise InvalidParameterError(
                    f"line {line_no}: non-numeric data row: {line!r}"
                ) from None
        if columns is None:
            raise InvalidParameterError("no header line found")
        return cls(
            columns=columns,
            rows=tuple(rows),
            metadata=tuple(metadata),
            warnings=tuple(warnings),
        )
