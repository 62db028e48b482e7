import io
import math
import os
import re
import sys
import tracemalloc
from array import array
from itertools import chain, repeat
from operator import truediv
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    REPO_ROOT,
    UNSAFE_FORKS,
    FullDiskHandle,
    assert_closed,
    assert_no_child_left,
    time_limit,
    unsafe_fork,
)
from oracles import csv_reference
from plateforces import InvalidParameterError, ResultTable, core, tables
from plateforces.cli import DEFAULT_SCAN_THICKNESSES, cmd_exclusion
from plateforces.config import ingest_prior_bounds
from plateforces.exclusion import exclusion_scan


def sample_table():
    return ResultTable(
        columns=("gap_m", "force_N", "flag_1"),
        rows=(
            (5e-6, 2.4962414830996872e-08, 1.0),
            (0.1 + 0.2, 1e-300, 0.0),
            (math.pi, 5e-324, 1.0),
        ),
        metadata=(
            ("tool", "plateforces"),
            ("constants", "CODATA-2018"),
            ("eta", "1"),
            ("wire_material", ""),
        ),
        warnings=("thermal expression extrapolated below its trust gap",),
    )


def written(value: float) -> str:
    """The text a one-row, one-column table writes for value."""
    return ResultTable(columns=("x_1",), rows=((value,),)).to_csv().removeprefix("x_1\n")


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert written(math.pi) == "3.1415926535897931\n"

    @pytest.mark.parametrize(
        "value",
        [0.0, 1.0, -1.0, 0.1, 0.1 + 0.2, 1e-300, 5e-324, 2.4962414830996872e-08, math.inf],
    )
    def test_value_survives_text(self, value):
        assert float(written(value)) == value

    def test_negative_zero_keeps_its_sign(self):
        assert written(-0.0) == "-0\n"


class TestRoundTrip:
    def test_bitwise(self):
        table = sample_table()
        assert ResultTable.from_csv(table.to_csv()) == table

    def test_deterministic_bytes(self):
        assert sample_table().to_csv() == sample_table().to_csv()

    def test_metadata_order_preserved(self):
        parsed = ResultTable.from_csv(sample_table().to_csv())
        assert parsed.metadata == sample_table().metadata

    def test_warnings_preserved(self):
        parsed = ResultTable.from_csv(sample_table().to_csv())
        assert parsed.warnings == sample_table().warnings

    def test_metadata_values_read_back_verbatim(self):
        metadata = (("prior_source", "  p9.csv "), ("empty", ""), ("inner", "a = b"))
        table = ResultTable(columns=("gap_m",), rows=(), metadata=metadata)
        assert ResultTable.from_csv(table.to_csv()).metadata == metadata

    def test_empty_rows_allowed(self):
        table = ResultTable(columns=("gap_m",), rows=())
        assert ResultTable.from_csv(table.to_csv()) == table


def reference_lines(rows):
    """Every value formatted on its own."""
    return [",".join(format(v, ".17g") for v in row) for row in rows]


SPECIAL_ROW = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072009e-308)


plain_rows = st.integers(1, 7).flatmap(
    lambda width: st.lists(st.tuples(*[st.floats()] * width), max_size=8)
)


@example(rows=[SPECIAL_ROW, tuple(reversed(SPECIAL_ROW))])
@given(rows=plain_rows)
def test_data_lines_are_seventeen_digit_values(rows):
    width = len(rows[0]) if rows else 1
    table = ResultTable(columns=tuple(f"c{i}" for i in range(width)), rows=rows)
    assert table.to_csv().split("\n")[1:-1] == reference_lines(rows)


# leads that print differently though equal (0.0, -0.0), never equal
# themselves (nan), or are the extremes of the format
LEADS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 3e-7)


@st.composite
def long_format_rows(draw):
    """Runs of rows sharing a lead; the second column of each run is a
    prefix of one shared tuple, or a copy of it made of distinct float
    objects with the sign of every zero flipped."""
    width = draw(st.integers(1, 5))
    shared = tuple(draw(st.lists(st.floats(), max_size=5)))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        lead = draw(st.sampled_from(LEADS))
        if draw(st.booleans()):
            second = shared[: draw(st.integers(0, len(shared)))]
        else:
            second = tuple(-v if v == 0.0 else float(repr(v)) for v in shared)
        for value in second:
            rest = draw(st.tuples(*[st.floats()] * (width - 2)))
            rows.append((lead, value, *rest)[:width])
    return width, rows


# the second run's grid equals the first's but prints "-0" where it has "0"
@example(
    (3, [(3e-7, 0.0, 1.0), (3e-7, 1.5, 2.0), (5e-324, -0.0, 3.0), (5e-324, 1.5, 4.0)])
)
@given(long_format_rows())
def test_long_format_lines_are_seventeen_digit_values(width_rows):
    width, rows = width_rows
    table = ResultTable(columns=tuple(f"c{i}" for i in range(width)), rows=rows)
    assert table.to_csv().split("\n")[1:-1] == reference_lines(rows)


def expand(items):
    """The lines a table's rows stand for: a block repeats its float entries
    down its tuple entries."""
    for item in items:
        if any(isinstance(v, tuple) for v in item):
            yield from zip(*(v if isinstance(v, tuple) else repeat(v) for v in item))
        else:
            yield item


@st.composite
def block_tables(draw):
    """Plain rows mixed with blocks led by LEADS.  A block's second entry is
    one shared tuple object, a copy of it made of distinct float objects with
    the sign of every zero flipped, or empty; its other entries are per-line
    tuples or floats that repeat."""
    width = draw(st.integers(2, 5))
    shared = tuple(draw(st.lists(st.floats(), max_size=5)))
    copy = tuple(-v if v == 0.0 else float(repr(v)) for v in shared)
    items = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            items.append(draw(st.tuples(*[st.floats()] * width)))
            continue
        second = draw(st.sampled_from([shared, copy, ()]))
        per_line = st.lists(st.floats(), min_size=len(second), max_size=len(second))
        rest = [
            tuple(draw(per_line)) if draw(st.booleans()) else draw(st.floats())
            for _ in range(width - 2)
        ]
        items.append((draw(st.sampled_from(LEADS)), second, *rest))
    return width, items


GRID = (0.0, 1.5)


# the second block's grid equals the first's but prints "-0" where it has
# "0"; the third holds the first's very object, so its text is reused
@example(
    (
        3,
        [
            (3e-7, GRID, (1.0, 2.0)),
            (5e-324, (-0.0, 1.5), 3.0),
            (-0.0, GRID, 4.0),
            (1.0, 2.0, 3.0),
        ],
    )
)
@given(block_tables())
def test_block_lines_are_seventeen_digit_values(width_items):
    width, items = width_items
    table = ResultTable(columns=tuple(f"c{i}" for i in range(width)), rows=items)
    assert table.to_csv().split("\n")[1:-1] == reference_lines(expand(items))


ODD = (0.0, 1.5, -2.5)
SEVEN = (0.0, 1.5, -2.5, 5e-324, math.inf, -0.0, 1e300)


def as_arrays(items):
    """items with each tuple entry of a block as an array('d'): one array per
    tuple object, so that a tuple several blocks hold becomes one shared array."""
    arrays = {}
    return [
        tuple(arrays.setdefault(id(v), array("d", v)) if type(v) is tuple else v for v in item)
        for item in items
    ]


# slices of one line split every block; the empty block writes nothing, and
# the second grid equals the first but prints "-0" where it has "0"
@example(
    width_items=(3, [(3e-7, (), ()), (3e-7, GRID, (1.0, 2.0)), (0.0, (-0.0, 1.5), 3.0)]),
    slice_lines=1,
)
# runs of rows before, between and after blocks of odd length and an empty
# one; each grid is held by two blocks, so its text is shared, and the two
# are equal but print "0" and "-0"
@example(
    width_items=(
        3,
        [
            (1.0, 2.0, 3.0),
            (3e-7, ODD, (1.0, 2.0, 3.0)),
            (0.0, (), ()),
            (4.0, 5.0, 6.0),
            (-0.0, ODD, 4.0),
            (5e-324, (-0.0, *ODD[1:]), (5.0, 6.0, 7.0)),
            (math.nan, ODD, (8.0, 9.0, 10.0)),
            (1.0, (-0.0, *ODD[1:]), 11.0),
            (7.0, 8.0, 9.0),
            (10.0, 11.0, 12.0),
        ],
    ),
    slice_lines=2,
)
# two blocks share a grid of seven lines; in two processes the second half
# of each starts at line 3, partway through the slice of lines 2 and 3
@example(
    width_items=(3, [(3e-7, SEVEN, tuple(reversed(SEVEN))), (1e-6, SEVEN, 2.0)]),
    slice_lines=2,
)
@given(
    width_items=st.one_of(
        plain_rows.map(lambda rows: (len(rows[0]) if rows else 1, rows)),
        long_format_rows(),
        block_tables(),
    ),
    slice_lines=st.integers(1, 4),
)
# at 1 line every table with a data line is formatted in two processes
@pytest.mark.parametrize("parallel_lines", [core._PARALLEL_LINES, 1], ids=["one", "two"])
def test_write_in_any_slice_size_matches_to_csv(width_items, slice_lines, parallel_lines):
    width, items = width_items
    columns = tuple(f"c{i}" for i in range(width))
    table = ResultTable(columns=columns, rows=items)
    # these tables are shorter than a default slice, so to_csv writes one
    expected = table.to_csv()
    # the same blocks with array('d') columns write the same bytes
    for written in (table, ResultTable(columns=columns, rows=as_arrays(items))):
        handle = io.StringIO()
        with (
            mock.patch.object(tables, "_SLICE_LINES", slice_lines),
            mock.patch.object(core, "_PARALLEL_LINES", parallel_lines),
        ):
            written.write(handle)
        assert handle.getvalue() == expected


def test_table_with_array_columns_hashes_by_value():
    grid = (0.0, 1.5, math.inf)
    table = ResultTable(columns=("t", "lambda_m"), rows=((3e-7, array("d", grid)),))
    assert hash(table) == hash(ResultTable(columns=("t", "lambda_m"), rows=((3e-7, grid),)))
    assert table == ResultTable(columns=("t", "lambda_m"), rows=((3e-7, array("d", grid)),))


class LengthRecorder:
    """A text handle that keeps only the length of each write."""

    def __init__(self):
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))


class TestStreamingWriter:
    def test_long_block_arrives_in_bounded_writes(self):
        grid = tuple(1e-6 * 1.0001**k for k in range(20_000))
        table = ResultTable(
            columns=("thickness_m", "lambda_m", "alpha_1"),
            rows=((3e-7, grid, tuple(reversed(grid))),),
        )
        text = table.to_csv()
        longest = max(map(len, text.splitlines(keepends=True)))
        handle = LengthRecorder()
        table.write(handle)
        assert sum(handle.lengths) == len(text)
        # the first write is the header; the block follows in several
        assert len(handle.lengths[1:]) > 1
        assert max(handle.lengths) <= tables._SLICE_LINES * longest

    def test_flat_rows_arrive_in_slices(self):
        n = 3 * tables._SLICE_LINES + 5
        assert n < core._PARALLEL_LINES
        rows = [(k / 3, -0.0 if k % 2 else 0.0) for k in range(n)]
        table = ResultTable(columns=("a", "b"), rows=rows)
        handle = LengthRecorder()
        table.write(handle)
        assert sum(handle.lengths) == len(table.to_csv())
        assert len(handle.lengths) <= 1 + math.ceil(n / tables._SLICE_LINES)

    def test_memory_stays_below_half_the_output(self, baseline_config):
        table = cmd_exclusion(baseline_config, n_points=20_000)
        handle = LengthRecorder()
        tracemalloc.start()
        try:
            table.write(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a writer that joins the whole file first peaks above its size
        assert peak < sum(handle.lengths) / 2

    def test_one_process_holds_less_than_the_grid_as_one_string_per_value(self):
        # as long as a 100 000-point scan's grid, so that one slice's text is
        # small beside the whole grid's
        grid = tuple(1e-6 * 1.0001**k for k in range(100_000))
        table = ResultTable(
            columns=("thickness_m", "lambda_m", "alpha_1"),
            rows=tuple((t, grid, tuple(reversed(grid))) for t in (3e-7, 1e-6)),
        )
        strings = list(map("%.17g".__mod__, grid))
        per_value = sys.getsizeof(strings) + sum(map(sys.getsizeof, strings))
        del strings
        tracemalloc.start()
        try:
            with mock.patch.object(core, "_PARALLEL_LINES", math.inf):
                table.write(LengthRecorder())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the grid's text is held as one string per slice, not per value
        assert peak < per_value


def two_block_table():
    """Two blocks sharing a grid, as long together as _PARALLEL_LINES, so
    write forks, and long enough that the child's text fills a pipe."""
    grid = tuple(1e-6 * 1.0001**k for k in range(core._PARALLEL_LINES // 2))
    return ResultTable(
        columns=("thickness_m", "lambda_m", "alpha_1"),
        rows=((3e-7, grid, tuple(reversed(grid))), (1e-6, grid, 2.0)),
    )


class TestTwoProcessWriter:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        """The fork path is tested the same on a host with one usable CPU."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_forked_write_matches_and_leaves_no_child(self, pipes):
        table = two_block_table()
        with mock.patch.object(core, "_PARALLEL_LINES", math.inf):
            expected = table.to_csv()
        with mock.patch.object(os, "fork", wraps=os.fork) as fork, time_limit(60):
            assert table.to_csv() == expected
        assert fork.call_count == 1
        assert len(pipes) == 1
        assert_closed(pipes)
        assert_no_child_left()

    def test_parent_writes_its_half_before_reading_the_childs(self):
        # the parent formats the first half of each block while the child
        # formats the second, and reads the child's piece only after its own
        events, real_fill = [], core._fill

        def fill(pipe, buffer):
            events.append("read")
            return real_fill(pipe, buffer)

        handle = mock.Mock(write=lambda text: events.append("write"))
        with mock.patch.object(core, "_fill", fill), time_limit(60):
            two_block_table().write(handle)
        half_block = core._PARALLEL_LINES // 4
        assert events.index("read") == 1 + math.ceil(half_block / tables._SLICE_LINES)

    def test_parent_holds_half_the_shared_grid_text(self):
        grid = tuple(1e-6 * 1.0001**k for k in range(core._PARALLEL_LINES // 2))
        table = ResultTable(
            columns=("thickness_m", "lambda_m", "alpha_1"),
            rows=tuple((t, grid, 2.0) for t in (1e-7, 3e-7, 1e-6, 3e-6)),
        )
        half = len(grid) // 2
        with (
            mock.patch.object(tables, "_joined", wraps=tables._joined) as joined,
            mock.patch.object(os, "fork", wraps=os.fork) as fork,
            time_limit(60),
        ):
            table.write(LengthRecorder())
            assert fork.call_count == 1
            # the parent formats the grid's text once, over its half only
            assert joined.call_args_list == [mock.call(grid, 0, half)]
            joined.reset_mock()
            # and the child's half of each block formats the other half
            list(chain.from_iterable(tables._pieces(table.rows, (1, 2))))
            assert joined.call_args_list == [mock.call(grid, half, len(grid))]

    @pytest.mark.parametrize("status", [0, 1])
    def test_child_ending_after_its_first_piece_raises_oserror(self, status, pipes):
        parent, real_slices, pieces = os.getpid(), tables._slices, []

        def slices(*template):
            if os.getpid() != parent:
                pieces.append(template)
                if len(pieces) == 2:  # the first piece is sent
                    os._exit(status)
            return real_slices(*template)

        message = "exited with 1" if status else "sent too little"
        with mock.patch.object(tables, "_slices", slices), time_limit(60):
            with pytest.raises(OSError, match=message):
                two_block_table().to_csv()
        assert_closed(pipes)
        assert_no_child_left()

    def test_failing_handle_leaves_no_child(self, pipes):
        with mock.patch.object(os, "fork", wraps=os.fork) as fork, time_limit(60):
            with pytest.raises(OSError, match="No space left"):
                two_block_table().write(FullDiskHandle())
        assert fork.call_count == 1
        assert_closed(pipes)
        assert_no_child_left()

    def test_failing_child_raises_oserror(self):
        real_slices = tables._slices

        def slices(line_format, start, stop, lines):
            if start:  # only the child starts past a block's first line
                raise MemoryError
            return real_slices(line_format, start, stop, lines)

        with mock.patch.object(tables, "_slices", slices), time_limit(60):
            with pytest.raises(OSError, match="exited with 1"):
                two_block_table().to_csv()
        assert_no_child_left()

    @pytest.mark.parametrize("cause", UNSAFE_FORKS)
    def test_one_process_without_a_safe_fork(self, cause, monkeypatch, pipes):
        table = two_block_table()
        with mock.patch.object(core, "_PARALLEL_LINES", math.inf):
            expected = table.to_csv()
        with unsafe_fork(cause, monkeypatch) as fork:
            assert table.to_csv() == expected
        assert fork.call_count == (cause == "refused")
        assert_closed(pipes)


class TestRunWriter:
    def test_alternating_zero_leads(self):
        grid = (1.0, -0.0)
        rows = [(lead, value) for lead in (0.0, -0.0, 0.0) for value in grid]
        table = ResultTable(columns=("a", "b"), rows=rows)
        assert table.to_csv() == "a,b\n0,1\n0,-0\n-0,1\n-0,-0\n0,1\n0,-0\n"

    def test_width_one(self):
        rows = [(3e-7,), (3e-7,), (0.0,), (-0.0,), (math.nan,), (3e-7,)]
        table = ResultTable(columns=("a",), rows=rows)
        assert table.to_csv() == (
            "a\n2.9999999999999999e-07\n2.9999999999999999e-07\n0\n-0\nnan\n"
            "2.9999999999999999e-07\n"
        )

    @pytest.mark.parametrize("with_prior", [False, True])
    def test_exclusion_table_matches_reference(self, baseline_config, with_prior):
        prior = None
        if with_prior:
            prior = ingest_prior_bounds(
                str(REPO_ROOT / "tests" / "golden" / "prior_fixture.csv")
            )
        table = cmd_exclusion(baseline_config, n_points=20_000, prior=prior)
        # the same table built row by row, as before it held blocks
        curves = exclusion_scan(
            baseline_config.plates,
            baseline_config.force_resolution,
            1e-6,
            1e-2,
            20_000,
            DEFAULT_SCAN_THICKNESSES,
        )
        rows = []
        for thickness, curve in zip(DEFAULT_SCAN_THICKNESSES, curves):
            row_parts = [repeat(thickness), curve.lambdas, curve.alphas]
            if prior is not None:
                row_parts.append(map(truediv, prior.alphas_at(curve.lambdas), curve.alphas))
            rows.extend(zip(*row_parts))
        flat = ResultTable(table.columns, rows, table.metadata, table.warnings)
        assert len(flat.rows) == 4 * 20_000
        assert table.to_csv() == csv_reference(flat)


class TestValidation:
    def test_row_width_checked(self):
        message = "row of 1 values in a table of 2 columns"
        with pytest.raises(InvalidParameterError, match=message):
            ResultTable(columns=("a", "b"), rows=((1.0,),))
        with pytest.raises(InvalidParameterError, match=message):
            ResultTable(columns=("a", "b"), rows=((1.0, 2.0), (1.0,), (1.0, 2.0)))
        with pytest.raises(InvalidParameterError, match="row of 3 values"):
            ResultTable(columns=("a", "b"), rows=((1.0, 2.0, 3.0),))

    def test_block_columns_must_match(self):
        # zip would silently drop the lines past the shorter tuple
        with pytest.raises(InvalidParameterError, match="block 1 holds tuples of different"):
            ResultTable(
                columns=("a", "b", "c"),
                rows=((1.0, 2.0, 3.0), (1.0, (1.0, 2.0), (3.0,)), (1.0, (1.0,), (3.0,))),
            )
        with pytest.raises(InvalidParameterError, match="block 0 holds tuples of different"):
            ResultTable(columns=("a", "b"), rows=((array("d", (1.0, 2.0)), (3.0,)),))

    def test_needs_columns(self):
        with pytest.raises(InvalidParameterError):
            ResultTable(columns=(), rows=())

    def test_warning_metadata_key_reserved(self):
        with pytest.raises(InvalidParameterError):
            ResultTable(columns=("a",), rows=(), metadata=(("warning", "x"),))

    @pytest.mark.parametrize("text", ["two\nlines", "cr\rline", "sep\u2028arator", "trailing\n"])
    def test_line_breaks_refused(self, text):
        # each is one comment line of the CSV, which the break would split
        for metadata, warnings, key in [
            (((text, "x"),), (), text),
            ((("source", text),), (), "source"),
            ((), (text,), "warning"),
        ]:
            with pytest.raises(InvalidParameterError, match=re.escape(f"metadata {key!r}")):
                ResultTable(columns=("a",), rows=(), metadata=metadata, warnings=warnings)

    def test_text_that_is_not_utf8_refused(self):
        # a lone surrogate, as an undecodable byte of a path becomes, has no UTF-8 form
        for metadata, warnings, key in [
            ((("source", "prior\udcff.csv"),), (), "source"),
            ((), ("bad \udcff",), "warning"),
        ]:
            with pytest.raises(InvalidParameterError, match=re.escape(f"metadata {key!r}")):
                ResultTable(columns=("a",), rows=(), metadata=metadata, warnings=warnings)

    def test_parse_rejects_headerless(self):
        with pytest.raises(InvalidParameterError):
            ResultTable.from_csv("# only = metadata\n")

    def test_parse_skips_blank_lines(self):
        parsed = ResultTable.from_csv("a,b\n\n1.0,2.0\n  \n3.0,4.0\n")
        assert parsed == ResultTable(columns=("a", "b"), rows=((1.0, 2.0), (3.0, 4.0)))

    def test_parse_rejects_comment_that_is_neither_metadata_nor_warning(self):
        with pytest.raises(InvalidParameterError, match="line 2: comment line is neither"):
            ResultTable.from_csv("# k = v\n# just a note\na\n1.0\n")

    def test_parse_rejects_text_rows(self):
        with pytest.raises(InvalidParameterError):
            ResultTable.from_csv("a,b\n1.0,oops\n")
