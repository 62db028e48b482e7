import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import REPO_ROOT
from oracles import csv_reference
from plateforces import InvalidParameterError, ResultTable
from plateforces.cli import cmd_exclusion
from plateforces.config import ingest_prior_bounds
from plateforces.tables import format_float


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
        ),
        warnings=("thermal expression extrapolated below its trust gap",),
    )


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert format_float(math.pi) == "3.1415926535897931"

    @pytest.mark.parametrize(
        "value",
        [0.0, 1.0, -1.0, 0.1, 0.1 + 0.2, 1e-300, 5e-324, 2.4962414830996872e-08, math.inf],
    )
    def test_value_survives_text(self, value):
        assert float(format_float(value)) == value

    def test_negative_zero_keeps_its_sign(self):
        assert format_float(-0.0) == "-0"


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

    def test_empty_rows_allowed(self):
        table = ResultTable(columns=("gap_m",), rows=())
        assert ResultTable.from_csv(table.to_csv()) == table


def reference_lines(rows):
    """Every value formatted on its own."""
    return [",".join(format(v, ".17g") for v in row) for row in rows]


SPECIAL_ROW = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072009e-308)


@example(rows=[SPECIAL_ROW, tuple(reversed(SPECIAL_ROW))])
@given(
    rows=st.integers(1, 7).flatmap(
        lambda width: st.lists(st.tuples(*[st.floats()] * width), max_size=8)
    )
)
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
        assert len(table.rows) == 4 * 20_000
        assert table.to_csv() == csv_reference(table)


class TestValidation:
    def test_row_width_checked(self):
        message = "row of 1 values in a table of 2 columns"
        with pytest.raises(InvalidParameterError, match=message):
            ResultTable(columns=("a", "b"), rows=((1.0,),))
        with pytest.raises(InvalidParameterError, match=message):
            ResultTable(columns=("a", "b"), rows=((1.0, 2.0), (1.0,), (1.0, 2.0)))
        with pytest.raises(InvalidParameterError, match="row of 3 values"):
            ResultTable(columns=("a", "b"), rows=((1.0, 2.0, 3.0),))

    def test_needs_columns(self):
        with pytest.raises(InvalidParameterError):
            ResultTable(columns=(), rows=())

    def test_warning_metadata_key_reserved(self):
        with pytest.raises(InvalidParameterError):
            ResultTable(columns=("a",), rows=(), metadata=(("warning", "x"),))

    def test_parse_rejects_headerless(self):
        with pytest.raises(InvalidParameterError):
            ResultTable.from_csv("# only = metadata\n")

    def test_parse_rejects_text_rows(self):
        with pytest.raises(InvalidParameterError):
            ResultTable.from_csv("a,b\n1.0,oops\n")
