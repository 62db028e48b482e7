import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plateforces import InvalidParameterError, ResultTable
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
    data_lines = table.to_csv().split("\n")[1:-1]
    # reference: every value formatted on its own
    assert data_lines == [",".join(format(v, ".17g") for v in row) for row in rows]


class TestValidation:
    def test_row_width_checked(self):
        with pytest.raises(InvalidParameterError):
            ResultTable(columns=("a", "b"), rows=((1.0,),))

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
