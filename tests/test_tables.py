import csv
import io
import math
from datetime import date

import numpy as np
import pytest

from sentimetrics.tables import (
    DAYS,
    EVENT_SKIPS,
    RF,
    SENTIMENT,
    PanelFormatError,
    read_table,
    write_rows,
    write_table,
)

AWKWARD = 'has, a comma, a "quote"\nand a newline'


def test_text_field_needing_quotes_roundtrips_with_csv_writer_bytes(tmp_path):
    p = tmp_path / "skips.csv"
    rows = [("F001", date(2022, 1, 3), AWKWARD), ("F002", date(2022, 1, 4), "plain")]
    assert write_rows(p, EVENT_SKIPS, rows) == 2
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["firm_id", "date", "reason"])
    writer.writerows([(f, d.isoformat(), r) for f, d, r in rows])
    assert p.read_bytes() == expected.getvalue().encode("utf-8")
    assert read_table(p, EVENT_SKIPS) == {
        "firm_id": ["F001", "F002"],
        "date": [date(2022, 1, 3), date(2022, 1, 4)],
        "reason": [AWKWARD, "plain"],
    }


def test_blank_float_writes_nan_and_none_empty_and_reads_none(tmp_path):
    p = tmp_path / "sentiment.csv"
    days = [date(2022, 1, 3), date(2022, 1, 4), date(2022, 1, 5)]
    columns = {
        "date": days,
        "n_positive": np.array([1, 0, 2]),
        "n_negative": [0, 0, 1],
        "score": [1.0, None, math.nan],
    }
    write_table(p, SENTIMENT, columns)
    assert p.read_text(encoding="utf-8").splitlines()[1:] == [
        "2022-01-03,1,0,1.0",
        "2022-01-04,0,0,",
        "2022-01-05,2,1,",
    ]
    back = read_table(p, SENTIMENT)
    assert back["score"] == [1.0, None, None]
    assert back["n_positive"] == [1, 0, 2]


@pytest.mark.parametrize(
    "name, values, message",
    [
        ("rf", [0.1, math.nan], "row 3: field 'rf': non-finite value"),
        ("rf", [0.1, math.inf], "row 3: field 'rf': non-finite value"),
        ("rf", [0.1, "x"], "row 3: field 'rf': not a number: 'x'"),
        ("date", [date(2022, 1, 3), date(2022, 1, 3)], "row 3: field 'date': duplicate date"),
    ],
)
def test_writer_refuses_what_the_reader_would_refuse(tmp_path, name, values, message):
    p = tmp_path / "rf.csv"
    columns = {"date": [date(2022, 1, 3), date(2022, 1, 4)], "rf": [0.1, 0.2]}
    columns[name] = values
    with pytest.raises(PanelFormatError) as exc:
        write_table(p, RF, columns)
    assert str(exc.value).startswith(f"{p}: {message}")
    assert not p.exists()


def test_reader_names_file_row_and_field(tmp_path):
    p = tmp_path / "rf.csv"
    p.write_text("date,rf\n2022-01-03,0.1\n2022-02-30,0.2\n", encoding="utf-8")
    with pytest.raises(PanelFormatError) as exc:
        read_table(p, RF)
    assert str(exc.value) == f"{p}: row 3: field 'date': invalid date '2022-02-30'"
    p.write_text("date,rf\n2022-01-04,0.1\n2022-01-03,0.2\n", encoding="utf-8")
    assert read_table(p, RF)["date"] == [date(2022, 1, 4), date(2022, 1, 3)]  # any order


def test_writer_rejects_columns_that_do_not_fit_the_schema(tmp_path):
    with pytest.raises(ValueError, match="are not"):
        write_table(tmp_path / "rf.csv", RF, {"rf": [0.1], "date": [date(2022, 1, 3)]})
    with pytest.raises(ValueError, match="are not"):
        write_table(tmp_path / "rf.csv", RF, {"date": [date(2022, 1, 3)], "rf": []})


def test_a_write_that_fails_midway_leaves_the_old_file(tmp_path, monkeypatch):
    p = tmp_path / "days.csv"
    write_rows(p, DAYS, [(date(2022, 1, 3), 1, 10), (date(2022, 1, 4), 2, 20)])
    old, real_writer = p.read_bytes(), csv.writer

    class OneRowThenFull:
        def __init__(self, fh, **kwargs):
            self.writer = real_writer(fh, **kwargs)

        def writerow(self, row):
            self.writer.writerow(row)

        def writerows(self, rows):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(csv, "writer", OneRowThenFull)
    with pytest.raises(OSError, match="No space left"):
        write_rows(p, DAYS, [(date(2022, 1, 5), 3, 30)])
    assert p.read_bytes() == old
    assert sorted(f.name for f in tmp_path.iterdir()) == ["days.csv"]  # no days.csv.tmp
