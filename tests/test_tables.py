import csv
import io
import math
import random
from contextlib import contextmanager
from datetime import date, timedelta

import numpy as np
import pytest

from sentimetrics import tables
from sentimetrics.tables import (
    BLANK_FLOAT,
    DATE,
    DAYS,
    EVENT_SKIPS,
    FACTORS,
    FLOAT,
    INT,
    NSI,
    RF,
    SENTIMENT,
    SHORT_RATE,
    TEXT,
    PanelFormatError,
    Schema,
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
    old, real_replacing = p.read_bytes(), tables.replacing

    class FullAfterHeader:  # the header goes in, then the disk is full
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            return self.fh.write(text)

        def writelines(self, lines):
            raise OSError(28, "No space left on device")

    @contextmanager
    def replacing(path):
        with real_replacing(path) as fh:
            yield FullAfterHeader(fh)

    monkeypatch.setattr(tables, "replacing", replacing)
    with pytest.raises(OSError, match="No space left"):
        write_rows(p, DAYS, [(date(2022, 1, 5), 3, 30)])
    assert p.read_bytes() == old
    assert sorted(f.name for f in tmp_path.iterdir()) == ["days.csv"]  # no days.csv.tmp


def test_a_bare_carriage_return_is_quoted_so_the_file_reads_back(tmp_path):
    p = tmp_path / "skips.csv"
    rows = [("F001", date(2022, 1, 3), "a\rb"), ("F002", date(2022, 1, 4), "plain")]
    write_rows(p, EVENT_SKIPS, rows)
    assert p.read_bytes() == (
        b'firm_id,date,reason\nF001,2022-01-03,"a\rb"\nF002,2022-01-04,plain\n'
    )
    assert read_table(p, EVENT_SKIPS)["reason"] == ["a\rb", "plain"]


SCHEMAS = {name: value for name, value in vars(tables).items() if isinstance(value, Schema)}
AWKWARD_TEXTS = [
    "plain", "a,b", ",", 'say "hi"', '"', '""', "line\nbreak", "crlf\r\nend", "\n", "bare\rcr",
    "\r", "", " ", "  edge spaces  ", "Ünïcödé 한국어 €", "\u2028sep", "nul\x00byte", 'mix, "q"\r\n,',
]
AWKWARD_1MB = ('x,"y"\r\n\r' * (1 << 17))[: 1 << 20]


def _values(kind: tuple, n: int, rng: random.Random) -> list:
    """n values that `kind` holds, text ones drawn from AWKWARD_TEXTS."""
    if kind is TEXT:
        return [rng.choice(AWKWARD_TEXTS) for _ in range(n - 1)] + [AWKWARD_1MB]
    if kind is INT:
        return [rng.randrange(-(10**12), 10**12) for _ in range(n)]
    if kind is FLOAT:
        return [rng.uniform(-1e3, 1e3) * 10.0 ** rng.randrange(-300, 300) for _ in range(n)]
    if kind[0] is FLOAT[0]:  # a within(...) kind: values in its range, its allowed ends among them
        bound, ends = kind[1].args
        edge = bound if ends else math.nextafter(bound, 0.0)
        inside = [rng.uniform(-edge, edge) * 10.0 ** -rng.randrange(0, 300) for _ in range(n - 2)]
        return [edge, -edge, *inside]
    if kind is BLANK_FLOAT:
        return [None if rng.random() < 0.3 else rng.gauss(0.0, 1.0) for _ in range(n)]
    if kind is DATE:
        return [date(2001, 1, 1) + timedelta(days=i * 3 + rng.randrange(3)) for i in range(n)]
    allowed = []  # a choice(...) kind: the known choice words it accepts
    for word in ["positive", "negative", "+", "-", "0", ""]:
        try:
            allowed.append(kind[0](word))
        except ValueError:
            pass
    return [rng.choice(allowed) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_schema_writes_csv_writers_bytes_and_reads_awkward_values_back(tmp_path, name):
    schema, rng = SCHEMAS[name], random.Random(f"awkward {name}")
    columns = {column: _values(kind, 60, rng) for column, kind in schema.columns.items()}
    p = tmp_path / f"{name}.csv"
    assert write_table(p, schema, columns) == 60
    expected = io.StringIO(newline="")
    csv.writer(expected, lineterminator="\n").writerow(schema.columns)
    formats = [fmt for fmt, _parse in schema.columns.values()]
    for row in zip(*columns.values()):
        fields = [fmt(value) for fmt, value in zip(formats, row)]
        if any("\r" in f and "\n" not in f for f in fields):
            # csv.writer with a "\n" terminator leaves a lone "\r" bare, which does
            # not read back; with "\r\n" it quotes it as the writer does.
            line = io.StringIO(newline="")
            csv.writer(line, lineterminator="\r\n").writerow(fields)
            expected.write(line.getvalue()[:-2] + "\n")
        else:
            csv.writer(expected, lineterminator="\n").writerow(fields)
    assert p.read_bytes() == expected.getvalue().encode("utf-8")
    assert read_table(p, schema) == columns


def _csv_module_rows(path, names: list[str]) -> tuple[list, str | None]:
    """What read_rows gives, (row number, fields) and any error text, when csv.reader in
    strict mode reads every line: the reader's own rows, checked as read_rows checks them."""
    reader, rows, lineno = csv.reader(tables.read_lines(path), strict=True), [], 0
    try:
        got, lineno = next(reader, []), 1
        if [h.strip() for h in got] != names:
            return rows, f"{path}: expected header {','.join(names)!r}, got {','.join(got)!r}"
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                return rows, f"{path}: row {lineno}: expected {len(names)} fields, got {len(row)}"
            rows.append((lineno, row))
    except csv.Error as exc:
        return rows, f"{path}: row {lineno + 1}: {exc}"
    return rows, None


def _read_rows(path, names: list[str]) -> tuple[list, str | None]:
    rows = []
    try:
        rows.extend(tables.read_rows(path, names))
    except PanelFormatError as exc:
        return rows, str(exc)
    return rows, None


ENDINGS = ["\n", "\r\n", "\r"]
# Unquoted field text, quoted field text (quotes doubled, line endings inside), and the
# faults: a quote left open, text after a closing quote, a quote inside a bare field.
BARE = ["a", "b c", " ", "", "\x00", "é", "x\x00y"]
QUOTED = ["q", ",", '""', " ", "\n", "\r\n", "\r", "\x00", ""]
FAULTS = ['"open', '"closed"after', 'in"side', '"', "\x00"]


def _line(rng: random.Random, n_fields: int) -> str:
    fields = []
    for _ in range(n_fields):
        if rng.random() < 0.3:
            fields.append('"' + "".join(rng.choices(QUOTED, k=rng.randrange(4))) + '"')
        elif rng.random() < 0.04:
            fields.append(rng.choice(FAULTS))
        else:
            fields.append("".join(rng.choices(BARE, k=rng.randrange(3))))
    return ",".join(fields)


def _text(rng: random.Random) -> str:
    """A three-column CSV of a few rows: blank lines, ragged rows, faults and mixed endings."""
    lines = ["h1,h2,h3" if rng.random() < 0.9 else _line(rng, 3)]
    for _ in range(rng.randrange(6)):
        roll = rng.random()
        lines.append("" if roll < 0.08 else _line(rng, 3 if roll < 0.85 else rng.randrange(1, 6)))
    text = "".join(line + rng.choice(ENDINGS) for line in lines)
    return text if rng.random() < 0.8 else text[:-1]  # at times no final line ending


def test_the_split_reader_gives_the_csv_modules_rows_and_errors(tmp_path):
    rng, path, outcomes = random.Random("read_rows parity"), tmp_path / "fuzz.csv", set()
    for case in range(1500):
        text = _text(rng)
        path.write_bytes(text.encode("utf-8"))
        want = _csv_module_rows(path, ["h1", "h2", "h3"])
        assert _read_rows(path, ["h1", "h2", "h3"]) == want, (case, text)
        outcomes.add(want[1] and want[1].split(": ")[-1].split(" got")[0])
    # Every kind of outcome came up: whole files, each csv error, bad headers, ragged rows.
    assert {
        None, "unexpected end of data", "',' expected after '\"'", "expected header 'h1,h2,h3',",
        "expected 3 fields,",
    } <= outcomes, outcomes


def test_a_bad_field_is_the_error_before_a_ragged_row_or_a_later_bad_field(tmp_path):
    p = tmp_path / "rf.csv"
    p.write_text("date,rf\n2022-01-03,x\n2022-01-04,0.1,9\n", encoding="utf-8")
    with pytest.raises(PanelFormatError) as exc:
        read_table(p, RF)
    assert str(exc.value) == f"{p}: row 2: field 'rf': not a number: 'x'"
    # In file order, not column order: row 2's rf comes before row 3's date.
    p.write_text('date,rf\n2022-01-03,x\n2022-13-04,0.1\n2022-01-05,"0.2\n', encoding="utf-8")
    with pytest.raises(PanelFormatError) as exc:
        read_table(p, RF)
    assert str(exc.value) == f"{p}: row 2: field 'rf': not a number: 'x'"
    p.write_text('date,rf\n2022-01-03,0.1\n2022-01-04,"0.2\n', encoding="utf-8")
    with pytest.raises(PanelFormatError) as exc:
        read_table(p, RF)
    assert str(exc.value) == f"{p}: row 3: unexpected end of data"


# RF's columns with a plain FLOAT rf: RF's range would refuse 5, 1e300 and 10**20.
PLAIN_RF = Schema(RF.dates, date=DATE, rf=FLOAT)


def test_the_float_writer_writes_what_the_field_formatter_writes(tmp_path):
    p = tmp_path / "rf.csv"
    values = [0.1, 5, True, np.float64(0.2), "1.5", -0.0, 1e300, 5e-324, 10**20]
    days = [date(2022, 1, 3) + timedelta(days=i) for i in range(len(values))]
    write_table(p, PLAIN_RF, {"date": days, "rf": values})
    assert p.read_text(encoding="utf-8").splitlines()[1:] == [
        f"{d.isoformat()},{FLOAT[0](v)}" for d, v in zip(days, values)
    ]
    write_table(p, RF, {"date": days[:3], "rf": np.array([0.1, 0.2, 0.3])})
    assert read_table(p, RF)["rf"] == [0.1, 0.2, 0.3]
    for bad, message in [(math.nan, "non-finite value"), (-math.inf, "non-finite value")]:
        with pytest.raises(PanelFormatError) as exc:
            write_table(p, RF, {"date": days[:3], "rf": [0.1, bad, "x"]})
        assert str(exc.value) == f"{p}: row 3: field 'rf': {message}"


ASC = "dates must be strictly ascending"


@pytest.mark.parametrize(
    "schema, days, message",
    [
        (DAYS, [3, 4, 6, 5, 5], "row 5: field 'date': 2022-01-05 is not after 2022-01-06; " + ASC),
        (DAYS, [3, 4, 4], "row 4: field 'date': 2022-01-04 is not after 2022-01-04; " + ASC),
        (RF, [5, 3, 4, 3, 5], "row 5: field 'date': duplicate date 2022-01-03"),
    ],
)
def test_a_date_rule_broken_names_the_first_row_that_breaks_it(tmp_path, schema, days, message):
    p = tmp_path / "dated.csv"
    columns = {name: [1] * len(days) for name in schema.columns}
    columns["date"] = [date(2022, 1, d) for d in days]
    with pytest.raises(PanelFormatError) as exc:
        write_table(p, schema, columns)
    assert str(exc.value) == f"{p}: {message}"


def test_write_rows_takes_no_row_of_another_width(tmp_path):
    p = tmp_path / "days.csv"
    assert write_rows(p, DAYS, iter([])) == 0
    assert p.read_text(encoding="utf-8") == "date,source_count,n_tokens\n"
    for rows in ([(date(2022, 1, 3), 1, 10), (date(2022, 1, 4), 2)], [(date(2022, 1, 3), 1)], [()]):
        with pytest.raises(ValueError):
            write_rows(p, DAYS, rows)


@pytest.mark.parametrize(
    "schema, name, inside, outside, message",
    [
        (FACTORS, "rmrf", 0.9999999999999999, 1.0, "must be < 1, got 1.0"),
        (FACTORS, "cma", -0.9999999999999999, -1.0, "must be > -1, got -1.0"),
        (FACTORS, "rf", 1.0, 1.0000000000000002, "must be <= 1, got 1.0000000000000002"),
        (RF, "rf", -1.0, -1.0000000000000002, "must be >= -1, got -1.0000000000000002"),
        (SHORT_RATE, "short_rate", 1.0, 1.0000000000000002, "must be <= 1, got 1.0000000000000002"),
        (NSI, "nsi", 1e6, 1000000.0000000001, "must be <= 1e+06, got 1000000.0000000001"),
        (NSI, "nsi", -1e6, -1000000.0000000001, "must be >= -1e+06, got -1000000.0000000001"),
    ],
)
def test_a_range_kind_reads_its_ends_and_names_the_rule_a_value_breaks(
    tmp_path, schema, name, inside, outside, message
):
    assert schema.columns[name][0] is FLOAT[0]  # written as any float is
    p = tmp_path / "dated.csv"
    columns = {column: [0.0, 0.0] for column in schema.columns}
    columns["date"] = [date(2022, 1, 3), date(2022, 1, 4)]
    columns[name] = [inside, outside]
    with pytest.raises(PanelFormatError) as exc:  # the writer refuses what the reader refuses
        write_table(p, schema, columns)
    assert str(exc.value) == f"{p}: row 3: field '{name}': {message}"
    assert not p.exists()
    # The same rows written under the schema with a plain FLOAT column, then read.
    write_table(p, Schema(schema.dates, **{**schema.columns, name: FLOAT}), columns)
    with pytest.raises(PanelFormatError) as exc:
        read_table(p, schema)
    assert str(exc.value) == f"{p}: row 3: field '{name}': {message}"
    columns[name] = [inside, inside]
    write_table(p, schema, columns)
    assert read_table(p, schema)[name] == [inside, inside]


FACTOR_ROWS = ["2022-01-03,0.01,0,0,0,0,0", "2022-01-04,0.02,0,0,0,1.5,0", "2022-01-05,0,0,0,0,0,0"]
CMA = "row 3: field 'cma': must be < 1, got 1.5"


@pytest.mark.parametrize(
    "rows, message",
    [
        # A range fault at row 3 before a non-finite value, a short row or a date out of order.
        (FACTOR_ROWS + ["2022-01-06,nan,0,0,0,0,0"], CMA),
        (FACTOR_ROWS + ["2022-01-06,0,0"], CMA),
        (FACTOR_ROWS + ["2022-01-04,0,0,0,0,0,0"], CMA),
        (FACTOR_ROWS[:1] + ["2022-01-03,0,0,0,0,0,0"] + FACTOR_ROWS[1:],
         "row 4: field 'cma': must be < 1, got 1.5"),  # a date rule waits for every field
        # A field fault is reported in file order, so one before the range fault wins.
        (["2022-01-02,inf,0,0,0,0,0"] + FACTOR_ROWS, "row 2: field 'rmrf': non-finite value"),
        (FACTOR_ROWS[:1] + ["2022-01-04,0.02,0,0,0,0,2"] + FACTOR_ROWS[1:],
         "row 3: field 'rf': must be <= 1, got 2.0"),
        (["2022-01-02,0,0"] + FACTOR_ROWS, "row 2: expected 7 fields, got 3"),
    ],
)
def test_the_first_field_fault_in_file_order_wins_a_range_fault_among_them(tmp_path, rows, message):
    p = tmp_path / "factors.csv"
    p.write_text("\n".join(["date,rmrf,smb,hml,rmw,cma,rf", *rows]) + "\n", encoding="utf-8")
    with pytest.raises(PanelFormatError) as exc:
        read_table(p, FACTORS)
    assert str(exc.value) == f"{p}: {message}"
