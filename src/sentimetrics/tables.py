"""The reader and writer of every CSV but panel.csv, and the one line source of every input.

panel.csv, by far the largest file, takes its own paths for speed: factors'
block reader splits each line once, parses its return and cap with float(),
as _float does, and each distinct filing (exchange and fundamentals) in the
np.loadtxt call of the block that first sees it, handing a file it declines to
read_rows; synthetic.write_dataset joins each day's fields, quoting with
_quoted.  On the seed-61 big_panel panel (200 firms x 1500 days, 2-vCPU Xeon),
writing it through write_table took 2.5-2.7 s against 0.38-0.42 s for all of
write_dataset, with the same bytes.

write_table writes row by row, each row its fields joined by commas.  A TEXT
field is quoted, its quotes doubled, when it holds a comma, a quote, LF or CR;
no other kind writes any of those.  These are the bytes of csv.writer with a
"\n" terminator, but for a field with a CR and no LF, which csv.writer leaves
bare and so unreadable.

read_lines decodes a file as UTF-8, dropping a leading BOM; a byte that is
not UTF-8 stops it with ``<file>: line N: not UTF-8 (...)``.  read_rows gives
the rows of the csv module in strict mode over those lines, so a quote left
open or text after a closing quote is an error, and checks the header and
each row's field count; a field may be of any practical size, so a transcript
is one field.  A line with no quote and no NUL is split on commas; one csv
reader reads any other line, with the lines a quoted field spans.  On the
seed-61 dense_text transcripts.csv (16 MB, 2-vCPU Xeon) that read took 25-27
ms against 76-82 ms through the csv module alone.  read_table and the writers
work a column at a time: each column is parsed with one map and FLOAT written
with float.__repr__, and only a column that fails goes again field by field,
so an error names the first bad field in file order.
Each table has one Schema, declared here and used by both ends: its columns
in file order with their kinds, and the rule on its 'date' column (ASCENDING
strictly for the pipeline's own dated tables; UNIQUE, any order and no date
twice, for the dated input series).  Kinds: FLOAT is written with repr and
must be finite; within(...) is a FLOAT that both ends also hold to a range,
so a factor, rate or index level in the wrong unit is a fault of its field;
BLANK_FLOAT may also be an empty field, which NaN and None are written as and
which reads back as None; INT, DATE (ISO), TEXT, and choice(...) for one of a
fixed set of strings.  A fault stops either end with a PanelFormatError
``<file>: row N: ...``, the header being row 1, so every file the pipeline
writes reads back.  write_json writes every JSON file
the same way: keys sorted, an indent of 2 and a final newline.  Every writer
here writes through replacing, so a write cut short leaves the old file.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from contextlib import contextmanager
from datetime import date
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

POSITIVE = "positive"
NEGATIVE = "negative"

# Far above any real transcript field (csv's default limit is 131072 characters).
csv.field_size_limit(1 << 30)


class PanelFormatError(ValueError):
    """Malformed input: a byte, header, field count or field that breaks its file's format."""


def _field(convert: Callable, value, path: Path, lineno: int, name: str):
    """convert(value), with its ValueError or TypeError reported as a fault of the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise PanelFormatError(f"{path}: row {lineno}: field '{name}': {exc}") from None


def _float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise ValueError("non-finite value")
    return x


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _date(text: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ValueError(f"invalid date {text!r}") from None


# (value, path, lineno, name) -> the value, or the PanelFormatError naming the field.
_parse_float = partial(_field, _float)
_parse_date = partial(_field, _date)


# A kind is (format, parse): format turns a value into a field, parse a field
# into a value, and each raises ValueError or TypeError for what the column
# cannot hold.  Dates and ints repeat down a column (a stacked signal panel
# holds each date once per N), so each distinct one is formatted once and its
# text shared; typed, so that 5.0 never finds the text of 5.
TEXT = (str, str)
INT = (lru_cache(maxsize=4096, typed=True)(lambda x: str(operator.index(x))), _int)
FLOAT = (lambda x: repr(_float(x)), _float)
BLANK_FLOAT = (
    lambda x: "" if x is None or x != x else repr(_float(x)),
    lambda text: _float(text) if text.strip() else None,
)
DATE = (lru_cache(maxsize=4096, typed=True)(date.isoformat), _date)


def _quoted(text: str) -> str:
    """A text field as CSV holds it: quoted, its quotes doubled, if it has , " LF or CR."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _within(bound: float, ends: bool, text: str) -> float:
    x = _float(text)
    if abs(x) > bound or abs(x) == bound and not ends:
        rule = (">" if x < 0 else "<") + ("=" if ends else "")
        raise ValueError(f"must be {rule} {math.copysign(bound, x):g}, got {x!r}")
    return x


def within(bound: float, ends: bool = True) -> tuple:
    """A FLOAT column within ±`bound`, the ends included unless `ends` is False."""
    return FLOAT[0], partial(_within, bound, ends)


def choice(*allowed: str) -> tuple:
    """A text column holding one of `allowed`."""

    def check(value: str) -> str:
        if value not in allowed:
            raise ValueError(f"must be one of {', '.join(map(repr, allowed))}, got {value!r}")
        return value

    return check, check


ASCENDING = "ascending"
UNIQUE = "unique"


class Schema:
    """A file's columns as name=kind in file order, and `dates`: ASCENDING, UNIQUE or None."""

    def __init__(self, dates: str | None = None, **columns: tuple):
        self.dates, self.columns = dates, columns


DAYS = Schema(ASCENDING, date=DATE, source_count=INT, n_tokens=INT)
MENTIONS = Schema(date=DATE, firm_id=TEXT, count=INT)
SENTIMENT = Schema(ASCENDING, date=DATE, n_positive=INT, n_negative=INT, score=BLANK_FLOAT)
EVENTS = Schema(
    firm_id=TEXT, announce_date=DATE, sentiment=FLOAT, polarity=choice(POSITIVE, NEGATIVE)
)
EVENT_SKIPS = Schema(firm_id=TEXT, date=DATE, reason=TEXT)
# Decimal daily returns: a 100 % move in a day is a unit error, such as a percent.
_RETURN, _RATE = within(1.0, ends=False), within(1.0)
FACTORS = Schema(
    ASCENDING, date=DATE, rmrf=_RETURN, smb=_RETURN, hml=_RETURN, rmw=_RETURN, cma=_RETURN, rf=_RATE
)
# A blank control: the series does not cover that trading day.
CONTROLS = Schema(
    ASCENDING, date=DATE,
    nsi=BLANK_FLOAT, d_nsi=BLANK_FLOAT, short_rate=BLANK_FLOAT, pct_zero=BLANK_FLOAT,
)
# A blank AAR: no event has a return that relative day; a CAAR is blank from the first such day on.
EVENT_STUDY = Schema(group=TEXT, relative_day=INT, aar=BLANK_FLOAT, caar=BLANK_FLOAT, n_events=INT)
EVENT_EXCLUSIONS = Schema(firm_id=TEXT, announce_date=DATE, reason=TEXT)
SIGNALS = Schema(date=DATE, N=INT, signal=INT)
R2_SCAN = Schema(N=INT, lag=INT, r2=BLANK_FLOAT, corr_sign=choice("+", "-", "0", ""))
BACKTEST = Schema(
    ASCENDING, date=DATE, position=INT,
    strategy_ret=FLOAT, strategy_equity=FLOAT, benchmark_equity=FLOAT,
)
BACKTEST_SUMMARY = Schema(
    N=INT, n_days=INT, strategy_equity=FLOAT, benchmark_equity=FLOAT,
    outperformance=FLOAT, outperformance_geometric=FLOAT,
)
# A blank standard error or t-value: the fit's covariance is degenerate.
REGRESSIONS = Schema(
    spec=TEXT, term=TEXT, estimate=FLOAT, std_err=BLANK_FLOAT, t_value=BLANK_FLOAT, n_obs=INT
)
RF = Schema(UNIQUE, date=DATE, rf=_RATE)
NSI = Schema(UNIQUE, date=DATE, nsi=within(1e6))  # an index level
SHORT_RATE = Schema(UNIQUE, date=DATE, short_rate=_RATE)
TRANSCRIPTS = Schema(content_id=TEXT, publish_date=DATE, text=TEXT)
FIRM_NAMES = Schema(firm_id=TEXT, name=TEXT)


def _check_dates(path: Path, schema: Schema, columns: Mapping[str, Sequence]) -> None:
    if schema.dates is None:
        return
    dates, seen = list(columns["date"]), set()
    ascending = schema.dates == ASCENDING
    if all(map(operator.lt, dates, dates[1:])) if ascending else len(set(dates)) == len(dates):
        return  # the rule holds: the loop below only finds the row that breaks it
    for lineno, (prev, d) in enumerate(zip([None, *dates], dates), start=2):
        if ascending and prev is not None and d <= prev:
            message = f"{d} is not after {prev}; dates must be strictly ascending"
            raise PanelFormatError(f"{path}: row {lineno}: field 'date': {message}")
        if not ascending and d in seen:
            raise PanelFormatError(f"{path}: row {lineno}: field 'date': duplicate date {d}")
        seen.add(d)


def _format_column(path: Path, name: str, kind: tuple, values: Sequence) -> list[str]:
    values = values.tolist() if hasattr(values, "tolist") else values  # numpy to Python scalars
    fmt, parse = kind
    if fmt is FLOAT[0]:  # a float's repr, once its reader's check passes: a within() range too
        fmt = lambda x: repr(parse(x))
    try:
        if parse is _float and all(map(math.isfinite, values)):  # a float's field is its repr
            return list(map(float.__repr__, values))  # TypeError for any other value
        return list(map(fmt, values))
    except (TypeError, ValueError):  # again field by field, to name the first bad one
        return [_field(fmt, value, path, n, name) for n, value in enumerate(values, start=2)]


def write_table(path: str | Path, schema: Schema, columns: Mapping[str, Sequence]) -> int:
    """Write one sequence per schema column (a mapping in schema order); returns the row count."""
    path = Path(path)
    if list(columns) != list(schema.columns) or len(set(map(len, columns.values()))) > 1:
        raise ValueError(f"{path}: columns {list(columns)} are not {list(schema.columns)}")
    fields = [
        _format_column(path, name, kind, values)
        for (name, values), kind in zip(columns.items(), schema.columns.values())
    ]
    _check_dates(path, schema, columns)
    kinds = schema.columns.values()
    rows = zip(*(map(_quoted, f) if kind is TEXT else f for f, kind in zip(fields, kinds)))
    with replacing(path) as fh:
        fh.write(",".join(schema.columns) + "\n")
        fh.writelines(map("{}\n".format, map(",".join, rows)))  # row by row, never whole
    return len(fields[0])


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """A file open on `<path>.tmp`, moved over `path` once the block ends, removed if it raises."""
    tmp = Path(f"{path}.tmp")
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path: str | Path, schema: Schema, rows: Iterable[Sequence]) -> int:
    """write_table for rows, each one value per schema column; an iterator is read once."""
    rows = list(rows)
    columns = zip(*rows, strict=True) if rows else [()] * len(schema.columns)
    return write_table(path, schema, dict(zip(schema.columns, columns, strict=True)))


def write_items(path: str | Path, schema: Schema, items: Sequence) -> int:
    """write_table for a list of objects with one attribute per schema column."""
    columns = {name: [getattr(item, name) for item in items] for name in schema.columns}
    return write_table(path, schema, columns)


def write_series(path: str | Path, schema: Schema, series) -> int:
    """write_table for a series with a `dates` list and one array per other schema column."""
    columns = {name: getattr(series, name) for name in schema.columns if name != "date"}
    return write_table(path, schema, {"date": series.dates, **columns})


def write_json(path: str | Path, obj) -> None:
    """Write `obj` as JSON, keys sorted and indented by 2, with a final newline."""
    with replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 file, a leading BOM dropped, each with its line ending."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            yield from fh
    except UnicodeDecodeError:  # raised for a chunk of the file: find the bad byte's line
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = exc.object.count(b"\n", 0, exc.start) + 1
            raise PanelFormatError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from None
        raise


def _records(lines: Iterator[str]) -> Iterator[list[str]]:
    """The rows csv.reader(lines, strict=True) gives: a line with no quote and no NUL is split
    on commas, and one csv reader reads any other, with its continuation lines."""
    held: list[str] = []
    reader = csv.reader(iter(lambda: held.pop() if held else next(lines, None), None), strict=True)
    for line in lines:
        if '"' in line or "\0" in line:
            held.append(line)
            yield next(reader)
        else:
            text = line.rstrip("\r\n")  # a line ends at its line ending: read_lines splits there
            yield text.split(",") if text else []


def read_rows(path: str | Path, header: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(row number, fields) of each row after a CSV's header, which must be `header`."""
    path, names, lines = Path(path), list(header), read_lines(path)
    reader, lineno = _records(lines), 0
    try:
        got, lineno = next(reader, []), 1
        if [h.strip() for h in got] != names:
            raise PanelFormatError(
                f"{path}: expected header {','.join(names)!r}, got {','.join(got)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise PanelFormatError(
                    f"{path}: row {lineno}: expected {len(names)} fields, got {len(row)}"
                )
            yield lineno, row
    except csv.Error as exc:  # the row after the last one read
        raise PanelFormatError(f"{path}: row {lineno + 1}: {exc}") from None
    finally:
        lines.close()  # now, not when an error that holds this frame is freed


def read_table(path: str | Path, schema: Schema) -> dict[str, list]:
    """The columns of a file written under `schema`, one list per column, in schema order."""
    path, names = Path(path), list(schema.columns)
    parsers = [parse for _format, parse in schema.columns.values()]
    rows: list[list[str]] = []
    try:
        rows.extend(row for _lineno, row in read_rows(path, names))
        columns = [list(map(parse, fields)) for parse, fields in zip(parsers, zip(*rows))]
        table = dict(zip(names, columns if rows else [[] for _ in names]))
    except (TypeError, ValueError):  # the rows read, field by field: the first bad field wins
        for lineno, row in enumerate(rows, start=2):
            for parse, name, value in zip(parsers, names, row):
                _field(parse, value, path, lineno, name)
        raise
    _check_dates(path, schema, table)
    return table
