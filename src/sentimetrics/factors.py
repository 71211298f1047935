"""Five-factor construction from a daily security panel, plus liquidity/macro controls.

Factors follow the standard 2x3 double-sort design: the size breakpoint is the
main-exchange median market cap, the value/profitability/investment breakpoints
are main-exchange 30th/70th percentiles, portfolios are value-weighted, and
memberships are refreshed once a year.  Sorting applies to all stocks while
breakpoints come from the main exchange only, which mirrors the usual practice
of sorting a two-exchange universe on primary-exchange breakpoints.

Conventions this module pins down (the panel interface leaves them open):

* Value weights are the market caps recorded on the same date in the panel.
  Users who want lagged weights can shift the cap column upstream.
* Memberships are formed on the first trading day of the panel and re-formed
  on the first trading day on/after July 1 of each year (configurable month/day).
* A sort cell with no members on a date is imputed the value-weighted market
  return, which keeps every factor defined and makes all long-short factors
  exactly zero in a degenerate all-identical universe.
* Characteristics at a rebalance: size = market cap, value = book equity /
  market cap, profitability = operating income / book equity, investment =
  asset growth (total assets / prior total assets - 1).  Low asset growth is
  the conservative leg.
"""

from __future__ import annotations

import itertools
import mmap
import os
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from . import tables
from .tables import PanelFormatError, _parse_date, _parse_float

MAIN = "main"
SECONDARY = "secondary"
FACTOR_NAMES = ("rmrf", "smb", "hml", "rmw", "cma")


class DegenerateBreakpointsError(ValueError):
    """Too few main-exchange stocks at a rebalance to form sort breakpoints."""


class CalendarAlignmentError(ValueError):
    """A series cannot be aligned to the trading calendar."""


PANEL_FIELDS = (
    "daily_return",
    "market_cap",
    "book_equity",
    "operating_income",
    "total_assets",
    "total_assets_prior",
)
FILING_FIELDS = ("is_main",) + PANEL_FIELDS[2:]  # a filing: its exchange and four fundamentals


@dataclass
class SecurityPanel:
    """Daily panel: one row per firm (sorted ids), one column per calendar date.

    ``filings`` holds each filing once, an array per FILING_FIELDS name; ``filing`` is
    each cell's int32 row in it, -1 where the firm has no observation that date, and
    so the one mark of presence: the dense ``daily_return`` and ``market_cap`` of an
    absent cell are read by no one (the loader leaves them NaN).  The arrays may be views
    in either memory order, and may be read-only (the generator's cap): copy before writing.
    """

    firms: list[str]
    calendar: list[date]
    daily_return: np.ndarray
    market_cap: np.ndarray
    filing: np.ndarray
    filings: dict[str, np.ndarray]

    def __post_init__(self):
        if self.firms != sorted(set(self.firms)):
            raise ValueError("panel firms must be unique and sorted")
        if any(a >= b for a, b in zip(self.calendar, self.calendar[1:])):
            raise ValueError("panel calendar must be strictly ascending")
        shape = (len(self.firms), len(self.calendar))
        for name in ("daily_return", "market_cap", "filing"):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"panel array '{name}' has shape {got}, want {shape}")
        if tuple(self.filings) != FILING_FIELDS:
            raise ValueError(f"panel filings have {list(self.filings)}, want {FILING_FIELDS}")


@dataclass
class FactorSeries:
    """Aligned daily factor returns and the risk-free rate on a trading calendar."""

    dates: list[date]
    rmrf: np.ndarray
    smb: np.ndarray
    hml: np.ndarray
    rmw: np.ndarray
    cma: np.ndarray
    rf: np.ndarray

    def __post_init__(self):
        n = len(self.dates)
        for name in FACTOR_NAMES + ("rf",):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"factor series '{name}' length {arr.shape} != {n} dates")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"factor series '{name}' contains non-finite values")
            setattr(self, name, arr)
        if any(self.dates[i] >= self.dates[i + 1] for i in range(n - 1)):
            raise ValueError("factor dates must be strictly ascending")
        if np.any(self.rf < -1.0):
            raise ValueError("rf values must be >= -1")


@dataclass
class ControlSeries:
    """Macro/liquidity controls aligned to the trading calendar (NaN = not covered)."""

    dates: list[date]
    nsi: np.ndarray
    d_nsi: np.ndarray
    short_rate: np.ndarray
    pct_zero: np.ndarray


PANEL_COLUMNS = [
    "firm_id",
    "date",
    "daily_return",
    "market_cap",
    "exchange",
    "book_equity",
    "operating_income",
    "total_assets",
    "total_assets_prior",
]
_FLOAT_COLUMNS = (2, 3, 5, 6, 7, 8)  # PANEL_FIELDS, in file order
_TAIL_DTYPE = np.dtype([("exchange", "i4")] + [(name, "f8") for name in PANEL_FIELDS[2:]])
_BLANK_TAILS = {"", "\n", "\r\n"}  # np.loadtxt skips such a line where it should refuse it
_BLOCK_ROWS = 4096  # rows a block; its texts are held at once, so it bounds the parse's memory


def _plain_layout(path: Path, parts: int) -> tuple[bool, int, list[tuple[int, int]]]:
    """(every line has exactly 9 unquoted fields, number of lines after the header, cuts).

    A byte scan: no quote characters, no CR but one that ends a line, and 8
    commas per line.  Blank lines, ragged rows, quoted fields and a CR inside
    a line, which the csv module reads as a line end, make it False.  The cuts
    split the rows into at most `parts` line-aligned ranges of about equal
    bytes: (byte offset, first row) of each range, the first just past the
    header."""
    size = path.stat().st_size
    targets = [size * k // parts for k in range(parts)]
    cuts = []
    lines = commas = quotes = lone_crs = 0
    last = b"\n"
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            base = fh.tell() - len(chunk)
            while targets and (end := chunk.find(b"\n", max(targets[0] - base, 0)) + 1):
                cuts.append((base + end, lines + chunk.count(b"\n", 0, end) - 1))
                targets.pop(0)
            data = np.frombuffer(chunk, np.uint8)
            lines += int(np.count_nonzero(data == ord("\n")))
            commas += int(np.count_nonzero(data == ord(",")))
            quotes += int(np.count_nonzero(data == ord('"')))
            crs = int(np.count_nonzero(data == ord("\r")))
            # Each CR must start a CRLF, one split across two chunks too; count CRLFs, the slow
            # scan, only in a chunk that holds a CR.
            lone_crs += (crs and crs - chunk.count(b"\r\n")) - (last + chunk[:1] == b"\r\n")
            last = chunk[-1:]
    lines += last != b"\n"
    plain = quotes == lone_crs == 0 and commas == (len(PANEL_COLUMNS) - 1) * lines
    return plain, lines - 1, cuts or [(size, 0)]  # no cut: the header is the only line


def _range_count() -> int:
    """Byte ranges a plain panel of two blocks or more is parsed in at once: one per usable
    CPU, at most 2.  One without fork, and on Python 3.12+, which warns when a process with
    threads (numpy's BLAS pool is one) forks, so the parse there is one pass."""
    usable = hasattr(os, "sched_getaffinity") and hasattr(os, "fork") and sys.version_info < (3, 12)
    return min(2, len(os.sched_getaffinity(0))) if usable else 1


def _parse_range(path: Path, offset: int, ids: list, values: list, conn=None):
    """Parse the len(ids[0]) lines from byte `offset` into the three id rows, return and cap.

    A line splits once into firm, date, return, cap and a tail, its filing: exchange and
    the four fundamentals.  Texts get ids from one first-seen dict per column, return and
    cap go through float(), the row reader's parser, and each block of _BLOCK_ROWS lines
    parses the tails that the range's tails dict has not seen, in one np.loadtxt call; a
    dict past _BLOCK_ROWS tails gives way to a fresh one.  Returns (the three dicts, the
    blocks' filing columns), or None once a block fails; given `conn`, sends it down it."""
    seen, n_rows, result = [{} for _ in range(3)], len(ids[0]), None
    tails, first, filed = {}, 0, []  # tail -> filing, the filings before this dict, blocks
    args = dict(delimiter=",", comments=None, ndmin=1)  # np.loadtxt's; the exchange as an id
    args["converters"] = {0: lambda text: seen[2].setdefault(text, len(seen[2]))}
    with path.open(encoding="utf-8", newline="\n") as fh:
        fh.buffer.seek(offset)  # before the first read, so the text starts at `offset`
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop, known = min(start + _BLOCK_ROWS, n_rows), len(tails)
            if known > _BLOCK_ROWS:
                tails, first, known = {}, first + known, 0
            lines = itertools.islice(fh, stop - start)
            try:
                cells = list(itertools.chain.from_iterable(line.split(",", 4) for line in lines))
                if len(cells) != 5 * (stop - start):  # a line of fewer fields, or too few lines
                    break
                for field, k in zip(values, (2, 3)):
                    field[start:stop] = list(map(float, cells[k::5]))
                ids[2][start:stop] = [tails.setdefault(t, first + len(tails)) for t in cells[4::5]]
                new = list(itertools.islice(tails, known, None))
                if _BLANK_TAILS.intersection(new):
                    break
                if new:
                    table = np.loadtxt(new, _TAIL_DTYPE, **args)
                    filed.append([table[name].copy() for name in _TAIL_DTYPE.names])
            except ValueError:
                break
            for s, k, row_ids in zip(seen, (0, 1), ids):
                row_ids[start:stop] = [s.setdefault(c, len(s)) for c in cells[k::5]]
            del cells, new  # before the next block's texts are read
        else:  # every block parsed
            result = seen, filed
    return result if conn is None else conn.send(result)


def _read_columns_fast(path: Path):
    """(text columns, filings, return and cap, None), or None: the file is not plain or
    has no row, or a block fails.

    This process parses the first range _plain_layout cut and a forked child each
    other range, into arrays in anonymous shared memory (MAP_SHARED).  The ranges'
    first-seen cells are merged in file order and their filings appended, so each
    row's cells and filing fields are what one pass gives."""
    plain, n_rows, cuts = _plain_layout(path, _range_count())
    if not plain or not n_rows:
        return None
    if n_rows < 2 * _BLOCK_ROWS:
        cuts = cuts[:1]

    def row(dtype):  # each row its own buffer, so the firm and date ids can go alone
        if len(cuts) == 1:
            return np.empty(n_rows, dtype)
        return np.frombuffer(mmap.mmap(-1, np.dtype(dtype).itemsize * n_rows), dtype)

    ids, values = [row(np.int32) for _ in range(3)], [row(float) for _ in range(2)]
    spans = [(at, slice(lo, hi)) for (at, lo), (_, hi) in zip(cuts, cuts[1:] + [(0, n_rows)])]
    if len(spans) > 1:
        import multiprocessing  # here, not at the top: it adds over 0.6 MB to an importer's RSS

        fork = multiprocessing.get_context("fork")
    children, got = [], []
    try:
        for at, rows in spans[1:]:
            recv, send = fork.Pipe(duplex=False)
            args = (path, at, [i[rows] for i in ids], [v[rows] for v in values], send)
            child = fork.Process(target=_parse_range, args=args)
            child.start()
            children.append((child, recv))
            send.close()
        at, rows = spans[0]
        got.append(_parse_range(path, at, [i[rows] for i in ids], [v[rows] for v in values]))
        if got[0] is not None:  # else the whole file goes to the row reader
            got += [recv.recv() for _child, recv in children]
    except EOFError:  # a child ended without a result
        got.append(None)
    finally:
        for child, recv in children:
            if len(got) <= len(children):  # a result went unread: its child may block sending it
                child.kill()
            child.join()
            recv.close()
    if None in got:
        return None
    seen, filed = [{} for _ in range(3)], []  # cell -> id, in first-seen order over the file
    for (_at, rows), (range_seen, range_filed) in zip(spans, got):
        to_file = [np.array([s.setdefault(c, len(s)) for c in cells], np.int32)
                   for s, cells in zip(seen, range_seen)]
        for row_ids, row_to_file in zip(ids[:2], to_file):
            if rows.start:  # the first range's first-seen ids are the file's already
                row_ids[rows] = row_to_file[row_ids[rows]]
        ids[2][rows] += sum(len(block[0]) for block in filed)
        for block in range_filed:
            block[0] = to_file[2][block[0]]
        filed += range_filed
    # A column at a time, each block's piece dropped once it is copied.
    filings = {name: np.concatenate([b.pop(0) for b in filed]) for name in _TAIL_DTYPE.names}
    return list(zip(map(list, seen), ids)), filings, values, None


def _read_columns_by_row(path: Path):
    """The row-by-row reader (tables.read_rows), for a file the block parse does not read.

    Stops at the first malformed row and returns the columns of the rows before
    it together with that row's error (None if there is none)."""
    seen, tails, filed = [{} for _ in range(3)], {}, []
    ids, values, error = [[] for _ in range(3)], [[], []], None
    try:
        for lineno, row in tables.read_rows(path, PANEL_COLUMNS):
            _parse_date(row[1], path, lineno, "date")
            parsed = [_parse_float(row[j], path, lineno, PANEL_COLUMNS[j]) for j in _FLOAT_COLUMNS]
            for s, j, row_ids in zip(seen, (0, 1), ids):
                row_ids.append(s.setdefault(row[j], len(s)))
            for field, v in zip(values, parsed):  # return and cap
                field.append(v)
            ids[2].append(tails.setdefault(tuple(row[4:]), len(tails)))
            if len(tails) > len(filed):  # a new tail: a filing
                filed.append((seen[2].setdefault(row[4], len(seen[2])), *parsed[2:]))
    except PanelFormatError as exc:
        error = exc
    ids, filed = [np.array(i, np.int32) for i in ids], np.array(filed, _TAIL_DTYPE)
    filings = {name: filed[name] for name in _TAIL_DTYPE.names}
    return list(zip(map(list, seen), ids)), filings, [np.array(v, float) for v in values], error


def _layout(firm_idx: np.ndarray, date_idx: np.ndarray, shape: tuple) -> str | None:
    """'C' when the rows are every cell of `shape` once in firm-major order, 'F' in
    date-major order (the generator's), else None; by reductions, no array a row long."""
    for order in "CF" if len(firm_idx) == shape[0] * shape[1] > 0 else "":
        grids = [idx.reshape(shape, order=order) for idx in (firm_idx, date_idx)]
        ends = [end(grid, axis=1 - k) for k, grid in enumerate(grids) for end in (np.min, np.max)]
        if all(np.array_equal(e, np.arange(shape[k // 2])) for k, e in enumerate(ends)):
            return order
    return None


def _index_rows(path: Path, columns: list, filed: dict, values: list):
    """Validate the parsed rows and map them to (firm, date) cells.

    Takes the readers' (distinct cells, each row's index into them) per text column
    (for the exchange, each row's filing, whose 'exchange' indexes the cells), filing
    columns, and return and cap.  Returns (firms, calendar, cells: _layout's order or the
    rows' (firm_idx, date_idx), filing, filings), or raises the PanelFormatError of the
    first offending row.
    Each check's mask is built and dropped in turn, and the checks that read the text
    ids run first: the ids are then freed (`columns` is emptied) before the floats are."""
    (firm_keys, firm_inv), (date_keys, date_inv), (exchange_keys, filing) = columns
    firm_ids = [f.strip() for f in firm_keys]
    firms = sorted(set(firm_ids))
    firm_pos, firm_idx = {f: i for i, f in enumerate(firms)}, firm_inv
    if firm_ids != firms:  # else the ids are the sorted positions already
        firm_idx = np.array([firm_pos[f] for f in firm_ids], dtype=np.int32)[firm_inv]

    parsed: list[date | None] = []
    for s in date_keys:
        try:
            parsed.append(date.fromisoformat(s.strip()))
        except ValueError:
            parsed.append(None)
    calendar = sorted({d for d in parsed if d is not None})
    date_pos, date_idx = {d: t for t, d in enumerate(calendar)}, date_inv
    # An unparseable date takes the slot past the calendar; a duplicate key
    # there always comes after a row whose date check fails first.
    if parsed != calendar:
        date_idx = np.array([date_pos.get(d, len(calendar)) for d in parsed], np.int32)[date_inv]
    bad_date = np.array([d is None for d in parsed], dtype=bool)

    exchanges, exchange = [e.strip() for e in exchange_keys], filed.pop("exchange")
    bad_exchange = np.array([e not in (MAIN, SECONDARY) for e in exchanges], dtype=bool)
    filings = {"is_main": np.array([e == MAIN for e in exchanges], dtype=bool)[exchange], **filed}

    hits = []  # (first offending row, the check's place in a row-by-row scan, message)

    def check(k: int, mask: np.ndarray, message, rows=None) -> None:
        # A mask of distinct cells or filings reaches the rows, by `rows`, if it marks one.
        if mask.any() and (rows is None or (mask := mask[rows]).any()):
            row = int(np.argmax(mask))
            hits.append((row, k, message(row)))

    check(0, bad_date, lambda r: f"field 'date': invalid date {date_keys[date_inv[r]]!r}", date_inv)
    check(
        9,
        bad_exchange[exchange],
        lambda r: f"exchange must be '{MAIN}' or '{SECONDARY}', "
        f"got {exchanges[exchange[filing[r]]]!r}",
        filing,
    )
    cells = _layout(firm_idx, date_idx, (len(firms), len(calendar))) or (firm_idx, date_idx)
    columns.clear()
    del firm_inv, date_inv, exchange, firm_idx, date_idx
    for k, name in enumerate(PANEL_FIELDS, start=1):
        field, rows = (values[k - 1], None) if k < 3 else (filed[name], filing)
        check(k, ~np.isfinite(field), lambda r: f"field '{name}': non-finite value", rows)
    ret, cap, tap = *values, filed["total_assets_prior"]
    check(7, ret <= -1.0, lambda r: "daily_return must be > -1")
    check(8, cap <= 0.0, lambda r: "market_cap must be positive")
    check(10, tap <= 0.0, lambda r: "total_assets_prior must be positive", filing)
    if isinstance(cells, tuple):  # else every cell is there once, so no key repeats
        firm_idx, date_idx = cells
        taken = np.zeros((len(firms), len(calendar) + 1), dtype=bool)
        taken[firm_idx, date_idx] = True
        if np.count_nonzero(taken) < len(firm_idx):  # only then a row key and its sort
            key = firm_idx.astype(np.int64) * (len(calendar) + 1) + date_idx
            order = np.argsort(key, kind="stable")
            repeat = np.zeros(len(firm_idx), dtype=bool)
            repeat[order[1:][key[order][1:] == key[order][:-1]]] = True
            message = lambda r: f"duplicate key ({firms[firm_idx[r]]}, {calendar[date_idx[r]]})"
            check(11, repeat, message)
    if hits:  # on a tie the check a row-by-row scan meets first wins
        row, _k, message = min(hits)
        raise PanelFormatError(f"{path}: row {row + 2}: {message}")
    return firms, calendar, cells, filing, filings


def load_panel(path: str | Path) -> SecurityPanel:
    """Read the security panel CSV: dense firm x date return, cap and filing, and the filings.

    Duplicate (firm, date) keys, non-finite values, returns <= -1,
    nonpositive caps or prior assets and unknown exchanges are errors naming
    the first offending row.  A plain file is parsed in blocks of rows, so its
    text is never held whole: each line split once, its return and cap parsed
    with float(), and its tail, a filing (exchange and fundamentals), keyed in one
    dict a range, the tails a block is first to see parsed in one np.loadtxt call.
    One of two blocks or more is cut into two byte ranges parsed at once, the
    second in a forked child.  With one usable CPU, and on Python 3.12+, which
    warns when a process with threads forks, the parse is one pass.  A file
    with quoted fields, blank lines or a CR inside a line goes through the csv
    module, as does the whole of a file in which a block fails; it locates the
    bad row.  The row checks free the text ids before they read the floats.  A
    file of every cell once, firm-major or date-major (the generator's order), keeps
    the parsed return, cap and filing rows as the dense arrays: views, in C or Fortran
    order, of the parse's buffers (shared memory for a split parse).  Any other has
    them placed a field at a time, each row freed once placed."""
    path = Path(path)
    next(tables.read_rows(path, PANEL_COLUMNS), None)  # checks the header and row 2's field count
    columns, filed, values, error = _read_columns_fast(path) or _read_columns_by_row(path)
    firms, calendar, cells, filing, filings = _index_rows(path, columns, filed, values)
    if error is not None:
        raise error
    if not firms:
        raise PanelFormatError(f"{path}: panel is empty")
    shape, arrays, rows = (len(firms), len(calendar)), {}, [filing, *values]
    del filing, values[:]  # `rows` holds them alone, so each goes once it is placed
    for name, blank in zip(("filing",) + PANEL_FIELDS[:2], (-1, np.nan, np.nan)):
        if isinstance(cells, str):
            arrays[name] = rows.pop(0).reshape(shape, order=cells)
        else:
            arrays[name] = np.full(shape, blank, rows[0].dtype)
            arrays[name][cells] = rows.pop(0)
    return SecurityPanel(firms, calendar, filings=filings, **arrays)


def _value_weighted(panel: SecurityPanel, member: np.ndarray, days: np.ndarray) -> tuple:
    """(Cap-weighted mean return, NaN where no firm is; whether one is) per (group, cell,
    date) of the firms `member` (firms, groups, 6, periods) puts there for the periods of
    `days`, on the dates they are present.  Sums go firm by firm in firm order, the
    additions of a loop over each date's cross-section, 4 firms' rows copied out at a time
    (a date-major panel's are strided).  A return x cap or sum that is not finite names
    the first group's first such date and its firm."""
    shape = (*member.shape[1:3], len(panel.calendar))
    sums, hit = np.zeros((2, *shape)), np.zeros(shape, dtype=bool)
    num, den = sums
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that is not finite is located below
        for lo in range(0, len(panel.firms), 4):
            rows = slice(lo, lo + 4)
            ret, cap = map(np.ascontiguousarray, (panel.daily_return[rows], panel.market_cap[rows]))
            block = np.repeat(member[rows], days, axis=-1)  # (firm, group, cell, date)
            block &= (panel.filing[rows] >= 0)[:, None, None]
            for firm_member, firm_ret, firm_cap in zip(block, ret, cap):  # each firm's return x cap
                np.add(num, firm_ret * firm_cap, out=num, where=firm_member)
                np.add(den, firm_cap, out=den, where=firm_member)
            hit |= block.any(axis=0)
        if not np.isfinite(sums).all():  # that date's sums, summed firm by firm again
            g, t = divmod(int(np.argmax(~np.isfinite(sums).all(axis=(0, 2)))), shape[-1])
            period = int(np.searchsorted(np.cumsum(days), t, side="right"))  # date t's
            col = member[:, g, :, period].T & (panel.filing[:, t] >= 0)  # (cell, firm)
            cap = panel.market_cap[:, t]
            terms = np.where(col, np.stack([panel.daily_return[:, t] * cap, cap])[:, None], 0.0)
            i = int(np.argmax(~np.isfinite(np.cumsum(terms, axis=-1)).all(axis=(0, 1))))
            raise PanelFormatError(
                f"firm {panel.firms[i]}, date {panel.calendar[t]}: "
                "daily_return x market_cap overflows the value-weighted sums"
            )
    return np.divide(num, den, out=np.full(shape, np.nan), where=hit), hit


def _rf_on(calendar: list[date], rf: dict[date, float]) -> np.ndarray:
    missing = [d for d in calendar if d not in rf]
    if missing:
        head = ", ".join(d.isoformat() for d in missing[:5])
        raise CalendarAlignmentError(f"rf series missing {len(missing)} trading dates ({head} ...)")
    return np.array([rf[d] for d in calendar], dtype=float)


def roll_forward(calendar: list[date], dates: list[date]) -> np.ndarray:
    """Per date, its index on the ascending `calendar` if it trades, else the next trading day's.

    A date past the last trading day gets ``len(calendar)``."""
    ordinals = np.fromiter(map(date.toordinal, calendar), np.int64)
    return np.searchsorted(ordinals, np.fromiter(map(date.toordinal, dates), np.int64))


def positions(calendar: list[date], dates: list[date]) -> np.ndarray:
    """Per date, its index on the ascending `calendar`, or -1 where it does not trade."""
    idx = roll_forward(calendar, dates)
    trades = [i < len(calendar) and calendar[i] == d for i, d in zip(idx.tolist(), dates)]
    return np.where(np.array(trades, dtype=bool), idx, -1)


def rebalance_schedule(calendar: list[date], month: int = 7, day: int = 1) -> list[int]:
    """Calendar positions of the initial formation at the first trading day, then
    of the first trading day on/after `month`/`day` of each later-or-equal year."""
    cutoffs = [date(year, month, day) for year in {d.year for d in calendar}]
    return sorted({0, *(i for i in roll_forward(calendar, cutoffs).tolist() if i < len(calendar))})


def _sort_cells(
    panel: SecurityPanel, t: int, min_breakpoint_stocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """2x3 cells (size_bucket * 3 + char_bucket) of the firms present at rebalance column `t`.

    Returns (firm rows, cells) with one cell column per sort dimension:
    value, profitability, investment."""
    d = panel.calendar[t]
    rows = np.flatnonzero(panel.filing[:, t] >= 0)
    filed = {name: column[panel.filing[rows, t]] for name, column in panel.filings.items()}
    be = filed["book_equity"]
    if np.any(be == 0.0):
        firm_id = panel.firms[rows[np.argmax(be == 0.0)]]
        raise DegenerateBreakpointsError(
            f"zero book equity for firm {firm_id} at rebalance {d}: profitability sort undefined"
        )
    main = filed["is_main"]
    if main.sum() < min_breakpoint_stocks:
        raise DegenerateBreakpointsError(
            f"rebalance {d}: only {main.sum()} main-exchange stocks, "
            f"but 'min_breakpoint_stocks' is {min_breakpoint_stocks}"
        )
    size = panel.market_cap[rows, t]
    characteristics = (
        be / size,
        filed["operating_income"] / be,
        filed["total_assets"] / filed["total_assets_prior"] - 1.0,
    )
    size_bucket = np.where(size <= _median(size[main]), 0, 1)  # 0 small, 1 big
    cells = np.empty((len(rows), 3), dtype=np.int8)
    for dim, c in enumerate(characteristics):
        p30, p70 = _percentiles(c[main], [30.0, 70.0])
        char_bucket = np.where(c <= p30, 0, np.where(c > p70, 2, 1))  # low/mid/high
        cells[:, dim] = size_bucket * 3 + char_bucket
    return rows, cells


def _median(values: np.ndarray) -> float:
    """np.median of finite values, bit for bit, without it: it imports numpy.ma (1.25 MB)."""
    middle = [len(values) // 2] if len(values) % 2 else [len(values) // 2 - 1, len(values) // 2]
    return sum(np.partition(values, middle + [-1])[middle].tolist(), 0.0) / len(middle)


def _percentiles(values: np.ndarray, qs: list[float]) -> list[float]:
    """np.percentile ('linear') of finite values, bit for bit, without it: it imports numpy.ma."""
    at = [(len(values) - 1) * (q / 100) for q in qs]
    lo = [int(v) if v < len(values) - 1 else -1 for v in at]  # -1: the last value, both sides
    part = np.partition(values, sorted({0, -1, *lo, *(k + 1 for k in lo if k >= 0)})).tolist()
    ends = [(part[k], part[k + 1 if k >= 0 else -1], v - k) for v, k in zip(at, lo)]
    return [b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g for a, b, g in ends]


def construct_factors(
    panel: SecurityPanel,
    rf: dict[date, float],
    rebalance_month: int = 7,
    rebalance_day: int = 1,
    min_breakpoint_stocks: int = 6,
) -> FactorSeries:
    """Build the daily five-factor series from the panel.

    Raises DegenerateBreakpointsError when a rebalance date has fewer than
    `min_breakpoint_stocks` main-exchange stocks, PanelFormatError on an overflow.
    """
    calendar = panel.calendar
    rf_arr = _rf_on(calendar, rf)
    starts = rebalance_schedule(calendar, rebalance_month, rebalance_day)

    # Each firm's groups per rebalance period: the market, of every firm, then the six cells
    # of each sort dimension, in none of which is a firm that entered after the rebalance.
    member = np.zeros((len(panel.firms), 4, 6, len(starts)), dtype=bool)
    member[:, 0, 0] = True
    for period, start in enumerate(starts):
        rows, cells = _sort_cells(panel, start, min_breakpoint_stocks)
        member[rows, 1:, :, period] = cells[:, :, None] == np.arange(6)
    weighted, hit = _value_weighted(panel, member, np.diff(starts + [len(calendar)]))
    market = weighted[0, 0]
    ret = np.where(hit[1:], weighted[1:], market)  # an empty cell is imputed the market return

    small = (ret[:, 0] + ret[:, 1] + ret[:, 2]) / 3.0
    big = (ret[:, 3] + ret[:, 4] + ret[:, 5]) / 3.0
    smb_legs = small - big  # per dimension
    v, p, inv = ret
    series = FactorSeries(
        dates=list(calendar),
        rmrf=market - rf_arr,
        smb=(smb_legs[0] + smb_legs[1] + smb_legs[2]) / 3.0,
        hml=(v[2] + v[5]) / 2.0 - (v[0] + v[3]) / 2.0,
        rmw=(p[2] + p[5]) / 2.0 - (p[0] + p[3]) / 2.0,
        cma=(inv[0] + inv[3]) / 2.0 - (inv[2] + inv[5]) / 2.0,  # conservative = low growth
        rf=rf_arr,
    )
    for name in FACTOR_NAMES:  # factors.csv's range, which its writer and reader hold it to
        check = tables.FACTORS.columns[name][1]
        for d, x in zip(calendar, getattr(series, name).tolist()):
            try:
                check(x)
            except ValueError as exc:
                raise PanelFormatError(f"date {d}: constructed {name} {exc}") from None
    return series


def _zero_share(present: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """Per date (last axis): share of the present firms whose return is exactly zero."""
    return (present & (returns == 0.0)).sum(axis=0) / present.sum(axis=0)


def read_rf_csv(path: str | Path) -> dict[date, float]:
    """Read the ``date,rf`` risk-free leg of factor construction; an rf beyond ±1 names its row."""
    return dict(zip(*tables.read_table(path, tables.RF).values()))


def _align_control(path: str | Path, schema: tables.Schema, calendar: list[date]) -> np.ndarray:
    """Read a dated series and place it onto the calendar; its covered span must have no gaps."""
    trading = set(calendar)
    dates, values = tables.read_table(path, schema).values()
    on_calendar = {d: v for d, v in zip(dates, values) if d in trading}
    if not on_calendar:
        raise CalendarAlignmentError(f"{path}: series has no observations on trading dates")
    lo, hi = min(on_calendar), max(on_calendar)
    gaps = [d for d in calendar if lo <= d <= hi and d not in on_calendar]
    if gaps:
        head = ", ".join(d.isoformat() for d in gaps[:5])
        raise CalendarAlignmentError(
            f"{path}: series missing {len(gaps)} trading dates in its covered range ({head} ...)"
        )
    return np.array([on_calendar.get(d, np.nan) for d in calendar], dtype=float)


def load_controls(
    nsi_path: str | Path, short_rate_path: str | Path, panel: SecurityPanel
) -> ControlSeries:
    """Load NSI and short-rate files and align them (plus pct_zero) to the panel calendar."""
    calendar = panel.calendar
    nsi = _align_control(nsi_path, tables.NSI, calendar)
    short_rate = _align_control(short_rate_path, tables.SHORT_RATE, calendar)
    d_nsi = np.full(len(calendar), np.nan)
    d_nsi[1:] = nsi[1:] - nsi[:-1]  # NaN wherever either day is uncovered
    return ControlSeries(
        dates=list(calendar),
        nsi=nsi,
        d_nsi=d_nsi,
        short_rate=short_rate,
        pct_zero=_zero_share(panel.filing >= 0, panel.daily_return),
    )


def read_factors_csv(path: str | Path) -> FactorSeries:
    """Ingest a pre-computed factor series (``date,rmrf,smb,hml,rmw,cma,rf``) of decimal returns:
    a value outside the ranges of tables.FACTORS (a factor strictly inside ±1, an rf within
    ±1) names its row."""
    columns = tables.read_table(path, tables.FACTORS)
    if not columns["date"]:
        raise PanelFormatError(f"{path}: factor file is empty")
    return FactorSeries(dates=columns.pop("date"), **columns)


def read_controls_csv(path: str | Path) -> ControlSeries:
    """Read back a controls table; empty fields become NaN."""
    columns = tables.read_table(path, tables.CONTROLS)
    return ControlSeries(columns.pop("date"), **{k: np.array(v, float) for k, v in columns.items()})
