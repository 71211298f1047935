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
import warnings
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


@dataclass
class SecurityPanel:
    """Dense daily panel: one row per firm (sorted ids), one column per calendar date.

    ``present`` marks the (firm, date) cells that have an observation;
    ``is_main`` marks those listed on the main exchange.  The float arrays
    hold the panel columns and are NaN where a cell is absent.
    """

    firms: list[str]
    calendar: list[date]
    present: np.ndarray
    is_main: np.ndarray
    daily_return: np.ndarray
    market_cap: np.ndarray
    book_equity: np.ndarray
    operating_income: np.ndarray
    total_assets: np.ndarray
    total_assets_prior: np.ndarray

    def __post_init__(self):
        if self.firms != sorted(set(self.firms)):
            raise ValueError("panel firms must be unique and sorted")
        if any(a >= b for a, b in zip(self.calendar, self.calendar[1:])):
            raise ValueError("panel calendar must be strictly ascending")
        shape = (len(self.firms), len(self.calendar))
        for name in ("present", "is_main") + PANEL_FIELDS:
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"panel array '{name}' has shape {got}, want {shape}")


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
_TEXT_COLUMNS = (0, 1, 4)  # firm_id, date, exchange
_FLOAT_COLUMNS = (2, 3, 5, 6, 7, 8)  # PANEL_FIELDS, in file order
_ROW_DTYPE = np.dtype([(c, "f8" if c in PANEL_FIELDS else "O") for c in PANEL_COLUMNS])
_BLOCK_ROWS = 8192  # rows per np.loadtxt call: bounds the parse's transient memory


def _plain_layout(path: Path, parts: int) -> tuple[bool, int, list[tuple[int, int]]]:
    """(every line has exactly 9 unquoted fields, number of lines after the header, cuts).

    A byte scan: no quote characters and 8 commas per line.  Blank lines,
    ragged rows and quoted fields make it False.  The cuts split the rows into
    at most `parts` line-aligned ranges of about equal bytes: (byte offset,
    first row) of each range, the first just past the header."""
    size = path.stat().st_size
    targets = [size * k // parts for k in range(parts)]
    cuts = []
    lines = commas = quotes = 0
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
            last = chunk[-1:]
    lines += last != b"\n"
    plain = quotes == 0 and commas == (len(PANEL_COLUMNS) - 1) * lines
    return plain, lines - 1, cuts or [(size, 0)]  # no cut: the header is the only line


def _range_count() -> int:
    """Byte ranges a plain panel of two blocks or more is parsed in at once: one per usable
    CPU, at most 2.  One without fork, and on Python 3.12+, which warns when a process with
    threads (numpy's BLAS pool is one) forks, so the parse there is one pass."""
    usable = hasattr(os, "sched_getaffinity") and hasattr(os, "fork") and sys.version_info < (3, 12)
    return min(2, len(os.sched_getaffinity(0))) if usable else 1


def _parse_range(path: Path, offset: int, ids: np.ndarray, values: list, conn=None):
    """Parse the ids.shape[1] lines from byte `offset` into `ids` and the six 1-D `values`.

    _BLOCK_ROWS lines a structured np.loadtxt call; text cells get ids from one
    first-seen dict per column.  Stops at the first block that fails and returns
    (the dicts, the rows parsed); given `conn`, sends (their keys, the rows) down it."""
    seen, n_rows, done = [{} for _ in _TEXT_COLUMNS], ids.shape[1], 0
    with path.open(encoding="utf-8", newline="\n") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        fh.buffer.seek(offset)  # before the first read, so the text starts at `offset`
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            lines = itertools.islice(fh, stop - start)
            try:
                block = np.loadtxt(lines, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1)
            except ValueError:
                break
            if len(block) != stop - start:  # loadtxt skipped a blank line
                break
            for s, j, row_ids in zip(seen, _TEXT_COLUMNS, ids):
                row_ids[start:stop] = [s.setdefault(c, len(s)) for c in block[PANEL_COLUMNS[j]]]
            for field, j in zip(values, _FLOAT_COLUMNS):
                field[start:stop] = block[PANEL_COLUMNS[j]]
            done = stop
    return (seen, done) if conn is None else conn.send(([list(s) for s in seen], done))


def _read_columns_fast(path: Path):
    """(text columns, six row floats, error), or None when the file is not plain.

    This process parses the first range _plain_layout cut and a forked child each
    other range, into arrays in anonymous shared memory (MAP_SHARED).  The ranges'
    first-seen cells are merged in file order, so the result is what one pass gives.
    From a block that fails on, the row-by-row reader reads the file."""
    plain, n_rows, cuts = _plain_layout(path, _range_count())
    if not plain:
        return None
    if n_rows < 2 * _BLOCK_ROWS:
        cuts = cuts[:1]
    if len(cuts) == 1:
        ids, values = np.empty((3, n_rows), np.int32), [np.empty(n_rows) for _ in range(6)]
    else:
        ids = np.frombuffer(mmap.mmap(-1, 3 * 4 * n_rows), np.int32).reshape(3, n_rows)
        values = [np.frombuffer(mmap.mmap(-1, 8 * n_rows)) for _ in range(6)]
    spans = [(at, slice(lo, hi)) for (at, lo), (_, hi) in zip(cuts, cuts[1:] + [(0, n_rows)])]
    if len(spans) > 1:
        import multiprocessing  # here, not at the top: it adds over 0.6 MB to an importer's RSS

        fork = multiprocessing.get_context("fork")
    children, keys = [], []
    try:
        for at, rows in spans[1:]:
            recv, send = fork.Pipe(duplex=False)
            args = (path, at, ids[:, rows], [v[rows] for v in values], send)
            child = fork.Process(target=_parse_range, args=args)
            child.start()
            children.append((child, recv))
            send.close()
        at, rows = spans[0]
        keys.append(_parse_range(path, at, ids[:, rows], [v[rows] for v in values]))
        keys += [recv.recv() for _child, recv in children]
    except EOFError:  # a child ended without a result: its range parsed no row
        keys.append(([], 0))
    finally:
        for child, recv in children:
            if len(keys) <= len(children):  # a result went unread: its child may block sending it
                child.kill()
            child.join()
            recv.close()
    seen, done = [{} for _ in _TEXT_COLUMNS], 0  # cell -> id, in first-seen order over the file
    for (_at, rows), (range_keys, parsed) in zip(spans, keys):
        for s, cells, row_ids in zip(seen, range_keys, ids[:, rows.start : rows.start + parsed]):
            to_file = np.array([s.setdefault(c, len(s)) for c in cells], np.int32)
            row_ids[:] = to_file[row_ids]
        done = rows.start + parsed
        if done < rows.stop:
            return _read_columns_by_row(path, (seen, ids[:, :done], [v[:done] for v in values]))
    return list(zip(map(list, seen), ids)), values, None


def _read_columns_by_row(path: Path, head=None):
    """The row-by-row reader (tables.read_rows) for the rows the fast path could not read.

    Given `head`, the first-seen dicts, ids and six float arrays of the rows a
    plain parse read, it reads on from the next row; in a plain file one line
    is one row.  Stops at the first malformed row and returns the columns of
    the rows before it together with that row's error (None if there is none)."""
    seen, head_ids, head_values = head or ([{}, {}, {}], np.empty((3, 0), np.int32), [()] * 6)
    ids, values, error = [[] for _ in _TEXT_COLUMNS], [[] for _ in _FLOAT_COLUMNS], None
    try:
        for lineno, row in tables.read_rows(path, PANEL_COLUMNS, skip=head_ids.shape[1]):
            _parse_date(row[1], path, lineno, "date")
            parsed = [_parse_float(row[j], path, lineno, PANEL_COLUMNS[j]) for j in _FLOAT_COLUMNS]
            for s, j, row_ids in zip(seen, _TEXT_COLUMNS, ids):
                row_ids.append(s.setdefault(row[j], len(s)))
            for field, v in zip(values, parsed):
                field.append(v)
    except PanelFormatError as exc:
        error = exc
    ids = np.concatenate([head_ids, np.array(ids, np.int32).reshape(3, -1)], axis=1)
    values = [np.concatenate([h, v]) for h, v in zip(head_values, values)]
    return list(zip(map(list, seen), ids)), values, error


def _index_rows(path: Path, columns: list, values: list):
    """Validate the parsed rows and map them to (firm, date) cells.

    Takes the readers' (distinct cells, each row's index into them) per text
    column and one array of row floats per field.  Returns (firms, calendar,
    firm_idx, date_idx, main) or raises the PanelFormatError of the first
    offending row.  Each check's mask is built and dropped in turn."""
    (firm_keys, firm_inv), (date_keys, date_inv), (exchange_keys, exchange_inv) = columns
    firm_ids = [f.strip() for f in firm_keys]
    firms = sorted(set(firm_ids))
    firm_pos = {f: i for i, f in enumerate(firms)}
    firm_idx = np.array([firm_pos[f] for f in firm_ids], dtype=np.intp)[firm_inv]

    parsed: list[date | None] = []
    for s in date_keys:
        try:
            parsed.append(date.fromisoformat(s.strip()))
        except ValueError:
            parsed.append(None)
    calendar = sorted({d for d in parsed if d is not None})
    date_pos = {d: t for t, d in enumerate(calendar)}
    # An unparseable date takes the slot past the calendar; a duplicate key
    # there always comes after a row whose date check fails first.
    date_idx = np.array([date_pos.get(d, len(calendar)) for d in parsed], dtype=np.intp)[date_inv]
    bad_date = np.array([d is None for d in parsed], dtype=bool)

    exchanges = [e.strip() for e in exchange_keys]
    bad_exchange = np.array([e not in (MAIN, SECONDARY) for e in exchanges], dtype=bool)
    main = np.array([e == MAIN for e in exchanges], dtype=bool)[exchange_inv]

    def duplicate():
        key = firm_idx * (len(calendar) + 1) + date_idx
        taken = np.zeros(len(firms) * (len(calendar) + 1), dtype=bool)
        taken[key] = True
        mask = np.zeros(len(key), dtype=bool)
        if np.count_nonzero(taken) < len(key):
            order = np.argsort(key, kind="stable")
            mask[order[1:][key[order][1:] == key[order][:-1]]] = True
        return mask

    ret, cap, _be, _oi, _ta, tap = values
    checks = [  # (mask, message): each mask is built when its check runs
        (
            lambda: bad_date[date_inv],
            lambda r: f"field 'date': invalid date {date_keys[date_inv[r]]!r}",
        ),
        *[
            (lambda v=v: ~np.isfinite(v), lambda r, name=name: f"field '{name}': non-finite value")
            for v, name in zip(values, PANEL_FIELDS)
        ],
        (lambda: ret <= -1.0, lambda r: "daily_return must be > -1"),
        (lambda: cap <= 0.0, lambda r: "market_cap must be positive"),
        (
            lambda: bad_exchange[exchange_inv],
            lambda r: f"exchange must be '{MAIN}' or '{SECONDARY}', "
            f"got {exchanges[exchange_inv[r]]!r}",
        ),
        (lambda: tap <= 0.0, lambda r: "total_assets_prior must be positive"),
        (duplicate, lambda r: f"duplicate key ({firms[firm_idx[r]]}, {calendar[date_idx[r]]})"),
    ]
    hits = [(int(np.argmax(m)), k) for k, (mask, _msg) in enumerate(checks) if (m := mask()).any()]
    if hits:
        # On a tie the check listed first wins: the order a row-by-row scan meets them in.
        row, k = min(hits)
        raise PanelFormatError(f"{path}: row {row + 2}: {checks[k][1](row)}")
    return firms, calendar, firm_idx, date_idx, main


def load_panel(path: str | Path) -> SecurityPanel:
    """Read the security panel CSV into dense firm x date arrays.

    Duplicate (firm, date) keys, non-finite values, returns <= -1,
    nonpositive caps or prior assets and unknown exchanges are errors naming
    the first offending row.  A plain file is parsed in blocks of rows, one
    structured np.loadtxt call a block, so its text is never held whole; one
    of two blocks or more is cut into two byte ranges parsed at once, the
    second in a forked child.  With one usable CPU, and on Python 3.12+, which
    warns when a process with threads forks, the parse is one pass.  A file
    with quoted fields or blank lines goes through the csv module, as do the
    rows from a block that holds a malformed field on; it locates the bad row.
    The dense arrays are built one field at a time, so the parsed floats and
    the panel are not both held whole."""
    path = Path(path)
    next(tables.read_rows(path, PANEL_COLUMNS), None)  # checks the header and row 2's field count
    columns, values, error = _read_columns_fast(path) or _read_columns_by_row(path)
    firms, calendar, firm_idx, date_idx, main = _index_rows(path, columns, values)
    del columns  # the text ids: not needed past here, so they are freed before the cells exist
    if error is not None:
        raise error
    if not firms:
        raise PanelFormatError(f"{path}: panel is empty")
    shape = (len(firms), len(calendar))
    present = np.zeros(shape, dtype=bool)
    present[firm_idx, date_idx] = True
    is_main = np.zeros(shape, dtype=bool)
    is_main[firm_idx, date_idx] = main
    arrays = {}
    for name in PANEL_FIELDS:  # one field at a time: its row floats go once it is placed
        arrays[name] = np.full(shape, np.nan)
        arrays[name][firm_idx, date_idx] = values.pop(0)
    return SecurityPanel(firms=firms, calendar=calendar, present=present, is_main=is_main, **arrays)


def _value_weighted(panel: SecurityPanel, member: np.ndarray) -> np.ndarray:
    """Cap-weighted mean return per date of the firms a (..., firms, dates) mask selects.

    The sums accumulate one firm at a time in firm order, the same additions
    a loop over each date's cross-section makes, so the result does not
    depend on numpy's pairwise summation.  Dates with no member give NaN."""
    shape = member.shape[:-2] + member.shape[-1:]
    num = np.zeros(shape)
    den = np.zeros(shape)
    weighted = panel.daily_return * panel.market_cap
    for i in range(len(panel.firms)):
        np.add(num, weighted[i], out=num, where=member[..., i, :])
        np.add(den, panel.market_cap[i], out=den, where=member[..., i, :])
    return np.divide(num, den, out=np.full(shape, np.nan), where=member.any(axis=-2))


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
    rows = np.flatnonzero(panel.present[:, t])
    be = panel.book_equity[rows, t]
    if np.any(be == 0.0):
        firm_id = panel.firms[rows[np.argmax(be == 0.0)]]
        raise DegenerateBreakpointsError(
            f"zero book equity for firm {firm_id} at rebalance {d}: profitability sort undefined"
        )
    main = panel.is_main[rows, t]
    if main.sum() < min_breakpoint_stocks:
        raise DegenerateBreakpointsError(
            f"rebalance {d}: only {main.sum()} main-exchange stocks, "
            f"but 'min_breakpoint_stocks' is {min_breakpoint_stocks}"
        )
    size = panel.market_cap[rows, t]
    characteristics = (
        be / size,
        panel.operating_income[rows, t] / be,
        panel.total_assets[rows, t] / panel.total_assets_prior[rows, t] - 1.0,
    )
    size_bp = float(np.median(size[main]))
    size_bucket = np.where(size <= size_bp, 0, 1)  # 0 small, 1 big
    cells = np.empty((len(rows), 3), dtype=np.int8)
    for dim, c in enumerate(characteristics):
        p30, p70 = np.percentile(c[main], [30.0, 70.0])
        char_bucket = np.where(c <= p30, 0, np.where(c > p70, 2, 1))  # low/mid/high
        cells[:, dim] = size_bucket * 3 + char_bucket
    return rows, cells


def construct_factors(
    panel: SecurityPanel,
    rf: dict[date, float],
    rebalance_month: int = 7,
    rebalance_day: int = 1,
    min_breakpoint_stocks: int = 6,
) -> FactorSeries:
    """Build the daily five-factor series from the panel.

    Raises DegenerateBreakpointsError when a rebalance date has fewer than
    `min_breakpoint_stocks` main-exchange stocks.
    """
    calendar = panel.calendar
    rf_arr = _rf_on(calendar, rf)
    starts = rebalance_schedule(calendar, rebalance_month, rebalance_day)

    # Cell of each firm per sort dimension and date; -1 = not sorted (entered
    # the panel after the last rebalance).
    cell = np.full((3, len(panel.firms), len(calendar)), -1, dtype=np.int8)
    for start, end in zip(starts, starts[1:] + [len(calendar)]):
        rows, cells = _sort_cells(panel, start, min_breakpoint_stocks)
        cell[:, rows, start:end] = cells.T[:, :, None]

    market = _value_weighted(panel, panel.present)
    member = np.equal(cell[:, None], np.arange(6)[None, :, None, None])
    member &= panel.present
    # An empty cell on a date is imputed the market return.
    ret = np.where(member.any(axis=-2), _value_weighted(panel, member), market)

    small = (ret[:, 0] + ret[:, 1] + ret[:, 2]) / 3.0
    big = (ret[:, 3] + ret[:, 4] + ret[:, 5]) / 3.0
    smb_legs = small - big  # per dimension
    v, p, inv = ret
    return FactorSeries(
        dates=list(calendar),
        rmrf=market - rf_arr,
        smb=(smb_legs[0] + smb_legs[1] + smb_legs[2]) / 3.0,
        hml=(v[2] + v[5]) / 2.0 - (v[0] + v[3]) / 2.0,
        rmw=(p[2] + p[5]) / 2.0 - (p[0] + p[3]) / 2.0,
        cma=(inv[0] + inv[3]) / 2.0 - (inv[2] + inv[5]) / 2.0,  # conservative = low growth
        rf=rf_arr,
    )


def _zero_share(present: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """Per date (last axis): share of the present firms whose return is exactly zero."""
    return (present & (returns == 0.0)).sum(axis=0) / present.sum(axis=0)


def _dated_values(path: str | Path, schema: tables.Schema) -> dict[date, float]:
    return dict(zip(*tables.read_table(path, schema).values()))


def read_rf_csv(path: str | Path) -> dict[date, float]:
    """Read a ``date,rf`` series used as the risk-free leg in factor construction."""
    return _dated_values(path, tables.RF)


def _align_control(path: str | Path, schema: tables.Schema, calendar: list[date]) -> np.ndarray:
    """Read a dated series and place it onto the calendar; its covered span must have no gaps."""
    trading = set(calendar)
    on_calendar = {d: v for d, v in _dated_values(path, schema).items() if d in trading}
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
        pct_zero=_zero_share(panel.present, panel.daily_return),
    )


def read_factors_csv(path: str | Path) -> FactorSeries:
    """Ingest a pre-computed factor series (``date,rmrf,smb,hml,rmw,cma,rf``)."""
    columns = tables.read_table(path, tables.FACTORS)
    if not columns["date"]:
        raise PanelFormatError(f"{path}: factor file is empty")
    return FactorSeries(dates=columns.pop("date"), **columns)


def read_controls_csv(path: str | Path) -> ControlSeries:
    """Read back a controls table; empty fields become NaN."""
    columns = tables.read_table(path, tables.CONTROLS)
    return ControlSeries(columns.pop("date"), **{k: np.array(v, float) for k, v in columns.items()})
