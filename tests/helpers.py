"""Builders the tests share: weekday calendars (the generator's `trading_calendar`,
as `weekdays`), returns on a factor calendar, security panels from per-firm rows
or of random values, single panel cells read back as rows, and a panel's fields
as dense firm x date arrays; and tracemalloc's reading of one call.

The library keeps a panel's return and cap as dense firm x date arrays and its
exchange and fundamentals once per filing; tests that state a universe firm by
firm, check one observation or compare whole panels go through here.
"""

import tracemalloc
from datetime import date
from typing import NamedTuple

import numpy as np

from sentimetrics.factors import (
    FILING_FIELDS,
    MAIN,
    PANEL_FIELDS,
    SECONDARY,
    FactorSeries,
    SecurityPanel,
)
from sentimetrics.synthetic import trading_calendar as weekdays


class Traced(NamedTuple):
    result: object
    peak: int  # tracemalloc's peak bytes during the call
    held: int  # the bytes still traced when it returned, its result's among them


def traced_peak(fn) -> Traced:
    """fn()'s result and what tracemalloc saw during the call, a first call's imports
    among it: the memory tests make one call before the one they trace."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(result, peak, held)


def on_calendar(excess: dict[date, float], factors: FactorSeries) -> np.ndarray:
    """A date -> excess-return map as one array on the factor calendar, NaN where it has none."""
    return np.array([excess.get(d, np.nan) for d in factors.dates])


class Row(NamedTuple):
    """One (firm, date) observation."""

    daily_return: float
    market_cap: float
    exchange: str
    book_equity: float
    operating_income: float
    total_assets: float
    total_assets_prior: float


def panel_of(dense: dict[str, np.ndarray], firms: list[str], calendar: list[date]):
    """The panel of firm x date arrays, one per `panel_arrays` name, each present cell
    its own filing and each other cell's filing -1."""
    present = dense["present"]
    filing = np.full(present.shape, -1, np.int32)
    filing[present] = np.arange(np.count_nonzero(present))
    return SecurityPanel(
        firms=firms,
        calendar=list(calendar),
        daily_return=dense["daily_return"],
        market_cap=dense["market_cap"],
        filing=filing,
        filings={name: dense[name][present] for name in FILING_FIELDS},
    )


def panel_from_rows(rows: dict[str, dict[date, Row]], calendar: list[date]) -> SecurityPanel:
    """The panel of per-firm {date: Row} maps over `calendar`."""
    firms = sorted(rows)
    column = {d: t for t, d in enumerate(calendar)}
    shape = (len(firms), len(calendar))
    dense = {"present": np.zeros(shape, dtype=bool), "is_main": np.zeros(shape, dtype=bool)}
    dense.update((name, np.full(shape, np.nan)) for name in PANEL_FIELDS)
    for i, firm in enumerate(firms):
        for d, row in rows[firm].items():
            t = column[d]
            dense["present"][i, t] = True
            dense["is_main"][i, t] = row.exchange == MAIN
            for name in PANEL_FIELDS:
                dense[name][i, t] = getattr(row, name)
    return panel_of(dense, firms, calendar)


def random_panel(n_firms: int, calendar: list[date], seed: int = 12) -> SecurityPanel:
    """A full panel of random returns, caps and fundamentals, a filing a cell; every third
    firm trades on the secondary exchange."""
    rng = np.random.default_rng(seed)
    shape = (n_firms, len(calendar))
    cap = rng.uniform(1e9, 9e10, shape)
    assets = rng.uniform(1e9, 9e10, shape)
    dense = dict(
        present=np.ones(shape, dtype=bool),
        is_main=np.broadcast_to(np.arange(n_firms)[:, None] % 3 > 0, shape),
        daily_return=rng.normal(0.0, 0.02, shape),
        market_cap=cap,
        book_equity=cap * rng.uniform(0.2, 1.5, shape),
        operating_income=cap * rng.uniform(0.01, 0.2, shape),
        total_assets=assets,
        total_assets_prior=assets / rng.uniform(0.8, 1.3, shape),
    )
    return panel_of(dense, [f"F{k:03d}" for k in range(n_firms)], calendar)


def panel_arrays(panel: SecurityPanel) -> dict[str, np.ndarray]:
    """`present` (filing >= 0), then each filing field and panel field as a firm x date
    array: a filing field read through each cell's filing, False (is_main) or NaN where a
    cell is absent."""
    arrays = {"present": panel.filing >= 0}
    for name in ("is_main",) + PANEL_FIELDS:
        if name in panel.filings:
            blank = False if name == "is_main" else np.nan
            arrays[name] = np.where(arrays["present"], panel.filings[name][panel.filing], blank)
        else:
            arrays[name] = getattr(panel, name)
    return arrays


def refile(panel: SecurityPanel, firm_id: str, days: slice, **changes) -> None:
    """Give `firm_id` one new filing over the calendar slice `days`: the one it had on
    the first of them, with `changes` to its FILING_FIELDS."""
    i = panel.firms.index(firm_id)
    old = panel.filing[i, days][0]
    for name, column in panel.filings.items():
        panel.filings[name] = np.append(column, changes.get(name, column[old]))
    panel.filing[i, days] = len(panel.filings["is_main"]) - 1


def cell(panel: SecurityPanel, firm_id: str, d: date) -> Row | None:
    """The observation of `firm_id` on `d`, or None when the panel has none."""
    if firm_id not in panel.firms or d not in panel.calendar:
        return None
    i, t = panel.firms.index(firm_id), panel.calendar.index(d)
    f = panel.filing[i, t]
    if f < 0:
        return None
    values = {name: float(panel.filings[name][f]) for name in PANEL_FIELDS[2:]}
    exchange = MAIN if panel.filings["is_main"][f] else SECONDARY
    return Row(float(panel.daily_return[i, t]), float(panel.market_cap[i, t]), exchange, **values)
