"""Builders the tests share: weekday calendars (the generator's `trading_calendar`,
as `weekdays`), returns on a factor calendar, security panels from per-firm rows
or of random values, and single panel cells read back as rows.

The library keeps the panel only as dense firm x date arrays; tests that
state a universe firm by firm, or check one observation, go through here.
"""

from datetime import date
from typing import NamedTuple

import numpy as np

from sentimetrics.factors import MAIN, PANEL_FIELDS, SECONDARY, FactorSeries, SecurityPanel
from sentimetrics.synthetic import trading_calendar as weekdays


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


def panel_from_rows(rows: dict[str, dict[date, Row]], calendar: list[date]) -> SecurityPanel:
    """The panel of per-firm {date: Row} maps over `calendar`."""
    firms = sorted(rows)
    column = {d: t for t, d in enumerate(calendar)}
    shape = (len(firms), len(calendar))
    present = np.zeros(shape, dtype=bool)
    is_main = np.zeros(shape, dtype=bool)
    values = {name: np.full(shape, np.nan) for name in PANEL_FIELDS}
    for i, firm in enumerate(firms):
        for d, row in rows[firm].items():
            t = column[d]
            present[i, t] = True
            is_main[i, t] = row.exchange == MAIN
            for name in PANEL_FIELDS:
                values[name][i, t] = getattr(row, name)
    return SecurityPanel(
        firms=firms, calendar=list(calendar), present=present, is_main=is_main, **values
    )


def random_panel(n_firms: int, calendar: list[date], seed: int = 12) -> SecurityPanel:
    """A full panel of random returns, caps and fundamentals; every third firm trades on
    the secondary exchange."""
    rng = np.random.default_rng(seed)
    shape = (n_firms, len(calendar))
    cap = rng.uniform(1e9, 9e10, shape)
    assets = rng.uniform(1e9, 9e10, shape)
    return SecurityPanel(
        firms=[f"F{k:03d}" for k in range(n_firms)],
        calendar=list(calendar),
        present=np.ones(shape, dtype=bool),
        is_main=np.broadcast_to(np.arange(n_firms)[:, None] % 3 > 0, shape).copy(),
        daily_return=rng.normal(0.0, 0.02, shape),
        market_cap=cap,
        book_equity=cap * rng.uniform(0.2, 1.5, shape),
        operating_income=cap * rng.uniform(0.01, 0.2, shape),
        total_assets=assets,
        total_assets_prior=assets / rng.uniform(0.8, 1.3, shape),
    )


def cell(panel: SecurityPanel, firm_id: str, d: date) -> Row | None:
    """The observation of `firm_id` on `d`, or None when the panel has none."""
    if firm_id not in panel.firms or d not in panel.calendar:
        return None
    i, t = panel.firms.index(firm_id), panel.calendar.index(d)
    if not panel.present[i, t]:
        return None
    values = {name: float(getattr(panel, name)[i, t]) for name in PANEL_FIELDS}
    return Row(exchange=MAIN if panel.is_main[i, t] else SECONDARY, **values)
