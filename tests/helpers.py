"""Builders the tests share: weekday calendars, returns on a factor calendar,
security panels from per-firm rows, and single panel cells read back as rows.

The library keeps the panel only as dense firm x date arrays; tests that
state a universe firm by firm, or check one observation, go through here.
"""

from datetime import date, timedelta
from typing import NamedTuple

import numpy as np

from sentimetrics.factors import MAIN, PANEL_FIELDS, SECONDARY, FactorSeries, SecurityPanel


def weekdays(start: date, n: int) -> list[date]:
    """The first `n` Monday-to-Friday dates from `start` on."""
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


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


def cell(panel: SecurityPanel, firm_id: str, d: date) -> Row | None:
    """The observation of `firm_id` on `d`, or None when the panel has none."""
    i, t = panel.firm_index(firm_id), panel.date_index(d)
    if i is None or t is None or not panel.present[i, t]:
        return None
    values = {name: float(getattr(panel, name)[i, t]) for name in PANEL_FIELDS}
    return Row(exchange=MAIN if panel.is_main[i, t] else SECONDARY, **values)
