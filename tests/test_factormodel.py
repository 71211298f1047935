import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import random
import subprocess
import sys
from bisect import bisect_left
from datetime import date, timedelta
from functools import partial

import numpy as np
import pytest

from sentimetrics import factors, tables
from sentimetrics.factors import (
    PANEL_COLUMNS,
    PANEL_FIELDS,
    CalendarAlignmentError,
    DegenerateBreakpointsError,
    FactorSeries,
    PanelFormatError,
    construct_factors,
    load_controls,
    load_panel,
    positions,
    read_factors_csv,
    rebalance_schedule,
    roll_forward,
)
from sentimetrics.eventstudy import EventWindowConfig, run_event_study
from sentimetrics.sentiment import StockSentimentEvent
from sentimetrics.tables import FACTORS, write_series

from helpers import (
    Row,
    cell,
    panel_arrays,
    panel_from_rows,
    random_panel,
    traced_peak,
    weekdays,
)

RF = 1e-4


def _row(ret, cap, exchange="main", be=None, oi=None, ta=None, tap=None):
    be = cap * 0.5 if be is None else be
    oi = be * 0.1 if oi is None else oi
    ta = cap if ta is None else ta
    tap = ta if tap is None else tap
    return Row(ret, cap, exchange, be, oi, ta, tap)


def _panel(rows_by_firm, calendar):
    data = {f: {d: rows[i] for i, d in enumerate(calendar)} for f, rows in rows_by_firm.items()}
    return panel_from_rows(data, calendar)


# ---------------------------------------------------------------------------
# Hand oracle: fixed memberships, plain-loop value weighting.


def _vw(pairs):
    num = sum(r * w for r, w in pairs)
    den = sum(w for _r, w in pairs)
    return num / den


def _oracle_day(panel, d, membership, rf):
    """membership: dim -> firm -> (size_bucket, char_bucket), hand-assigned."""
    cs = [(f, row) for f in panel.firms if (row := cell(panel, f, d))]
    market = _vw([(row.daily_return, row.market_cap) for _f, row in cs])
    out = {"rmrf": market - rf}
    legs = []
    cells_by_dim = {}
    for dim in ("value", "profitability", "investment"):
        cells = [[] for _ in range(6)]
        for f, row in cs:
            size_b, char_b = membership[dim][f]
            cells[size_b * 3 + char_b].append((row.daily_return, row.market_cap))
        rets = [market if not c else _vw(c) for c in cells]
        cells_by_dim[dim] = rets
        legs.append((rets[0] + rets[1] + rets[2]) / 3 - (rets[3] + rets[4] + rets[5]) / 3)
    out["smb"] = sum(legs) / 3
    v = cells_by_dim["value"]
    out["hml"] = (v[2] + v[5]) / 2 - (v[0] + v[3]) / 2
    p = cells_by_dim["profitability"]
    out["rmw"] = (p[2] + p[5]) / 2 - (p[0] + p[3]) / 2
    inv = cells_by_dim["investment"]
    out["cma"] = (inv[0] + inv[3]) / 2 - (inv[2] + inv[5]) / 2
    return out


def _twelve_stock_panel(n_days=5, seed=11):
    """12 main-exchange stocks with characteristics placed well clear of the
    30/70 and median breakpoints, so bucket assignments are unambiguous."""
    calendar = weekdays(date(2022, 1, 3), n_days)
    firms = [f"S{i}" for i in range(12)]
    caps = [1e9 * (i + 1) for i in range(6)] + [1e11 * (i + 1) for i in range(6)]
    # Rank 1..12 per characteristic; ranks 1-4 land low, 5-8 mid, 9-12 high.
    value_rank = [1, 5, 9, 2, 6, 10, 3, 7, 11, 4, 8, 12]
    prof_rank = [9, 1, 5, 10, 2, 6, 11, 3, 7, 12, 4, 8]
    inv_rank = [5, 9, 1, 6, 10, 2, 7, 11, 3, 8, 12, 4]
    rng = np.random.default_rng(seed)
    rets = rng.normal(0.0, 0.02, size=(12, n_days))

    rows_by_firm = {}
    for i, f in enumerate(firms):
        cap = caps[i]
        be = (value_rank[i] / 10) * cap
        oi = (prof_rank[i] / 20) * be
        ta = 1e9
        tap = ta / (1 + (inv_rank[i] - 6) / 20)
        rows_by_firm[f] = [
            Row(rets[i, t], cap, "main", be, oi, ta, tap) for t in range(n_days)
        ]
    panel = _panel(rows_by_firm, calendar)

    def bucket(rank):
        return 0 if rank <= 4 else (2 if rank >= 9 else 1)

    membership = {"value": {}, "profitability": {}, "investment": {}}
    for i, f in enumerate(firms):
        size_b = 0 if i < 6 else 1
        membership["value"][f] = (size_b, bucket(value_rank[i]))
        membership["profitability"][f] = (size_b, bucket(prof_rank[i]))
        membership["investment"][f] = (size_b, bucket(inv_rank[i]))
    return panel, membership


def test_construct_factors_matches_hand_oracle():
    panel, membership = _twelve_stock_panel()
    rf = {d: RF for d in panel.calendar}
    series = construct_factors(panel, rf)
    for i, d in enumerate(panel.calendar):
        want = _oracle_day(panel, d, membership, RF)
        for name in ("rmrf", "smb", "hml", "rmw", "cma"):
            got = float(getattr(series, name)[i])
            assert got == pytest.approx(want[name], abs=1e-12), (name, d)


def test_identical_universe_long_short_factors_exactly_zero():
    calendar = weekdays(date(2022, 1, 3), 4)
    rows_by_firm = {
        f"S{i}": [_row(0.01, 5e9) for _ in calendar] for i in range(8)
    }
    panel = _panel(rows_by_firm, calendar)
    series = construct_factors(panel, {d: RF for d in calendar})
    for name in ("smb", "hml", "rmw", "cma"):
        assert np.all(getattr(series, name) == 0.0), name
    assert np.allclose(series.rmrf, 0.01 - RF, atol=1e-15)


def test_cap_scaling_leaves_factors_unchanged():
    panel, _ = _twelve_stock_panel()
    rf = {d: RF for d in panel.calendar}
    base = construct_factors(panel, rf)
    scaled_data = {
        f: {d: _scale_cap(cell(panel, f, d), 37.0) for d in panel.calendar}
        for f in panel.firms
    }
    scaled = construct_factors(panel_from_rows(scaled_data, panel.calendar), rf)
    for name in ("rmrf", "smb", "hml", "rmw", "cma"):
        assert np.allclose(getattr(base, name), getattr(scaled, name), atol=1e-13), name


def _scale_cap(row, k):
    # Scale cap and book equity together so value/profitability sorts are intact.
    return row._replace(
        market_cap=row.market_cap * k,
        book_equity=row.book_equity * k,
        operating_income=row.operating_income * k,
    )


def test_rmrf_equals_cap_weighted_excess_mean():
    panel, _ = _twelve_stock_panel()
    series = construct_factors(panel, {d: RF for d in panel.calendar})
    for t, d in enumerate(panel.calendar):
        cs = [row for f in panel.firms if (row := cell(panel, f, d))]
        hand = _vw([(r.daily_return, r.market_cap) for r in cs]) - RF
        assert abs(series.rmrf[t] - hand) < 1e-12, d


def test_single_stock_market_excess_return():
    calendar = weekdays(date(2022, 1, 3), 3)
    panel = _panel({"ONLY": [_row(0.02, 1e9), _row(-0.01, 1e9), _row(0.0, 1e9)]}, calendar)
    out = construct_factors(panel, {d: RF for d in calendar}, min_breakpoint_stocks=1).rmrf
    assert np.allclose(out, np.array([0.02, -0.01, 0.0]) - RF, atol=1e-15)


def test_too_few_main_exchange_stocks_is_degenerate():
    calendar = weekdays(date(2022, 1, 3), 3)
    rows_by_firm = {f"S{i}": [_row(0.01, 1e9 * (i + 1)) for _ in calendar] for i in range(5)}
    panel = _panel(rows_by_firm, calendar)
    with pytest.raises(DegenerateBreakpointsError, match="main-exchange"):
        construct_factors(panel, {d: RF for d in calendar})


@pytest.mark.parametrize(
    "returns, culprit",
    [
        ({"S4": 1e300}, "S4"),  # 1e300 x 5e9 overflows by itself
        # 1.5e308 + 1.5e308 overflows the market's sum at the second firm in firm order.
        ({"S6": 1.5e297, "S7": 0.75e297}, "S7"),
        # +1.5e308 - 1e308 + 1e308: the market's sums stay finite, but S0 and S3 share
        # a sort cell in every dimension, and its sum overflows at S3.
        ({"S0": 1.5e299, "S1": -5e298, "S3": 2.5e298}, "S3"),
    ],
)
def test_a_return_x_cap_that_overflows_the_sums_names_its_firm_and_date(returns, culprit):
    panel, _ = _twelve_stock_panel()
    for firm, ret in returns.items():
        panel.daily_return[panel.firms.index(firm), 2] = ret
    with pytest.raises(PanelFormatError) as info:  # no numpy warning either: they are errors here
        construct_factors(panel, {d: RF for d in panel.calendar})
    assert str(info.value) == (
        f"firm {culprit}, date {panel.calendar[2]}: "
        "daily_return x market_cap overflows the value-weighted sums"
    )


def test_secondary_exchange_sorted_but_not_in_breakpoints():
    # A giant secondary-exchange stock must not move the size breakpoint, but
    # it still lands in a (big, ...) cell and contributes to leg returns.
    panel, membership = _twelve_stock_panel()
    calendar = panel.calendar
    extra = {
        "X": {d: Row(0.05, 1e13, "secondary", 5e11, 5e10, 1e9, 1e9) for d in calendar}
    }
    data = {f: {d: cell(panel, f, d) for d in calendar} for f in panel.firms}
    data.update(extra)
    wide = panel_from_rows(data, calendar)
    rf = {d: RF for d in calendar}
    series = construct_factors(wide, rf)
    # be/cap = 0.05 and oi/be = 0.1 both sit below the main-firm p30 cutoffs
    # (0.43 and 0.215); asset growth 0 falls between -0.085 and 0.135.
    membership = {
        dim: dict(assign) for dim, assign in membership.items()
    }
    membership["value"]["X"] = (1, 0)
    membership["profitability"]["X"] = (1, 0)
    membership["investment"]["X"] = (1, 1)
    for i, d in enumerate(calendar):
        want = _oracle_day(wide, d, membership, RF)
        for name in ("rmrf", "smb", "hml", "rmw", "cma"):
            assert float(getattr(series, name)[i]) == pytest.approx(want[name], abs=1e-12)


def test_rebalance_schedule_initial_plus_annual_july():
    calendar = weekdays(date(2021, 3, 1), 400)  # spans two July firsts
    sched = [calendar[t] for t in rebalance_schedule(calendar)]
    assert sched[0] == calendar[0]
    julys = [d for d in sched[1:]]
    assert julys[0] == next(d for d in calendar if d >= date(2021, 7, 1))
    assert julys[1] == next(d for d in calendar if d >= date(2022, 7, 1))
    assert len(sched) == 3


def _random_calendar(rng: random.Random, n: int) -> list[date]:
    """`n` weekdays drawn from about four years from 2020 on, ascending: gaps of any length."""
    days = weekdays(date(2020, 1, 1), 1050)
    return sorted(rng.sample(days, n))


@pytest.mark.parametrize("seed", range(12))
def test_roll_forward_matches_bisect_left(seed):
    rng = random.Random(seed)
    calendar = _random_calendar(rng, rng.choice([0, 1, 2, 30, 400]))
    # Any day, weekends included, from before the calendar's start to past its end.
    dates = [date(2019, 12, 1) + timedelta(days=rng.randrange(1600)) for _ in range(300)]
    dates += calendar[:3] + calendar[-3:]
    got = roll_forward(calendar, dates)
    assert got.dtype == np.intp
    assert got.tolist() == [bisect_left(calendar, d) for d in dates]
    assert roll_forward(calendar, []).tolist() == []
    if calendar:
        assert {0, len(calendar)} <= set(got.tolist())  # before the first day, after the last
    if len(calendar) >= 30:  # a weekend inside the calendar rolls onto a later weekday
        weekend = [t for d, t in zip(dates, got.tolist()) if d.weekday() >= 5]
        assert any(0 < t < len(calendar) for t in weekend)


@pytest.mark.parametrize("seed", range(12))
def test_positions_matches_a_dict_lookup(seed):
    rng = random.Random(seed)
    calendar = _random_calendar(rng, rng.choice([0, 1, 2, 30, 400]))
    # Days before, between (weekends and gaps included) and after the calendar's trading days.
    dates = [date(2019, 12, 1) + timedelta(days=rng.randrange(1600)) for _ in range(300)]
    dates += calendar[:3] + calendar[-3:]
    got = positions(calendar, dates).tolist()
    column = {d: t for t, d in enumerate(calendar)}
    assert got == [column.get(d, -1) for d in dates]
    rolled = roll_forward(calendar, dates).tolist()
    assert all(t == r for t, r, d in zip(got, rolled, dates) if d in column)
    assert positions(calendar, []).tolist() == []
    if len(calendar) >= 30:  # the draw holds both kinds of date
        assert -1 in got and any(t >= 0 for t in got)


def _linear_rebalance_schedule(calendar, month, day):
    """The schedule by a linear scan of the calendar for each year's cutoff."""
    rebalances = [calendar[0]]
    for year in sorted({d.year for d in calendar}):
        cutoff = date(year, month, day)
        nxt = next((d for d in calendar if d >= cutoff), None)
        if nxt is not None and nxt not in rebalances:
            rebalances.append(nxt)
    return sorted(set(rebalances))


@pytest.mark.parametrize("month, day", [(7, 1), (1, 1), (2, 28), (6, 30), (12, 31)])
@pytest.mark.parametrize("seed", range(6))
def test_rebalance_schedule_matches_a_linear_scan(seed, month, day):
    rng = random.Random(seed)
    for n in (1, 2, 5, 40, 700):
        calendar = _random_calendar(rng, n)
        want = _linear_rebalance_schedule(calendar, month, day)
        assert [calendar[t] for t in rebalance_schedule(calendar, month, day)] == want


def test_membership_refreshes_at_rebalance():
    # Two small firms swap caps with two big ones on July 1; SMB must follow
    # the new memberships from the rebalance day on.
    calendar = weekdays(date(2022, 6, 27), 8)  # 2022-07-01 is a Friday
    flip = date(2022, 7, 1)
    firms = [f"S{i}" for i in range(8)]
    small_caps = [1e9, 2e9, 3e9, 4e9]
    big_caps = [1e11, 2e11, 3e11, 4e11]
    rng = np.random.default_rng(3)
    rows_by_firm = {}
    for i, f in enumerate(firms):
        rows = []
        for d in calendar:
            if i < 4:
                cap = small_caps[i] if d < flip else big_caps[i]
            else:
                cap = big_caps[i - 4] if d < flip else small_caps[i - 4]
            rows.append(_row(float(rng.normal(0, 0.02)), cap))
        rows_by_firm[f] = rows
    panel = _panel(rows_by_firm, calendar)
    rf = {d: RF for d in calendar}
    series = construct_factors(panel, rf)

    def membership_for(small_ids):
        m = {}
        for dim in ("value", "profitability", "investment"):
            m[dim] = {f: (0 if f in small_ids else 1, 0) for f in firms}
        return m

    # _row ties be/oi/ta to cap, so every characteristic ties across firms;
    # with p30 == p70 == c the "<= p30" rule puts everyone in the low bucket.
    before = membership_for({"S0", "S1", "S2", "S3"})
    after = membership_for({"S4", "S5", "S6", "S7"})
    for i, d in enumerate(calendar):
        want = _oracle_day(panel, d, before if d < flip else after, RF)
        assert float(series.smb[i]) == pytest.approx(want["smb"], abs=1e-12), d


# ---------------------------------------------------------------------------
# pct_zero, panel IO, controls


def test_pct_zero_hand_counts(tmp_path):
    calendar = weekdays(date(2022, 1, 3), 1)
    nsi, sr = _controls_files(tmp_path, calendar)

    def pct_zero(rows):
        return load_controls(nsi, sr, _panel(rows, calendar)).pct_zero[0]

    three_zero = {f"S{i}": [_row(0.0 if i < 3 else 0.01, 1e9)] for i in range(10)}
    assert pct_zero(three_zero) == pytest.approx(0.3)
    assert pct_zero({f"S{i}": [_row(0.0, 1e9)] for i in range(10)}) == 1.0
    assert pct_zero({f"S{i}": [_row(0.02, 1e9)] for i in range(10)}) == 0.0


PANEL_HEADER = (
    "firm_id,date,daily_return,market_cap,exchange,"
    "book_equity,operating_income,total_assets,total_assets_prior"
)


def _write_panel(path, rows):
    path.write_text(PANEL_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def test_load_panel_roundtrip(tmp_path):
    p = tmp_path / "panel.csv"
    _write_panel(
        p,
        [
            "A,2022-01-03,0.01,1e9,main,5e8,5e7,1e9,9e8",
            "A,2022-01-04,-0.02,1e9,main,5e8,5e7,1e9,9e8",
            "B,2022-01-03,0.0,2e9,secondary,1e9,1e8,2e9,2e9",
        ],
    )
    panel = load_panel(p)
    assert panel.firms == ["A", "B"]
    assert panel.calendar == [date(2022, 1, 3), date(2022, 1, 4)]
    assert cell(panel, "B", date(2022, 1, 3)).daily_return == 0.0
    assert cell(panel, "B", date(2022, 1, 3)).exchange == "secondary"


def test_load_panel_duplicate_key_errors(tmp_path):
    p = tmp_path / "panel.csv"
    _write_panel(
        p,
        [
            "A,2022-01-03,0.01,1e9,main,5e8,5e7,1e9,9e8",
            "A,2022-01-03,0.02,1e9,main,5e8,5e7,1e9,9e8",
        ],
    )
    with pytest.raises(PanelFormatError, match="duplicate key"):
        load_panel(p)


def test_load_panel_nonpositive_cap_errors(tmp_path):
    p = tmp_path / "panel.csv"
    _write_panel(p, ["A,2022-01-03,0.01,0.0,main,5e8,5e7,1e9,9e8"])
    with pytest.raises(PanelFormatError, match="row 2.*market_cap"):
        load_panel(p)


def test_load_panel_bad_exchange_errors(tmp_path):
    p = tmp_path / "panel.csv"
    _write_panel(p, ["A,2022-01-03,0.01,1e9,kosdaq2,5e8,5e7,1e9,9e8"])
    with pytest.raises(PanelFormatError, match="exchange"):
        load_panel(p)


def test_factors_csv_roundtrip(tmp_path):
    calendar = weekdays(date(2022, 1, 3), 3)
    rng = np.random.default_rng(5)
    series = FactorSeries(
        dates=calendar,
        rmrf=rng.normal(0, 0.01, 3),
        smb=rng.normal(0, 0.004, 3),
        hml=rng.normal(0, 0.004, 3),
        rmw=rng.normal(0, 0.004, 3),
        cma=rng.normal(0, 0.004, 3),
        rf=np.full(3, RF),
    )
    p = tmp_path / "factors.csv"
    write_series(p, FACTORS, series)
    back = read_factors_csv(p)
    assert back.dates == calendar
    for name in ("rmrf", "smb", "hml", "rmw", "cma", "rf"):
        assert np.array_equal(getattr(back, name), getattr(series, name)), name


def _three_days():
    """The arguments of a valid three-day factor series, and a valid two-firm panel on its days."""
    calendar = weekdays(date(2022, 1, 3), 3)
    series = {name: np.zeros(3) for name in ("rmrf", "smb", "hml", "rmw", "cma", "rf")}
    panel = panel_from_rows({f: {d: _row(0.01, 100.0) for d in calendar} for f in "AB"}, calendar)
    return {"dates": calendar, **series}, panel


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: s.update(smb=np.zeros(2)), r"'smb' length \(2,\) != 3 dates"),
        (lambda s: s.update(hml=np.array([0.0, np.nan, 0.0])), "'hml' contains non-finite"),
        (lambda s: s.update(dates=s["dates"][::-1]), "factor dates must be strictly ascending"),
        (lambda s: s.update(rf=np.array([0.0, -1.5, 0.0])), "rf values must be >= -1"),
    ],
    ids=["length", "non-finite", "dates", "rf"],
)
def test_a_malformed_factor_series_is_rejected(edit, message):
    series, _panel = _three_days()
    FactorSeries(**series)
    edit(series)
    with pytest.raises(ValueError, match=message):
        FactorSeries(**series)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: dict(firms=["B", "A"]), "firms must be unique and sorted"),
        (lambda p: dict(firms=["A", "A"]), "firms must be unique and sorted"),
        (lambda p: dict(calendar=p.calendar[::-1]), "calendar must be strictly ascending"),
        (
            lambda p: dict(market_cap=p.market_cap[:, :2]),
            r"'market_cap' has shape \(2, 2\), want \(2, 3\)",
        ),
    ],
    ids=["unsorted", "repeated", "calendar", "shape"],
)
def test_a_malformed_panel_is_rejected(edit, message):
    _series, panel = _three_days()
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(panel, **edit(panel))


def _controls_files(tmp_path, calendar, nsi_vals=None):
    nsi = tmp_path / "nsi.csv"
    sr = tmp_path / "sr.csv"
    vals = nsi_vals if nsi_vals is not None else [100.0 + i for i in range(len(calendar))]
    nsi.write_text(
        "date,nsi\n" + "\n".join(f"{d.isoformat()},{v}" for d, v in zip(calendar, vals)) + "\n",
        encoding="utf-8",
    )
    sr.write_text(
        "date,short_rate\n" + "\n".join(f"{d.isoformat()},0.02" for d in calendar) + "\n",
        encoding="utf-8",
    )
    return nsi, sr


def test_load_controls_first_difference(tmp_path):
    calendar = weekdays(date(2022, 1, 3), 4)
    panel = _panel({f"S{i}": [_row(0.01, 1e9)] * 4 for i in range(3)}, calendar)
    nsi, sr = _controls_files(tmp_path, calendar, nsi_vals=[100.0, 102.0, 101.0, 101.0])
    controls = load_controls(nsi, sr, panel)
    assert np.isnan(controls.d_nsi[0])
    assert controls.d_nsi[1] == pytest.approx(2.0)
    assert controls.d_nsi[2] == pytest.approx(-1.0)
    assert controls.d_nsi[3] == pytest.approx(0.0)
    assert np.allclose(controls.pct_zero, 0.0)


def test_load_controls_constant_nsi_zero_differences(tmp_path):
    calendar = weekdays(date(2022, 1, 3), 3)
    panel = _panel({"S0": [_row(0.01, 1e9)] * 3}, calendar)
    nsi, sr = _controls_files(tmp_path, calendar, nsi_vals=[100.0, 100.0, 100.0])
    controls = load_controls(nsi, sr, panel)
    assert np.allclose(controls.d_nsi[1:], 0.0)


def test_load_controls_gap_in_covered_span_errors(tmp_path):
    calendar = weekdays(date(2022, 1, 3), 4)
    panel = _panel({"S0": [_row(0.01, 1e9)] * 4 for _ in range(1)}, calendar)
    _nsi_unused, sr = _controls_files(tmp_path, calendar)
    nsi = tmp_path / "nsi_gap.csv"
    nsi.write_text(
        "date,nsi\n"
        f"{calendar[0].isoformat()},100\n"
        f"{calendar[2].isoformat()},101\n",  # calendar[1] missing inside the span
        encoding="utf-8",
    )
    with pytest.raises(CalendarAlignmentError, match="missing"):
        load_controls(nsi, sr, panel)


def test_load_controls_weekend_only_series_errors(tmp_path):
    calendar = weekdays(date(2022, 1, 3), 3)
    panel = _panel({"S0": [_row(0.01, 1e9)] * 3}, calendar)
    _nsi_unused, sr = _controls_files(tmp_path, calendar)
    nsi = tmp_path / "nsi_weekend.csv"
    nsi.write_text("date,nsi\n2022-01-08,100\n2022-01-09,101\n", encoding="utf-8")
    with pytest.raises(CalendarAlignmentError, match="no observations"):
        load_controls(nsi, sr, panel)


# Rows 2 and 3 are clean; each case puts its fault on row 4 (two later
# clean rows follow it), so the reported row number is not the first data row.
CLEAN_ROWS = [
    "A,2022-01-03,0.01,1e9,main,5e8,5e7,1e9,9e8",
    "B,2022-01-03,0.02,2e9,secondary,1e9,1e8,2e9,2e9",
]
TAIL_ROWS = [
    "A,2022-01-06,0.01,1e9,main,5e8,5e7,1e9,9e8",
    "B,2022-01-06,0.01,2e9,secondary,1e9,1e8,2e9,2e9",
]


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("A,2022-01-04,0.01,1e9,main,5e8,5e7,1e9", "expected 9 fields, got 8"),
        ("A,2022-01-04,0.01,1e9,main,5e8,5e7,1e9,9e8,x", "expected 9 fields, got 10"),
        ("", "expected 9 fields, got 0"),
        ("A,2022-13-04,0.01,1e9,main,5e8,5e7,1e9,9e8", "field 'date': invalid date '2022-13-04'"),
        ("A,2022-01-04,0.01,abc,main,5e8,5e7,1e9,9e8", "field 'market_cap': not a number: 'abc'"),
        ("A,2022-01-04,0.01,1e9,main,nan,5e7,1e9,9e8", "field 'book_equity': non-finite value"),
        ("A,2022-01-04,0.01,1e9,main,5e8,5e7,inf,9e8", "field 'total_assets': non-finite value"),
        ("A,2022-01-04,-1.0,1e9,main,5e8,5e7,1e9,9e8", "daily_return must be > -1"),
        ("A,2022-01-04,0.01,0.0,main,5e8,5e7,1e9,9e8", "market_cap must be positive"),
        ("A,2022-01-04,0.01,1e9,main,5e8,5e7,1e9,-9e8", "total_assets_prior must be positive"),
        (
            "A,2022-01-04,0.01,1e9,kosdaq2,5e8,5e7,1e9,9e8",
            "exchange must be 'main' or 'secondary', got 'kosdaq2'",
        ),
        ("B,2022-01-03,0.03,2e9,secondary,1e9,1e8,2e9,2e9", "duplicate key (B, 2022-01-03)"),
        # Within a row the checks keep their order: the date before the numbers,
        # a non-finite return before a malformed cap.
        ("A,2022-02-30,0.01,abc,main,5e8,5e7,1e9,9e8", "field 'date': invalid date '2022-02-30'"),
        ("A,2022-01-04,nan,abc,main,5e8,5e7,1e9,9e8", "field 'daily_return': non-finite value"),
    ],
)
def test_load_panel_error_names_row_and_field(tmp_path, bad_row, message):
    p = tmp_path / "panel.csv"
    _write_panel(p, CLEAN_ROWS + [bad_row] + TAIL_ROWS)
    with pytest.raises(PanelFormatError) as exc:
        load_panel(p)
    assert str(exc.value) == f"{p}: row 4: {message}"


def test_load_panel_reports_the_earliest_faulty_row(tmp_path):
    # A value fault on row 3 outranks an unparseable field on row 5.
    p = tmp_path / "panel.csv"
    _write_panel(
        p,
        [
            "A,2022-01-03,0.01,1e9,main,5e8,5e7,1e9,9e8",
            "A,2022-01-04,0.01,1e9,main,5e8,5e7,1e9,0",
            "A,2022-01-05,0.01,1e9,main,5e8,5e7,1e9,9e8",
            "A,2022-01-06,0.01,1e9,main,5e8,5e7,1e9,oops",
        ],
    )
    with pytest.raises(PanelFormatError) as exc:
        load_panel(p)
    assert str(exc.value) == f"{p}: row 3: total_assets_prior must be positive"


def test_load_panel_long_and_quoted_firm_ids_roundtrip(tmp_path):
    long_id = "KRX-005930-SAMSUNG-ELECTRONICS"
    plain = tmp_path / "plain.csv"
    _write_panel(
        plain,
        [
            f"{long_id},2022-01-03,0.01,1e9,main,5e8,5e7,1e9,9e8",
            "B,2022-01-03,0.02,2e9,secondary,1e9,1e8,2e9,2e9",
            f"{long_id},2022-01-04,-0.02,1e9,main,5e8,5e7,1e9,9e8",
        ],
    )
    quoted = tmp_path / "quoted.csv"
    _write_panel(
        quoted,
        [
            f'"{long_id}",2022-01-03,0.01,1e9,main,5e8,5e7,1e9,9e8',
            '"B",2022-01-03,0.02,2e9,secondary,1e9,1e8,2e9,2e9',
            f'"{long_id}",2022-01-04,-0.02,1e9,main,5e8,5e7,1e9,9e8',
        ],
    )
    for p in (plain, quoted):
        panel = load_panel(p)
        assert panel.firms == ["B", long_id]
        assert cell(panel, long_id, date(2022, 1, 4)).daily_return == -0.02
        assert cell(panel, "B", date(2022, 1, 4)) is None
        assert (panel.filing >= 0).tolist() == [[True, False], [True, True]]


# ---------------------------------------------------------------------------
# The block reader: a plain file is parsed _BLOCK_ROWS rows at a time, in
# _range_count() byte ranges at once when it holds two blocks or more.


def _block_rows(firms="ABCD", days=range(8), seed=4):
    """Clean rows in date-major order; each firm's fundamentals repeat on every day."""
    rng = np.random.default_rng(seed)
    calendar = weekdays(date(2022, 1, 3), 12)
    rows = []
    for t in days:
        for k, f in enumerate(firms):
            exchange = "main" if k % 2 == 0 else "secondary"
            ret, cap = float(rng.normal(0.0, 0.02)), float(rng.uniform(1e9, 9e9))
            rows.append(
                f"{f},{calendar[t]},{ret!r},{cap!r},{exchange},"
                f"{5e8 * (k + 1)!r},{5e7 * (k + 1)!r},{1e9 * (k + 2)!r},{9e8 * (k + 2)!r}"
            )
    return rows


def _quoted(row):
    """The row with its firm id quoted, which sends the file to the csv-module reader."""
    firm, rest = row.split(",", 1)
    return f'"{firm}",{rest}'


def _padded(row):
    return ",".join(f" {field}  " for field in row.split(","))


def _over_ranges(cases):
    """Each (values, id) case at range counts 1, 2 and 3; at count 1 it keeps its plain id."""
    cases = list(cases)
    return [
        pytest.param(*values, ranges, id=name if ranges == 1 else f"{name}-{ranges}-ranges")
        for ranges in (1, 2, 3)
        for values, name in cases
    ]


def _parity_rows():
    """Shuffled clean rows, then a firm first seen late, then a new firm on a new date."""
    rows = _block_rows()
    np.random.default_rng(9).shuffle(rows)
    return rows + _block_rows(firms="E", days=range(1, 4)) + _block_rows(firms="F", days=[10])


def _distinct_fundamentals(rows):
    """The rows with every row's four fundamentals its own."""
    return [
        ",".join(f[:5] + [repr(float(x) * (1 + i / 1000)) for x in f[5:]])
        for i, f in enumerate(row.split(",") for row in rows)
    ]


@pytest.mark.parametrize(
    "newline, final, edit",
    [
        ("\n", True, list),
        ("\r\n", True, list),
        ("\n", False, list),
        ("\n", True, lambda rows: list(map(_padded, rows))),
        ("\n", True, _distinct_fundamentals),
    ],
    ids=["lf", "crlf", "no-final-newline", "space-padded", "distinct-fundamentals"],
)
@pytest.mark.parametrize(
    "block, ranges", _over_ranges([((b,), str(b)) for b in (1, 7, "n", "n-1", "cut")])
)
def test_block_reader_matches_the_row_by_row_reader_bitwise(
    tmp_path, monkeypatch, newline, final, edit, block, ranges
):
    rows = edit(_parity_rows())
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    for p, lines in ((plain, rows), (quoted, [_quoted(r) for r in rows])):
        p.write_bytes(newline.join([PANEL_HEADER] + lines + [""] * final).encode())
    cuts = factors._plain_layout(plain, ranges)[2]
    data = plain.read_bytes()
    assert len(cuts) == ranges  # each cut is a line start and the row that begins there
    assert all(data[at - 1 : at] == b"\n" and data.count(b"\n", 0, at) == row + 1 for at, row in cuts)
    # "cut": the first range is exactly one block, so the split falls on a block boundary.
    cut = cuts[1][1] if ranges > 1 else len(rows)
    block = {"n": len(rows), "n-1": len(rows) - 1, "cut": cut}.get(block, block)
    monkeypatch.setattr(factors, "_BLOCK_ROWS", block)
    monkeypatch.setattr(factors, "_range_count", lambda: 1)
    serial = factors._read_columns_fast(plain)
    monkeypatch.setattr(factors, "_range_count", lambda: ranges)
    split = factors._read_columns_fast(plain)
    assert [keys for keys, _ids in split[0]] == [keys for keys, _ids in serial[0]]
    ids = [[ids.tobytes() for _keys, ids in result[0][:2]] for result in (split, serial)]
    assert ids[0] == ids[1]
    # Each range holds its own filings, so the split may hold a filing twice: each row's
    # filing fields, the exchange's id among them, are what one pass gives.
    filed = [
        [column[result[0][2][1]].tobytes() for column in result[1].values()]
        for result in (split, serial)
    ]
    assert list(split[1]) == list(serial[1]) and len(filed[0]) == len(PANEL_FIELDS) - 1
    assert filed[0] == filed[1]
    assert [v.tobytes() for v in split[2]] == [v.tobytes() for v in serial[2]]
    assert split[3] is None
    assert factors._read_columns_fast(quoted) is None
    read = _rows_the_csv_reader_reads(monkeypatch)
    got = load_panel(plain)
    # The row reader gives the same bytes, so only this shows the block reader parsed them.
    assert read == [2]  # the header check's row 2 only
    want = load_panel(quoted)
    assert got.firms == want.firms == list("ABCDEF")
    assert got.calendar == want.calendar and len(got.calendar) == 9
    for name, array in panel_arrays(got).items():
        assert array.dtype == panel_arrays(want)[name].dtype
        assert array.tobytes() == panel_arrays(want)[name].tobytes(), name


def _with_field(row, column, value):
    fields = row.split(",")
    fields[PANEL_COLUMNS.index(column)] = value
    return ",".join(fields)


def _set_field(index, column, value):
    def edit(rows):
        rows[index] = _with_field(rows[index], column, value)

    return edit


def _both(*edits):
    def edit(rows):
        for e in edits:
            e(rows)

    return edit


def _blank_line_and_long_row(rows, at=10):
    # A blank line and a 17-field row keep 8 commas a line, so the file looks plain.
    rows.insert(at, "")
    rows.insert(20, rows[5] + "," + ",".join(rows[6].split(",")[:8]))


def _blank_tail_and_long_row(rows):
    # A row of 5 fields, the last one empty, and a row of 13 keep 8 commas a line.
    rows[10] = ",".join(rows[10].split(",")[:4]) + ","
    rows[20] += ",1,2,3,4"


def _lone_carriage_return(rows):
    # Two rows joined by a lone "\r", and a last line with no comma, keep 8 commas a line.
    rows[20:22] = [rows[20] + "\r" + rows[21]]
    rows.append("x")


# 32 clean rows (4 firms x 8 days, date-major); file row = list index + 2.
ERRORS = [
    (
        lambda rows: rows.insert(23, _with_field(rows[2], "daily_return", "0.5")),
        7,
        "row 25: duplicate key (C, 2022-01-03)",
    ),
    (_set_field(17, "book_equity", "nan"), 7, "row 19: field 'book_equity': non-finite value"),
    (
        _set_field(26, "exchange", "kosdaq2"),
        7,
        "row 28: exchange must be 'main' or 'secondary', got 'kosdaq2'",
    ),
    (
        _set_field(15, "date", "2022-02-30"),
        7,
        "row 17: field 'date': invalid date '2022-02-30'",
    ),
    (
        _set_field(24, "market_cap", "oops"),
        7,
        "row 26: field 'market_cap': not a number: 'oops'",
    ),
    (
        _both(_set_field(9, "daily_return", "-1.5"), _set_field(24, "market_cap", "oops")),
        7,
        "row 11: daily_return must be > -1",
    ),
    (_blank_line_and_long_row, 1, "row 12: expected 9 fields, got 0"),
    # A blank line that ends a block of two leaves that block 6 cells where two rows have 10.
    (lambda rows: _blank_line_and_long_row(rows, at=11), 2, "row 13: expected 9 fields, got 0"),
    (_lone_carriage_return, 7, "row 34: expected 9 fields, got 1"),
    (_blank_tail_and_long_row, 1, "row 12: expected 9 fields, got 5"),
    (_blank_tail_and_long_row, 7, "row 12: expected 9 fields, got 5"),
    # The csv module reads a lone CR as a line end, which float() would take for a space.
    (_set_field(12, "market_cap", "1e9\r"), 7, "row 14: expected 9 fields, got 4"),
]
ERROR_IDS = [
    "duplicate", "nan", "exchange", "date", "oops", "fault-before-oops", "blank-line",
    "blank-line-ends-block", "lone-cr", "blank-tail-alone", "blank-tail", "cr-in-cap",
]


@pytest.mark.parametrize("edit, block, message, ranges", _over_ranges(zip(ERRORS, ERROR_IDS)))
def test_load_panel_errors_past_the_first_block_name_their_row(
    tmp_path, monkeypatch, edit, block, message, ranges
):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", block)
    monkeypatch.setattr(factors, "_range_count", lambda: ranges)
    rows = _block_rows()
    edit(rows)
    p = tmp_path / "panel.csv"
    _write_panel(p, rows)
    with pytest.raises(PanelFormatError) as exc:
        load_panel(p)
    assert str(exc.value) == f"{p}: {message}"


@pytest.mark.parametrize("ranges", [2, 3])
def test_a_malformed_float_in_a_childs_range_names_its_row(tmp_path, monkeypatch, ranges):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(factors, "_range_count", lambda: ranges)
    rows = _block_rows()
    p = tmp_path / "panel.csv"
    _write_panel(p, rows)
    index = factors._plain_layout(p, ranges)[2][-1][1] + 1  # inside the last range
    rows[index] = _with_field(rows[index], "market_cap", "oops")
    _write_panel(p, rows)
    assert factors._plain_layout(p, ranges)[2][-1][1] <= index
    with pytest.raises(PanelFormatError) as exc:
        load_panel(p)
    assert str(exc.value) == f"{p}: row {index + 2}: field 'market_cap': not a number: 'oops'"


def _rows_the_csv_reader_reads(monkeypatch):
    """The list that each row number tables.read_rows yields from now on is appended to."""
    read, read_rows = [], tables.read_rows

    def spy(*args, **kwargs):
        for lineno, row in read_rows(*args, **kwargs):
            read.append(lineno)
            yield lineno, row

    monkeypatch.setattr(tables, "read_rows", spy)
    return read


@pytest.mark.parametrize("ranges", [1, 2])
def test_a_late_malformed_field_sends_the_whole_file_to_the_csv_reader(
    tmp_path, monkeypatch, ranges
):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(factors, "_range_count", lambda: ranges)
    rows = _block_rows()
    index = 24
    rows[index] = _with_field(rows[index], "market_cap", "oops")
    p = tmp_path / "panel.csv"
    _write_panel(p, rows)
    lo = [row for _at, row in factors._plain_layout(p, ranges)[2] if row <= index][-1]
    assert lo + 7 <= index  # a block of the failing range parses before the one that fails
    read = _rows_the_csv_reader_reads(monkeypatch)
    with pytest.raises(PanelFormatError) as exc:
        load_panel(p)
    assert str(exc.value) == f"{p}: row {index + 2}: field 'market_cap': not a number: 'oops'"
    # The header check reads row 2; the csv reader then reads the file from row 2 on.
    assert read == [2] + list(range(2, index + 3))


@pytest.mark.parametrize("ranges", [1, 2, 3])
def test_a_field_only_the_csv_reader_reads_gives_the_one_pass_panel(tmp_path, monkeypatch, ranges):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(factors, "_range_count", lambda: ranges)
    rows = _parity_rows()  # firms E and F are first seen after the failing block
    rows[20] = _with_field(rows[20], "book_equity", "5_000.0")  # float() reads it, loadtxt not
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    _write_panel(plain, rows)
    _write_panel(quoted, [_quoted(r) for r in rows])
    got, want = load_panel(plain), load_panel(quoted)
    assert got.firms == want.firms == list("ABCDEF") and got.calendar == want.calendar
    for name, array in panel_arrays(got).items():
        assert array.tobytes() == panel_arrays(want)[name].tobytes(), name
    assert 5000.0 in got.filings["book_equity"]


def _panel_or_error(path):
    """The loaded panel's bytes, or its error's text with the file's name taken out."""
    try:
        panel = load_panel(path)
    except PanelFormatError as exc:
        return str(exc).replace(str(path), "<panel>")
    arrays = [array.tobytes() for array in panel_arrays(panel).values()]
    return panel.firms, panel.calendar, arrays


# Spellings that float() and np.loadtxt may read differently, or not at all.
FUZZ_NUMBERS = [
    "5_000.0", "１", " 1.5", "+1", "1e-400", "1e400", "nan", "-0.0", "0x10", "", "1.5\t", "1.5\r"
]


def _fuzzed_cell(rng, row):
    """The row with one cell replaced: a padded firm id, a bad date, a padded or unknown
    exchange, or one of FUZZ_NUMBERS in a float column."""
    column = rng.choice(PANEL_COLUMNS)
    old = row.split(",")[PANEL_COLUMNS.index(column)]
    texts = {
        "firm_id": [f" {old}  "],
        "date": ["2022-02-30", "2022-1-05", f" {old}"],
        "exchange": [f" {old}", "kosdaq"],
    }
    return _with_field(row, column, rng.choice(texts.get(column, FUZZ_NUMBERS)))


@pytest.mark.parametrize("ranges", [1, 2, 3])
def test_fuzzed_cells_give_the_csv_readers_panel_or_error(tmp_path, monkeypatch, ranges):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(factors, "_range_count", lambda: ranges)
    rng = random.Random(ranges)
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    for _case in range(100):
        rows = _parity_rows()
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(rows))
            rows[i] = _fuzzed_cell(rng, rows[i])
        _write_panel(plain, rows)
        _write_panel(quoted, [_quoted(r) for r in rows])
        assert _panel_or_error(plain) == _panel_or_error(quoted), rows


def test_a_crlf_across_the_layout_scans_chunk_boundary_keeps_the_file_plain(tmp_path):
    # _plain_layout reads 1 MiB chunks; the first row's firm id is padded so that the CR of
    # a CRLF is a chunk's last byte and its LF the next chunk's first.
    rows = _block_rows(days=range(12)) * 600
    text = "\r\n".join([PANEL_HEADER] + rows + [""])
    pad = (1 << 20) - 1 - text.rindex("\r", 0, 1 << 20)
    p = tmp_path / "panel.csv"
    p.write_bytes(text.replace("A,", "A" + " " * pad + ",", 1).encode())
    assert p.read_bytes()[(1 << 20) - 1 : (1 << 20) + 1] == b"\r\n"
    assert factors._plain_layout(p, 1)[:2] == (True, len(rows))


def _past_the_cap(rows):
    """14 rows, each its own filing but the last, which files as the first; then 7 rows of
    firm G, one a day, filing as the first 7 rows."""
    rows = _distinct_fundamentals(rows)[:14]
    fields = [row.split(",", 4) for row in rows]  # firm, date, return, cap and the filing
    rows[13] = ",".join(fields[13][:4] + fields[0][4:])
    days = weekdays(date(2022, 1, 3), 7)
    return rows + [",".join(["G", str(d)] + f[2:]) for d, f in zip(days, fields)]


def _first_seen_by_block(tails, block):
    """Per block of `block` tails, the tails first seen in it; blocks that see none left out."""
    seen, parsed = set(), []
    for i in range(0, len(tails), block):
        new = [t for t in dict.fromkeys(tails[i : i + block]) if t not in seen]
        seen.update(new)
        if new:
            parsed.append(new)
    return parsed


@pytest.mark.parametrize(
    "edit, n_tails, reset",
    [(list, 4, None), (_distinct_fundamentals, 36, None), (_past_the_cap, 20, 14)],
    ids=["repeated", "distinct", "past-the-cap"],
)
def test_each_distinct_tail_is_parsed_once_a_range_until_the_cap(
    tmp_path, monkeypatch, edit, n_tails, reset
):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(factors, "_range_count", lambda: 1)
    rows = edit(_parity_rows())
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    _write_panel(plain, rows)
    _write_panel(quoted, [_quoted(r) for r in rows])
    parsed, loadtxt = [], np.loadtxt

    def spy(lines, *args, **kwargs):
        parsed.append(list(lines))
        return loadtxt(parsed[-1], *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    got = load_panel(plain)
    tails = [r.split(",", 4)[4] + "\n" for r in rows]
    # One tails dict for the range: a block parses only the tails no block before it saw.
    # past-the-cap: its first two blocks leave 13 tails in the dict, more than the 7 of a
    # block, so the third starts a fresh dict and parses firm G's 7 tails again.
    want = _first_seen_by_block(tails[:reset], 7)
    want += _first_seen_by_block(tails[reset:], 7) if reset else []
    assert parsed == want
    # Firms A-D keep their fundamentals every day: 4 tails for the 36 rows, not the 16 that
    # a dict a block parsed.
    assert sum(map(len, want)) == n_tails
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    want = load_panel(quoted)  # the csv reader's
    assert got.firms == want.firms and got.calendar == want.calendar
    for name, array in panel_arrays(got).items():
        assert array.tobytes() == panel_arrays(want)[name].tobytes(), name


def test_a_child_that_ends_without_a_result_sends_the_whole_file_to_the_csv_reader(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(factors, "_range_count", lambda: 2)
    p = tmp_path / "panel.csv"
    _write_panel(p, _block_rows())
    want = load_panel(p)
    parent, parse = os.getpid(), factors._parse_range

    def end_in_the_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return parse(*args)

    monkeypatch.setattr(factors, "_parse_range", end_in_the_child)
    read = _rows_the_csv_reader_reads(monkeypatch)
    got = load_panel(p)
    assert read == [2] + list(range(2, 34))  # the header check, then every row from row 2
    for name, array in panel_arrays(got).items():
        assert array.tobytes() == panel_arrays(want)[name].tobytes(), name
    assert multiprocessing.active_children() == []


def test_the_split_parse_leaves_no_child_running(tmp_path, monkeypatch):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(factors, "_range_count", lambda: 2)
    rows = _block_rows()
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    _write_panel(good, rows)
    _write_panel(bad, rows[:-1] + [_with_field(rows[-1], "daily_return", "oops")])
    assert (load_panel(good).filing >= 0).all()
    assert multiprocessing.active_children() == []
    with pytest.raises(PanelFormatError, match="not a number"):
        load_panel(bad)
    assert multiprocessing.active_children() == []

    parent, parse = os.getpid(), factors._parse_range

    def fail_in_the_parent(*args):
        if os.getpid() == parent:
            raise RuntimeError("the parent's range failed")
        return parse(*args)

    monkeypatch.setattr(factors, "_parse_range", fail_in_the_parent)
    with pytest.raises(RuntimeError, match="the parent's range failed"):
        load_panel(good)
    assert multiprocessing.active_children() == []


def test_a_first_range_that_fails_does_not_wait_for_the_others(tmp_path, monkeypatch):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(factors, "_range_count", lambda: 2)
    rows = _block_rows()
    rows[3] = _with_field(rows[3], "market_cap", "oops")  # row 5, the header being row 1
    p = tmp_path / "panel.csv"
    _write_panel(p, rows)
    received, recv = [], multiprocessing.connection.Connection.recv

    def spy(self):
        received.append(self)
        return recv(self)

    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", spy)
    with pytest.raises(PanelFormatError, match="row 5: field 'market_cap': not a number: 'oops'"):
        load_panel(p)
    assert received == []  # the child's range is of no use past row 5: it is killed unread
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="one usable CPU: the parse is serial",
)
@pytest.mark.skipif(sys.version_info >= (3, 12), reason="Python 3.12+ parses serially")
def test_a_panel_of_two_blocks_is_split_on_two_cpus(tmp_path, monkeypatch):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    parsed, parse = [], factors._parse_range

    def spy(*args):
        parsed.append(len(args[2][0]))  # in a child, this appends to the child's copy
        return parse(*args)

    monkeypatch.setattr(factors, "_parse_range", spy)
    rows = _block_rows()
    p = tmp_path / "panel.csv"
    _write_panel(p, rows)
    assert factors._range_count() == 2
    read = _rows_the_csv_reader_reads(monkeypatch)
    assert (load_panel(p).filing >= 0).all()
    assert len(parsed) == 1 and 0 < parsed[0] < len(rows)  # this process parsed one range
    assert read == [2]  # the header check's row only: the child's range parsed in blocks too


def _full_panel(tmp_path, n_firms, n_days, yearly=False):
    """A full plain panel: each row its own filing, its fundamentals drawn from its cap, or
    with `yearly` each firm's fundamentals drawn once a calendar year."""
    rng = np.random.default_rng(12)
    calendar = weekdays(date(2018, 1, 1), n_days)
    ret = rng.normal(0.0, 0.02, size=(len(calendar), n_firms)).tolist()
    cap = rng.uniform(1e9, 9e10, size=(len(calendar), n_firms)).tolist()
    first = calendar[0].year
    years = rng.uniform(1e9, 9e10, size=(calendar[-1].year - first + 1, n_firms)).tolist()
    lines = [PANEL_HEADER]
    for t, d in enumerate(calendar):
        for k in range(n_firms):
            exchange = "main" if k % 3 else "secondary"
            base = years[d.year - first][k] if yearly else cap[t][k]
            lines.append(
                f"F{k:03d},{d},{ret[t][k]!r},{cap[t][k]!r},{exchange},"
                f"{base * 0.6!r},{base * 0.05!r},{base * 1.1!r},{base!r}"
            )
    p = tmp_path / "panel.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p, calendar


def _traced_load(tmp_path, n_firms, n_days):
    """(panel, tracemalloc's peak bytes in load_panel) of a full plain panel, each row its
    own filing."""
    panel, peak, _held = traced_peak(partial(load_panel, _full_panel(tmp_path, n_firms, n_days)[0]))
    assert (panel.filing >= 0).all()
    return panel, peak


# tracemalloc sees neither the shared-memory arrays nor a child of the split
# parse, so the bounds are checked on the serial path, where it sees everything.


def test_load_panel_traced_peak_stays_within_four_panels(tmp_path, monkeypatch):
    # A panel counted as dense firm x date arrays, 50 bytes a cell: six float fields and two
    # masks.  Here every row is its own filing: the peak is about 135 bytes a cell, 125 when
    # the fundamentals were held as dense arrays.
    monkeypatch.setattr(factors, "_range_count", lambda: 1)
    panel, peak = _traced_load(tmp_path, 40, 1000)
    nbytes = 50 * panel.filing.size
    assert peak <= 4 * nbytes, peak / nbytes


def test_load_panel_holds_the_row_floats_and_the_dense_panel_once(tmp_path, monkeypatch):
    # 48 bytes a row for six parsed floats and 50 a cell for six dense fields and two masks:
    # the bound of a parse that never holds both forms whole.  Every row is its own filing
    # here, the worst case for the filings: the peak is about 80 bytes a cell, 74 when the
    # parse made a float a row of each fundamental.
    monkeypatch.setattr(factors, "_range_count", lambda: 1)
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 1024)
    panel, peak = _traced_load(tmp_path, 100, 500)
    rows = cells = panel.filing.size
    assert peak < 48 * rows + 50 * cells, peak / 2**20


def test_a_panel_of_yearly_filings_holds_each_filing_once(tmp_path, monkeypatch):
    # Peak bytes a cell of load_panel then construct_factors, 100 firms x 750 days that
    # file once a year: about 55 with each filing held once, and 87 with the fundamentals
    # as four dense float arrays and the parse's four floats a row.
    monkeypatch.setattr(factors, "_range_count", lambda: 1)
    p, calendar = _full_panel(tmp_path, 100, 750, yearly=True)
    rf = {d: RF for d in calendar}

    def load_and_construct():
        panel = load_panel(p)
        return panel, construct_factors(panel, rf)

    load_and_construct()  # first-call imports aside
    (panel, _factors), peak, _held = traced_peak(load_and_construct)
    assert peak / panel.filing.size < 70, peak / panel.filing.size


def _dense_panel(tmp_path, n_firms, n_days, order):
    """A panel file of every cell once, each firm filing once, its rows in `order`:
    "date-major" (the generator's), "firm-major" or "shuffled"."""
    calendar = weekdays(date(2018, 1, 1), n_days)
    cells = [(k, t) for t in range(n_days) for k in range(n_firms)]
    if order == "firm-major":
        cells.sort()
    elif order == "shuffled":
        random.Random(5).shuffle(cells)
    lines = [PANEL_HEADER] + [
        f"F{k:03d},{calendar[t]},{(k * 7 + t) % 13 / 400 - 0.015!r},{1 + k % 7 + t % 5}e9,"
        f"{'main' if k % 3 else 'secondary'},{k + 1}e8,{k % 5 + 1}e7,{k + 3}e8,{k + 2}e8"
        for k, t in cells
    ]
    p = tmp_path / f"{order}.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


@pytest.mark.parametrize("order, memory_order", [("date-major", "F"), ("firm-major", "C")])
def test_a_dense_panel_in_order_is_held_once(tmp_path, monkeypatch, order, memory_order):
    # The parse's return, cap and filing rows become the panel's arrays as they are, so
    # load_panel's peak is the parse's 28 bytes a row (three int32 ids, two floats) and a
    # block's texts: 1.46 (date-major) to 1.49 (firm-major, a new filing a block) times
    # the 20-byte-a-cell panel.  Placing the rows into new dense arrays, as a file in
    # another order needs, holds both: 2.05.
    monkeypatch.setattr(factors, "_range_count", lambda: 1)
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 256)
    load_panel(_dense_panel(tmp_path, 3, 40, order))  # first-call imports aside
    p = _dense_panel(tmp_path, 200, 1200, order)
    panel, peak, _held = traced_peak(partial(load_panel, p))
    arrays = [panel.daily_return, panel.market_cap, panel.filing, *panel.filings.values()]
    assert peak <= 1.5 * sum(a.nbytes for a in arrays), peak / sum(a.nbytes for a in arrays)
    assert all(a.flags[f"{memory_order}_CONTIGUOUS"] for a in arrays[:3])


def test_a_dense_panel_reads_the_same_in_any_row_order(tmp_path):
    # Only the in-order files keep their rows as views; the shuffled one is placed cell by
    # cell.  Filings are numbered in the order rows first show them, so compare per cell.
    got = [panel_arrays(load_panel(_dense_panel(tmp_path, 30, 400, order)))
           for order in ("date-major", "firm-major", "shuffled")]
    for arrays in got[1:]:
        assert arrays.keys() == got[0].keys()
        for name, array in arrays.items():
            assert np.array_equal(array, got[0][name]), name


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 11, 64, 65])
def test_the_size_breakpoint_and_percentiles_are_numpys_bit_for_bit(n):
    # Without np.median and np.percentile, which import numpy.ma: odd and even sizes, ties,
    # and the zeros of both signs, which compare equal but print apart.
    rng = np.random.default_rng(n)
    for values in (
        rng.lognormal(20.0, 2.0, n),
        rng.integers(0, 3, n).astype(float) * 1e9,
        rng.choice([-0.0, 0.0, 1.0, -1.0], n),
        rng.normal(0.0, 1.0, n),
    ):
        assert np.float64(factors._median(values)).tobytes() == np.median(values).tobytes()
        qs = [30.0, 70.0, 0.0, 100.0, 50.0, 99.99]
        got = np.array(factors._percentiles(values, qs))
        assert got.tobytes() == np.percentile(values, qs).tobytes()


def test_constructing_factors_imports_no_numpy_ma():
    # numpy.ma costs about 1.25 MB of RSS and 12 ms to import.
    code = (
        "import sys\n"
        "from datetime import date\n"
        "from helpers import random_panel, weekdays\n"
        "from sentimetrics.factors import construct_factors\n"
        "panel = random_panel(30, weekdays(date(2018, 1, 1), 300))\n"
        "construct_factors(panel, {d: 1e-4 for d in panel.calendar})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    tests = os.path.dirname(__file__)
    path = os.pathsep.join([os.path.join(tests, "..", "src"), tests])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "False\n", out.stderr


def test_construct_factors_holds_one_sort_dimensions_masks_at_a_time():
    # Bytes a panel cell: about 4, the per-date arrays alone (the market's and the 3 x 6
    # cells' sums, masks and returns, about 90 floats a date) and four firms' rows at a
    # time.  Int8 sort cells of every firm and date (3) with one dimension's (6, firms,
    # dates) masks (6) came to 11, below 12.  All three dimensions' masks at once (18) or a
    # panel-sized return x cap (8) break the bound.
    panel = random_panel(200, weekdays(date(2018, 1, 1), 500))
    rf = {d: RF for d in panel.calendar}
    construct_factors(random_panel(20, panel.calendar[:30]), rf)  # first-call imports aside
    peak = traced_peak(lambda: construct_factors(panel, rf)).peak
    assert peak < 12 * panel.filing.size, peak / panel.filing.size


def _marked_absent(panel, absent, stale: bool):
    """A copy of `panel` with the `absent` cells' filing -1; unless `stale`, also their
    return and cap NaN, and their former filings' fundamentals NaN."""
    panel = dataclasses.replace(
        panel,
        daily_return=panel.daily_return.copy(),
        market_cap=panel.market_cap.copy(),
        filing=panel.filing.copy(),
        filings={name: column.copy() for name, column in panel.filings.items()},
    )
    if not stale:
        panel.daily_return[absent] = panel.market_cap[absent] = np.nan
        for name in PANEL_FIELDS[2:]:
            panel.filings[name][panel.filing[absent]] = np.nan
    panel.filing[absent] = -1
    return panel


def test_a_cell_is_absent_by_its_filing_alone_whatever_its_stale_fields_hold(tmp_path):
    # Every reader of presence (the sort, the value weights, the zero share and the
    # event study's excess returns) goes by filing >= 0: stale fields behind a -1,
    # zero returns among them, give what NaN fields give, bit for bit.
    calendar = weekdays(date(2019, 1, 1), 400)
    full = random_panel(30, calendar, seed=51)
    rng = np.random.default_rng(52)
    full.daily_return[rng.random(full.daily_return.shape) < 0.2] = 0.0
    absent = rng.random(full.filing.shape) < 0.15
    absent[:4, 0] = True  # out of the first sort
    absent[5, 200:] = True  # too few days for its events' estimation
    rf = {d: RF for d in calendar}
    for name, schema in (("nsi", tables.NSI), ("short_rate", tables.SHORT_RATE)):
        tables.write_table(tmp_path / f"{name}.csv", schema, {"date": calendar, name: [0.01] * 400})
    events = [
        StockSentimentEvent(firm, calendar[t], 0.5, polarity)
        for firm in full.firms[:8]
        for t, polarity in ((150, "positive"), (260, "negative"), (330, "positive"))
    ]
    window = EventWindowConfig(est_start=-60, est_end=-6, evt_start=-5, evt_len=10, min_est_obs=20)
    outputs = []
    for stale in (True, False):
        panel = _marked_absent(full, absent, stale)
        series = construct_factors(panel, rf)
        controls = load_controls(tmp_path / "nsi.csv", tmp_path / "short_rate.csv", panel)
        run = run_event_study(events, panel, series, window)
        outputs.append((
            [getattr(series, name).tobytes() for name in ("rmrf", "smb", "hml", "rmw", "cma")],
            controls.pct_zero.tobytes(),
            {k: (r.aar.tobytes(), r.caar.tobytes(), r.n_events) for k, r in run.results.items()},
            [(p.firm_id, p.announce_date, p.values.tobytes()) for p in run.ar_paths["positive"]],
            [(e.firm_id, e.announce_date, e.reason) for e in run.exclusions],
        ))
    assert outputs[0] == outputs[1]
    assert outputs[0][4] and all(firm == full.firms[5] for firm, _d, _r in outputs[0][4])
    # The stale fields differ from a full panel's only in presence: that changes the output.
    assert construct_factors(full, rf).smb.tobytes() != outputs[0][0][1]
