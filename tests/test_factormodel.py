import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import random
import sys
import tracemalloc
from bisect import bisect_left
from datetime import date, timedelta

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
from sentimetrics.tables import FACTORS, write_series

from helpers import Row, cell, panel_from_rows, weekdays

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
        assert panel.present.tolist() == [[True, False], [True, True]]


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


@pytest.mark.parametrize(
    "newline, final, pad",
    [("\n", True, False), ("\r\n", True, False), ("\n", False, False), ("\n", True, True)],
    ids=["lf", "crlf", "no-final-newline", "space-padded"],
)
@pytest.mark.parametrize(
    "block, ranges", _over_ranges([((b,), str(b)) for b in (1, 7, "n", "n-1", "cut")])
)
def test_block_reader_matches_the_row_by_row_reader_bitwise(
    tmp_path, monkeypatch, newline, final, pad, block, ranges
):
    rows = _parity_rows()
    if pad:
        rows = [_padded(r) for r in rows]
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
    assert [ids.tobytes() for _keys, ids in split[0]] == [ids.tobytes() for _keys, ids in serial[0]]
    assert len(split[1]) == len(serial[1]) == len(PANEL_FIELDS)
    assert [v.tobytes() for v in split[1]] == [v.tobytes() for v in serial[1]]
    assert split[2] is None
    assert factors._read_columns_fast(quoted) is None
    got, want = load_panel(plain), load_panel(quoted)
    assert got.firms == want.firms == list("ABCDEF")
    assert got.calendar == want.calendar and len(got.calendar) == 9
    for name in ("present", "is_main") + PANEL_FIELDS:
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


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


def _blank_line_and_long_row(rows):
    # A blank line and a 17-field row keep 8 commas a line, so the file looks plain.
    rows.insert(10, "")
    rows.insert(20, rows[5] + "," + ",".join(rows[6].split(",")[:8]))


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
    (_lone_carriage_return, 7, "row 34: expected 9 fields, got 1"),
]
ERROR_IDS = [
    "duplicate", "nan", "exchange", "date", "oops", "fault-before-oops", "blank-line", "lone-cr"
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
def test_a_late_malformed_field_is_read_row_by_row_from_its_block_only(
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
    start = lo + (index - lo) // 7 * 7  # the first row of the block that fails
    read = _rows_the_csv_reader_reads(monkeypatch)
    with pytest.raises(PanelFormatError) as exc:
        load_panel(p)
    assert str(exc.value) == f"{p}: row {index + 2}: field 'market_cap': not a number: 'oops'"
    # The header check reads row 2; the csv reader then starts at the failing block.
    assert 0 < start and read == [2] + list(range(start + 2, index + 3))


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
    for name in ("present", "is_main") + PANEL_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert 5000.0 in got.book_equity


def test_the_range_of_a_child_that_ends_without_a_result_is_read_row_by_row(
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
    cut = factors._plain_layout(p, 2)[2][1][1]
    assert read == [2] + list(range(cut + 2, 34))
    for name in ("present", "is_main") + PANEL_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert multiprocessing.active_children() == []


def test_the_split_parse_leaves_no_child_running(tmp_path, monkeypatch):
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(factors, "_range_count", lambda: 2)
    rows = _block_rows()
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    _write_panel(good, rows)
    _write_panel(bad, rows[:-1] + [_with_field(rows[-1], "daily_return", "oops")])
    assert load_panel(good).present.all()
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

    def spy(path, offset, ids, values):
        parsed.append(ids.shape[1])  # in a child, this appends to the child's copy
        return parse(path, offset, ids, values)

    monkeypatch.setattr(factors, "_parse_range", spy)
    rows = _block_rows()
    p = tmp_path / "panel.csv"
    _write_panel(p, rows)
    assert factors._range_count() == 2
    assert load_panel(p).present.all()
    assert len(parsed) == 1 and 0 < parsed[0] < len(rows)  # this process parsed one range


def _traced_load(tmp_path, n_firms, n_days):
    """(panel, tracemalloc's peak bytes in load_panel) of a full plain panel."""
    rng = np.random.default_rng(12)
    calendar = weekdays(date(2018, 1, 1), n_days)
    ret = rng.normal(0.0, 0.02, size=(len(calendar), n_firms)).tolist()
    cap = rng.uniform(1e9, 9e10, size=(len(calendar), n_firms)).tolist()
    lines = [PANEL_HEADER]
    for t, d in enumerate(calendar):
        for k in range(n_firms):
            exchange = "main" if k % 3 else "secondary"
            lines.append(
                f"F{k:03d},{d},{ret[t][k]!r},{cap[t][k]!r},{exchange},"
                f"{cap[t][k] * 0.6!r},{cap[t][k] * 0.05!r},{cap[t][k] * 1.1!r},{cap[t][k]!r}"
            )
    p = tmp_path / "panel.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        panel = load_panel(p)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.present.all()
    return panel, peak


# tracemalloc sees neither the shared-memory arrays nor a child of the split
# parse, so the bounds are checked on the serial path, where it sees everything.


def test_load_panel_traced_peak_stays_within_four_panels(tmp_path, monkeypatch):
    monkeypatch.setattr(factors, "_range_count", lambda: 1)
    panel, peak = _traced_load(tmp_path, 40, 1000)
    nbytes = sum(getattr(panel, name).nbytes for name in ("present", "is_main") + PANEL_FIELDS)
    assert peak <= 4 * nbytes, peak / nbytes


def test_load_panel_holds_the_row_floats_and_the_dense_panel_once(tmp_path, monkeypatch):
    # 48 bytes a row for the six parsed floats and 50 a cell for the dense
    # fields and their two masks: the two forms are never both held whole.
    monkeypatch.setattr(factors, "_range_count", lambda: 1)
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 1024)
    panel, peak = _traced_load(tmp_path, 100, 500)
    rows = cells = panel.present.size
    assert peak < 48 * rows + 50 * cells, peak / 2**20
