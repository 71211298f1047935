from datetime import date

import numpy as np
import pytest

from sentimetrics.factors import (
    CalendarAlignmentError,
    DegenerateBreakpointsError,
    FactorSeries,
    PanelFormatError,
    construct_factors,
    load_controls,
    load_panel,
    read_factors_csv,
    rebalance_schedule,
)
from sentimetrics.tables import FACTORS, dated_columns, write_table

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
    sched = rebalance_schedule(calendar)
    assert sched[0] == calendar[0]
    julys = [d for d in sched[1:]]
    assert julys[0] == next(d for d in calendar if d >= date(2021, 7, 1))
    assert julys[1] == next(d for d in calendar if d >= date(2022, 7, 1))
    assert len(sched) == 3


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
    write_table(p, FACTORS, dated_columns(series, FACTORS))
    back = read_factors_csv(p)
    assert back.dates == calendar
    for name in ("rmrf", "smb", "hml", "rmw", "cma", "rf"):
        assert np.array_equal(getattr(back, name), getattr(series, name)), name


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
