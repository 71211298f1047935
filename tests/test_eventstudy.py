from datetime import date, timedelta

import numpy as np
import pytest

from sentimetrics.eventstudy import (
    EventAlignmentError,
    EventWindowConfig,
    ExposureEstimate,
    InsufficientObservationsError,
    N_PARAMS,
    RankDeficientDesignError,
    REGRESSOR_NAMES,
    _count_overlaps,
    align_event_date,
    compute_ar,
    estimate_exposures,
    pool_aar_caar,
    run_event_study,
)
from sentimetrics.factors import FACTOR_NAMES, FactorSeries
from sentimetrics.eventstudy import ArPath
from sentimetrics.sentiment import StockSentimentEvent

from helpers import Row, on_calendar, panel_from_rows, weekdays


def _factors(n_days, seed=0, start=date(2020, 1, 6)):
    rng = np.random.default_rng(seed)
    dates = weekdays(start, n_days)
    return FactorSeries(
        dates=dates,
        rmrf=rng.normal(0.0003, 0.01, n_days),
        smb=rng.normal(0.0, 0.005, n_days),
        hml=rng.normal(0.0, 0.005, n_days),
        rmw=rng.normal(0.0, 0.004, n_days),
        cma=rng.normal(0.0, 0.004, n_days),
        rf=np.full(n_days, 1e-4),
    )


SHORT_WINDOW = EventWindowConfig(
    est_start=-60, est_end=-6, evt_start=-5, evt_len=10, min_est_obs=20
)


def _linear_excess(factors, alpha, slopes):
    """Noiseless returns that satisfy the lead/lag model exactly on interior days."""
    n = len(factors.dates)
    out = {}
    mats = np.column_stack([getattr(factors, f) for f in FACTOR_NAMES])
    for t in range(1, n - 1):
        acc = alpha
        for j in range(5):
            acc += (
                slopes[3 * j] * mats[t - 1, j]
                + slopes[3 * j + 1] * mats[t, j]
                + slopes[3 * j + 2] * mats[t + 1, j]
            )
        out[factors.dates[t]] = acc
    return out


def test_regressor_layout_factor_major():
    assert REGRESSOR_NAMES[:3] == ("rmrf_lag1", "rmrf", "rmrf_lead1")
    assert len(REGRESSOR_NAMES) == 15
    assert N_PARAMS == 16
    assert REGRESSOR_NAMES[3] == "smb_lag1"


# ---------------------------------------------------------------------------
# Alignment


def test_align_trading_day_is_identity():
    cal = weekdays(date(2022, 1, 3), 10)
    assert align_event_date(cal[4], cal) == cal[4]


def test_align_weekend_rolls_forward():
    cal = weekdays(date(2022, 1, 3), 10)
    sat = date(2022, 1, 8)
    assert align_event_date(sat, cal) == date(2022, 1, 10)


def test_align_before_start_maps_to_first_day():
    cal = weekdays(date(2022, 1, 3), 10)
    assert align_event_date(date(2021, 12, 25), cal) == cal[0]


def test_align_past_end_errors():
    cal = weekdays(date(2022, 1, 3), 10)
    with pytest.raises(EventAlignmentError):
        align_event_date(cal[-1] + timedelta(days=3), cal)


# ---------------------------------------------------------------------------
# Exposure estimation


def test_exact_recovery_on_noiseless_returns():
    factors = _factors(120, seed=1)
    rng = np.random.default_rng(2)
    alpha = 0.0004
    slopes = rng.normal(0.0, 0.5, 15)
    excess = _linear_excess(factors, alpha, slopes)
    event_date = factors.dates[90]
    est = estimate_exposures(
        on_calendar(excess, factors), factors, SHORT_WINDOW, event_date, "F0"
    )
    assert est.alpha == pytest.approx(alpha, abs=1e-10)
    assert np.allclose(est.slopes, slopes, atol=1e-10)
    assert est.residual_variance == pytest.approx(0.0, abs=1e-18)
    assert est.firm_id == "F0"


def test_estimates_match_normal_equations_oracle():
    factors = _factors(150, seed=3)
    rng = np.random.default_rng(4)
    slopes = rng.normal(0.0, 0.5, 15)
    excess = {
        d: v + rng.normal(0.0, 0.002)
        for d, v in _linear_excess(factors, 0.0002, slopes).items()
    }
    event_date = factors.dates[110]
    est = estimate_exposures(on_calendar(excess, factors), factors, SHORT_WINDOW, event_date)

    # Rebuild the design by hand and solve X'X b = X'y.
    event_idx = factors.dates.index(event_date)
    mats = np.column_stack([getattr(factors, f) for f in FACTOR_NAMES])
    rows, ys = [], []
    for rel in range(SHORT_WINDOW.est_start, SHORT_WINDOW.est_end + 1):
        idx = event_idx + rel
        d = factors.dates[idx]
        row = [1.0]
        for j in range(5):
            row.extend([mats[idx - 1, j], mats[idx, j], mats[idx + 1, j]])
        rows.append(row)
        ys.append(excess[d])
    X = np.array(rows)
    y = np.array(ys)
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    assert est.alpha == pytest.approx(beta[0], abs=1e-8)
    assert np.allclose(est.slopes, beta[1:], atol=1e-8)
    assert est.n_obs == len(ys)

    resid = y - X @ np.concatenate([[est.alpha], est.slopes])
    assert np.max(np.abs(X.T @ resid)) < 1e-8 * len(ys)
    assert est.residual_variance == pytest.approx(
        float(resid @ resid) / (len(ys) - N_PARAMS), rel=1e-9
    )


def test_insufficient_observations_raises():
    factors = _factors(120, seed=5)
    event_date = factors.dates[90]
    sparse = {factors.dates[t]: 0.001 for t in range(40, 55)}  # 15 < 20 required
    with pytest.raises(InsufficientObservationsError):
        estimate_exposures(on_calendar(sparse, factors), factors, SHORT_WINDOW, event_date)


def test_min_obs_floor_is_one_more_than_params():
    # Even with min_est_obs=1 the solver needs 17 usable days.
    window = EventWindowConfig(est_start=-60, est_end=-6, evt_start=-5, evt_len=2, min_est_obs=1)
    factors = _factors(120, seed=6)
    event_date = factors.dates[90]
    slopes = np.zeros(15)
    full = _linear_excess(factors, 0.001, slopes)
    event_idx = factors.dates.index(event_date)
    kept_dates = [factors.dates[event_idx + rel] for rel in range(-22, -6)]  # 16 days
    sparse = {d: full[d] for d in kept_dates}
    with pytest.raises(InsufficientObservationsError):
        estimate_exposures(on_calendar(sparse, factors), factors, window, event_date)


def test_duplicated_factor_is_rank_deficient():
    factors = _factors(150, seed=7)
    clone = FactorSeries(
        dates=factors.dates,
        rmrf=factors.rmrf,
        smb=factors.smb,
        hml=factors.smb.copy(),  # identical columns
        rmw=factors.rmw,
        cma=factors.cma,
        rf=factors.rf,
    )
    excess = {d: 0.001 for d in clone.dates}
    with pytest.raises(RankDeficientDesignError):
        estimate_exposures(on_calendar(excess, clone), clone, SHORT_WINDOW, clone.dates[110])


def test_event_date_off_calendar_errors():
    factors = _factors(100, seed=8)
    with pytest.raises(EventAlignmentError, match="not on the factor calendar"):
        estimate_exposures(on_calendar({}, factors), factors, SHORT_WINDOW, date(2019, 1, 1))


# ---------------------------------------------------------------------------
# Abnormal returns


def test_ar_zero_for_model_consistent_returns():
    factors = _factors(130, seed=9)
    rng = np.random.default_rng(10)
    slopes = rng.normal(0.0, 0.4, 15)
    excess = _linear_excess(factors, 0.0003, slopes)
    event_date = factors.dates[95]
    est = estimate_exposures(on_calendar(excess, factors), factors, SHORT_WINDOW, event_date)
    path = compute_ar(est, on_calendar(excess, factors), factors, SHORT_WINDOW, event_date)
    assert path.t0 == SHORT_WINDOW.evt_start
    assert len(path.values) == SHORT_WINDOW.evt_len + 1
    assert np.all(np.isfinite(path.values))
    assert np.max(np.abs(path.values)) < 1e-10


def test_ar_shifts_one_for_one_with_return_bumps():
    factors = _factors(130, seed=11)
    rng = np.random.default_rng(12)
    slopes = rng.normal(0.0, 0.4, 15)
    base = _linear_excess(factors, 0.0003, slopes)
    event_date = factors.dates[95]
    event_idx = factors.dates.index(event_date)
    bumped = dict(base)
    bumps = {}
    for rel in range(SHORT_WINDOW.evt_start, SHORT_WINDOW.evt_end + 1):
        d = factors.dates[event_idx + rel]
        bump = 0.001 * (rel + 6)
        bumped[d] = base[d] + bump
        bumps[rel] = bump
    est = estimate_exposures(on_calendar(bumped, factors), factors, SHORT_WINDOW, event_date)
    path = compute_ar(est, on_calendar(bumped, factors), factors, SHORT_WINDOW, event_date)
    for rel, bump in bumps.items():
        assert path.value_at(rel) == pytest.approx(bump, abs=1e-10)


def test_ar_nan_past_calendar_end():
    factors = _factors(100, seed=13)
    rng = np.random.default_rng(14)
    excess = _linear_excess(factors, 0.0, rng.normal(0, 0.3, 15))
    event_date = factors.dates[96]  # evt window runs past the last date
    est = estimate_exposures(on_calendar(excess, factors), factors, SHORT_WINDOW, event_date)
    path = compute_ar(est, on_calendar(excess, factors), factors, SHORT_WINDOW, event_date)
    # rel +2 is the penultimate calendar day (lead regressor exists), +3 on
    # the last day has no lead, beyond that there is no calendar at all.
    assert np.isfinite(path.value_at(2))
    assert np.isnan(path.value_at(3))
    assert np.isnan(path.value_at(SHORT_WINDOW.evt_end))


# ---------------------------------------------------------------------------
# Pooling


def _path(firm, values, t0=-2):
    return ArPath(
        firm_id=firm,
        announce_date=date(2022, 6, 1),
        event_date=date(2022, 6, 1),
        t0=t0,
        values=np.array(values),
    )


def test_pool_hand_matrix():
    nan = float("nan")
    paths = [
        _path("A", [0.01, 0.02, 0.03, 0.04, 0.05]),
        _path("B", [0.00, nan, 0.01, -0.01, 0.02]),
        _path("C", [-0.01, 0.01, nan, 0.03, nan]),
    ]
    res = pool_aar_caar(paths, -2, 4, group="g")
    assert list(res.rel_days) == [-2, -1, 0, 1, 2]
    want_aar = [0.0, 0.015, 0.02, 0.02, 0.035]
    assert np.allclose(res.aar, want_aar, atol=1e-15)
    assert list(res.n_events_per_day) == [3, 2, 2, 3, 2]
    want_caar = np.cumsum(want_aar)
    assert np.allclose(res.caar, want_caar, atol=1e-15)
    assert res.n_events == 3
    assert res.group == "g"
    assert res.t0 == -2 and res.t_end == 2


def test_caar_telescopes_bitwise():
    rng = np.random.default_rng(15)
    paths = [_path(f"F{i}", rng.normal(0, 0.01, 21), t0=-10) for i in range(7)]
    res = pool_aar_caar(paths, -10, 20)
    running = 0.0
    for k in range(21):
        running = running + res.aar[k]
        assert res.caar[k] == running  # bitwise, same summation order


def test_post_window_restarts_running_sum():
    rng = np.random.default_rng(16)
    paths = [_path(f"F{i}", rng.normal(0, 0.01, 11), t0=-5) for i in range(4)]
    full = pool_aar_caar(paths, -5, 10)
    post = pool_aar_caar(paths, 0, 5)
    assert post.caar[0] == post.aar[0]
    assert np.allclose(post.aar, full.aar[5:], atol=0, rtol=0, equal_nan=True)
    assert abs(post.caar[-1] - (full.caar[-1] - full.caar[4])) < 1e-15


def test_pool_is_event_order_invariant():
    rng = np.random.default_rng(17)
    paths = [_path(f"F{i}", rng.normal(0, 0.01, 5), t0=0) for i in range(5)]
    a = pool_aar_caar(paths, 0, 4)
    b = pool_aar_caar(paths[::-1], 0, 4)
    assert np.allclose(a.aar, b.aar, atol=1e-15)
    assert np.allclose(a.caar, b.caar, atol=1e-15)


def test_pool_empty_list_errors():
    with pytest.raises(ValueError):
        pool_aar_caar([], 0, 5)


def test_pool_rejects_paths_with_different_windows():
    paths = [_path("A", [0.01] * 5, t0=-2), _path("B", [0.01] * 5, t0=-1)]
    with pytest.raises(ValueError, match="t0"):
        pool_aar_caar(paths, -1, 3)
    paths = [_path("A", [0.01] * 5), _path("B", [0.01] * 4)]
    with pytest.raises(ValueError, match="length"):
        pool_aar_caar(paths, -2, 3)
    with pytest.raises(ValueError, match="outside"):
        pool_aar_caar(paths[:1], 0, 3)


# ---------------------------------------------------------------------------
# Full run


def _panel_from_returns(returns_by_firm, calendar, rf):
    data = {}
    for firm, excess in returns_by_firm.items():
        rows = {}
        for i, d in enumerate(calendar):
            if d in excess:
                rows[d] = Row(excess[d] + rf, 1e9, "main", 5e8, 5e7, 1e9, 1e9)
        data[firm] = rows
    return panel_from_rows(data, calendar)


def test_run_event_study_groups_and_excludes():
    factors = _factors(140, seed=18)
    rng = np.random.default_rng(19)
    returns = {
        "GOOD": _linear_excess(factors, 0.0, rng.normal(0, 0.3, 15)),
        "POOR": {factors.dates[t]: 0.001 for t in range(50, 60)},  # too sparse
    }
    panel = _panel_from_returns(returns, factors.dates, 1e-4)
    events = [
        StockSentimentEvent("GOOD", factors.dates[100], 0.5, "positive"),
        StockSentimentEvent("GOOD", factors.dates[110], -0.5, "negative"),
        StockSentimentEvent("POOR", factors.dates[100], 0.5, "positive"),
        StockSentimentEvent("GHOST", factors.dates[100], 0.5, "positive"),
        StockSentimentEvent("GOOD", factors.dates[-1] + timedelta(days=5), 0.5, "positive"),
    ]
    run = run_event_study(events, panel, factors, SHORT_WINDOW)

    assert set(run.results) == {"positive_full", "positive_post", "negative_full", "negative_post"}
    assert run.results["positive_full"].n_events == 1
    assert run.results["negative_full"].n_events == 1
    reasons = {(e.firm_id, e.reason.split(":")[0]) for e in run.exclusions}
    assert ("GHOST", "firm not in panel") in reasons
    assert any(e.firm_id == "POOR" for e in run.exclusions)
    assert any("no trading day" in e.reason for e in run.exclusions if e.firm_id == "GOOD")
    assert len(run.exclusions) == 3

    post = run.results["positive_post"]
    assert post.t0 == 0
    assert post.caar[0] == post.aar[0]


def test_run_event_study_counts_same_firm_overlaps():
    factors = _factors(160, seed=20)
    rng = np.random.default_rng(21)
    returns = {"F": _linear_excess(factors, 0.0, rng.normal(0, 0.3, 15))}
    panel = _panel_from_returns(returns, factors.dates, 1e-4)
    # 5 indices apart with an 11-day window: overlapping pair.
    events = [
        StockSentimentEvent("F", factors.dates[100], 0.5, "positive"),
        StockSentimentEvent("F", factors.dates[105], 0.6, "positive"),
    ]
    run = run_event_study(events, panel, factors, SHORT_WINDOW)
    assert run.overlap_count == 2

    spaced = [
        StockSentimentEvent("F", factors.dates[90], 0.5, "positive"),
        StockSentimentEvent("F", factors.dates[120], 0.6, "positive"),
    ]
    run2 = run_event_study(spaced, panel, factors, SHORT_WINDOW)
    assert run2.overlap_count == 0


def test_default_window_shape():
    w = EventWindowConfig()
    assert (w.est_start, w.est_end) == (-273, -21)
    assert (w.evt_start, w.evt_len, w.evt_end) == (-20, 40, 20)
    assert w.min_est_obs == 120


def test_window_validation():
    with pytest.raises(ValueError):
        EventWindowConfig(est_start=-10, est_end=-20, evt_start=-5)
    with pytest.raises(ValueError):
        EventWindowConfig(est_start=-30, est_end=-10, evt_start=-5, min_est_obs=200)


# ---------------------------------------------------------------------------
# Equivalence with the row-by-row design and the pairwise overlap loop


def _old_design_row(factors, idx):
    if idx - 1 < 0 or idx + 1 >= len(factors.dates):
        return None
    row = np.empty(N_PARAMS)
    row[0] = 1.0
    k = 1
    for name in FACTOR_NAMES:
        series = getattr(factors, name)
        row[k] = series[idx - 1]
        row[k + 1] = series[idx]
        row[k + 2] = series[idx + 1]
        k += 3
    return row


def _old_rows(excess, factors, event_idx, first, last):
    """(offset, design row, return) for each usable day, built one row at a time."""
    out = []
    for offset, rel in enumerate(range(first, last + 1)):
        idx = event_idx + rel
        if idx < 0 or idx >= len(factors.dates):
            continue
        ret = excess.get(factors.dates[idx])
        if ret is None or np.isnan(ret):
            continue
        row = _old_design_row(factors, idx)
        if row is not None:
            out.append((offset, row, ret))
    return out


def _old_estimate(excess, factors, window, event_date):
    event_idx = factors.index_of(event_date)
    rows = _old_rows(excess, factors, event_idx, window.est_start, window.est_end)
    required = max(window.min_est_obs, N_PARAMS + 1)
    if len(rows) < required:
        return None
    X = np.vstack([row for _o, row, _r in rows])
    y = np.asarray([ret for _o, _row, ret in rows])
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    return float(beta[0]), beta[1:].copy(), len(rows), float(resid @ resid) / (len(rows) - N_PARAMS)


def _old_ar(alpha, slopes, excess, factors, window, event_date):
    event_idx = factors.index_of(event_date)
    values = np.full(window.evt_len + 1, np.nan)
    for offset, row, ret in _old_rows(excess, factors, event_idx, window.evt_start, window.evt_end):
        values[offset] = ret - (row[0] * alpha + float(row[1:] @ slopes))
    return values


def test_sliced_design_matches_row_by_row_design_bitwise():
    n_days = 120
    factors = _factors(n_days, seed=30)
    rng = np.random.default_rng(31)
    window = EventWindowConfig(
        est_start=-70, est_end=-11, evt_start=-10, evt_len=25, min_est_obs=20
    )
    compared = excluded = 0
    for trial in range(12):
        excess = {d: float(rng.normal(0, 0.02)) for d in factors.dates}
        for d in rng.choice(factors.dates, size=int(rng.integers(0, 30)), replace=False):
            if rng.random() < 0.5:
                del excess[d]
            else:
                excess[d] = float("nan")
        # Windows that hit the first and last calendar days, windows wholly
        # off the calendar, and interior ones.
        for event_idx in (0, 1, 5, 25, 40, 60, 71, 100, 110, n_days - 2, n_days - 1):
            event_date = factors.dates[event_idx]
            old = _old_estimate(excess, factors, window, event_date)
            if old is None:
                with pytest.raises(InsufficientObservationsError):
                    estimate_exposures(on_calendar(excess, factors), factors, window, event_date)
                excluded += 1
                continue
            est = estimate_exposures(
                on_calendar(excess, factors), factors, window, event_date, "F"
            )
            assert np.float64(est.alpha).tobytes() == np.float64(old[0]).tobytes()
            assert est.slopes.tobytes() == old[1].tobytes()
            assert est.n_obs == old[2]
            assert np.float64(est.residual_variance).tobytes() == np.float64(old[3]).tobytes()
            ar = compute_ar(est, on_calendar(excess, factors), factors, window, event_date)
            old_ar = _old_ar(old[0], old[1], excess, factors, window, event_date)
            assert ar.values.tobytes() == old_ar.tobytes()
            compared += 1
    assert compared > 50 and excluded > 20


def _old_count_overlaps(event_indices, evt_len):
    count = 0
    for indices in event_indices.values():
        indices = sorted(indices)
        flagged = [False] * len(indices)
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                if indices[b] - indices[a] <= evt_len:
                    flagged[a] = True
                    flagged[b] = True
        count += sum(flagged)
    return count


def test_count_overlaps_matches_pairwise_loop():
    rng = np.random.default_rng(32)
    for _ in range(500):
        evt_len = int(rng.choice([0, 0, 1, 3, 10, 40]))
        event_indices = {
            f"F{f}": [int(i) for i in rng.integers(0, 60, size=int(rng.integers(0, 12)))]
            for f in range(int(rng.integers(1, 4)))
        }
        expected = _old_count_overlaps(event_indices, evt_len)
        assert _count_overlaps(event_indices, evt_len) == expected
    # Duplicate indices overlap even with a zero-length window.
    assert _count_overlaps({"F": [7, 7, 9]}, 0) == 2


def test_compute_ar_matches_row_by_row_loop_bitwise():
    n_days = 80
    factors = _factors(n_days, seed=33)
    rng = np.random.default_rng(34)
    window = EventWindowConfig(
        est_start=-40, est_end=-11, evt_start=-10, evt_len=25, min_est_obs=20
    )
    for _ in range(200):
        excess = {}
        for d, r, u in zip(factors.dates, rng.normal(0, 0.02, n_days), rng.random(n_days)):
            if u > 0.1:
                excess[d] = float("nan") if u > 0.95 else float(r)
        est = ExposureEstimate("F", float(rng.normal(0, 1e-3)), rng.normal(0, 0.5, 15), 0, 0.0)
        # Event days anywhere on the calendar: windows clamped at either end.
        event_date = factors.dates[int(rng.integers(0, n_days))]
        ar = compute_ar(est, on_calendar(excess, factors), factors, window, event_date)
        want = _old_ar(est.alpha, est.slopes, excess, factors, window, event_date)
        assert ar.values.tobytes() == want.tobytes()


def _loop_pool(paths, t0, t_len):
    """AAR, CAAR and counts by the day-by-day, path-by-path running total."""
    aar = np.full(t_len + 1, np.nan)
    n_per_day = np.zeros(t_len + 1, dtype=int)
    for k in range(t_len + 1):
        total = 0.0
        count = 0
        for path in paths:
            v = path.values[t0 + k - path.t0]
            if not np.isnan(v):
                total += v
                count += 1
        if count > 0:
            aar[k] = total / count
        n_per_day[k] = count
    caar = np.empty(t_len + 1)
    running = 0.0
    for k in range(t_len + 1):
        running = running + aar[k]
        caar[k] = running
    return aar, caar, n_per_day


def test_pool_matches_sequential_loop_bitwise():
    rng = np.random.default_rng(35)
    for n_paths in list(range(1, 12)) * 5:
        values = rng.normal(0, 0.01, (n_paths, 21))
        values[rng.random(values.shape) < 0.2] = np.nan
        values[:, 3] = np.nan  # no event has day 3: AAR NaN, count 0
        values[0, 4] = -0.0
        values[:, 5] = np.nan
        values[0, 5] = -0.0  # a day whose only AR is -0.0
        paths = [_path(f"F{i}", row, t0=-10) for i, row in enumerate(values)]
        for t0, t_len in ((-10, 20), (0, 10)):
            res = pool_aar_caar(paths, t0, t_len)
            aar, caar, n_per_day = _loop_pool(paths, t0, t_len)
            assert res.aar.tobytes() == aar.tobytes()
            assert res.caar.tobytes() == caar.tobytes()
            assert res.n_events_per_day.tobytes() == n_per_day.tobytes()
        full = pool_aar_caar(paths, -10, 20)
        assert np.isnan(full.aar[3]) and full.n_events_per_day[3] == 0
        assert full.aar[5] == 0.0 and not np.signbit(full.aar[5])
