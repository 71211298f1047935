from datetime import date, timedelta

import numpy as np
import pytest

from sentimetrics.eventstudy import (
    EventAlignmentError,
    EventWindowConfig,
    InsufficientObservationsError,
    N_PARAMS,
    RankDeficientDesignError,
    REGRESSOR_NAMES,
    align_event_date,
    compute_ar,
    estimate_exposures,
    pool_aar_caar,
    run_event_study,
)
from sentimetrics.factors import FACTOR_NAMES, FactorSeries, PanelRow, SecurityPanel
from sentimetrics.eventstudy import ArPath
from sentimetrics.sentiment import StockSentimentEvent


def _weekdays(start, n):
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def _factors(n_days, seed=0, start=date(2020, 1, 6)):
    rng = np.random.default_rng(seed)
    dates = _weekdays(start, n_days)
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
    cal = _weekdays(date(2022, 1, 3), 10)
    assert align_event_date(cal[4], cal) == cal[4]


def test_align_weekend_rolls_forward():
    cal = _weekdays(date(2022, 1, 3), 10)
    sat = date(2022, 1, 8)
    assert align_event_date(sat, cal) == date(2022, 1, 10)


def test_align_before_start_maps_to_first_day():
    cal = _weekdays(date(2022, 1, 3), 10)
    assert align_event_date(date(2021, 12, 25), cal) == cal[0]


def test_align_past_end_errors():
    cal = _weekdays(date(2022, 1, 3), 10)
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
    est = estimate_exposures(excess, factors, SHORT_WINDOW, event_date, "F0")
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
    est = estimate_exposures(excess, factors, SHORT_WINDOW, event_date)

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
        estimate_exposures(sparse, factors, SHORT_WINDOW, event_date)


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
        estimate_exposures(sparse, factors, window, event_date)


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
        estimate_exposures(excess, clone, SHORT_WINDOW, clone.dates[110])


def test_event_date_off_calendar_errors():
    factors = _factors(100, seed=8)
    with pytest.raises(EventAlignmentError, match="not on the factor calendar"):
        estimate_exposures({}, factors, SHORT_WINDOW, date(2019, 1, 1))


# ---------------------------------------------------------------------------
# Abnormal returns


def test_ar_zero_for_model_consistent_returns():
    factors = _factors(130, seed=9)
    rng = np.random.default_rng(10)
    slopes = rng.normal(0.0, 0.4, 15)
    excess = _linear_excess(factors, 0.0003, slopes)
    event_date = factors.dates[95]
    est = estimate_exposures(excess, factors, SHORT_WINDOW, event_date)
    path = compute_ar(est, excess, factors, SHORT_WINDOW, event_date)
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
    est = estimate_exposures(bumped, factors, SHORT_WINDOW, event_date)
    path = compute_ar(est, bumped, factors, SHORT_WINDOW, event_date)
    for rel, bump in bumps.items():
        assert path.value_at(rel) == pytest.approx(bump, abs=1e-10)


def test_ar_nan_past_calendar_end():
    factors = _factors(100, seed=13)
    rng = np.random.default_rng(14)
    excess = _linear_excess(factors, 0.0, rng.normal(0, 0.3, 15))
    event_date = factors.dates[96]  # evt window runs past the last date
    est = estimate_exposures(excess, factors, SHORT_WINDOW, event_date)
    path = compute_ar(est, excess, factors, SHORT_WINDOW, event_date)
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


# ---------------------------------------------------------------------------
# Full run


def _panel_from_returns(returns_by_firm, calendar, rf):
    data = {}
    for firm, excess in returns_by_firm.items():
        rows = {}
        for i, d in enumerate(calendar):
            if d in excess:
                rows[d] = PanelRow(excess[d] + rf, 1e9, "main", 5e8, 5e7, 1e9, 1e9)
        data[firm] = rows
    return SecurityPanel.from_rows(data, list(calendar))


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
