import warnings
from bisect import bisect_left
from datetime import date, timedelta

import numpy as np
import pytest

from sentimetrics.sentiment import SentimentObservation
from sentimetrics.timing import (
    EXCLUSIVE,
    INCLUSIVE,
    SignalSeries,
    backtest_strategy,
    build_signal,
    lagged_signal_values,
    r2_scan,
    signal_rows,
    timing_observations,
)
from sentimetrics import cli
from sentimetrics.cli import RunConfig
from sentimetrics.factors import FactorSeries
from sentimetrics.tables import (
    FACTORS, R2_SCAN, SENTIMENT, SIGNALS, write_items, write_rows, write_series, write_table,
)

from helpers import weekdays


def _obs(scores, start=date(2022, 1, 3)):
    dates = weekdays(start, len(scores))
    out = []
    for d, s in zip(dates, scores):
        if s is None:
            out.append(SentimentObservation(d, 0, 0, None))
        else:
            out.append(SentimentObservation(d, 3, 1, s))
    return out


HAND_SCORES = [0.10, 0.30, 0.20, 0.50, 0.40, 0.60, 0.10, 0.20, 0.70, 0.30]


def test_signal_hand_values_inclusive_n3():
    series = build_signal(_obs(HAND_SCORES), 3)
    # First emission at index 3; window is the 3 scores ending at the current day.
    assert len(series.values) == 7
    assert series.dates[0] == weekdays(date(2022, 1, 3), 10)[3]
    assert list(series.values) == [1, 1, 1, 0, 0, 1, 0]


def test_signal_hand_values_inclusive_n5():
    series = build_signal(_obs(HAND_SCORES), 5)
    assert len(series.values) == 5
    assert list(series.values) == [1, 0, 0, 1, 0]


def test_signal_exclusive_window_drops_current_day():
    # scores: 0.2 vs mean of the two before it.
    series = build_signal(_obs([0.10, 0.30, 0.20, 0.50]), 2, mode=EXCLUSIVE)
    # idx2: 0.20 vs mean(0.10, 0.30) = 0.20 -> not strictly above -> 0
    # idx3: 0.50 vs mean(0.30, 0.20) = 0.25 -> 1
    assert list(series.values) == [0, 1]
    inclusive = build_signal(_obs([0.10, 0.30, 0.20, 0.50]), 2)
    # idx2: 0.20 vs mean(0.30, 0.20) = 0.25 -> 0; idx3: 0.50 vs 0.35 -> 1
    assert list(inclusive.values) == [0, 1]
    assert inclusive.dates == series.dates


def test_constant_scores_give_all_zeros():
    series = build_signal(_obs([0.4] * 8), 3)
    assert list(series.values) == [0] * 5


def test_strictly_increasing_scores_give_all_ones():
    series = build_signal(_obs([0.1 * k for k in range(1, 9)]), 4)
    assert list(series.values) == [1] * 4


def test_affine_rescaling_keeps_signal():
    rng = np.random.default_rng(0)
    for trial in range(20):
        scores = rng.uniform(-0.9, 0.9, 15)
        a = rng.uniform(0.1, 3.0)
        b = rng.uniform(-0.5, 0.5)
        base = build_signal(_obs(list(scores)), 4)
        scaled = build_signal(_obs(list(a * scores + b)), 4)
        assert list(base.values) == list(scaled.values), trial


def test_window_longer_than_series_is_empty_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = build_signal(_obs([0.1, 0.2, 0.3]), 3)
    assert series.dates == []
    assert series.values.size == 0


def test_build_signal_rejects_bad_args():
    with pytest.raises(ValueError, match="window length"):
        build_signal(_obs([0.1, 0.2]), 0)
    with pytest.raises(ValueError, match="mode"):
        build_signal(_obs([0.1, 0.2]), 1, mode="centered")
    shuffled = _obs([0.1, 0.2, 0.3])[::-1]
    with pytest.raises(ValueError, match="ascending"):
        build_signal(shuffled, 1)


def test_timing_observations_drops_zero_and_undefined():
    obs = _obs([0.5, None, 0.0, -0.3])
    kept = timing_observations(obs)
    assert [o.score for o in kept] == [0.5, -0.3]


def test_none_scores_skipped_inside_build_signal():
    # A None mixed into the series must not occupy a window slot.
    scores = [0.10, None, 0.30, 0.20, 0.50]
    series = build_signal(_obs(scores), 2)
    defined = build_signal(_obs([0.10, 0.30, 0.20, 0.50]), 2)
    assert list(series.values) == list(defined.values)


# ---------------------------------------------------------------------------
# Calendar mapping


def test_signal_maps_to_next_trading_day():
    cal = weekdays(date(2022, 1, 3), 10)
    series = SignalSeries(
        n=1, dates=[date(2022, 1, 8)], values=np.array([1])
    )  # Saturday
    lagged = lagged_signal_values(series, cal, 0)
    assert np.flatnonzero(~np.isnan(lagged)).tolist() == [cal.index(date(2022, 1, 10))]
    assert lagged[cal.index(date(2022, 1, 10))] == 1


def test_latest_signal_wins_when_rolling_collides():
    cal = [date(2022, 1, 3), date(2022, 1, 10)]
    series = SignalSeries(
        n=1,
        dates=[date(2022, 1, 5), date(2022, 1, 8)],  # both roll to Jan 10
        values=np.array([1, 0]),
    )
    lagged = lagged_signal_values(series, cal, 0)
    assert np.isnan(lagged[0]) and lagged[1] == 0


def test_signal_past_calendar_end_dropped():
    cal = weekdays(date(2022, 1, 3), 5)
    series = SignalSeries(
        n=1, dates=[date(2022, 3, 1)], values=np.array([1])
    )
    assert np.isnan(lagged_signal_values(series, cal, 0)).all()


def test_lagged_values_shift_by_trading_days():
    cal = weekdays(date(2022, 1, 3), 6)
    series = SignalSeries(
        n=1, dates=[cal[0], cal[1], cal[2]], values=np.array([1, 0, 1])
    )
    lagged = lagged_signal_values(series, cal, 2)
    assert np.isnan(lagged[0]) and np.isnan(lagged[1])
    assert lagged[2] == 1 and lagged[3] == 0 and lagged[4] == 1
    assert np.isnan(lagged[5])
    with pytest.raises(ValueError):
        lagged_signal_values(series, cal, -1)


@pytest.mark.parametrize("lag", [6, 7, 2**63, 10**30])
def test_a_lag_at_or_past_the_calendar_length_leaves_every_day_undefined(lag):
    cal = weekdays(date(2022, 1, 3), 6)
    series = SignalSeries(n=1, dates=cal[:3], values=np.array([1, 0, 1]))
    lagged = lagged_signal_values(series, cal, lag)
    assert lagged.shape == (6,) and np.isnan(lagged).all()


# ---------------------------------------------------------------------------
# r2 scan


def test_r2_one_when_market_follows_signal():
    cal = weekdays(date(2022, 1, 3), 12)
    values = [1, 0, 1, 1, 0, 1, 0, 0, 1, 0]
    lag = 2

    # Scores that step up for a 1 and down for a 0: the exclusive N=1 signal
    # at cal[j] is then exactly values[j-1], so the lag-2 value on trading day
    # k is values[k-3].
    scores = [0.0]
    for v in values:
        scores.append(scores[-1] + (0.5 if v else -0.5))
    obs = [SentimentObservation(d, 1, 1, s) for d, s in zip(cal[:11], scores)]
    market = np.zeros(12)
    for k in range(3, 12):
        market[k] = 0.01 if values[k - 3] == 1 else -0.01

    lagged = lagged_signal_values(build_signal(obs, 1, mode=EXCLUSIVE), cal, lag)
    scan = r2_scan(lagged, market)
    assert isinstance(scan, tuple) and len(scan) == 2  # one array, one (r2, sign) pair
    r2, sign = scan
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert sign == "+"

    r2, sign = r2_scan(lagged, -market)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert sign == "-"


def test_r2_none_when_signal_constant():
    cal = weekdays(date(2022, 1, 3), 10)
    obs = _obs([0.1 * k for k in range(1, 9)])  # rising -> all-ones signal
    rng = np.random.default_rng(1)
    market = rng.normal(0, 0.01, 10)
    assert r2_scan(lagged_signal_values(build_signal(obs, 3), cal, 1), market) == (None, "")


def test_r2_none_when_no_overlap():
    cal = weekdays(date(2022, 1, 3), 4)
    obs = _obs([0.3, -0.2, 0.4, -0.1, 0.2, -0.3], start=date(2023, 1, 2))
    market = np.zeros(4)
    assert r2_scan(lagged_signal_values(build_signal(obs, 2), cal, 0), market) == (None, "")


def test_r2_scan_handles_oversized_windows_quietly():
    cal = weekdays(date(2022, 1, 3), 6)
    obs = _obs([0.3, -0.2, 0.4])
    market = np.zeros(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty = SignalSeries(10, [], np.zeros(0, int))
        scan = r2_scan(lagged_signal_values(empty, cal, 1), market)
    assert scan == (None, "")


# ---------------------------------------------------------------------------
# Backtest


def _mk_signal(cal, values, n=1):
    return SignalSeries(n=n, dates=list(cal[: len(values)]), values=np.asarray(values))


def test_always_long_matches_benchmark_exactly():
    cal = weekdays(date(2022, 1, 3), 40)
    rng = np.random.default_rng(2)
    market = rng.normal(0.0005, 0.01, 40)
    series = _mk_signal(cal, np.ones(38, dtype=int))
    res = backtest_strategy(lagged_signal_values(series, cal, 2), cal, market)
    assert res.outperformance == 0.0
    assert res.outperformance_geometric == 0.0
    assert np.array_equal(res.strategy_equity, res.benchmark_equity)
    assert np.all(res.position == 1)
    assert res.dates[0] == cal[2]


def test_always_short_negates_daily_returns():
    cal = weekdays(date(2022, 1, 3), 30)
    rng = np.random.default_rng(3)
    market = rng.normal(0.0, 0.01, 30)
    series = _mk_signal(cal, np.zeros(28, dtype=int))
    res = backtest_strategy(lagged_signal_values(series, cal, 2), cal, market)
    assert np.array_equal(res.strategy_ret, -market[2:])
    assert np.all(res.position == -1)


def test_perfect_foresight_equity_matches_product_oracle():
    cal = weekdays(date(2022, 1, 3), 50)
    rng = np.random.default_rng(4)
    market = rng.normal(0.0, 0.012, 50)
    lag = 2
    values = (market[2:] > 0).astype(int)  # value at cal[k] predicts cal[k+2]
    series = _mk_signal(cal, values)
    res = backtest_strategy(lagged_signal_values(series, cal, lag), cal, market)
    gross = 1.0
    for r in market[2:]:
        gross *= 1.0 + abs(r)
    assert res.strategy_equity[-1] == pytest.approx(gross - 1.0, abs=1e-12)
    assert res.strategy_equity[-1] >= res.benchmark_equity[-1]


def test_interior_gap_sits_flat():
    cal = weekdays(date(2022, 1, 3), 8)
    # Signal defined on days 0,1,3 only; with lag 1, day 3 has no lagged value.
    series = SignalSeries(
        n=1, dates=[cal[0], cal[1], cal[3]], values=np.array([1, 1, 1])
    )
    market = np.full(8, 0.01)
    res = backtest_strategy(lagged_signal_values(series, cal, 1), cal, market)
    assert res.dates[0] == cal[1]
    k = res.dates.index(cal[3])
    assert res.position[k] == 0
    assert res.strategy_ret[k] == 0.0
    k4 = res.dates.index(cal[4])
    assert res.position[k4] == 1


def test_backtest_without_overlap_errors():
    cal = weekdays(date(2022, 1, 3), 5)
    series = SignalSeries(
        n=1, dates=[date(2023, 1, 2)], values=np.array([1])
    )
    with pytest.raises(ValueError, match="overlap"):
        backtest_strategy(lagged_signal_values(series, cal, 2), cal, np.zeros(5))


@pytest.mark.parametrize("run", [r2_scan, backtest_strategy], ids=["r2_scan", "backtest"])
def test_market_returns_off_the_calendar_are_rejected(run):
    cal = weekdays(date(2022, 1, 3), 5)
    lagged = lagged_signal_values(_mk_signal(cal, [1, 0, 1], n=1), cal, 1)
    with pytest.raises(ValueError, match="market_returns must align one-to-one with the calendar"):
        run(lagged, np.zeros(4)) if run is r2_scan else run(lagged, cal, np.zeros(4))


def test_a_backtest_rejects_a_lagged_signal_off_its_calendar():
    cal = weekdays(date(2022, 1, 3), 5)
    lagged = lagged_signal_values(_mk_signal(cal, [1, 0, 1], n=1), cal[:4], 1)
    with pytest.raises(ValueError, match="lagged signal and market_returns must align"):
        backtest_strategy(lagged, cal, np.zeros(5))


def test_equity_curves_compound():
    cal = weekdays(date(2022, 1, 3), 4)
    market = np.array([0.0, 0.0, 0.1, -0.5])
    series = _mk_signal(cal, [1, 0], n=1)
    res = backtest_strategy(lagged_signal_values(series, cal, 2), cal, market)
    # positions: long on cal[2] (+10%), short on cal[3] (+50%)
    assert np.allclose(res.strategy_ret, [0.1, 0.5])
    assert res.strategy_equity[-1] == pytest.approx(1.1 * 1.5 - 1.0)
    assert res.benchmark_equity[-1] == pytest.approx(1.1 * 0.5 - 1.0)
    assert res.outperformance == pytest.approx((1.1 * 1.5) - (1.1 * 0.5))
    assert res.outperformance_geometric == pytest.approx((1.1 * 1.5) / (1.1 * 0.5) - 1.0)


# ---------------------------------------------------------------------------
# CSV writers


def test_signals_csv_stacks_ns(tmp_path):
    obs = _obs(HAND_SCORES)
    s3 = build_signal(obs, 3)
    s5 = build_signal(obs, 5)
    p = tmp_path / "signals.csv"
    write_rows(p, SIGNALS, signal_rows([s3, s5]))
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "date,N,signal"
    assert len(lines) == 1 + 7 + 5
    assert lines[1].endswith(",3,1")
    assert lines[8].split(",")[1] == "5"


def test_scan_csv_blank_r2_for_undefined(tmp_path):
    p = tmp_path / "scan.csv"
    write_table(
        p, R2_SCAN, {"N": [3, 9], "lag": [2, 2], "r2": [0.25, None], "corr_sign": ["+", ""]}
    )
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "N,lag,r2,corr_sign"
    assert lines[1] == "3,2,0.25,+"
    assert lines[2] == "9,2,,"


def test_backtest_csv_layout(tmp_path):
    """The timing stage's backtest file, on six days of rising sentiment and a market that
    gains 1 % a day: N=2 signals 1 from day 3, which a lag of 2 puts on day 5."""
    cal = weekdays(date(2022, 1, 3), 6)
    market = np.full(6, 0.01)
    rising = [SentimentObservation(d, 3, 1, s) for d, s in zip(cal, np.linspace(0.1, 0.6, 6))]
    write_items(tmp_path / "sentiment.csv", SENTIMENT, rising)
    zeros = [np.zeros(6)] * 5
    write_series(tmp_path / "factors.csv", FACTORS, FactorSeries(cal, market, *zeros))
    cfg = RunConfig(tmp_path / "run_config.json", tmp_path, {}, signal_n_list=[2], signal_lag=2)
    cli.stage_timing(cfg, cli.Parses({}), cli.Outputs(tmp_path, "timing"))
    res = backtest_strategy(lagged_signal_values(build_signal(rising, 2), cal, 2), cal, market)
    assert res.dates == cal[4:]
    lines = (tmp_path / "backtest_N02.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "date,position,strategy_ret,strategy_equity,benchmark_equity"
    assert len(lines) == 1 + len(res.dates)
    first = lines[1].split(",")
    assert first[0] == res.dates[0].isoformat()
    assert first[1] == "1"
    assert float(first[2]) == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# Array forms against the per-window and per-day loops, bit for bit


def _loop_signal(scores, n, mode):
    values = []
    for i in range(n, len(scores)):
        window = scores[i - n + 1 : i + 1] if mode == INCLUSIVE else scores[i - n : i]
        values.append(1 if scores[i] - window.mean() > 0 else 0)
    return np.array(values, dtype=int)


def test_signal_matches_per_window_loop_bitwise():
    rng = np.random.default_rng(40)
    scores = rng.uniform(-1.0, 1.0, 120)
    scores[40:70] = 0.5  # day 69 equals the mean of any window inside the run
    obs = _obs(scores.tolist())
    for mode in (INCLUSIVE, EXCLUSIVE):
        for n in (1, 5, 9, 16, 20):
            series = build_signal(obs, n, mode)
            assert series.values.tobytes() == _loop_signal(scores, n, mode).tobytes()
            assert series.values[69 - n] == 0


def _loop_backtest(lagged, market):
    """Positions, returns and equity curves from the first defined day, one day at a time."""
    start = int(np.flatnonzero(~np.isnan(lagged))[0])
    n = len(market) - start
    positions = np.zeros(n, dtype=int)
    strat_ret = np.zeros(n)
    strat_eq = np.empty(n)
    bench_eq = np.empty(n)
    strat_gross = bench_gross = 1.0
    for k in range(n):
        s, r = lagged[start + k], market[start + k]
        if not np.isnan(s):
            positions[k] = 1 if s == 1.0 else -1
            strat_ret[k] = positions[k] * r
        strat_gross *= 1.0 + strat_ret[k]
        bench_gross *= 1.0 + r
        strat_eq[k] = strat_gross - 1.0
        bench_eq[k] = bench_gross - 1.0
    return positions, strat_ret, strat_eq, bench_eq, strat_gross / bench_gross - 1.0


def test_backtest_matches_per_day_loop_bitwise():
    cal = weekdays(date(2022, 1, 3), 60)
    rng = np.random.default_rng(41)
    market = rng.normal(0.0, 0.01, 60)
    market[15:20] = -np.abs(market[15:20])  # flat days on negative returns
    market[[10, 30]] = 0.0
    values = rng.integers(0, 2, 50)
    values[[8, 28]] = 0  # short on the 0.0 returns two days later
    keep = [i for i in range(50) if not 13 <= i < 18]
    series = SignalSeries(
        n=1, dates=[cal[i] for i in keep], values=values[keep]
    )
    lagged = lagged_signal_values(series, cal, 2)
    res = backtest_strategy(lagged, cal, market)
    positions, strat_ret, strat_eq, bench_eq, geo = _loop_backtest(lagged, market)
    assert res.position.tobytes() == positions.tobytes()
    assert res.strategy_ret.tobytes() == strat_ret.tobytes()
    assert res.strategy_equity.tobytes() == strat_eq.tobytes()
    assert res.benchmark_equity.tobytes() == bench_eq.tobytes()
    assert res.outperformance == float(strat_eq[-1] - bench_eq[-1])
    assert np.float64(res.outperformance_geometric).tobytes() == np.float64(geo).tobytes()
    flat = [res.dates.index(cal[t]) for t in range(15, 20)]
    assert not np.any(res.position[flat]) and not np.any(np.signbit(res.strategy_ret[flat]))
    short_on_zero = [res.dates.index(cal[t]) for t in (10, 30)]
    assert np.all(np.signbit(res.strategy_ret[short_on_zero]))


def _dict_lagged(signal, calendar, lag):
    """Each signal day bisected into a dict of calendar indices (latest wins), then shifted."""
    mapped = {}
    for d, v in zip(signal.dates, signal.values):
        idx = bisect_left(calendar, d)
        if idx < len(calendar):
            mapped[idx] = int(v)
    out = np.full(len(calendar), np.nan)
    for idx, v in mapped.items():
        if idx + lag < len(calendar):
            out[idx + lag] = v
    return out


def test_lagged_values_match_the_dict_loop_bitwise():
    rng = np.random.default_rng(42)
    start = date(2022, 1, 3)
    span = [start + timedelta(days=k) for k in range(-10, 70)]  # 10 days either side
    weekdays_in = [d for d in span[10:-10] if d.weekday() < 5]
    cases = [([], weekdays_in, 2), (span[:20], [], 0), (span[:20], [], 3)]
    for _ in range(400):
        cal = sorted(rng.choice(weekdays_in, size=rng.integers(1, len(weekdays_in)), replace=False))
        days = sorted(rng.choice(span, size=rng.integers(1, len(span)), replace=False))
        lag = int(rng.choice([0, 1, 2, 5, len(cal) - 1, len(cal), len(cal) + 3]))
        cases.append((days, cal, lag))
    rolled = collided = 0
    for days, cal, lag in cases:
        series = SignalSeries(1, list(days), rng.integers(0, 2, len(days)))
        got = lagged_signal_values(series, list(cal), lag)
        assert got.tobytes() == _dict_lagged(series, list(cal), lag).tobytes()
        idx = [bisect_left(cal, d) for d in days]
        rolled += any(d.weekday() >= 5 and i < len(cal) for d, i in zip(days, idx))
        collided += len(set(idx)) < len(idx)
    assert rolled > 100 and collided > 100
