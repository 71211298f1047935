"""Moving-average sentiment signal, lead-return correlation scan, long/short backtest.

The signal is binary: 1 when the day's sentiment score sits strictly above its
trailing N-observation mean, else 0.  The default mean includes the current
observation; an "exclusive" mode averages the N observations before it.  Both
emit nothing until a day has N predecessors.

lagged_signal_values, the one place the lag is applied, puts signal days on a
trading calendar by ``factors.roll_forward`` (of several that roll to one
trading day the most recent wins) and then `lag` trading days on.  r2_scan
scores one such array as an (r2, sign) pair, backtest_strategy trades one, and
``econometrics.run_timing_regressions`` fits on one.
The trading rule is long the market on a lagged 1, short on a 0, flat on NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .factors import roll_forward
from .sentiment import SentimentObservation

INCLUSIVE = "inclusive"
EXCLUSIVE = "exclusive"
DEFAULT_LAG = 2


@dataclass
class SignalSeries:
    n: int
    dates: list[date]  # strictly ascending
    values: np.ndarray  # 0/1 ints aligned with dates


@dataclass
class BacktestResult:
    """An array per tables.BACKTEST column (`dates` for its date), and the two terminal gaps."""

    dates: list[date]
    position: np.ndarray  # +1 long, -1 short, 0 flat
    strategy_ret: np.ndarray
    strategy_equity: np.ndarray  # cumulative return, 0 before the first row
    benchmark_equity: np.ndarray
    outperformance: float  # terminal strategy minus terminal benchmark cumulative return
    outperformance_geometric: float


def timing_observations(
    observations: list[SentimentObservation],
) -> list[SentimentObservation]:
    """Drop undefined and exactly-zero scores.

    Zero-sentiment days carry no direction; they are absent from the signal
    series rather than padded, so trailing means run over actual signal days.
    """
    return [o for o in observations if o.score is not None and o.score != 0.0]


def build_signal(
    observations: list[SentimentObservation], n: int, mode: str = INCLUSIVE
) -> SignalSeries:
    """Binary above-trailing-mean signal over the defined-score observations; empty, not an
    error, when there are `n` or fewer of them."""
    if n < 1:
        raise ValueError(f"window length must be >= 1, got {n}")
    if mode not in (INCLUSIVE, EXCLUSIVE):
        raise ValueError(f"mode must be '{INCLUSIVE}' or '{EXCLUSIVE}', got {mode!r}")
    usable = [(obs.date, obs.score) for obs in observations if obs.score is not None]
    for i in range(1, len(usable)):
        if usable[i - 1][0] >= usable[i][0]:
            raise ValueError("sentiment observations must be strictly ascending by date")
    if n >= len(usable):
        return SignalSeries(n=n, dates=[], values=np.zeros(0, dtype=int))
    scores = np.array([s for _d, s in usable])
    windows = sliding_window_view(scores, n)
    windows = windows[1:] if mode == INCLUSIVE else windows[:-1]
    values = (scores[n:] - windows.mean(axis=1) > 0).astype(int)
    return SignalSeries(n=n, dates=[d for d, _s in usable[n:]], values=values)


def lagged_signal_values(
    signal: SignalSeries, calendar: list[date], lag: int
) -> np.ndarray:
    """Per trading day, the signal value `lag` trading days earlier (NaN undefined)."""
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    out = np.full(len(calendar), np.nan)
    if lag >= len(calendar):  # every day lands past the calendar; a lag past int64 stops here
        return out
    idx = roll_forward(calendar, signal.dates) + lag
    keep = idx < len(calendar)
    keep[:-1] &= idx[:-1] != idx[1:]  # of the days rolled onto one trading day, the latest
    out[idx[keep]] = signal.values[keep]
    return out


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        return None
    return float(xc @ yc) / (sx * sy)


def _aligned(n_days: int, lagged: np.ndarray, market_returns) -> np.ndarray:
    """market_returns as floats, once it and the lagged signal each hold `n_days` values."""
    market_returns = np.asarray(market_returns, dtype=float)
    if market_returns.shape != (n_days,) or np.shape(lagged) != (n_days,):
        raise ValueError("lagged signal and market_returns must align one-to-one with the calendar")
    return market_returns


def r2_scan(lagged: np.ndarray, market_returns: np.ndarray) -> tuple[float | None, str]:
    """The lagged signal's squared correlation with the market return and the
    correlation's sign ("+", "-" or "0").

    A signal that is constant over the overlap (zero variance) gets an
    undefined r2 rather than a fabricated number: (None, "").
    """
    market = _aligned(len(lagged), lagged, market_returns)
    mask = ~np.isnan(lagged)
    corr = _pearson(lagged[mask], market[mask]) if mask.sum() >= 2 else None
    if corr is None:
        return None, ""
    return corr * corr, "+" if corr > 0 else ("-" if corr < 0 else "0")


def backtest_strategy(
    lagged: np.ndarray, calendar: list[date], market_returns: np.ndarray
) -> BacktestResult:
    """Daily +/-1 exposure to the market return driven by the lagged signal.

    No transaction costs.  Coverage runs from the first trading day with a
    defined lagged signal through the calendar end; interior days with an
    undefined lagged value sit flat.  Equity curves compound (1 + r) and are
    reported as cumulative returns starting from 0.
    """
    market_returns = _aligned(len(calendar), lagged, market_returns)
    defined = np.flatnonzero(~np.isnan(lagged))
    if defined.size == 0:
        raise ValueError("signal and market calendar have no overlapping coverage")
    start = int(defined[0])

    s, r = lagged[start:], market_returns[start:]
    position = np.where(np.isnan(s), 0, np.where(s == 1.0, 1, -1))
    # A flat day earns 0.0, never the -0.0 that 0 * r gives on a negative return.
    strat_ret = np.where(position != 0, position * r, 0.0)
    strat_gross = np.cumprod(1.0 + strat_ret)
    bench_gross = np.cumprod(1.0 + r)
    strat_eq, bench_eq = strat_gross - 1.0, bench_gross - 1.0
    return BacktestResult(
        dates=list(calendar[start:]),
        position=position,
        strategy_ret=strat_ret,
        strategy_equity=strat_eq,
        benchmark_equity=bench_eq,
        outperformance=float(strat_eq[-1] - bench_eq[-1]),
        outperformance_geometric=float(strat_gross[-1] / bench_gross[-1] - 1.0),
    )


def signal_rows(signals: list[SignalSeries]) -> Iterator[tuple]:
    """The stacked signal panel (tables.SIGNALS): one row per (date, N)."""
    return ((d, s.n, v) for s in signals for d, v in zip(s.dates, s.values.tolist()))
