"""Factor-model event study: exposure estimation, abnormal returns, AAR/CAAR pooling.

Each event is anchored on the trading day of (or next after) the announcement.
Exposures come from an OLS of the stock's excess return on an intercept plus
one lagging, the contemporaneous, and one leading value of each of the five
factors (16 parameters).  Relative days count trading days on the factor
calendar.  Abnormal return is realized excess return minus the fitted model,
intercept included; pooled averages use whichever events have data at each
relative day, and cumulative averages are exact running sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from itertools import compress
from typing import Mapping

import numpy as np

from .factors import FACTOR_NAMES, FactorSeries, SecurityPanel
from .sentiment import NEGATIVE, POSITIVE, StockSentimentEvent

REGRESSOR_NAMES = tuple(
    f"{name}{suffix}" for name in FACTOR_NAMES for suffix in ("_lag1", "", "_lead1")
)
N_PARAMS = 1 + len(REGRESSOR_NAMES)  # intercept + 15 slopes


class EventAlignmentError(ValueError):
    """No trading day available on/after the announcement date."""


class InsufficientObservationsError(ValueError):
    def __init__(self, n_obs: int, required: int):
        super().__init__(f"only {n_obs} usable estimation observations (need >= {required})")
        self.n_obs = n_obs
        self.required = required


class RankDeficientDesignError(ValueError):
    """The lead/lag factor design matrix is rank deficient."""


@dataclass
class EventWindowConfig:
    est_start: int = -273
    est_end: int = -21
    evt_start: int = -20
    evt_len: int = 40
    min_est_obs: int = 120

    def __post_init__(self):
        if not self.est_start < self.est_end < self.evt_start:
            raise ValueError(
                f"need est_start < est_end < evt_start, got "
                f"{self.est_start}, {self.est_end}, {self.evt_start}"
            )
        if self.evt_len < 0:
            raise ValueError("evt_len must be >= 0")
        est_days = self.est_end - self.est_start + 1
        if not 1 <= self.min_est_obs <= est_days:
            raise ValueError(f"min_est_obs must be in [1, {est_days}], got {self.min_est_obs}")

    @property
    def evt_end(self) -> int:
        return self.evt_start + self.evt_len


@dataclass
class ExposureEstimate:
    firm_id: str
    alpha: float
    slopes: np.ndarray  # len 15, ordered as REGRESSOR_NAMES
    n_obs: int
    residual_variance: float


@dataclass
class ArPath:
    """One event's abnormal-return path over the event window (NaN = no data)."""

    firm_id: str
    announce_date: date
    event_date: date
    t0: int
    values: np.ndarray

    def value_at(self, rel_day: int) -> float:
        return float(self.values[rel_day - self.t0])


@dataclass
class EventStudyResult:
    group: str
    t0: int
    t_end: int
    rel_days: np.ndarray
    aar: np.ndarray
    caar: np.ndarray
    n_events_per_day: np.ndarray
    n_events: int


@dataclass
class ExcludedEvent:
    firm_id: str
    announce_date: date
    reason: str


@dataclass
class EventStudyRun:
    results: dict[str, EventStudyResult]  # keys like "positive_full", "negative_post"
    ar_paths: dict[str, list[ArPath]] = field(default_factory=dict)
    exclusions: list[ExcludedEvent] = field(default_factory=list)
    overlap_count: int = 0


def align_event_date(announce_date: date, calendar: list[date]) -> date:
    """The announcement date itself if it trades, else the next trading date."""
    if not calendar:
        raise EventAlignmentError("empty trading calendar")
    lo, hi = 0, len(calendar)
    while lo < hi:
        mid = (lo + hi) // 2
        if calendar[mid] < announce_date:
            lo = mid + 1
        else:
            hi = mid
    if lo == len(calendar):
        raise EventAlignmentError(f"no trading day on or after {announce_date}")
    return calendar[lo]


def _design_row(factors: FactorSeries, idx: int) -> np.ndarray | None:
    """Intercept + 15 lead/lag regressors at calendar index `idx`, or None at the edges."""
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


def estimate_exposures(
    excess_returns: Mapping[date, float],
    factors: FactorSeries,
    window: EventWindowConfig,
    event_date: date,
    firm_id: str = "",
) -> ExposureEstimate:
    """OLS of the stock's excess return on the 16-parameter lead/lag factor design.

    Uses only estimation-window days where the return and all regressors exist.
    Solved by orthogonalization (lstsq), not by normal equations.
    """
    event_idx = factors.index_of(event_date)
    if event_idx is None:
        raise EventAlignmentError(f"event date {event_date} not on the factor calendar")
    rows = []
    ys = []
    for rel in range(window.est_start, window.est_end + 1):
        idx = event_idx + rel
        if idx < 0 or idx >= len(factors.dates):
            continue
        ret = excess_returns.get(factors.dates[idx])
        if ret is None or math.isnan(ret):
            continue
        row = _design_row(factors, idx)
        if row is None:
            continue
        rows.append(row)
        ys.append(ret)
    n_obs = len(rows)
    required = max(window.min_est_obs, N_PARAMS + 1)
    if n_obs < required:
        raise InsufficientObservationsError(n_obs, required)
    X = np.vstack(rows)
    y = np.asarray(ys)
    beta, _res, rank, _sv = np.linalg.lstsq(X, y, rcond=None)
    if rank < N_PARAMS:
        raise RankDeficientDesignError(
            f"design rank {rank} < {N_PARAMS} over the estimation window"
        )
    resid = y - X @ beta
    return ExposureEstimate(
        firm_id=firm_id,
        alpha=float(beta[0]),
        slopes=beta[1:].copy(),
        n_obs=n_obs,
        residual_variance=float(resid @ resid) / (n_obs - N_PARAMS),
    )


def compute_ar(
    estimate: ExposureEstimate,
    excess_returns: Mapping[date, float],
    factors: FactorSeries,
    window: EventWindowConfig,
    event_date: date,
    announce_date: date | None = None,
) -> ArPath:
    """Realized minus fitted excess return on each event-window day; NaN where data is missing."""
    event_idx = factors.index_of(event_date)
    if event_idx is None:
        raise EventAlignmentError(f"event date {event_date} not on the factor calendar")
    values = np.full(window.evt_len + 1, np.nan)
    for offset, rel in enumerate(range(window.evt_start, window.evt_end + 1)):
        idx = event_idx + rel
        if idx < 0 or idx >= len(factors.dates):
            continue
        ret = excess_returns.get(factors.dates[idx])
        if ret is None or math.isnan(ret):
            continue
        row = _design_row(factors, idx)
        if row is None:
            continue
        expected = row[0] * estimate.alpha + float(row[1:] @ estimate.slopes)
        values[offset] = ret - expected
    return ArPath(
        firm_id=estimate.firm_id,
        announce_date=announce_date if announce_date is not None else event_date,
        event_date=event_date,
        t0=window.evt_start,
        values=values,
    )


def pool_aar_caar(ar_paths: list[ArPath], t0: int, t_len: int, group: str = "") -> EventStudyResult:
    """Average AR across events day by day and accumulate the running sum.

    AAR at each relative day averages the events that have data there; CAAR
    satisfies caar[k] == caar[k-1] + aar[k] exactly by construction.
    """
    if not ar_paths:
        raise ValueError("cannot pool an empty list of abnormal-return paths")
    rel_days = np.arange(t0, t0 + t_len + 1)
    aar = np.full(t_len + 1, np.nan)
    n_per_day = np.zeros(t_len + 1, dtype=int)
    for k, rel in enumerate(rel_days):
        total = 0.0
        count = 0
        for path in ar_paths:
            offset = rel - path.t0
            if 0 <= offset < len(path.values):
                v = path.values[offset]
                if not math.isnan(v):
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
    return EventStudyResult(
        group=group,
        t0=t0,
        t_end=t0 + t_len,
        rel_days=rel_days,
        aar=aar,
        caar=caar,
        n_events_per_day=n_per_day,
        n_events=len(ar_paths),
    )


def _count_overlaps(event_indices: dict[str, list[int]], evt_len: int) -> int:
    """Events whose window intersects another window of the same firm."""
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


def run_event_study(
    events: list[StockSentimentEvent],
    panel: SecurityPanel,
    factors: FactorSeries,
    window: EventWindowConfig,
) -> EventStudyRun:
    """Full pipeline over a list of sentiment events, split by polarity.

    Produces the full-window pooling and, when relative day 0 is inside the
    window, a post-announcement pooling that restarts the running sum at 0.
    Events that cannot be estimated are excluded with a reason.
    """
    run = EventStudyRun(results={})
    # Excess returns of every firm on the panel dates the factor calendar shares.
    shared = [(t, d) for t, d in enumerate(panel.calendar) if factors.index_of(d) is not None]
    shared_dates = [d for _t, d in shared]
    cols = np.array([t for t, _d in shared], dtype=np.intp)
    rf = factors.rf[[factors.index_of(d) for d in shared_dates]]
    excess_all = panel.daily_return[:, cols] - rf
    excess_cache: dict[str, dict[date, float]] = {}
    grouped: dict[str, list[ArPath]] = {POSITIVE: [], NEGATIVE: []}
    event_indices: dict[str, list[int]] = {}

    for event in events:
        try:
            event_date = align_event_date(event.announce_date, factors.dates)
        except EventAlignmentError as exc:
            run.exclusions.append(ExcludedEvent(event.firm_id, event.announce_date, str(exc)))
            continue
        if event.firm_id not in excess_cache:
            i = panel.firm_index(event.firm_id)
            if i is None:
                run.exclusions.append(
                    ExcludedEvent(event.firm_id, event.announce_date, "firm not in panel")
                )
                continue
            have = panel.present[i, cols]
            excess_cache[event.firm_id] = dict(
                zip(compress(shared_dates, have), excess_all[i, have].tolist())
            )
        excess = excess_cache[event.firm_id]
        try:
            estimate = estimate_exposures(excess, factors, window, event_date, event.firm_id)
        except (InsufficientObservationsError, RankDeficientDesignError) as exc:
            run.exclusions.append(ExcludedEvent(event.firm_id, event.announce_date, str(exc)))
            continue
        path = compute_ar(estimate, excess, factors, window, event_date, event.announce_date)
        grouped[event.polarity].append(path)
        event_indices.setdefault(event.firm_id, []).append(factors.index_of(event_date))

    run.overlap_count = _count_overlaps(event_indices, window.evt_len)
    post_available = window.evt_start <= 0 <= window.evt_end
    for polarity in (POSITIVE, NEGATIVE):
        paths = grouped[polarity]
        run.ar_paths[polarity] = paths
        if not paths:
            continue
        run.results[f"{polarity}_full"] = pool_aar_caar(
            paths, window.evt_start, window.evt_len, group=f"{polarity}_full"
        )
        if post_available:
            run.results[f"{polarity}_post"] = pool_aar_caar(
                paths, 0, window.evt_end, group=f"{polarity}_post"
            )
    return run
