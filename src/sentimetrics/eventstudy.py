"""Factor-model event study: exposure estimation, abnormal returns, AAR/CAAR pooling.

Each event is anchored on the announcement's trading day by ``factors.roll_forward``.
Exposures come from an OLS of the stock's excess return on an intercept plus
one lagging, the contemporaneous, and one leading value of each of the five
factors (16 parameters).  Relative days count trading days on the factor
calendar.  Abnormal return is realized excess return minus the fitted model,
intercept included; pooled averages use whichever events have data at each
relative day, and cumulative averages are exact running sums.

A firm's excess returns are one float array aligned with the factor calendar, NaN on
the days it has no return, and so is the run's one lead_lag_design, whose first and
last rows are NaN (no lagging or no leading value).  The estimators slice both on
rows clipped at day 0, so a NaN design row drops out as a missing return does.  They
return numbers only; run_event_study labels each abnormal-return array with its
firm, announcement, event day and window start as an ArPath.  Pooled paths share one
event window: the same first relative day `t0` and the same length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .factors import FACTOR_NAMES, FactorSeries, SecurityPanel, positions, roll_forward
from .sentiment import NEGATIVE, POSITIVE, StockSentimentEvent

REGRESSOR_NAMES = tuple(
    f"{name}{suffix}" for name in FACTOR_NAMES for suffix in ("_lag1", "", "_lead1")
)
N_PARAMS = 1 + len(REGRESSOR_NAMES)  # intercept + 15 slopes


class InsufficientObservationsError(ValueError):
    def __init__(self, n_obs: int, required: int):
        super().__init__(f"only {n_obs} usable estimation observations (need >= {required})")
        self.n_obs = n_obs
        self.required = required


class RankDeficientDesignError(ValueError):
    """The lead/lag factor design matrix is rank deficient."""


@dataclass(frozen=True)
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
    alpha: float
    slopes: np.ndarray  # len 15, ordered as REGRESSOR_NAMES
    n_obs: int


@dataclass
class ArPath:
    """One event's abnormal-return path over the event window (NaN = no data)."""

    firm_id: str
    announce_date: date
    event_date: date
    t0: int
    values: np.ndarray


@dataclass
class EventStudyResult:
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


def lead_lag_design(factors: FactorSeries) -> np.ndarray:
    """The (dates, 16) lead/lag design on the factor calendar: row t holds an intercept,
    then each factor's value on days t-1, t and t+1, ordered as REGRESSOR_NAMES.  The
    first and last rows are NaN, as those dates have no lagging or no leading value."""
    design = np.full((len(factors.dates), N_PARAMS), np.nan)
    series = np.column_stack([getattr(factors, name) for name in FACTOR_NAMES])
    design[1:-1, 0] = 1.0
    for shift in range(3):  # each factor's lag, current and lead: columns 1, 2, 3 (+ 3k)
        design[1:-1, 1 + shift :: 3] = series[shift : len(series) - 2 + shift]
    return design


def _check_event(design: np.ndarray, event_idx: int, excess_returns: np.ndarray) -> None:
    """The returns must align with the factor calendar, and the event must be a day on it."""
    if excess_returns.shape != (len(design),):
        raise ValueError("excess returns must align one-to-one with the factor calendar")
    if not 0 <= event_idx < len(design):
        raise ValueError(
            f"event index {event_idx} is not on the {len(design)}-day factor calendar"
        )


def estimate_exposures(
    excess_returns: np.ndarray,
    design: np.ndarray,
    window: EventWindowConfig,
    event_idx: int,
) -> ExposureEstimate:
    """OLS of the stock's excess return on the 16-parameter lead/lag factor design.

    `excess_returns` is aligned with the factor calendar, NaN where the stock
    has no return; `design` is lead_lag_design of that calendar and `event_idx`
    the event day's position on it.  Uses the estimation-window days where the
    return and all regressors exist, so never the design's NaN end rows.  Solved
    by lstsq, not normal equations; returns the intercept, 15 slopes and days used.
    """
    _check_event(design, event_idx, excess_returns)
    rows = slice(max(event_idx + window.est_start, 0), max(event_idx + window.est_end + 1, 0))
    have = ~(np.isnan(excess_returns[rows]) | np.isnan(design[rows, 0]))
    X, y = design[rows][have], excess_returns[rows][have]
    n_obs = len(y)
    required = max(window.min_est_obs, N_PARAMS + 1)
    if n_obs < required:
        raise InsufficientObservationsError(n_obs, required)
    beta, _res, rank, _sv = np.linalg.lstsq(X, y, rcond=None)
    if rank < N_PARAMS:
        raise RankDeficientDesignError(
            f"design rank {rank} < {N_PARAMS} over the estimation window"
        )
    return ExposureEstimate(alpha=float(beta[0]), slopes=beta[1:].copy(), n_obs=n_obs)


def compute_ar(
    estimate: ExposureEstimate,
    excess_returns: np.ndarray,
    design: np.ndarray,
    window: EventWindowConfig,
    event_idx: int,
) -> np.ndarray:
    """Realized minus fitted excess return on each event-window day.

    `excess_returns` is aligned with the factor calendar, NaN where the stock
    has no return; `design` is lead_lag_design of that calendar and `event_idx`
    the event day's position on it.  Returns the window's evt_len + 1 abnormal
    returns, relative day evt_start first, NaN off the calendar and where the
    return or a regressor is missing, as on the design's NaN end rows.
    """
    _check_event(design, event_idx, excess_returns)
    first = event_idx + window.evt_start
    rows = slice(max(first, 0), max(event_idx + window.evt_end + 1, 0))  # a stop < 0 would wrap
    X = design[rows]
    # vecdot, not X @ slopes: a gemv may round differently from a per-row dot product.
    expected = X[:, 0] * estimate.alpha + np.vecdot(X[:, 1:], estimate.slopes)
    values = np.full(window.evt_len + 1, np.nan)
    values[rows.start - first : rows.start - first + len(X)] = excess_returns[rows] - expected
    return values


def pool_aar_caar(ar_paths: list[ArPath], t0: int, t_len: int) -> EventStudyResult:
    """Average AR across events day by day and accumulate the running sum.

    The paths share one event window (one `t0`, one length) that holds relative
    days t0..t0+t_len.  AAR at each relative day averages the events that have
    data there, summed in list order; CAAR satisfies caar[k] == caar[k-1] +
    aar[k] exactly by construction.
    """
    if not ar_paths:
        raise ValueError("cannot pool an empty list of abnormal-return paths")
    first = ar_paths[0]
    if any(p.t0 != first.t0 or len(p.values) != len(first.values) for p in ar_paths):
        raise ValueError("abnormal-return paths must share one t0 and one length")
    start = t0 - first.t0
    if start < 0 or start + t_len >= len(first.values):
        raise ValueError(f"relative days {t0}..{t0 + t_len} are outside the paths' window")
    ar = np.array([p.values[start : start + t_len + 1] for p in ar_paths])
    have = ~np.isnan(ar)
    n_per_day = have.sum(axis=0)
    # Adds each day's values one path at a time from 0.0, as a running total would.
    total = np.add.reduce(np.where(have, ar, 0.0), axis=0, initial=0.0)
    aar = np.divide(total, n_per_day, out=np.full(t_len + 1, np.nan), where=n_per_day > 0)
    return EventStudyResult(
        rel_days=np.arange(t0, t0 + t_len + 1),
        aar=aar,
        caar=np.cumsum(aar),
        n_events_per_day=n_per_day,
        n_events=len(ar_paths),
    )


def _count_overlaps(event_indices: dict[str, list[int]], evt_len: int) -> int:
    """Events whose window intersects another window of the same firm."""
    count = 0
    for indices in event_indices.values():
        indices = sorted(indices)
        # After sorting, a window meets another one exactly when it meets a neighbour's.
        near = [b - a <= evt_len for a, b in zip(indices, indices[1:])]
        count += sum(left or right for left, right in zip([False] + near, near + [False]))
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
    Events that cannot be estimated are excluded with a reason.  They are estimated a
    firm at a time, on that firm's excess returns alone, and kept in event order.
    """
    run = EventStudyRun(results={})
    design = lead_lag_design(factors)
    on_factors = positions(factors.dates, panel.calendar)  # each panel date's factor day, or -1
    firm_row = {firm_id: i for i, firm_id in enumerate(panel.firms)}
    event_t = roll_forward(factors.dates, [event.announce_date for event in events]).tolist()
    outcomes: dict[int, ArPath | ExcludedEvent] = {}  # by event number
    excess_of = None  # the firm row that `excess` is of
    for k in sorted(range(len(events)), key=lambda k: events[k].firm_id):  # a firm's in a row
        event, t, i = events[k], event_t[k], firm_row.get(events[k].firm_id)
        if t == len(factors.dates):
            reason = f"no trading day on or after {event.announce_date}"
            outcomes[k] = ExcludedEvent(event.firm_id, event.announce_date, reason)
            continue
        if i is None:
            outcomes[k] = ExcludedEvent(event.firm_id, event.announce_date, "firm not in panel")
            continue
        if i != excess_of:  # firm i's excess returns on the factor calendar (NaN = no return)
            on, excess_of = (on_factors >= 0) & (panel.filing[i] >= 0), i
            excess = np.full(len(factors.dates), np.nan)
            excess[on_factors[on]] = panel.daily_return[i, on] - factors.rf[on_factors[on]]
        try:
            estimate = estimate_exposures(excess, design, window, t)
        except (InsufficientObservationsError, RankDeficientDesignError) as exc:
            outcomes[k] = ExcludedEvent(event.firm_id, event.announce_date, str(exc))
            continue
        ar = compute_ar(estimate, excess, design, window, t)
        path = ArPath(event.firm_id, event.announce_date, factors.dates[t], window.evt_start, ar)
        outcomes[k] = path

    grouped: dict[str, list[ArPath]] = {POSITIVE: [], NEGATIVE: []}
    event_indices: dict[str, list[int]] = {}
    for k, (event, t) in enumerate(zip(events, event_t)):  # in event order
        if isinstance(outcomes[k], ExcludedEvent):
            run.exclusions.append(outcomes[k])
        else:
            grouped[event.polarity].append(outcomes[k])
            event_indices.setdefault(event.firm_id, []).append(t)

    run.overlap_count = _count_overlaps(event_indices, window.evt_len)
    post_available = window.evt_start <= 0 <= window.evt_end
    for polarity in (POSITIVE, NEGATIVE):
        paths = grouped[polarity]
        run.ar_paths[polarity] = paths
        if not paths:
            continue
        run.results[f"{polarity}_full"] = pool_aar_caar(paths, window.evt_start, window.evt_len)
        if post_available:
            run.results[f"{polarity}_post"] = pool_aar_caar(paths, 0, window.evt_end)
    return run
