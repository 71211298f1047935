"""Seeded synthetic dataset generator with planted ground truth.

Everything is driven by one SplitMix64 stream so a config maps to exactly one
dataset, byte for byte, on any platform.  The generator plants quantities the
pipeline should recover:

* factor exposures per firm (returns are linear in the emitted factor series
  plus idiosyncratic noise),
* abnormal-return events: chosen firms get a per-day return bump over a
  relative-day window around a forced-polarity mention day,
* a market-direction link: the sign of the market excess return is Bernoulli
  with log-odds linear in the lagged binary sentiment signal,
* exact-zero return days at a configured rate (so the zero-return share moves
  day to day), suppressed inside planted event windows.

Transcripts are abstract token streams: firm aliases repeated past the
mention threshold on event days, sentiment words drawn with replacement so
duplicate counting matters, plus filler tokens.  Scores never land on zero
because every day draws an odd number of sentiment words.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .corpus import FirmDictionary, TranscriptRecord
from .factors import (
    MAIN,
    PANEL_COLUMNS,
    PANEL_FIELDS,
    SECONDARY,
    FactorSeries,
    SecurityPanel,
    write_factors_csv,
)
from .sentiment import NEGATIVE, POSITIVE, Lexicon, SentimentObservation
from .timing import INCLUSIVE, build_signal

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class DeterministicRng:
    """SplitMix64 with Box-Muller normals; stable across platforms.

    Known-answer values for seed 0: the first raw outputs are
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.
    ``randint`` uses a modulo draw; its bias is negligible for the small
    ranges used here and keeps the stream arithmetic obvious.
    """

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # 53-bit mantissa in [0, 1).
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]


@dataclass
class SynthConfig:
    seed: int = 0
    n_firms: int = 20
    n_days: int = 340
    start: date = date(2021, 1, 4)
    rf_daily: float = 1e-4
    market_vol: float = 0.01
    factor_vol: float = 0.004
    idio_vol: float = 0.01
    zero_return_rate: float = 0.05
    n_events: int = 10
    event_polarity: str = NEGATIVE
    event_effect: float = -0.005  # added to the firm's return on each effect day
    effect_window: tuple[int, int] = (0, 5)  # relative trading days
    event_history: int = 273  # trading days required before an event day
    event_tail: int = 20  # trading days required after an event day
    signal_strength: float = 0.8  # log-odds slope of an up market day on the lagged signal
    signal_n: int = 10
    signal_lag: int = 2
    min_mentions: int = 3
    sentiment_draws: int = 21  # words drawn per day; odd so scores are never 0
    lexicon_positive: int = 40
    lexicon_negative: int = 40
    factor_construction: bool = False  # dataset must support portfolio-sort factors

    def validate(self) -> None:
        if self.n_firms < 1 or self.n_days < 10:
            raise ValueError("need at least 1 firm and 10 days")
        if self.factor_construction and self.n_firms < 12:
            raise ValueError(
                f"factor construction requested with {self.n_firms} firms; need at least 12"
            )
        if self.sentiment_draws < 3 or self.sentiment_draws % 2 == 0:
            raise ValueError("sentiment_draws must be odd and >= 3")
        if self.n_events > self.n_firms:
            raise ValueError("planted events must land on distinct firms")
        if self.event_polarity not in (POSITIVE, NEGATIVE):
            raise ValueError(f"event_polarity must be positive|negative, got {self.event_polarity!r}")
        if self.n_events > 0:
            first = self.event_history
            last = self.n_days - 1 - self.event_tail
            if last < first:
                raise ValueError(
                    f"n_days={self.n_days} leaves no room for events "
                    f"(need > {self.event_history + self.event_tail})"
                )
        if not 0.0 <= self.zero_return_rate < 1.0:
            raise ValueError("zero_return_rate must be in [0, 1)")
        if self.signal_n < 1 or self.signal_lag < 0:
            raise ValueError("signal_n >= 1 and signal_lag >= 0 required")


@dataclass
class PlantedEvent:
    firm_id: str
    announce_date: date
    day_index: int
    polarity: str
    effect: float
    window: tuple[int, int]


@dataclass
class GroundTruth:
    seed: int
    rf_daily: float
    factor_vols: dict[str, float]
    idio_vol: float
    zero_return_rate: float
    exposures: dict[str, dict[str, float]]  # firm -> {alpha, rmrf, smb, hml, rmw, cma}
    events: list[PlantedEvent]
    signal_strength: float
    signal_intercept: float
    signal_n: int
    signal_lag: int
    signal_values: list[tuple[date, int]]  # realized planted signal fed to the market sign

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rf_daily": self.rf_daily,
            "factor_vols": self.factor_vols,
            "idio_vol": self.idio_vol,
            "zero_return_rate": self.zero_return_rate,
            "exposures": self.exposures,
            "events": [
                {
                    "firm_id": e.firm_id,
                    "announce_date": e.announce_date.isoformat(),
                    "day_index": e.day_index,
                    "polarity": e.polarity,
                    "effect": e.effect,
                    "window": list(e.window),
                }
                for e in self.events
            ],
            "signal_strength": self.signal_strength,
            "signal_intercept": self.signal_intercept,
            "signal_n": self.signal_n,
            "signal_lag": self.signal_lag,
            "signal_values": [[d.isoformat(), v] for d, v in self.signal_values],
        }


@dataclass
class SynthDataset:
    config: SynthConfig
    calendar: list[date]
    panel: SecurityPanel
    factors: FactorSeries
    transcripts: list[TranscriptRecord]
    lexicon: Lexicon
    dictionary: FirmDictionary
    observations: list[SentimentObservation]  # intended daily scores
    truth: GroundTruth


def trading_calendar(start: date, n_days: int) -> list[date]:
    """n_days consecutive weekdays from the first weekday on/after start."""
    out = []
    d = start
    while len(out) < n_days:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


def _firm_ids(n: int) -> list[str]:
    return [f"F{i:03d}" for i in range(n)]


def _aliases(i: int) -> list[str]:
    return [f"corp{i:03d}a", f"corp{i:03d}b"]


def gen_dataset(config: SynthConfig) -> SynthDataset:
    config.validate()
    rng = DeterministicRng(config.seed)
    calendar = trading_calendar(config.start, config.n_days)
    n_days = config.n_days
    firm_ids = _firm_ids(config.n_firms)

    # Lexicon and firm dictionary carry no randomness.
    lexicon = Lexicon(
        positive={f"goodword{i:02d}" for i in range(config.lexicon_positive)},
        negative={f"badword{i:02d}" for i in range(config.lexicon_negative)},
    )
    pos_words = sorted(lexicon.positive)
    neg_words = sorted(lexicon.negative)
    dictionary = FirmDictionary(
        entries=[(fid, _aliases(i)) for i, fid in enumerate(firm_ids)], exclusions=set()
    )

    # Planted events: distinct firms, forced-polarity mention days.
    event_firms = list(firm_ids)
    rng.shuffle(event_firms)
    event_firms = event_firms[: config.n_events]
    events = []
    events_by_day: dict[int, list[PlantedEvent]] = {}
    for fid in event_firms:
        idx = rng.randint(config.event_history, n_days - 1 - config.event_tail)
        ev = PlantedEvent(
            firm_id=fid,
            announce_date=calendar[idx],
            day_index=idx,
            polarity=config.event_polarity,
            effect=config.event_effect,
            window=config.effect_window,
        )
        events.append(ev)
        events_by_day.setdefault(idx, []).append(ev)

    # Daily sentiment word counts; the sum is odd, so scores are never zero.
    m = config.sentiment_draws
    n_pos_by_day = np.empty(n_days, dtype=int)
    for t in range(n_days):
        if t in events_by_day:
            n_pos_by_day[t] = m - 3 if config.event_polarity == POSITIVE else 3
        else:
            n_pos_by_day[t] = rng.randint(0, m)
    observations = [
        SentimentObservation(
            date=calendar[t],
            n_positive=int(n_pos_by_day[t]),
            n_negative=int(m - n_pos_by_day[t]),
            score=(2.0 * n_pos_by_day[t] - m) / m,
        )
        for t in range(n_days)
    ]

    # The binary signal drives the market's direction `signal_lag` days later.
    signal = build_signal(observations, config.signal_n, mode=INCLUSIVE)
    cal_index = {d: t for t, d in enumerate(calendar)}
    signal_at = {cal_index[d]: int(v) for d, v in zip(signal.dates, signal.values)}
    b1 = config.signal_strength
    b0 = -0.5 * b1
    rmrf = np.empty(n_days)
    for t in range(n_days):
        s_lag = signal_at.get(t - config.signal_lag)
        p_up = 0.5 if s_lag is None else _sigmoid(b0 + b1 * s_lag)
        magnitude = abs(rng.normal()) * config.market_vol
        rmrf[t] = magnitude if rng.uniform() < p_up else -magnitude

    factor_arrays = {"rmrf": rmrf}
    for name in ("smb", "hml", "rmw", "cma"):
        factor_arrays[name] = np.array([rng.normal() * config.factor_vol for _ in range(n_days)])
    rf = np.full(n_days, config.rf_daily)
    factors = FactorSeries(dates=list(calendar), rf=rf, **factor_arrays)

    # Firm exposures, then returns linear in the factors plus noise.
    exposures: dict[str, dict[str, float]] = {}
    for fid in firm_ids:
        exposures[fid] = {
            "alpha": 0.0,
            "rmrf": 0.6 + 0.8 * rng.uniform(),
            "smb": -0.5 + rng.uniform(),
            "hml": -0.5 + rng.uniform(),
            "rmw": -0.5 + rng.uniform(),
            "cma": -0.5 + rng.uniform(),
        }

    # Static firm fundamentals; characteristics only matter at rebalance dates.
    fundamentals = {}
    for i, fid in enumerate(firm_ids):
        cap = math.exp(math.log(1e8) + rng.uniform() * (math.log(1e11) - math.log(1e8)))
        be = cap * (0.3 + 1.2 * rng.uniform())
        oi = be * (-0.1 + 0.4 * rng.uniform())
        ta = cap * (0.5 + 1.5 * rng.uniform())
        growth = -0.2 + 0.5 * rng.uniform()
        fundamentals[fid] = {
            "market_cap": cap,
            "exchange": MAIN if i % 3 < 2 else SECONDARY,
            "book_equity": be,
            "operating_income": oi,
            "total_assets": ta,
            "total_assets_prior": ta / (1.0 + growth),
        }

    protected: dict[str, set[int]] = {}
    for ev in events:
        lo = max(0, ev.day_index - config.event_tail)
        hi = min(n_days - 1, ev.day_index + config.event_tail)
        protected[ev.firm_id] = set(range(lo, hi + 1))

    returns = np.empty((config.n_firms, n_days))  # rows in firm_ids order
    for t in range(n_days):
        for i, fid in enumerate(firm_ids):
            ex = exposures[fid]
            r = config.rf_daily + ex["alpha"]
            for name in ("rmrf", "smb", "hml", "rmw", "cma"):
                r += ex[name] * factor_arrays[name][t]
            r += rng.normal() * config.idio_vol
            returns[i, t] = r
    for ev in events:
        w0, w1 = ev.window
        for rel in range(w0, w1 + 1):
            t = ev.day_index + rel
            if 0 <= t < n_days:
                returns[firm_ids.index(ev.firm_id), t] += ev.effect
    # Exact-zero days feed the zero-return share; event windows stay intact.
    for t in range(n_days):
        for i, fid in enumerate(firm_ids):
            hit = rng.uniform() < config.zero_return_rate
            if hit and t not in protected.get(fid, ()):
                returns[i, t] = 0.0

    # Every firm trades every day; fundamentals are constant along each row.
    order = sorted(range(config.n_firms), key=firm_ids.__getitem__)
    shape = (config.n_firms, n_days)

    def constant_rows(key: str) -> np.ndarray:
        values = np.array([fundamentals[firm_ids[i]][key] for i in order])
        return np.repeat(values[:, None], n_days, axis=1)

    panel = SecurityPanel(
        firms=[firm_ids[i] for i in order],
        calendar=list(calendar),
        present=np.ones(shape, dtype=bool),
        is_main=constant_rows("exchange") == MAIN,
        daily_return=returns[order],
        **{name: constant_rows(name) for name in PANEL_FIELDS if name != "daily_return"},
    )

    # Transcripts: one script per day reproducing the planted counts.
    transcripts = []
    for t in range(n_days):
        tokens: list[str] = []
        for ev in events_by_day.get(t, []):
            a, b = _aliases(firm_ids.index(ev.firm_id))
            tokens += [a, a, b, b]
        noise_firm = rng.randint(0, config.n_firms - 1)
        tokens.append(_aliases(noise_firm)[0])
        for _ in range(int(n_pos_by_day[t])):
            tokens.append(rng.choice(pos_words))
        for _ in range(m - int(n_pos_by_day[t])):
            tokens.append(rng.choice(neg_words))
        for _ in range(rng.randint(5, 12)):
            tokens.append(f"filler{rng.randint(0, 999)}")
        rng.shuffle(tokens)
        transcripts.append(
            TranscriptRecord(
                content_id=f"S{t:05d}", publish_date=calendar[t], text=" ".join(tokens)
            )
        )

    truth = GroundTruth(
        seed=config.seed,
        rf_daily=config.rf_daily,
        factor_vols={"rmrf": config.market_vol, "others": config.factor_vol},
        idio_vol=config.idio_vol,
        zero_return_rate=config.zero_return_rate,
        exposures=exposures,
        events=events,
        signal_strength=b1,
        signal_intercept=b0,
        signal_n=config.signal_n,
        signal_lag=config.signal_lag,
        signal_values=[(d, int(v)) for d, v in zip(signal.dates, signal.values)],
    )
    return SynthDataset(
        config=config,
        calendar=calendar,
        panel=panel,
        factors=factors,
        transcripts=transcripts,
        lexicon=lexicon,
        dictionary=dictionary,
        observations=observations,
        truth=truth,
    )


# ---------------------------------------------------------------------------
# On-disk form: exactly the CSV formats the loaders consume.

DATASET_FILES = {
    "transcripts": "transcripts.csv",
    "firm_names": "firm_names.csv",
    "exclusions": "exclusions.txt",
    "lexicon_positive": "lexicon_positive.txt",
    "lexicon_negative": "lexicon_negative.txt",
    "panel": "panel.csv",
    "factors": "factors.csv",
    "rf": "rf.csv",
    "nsi": "nsi.csv",
    "short_rate": "short_rate.csv",
    "ground_truth": "ground_truth.json",
}


def write_dataset(dataset: SynthDataset, out_dir: str | Path) -> dict[str, Path]:
    """Write every input file plus ground_truth.json; returns the path map.

    The macro controls (a sentiment-index random walk and a short-rate walk)
    are generated here, after the core draws, so they extend the same stream.
    """
    import csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in DATASET_FILES.items()}
    cfg = dataset.config
    calendar = dataset.calendar
    rng = DeterministicRng(cfg.seed ^ 0xC0FFEE)  # controls stream, independent of core draws

    with paths["transcripts"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["content_id", "publish_date", "text"])
        for rec in dataset.transcripts:
            writer.writerow([rec.content_id, rec.publish_date.isoformat(), rec.text])

    with paths["firm_names"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["firm_id", "name"])
        for fid, names in dataset.dictionary.entries:
            for name in names:
                writer.writerow([fid, name])

    paths["exclusions"].write_text("commonword\n", encoding="utf-8")
    paths["lexicon_positive"].write_text(
        "\n".join(sorted(dataset.lexicon.positive)) + "\n", encoding="utf-8"
    )
    paths["lexicon_negative"].write_text(
        "\n".join(sorted(dataset.lexicon.negative)) + "\n", encoding="utf-8"
    )

    panel = dataset.panel
    with paths["panel"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PANEL_COLUMNS)
        exchange = np.where(panel.is_main, MAIN, SECONDARY)
        for t, d in enumerate(panel.calendar):
            day = d.isoformat()
            ret, cap, be, oi, ta, tap = (
                [repr(x) for x in getattr(panel, name)[:, t].tolist()] for name in PANEL_FIELDS
            )
            for i in np.flatnonzero(panel.present[:, t]).tolist():
                row = [panel.firms[i], day, ret[i], cap[i], exchange[i, t]]
                writer.writerow(row + [be[i], oi[i], ta[i], tap[i]])

    write_factors_csv(dataset.factors, paths["factors"])

    with paths["rf"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "rf"])
        for i, d in enumerate(calendar):
            writer.writerow([d.isoformat(), repr(float(dataset.factors.rf[i]))])

    nsi = 100.0
    with paths["nsi"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "nsi"])
        for d in calendar:
            nsi += rng.normal()
            writer.writerow([d.isoformat(), repr(float(nsi))])

    rate = 0.02
    with paths["short_rate"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "short_rate"])
        for d in calendar:
            rate += rng.normal() * 1e-4
            writer.writerow([d.isoformat(), repr(float(rate))])

    with paths["ground_truth"].open("w", encoding="utf-8") as fh:
        json.dump(dataset.truth.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    return paths
