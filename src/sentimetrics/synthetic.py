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
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np

from . import tables
from .corpus import FirmDictionary, TranscriptRecord
from .factors import (
    FACTOR_NAMES,
    MAIN,
    PANEL_COLUMNS,
    PANEL_FIELDS,
    SECONDARY,
    FactorSeries,
    SecurityPanel,
)
from .sentiment import NEGATIVE, POSITIVE, Lexicon, SentimentObservation
from .timing import INCLUSIVE, build_signal, lagged_signal_values

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_AHEAD = 4096  # draws mixed at once, 32 KB: a few draws cost a slice, not a numpy pass


class DeterministicRng:
    """SplitMix64 with Box-Muller normals; stable across platforms.

    Known-answer values for seed 0: the first raw outputs of ``_raw`` are
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.
    ``randints`` uses a modulo draw; its bias is negligible for the small
    ranges used here and keeps the stream arithmetic obvious.

    SplitMix64 is counter-based: draw k from the state s is the mix of
    s + (k + 1) * gamma.  So ``_raw`` mixes the counters ahead of need, in
    wrapping numpy ``uint64`` arithmetic, at least ``_AHEAD`` at a time, and
    hands out read-only slices of that block; a request longer than what is
    left mixes a new block from the state.  ``_state`` is always the state
    after the last draw handed out: n draws advance it by n * gamma, and a
    call for no draws leaves it and the block as they are.  The block methods
    (``uniforms``, ``randints``, ``normals``) thus return exactly what the
    same draws taken one at a time would give, and a few draws cost a slice
    rather than a mixing pass.  The one scalar method, ``uniform()``, is a
    one-element block.  The Box-Muller
    transcendentals stay on ``math``, element by element: ``np.log`` differs
    from ``math.log`` in the last bit on about 0.35 % of the uniforms
    (numpy 2.4, x86-64), which would change the bytes of every seed.
    """

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._ahead = np.empty(0, dtype=np.uint64)  # the draws that follow _state, mixed

    def _raw(self, n: int) -> np.ndarray:
        if n > len(self._ahead):
            z = np.arange(1, max(n, _AHEAD) + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            z += np.uint64(self._state)
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
            z.flags.writeable = False  # a view written in place would corrupt a rewound stream
            self._ahead = z
        out, self._ahead = self._ahead[:n], self._ahead[n:]
        self._state = (self._state + n * _GAMMA) & MASK64
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each the top 53 bits of a draw (exact)."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def randints(self, lo: int, hi, n: int) -> np.ndarray:
        """n integers in [lo, hi]; ``hi`` may be an array of n upper bounds."""
        spans = np.asarray(hi, dtype=np.int64) - lo + 1
        if n > 0 and np.any(spans < 1):  # no draw needs no range
            raise ValueError(f"empty range [{lo}, {hi}]")
        return (self._raw(n) % spans.astype(np.uint64)).astype(np.int64) + lo

    def _uniform_rows(self, n: int, width: int) -> np.ndarray:
        """n rows of ``width`` uniforms, each row's first redrawn while it is 0.0."""
        start = self._state, self._ahead
        u = self.uniforms(n * width).reshape(n, width)
        if np.all(u[:, 0] != 0.0):
            return u
        # A redrawn u1 shifts the rest of the stream: rewind and go one by one.
        self._state, self._ahead = start
        rows = []
        for _ in range(n):
            u1 = self.uniform()
            while u1 == 0.0:
                u1 = self.uniform()
            rows.append([u1] + [self.uniform() for _ in range(width - 1)])
        return np.array(rows)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals; u1 = 0.0 is rejected, since log(0) is undefined."""
        u = self._uniform_rows(n, 2)
        return _box_muller(u[:, 0], u[:, 1])

    def normal_uniform_pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n (normal, uniform) pairs, drawn pair after pair, as two arrays."""
        u = self._uniform_rows(n, 3)
        return _box_muller(u[:, 0], u[:, 1]), u[:, 2]

    def shuffle(self, seq: list) -> None:
        """Fisher-Yates from the back, one block of draws for the whole pass."""
        n = len(seq)
        if n < 2:
            return
        spans = np.arange(n - 1, 0, -1)
        for i, j in zip(spans.tolist(), self.randints(0, spans, n - 1).tolist()):
            seq[i], seq[j] = seq[j], seq[i]


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """log and cos element by element on ``math``, whose results numpy does not always match.

    The rest is numpy's: its sqrt, like every IEEE arithmetic operation, is correctly rounded."""
    logs = np.fromiter(map(math.log, u1.tolist()), np.float64, len(u1))
    cosines = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), np.float64, len(u2))
    return np.sqrt(-2.0 * logs) * cosines


@dataclass(frozen=True)  # checked once, when built
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

    def __post_init__(self):
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
        if self.n_events > 0 and self.n_days - 1 - self.event_tail < self.event_history:
            raise ValueError(
                f"n_days={self.n_days} leaves no room for events "
                f"(need > {self.event_history + self.event_tail})"
            )
        if not 0.0 <= self.zero_return_rate < 1.0:
            raise ValueError("zero_return_rate must be in [0, 1)")
        if self.signal_n < 1 or self.signal_lag < 0:
            raise ValueError("signal_n >= 1 and signal_lag >= 0 required")
        if self.signal_n + self.signal_lag >= self.n_days:
            raise ValueError(
                f"signal_n + signal_lag must be below n_days ({self.n_days}), got "
                f"{self.signal_n} + {self.signal_lag}: the planted signal would be empty"
            )
        lows = {"n_events": 0, "event_history": 0, "event_tail": 0, "lexicon_positive": 1,
                "lexicon_negative": 1, "market_vol": 0.0, "factor_vol": 0.0, "idio_vol": 0.0}
        for key, least in lows.items():
            if getattr(self, key) < least:
                raise ValueError(f"'{key}' must be >= {least}, got {getattr(self, key)}")
        if not 1 <= self.min_mentions <= 4:  # a planted event names its firm 4 times
            raise ValueError(f"'min_mentions' must be in 1..4, got {self.min_mentions}")
        if self.effect_window[0] > self.effect_window[1]:
            raise ValueError(f"'effect_window' must be in order, got {list(self.effect_window)}")
        if self.effect_window[0] < -self.event_history or self.effect_window[1] > self.event_tail:
            raise ValueError(  # past them, days fall off the calendar or into zeroed returns
                f"'effect_window' must lie within [{-self.event_history}, {self.event_tail}] "
                f"(-event_history..event_tail), got {list(self.effect_window)}"
            )
        if not self.rf_daily > -1.0:
            raise ValueError(f"'rf_daily' must be > -1, got {self.rf_daily}")
        # trading_calendar's last day is `weeks` weeks and `weekday` days on from the Monday
        # of start's week; the calendar steps one day past it, so it must precede date.max.
        monday = self.start.toordinal() - self.start.weekday()
        weeks, weekday = divmod(min(self.start.weekday(), 5) + self.n_days - 1, 5)
        if monday + 7 * weeks + weekday >= date.max.toordinal():
            raise ValueError(
                f"'start' must leave room for {self.n_days} trading days before {date.max}, "
                f"got {self.start}"
            )


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
        return json.loads(json.dumps(asdict(self), default=date.isoformat))


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
    """The dataset of `config`.  Its panel's market_cap is a read-only broadcast view (one
    cap a firm), so copy it before writing to it."""
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
    dictionary = FirmDictionary(entries=[(fid, _aliases(i)) for i, fid in enumerate(firm_ids)])

    # Planted events: distinct firms, forced-polarity mention days.
    event_firms = list(firm_ids)
    rng.shuffle(event_firms)
    event_firms = event_firms[: config.n_events]
    events = []
    events_by_day: dict[int, list[PlantedEvent]] = {}
    event_days = rng.randints(
        config.event_history, n_days - 1 - config.event_tail, len(event_firms)
    )
    for fid, idx in zip(event_firms, event_days.tolist()):
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
    is_event_day = np.isin(np.arange(n_days), list(events_by_day))
    n_pos_by_day = np.full(n_days, m - 3 if config.event_polarity == POSITIVE else 3)
    n_pos_by_day[~is_event_day] = rng.randints(0, m, n_days - len(events_by_day))
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
    lagged = lagged_signal_values(signal, calendar, config.signal_lag)
    b1 = config.signal_strength
    b0 = -0.5 * b1
    p_up = np.array([0.5 if math.isnan(s) else _sigmoid(b0 + b1 * s) for s in lagged.tolist()])
    z, u = rng.normal_uniform_pairs(n_days)
    magnitude = np.abs(z) * config.market_vol
    factor_arrays = {"rmrf": np.where(u < p_up, magnitude, -magnitude)}
    for name in FACTOR_NAMES[1:]:
        factor_arrays[name] = rng.normals(n_days) * config.factor_vol
    rf = np.full(n_days, config.rf_daily)
    factors = FactorSeries(dates=list(calendar), rf=rf, **factor_arrays)

    # Firm exposures and static fundamentals, one array each in firm_ids order;
    # market_cap is on math's exp and log, which numpy does not always match.
    u = rng.uniforms(5 * config.n_firms).reshape(-1, 5)
    slopes = np.column_stack([0.6 + 0.8 * u[:, 0], -0.5 + u[:, 1:]])  # FACTOR_NAMES order
    u_cap, u_be, u_oi, u_ta, u_growth = rng.uniforms(5 * config.n_firms).reshape(-1, 5).T
    log_span = math.log(1e11) - math.log(1e8)
    cap = np.array([math.exp(math.log(1e8) + x * log_span) for x in u_cap.tolist()])
    be = cap * (0.3 + 1.2 * u_be)
    ta = cap * (0.5 + 1.5 * u_ta)
    filings = {  # one filing a firm: its exchange and fundamentals are constant
        "is_main": np.arange(config.n_firms) % 3 < 2,
        "book_equity": be,
        "operating_income": be * (-0.1 + 0.4 * u_oi),
        "total_assets": ta,
        "total_assets_prior": ta / (1.0 + (-0.2 + 0.5 * u_growth)),
    }

    # Each term added in the same order for every cell; the noise is drawn day
    # by day, firm by firm.  Every alpha is 0.0, and + 0.0 turns a -0.0 rate to 0.0.
    returns = np.full((config.n_firms, n_days), config.rf_daily + 0.0)
    for name, slope in zip(FACTOR_NAMES, slopes.T):
        returns += np.outer(slope, factor_arrays[name])
    for t in range(n_days):
        returns[:, t] += rng.normals(config.n_firms) * config.idio_vol
    protected = np.zeros(returns.shape, dtype=bool)
    for ev in events:
        i = firm_ids.index(ev.firm_id)
        w0, w1 = ev.window
        returns[i, max(0, ev.day_index + w0) : max(0, ev.day_index + w1 + 1)] += ev.effect
        tail = config.event_tail
        protected[i, max(0, ev.day_index + min(w0, -tail)) : ev.day_index + tail + 1] = True
    # Exact-zero days feed the zero-return share; event and effect windows stay intact.
    for t in range(n_days):
        hit = rng.uniforms(config.n_firms) < config.zero_return_rate
        returns[hit & ~protected[:, t], t] = 0.0

    # Every firm trades every day at a constant cap; the panel's row i files as filings row i.
    order = sorted(range(config.n_firms), key=firm_ids.__getitem__)
    panel = SecurityPanel(
        firms=[firm_ids[i] for i in order],
        calendar=list(calendar),
        daily_return=returns if order == list(range(config.n_firms)) else returns[order],
        market_cap=np.broadcast_to(cap[order, None], (config.n_firms, n_days)),
        filing=np.repeat(np.arange(config.n_firms, dtype=np.int32)[:, None], n_days, axis=1),
        filings={name: v[order] for name, v in filings.items()},
    )

    # Transcripts: one script per day reproducing the planted counts.  A day
    # draws, in order: a noise firm, the words, 5-12 fillers and a shuffle.
    transcripts = []
    for t, n_pos in enumerate(n_pos_by_day.tolist()):
        tokens: list[str] = []
        for ev in events_by_day.get(t, []):
            a, b = _aliases(firm_ids.index(ev.firm_id))
            tokens += [a, a, b, b]
        hi = np.repeat(
            [config.n_firms - 1, len(pos_words) - 1, len(neg_words) - 1, 12 - 5],
            [1, n_pos, m - n_pos, 1],
        )
        noise_firm, *words, extra_fillers = rng.randints(0, hi, len(hi)).tolist()
        tokens.append(_aliases(noise_firm)[0])
        tokens += [pos_words[k] for k in words[:n_pos]]
        tokens += [neg_words[k] for k in words[n_pos:]]
        tokens += [f"filler{k}" for k in rng.randints(0, 999, 5 + extra_fillers).tolist()]
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
        exposures={  # the one per-firm dict: ground_truth.json's form
            fid: {"alpha": 0.0, **dict(zip(FACTOR_NAMES, row))}
            for fid, row in zip(firm_ids, slopes.tolist())
        },
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in DATASET_FILES.items()}
    cfg = dataset.config
    calendar = dataset.calendar
    rng = DeterministicRng(cfg.seed ^ 0xC0FFEE)  # controls stream, independent of core draws

    tables.write_items(paths["transcripts"], tables.TRANSCRIPTS, dataset.transcripts)
    aliases = [(fid, name) for fid, names in dataset.dictionary.entries for name in names]
    tables.write_rows(paths["firm_names"], tables.FIRM_NAMES, aliases)

    lexicon = dataset.lexicon
    word_lists = {"exclusions": ["commonword"], "lexicon_positive": sorted(lexicon.positive),
                  "lexicon_negative": sorted(lexicon.negative)}
    for key, words in word_lists.items():
        with tables.replacing(paths[key]) as fh:
            fh.write("\n".join(words) + "\n")

    # A row is its head (the firm id, quoted as write_table quotes it), the day, the
    # return's repr and its tail: the cap and its filing's text, made once a filing.  Only a
    # day on which a filing (-1 where absent) or cap changes, the cap bit for bit (so -0.0 and
    # NaN keep their own text), rebuilds the heads and tails; each day is written at once.
    panel, filings = dataset.panel, dataset.panel.filings
    changed = np.zeros(len(panel.calendar), dtype=bool)
    changed[0] = True
    for bits in (panel.filing, panel.market_cap.view(np.uint64)):
        changed[1:] |= (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    exchange = np.where(filings["is_main"], MAIN, SECONDARY).tolist()
    fields = zip(exchange, *(filings[n].tolist() for n in PANEL_FIELDS[2:]))
    filed = [f"{x},{b!r},{o!r},{a!r},{p!r}\n" for x, b, o, a, p in fields]
    with tables.replacing(paths["panel"]) as fh:
        fh.write(",".join(PANEL_COLUMNS) + "\n")
        for t, d in enumerate(panel.calendar):
            if changed[t]:
                rows = np.flatnonzero(panel.filing[:, t] >= 0)
                heads = [tables._quoted(panel.firms[i]) + "," for i in rows.tolist()]
                cap, filing = panel.market_cap[rows, t].tolist(), panel.filing[rows, t].tolist()
                tails = [f",{c!r},{filed[f]}" for c, f in zip(cap, filing)]
            ret = map(repr, panel.daily_return[rows, t].tolist())
            fh.write("".join(map("".join, zip(heads, repeat(d.isoformat() + ","), ret, tails))))

    tables.write_series(paths["factors"], tables.FACTORS, dataset.factors)
    tables.write_table(paths["rf"], tables.RF, {"date": calendar, "rf": dataset.factors.rf})

    # Random walks, summed in Python floats step by step; the starting level is not a row.
    walks = {
        "nsi": accumulate(rng.normals(len(calendar)).tolist(), initial=100.0),
        "short_rate": accumulate((rng.normals(len(calendar)) * 1e-4).tolist(), initial=0.02),
    }
    for (key, walk), schema in zip(walks.items(), (tables.NSI, tables.SHORT_RATE)):
        tables.write_table(paths[key], schema, {"date": calendar, key: list(walk)[1:]})

    tables.write_json(paths["ground_truth"], dataset.truth.to_json_dict())

    return paths
