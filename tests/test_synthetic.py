import json
from datetime import date

import numpy as np
import pytest

from sentimetrics.corpus import build_days, extract_mentions
from sentimetrics.eventstudy import EventWindowConfig, estimate_exposures
from sentimetrics.factors import load_panel, read_factors_csv, read_rf_csv
from sentimetrics.sentiment import build_stock_events, score_day
from sentimetrics.synthetic import (
    DATASET_FILES,
    DeterministicRng,
    SynthConfig,
    gen_dataset,
    trading_calendar,
    write_dataset,
)


# ---------------------------------------------------------------------------
# Generator primitives


def test_rng_known_answers_seed_zero():
    rng = DeterministicRng(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_rng_streams_reproducible():
    a = DeterministicRng(12345)
    b = DeterministicRng(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]
    assert DeterministicRng(1).next_u64() != DeterministicRng(2).next_u64()


def test_rng_uniform_in_unit_interval():
    rng = DeterministicRng(7)
    draws = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_rng_normal_moments():
    rng = DeterministicRng(8)
    draws = np.array([rng.normal() for _ in range(4000)])
    assert np.all(np.isfinite(draws))
    assert abs(draws.mean()) < 0.1
    assert abs(draws.std() - 1.0) < 0.1


def test_rng_randint_bounds_and_errors():
    rng = DeterministicRng(9)
    draws = [rng.randint(3, 7) for _ in range(200)]
    assert set(draws) == {3, 4, 5, 6, 7}
    assert rng.randint(5, 5) == 5
    with pytest.raises(ValueError):
        rng.randint(2, 1)


def test_rng_shuffle_is_permutation():
    rng = DeterministicRng(10)
    seq = list(range(30))
    shuffled = list(seq)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == seq
    assert shuffled != seq


def test_trading_calendar_weekdays_only():
    cal = trading_calendar(date(2021, 1, 4), 15)
    assert len(cal) == 15
    assert all(d.weekday() < 5 for d in cal)
    assert all(cal[i] < cal[i + 1] for i in range(14))


# ---------------------------------------------------------------------------
# Config validation


def test_config_validation_errors():
    with pytest.raises(ValueError, match="10 days"):
        SynthConfig(n_days=5).validate()
    with pytest.raises(ValueError, match="12"):
        SynthConfig(n_firms=8, factor_construction=True, n_events=5).validate()
    with pytest.raises(ValueError, match="odd"):
        SynthConfig(sentiment_draws=20).validate()
    with pytest.raises(ValueError, match="distinct firms"):
        SynthConfig(n_firms=3, n_events=4).validate()
    with pytest.raises(ValueError, match="room"):
        SynthConfig(n_days=100, n_events=1, event_history=90, event_tail=20).validate()
    with pytest.raises(ValueError, match="zero_return_rate"):
        SynthConfig(zero_return_rate=1.0).validate()
    with pytest.raises(ValueError, match="signal_n"):
        SynthConfig(signal_n=0).validate()
    with pytest.raises(ValueError, match="event_polarity"):
        SynthConfig(event_polarity="mixed").validate()
    SynthConfig().validate()  # defaults are sound


# ---------------------------------------------------------------------------
# Generation invariants

FAST = dict(n_firms=6, n_days=130, n_events=3, event_history=60, event_tail=20)


def test_gen_dataset_is_deterministic():
    a = gen_dataset(SynthConfig(seed=42, **FAST))
    b = gen_dataset(SynthConfig(seed=42, **FAST))
    assert a.truth.to_json_dict() == b.truth.to_json_dict()
    assert [t.text for t in a.transcripts] == [t.text for t in b.transcripts]
    for fid in a.panel.firms:
        ra = [a.panel.row(fid, d).daily_return for d in a.calendar]
        rb = [b.panel.row(fid, d).daily_return for d in a.calendar]
        assert ra == rb
    c = gen_dataset(SynthConfig(seed=43, **FAST))
    assert [t.text for t in a.transcripts] != [t.text for t in c.transcripts]


def test_scores_never_zero_or_undefined():
    ds = gen_dataset(SynthConfig(seed=1, **FAST))
    for obs in ds.observations:
        assert obs.score is not None
        assert obs.score != 0.0
        assert obs.n_positive + obs.n_negative == ds.config.sentiment_draws


def test_planted_events_on_distinct_firms_inside_room():
    cfg = SynthConfig(seed=2, **FAST)
    ds = gen_dataset(cfg)
    assert len(ds.truth.events) == cfg.n_events
    assert len({e.firm_id for e in ds.truth.events}) == cfg.n_events
    for ev in ds.truth.events:
        assert cfg.event_history <= ev.day_index <= cfg.n_days - 1 - cfg.event_tail
        assert ev.announce_date == ds.calendar[ev.day_index]
        assert ev.polarity == cfg.event_polarity


def test_event_effect_planted_exactly_with_noise_off():
    cfg = SynthConfig(
        seed=3,
        n_firms=4,
        n_days=320,
        n_events=2,
        idio_vol=0.0,
        zero_return_rate=0.0,
    )
    ds = gen_dataset(cfg)
    names = ("rmrf", "smb", "hml", "rmw", "cma")
    arrays = {n: getattr(ds.factors, n) for n in names}
    for ev in ds.truth.events:
        ex = ds.truth.exposures[ev.firm_id]
        for t, d in enumerate(ds.calendar):
            model = cfg.rf_daily + ex["alpha"] + sum(ex[n] * arrays[n][t] for n in names)
            gap = ds.panel.row(ev.firm_id, d).daily_return - model
            rel = t - ev.day_index
            if ev.window[0] <= rel <= ev.window[1]:
                assert gap == pytest.approx(ev.effect, abs=1e-15), rel
            else:
                assert gap == pytest.approx(0.0, abs=1e-15), rel


def test_zero_returns_appear_but_never_inside_event_windows():
    cfg = SynthConfig(seed=4, zero_return_rate=0.3, **FAST)
    ds = gen_dataset(cfg)
    flat = total = 0
    for fid in ds.panel.firms:
        for d in ds.calendar:
            total += 1
            if ds.panel.row(fid, d).daily_return == 0.0:
                flat += 1
    assert 0.2 < flat / total < 0.4
    for ev in ds.truth.events:
        lo = max(0, ev.day_index - cfg.event_tail)
        hi = min(cfg.n_days - 1, ev.day_index + cfg.event_tail)
        for t in range(lo, hi + 1):
            assert ds.panel.row(ev.firm_id, ds.calendar[t]).daily_return != 0.0


def test_market_sign_tracks_lagged_signal():
    cfg = SynthConfig(seed=5, n_firms=2, n_days=600, n_events=0, signal_strength=1.5)
    ds = gen_dataset(cfg)
    cal_index = {d: t for t, d in enumerate(ds.calendar)}
    up_given = {0: [], 1: []}
    for d, v in ds.truth.signal_values:
        t = cal_index[d] + cfg.signal_lag
        if t < cfg.n_days:
            up_given[v].append(1 if ds.factors.rmrf[t] > 0 else 0)
    rate1 = sum(up_given[1]) / len(up_given[1])
    rate0 = sum(up_given[0]) / len(up_given[0])
    assert rate1 > 0.5 > rate0


def test_exposures_recoverable_when_noise_off():
    cfg = SynthConfig(
        seed=6, n_firms=3, n_days=340, n_events=0, idio_vol=0.0, zero_return_rate=0.0
    )
    ds = gen_dataset(cfg)
    window = EventWindowConfig()
    anchor = ds.calendar[320]
    names = ("rmrf", "smb", "hml", "rmw", "cma")
    for fid in ds.panel.firms:
        excess = {
            d: ds.panel.row(fid, d).daily_return - cfg.rf_daily for d in ds.calendar
        }
        est = estimate_exposures(excess, ds.factors, window, anchor, fid)
        truth = ds.truth.exposures[fid]
        assert est.alpha == pytest.approx(truth["alpha"], abs=1e-8)
        for j, name in enumerate(names):
            lag1, cont, lead1 = est.slopes[3 * j : 3 * j + 3]
            assert cont == pytest.approx(truth[name], abs=1e-8), name
            assert abs(lag1) < 1e-8 and abs(lead1) < 1e-8, name


def test_ground_truth_serializes_to_json():
    ds = gen_dataset(SynthConfig(seed=7, **FAST))
    blob = json.dumps(ds.truth.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["seed"] == 7
    assert len(back["events"]) == 3
    assert back["signal_intercept"] == pytest.approx(-0.5 * back["signal_strength"])


# ---------------------------------------------------------------------------
# Round trip through the text pipeline


def test_transcripts_reproduce_planted_scores_and_events():
    cfg = SynthConfig(seed=8, **FAST)
    ds = gen_dataset(cfg)
    days = build_days(ds.transcripts)
    assert [day.date for day in days] == ds.calendar

    by_date = {obs.date: obs for obs in ds.observations}
    scores = []
    for day in days:
        obs = score_day(day, ds.lexicon)
        want = by_date[day.date]
        assert obs.n_positive == want.n_positive
        assert obs.n_negative == want.n_negative
        assert obs.score == pytest.approx(want.score, abs=1e-15)
        scores.append(obs)

    mentions = [extract_mentions(day, ds.dictionary, cfg.min_mentions) for day in days]
    events, skipped = build_stock_events(mentions, scores)
    assert skipped == []
    got = {(e.firm_id, e.announce_date, e.polarity) for e in events}
    want = {(e.firm_id, e.announce_date, e.polarity) for e in ds.truth.events}
    assert got == want


def test_single_noise_mention_stays_below_threshold():
    cfg = SynthConfig(seed=9, **FAST)
    ds = gen_dataset(cfg)
    days = build_days(ds.transcripts)
    event_dates = {e.announce_date for e in ds.truth.events}
    for day in days:
        mset = extract_mentions(day, ds.dictionary, cfg.min_mentions)
        if day.date not in event_dates:
            assert mset.mentions == []


# ---------------------------------------------------------------------------
# On-disk form


def test_write_dataset_is_byte_deterministic(tmp_path):
    cfg = SynthConfig(seed=11, **FAST)
    p1 = write_dataset(gen_dataset(cfg), tmp_path / "a")
    p2 = write_dataset(gen_dataset(cfg), tmp_path / "b")
    assert set(p1) == set(DATASET_FILES)
    for key in DATASET_FILES:
        assert p1[key].read_bytes() == p2[key].read_bytes(), key


def test_written_files_roundtrip_through_loaders(tmp_path):
    cfg = SynthConfig(seed=12, **FAST)
    ds = gen_dataset(cfg)
    paths = write_dataset(ds, tmp_path)

    panel = load_panel(paths["panel"])
    assert panel.calendar == ds.calendar
    assert panel.firms == ds.panel.firms
    for fid in panel.firms:
        for d in ds.calendar:
            assert panel.row(fid, d).daily_return == ds.panel.row(fid, d).daily_return

    factors = read_factors_csv(paths["factors"])
    for name in ("rmrf", "smb", "hml", "rmw", "cma", "rf"):
        assert np.array_equal(getattr(factors, name), getattr(ds.factors, name)), name

    rf = read_rf_csv(paths["rf"])
    assert rf == {d: cfg.rf_daily for d in ds.calendar}

    header = paths["transcripts"].read_text(encoding="utf-8").splitlines()[0]
    assert header == "content_id,publish_date,text"
    assert paths["ground_truth"].read_text(encoding="utf-8").endswith("\n")
    truth = json.loads(paths["ground_truth"].read_text(encoding="utf-8"))
    assert truth == ds.truth.to_json_dict()


def test_controls_walks_cover_calendar(tmp_path):
    cfg = SynthConfig(seed=13, **FAST)
    paths = write_dataset(gen_dataset(cfg), tmp_path)
    nsi_lines = paths["nsi"].read_text(encoding="utf-8").splitlines()
    sr_lines = paths["short_rate"].read_text(encoding="utf-8").splitlines()
    assert nsi_lines[0] == "date,nsi"
    assert sr_lines[0] == "date,short_rate"
    assert len(nsi_lines) == cfg.n_days + 1
    assert len(sr_lines) == cfg.n_days + 1
    nsi_vals = [float(line.split(",")[1]) for line in nsi_lines[1:]]
    assert len(set(nsi_vals)) > 1  # a walk, not a constant
