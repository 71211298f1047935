import hashlib
import json
import math
import re
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

from helpers import cell, on_calendar


# ---------------------------------------------------------------------------
# Generator primitives


def test_rng_known_answers_seed_zero():
    rng = DeterministicRng(0)
    assert rng._raw(1).tolist() == [0xE220A8397B1DCDAF]
    assert rng._raw(1).tolist() == [0x6E789E6AA1B965F4]
    assert rng._raw(1).tolist() == [0x06C45D188009454F]


def test_rng_streams_reproducible():
    a = DeterministicRng(12345)
    b = DeterministicRng(12345)
    assert a._raw(50).tolist() == b._raw(50).tolist()
    assert DeterministicRng(1)._raw(1).tolist() != DeterministicRng(2)._raw(1).tolist()


def test_rng_uniform_in_unit_interval():
    rng = DeterministicRng(7)
    draws = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_rng_normal_moments():
    rng = DeterministicRng(8)
    draws = rng.normals(4000)
    assert np.all(np.isfinite(draws))
    assert abs(draws.mean()) < 0.1
    assert abs(draws.std() - 1.0) < 0.1


def test_rng_randint_bounds_and_errors():
    rng = DeterministicRng(9)
    draws = rng.randints(3, 7, 200).tolist()
    assert set(draws) == {3, 4, 5, 6, 7}
    assert rng.randints(5, 5, 1).tolist() == [5]
    with pytest.raises(ValueError):
        rng.randints(2, 1, 1)


def test_rng_shuffle_is_permutation():
    rng = DeterministicRng(10)
    seq = list(range(30))
    shuffled = list(seq)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == seq
    assert shuffled != seq


# The pure-Python SplitMix64 with Box-Muller, one draw at a time: the
# reference the block draws must reproduce exactly.
MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def unmix(z: int) -> int:
    """The inverse of `mix`: the mixer is a bijection of 64-bit words."""

    def unshift(y: int, s: int) -> int:  # inverse of x ^ (x >> s)
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = (z * pow(MIX2, -1, 1 << 64)) & MASK64
    z = unshift(z, 27)
    z = (z * pow(MIX1, -1, 1 << 64)) & MASK64
    return unshift(z, 30)


class ScalarSplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        return mix(self.state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]


def seed_with_small_draw(position: int, raw: int) -> int:
    """A seed whose draw at 0-based `position` is the raw output `raw`."""
    return (unmix(raw) - (position + 1) * GAMMA) & MASK64


# Wrapping uint64 arithmetic must wrap silently, not through a warning.
strict = pytest.mark.filterwarnings("error")


@strict
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_block_raw_draws_match_the_scalar_reference(seed):
    ref = ScalarSplitMix64(seed)
    want = [ref.next_u64() for _ in range(10_000)]
    rng = DeterministicRng(seed)
    got = rng._raw(1).tolist() + rng._raw(2999).tolist() + rng._raw(7000).tolist()
    assert got == want
    assert rng._raw(1).tolist() == [ref.next_u64()]


@strict
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_block_uniforms_and_randints_match_the_scalar_reference(seed):
    ref = ScalarSplitMix64(seed)
    rng = DeterministicRng(seed)
    assert rng.uniforms(3000).tolist() == [ref.uniform() for _ in range(3000)]
    assert rng.randints(-4, 9, 500).tolist() == [ref.randint(-4, 9) for _ in range(500)]
    hi = np.arange(2000) % 997 + 3
    want = [ref.randint(3, h) for h in hi.tolist()]
    assert rng.randints(3, hi, len(hi)).tolist() == want
    assert rng.randints(0, 2**62, 1).tolist() == [ref.randint(0, 2**62)]
    with pytest.raises(ValueError):
        rng.randints(0, np.array([3, -1]), 2)


@strict
def test_block_shuffle_matches_the_scalar_reference():
    ref = ScalarSplitMix64(77)
    rng = DeterministicRng(77)
    want = [f"token{i}" for i in range(1200)]
    got = list(want)
    ref.shuffle(want)
    rng.shuffle(got)
    assert got == want
    one = ["only"]
    rng.shuffle(one)
    assert one == ["only"] and rng._raw(1).tolist() == [ref.next_u64()]


@strict
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_block_normals_match_the_scalar_reference(seed):
    ref = ScalarSplitMix64(seed)
    rng = DeterministicRng(seed)
    assert rng.normals(2000).tolist() == [ref.normal() for _ in range(2000)]
    z, u = rng.normal_uniform_pairs(700)
    want = [(ref.normal(), ref.uniform()) for _ in range(700)]
    assert (z.tolist(), u.tolist()) == ([a for a, _ in want], [b for _, b in want])
    assert rng.normals(1).tolist() == [ref.normal()]


@strict
@pytest.mark.parametrize("raw", [0, (1 << 11) - 1])
def test_block_normals_keep_the_stream_through_a_rejected_u1(raw):
    # Draw 10 is the u1 of the sixth normal; its top 53 bits are zero, so it
    # is rejected and the rest of the stream shifts by one draw.
    seed = seed_with_small_draw(10, raw)
    ref = ScalarSplitMix64(seed)
    assert [ref.next_u64() for _ in range(11)][10] == raw

    ref = ScalarSplitMix64(seed)
    rng = DeterministicRng(seed)
    assert rng.normals(12).tolist() == [ref.normal() for _ in range(12)]
    assert rng._raw(1).tolist() == [ref.next_u64()]

    # Two draws earlier in the stream, it is the u1 of the fifth (normal, uniform) pair.
    ref = ScalarSplitMix64(seed - 2 * GAMMA)
    rng = DeterministicRng(seed - 2 * GAMMA)
    z, u = rng.normal_uniform_pairs(8)
    want = [(ref.normal(), ref.uniform()) for _ in range(8)]
    assert (z.tolist(), u.tolist()) == ([a for a, _ in want], [b for _, b in want])
    assert rng._raw(1).tolist() == [ref.next_u64()]


def test_trading_calendar_weekdays_only():
    cal = trading_calendar(date(2021, 1, 4), 15)
    assert len(cal) == 15
    assert all(d.weekday() < 5 for d in cal)
    assert all(cal[i] < cal[i + 1] for i in range(14))


# ---------------------------------------------------------------------------
# Config validation


def test_config_validation_errors():
    with pytest.raises(ValueError, match="10 days"):
        SynthConfig(n_days=5)
    with pytest.raises(ValueError, match="12"):
        SynthConfig(n_firms=8, factor_construction=True, n_events=5)
    with pytest.raises(ValueError, match="odd"):
        SynthConfig(sentiment_draws=20)
    with pytest.raises(ValueError, match="distinct firms"):
        SynthConfig(n_firms=3, n_events=4)
    with pytest.raises(ValueError, match="room"):
        SynthConfig(n_days=100, n_events=1, event_history=90, event_tail=20)
    with pytest.raises(ValueError, match="zero_return_rate"):
        SynthConfig(zero_return_rate=1.0)
    with pytest.raises(ValueError, match="signal_n"):
        SynthConfig(signal_n=0)
    with pytest.raises(ValueError, match="event_polarity"):
        SynthConfig(event_polarity="mixed")
    SynthConfig()  # defaults are sound


def test_an_effect_window_the_planted_data_would_cut_is_rejected():
    # Seed 7 at (0, 40) would plant effect days past the calendar's end and
    # past event_tail, where exact-zero return days may overwrite them.
    message = "'effect_window' must lie within [-273, 20] (-event_history..event_tail), got [0, 40]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SynthConfig(seed=7, effect_window=(0, 40), zero_return_rate=0.2)
    with pytest.raises(ValueError, match=r"within \[-60, 20\] .*, got \[-61, 0\]$"):
        SynthConfig(**{**FAST, "effect_window": (-61, 0)})
    SynthConfig(effect_window=(-273, 20))  # the whole span the calendar keeps


# ---------------------------------------------------------------------------
# Generation invariants

FAST = dict(n_firms=6, n_days=130, n_events=3, event_history=60, event_tail=20)


def test_gen_dataset_is_deterministic():
    a = gen_dataset(SynthConfig(seed=42, **FAST))
    b = gen_dataset(SynthConfig(seed=42, **FAST))
    assert a.truth.to_json_dict() == b.truth.to_json_dict()
    assert [t.text for t in a.transcripts] == [t.text for t in b.transcripts]
    for fid in a.panel.firms:
        ra = [cell(a.panel, fid, d).daily_return for d in a.calendar]
        rb = [cell(b.panel, fid, d).daily_return for d in a.calendar]
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
            gap = cell(ds.panel, ev.firm_id, d).daily_return - model
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
            if cell(ds.panel, fid, d).daily_return == 0.0:
                flat += 1
    assert 0.2 < flat / total < 0.4
    for ev in ds.truth.events:
        lo = max(0, ev.day_index - cfg.event_tail)
        hi = min(cfg.n_days - 1, ev.day_index + cfg.event_tail)
        for t in range(lo, hi + 1):
            assert cell(ds.panel, ev.firm_id, ds.calendar[t]).daily_return != 0.0


def test_an_effect_window_that_starts_before_the_tail_keeps_every_effect_day():
    cfg = SynthConfig(seed=4, zero_return_rate=0.3, **{**FAST, "effect_window": (-50, 0)})
    ds = gen_dataset(cfg)
    for ev in ds.truth.events:
        for t in range(ev.day_index - 50, ev.day_index + 1):
            assert cell(ds.panel, ev.firm_id, ds.calendar[t]).daily_return != 0.0


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
    anchor = 320  # the event day's position on the factor calendar
    names = ("rmrf", "smb", "hml", "rmw", "cma")
    for fid in ds.panel.firms:
        excess = {
            d: cell(ds.panel, fid, d).daily_return - cfg.rf_daily for d in ds.calendar
        }
        est = estimate_exposures(
            on_calendar(excess, ds.factors), ds.factors, window, anchor, fid
        )
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
    polarity = ds.lexicon.polarity(days.vocab)
    for day in days:
        obs = score_day(day, polarity)
        want = by_date[day.date]
        assert obs.n_positive == want.n_positive
        assert obs.n_negative == want.n_negative
        assert obs.score == pytest.approx(want.score, abs=1e-15)
        scores.append(obs)

    firms = ds.dictionary.index(days.vocab)
    mentions = [
        (day.date, *m) for day in days for m in extract_mentions(day, firms, cfg.min_mentions)
    ]
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
    firms = ds.dictionary.index(days.vocab)
    for day in days:
        mentions = extract_mentions(day, firms, cfg.min_mentions)
        if day.date not in event_dates:
            assert mentions == []


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
            assert cell(panel, fid, d).daily_return == cell(ds.panel, fid, d).daily_return

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


# The sha256 of every written file, recorded before the generator drew its
# numbers in blocks: a seed must keep its bytes.
PINNED_DATASETS = [
    (
        dict(seed=0),
        {
            "exclusions": "e2600c9bf8c348a3ffd1138ae2435673370ea339daa94ca7c7446576fa3e8514",
            "factors": "33fe744635c2be1bf85897934daf64ffff23b4dd562b7c19720e21be1d488585",
            "firm_names": "3ff6b6400641a4112a1638f7b9437888ec1abea2581304c3d381d9af6c716ac5",
            "ground_truth": "6cfa948062a29d7e5ffb2d14e40d5704184e22ebc08b4c9ffa5c6cadd742e1ae",
            "lexicon_negative": "92e8bc982556321cb8a99f5fb3e758d6811834bb07a92976c9c3d093d593546a",
            "lexicon_positive": "6786138532020ca2563dd067ea6ebd116369fdb7de57341eb1f5b4e359213de3",
            "nsi": "b17dc94ccb1c8548496b1911e7d9be273ab1bbfc50e17af9fcbf5d11707e3767",
            "panel": "0f3cf8f7e0fe9c9d832dc5179a9be2045e5344af2b5c0b06fdb874d06ba009c2",
            "rf": "e0f542d33592f18878ec12957b482521273c4481d02bcce7a6dd0b0e88af7ddb",
            "short_rate": "c223344543cf58fdb92fe8eb8285bd90d097489d049a50c4279ff46739410a81",
            "transcripts": "f326e5cc546d68758e1159b4162538569206a43ac534e4cbdcf4e764736b08c2",
        },
    ),
    (
        dict(seed=3, event_polarity="positive", n_events=5, factor_construction=True),
        {
            "exclusions": "e2600c9bf8c348a3ffd1138ae2435673370ea339daa94ca7c7446576fa3e8514",
            "factors": "7e09c12e6619a504f4dcbfa9929b73fae2fb19b3b3f49d789d4aead2b79a9772",
            "firm_names": "3ff6b6400641a4112a1638f7b9437888ec1abea2581304c3d381d9af6c716ac5",
            "ground_truth": "7d4079e72e7b1740ab5a198b50ec7d0cc3617e58027fc13df6b07076c683338c",
            "lexicon_negative": "92e8bc982556321cb8a99f5fb3e758d6811834bb07a92976c9c3d093d593546a",
            "lexicon_positive": "6786138532020ca2563dd067ea6ebd116369fdb7de57341eb1f5b4e359213de3",
            "nsi": "9d81c4077cbae8c41d65235fadf31a27f8293c090e64885cfff9f91eb3d7b61a",
            "panel": "14937319c607dc4718ab4c9fedb4fd1933f2cedd7cef7369caf57ff7a1446823",
            "rf": "e0f542d33592f18878ec12957b482521273c4481d02bcce7a6dd0b0e88af7ddb",
            "short_rate": "0716b4b03ed8709261e87f3a76221dfda76dc2409c6c81fe766c8886cda8c5b9",
            "transcripts": "032125028233e865846183bcd82fa35cbb335c3177f99b7b6a8256d95385ef96",
        },
    ),
]


@pytest.mark.parametrize("overrides, want", PINNED_DATASETS)
def test_written_files_keep_their_pinned_bytes(tmp_path, overrides, want):
    paths = write_dataset(gen_dataset(SynthConfig(**overrides)), tmp_path)
    got = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
    assert got == want
