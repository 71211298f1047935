"""Acceptance gate: one test per shipped guarantee, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` for the one-line-per-guarantee
view.  Every test is seeded and deterministic; the runtime-bounded ones
assert their own budget.
"""

import json
import math
import time
from datetime import date

import numpy as np
import pytest

from sentimetrics.cli import main
from sentimetrics.corpus import TranscriptRecord, build_days
from sentimetrics.econometrics import (
    PerfectSeparationError,
    build_design,
    fit_logit,
    fit_ols,
    logit_log_likelihood,
)
from sentimetrics.eventstudy import (
    EventWindowConfig,
    estimate_exposures,
    lead_lag_design,
    run_event_study,
)
from sentimetrics.factors import FACTOR_NAMES, FactorSeries, construct_factors
from sentimetrics.sentiment import Lexicon, StockSentimentEvent, score_day
from sentimetrics.synthetic import SynthConfig, gen_dataset
from sentimetrics.timing import (
    SignalSeries,
    backtest_strategy,
    build_signal,
    lagged_signal_values,
    timing_observations,
)

from helpers import Row, cell, on_calendar, panel_from_rows, weekdays


def _random_factors(rng, n_days, start=date(2019, 1, 7)):
    return FactorSeries(
        dates=weekdays(start, n_days),
        rmrf=rng.normal(0.0003, 0.01, n_days),
        smb=rng.normal(0.0, 0.005, n_days),
        hml=rng.normal(0.0, 0.005, n_days),
        rmw=rng.normal(0.0, 0.004, n_days),
        cma=rng.normal(0.0, 0.004, n_days),
        rf=np.full(n_days, 1e-4),
    )


# ---------------------------------------------------------------------------
# 1. Sentiment exactness on a toy corpus (hand counts, duplicates kept)


def test_01_sentiment_exactness():
    t0 = time.perf_counter()
    lexicon = Lexicon(positive={"gain", "rally", "strong"}, negative={"loss", "weak"})
    text = (
        "rally rally gain opened strong while loss loomed; weak weak weak "
        "tone. gain! GAIN noise rally"
    )
    # Hand count, duplicates kept: rally x3, gain x2 ("gain!" strips to
    # "gain", "GAIN" stays uppercase and must not match), strong x1 -> 6
    # positive.  loss x1, weak x3 -> 4 negative.  Score = (6-4)/10.
    days = build_days([TranscriptRecord("a", date(2022, 5, 2), text)])
    day = days[0]
    assert len(day.tokens) <= 50
    obs = score_day(day, lexicon.polarity(days.vocab))
    assert obs.n_positive == 6
    assert obs.n_negative == 4
    assert obs.score == (6 - 4) / 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS 1 sentiment exactness: 6 pos / 4 neg, score {obs.score:.6f}, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. OLS oracle equivalence: 100 random 16-parameter designs


def test_02_ols_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0

    # 50 plain regressions through fit_ols.
    for _ in range(50):
        n = int(rng.integers(40, 301))
        X = rng.normal(0.0, 1.0, (n, 15))
        beta_true = rng.normal(0.0, 0.5, 16)
        y = beta_true[0] + X @ beta_true[1:] + rng.normal(0.0, 0.01, n)
        res = fit_ols(build_design({f"x{j}": X[:, j] for j in range(15)}, y))
        Xf = np.column_stack([np.ones(n), X])
        oracle = np.linalg.solve(Xf.T @ Xf, Xf.T @ y)
        worst = max(worst, float(np.max(np.abs(res.estimates - oracle))))

    # 50 exposure estimations against a hand-built lead/lag design.
    window = EventWindowConfig(est_start=-260, est_end=-8, evt_start=-7, evt_len=5, min_est_obs=100)
    for _ in range(50):
        factors = _random_factors(rng, 300)
        slopes = rng.normal(0.0, 0.4, 15)
        mats = np.column_stack([getattr(factors, f) for f in FACTOR_NAMES])
        excess = {}
        for t in range(1, 299):
            model = 0.0002
            for j in range(5):
                model += (
                    slopes[3 * j] * mats[t - 1, j]
                    + slopes[3 * j + 1] * mats[t, j]
                    + slopes[3 * j + 2] * mats[t + 1, j]
                )
            excess[factors.dates[t]] = model + rng.normal(0.0, 0.005)
        est = estimate_exposures(
            on_calendar(excess, factors), lead_lag_design(factors), window, 280
        )

        rows, ys = [], []
        for rel in range(window.est_start, window.est_end + 1):
            idx = 280 + rel
            if idx < 1 or idx > 298:
                continue
            row = [1.0]
            for j in range(5):
                row.extend([mats[idx - 1, j], mats[idx, j], mats[idx + 1, j]])
            rows.append(row)
            ys.append(excess[factors.dates[idx]])
        Xf = np.array(rows)
        yv = np.array(ys)
        assert est.n_obs == len(ys) <= 300
        oracle = np.linalg.solve(Xf.T @ Xf, Xf.T @ yv)
        got = np.concatenate([[est.alpha], est.slopes])
        worst = max(worst, float(np.max(np.abs(got - oracle))))

    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    print(f"PASS 2 OLS oracle equivalence: 100 designs, worst gap {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Logit oracle equivalence: brute-force likelihood maximization


def test_03_logit_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    fitted = 0
    worst_gap = 0.0
    worst_grad = 0.0
    while fitted < 20:
        n = int(rng.integers(15, 31))
        x = rng.normal(0.0, 1.0, n)
        eta = rng.normal(0.0, 0.7) + rng.normal(0.0, 0.9) * x
        y = (rng.uniform(0.0, 1.0, n) < 1 / (1 + np.exp(-eta))).astype(float)
        if y.min() == y.max():
            continue
        design = build_design({"x": x}, y)
        try:
            res = fit_logit(design)
        except PerfectSeparationError:
            continue
        fitted += 1

        def nll(b0, b1):
            return -logit_log_likelihood(design, np.array([b0, b1]))

        b0, b1, half = 0.0, 0.0, 6.0
        for _ in range(26):
            g0 = np.linspace(b0 - half, b0 + half, 7)
            g1 = np.linspace(b1 - half, b1 + half, 7)
            _v, b0, b1 = min((nll(a, b), a, b) for a in g0 for b in g1)
            half *= 0.55
        worst_gap = max(
            worst_gap,
            abs(res.coef("intercept") - b0),
            abs(res.coef("x") - b1),
        )
        X = design.full_matrix()
        p = 1 / (1 + np.exp(-(X @ res.estimates)))
        worst_grad = max(worst_grad, float(np.max(np.abs(X.T @ (y - p)))))

    elapsed = time.perf_counter() - t0
    assert worst_gap < 1e-4
    assert worst_grad < 1e-6
    assert elapsed < 30.0
    print(
        f"PASS 3 logit oracle equivalence: 20 fits, worst gap {worst_gap:.2e}, "
        f"worst gradient {worst_grad:.2e}, {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 4. Factor construction vs independent sort-weight-difference oracle


def _vw(pairs):
    num = sum(r * w for r, w in pairs)
    den = sum(w for _r, w in pairs)
    return num / den


def test_04_factor_construction_oracle():
    calendar = weekdays(date(2022, 1, 3), 5)
    rng = np.random.default_rng(404)
    caps = [1e9 * (i + 1) for i in range(6)] + [1e11 * (i + 1) for i in range(6)]
    value_rank = [1, 5, 9, 2, 6, 10, 3, 7, 11, 4, 8, 12]
    prof_rank = [9, 1, 5, 10, 2, 6, 11, 3, 7, 12, 4, 8]
    inv_rank = [5, 9, 1, 6, 10, 2, 7, 11, 3, 8, 12, 4]
    rets = rng.normal(0.0, 0.02, (12, 5))
    data = {}
    for i in range(12):
        be = (value_rank[i] / 10) * caps[i]
        oi = (prof_rank[i] / 20) * be
        tap = 1e9 / (1 + (inv_rank[i] - 6) / 20)
        data[f"S{i}"] = {
            d: Row(rets[i, t], caps[i], "main", be, oi, 1e9, tap)
            for t, d in enumerate(calendar)
        }
    panel = panel_from_rows(data, calendar)
    rf = {d: 1e-4 for d in calendar}
    series = construct_factors(panel, rf)

    def bucket(rank):  # ranks 1-4 low, 5-8 mid, 9-12 high under 30/70 cuts
        return 0 if rank <= 4 else (2 if rank >= 9 else 1)

    membership = {
        "value": {f"S{i}": (0 if i < 6 else 1, bucket(value_rank[i])) for i in range(12)},
        "profitability": {f"S{i}": (0 if i < 6 else 1, bucket(prof_rank[i])) for i in range(12)},
        "investment": {f"S{i}": (0 if i < 6 else 1, bucket(inv_rank[i])) for i in range(12)},
    }
    worst = 0.0
    for t, d in enumerate(calendar):
        cs = [(f, row) for f in panel.firms if (row := cell(panel, f, d))]
        market = _vw([(row.daily_return, row.market_cap) for _f, row in cs])
        legs = []
        dims = {}
        for dim in ("value", "profitability", "investment"):
            cells = [[] for _ in range(6)]
            for f, row in cs:
                size_b, char_b = membership[dim][f]
                cells[size_b * 3 + char_b].append((row.daily_return, row.market_cap))
            rets_d = [market if not c else _vw(c) for c in cells]
            dims[dim] = rets_d
            legs.append(sum(rets_d[:3]) / 3 - sum(rets_d[3:]) / 3)
        v, p, inv = dims["value"], dims["profitability"], dims["investment"]
        oracle = {
            "rmrf": market - 1e-4,
            "smb": sum(legs) / 3,
            "hml": (v[2] + v[5]) / 2 - (v[0] + v[3]) / 2,
            "rmw": (p[2] + p[5]) / 2 - (p[0] + p[3]) / 2,
            "cma": (inv[0] + inv[3]) / 2 - (inv[2] + inv[5]) / 2,
        }
        for name, want in oracle.items():
            gap = abs(float(getattr(series, name)[t]) - want)
            worst = max(worst, gap)
            assert gap < 1e-12, (name, d)

    flat = {f"T{i}": {d: Row(0.01, 5e9, "main", 2e9, 2e8, 1e9, 1e9) for d in calendar}
            for i in range(8)}
    flat_series = construct_factors(panel_from_rows(flat, calendar), rf)
    for name in ("smb", "hml", "rmw", "cma"):
        assert np.all(getattr(flat_series, name) == 0.0), name
    print(f"PASS 4 factor construction oracle: 12-stock worst gap {worst:.2e}; identical universe exact zeros")


# ---------------------------------------------------------------------------
# 5. Event-study recovery of a planted abnormal return


def _mc_caar(effect, seeds):
    window = EventWindowConfig()
    values = []
    for seed in seeds:
        cfg = SynthConfig(
            seed=seed,
            n_firms=25,
            n_days=320,
            n_events=20,
            event_effect=effect,
            effect_window=(0, 5),
        )
        ds = gen_dataset(cfg)
        events = [
            StockSentimentEvent(e.firm_id, e.announce_date, -0.5, e.polarity)
            for e in ds.truth.events
        ]
        run = run_event_study(events, ds.panel, ds.factors, window)
        res = run.results["negative_full"]
        assert res.n_events == 20, seed
        k = list(res.rel_days).index(5)
        values.append(float(res.caar[k]))
    return np.array(values)


def test_05_event_study_recovery():
    t0 = time.perf_counter()
    seeds = list(range(500, 520))
    planted = _mc_caar(-0.005, seeds)
    mean = planted.mean()
    se = planted.std(ddof=1) / math.sqrt(len(planted))
    assert abs(mean - (-0.03)) < 3 * se, (mean, se)

    null = _mc_caar(0.0, seeds)
    null_mean = null.mean()
    null_se = null.std(ddof=1) / math.sqrt(len(null))
    assert abs(null_mean) < 3 * null_se, (null_mean, null_se)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"PASS 5 event-study recovery: planted mean CAAR(-20,5) {mean:.4f} "
        f"(3*SE {3*se:.4f}) vs -0.0300; null mean {null_mean:.4f} "
        f"(3*SE {3*null_se:.4f}); {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 6. AR/AAR/CAAR arithmetic identities on a full run


def test_06_caar_arithmetic_identities():
    cfg = SynthConfig(seed=606, n_firms=12, n_days=320, n_events=8)
    ds = gen_dataset(cfg)
    events = [
        StockSentimentEvent(e.firm_id, e.announce_date, -0.5, e.polarity)
        for e in ds.truth.events
    ]
    window = EventWindowConfig()
    run = run_event_study(events, ds.panel, ds.factors, window)
    paths = run.ar_paths["negative"]
    assert paths

    # AR identity: value == realized excess minus fitted, recomputed per path.
    for path in paths:
        idx = ds.factors.dates.index(path.event_date)
        est = estimate_exposures(
            on_calendar(
                {
                    d: cell(ds.panel, path.firm_id, d).daily_return - cfg.rf_daily
                    for d in ds.calendar
                },
                ds.factors,
            ),
            lead_lag_design(ds.factors),
            window,
            idx,
        )
        mats = np.column_stack([getattr(ds.factors, f) for f in FACTOR_NAMES])
        for off, rel in enumerate(range(window.evt_start, window.evt_end + 1)):
            t = idx + rel
            if t < 1 or t > len(ds.calendar) - 2:
                continue
            row = np.empty(15)
            for j in range(5):
                row[3 * j] = mats[t - 1, j]
                row[3 * j + 1] = mats[t, j]
                row[3 * j + 2] = mats[t + 1, j]
            excess_t = cell(ds.panel, path.firm_id, ds.calendar[t]).daily_return - cfg.rf_daily
            fitted = 1.0 * est.alpha + float(row @ est.slopes)
            assert path.values[off] == excess_t - fitted  # bitwise

    # AAR identity: equal-weight mean over events with data, in path order.
    res = run.results["negative_full"]
    for k, rel in enumerate(res.rel_days):
        total, count = 0.0, 0
        for path in paths:
            v = path.values[rel - path.t0]
            if not math.isnan(v):
                total += v
                count += 1
        assert count == res.n_events_per_day[k]
        if count:
            assert res.aar[k] == total / count  # bitwise

    # CAAR telescoping, full and post windows.
    for key in ("negative_full", "negative_post"):
        r = run.results[key]
        running = 0.0
        for k in range(len(r.rel_days)):
            running = running + r.aar[k]
            assert r.caar[k] == running
    assert run.results["negative_post"].caar[0] == run.results["negative_post"].aar[0]
    print("PASS 6 CAAR arithmetic identities: AR/AAR bitwise, running sum telescopes exactly")


# ---------------------------------------------------------------------------
# 7. Signal correctness: hand values, constants, affine invariance


def test_07_signal_correctness():
    from sentimetrics.sentiment import SentimentObservation

    dates = weekdays(date(2022, 1, 3), 10)
    scores = [0.10, 0.30, 0.20, 0.50, 0.40, 0.60, 0.10, 0.20, 0.70, 0.30]
    obs = [SentimentObservation(d, 3, 1, s) for d, s in zip(dates, scores)]
    assert list(build_signal(obs, 3).values) == [1, 1, 1, 0, 0, 1, 0]
    assert list(build_signal(obs, 5).values) == [1, 0, 0, 1, 0]

    const = [SentimentObservation(d, 2, 1, 0.25) for d in dates]
    assert list(build_signal(const, 4).values) == [0] * 6

    rng = np.random.default_rng(707)
    for trial in range(25):
        raw = rng.uniform(-1.0, 1.0, 14)
        a = rng.uniform(0.05, 4.0)
        b = rng.uniform(-2.0, 2.0)
        base = [SentimentObservation(d, 1, 1, float(s)) for d, s in zip(weekdays(date(2021, 3, 1), 14), raw)]
        scaled = [
            SentimentObservation(o.date, o.n_positive, o.n_negative, a * o.score + b)
            for o in base
        ]
        n = int(rng.integers(2, 7))
        assert list(build_signal(base, n).values) == list(build_signal(scaled, n).values), trial
    print("PASS 7 signal correctness: hand values N=3/5, constant zeros, affine invariance x25")


# ---------------------------------------------------------------------------
# 8. Backtest identities


def test_08_backtest_identities():
    cal = weekdays(date(2021, 1, 4), 60)
    rng = np.random.default_rng(808)
    market = rng.normal(0.0002, 0.011, 60)
    lag = 2

    ones = SignalSeries(n=1, dates=list(cal[:58]), values=np.ones(58, dtype=int))
    res_long = backtest_strategy(lagged_signal_values(ones, cal, lag), cal, market)
    assert res_long.outperformance == 0.0
    assert np.array_equal(res_long.strategy_equity, res_long.benchmark_equity)

    values = rng.integers(0, 2, 58)
    sig = SignalSeries(n=1, dates=list(cal[:58]), values=values)
    comp = SignalSeries(n=1, dates=list(cal[:58]), values=1 - values)
    res_a = backtest_strategy(lagged_signal_values(sig, cal, lag), cal, market)
    res_b = backtest_strategy(lagged_signal_values(comp, cal, lag), cal, market)
    assert np.array_equal(res_b.strategy_ret, -res_a.strategy_ret)  # exact negation

    foresight = (market[lag:] > 0).astype(int)
    fs = SignalSeries(n=1, dates=list(cal[:58]), values=foresight)
    res_f = backtest_strategy(lagged_signal_values(fs, cal, lag), cal, market)
    gross = 1.0
    for r in market[lag:]:
        gross *= 1.0 + abs(r)
    assert abs(res_f.strategy_equity[-1] - (gross - 1.0)) < 1e-12
    print("PASS 8 backtest identities: always-long zero, complement negation, foresight oracle 1e-12")


# ---------------------------------------------------------------------------
# 9. Timing-regression recovery of the planted slope


def test_09_timing_regression_recovery():
    hits = 0
    slope = 0.8
    for seed in range(900, 920):
        cfg = SynthConfig(
            seed=seed,
            n_firms=1,
            n_days=1014,
            n_events=0,
            signal_strength=slope,
            zero_return_rate=0.0,
        )
        ds = gen_dataset(cfg)
        obs = timing_observations(ds.observations)
        signal = build_signal(obs, cfg.signal_n)
        assert [(d, int(v)) for d, v in zip(signal.dates, signal.values)] == ds.truth.signal_values
        lagged = lagged_signal_values(signal, ds.calendar, cfg.signal_lag)
        up = (ds.factors.rmrf > 0).astype(float)
        up[np.isnan(lagged)] = np.nan
        res = fit_logit(build_design({"signal": lagged}, up))
        if abs(res.coef("signal") - slope) <= 2.0 * res.std_errs[res.terms.index("signal")]:
            hits += 1
    assert hits >= 18, hits
    print(f"PASS 9 timing-regression recovery: slope 0.8 within 2 SE in {hits}/20 seeds")


# ---------------------------------------------------------------------------
# 10. Determinism: byte-identical pipelines


def _run_all(tmp_path, seed, out_name):
    overrides = tmp_path / "synth.json"
    overrides.write_text(
        json.dumps(
            {"n_firms": 6, "n_days": 130, "n_events": 3, "event_history": 60, "event_tail": 20}
        ),
        encoding="utf-8",
    )
    data = tmp_path / "data"
    if not (data / "run_config.json").exists():
        assert main(["synth", "--out", str(data), "--seed", str(seed), "--config", str(overrides)]) == 0
        raw = json.loads((data / "run_config.json").read_text(encoding="utf-8"))
        raw["window"] = {
            "est_start": -50,
            "est_end": -21,
            "evt_start": -20,
            "evt_len": 40,
            "min_est_obs": 25,
        }
        (data / "run_config.json").write_text(
            json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    out = tmp_path / out_name
    assert main(["all", "--config", str(data / "run_config.json"), "--out", str(out)]) == 0
    return out


def test_10_pipeline_determinism(tmp_path):
    o1 = _run_all(tmp_path, 1010, "run1")
    o2 = _run_all(tmp_path, 1010, "run2")
    names1 = sorted(p.name for p in o1.iterdir())
    names2 = sorted(p.name for p in o2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes(), name
    print(f"PASS 10 determinism: {len(names1)} output files byte-identical across reruns")


# ---------------------------------------------------------------------------
# 11. Reference output formats: report layout and both event windows


def test_11_reference_formats(tmp_path):
    out = _run_all(tmp_path, 1111, "run")

    report = (out / "regressions.txt").read_text(encoding="utf-8")
    lines = report.splitlines()
    header = lines[2].split()
    assert header == ["term", "(1)", "(2)", "(3)", "(4)", "(5)"]
    sig_idx = next(i for i, l in enumerate(lines) if l.lstrip().startswith("signal"))
    assert "(" in lines[sig_idx + 1] and ")" in lines[sig_idx + 1]  # t-values in parentheses
    assert any(l.lstrip().startswith("n_obs") for l in lines)

    rows = (out / "event_study.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "group,relative_day,aar,caar,n_events"
    by_group = {}
    for line in rows[1:]:
        group, rel = line.split(",")[:2]
        by_group.setdefault(group, []).append(int(rel))
    assert by_group["negative_full"] == list(range(-20, 21))
    assert by_group["negative_post"] == list(range(0, 21))
    print("PASS 11 reference formats: 5-spec report with parenthesized t-values; both event windows present")
