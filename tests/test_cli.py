import argparse
import csv
import hashlib
import json
import re
import shutil
import warnings
import weakref
from dataclasses import FrozenInstanceError, asdict, fields
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from sentimetrics import cli, corpus, econometrics, factors, sentiment, synthetic, tables, timing
from sentimetrics.cli import (
    INPUT_KEYS,
    STAGE_ORDER,
    STAGES,
    ConfigError,
    RunConfig,
    load_config,
    main,
    run_stages,
)

SYNTH_OVERRIDES = {
    "n_firms": 6,
    "n_days": 130,
    "n_events": 3,
    "event_history": 60,
    "event_tail": 20,
}

# The default estimation window needs more history than the small dataset
# carries, so the run config gets a shorter one.
RUN_WINDOW = {
    "est_start": -50,
    "est_end": -21,
    "evt_start": -20,
    "evt_len": 40,
    "min_est_obs": 25,
}


def _make_dataset(root: Path, seed=21) -> Path:
    overrides = root / "synth_overrides.json"
    overrides.write_text(json.dumps(SYNTH_OVERRIDES), encoding="utf-8")
    data = root / "data"
    rc = main(["synth", "--out", str(data), "--seed", str(seed), "--config", str(overrides)])
    assert rc == 0
    cfg_path = data / "run_config.json"
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    raw["window"] = RUN_WINDOW
    cfg_path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return cfg_path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipeline")
    cfg_path = _make_dataset(root)
    rc = main(["all", "--config", str(cfg_path)])
    assert rc == 0
    return cfg_path, cfg_path.parent / "out"


def test_synth_emits_all_inputs_and_run_config(tmp_path):
    cfg_path = _make_dataset(tmp_path)
    data = cfg_path.parent
    for name in (
        "transcripts.csv",
        "firm_names.csv",
        "exclusions.txt",
        "lexicon_positive.txt",
        "lexicon_negative.txt",
        "panel.csv",
        "factors.csv",
        "rf.csv",
        "nsi.csv",
        "short_rate.csv",
        "ground_truth.json",
    ):
        assert (data / name).exists(), name
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    assert raw["transcripts_csv"] == "transcripts.csv"
    assert raw["out_dir"] == "out"
    assert raw["regression_n"] == 10


def test_all_produces_every_output(pipeline):
    _cfg, out = pipeline
    for name in [*(file for stage in STAGES.values() for file in stage.writes), "manifest.json"]:
        assert list(out.glob(name)), name
    assert (out / "backtest_N05.csv").exists()


def test_manifest_records_hashes_and_stages(pipeline):
    cfg_path, out = pipeline
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["stages"]) == set(STAGE_ORDER)
    assert len(manifest["config_sha256"]) == 64
    assert set(manifest) == {"config_sha256", "inputs", "stages"}
    assert "transcripts_csv" in manifest["inputs"]
    assert all(len(v) == 64 for v in manifest["inputs"].values())
    rows = manifest["stages"]["ingest"]["rows"]
    assert rows["days.csv"] == SYNTH_OVERRIDES["n_days"]


def test_event_study_stage_found_events(pipeline):
    _cfg, out = pipeline
    lines = (out / "event_study.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "group,relative_day,aar,caar,n_events"
    groups = {line.split(",")[0] for line in lines[1:]}
    assert "negative_full" in groups
    assert "negative_post" in groups


def test_regressions_cover_five_specs(pipeline):
    _cfg, out = pipeline
    lines = (out / "regressions.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "spec,term,estimate,std_err,t_value,n_obs"
    specs = {line.split(",")[0] for line in lines[1:]}
    assert specs == {"1", "2", "3", "4", "5"}
    report = (out / "regressions.txt").read_text(encoding="utf-8")
    assert "N=10" in report
    assert "(1)" in report and "(5)" in report


def test_single_stage_rerun_is_stable(pipeline):
    cfg_path, out = pipeline
    before = (out / "factors.csv").read_bytes()
    manifest_before = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    rc = main(["factors", "--config", str(cfg_path)])
    assert rc == 0
    assert (out / "factors.csv").read_bytes() == before
    manifest_after = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    # Partial rerun merges into the existing stage map instead of resetting it.
    assert set(manifest_after["stages"]) == set(manifest_before["stages"])
    # Only the earlier stages carry over, so a stale top-level block drops out.
    stale = {**manifest_after, "timings": {"timing": 0.25}}
    (out / "manifest.json").write_text(json.dumps(stale), encoding="utf-8")
    assert main(["timing", "--config", str(cfg_path)]) == 0
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8")) == manifest_before


def test_full_reruns_are_byte_identical(tmp_path):
    cfg_path = _make_dataset(tmp_path, seed=33)
    rc = main(["all", "--config", str(cfg_path), "--out", str(tmp_path / "o1")])
    assert rc == 0
    rc = main(["all", "--config", str(cfg_path), "--out", str(tmp_path / "o2")])
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "o1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "o2").iterdir())
    for name in names:
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes(), name


def test_stage_without_upstream_fails_with_pointer(tmp_path, capsys):
    cfg_path = _make_dataset(tmp_path)
    rc = main(["timing", "--config", str(cfg_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "run the sentiment stage first" in err


def test_missing_config_file_errors(tmp_path, capsys):
    rc = main(["all", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "config file not found" in capsys.readouterr().err


def test_unknown_config_key_errors(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"transcript_csv": "x.csv"}), encoding="utf-8")
    rc = main(["all", "--config", str(p)])
    assert rc == 1
    assert "unknown config keys: transcript_csv" in capsys.readouterr().err
    p.write_text(json.dumps({"timings": False}), encoding="utf-8")
    assert main(["all", "--config", str(p)]) == 1
    assert "unknown config keys: timings" in capsys.readouterr().err


def test_config_input_pointing_nowhere_errors(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"transcripts_csv": "ghost.csv"}), encoding="utf-8")
    rc = main(["all", "--config", str(p)])
    assert rc == 1
    assert "missing file" in capsys.readouterr().err


def test_missing_required_input_names_stage(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"out_dir": "out"}), encoding="utf-8")
    rc = main(["ingest", "--config", str(p)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "transcripts_csv" in err and "ingest stage" in err


def test_out_flag_overrides_configured_dir(tmp_path, capsys):
    cfg_path = _make_dataset(tmp_path)
    other = tmp_path / "elsewhere"
    capsys.readouterr()
    rc = main(["ingest", "--config", str(cfg_path), "--out", str(other)])
    assert rc == 0
    err = capsys.readouterr().err
    assert re.fullmatch(r"sentimetrics: ingest: done in \d+\.\d\d s, peak RSS \d+\.\d MB\n", err)
    assert (other / "days.csv").exists()
    assert not (cfg_path.parent / "out" / "days.csv").exists()


def test_a_stage_after_a_forked_panel_parse_reports_the_childrens_peak(
    tmp_path, capsys, monkeypatch
):
    cfg_path = _make_dataset(tmp_path)
    monkeypatch.setattr(factors, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(factors, "_range_count", lambda: 2)
    capsys.readouterr()
    assert main(["factors", "--config", str(cfg_path)]) == 0
    err = capsys.readouterr().err
    peaks = r"peak RSS \d+\.\d MB, workers \d+\.\d MB"
    assert re.fullmatch(rf"sentimetrics: factors: done in \d+\.\d\d s, {peaks}\n", err), err


def test_load_config_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"out_dir": "results"}), encoding="utf-8")
    cfg = load_config(p)
    assert cfg.out_dir == tmp_path / "results"
    assert cfg.signal_n_list == list(range(5, 21))
    assert cfg.signal_lag == 2
    assert cfg.regression_n == 10
    assert cfg.window.est_start == -273


def test_load_config_rejects_bad_values(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"signal_mode": "sideways"}), encoding="utf-8")
    with pytest.raises(ConfigError, match="signal_mode"):
        load_config(p)
    p.write_text(json.dumps({"signal_n_list": []}), encoding="utf-8")
    with pytest.raises(ConfigError, match="signal_n_list"):
        load_config(p)
    p.write_text(json.dumps({"window": {"bogus_field": 1}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="window"):
        load_config(p)
    p.write_text("not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)
    p.write_text("[]", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: top-level JSON object expected$"):
        load_config(p)
    p.write_bytes(b'{"min_mentions": 2,\n "signal_mode": "incl\xffusive"}')
    with pytest.raises(ValueError, match=re.escape(f"{p}: line 2: not UTF-8")):
        load_config(p)
    p.write_bytes(b'\xef\xbb\xbf{"min_mentions": 2}')  # a BOM is dropped
    assert load_config(p).min_mentions == 2


def test_synth_unknown_override_key_errors(tmp_path, capsys):
    overrides = tmp_path / "s.json"
    overrides.write_text(json.dumps({"n_phirms": 5}), encoding="utf-8")
    rc = main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(overrides)])
    assert rc == 1
    assert "unknown synth keys: n_phirms" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("n_events", "3", "an integer"),
        ("n_firms", True, "an integer"),
        ("min_mentions", 2.5, "an integer"),
        ("idio_vol", "0.01", "a number"),
        ("factor_construction", 1, "true or false"),
        ("event_polarity", 1, "a string"),
        ("start", "2021-13-01", "an ISO date string"),
        ("start", 20210104, "an ISO date string"),
        ("effect_window", [0], "a pair of integers"),
        ("effect_window", [0, 5.0], "a pair of integers"),
        ("effect_window", "0,5", "a pair of integers"),
    ],
)
def test_synth_override_of_the_wrong_type_names_file_and_key(
    tmp_path, capsys, key, value, expected
):
    overrides = tmp_path / "s.json"
    overrides.write_text(json.dumps({key: value}), encoding="utf-8")
    rc = main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(overrides)])
    assert rc == 1
    assert f"{overrides}: '{key}' must be {expected}" in capsys.readouterr().err
    assert not (tmp_path / "d" / "run_config.json").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_days": 5}, "need at least 1 firm and 10 days"),
        ({"n_events": 50}, "planted events must land on distinct firms"),
        ({"sentiment_draws": 4}, "sentiment_draws must be odd and >= 3"),
        (
            {"signal_n": 400},
            "signal_n + signal_lag must be below n_days (340), got 400 + 2: "
            "the planted signal would be empty",
        ),
    ],
)
def test_synth_override_out_of_range_names_the_file(tmp_path, capsys, overrides, message):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(overrides), encoding="utf-8")
    rc = main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(p)])
    assert rc == 1
    assert capsys.readouterr().err == f"sentimetrics: error: {p}: {message}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "raw, message",
    [(b'{"n_firms": 5,', "invalid JSON"), (b'{"n_firms": 5}\xff', "line 1: not UTF-8")],
)
def test_synth_override_file_that_is_not_json_names_the_file(tmp_path, capsys, raw, message):
    overrides = tmp_path / "s.json"
    overrides.write_bytes(raw)
    rc = main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(overrides)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"sentimetrics: error: {overrides}: {message}")


@pytest.mark.parametrize(
    "key, number",
    [
        ("signal_strength", "NaN"),
        ("event_effect", "NaN"),
        ("market_vol", "Infinity"),
        pytest.param("market_vol", "1" + "0" * 400, id="market_vol-400-digits"),
    ],
)
def test_a_synth_number_a_float_cannot_hold_names_file_and_key(tmp_path, capsys, key, number):
    p = tmp_path / "s.json"
    p.write_text(f'{{"{key}": {number}}}', encoding="utf-8")
    assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "7", "--config", str(p)]) == 1
    assert capsys.readouterr().err == (
        f"sentimetrics: error: {p}: '{key}' must be a number, got {number}\n"
    )
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("all", '{"signal_lag": 9, "signal_lag": 2}', "signal_lag"),
        ("all", '{"window": {"evt_len": 30, "evt_len": 20}}', "evt_len"),
        ("synth", '{"n_events": 3, "n_firms": 6, "n_events": 4}', "n_events"),
    ],
)
def test_a_repeated_json_key_is_an_error(tmp_path, capsys, command, text, key):
    """json.loads alone would keep the last value without a word."""
    p = tmp_path / "c.json"
    p.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(p), "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == f"sentimetrics: error: {p}: duplicate key '{key}'\n"
    assert not (tmp_path / "d").exists()


def test_synth_overrides_accept_ints_for_floats_dates_and_pairs(tmp_path):
    overrides = tmp_path / "s.json"
    overrides.write_text(
        json.dumps(
            {**SYNTH_OVERRIDES, "rf_daily": 0, "start": "2021-02-01", "effect_window": [1, 3]}
        ),
        encoding="utf-8",
    )
    data = tmp_path / "d"
    assert main(["synth", "--out", str(data), "--seed", "1", "--config", str(overrides)]) == 0
    truth = json.loads((data / "ground_truth.json").read_text(encoding="utf-8"))
    assert isinstance(truth["rf_daily"], float) and truth["rf_daily"] == 0.0
    load_config(data / "run_config.json")


def test_all_parses_the_panel_once_and_eventstudy_alone_parses_it(tmp_path, monkeypatch):
    cfg_path = _make_dataset(tmp_path)
    out = cfg_path.parent / "out"
    calls = []
    load_panel = factors.load_panel

    def counted(*args, **kwargs):
        calls.append(args)
        return load_panel(*args, **kwargs)

    monkeypatch.setattr(factors, "load_panel", counted)
    assert main(["all", "--config", str(cfg_path)]) == 0
    assert len(calls) == 1
    before = {n: (out / n).read_bytes() for n in ("event_study.csv", "event_exclusions.csv")}
    assert main(["eventstudy", "--config", str(cfg_path)]) == 0
    assert len(calls) == 2
    for name, content in before.items():
        assert (out / name).read_bytes() == content, name


def test_all_reads_and_tokenizes_the_transcripts_once(tmp_path, monkeypatch):
    cfg = load_config(_make_dataset(tmp_path))
    calls = []
    for name in ("load_transcripts", "build_days"):

        def counted(*args, _fn=getattr(corpus, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(corpus, name, counted)
    run_stages(cfg, STAGE_ORDER)
    assert calls == ["load_transcripts", "build_days"]


def test_all_frees_each_shared_parse_after_the_last_stage_that_needs_it(
    demo7, tmp_path, monkeypatch
):
    refs = {}
    for module, name in ((factors, "load_panel"), (corpus, "build_days")):

        def kept(*args, _fn=getattr(module, name), _name=name, **kwargs):
            parse = _fn(*args, **kwargs)
            refs[_name] = weakref.ref(parse)
            return parse

        monkeypatch.setattr(module, name, kept)
    alive = {}
    for stage, name in [("sentiment", "build_days"), ("factors", "build_days")] + [
        (stage, "load_panel") for stage in ("eventstudy", "timing")
    ]:

        def checked(cfg, parsed, outputs, _fn=cli.STAGE_FUNCS[stage], _stage=stage, _name=name):
            alive[_stage] = refs[_name]() is not None
            return _fn(cfg, parsed, outputs)

        monkeypatch.setitem(cli.STAGE_FUNCS, stage, checked)
    cfg_path = demo7 / "run_config.json"
    assert main(["all", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert alive == {"sentiment": True, "factors": False, "eventstudy": True, "timing": False}


def test_lone_ingest_then_lone_sentiment_write_the_bytes_of_all(pipeline, tmp_path):
    cfg_path, out = pipeline
    alone = tmp_path / "alone"
    for stage in ("ingest", "sentiment"):
        assert main([stage, "--config", str(cfg_path), "--out", str(alone)]) == 0
    for name in ("days.csv", "mentions.csv", "sentiment.csv", "events.csv", "event_skips.csv"):
        assert (alone / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("key", ["_panel", "_days"])
def test_in_run_cache_fields_are_not_config_keys(tmp_path, capsys, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({key: None}), encoding="utf-8")
    assert main(["all", "--config", str(p)]) == 1
    assert f"unknown config keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("tie_up", "false"),
        ("robust_se", 0),
        ("with_ols", None),
        ("min_mentions", 2.9),
        ("signal_lag", "2"),
        ("regression_n", True),
        ("rebalance_month", 7.0),
        ("rebalance_day", [1]),
        ("min_breakpoint_stocks", "6"),
        ("signal_n_list", [5, 6.5]),
        ("signal_n_list", [5, False]),
        ("signal_n_list", "5,6"),
        ("window", {"est_start": -273.0}),
        ("window", {"min_est_obs": True}),
        ("window", {"evt_len": "40"}),
        ("window", [1]),
        ("window", {"est_start": -20}),
        ("out_dir", 5),
        ("transcripts_csv", 5),
        ("signal_lag", -1),
        ("regression_n", 0),
        ("signal_n_list", [0]),
        ("signal_n_list", [5, 5]),
        ("min_mentions", 0),
        ("min_breakpoint_stocks", 0),
        ("min_breakpoint_stocks", -1),
    ],
)
def test_load_config_rejects_mistyped_values(tmp_path, key, value):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({key: value}), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        load_config(p)


@pytest.mark.parametrize(
    "month, day, key",
    [
        (13, 1, "rebalance_month"),
        (0, 1, "rebalance_month"),
        (7, 0, "rebalance_day"),
        (4, 31, "rebalance_day"),
        (2, 29, "rebalance_day"),
    ],
)
def test_load_config_rejects_rebalance_dates_outside_the_calendar(tmp_path, month, day, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"rebalance_month": month, "rebalance_day": day}), encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{p}: '{key}' must be")):
        load_config(p)


def test_bad_rebalance_date_stops_all_before_any_stage(tmp_path, capsys):
    cfg_path = _make_dataset(tmp_path)
    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg.update(rebalance_month=13, factors_csv=None)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["all", "--config", str(cfg_path)]) == 1
    assert "'rebalance_month' must be" in capsys.readouterr().err
    assert not (cfg_path.parent / cfg["out_dir"]).exists()


@pytest.mark.parametrize(
    "key, value",
    [("min_mentions", 0), ("min_breakpoint_stocks", 0), ("signal_n_list", [5, 5])],
)
def test_out_of_range_setting_stops_all_before_any_stage(tmp_path, capsys, key, value):
    cfg_path = _make_dataset(tmp_path)
    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg.update({key: value, "factors_csv": None})
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["all", "--config", str(cfg_path)]) == 1
    assert f"{cfg_path}: '{key}' must be" in capsys.readouterr().err
    assert not (cfg_path.parent / cfg["out_dir"]).exists()


@pytest.mark.parametrize(
    "values, message",
    [
        ({"signal_mode": "sideways"}, "signal_mode must be inclusive|exclusive"),
        *(
            (
                {"signal_n_list": n_list},
                "'signal_n_list' must be a non-empty list of distinct integers >= 1, "
                f"got {n_list}",
            )
            for n_list in ([], [0], [5, 5])
        ),
        ({"min_mentions": 0}, "'min_mentions' must be >= 1, got 0"),
        ({"signal_lag": -1}, "'signal_lag' must be >= 0, got -1"),
        ({"regression_n": 0}, "'regression_n' must be >= 1, got 0"),
        ({"min_breakpoint_stocks": 0}, "'min_breakpoint_stocks' must be >= 1, got 0"),
        ({"rebalance_month": 13}, "'rebalance_month' must be in 1..12, got 13"),
        (
            {"rebalance_month": 2, "rebalance_day": 29},
            "'rebalance_day' must be a day of month 2 in every year, got 29",
        ),
    ],
)
def test_a_run_config_checks_its_values_when_built(tmp_path, capsys, values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig(config_path=tmp_path, out_dir=tmp_path / "out", inputs={}, **values)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(values), encoding="utf-8")
    assert main(["all", "--config", str(p)]) == 1
    assert capsys.readouterr().err == f"sentimetrics: error: {p}: {message}\n"


@pytest.mark.parametrize(
    "values, message",
    [
        ({"n_firms": 0}, "need at least 1 firm and 10 days"),
        ({"n_days": 9}, "need at least 1 firm and 10 days"),
        (
            {"n_firms": 8, "n_events": 5, "factor_construction": True},
            "factor construction requested with 8 firms; need at least 12",
        ),
        ({"sentiment_draws": 1}, "sentiment_draws must be odd and >= 3"),
        ({"sentiment_draws": 4}, "sentiment_draws must be odd and >= 3"),
        ({"n_events": 21}, "planted events must land on distinct firms"),
        ({"event_polarity": "mixed"}, "event_polarity must be positive|negative, got 'mixed'"),
        ({"n_days": 290}, "n_days=290 leaves no room for events (need > 293)"),
        ({"zero_return_rate": 1.0}, "zero_return_rate must be in [0, 1)"),
        ({"zero_return_rate": -0.1}, "zero_return_rate must be in [0, 1)"),
        ({"signal_n": 0}, "signal_n >= 1 and signal_lag >= 0 required"),
        ({"signal_lag": -1}, "signal_n >= 1 and signal_lag >= 0 required"),
        (
            {"signal_n": 338},
            "signal_n + signal_lag must be below n_days (340), got 338 + 2: "
            "the planted signal would be empty",
        ),
        ({"n_events": -1}, "'n_events' must be >= 0, got -1"),
        ({"event_history": -300}, "'event_history' must be >= 0, got -300"),
        ({"event_tail": -1}, "'event_tail' must be >= 0, got -1"),
        ({"lexicon_positive": 0}, "'lexicon_positive' must be >= 1, got 0"),
        ({"lexicon_negative": 0}, "'lexicon_negative' must be >= 1, got 0"),
        ({"market_vol": -0.01}, "'market_vol' must be >= 0.0, got -0.01"),
        ({"factor_vol": -0.01}, "'factor_vol' must be >= 0.0, got -0.01"),
        ({"idio_vol": -0.01}, "'idio_vol' must be >= 0.0, got -0.01"),
        ({"min_mentions": 5}, "'min_mentions' must be in 1..4, got 5"),
        ({"min_mentions": 0}, "'min_mentions' must be in 1..4, got 0"),
        ({"effect_window": [5, 0]}, "'effect_window' must be in order, got [5, 0]"),
        ({"rf_daily": -2.0}, "'rf_daily' must be > -1, got -2.0"),
        ({"rf_daily": -1.0}, "'rf_daily' must be > -1, got -1.0"),
        (
            {"start": "9999-12-20"},
            "'start' must leave room for 340 trading days before 9999-12-31, got 9999-12-20",
        ),
        (
            {"effect_window": [-274, 5]},
            "'effect_window' must lie within [-273, 20] (-event_history..event_tail), "
            "got [-274, 5]",
        ),
    ],
)
def test_a_synth_config_checks_its_values_when_built(tmp_path, capsys, values, message):
    as_built = {"start": date.fromisoformat, "effect_window": tuple}  # what the JSON is read as
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synthetic.SynthConfig(**{k: as_built.get(k, lambda v: v)(v) for k, v in values.items()})
    p = tmp_path / "s.json"
    p.write_text(json.dumps(values), encoding="utf-8")
    assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(p)]) == 1
    assert capsys.readouterr().err == f"sentimetrics: error: {p}: {message}\n"
    assert not (tmp_path / "d").exists()


def test_a_dataset_without_events_needs_no_room_on_the_calendar(tmp_path):
    overrides = tmp_path / "s.json"
    overrides.write_text(json.dumps({"n_events": 0, "n_days": 100}), encoding="utf-8")
    data = tmp_path / "d"
    assert main(["synth", "--out", str(data), "--seed", "7", "--config", str(overrides)]) == 0
    truth = json.loads((data / "ground_truth.json").read_text(encoding="utf-8"))
    assert truth["events"] == [] and len(truth["signal_values"]) > 0
    assert main(["all", "--config", str(data / "run_config.json")]) == 0


def test_a_synth_config_cannot_change_after_its_check():
    cfg = synthetic.SynthConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.sentiment_draws = 4


def test_a_run_config_and_its_window_cannot_change_after_their_checks(tmp_path):
    cfg = RunConfig(config_path=tmp_path, out_dir=tmp_path / "out", inputs={})
    with pytest.raises(FrozenInstanceError):
        cfg.signal_lag = -1
    with pytest.raises(FrozenInstanceError):
        cfg.window.evt_len = -5


def test_a_rebalance_day_past_a_c_int_is_a_range_error(tmp_path, capsys):
    day = 10**30
    message = f"'rebalance_day' must be a day of month 7 in every year, got {day}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig(config_path=tmp_path, out_dir=tmp_path / "out", inputs={}, rebalance_day=day)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"rebalance_day": day}), encoding="utf-8")
    assert main(["all", "--config", str(p)]) == 1
    assert capsys.readouterr().err == f"sentimetrics: error: {p}: {message}\n"


def test_a_fit_that_fails_in_regress_names_its_specification(tmp_path, capsys):
    overrides = tmp_path / "s.json"
    overrides.write_text(json.dumps({"signal_n": 330}), encoding="utf-8")
    data = tmp_path / "d"
    assert main(["synth", "--out", str(data), "--seed", "7", "--config", str(overrides)]) == 0
    assert main(["all", "--config", str(data / "run_config.json")]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == (
        "sentimetrics: error: specification 5: coefficient norm exceeded 10000; data are separated"
    )


def test_load_config_keeps_exact_json_types(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps({"tie_up": True, "min_mentions": 2, "signal_n_list": [5, 7]}), encoding="utf-8"
    )
    cfg = load_config(p)
    assert cfg.tie_up is True and not cfg.robust_se
    assert cfg.min_mentions == 2 and cfg.signal_n_list == [5, 7]


def test_load_config_reads_every_default_back_unchanged(tmp_path):
    defaults = RunConfig(config_path=tmp_path, out_dir=tmp_path / "out", inputs={})
    raw = {f.name: getattr(defaults, f.name) for f in fields(RunConfig) if f.init}
    del raw["config_path"], raw["inputs"]
    raw.update(out_dir="out", window=asdict(defaults.window), factors_csv=None)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    cfg = load_config(p)
    assert cfg == RunConfig(
        config_path=p, out_dir=tmp_path / "out", inputs=dict.fromkeys(INPUT_KEYS)
    )


def test_regress_alone_reads_controls_not_the_panel(pipeline, monkeypatch):
    cfg_path, out = pipeline
    before = {name: (out / name).read_bytes() for name in ("regressions.csv", "regressions.txt")}

    def no_panel(*_args, **_kwargs):
        raise AssertionError("regress must not parse the panel")

    monkeypatch.setattr(factors, "load_panel", no_panel)
    monkeypatch.setattr(factors, "load_controls", no_panel)
    assert main(["regress", "--config", str(cfg_path)]) == 0
    for name, content in before.items():
        assert (out / name).read_bytes() == content, name


# sha256 of the constructed factors and controls for one seeded dataset.  The
# construction uses elementwise arithmetic, median and percentile only (no
# BLAS), so these bytes hold on any machine.
FACTOR_PINS = {
    "factors.csv": "34f50e56161cea63a74a8c642c710cb804fdc6c80ab198b31a14821933e8540b",
    "controls.csv": "8e9defc82aaaf859cc7927205d03adb0d796bd88d95403e9fef67b0579da0581",
}


def test_constructed_factors_and_controls_are_pinned(tmp_path):
    overrides = tmp_path / "synth_overrides.json"
    overrides.write_text(
        json.dumps(
            {
                "n_firms": 15,
                "n_days": 160,
                "n_events": 3,
                "event_history": 60,
                "event_tail": 20,
                "factor_construction": True,
            }
        ),
        encoding="utf-8",
    )
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "41", "--config", str(overrides)]) == 0
    cfg_path = data / "run_config.json"
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    del raw["factors_csv"]  # construct the factors from the panel
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["factors", "--config", str(cfg_path)]) == 0
    for name, digest in FACTOR_PINS.items():
        assert hashlib.sha256((data / "out" / name).read_bytes()).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# The seed-7 demo of the README (`synth --seed 7`, then `all`): its output tree
# pinned byte for byte, and corrupted copies of its intermediate files.


@pytest.fixture(scope="module")
def demo7(tmp_path_factory):
    data = tmp_path_factory.mktemp("demo7") / "data"
    assert main(["synth", "--out", str(data), "--seed", "7"]) == 0
    assert main(["all", "--config", str(data / "run_config.json")]) == 0
    return data


# sha256 of every file of the seed-7 demo's output tree.  Some of these bytes
# come out of numpy's linear algebra (least squares, Newton solves, dot
# products), so they hold for the numpy and BLAS build they were recorded on:
# numpy 2.4.6 on x86-64.
DEMO7_PINS = {
    "backtest_N05.csv": "7412d70df6d1e35cfbd39bbb57d208017c1f3cb2235271c6d84a69e691636edd",
    "backtest_N06.csv": "13562eebf85f3a498c7f5871c0bfb764c58f725ea3f67f0b977c4b63e163071f",
    "backtest_N07.csv": "0c4edf9d78a3cecddfa24a5f705ca52421412eb40b75d36172029c7a7ee40442",
    "backtest_N08.csv": "ca46611b7722c80656e6773305ab1c40f0d324666c7bb315c000aaf663a27f8a",
    "backtest_N09.csv": "aeb22320a01198651635fa36079ecf023774061e57c3b8331de8d48bcfb0922d",
    "backtest_N10.csv": "8b24802c9170950a8354d9ee7c372b47913085c5e09f03e65356f6397f1a5f14",
    "backtest_N11.csv": "2bd5cf6148e6642ac4188566bbe2777ed204bffc094c699c98d14b674bf950d0",
    "backtest_N12.csv": "88f682675e5d9b9ea34515fee413ac90b63c29ca9d1c63a9d3493b7974533d52",
    "backtest_N13.csv": "ffd2350e252bb3720388f7ecc7e1bb683048f8a9036de0bea77abb62564bb5a2",
    "backtest_N14.csv": "bcd836018a4b142077865de77c1d9f6210f70aeaf43075cc32cf5cfa911d9d35",
    "backtest_N15.csv": "ba45483dc0d73e85ab68e93563b48a03a5e2d97a07fac772073840874a2b688f",
    "backtest_N16.csv": "d55654222057bf3096bce93d6f86e80ec91030cbced35b16576b83a44b901fc3",
    "backtest_N17.csv": "7365cf79635041b3dde4f5306480a1cba707fdad5f312e00f27b6632cdddf4fb",
    "backtest_N18.csv": "c9b53eb511ea870e78069f3903d3a09e580db12e2ca1e078d01c8a3d59100b0f",
    "backtest_N19.csv": "ced578025cdea26a91c5c2e6d4801c50a078fd59c5b6bed7cc5c05fffa17aaca",
    "backtest_N20.csv": "1818648bade6d95cfee3d3b359bb29215f5a0c4e61e40658add20ee92d74414e",
    "backtest_summary.csv": "dcdb5eff5fbbfff5ebcb3dc12469eeadb66986ce8b00e45a0f6294ded238f544",
    "controls.csv": "5a11c7a699daa885841bbc545fddf8ce0b08fe39903961ac39288567d19297e9",
    "days.csv": "6d693324eb5ecb399ab618d847229058c9db1f3c34359565719809c0fa7788c2",
    "event_exclusions.csv": "4cc31348700fe6706ef35249314fe2c0cd6d596ac2745bbbc6480c17c0d201ec",
    "event_skips.csv": "5f732063712fb6623ed467cdcc9f2628979b9bc7c9edfb821b8a69369eac780c",
    "event_study.csv": "464a37081465c7c4a80bad58edccb703ac03d3d8c2dd8c5415e80b43c633664f",
    "events.csv": "91cd9dfbb620052cbe21dcfe9766721b511b9ef49cba9008606c199d82eb567b",
    "factors.csv": "a09d48856354fd4f093a5bb05c65ba95cef935fbab364c15796456d1fb77794e",
    "manifest.json": "3582fc573ecc8cb5d81196f8de0ec73994f5d6533dc08396708fd807425a486a",
    "mentions.csv": "7c8b45acf74ae76ac463c736090b0b3148c6ea17eb668e093078781eed87f79a",
    "r2_scan.csv": "44a0c3217ddd864669a826a7ea8ba95b70ae73ec8de2acade170cab3e202b694",
    "regressions.csv": "626a169a81bfc27c904101207a2aa2e82ce371b0c3da2d6b659a9aed93328e09",
    "regressions.txt": "280c2a18ac582b383a7bd8f772d9a7dccb9006115a07e0a3a96d002f523e8c7f",
    "sentiment.csv": "22eab139b26923fa3dd8458bbc92b6c3ff742f6853dda34cabe642f8032c6a16",
    "signals.csv": "60bccb48d82b79578f370110a37fb38a6885845dde5ee1e49896a6c69a17cd7c",
}


def test_demo_output_tree_keeps_its_pinned_bytes(demo7):
    out = demo7 / "out"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == DEMO7_PINS


# The options demo: the seed-7 demo run afresh with each option that changes what the
# timing and regress stages compute or lay out.
DEMO7_OPTIONS = {
    "with_ols": True,
    "robust_se": True,
    "signal_mode": "exclusive",
    "signal_lag": 3,
    "regression_n": 7,
}


@pytest.fixture(scope="module")
def demo7_options(demo7, tmp_path_factory):
    data = tmp_path_factory.mktemp("demo7_options") / "data"
    shutil.copytree(demo7, data, ignore=shutil.ignore_patterns("out"))
    cfg_path = data / "run_config.json"
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg_path.write_text(json.dumps({**raw, **DEMO7_OPTIONS}), encoding="utf-8")
    assert main(["all", "--config", str(cfg_path)]) == 0
    return data


# sha256 of every file of the options demo's output tree, with DEMO7_PINS' caveat: numpy
# 2.4.6 on x86-64.  The files the options leave alone keep DEMO7_PINS' digests.
DEMO7_OPTIONS_PINS = {
    **DEMO7_PINS,
    "backtest_N05.csv": "f0792725653bca909f96f954b022b08c9fc201622ccffb9a9d9cf87908775741",
    "backtest_N06.csv": "8f6ded1f4ec6ff7d2e4c8217bb1f0699198cf35cc180cf7ff6ccb5de49fbab52",
    "backtest_N07.csv": "3a215a13ee0104793931889942136ada7ae93b0f3089a2e568e7d9db70241fe8",
    "backtest_N08.csv": "0ee075f0264125e9739170ca43353c771362e3c203af7144002dff34da92d68e",
    "backtest_N09.csv": "faf51f7751e486b8a2aef0fdf5f7c2926e68982f0da9495b007b29be38256227",
    "backtest_N10.csv": "1e59ab105656e92e8c0b892eb76c8d3eda398d8ef2669e7ce2a1eb094f3344a5",
    "backtest_N11.csv": "16d402d90ece34685dcf5581121ddef8c60206b7e39389b7c4be5c8827851e43",
    "backtest_N12.csv": "1a392345acc175db13afb22c686c0d2f5985e66b904ccc3293b2e20f2bf518a5",
    "backtest_N13.csv": "509da0d86bef752315335959fb761067ff7ffc1ec70b1a33665e6ed2f5857a97",
    "backtest_N14.csv": "44ed396b70ad47f0d693fce05badda9e83e79037549be759cb300c55ef3302e8",
    "backtest_N15.csv": "73edbdacf67c8f9dc37e4919e8ebd91742cc59f00a282e2130ca3a65f6394eed",
    "backtest_N16.csv": "159b47d20763b1617d56abc8e6300bd623a5afa1a4625f96fa118e6ce44d9d16",
    "backtest_N17.csv": "ed6cdd2d52e47cc5b6e2ef5d67d53ef3d7fc6ba0109426502066ac40003b908c",
    "backtest_N18.csv": "14af947cae88ef33bdeb69068aca80862f8b68e9904b7a1dabd15d11292745a5",
    "backtest_N19.csv": "b574c3b0706561ca45e82172d7671117e7187e40eefe5a1268061df7c7cf2890",
    "backtest_N20.csv": "59550ecb519dcb1b3db16b6b58aa09e2ebb62f4a0b51c2d4cfa0662dd66eddab",
    "backtest_summary.csv": "69be7c1592c913e653f8d3bd8895baea782dcc951a19c54f7fa9347c48a71f3d",
    "manifest.json": "47d2360644fe5b79768df141fe18f811a7d6ec068fef60daf14b9bc38e77fbf2",
    "r2_scan.csv": "5b28224be64c6b8929a2730a6dbf1a97772947bf44b201d404d5a3ba1c4a3da2",
    "regressions.csv": "32a3c0e3e03927ff2a56a25bd26dcc55e1816544bc72d6bca4842a557ce16b8e",
    "regressions.txt": "60c843de8c7a280e8b991568fb579371fb3fcf0cbcce202dd5e2e600aefa9f8c",
    "signals.csv": "1328d70e7c1178536c77c366a403902d06d36bc953c8b26502360ddbaa3d3203",
}


def test_options_demo_output_tree_keeps_its_pinned_bytes(demo7_options):
    out = demo7_options / "out"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == DEMO7_OPTIONS_PINS


def _report_cells(text: str) -> tuple[dict, dict]:
    """The cells of each table of a regressions.txt: {(spec, term): (estimate, t-value)}
    and {spec: n_obs}, an OLS table's specs prefixed ols_ as regressions.csv names them."""
    cells, n_obs = {}, {}
    blocks = text.split("\n\n")
    for title, table in zip(blocks[0::2], blocks[1::2]):
        prefix = "ols_" if title.startswith("excess-return") else ""
        head, _rule, *rows = table.splitlines()
        columns = list(re.finditer(r"\((\w+)\)", head))
        ends = [m.end() for m in columns]
        specs = [prefix + m.group(1) for m in columns]

        def split(line: str) -> tuple[str, list[str]]:
            first = line.split(" ", 1)[0]  # left-justified; "" on a t-value row
            padded = line.ljust(ends[-1])
            return first, [padded[a:b].strip() for a, b in zip([len(first), *ends], ends)]

        rows = [row for row in rows if not row.startswith("warning: ")]
        for est_row, t_row in zip(rows[:-1:2], rows[1::2]):
            term, estimates = split(est_row)
            _blank, t_values = split(t_row)
            for spec, est, t in zip(specs, estimates, t_values):
                if est:
                    cells[spec, term] = (est, t)
        label, counts = split(rows[-1])
        assert label == "n_obs"
        n_obs.update(zip(specs, counts))
    return cells, n_obs


def test_the_text_report_prints_the_rows_of_regressions_csv(demo7_options):
    out = demo7_options / "out"
    table = tables.read_table(out / "regressions.csv", tables.REGRESSIONS)
    rows = list(zip(*table.values()))
    want_cells = {
        (spec, term): (f"{est:.4f}", f"({np.nan if t is None else t:.2f})")
        for spec, term, est, _se, t, _n in rows
    }
    want_n_obs = {spec: str(n) for spec, _term, _est, _se, _t, n in rows}
    assert len(want_n_obs) == 10  # both tables, five specifications each
    cells, n_obs = _report_cells((out / "regressions.txt").read_text(encoding="utf-8"))
    assert cells == want_cells
    assert n_obs == want_n_obs


@pytest.mark.parametrize(
    "old", [b"[]", b"null", b'{"stages": []}', b'{"stages": "ingest"}', b'\xff{"stages": {}}']
)
def test_stage_rerun_over_a_manifest_of_another_shape_carries_no_stages(
    demo7, tmp_path, capsys, old
):
    data = tmp_path / "data"
    shutil.copytree(demo7, data)
    manifest = data / "out" / "manifest.json"
    want = json.loads(manifest.read_text(encoding="utf-8"))
    want["stages"] = {"timing": want["stages"]["timing"]}
    manifest.write_bytes(old)
    assert main(["timing", "--config", str(data / "run_config.json")]) == 0
    assert json.loads(manifest.read_text(encoding="utf-8")) == want
    assert "Traceback" not in capsys.readouterr().err


def test_a_firm_id_holding_a_bare_carriage_return_reads_back_from_the_outputs(
    demo7, tmp_path, capsys
):
    data = tmp_path / "data"
    shutil.copytree(demo7, data)
    names = data / "firm_names.csv"
    old = names.read_bytes()
    names.write_bytes(old.replace(b"\nF001,", b'\n"F\r001",'))  # quoted, so a legal input
    assert names.read_bytes() != old
    assert main(["all", "--config", str(data / "run_config.json")]) == 0
    assert "error" not in capsys.readouterr().err
    mentions = tables.read_table(data / "out" / "mentions.csv", tables.MENTIONS)
    assert "F\r001" in mentions["firm_id"] and "F001" not in mentions["firm_id"]


def _corrupt(demo7: Path, tmp_path: Path, name: str, edit) -> tuple[Path, Path]:
    """A copy of the demo whose input or output file `name` went through `edit`.

    `edit` changes the list of CSV rows in place; returns (config, edited file)."""
    data = tmp_path / "data"
    shutil.copytree(demo7, data)
    path = data / name
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return data / "run_config.json", path


def _reconfigured(demo7: Path, tmp_path: Path, **changes) -> Path:
    """A copy of the demo, outputs included, whose run config takes `changes`; returns it."""
    data = tmp_path / "data"
    shutil.copytree(demo7, data)
    cfg_path = data / "run_config.json"
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg_path.write_text(json.dumps({**raw, **changes}), encoding="utf-8")
    return cfg_path


# Row numbers count the header as row 1, as the error messages do.
def _set(row, col, value):
    def edit(rows):
        rows[row - 1][col] = value

    return edit


def _drop_last_field(row):
    def edit(rows):
        rows[row - 1].pop()

    return edit


def _drop_column(col):
    def edit(rows):
        for r in rows:
            del r[col]

    return edit


def _swap(row):
    def edit(rows):
        rows[row - 1], rows[row] = rows[row], rows[row - 1]

    return edit


def _repeat(row):
    def edit(rows):
        rows.insert(row, list(rows[row - 1]))

    return edit


def _assert_rejected(capsys, cfg_path, stage, path, pattern):
    assert main([stage, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert re.match(re.escape(f"sentimetrics: error: {path}: ") + pattern, err), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, stage, edit, pattern",
    [
        (
            "out/events.csv",
            "eventstudy",
            _set(2, 2, "abc"),
            "row 2: field 'sentiment': not a number: 'abc'$",
        ),
        (
            "out/events.csv",
            "eventstudy",
            _set(2, 3, "neg"),
            "row 2: field 'polarity': must be one of 'positive', 'negative', got 'neg'$",
        ),
        ("out/events.csv", "eventstudy", _drop_last_field(3), "row 3: expected 4 fields, got 3$"),
        (
            "out/sentiment.csv",
            "timing",
            _drop_column(3),
            "expected header 'date,n_positive,n_negative,score', got 'date,n_positive,n_negative'$",
        ),
        (
            "out/sentiment.csv",
            "regress",
            _drop_column(3),
            "expected header 'date,n_positive,n_negative,score', got 'date,n_positive,n_negative'$",
        ),
        (
            "out/mentions.csv",
            "sentiment",
            _drop_column(2),
            "expected header 'date,firm_id,count', got 'date,firm_id'$",
        ),
        (
            "out/mentions.csv",
            "sentiment",
            _set(2, 2, "x"),
            "row 2: field 'count': not an integer: 'x'$",
        ),
    ],
)
def test_malformed_intermediate_names_file_row_and_field(
    demo7, tmp_path, capsys, name, stage, edit, pattern
):
    cfg_path, path = _corrupt(demo7, tmp_path, name, edit)
    _assert_rejected(capsys, cfg_path, stage, path, pattern)


@pytest.mark.parametrize(
    "name, stage, edit, pattern",
    [
        (
            "out/sentiment.csv",
            "timing",
            _set(2, 3, "nan"),
            "row 2: field 'score': non-finite value$",
        ),
        (
            "out/events.csv",
            "eventstudy",
            _set(2, 2, "-inf"),
            "row 2: field 'sentiment': non-finite value$",
        ),
        (
            "out/controls.csv",
            "regress",
            _repeat(5),
            "row 6: field 'date': 2021-01-07 is not after 2021-01-07; "
            "dates must be strictly ascending$",
        ),
        (
            "out/controls.csv",
            "regress",
            _swap(5),
            "row 6: field 'date': 2021-01-07 is not after 2021-01-08; "
            "dates must be strictly ascending$",
        ),
        (
            "out/sentiment.csv",
            "timing",
            _swap(2),
            "row 3: field 'date': 2021-01-04 is not after 2021-01-05; "
            "dates must be strictly ascending$",
        ),
    ],
)
def test_non_finite_or_misordered_intermediate_is_rejected(
    demo7, tmp_path, capsys, name, stage, edit, pattern
):
    cfg_path, path = _corrupt(demo7, tmp_path, name, edit)
    _assert_rejected(capsys, cfg_path, stage, path, pattern)


def _reverse_rows(rows):
    rows[1:] = rows[:0:-1]


def _constructing_factors(cfg_path: Path) -> Path:
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    raw["factors_csv"] = None  # construct the factors, so rf.csv is read too
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    return cfg_path


@pytest.mark.parametrize(
    "edit, changes, message",
    [
        (
            _set(2, 5, "0.0"),  # book_equity
            {},
            "zero book equity for firm F000 at rebalance 2021-01-04: profitability sort undefined",
        ),
        (
            lambda rows: None,
            {"min_breakpoint_stocks": 500},
            "rebalance 2021-01-04: only 14 main-exchange stocks, "
            "but 'min_breakpoint_stocks' is 500",
        ),
    ],
)
def test_a_factor_sort_error_names_the_panel(demo7, tmp_path, capsys, edit, changes, message):
    cfg_path, path = _corrupt(demo7, tmp_path, "panel.csv", edit)
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg_path.write_text(json.dumps({**raw, "factors_csv": None, **changes}), encoding="utf-8")
    assert main(["factors", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"sentimetrics: error: {path}: {message}\n"


def test_a_return_that_overflows_the_value_weighted_sums_names_the_panel(demo7, tmp_path, capsys):
    # Finite and above -1, so the row checks pass it, but 1e308 x its cap is not finite.
    # numpy's overflow warning would fail this test: the suite turns warnings into errors.
    cfg_path, path = _corrupt(demo7, tmp_path, "panel.csv", _set(6, 2, "1e308"))
    with path.open(newline="", encoding="utf-8") as fh:
        firm, day = list(csv.reader(fh))[5][:2]
    assert main(["all", "--config", str(_constructing_factors(cfg_path))]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sentimetrics: error: {path}: firm {firm}, date {day}: "
        "daily_return x market_cap overflows the value-weighted sums"
    )


def test_a_constructed_factor_out_of_factors_csvs_range_stops_factors_naming_the_panel(
    demo7, tmp_path, capsys
):
    # A return of 1.5 is legal in the panel (> -1), so every firm's 1.5 on 2021-06-01 passes
    # the row checks, but it makes that day's rmrf about 1.5: outside the range that the
    # reader of factors.csv holds rmrf to.  factors used to write it, and eventstudy then
    # stopped on a row of out/factors.csv; now factors stops, naming the panel.
    def edit(rows):
        for row in rows:
            if row[1] == "2021-06-01":
                row[2] = "1.5"

    cfg_path, path = _corrupt(demo7, tmp_path, "panel.csv", edit)
    factors_csv = path.parent / "out" / "factors.csv"
    before = factors_csv.read_bytes()
    assert main(["all", "--config", str(_constructing_factors(cfg_path))]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(
        f"sentimetrics: error: {path}: date 2021-06-01: constructed rmrf must be < 1, got 1.4"
    )
    assert err[-2].startswith("sentimetrics: sentiment: done")  # no stage after it finished
    assert factors_csv.read_bytes() == before


def test_a_provided_rmrf_of_1e308_stops_the_run_before_the_event_study(demo7, tmp_path, capsys):
    # Read as it stands, 1e308 excluded every event as "design rank 3 < 16" and left each N's
    # r2 blank, with exit 0.  The factors stage now stops on the value, so no stage after it
    # rewrites its output.
    cfg_path, path = _corrupt(demo7, tmp_path, "factors.csv", _on_2021_04_19(1, "1e308"))
    assert main(["all", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sentimetrics: error: {path}: row 77: field 'rmrf': must be < 1, got 1e+308"
    )
    for name in ("event_study.csv", "r2_scan.csv"):
        assert (path.parent / "out" / name).read_bytes() == (demo7 / "out" / name).read_bytes()


@pytest.mark.parametrize("name", ["rf.csv", "nsi.csv", "short_rate.csv"])
def test_dated_inputs_take_any_order_but_no_repeated_date(demo7, tmp_path, capsys, name):
    built = {}
    for label, edit in (("clean", lambda rows: None), ("reversed", _reverse_rows)):
        cfg_path, _path = _corrupt(demo7, tmp_path / label, name, edit)
        assert main(["factors", "--config", str(_constructing_factors(cfg_path))]) == 0
        out = cfg_path.parent / "out"
        built[label] = {n: (out / n).read_bytes() for n in ("factors.csv", "controls.csv")}
    assert built["reversed"] == built["clean"]

    capsys.readouterr()
    cfg_path, path = _corrupt(demo7, tmp_path / "repeated", name, _repeat(3))
    assert main(["factors", "--config", str(_constructing_factors(cfg_path))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sentimetrics: error: {path}: row 4: "), err
    assert "duplicate date" in err
    # The passed-through factors.csv stays: none is written out of step with controls.csv.
    for n in ("factors.csv", "controls.csv"):
        assert (cfg_path.parent / "out" / n).read_bytes() == (demo7 / "out" / n).read_bytes(), n


def _regressions(cfg: RunConfig, rmrf_on: dict) -> econometrics.TimingRegressionSet:
    """The regressions of `cfg`'s outputs, fitted here with the market return `rmrf_on` each
    control day (NaN where it has none)."""
    out = cfg.out_dir
    table = tables.read_table(out / "sentiment.csv", tables.SENTIMENT)
    rows = zip(*table.values())
    observations = timing.timing_observations([sentiment.SentimentObservation(*r) for r in rows])
    controls = factors.read_controls_csv(out / "controls.csv")
    signal = timing.build_signal(observations, cfg.regression_n, mode=cfg.signal_mode)
    return econometrics.run_timing_regressions(
        timing.lagged_signal_values(signal, controls.dates, cfg.signal_lag),
        controls,
        np.array([rmrf_on.get(d, np.nan) for d in controls.dates]),
        tie_up=cfg.tie_up,
        robust=cfg.robust_se,
        with_ols=cfg.with_ols,
    )


def _factor_returns(out: Path) -> dict:
    series = factors.read_factors_csv(out / "factors.csv")
    return dict(zip(series.dates, series.rmrf.tolist()))


def test_regress_aligns_rmrf_to_controls_dates_missing_from_the_factors(demo7, tmp_path):
    def drop(*rows):
        def edit(table):
            for row in sorted(rows, reverse=True):
                del table[row - 1]

        return edit

    # Three control days lose their factor row; one factor day loses its control row.
    cfg_path, _path = _corrupt(demo7, tmp_path, "out/factors.csv", drop(40, 41, 120))
    out = cfg_path.parent / "out"
    controls_path = out / "controls.csv"
    with controls_path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop(80)(rows)
    with controls_path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert main(["regress", "--config", str(cfg_path)]) == 0

    rmrf_on = _factor_returns(out)
    controls = factors.read_controls_csv(controls_path)
    assert sum(d not in rmrf_on for d in controls.dates) == 3
    regset = _regressions(load_config(cfg_path), rmrf_on)
    want = tmp_path / "want.csv"
    tables.write_rows(want, tables.REGRESSIONS, econometrics.regression_rows(regset))
    got = (out / "regressions.csv").read_bytes()
    assert got == want.read_bytes()
    assert got != (demo7 / "out" / "regressions.csv").read_bytes()


def test_regress_with_ols_and_robust_ses_writes_both_tables(demo7, tmp_path):
    cfg_path = _reconfigured(demo7, tmp_path, with_ols=True, robust_se=True)
    out = cfg_path.parent / "out"
    shutil.rmtree(out)
    assert main(["all", "--config", str(cfg_path)]) == 0

    cfg = load_config(cfg_path)
    regset = _regressions(cfg, _factor_returns(out))
    assert sorted(regset.ols) == sorted(regset.logit) == ["1", "2", "3", "4", "5"]
    want = tmp_path / "want.csv"
    tables.write_rows(want, tables.REGRESSIONS, econometrics.regression_rows(regset))
    assert (out / "regressions.csv").read_bytes() == want.read_bytes()
    got = tables.read_table(out / "regressions.csv", tables.REGRESSIONS)
    demo = tables.read_table(demo7 / "out" / "regressions.csv", tables.REGRESSIONS)
    n_logit = len(demo["spec"])
    assert got["spec"][n_logit:] == [f"ols_{spec}" for spec in demo["spec"]]
    # Robust standard errors leave the logit estimates as they were.
    assert got["estimate"][:n_logit] == demo["estimate"]
    assert got["std_err"][:n_logit] != demo["std_err"]

    text = (out / "regressions.txt").read_text(encoding="utf-8")
    header = (cfg.regression_n, cfg.signal_lag)
    ols_table = econometrics.render_report(regset, *header, model=econometrics.OLS)
    assert ols_table.startswith("excess-return regressions, signal window N=10, lag 2 ")
    assert text == econometrics.render_report(regset, *header) + "\n" + ols_table


def test_a_lone_regress_names_its_configured_window_and_lag_in_both_headers(demo7, tmp_path):
    cfg_path = _reconfigured(demo7, tmp_path, signal_lag=3, regression_n=7, with_ols=True)
    assert main(["regress", "--config", str(cfg_path)]) == 0
    text = (cfg_path.parent / "out" / "regressions.txt").read_text(encoding="utf-8")
    headers = [line for line in text.splitlines() if "regressions, " in line]
    assert headers == [
        "up-day regressions, signal window N=7, lag 3 trading days",
        "excess-return regressions, signal window N=7, lag 3 trading days",
    ]


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("regression_n", 5000, r"'regression_n' is 5000, but only \d+ sentiment days are usable"),
        ("signal_lag", 100000, r"'signal_lag' is 100000: no signal day lagged by it falls on"),
    ],
)
def test_regress_names_the_key_that_left_its_signal_empty(
    demo7, tmp_path, capsys, key, value, message
):
    cfg_path = _reconfigured(demo7, tmp_path, **{key: value})
    with warnings.catch_warnings(record=True) as caught:  # what would reach stderr
        warnings.simplefilter("always")
        assert main(["regress", "--config", str(cfg_path)]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert re.fullmatch(re.escape(f"sentimetrics: error: {cfg_path}: ") + message + ".*\n", err)


def test_timing_names_a_signal_lag_that_leaves_no_day_on_the_factors(demo7, tmp_path, capsys):
    cfg_path = _reconfigured(demo7, tmp_path, signal_lag=100000)
    data = cfg_path.parent
    n_days = len(factors.read_factors_csv(data / "out" / "factors.csv").dates)
    assert main(["timing", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"sentimetrics: error: {cfg_path}: 'signal_lag' is 100000: no signal day lagged by it "
        f"falls on the {n_days} days of factors.csv\n"
    )
    for name in ("r2_scan.csv", "backtest_summary.csv"):
        assert (data / "out" / name).read_bytes() == (demo7 / "out" / name).read_bytes()


@pytest.mark.parametrize("stage, name", [("timing", "factors.csv"), ("regress", "controls.csv")])
def test_a_signal_lag_past_int64_names_the_key(demo7, tmp_path, capsys, stage, name):
    cfg_path = _reconfigured(demo7, tmp_path, signal_lag=10**30)
    n_days = len((cfg_path.parent / "out" / name).read_text(encoding="utf-8").splitlines()) - 1
    assert main([stage, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"sentimetrics: error: {cfg_path}: 'signal_lag' is {10**30}: no signal day lagged by it "
        f"falls on the {n_days} days of {name}\n"
    )


@pytest.mark.parametrize(
    "col, value, pattern",
    [
        (6, "-1.5", "row 301: field 'rf': must be >= -1, got -1.5$"),
        (1, "-1.5", "row 301: field 'rmrf': must be > -1, got -1.5$"),
        (1, "-1", "row 301: field 'rmrf': must be > -1, got -1.0$"),
    ],
)
def test_a_provided_factor_return_out_of_range_names_file_row_and_field(
    demo7, tmp_path, capsys, col, value, pattern
):
    cfg_path, path = _corrupt(demo7, tmp_path, "factors.csv", _set(301, col, value))
    assert path.read_text(encoding="utf-8").splitlines()[300].startswith("2022-02-25,")
    _assert_rejected(capsys, cfg_path, "factors", path, pattern)


def test_an_rf_csv_rate_below_minus_one_names_file_row_and_field(demo7, tmp_path, capsys):
    cfg_path, path = _corrupt(demo7, tmp_path, "rf.csv", _set(301, 1, "-1.5"))
    assert path.read_text(encoding="utf-8").splitlines()[300] == "2022-02-25,-1.5"
    pattern = "row 301: field 'rf': must be >= -1, got -1.5$"
    _assert_rejected(capsys, _constructing_factors(cfg_path), "factors", path, pattern)


def _on_2021_04_19(col, value):
    def edit(rows):
        [row] = [row for row in rows if row[0] == "2021-04-19"]
        row[col] = value

    return edit


@pytest.mark.parametrize(
    "col, value, pattern",
    [
        (6, "1e308", r"field 'rf': must be <= 1, got 1e\+308"),
        (6, "2.5", r"field 'rf': must be <= 1, got 2.5"),  # a percent
        (1, "1e308", r"field 'rmrf': must be < 1, got 1e\+308"),
        (2, "1", r"field 'smb': must be < 1, got 1.0"),
        (3, "-1", r"field 'hml': must be > -1, got -1.0"),
        (4, "1e308", r"field 'rmw': must be < 1, got 1e\+308"),
        (5, "-3.5", r"field 'cma': must be > -1, got -3.5"),
    ],
)
def test_an_absurd_provided_rf_or_factor_stops_the_run_naming_file_row_and_field(
    demo7, tmp_path, capsys, col, value, pattern
):
    """A daily return at or beyond 100 % is a unit error. Read as it stands, `rf` 1e308 on
    row 77 gives AARs near 1e306 and no warning, so the run must stop on the value itself."""
    cfg_path, path = _corrupt(demo7, tmp_path, "factors.csv", _on_2021_04_19(col, value))
    assert path.read_text(encoding="utf-8").splitlines()[76].startswith("2021-04-19,")
    assert main(["all", "--config", str(cfg_path)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert re.fullmatch(re.escape(f"sentimetrics: error: {path}: row 77: ") + pattern, last), last


def test_an_rf_csv_rate_above_one_names_file_row_and_field(demo7, tmp_path, capsys):
    cfg_path, path = _corrupt(demo7, tmp_path, "rf.csv", _set(77, 1, "1e308"))
    assert path.read_text(encoding="utf-8").splitlines()[76] == "2021-04-19,1e308"
    assert main(["all", "--config", str(_constructing_factors(cfg_path))]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sentimetrics: error: {path}: row 77: field 'rf': must be <= 1, got 1e+308"
    )


def test_a_huge_short_rate_stops_factors_naming_file_row_and_field(demo7, tmp_path, capsys):
    """A decimal rate, as rf is. Read as it stands, `short_rate` 1e20 ran five stages, then
    stopped regress with "collinear design columns: intercept, pct_zero, short_rate"."""
    cfg_path, path = _corrupt(demo7, tmp_path, "short_rate.csv", _set(299, 1, "1e20"))
    assert path.read_text(encoding="utf-8").splitlines()[298] == "2022-02-23,1e20"
    assert main(["all", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1] for line in err[:-1]] == [" ingest", " sentiment"]
    assert err[-1] == (
        f"sentimetrics: error: {path}: row 299: field 'short_rate': must be <= 1, got 1e+20"
    )


@pytest.mark.parametrize("value, passes", [("1", True), ("-1", True), ("-1.5", False)])
def test_a_short_rate_within_minus_one_to_one_passes(demo7, tmp_path, capsys, value, passes):
    cfg_path, path = _corrupt(demo7, tmp_path, "short_rate.csv", _set(299, 1, value))
    if passes:
        assert main(["factors", "--config", str(cfg_path)]) == 0
    else:
        pattern = "row 299: field 'short_rate': must be >= -1, got -1.5$"
        _assert_rejected(capsys, cfg_path, "factors", path, pattern)


@pytest.mark.parametrize("value, bound", [("-1e308", ">= -1e+06"), ("1e20", "<= 1e+06")])
def test_a_huge_nsi_stops_factors_naming_file_row_and_field(demo7, tmp_path, capsys, value, bound):
    """Read as it stands, `nsi` -1e308 or 1e20 ran five stages, then stopped regress with
    "specification 2: collinear design columns: d_nsi", naming neither file nor row."""
    cfg_path, path = _corrupt(demo7, tmp_path, "nsi.csv", _set(111, 1, value))
    assert path.read_text(encoding="utf-8").splitlines()[110] == f"2021-06-04,{value}"
    assert main(["all", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1] for line in err[:-1]] == [" ingest", " sentiment"]
    got = repr(float(value))
    assert err[-1] == f"sentimetrics: error: {path}: row 111: field 'nsi': must be {bound}, got {got}"


@pytest.mark.parametrize("value, passes", [("1e6", True), ("-1e6", True), ("1000000.5", False)])
def test_an_nsi_within_a_million_either_way_passes(demo7, tmp_path, capsys, value, passes):
    cfg_path, path = _corrupt(demo7, tmp_path, "nsi.csv", _set(111, 1, value))
    if passes:  # through regress: the bound keeps d_nsi from swamping the design's rank test
        assert main(["all", "--config", str(cfg_path)]) == 0
    else:
        pattern = "row 111: field 'nsi': must be <= 1e\\+06, got 1000000.5$"
        _assert_rejected(capsys, cfg_path, "factors", path, pattern)


@pytest.mark.parametrize("col, value", [(6, "1"), (6, "-1"), (2, "0.999"), (5, "-0.999")])
def test_a_provided_rf_on_its_ends_and_a_factor_inside_them_pass(demo7, tmp_path, col, value):
    cfg_path, _path = _corrupt(demo7, tmp_path, "factors.csv", _on_2021_04_19(col, value))
    assert main(["factors", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize(
    "stage, ns",
    [("timing", list(range(5, 21))), ("regress", [10]), ("all", list(range(5, 21)) + [10])],
)
def test_each_signal_is_lagged_once_per_stage(demo7, tmp_path, monkeypatch, stage, ns):
    """timing lags each of its 16 signals once; regress lags its one once and fits on that."""
    lagged_ns = []

    def counted(signal, *args, _fn=timing.lagged_signal_values):
        lagged_ns.append(signal.n)
        return _fn(signal, *args)

    monkeypatch.setattr(timing, "lagged_signal_values", counted)
    data = tmp_path / "data"
    shutil.copytree(demo7, data)
    assert main([stage, "--config", str(data / "run_config.json")]) == 0
    assert lagged_ns == ns
    for name in ("r2_scan.csv", "backtest_summary.csv", "regressions.csv"):
        assert (data / "out" / name).read_bytes() == (demo7 / "out" / name).read_bytes(), name


@pytest.mark.parametrize("evt_len", [340, 10**30])
def test_an_event_window_longer_than_the_factor_calendar_names_the_key(
    demo7, tmp_path, capsys, evt_len
):
    cfg_path = _reconfigured(demo7, tmp_path, window={"evt_len": evt_len})
    out = cfg_path.parent / "out"
    assert len(factors.read_factors_csv(out / "factors.csv").dates) == 340
    written = ("event_study.csv", "event_exclusions.csv")
    for name in written:
        (out / name).unlink()
    assert main(["eventstudy", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"sentimetrics: error: {cfg_path}: 'evt_len' is {evt_len}: no event window that long "
        "fits on the 340 days of factors.csv\n"
    )
    assert not any((out / name).exists() for name in written)


def _only_n(path: Path, column: str, ns: set[int]) -> list[str]:
    """The header and the rows of the table at `path` whose `column` is one of `ns`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    at = lines[0].split(",").index(column)
    return lines[:1] + [line for line in lines[1:] if int(line.split(",")[at]) in ns]


def test_timing_skips_an_n_whose_signal_is_empty(demo7, tmp_path, capsys):
    cfg_path = _reconfigured(demo7, tmp_path, signal_n_list=[5, 400])
    out = cfg_path.parent / "out"
    shutil.rmtree(out)
    assert main(["all", "--config", str(cfg_path)]) == 0
    err = [line for line in capsys.readouterr().err.splitlines() if " done in " not in line]
    assert err == [
        "sentimetrics: timing: N=400: only 340 sentiment days are usable: the signal is empty"
    ]
    record = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]["timing"]
    assert record["skipped_n"] == [400]
    assert sorted(p.name for p in out.glob("backtest_N*.csv")) == ["backtest_N05.csv"]
    for name, column in (("signals.csv", "N"), ("r2_scan.csv", "N"), ("backtest_summary.csv", "N")):
        want = _only_n(demo7 / "out" / name, column, {5})
        assert (out / name).read_text(encoding="utf-8").splitlines() == want, name
    for name in ("backtest_N05.csv", "regressions.csv", "regressions.txt"):
        assert (out / name).read_bytes() == (demo7 / "out" / name).read_bytes(), name


def test_timing_skips_an_n_whose_lagged_signal_misses_the_factor_calendar(
    demo7, tmp_path, capsys
):
    def first_days(rows):
        del rows[1 + 22 :]

    cfg_path, path = _corrupt(demo7, tmp_path, "out/factors.csv", first_days)
    out = path.parent
    assert main(["timing", "--config", str(cfg_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[:-1] == [
        "sentimetrics: timing: N=20: signal and market calendar have no overlapping coverage"
    ]
    assert (out / "r2_scan.csv").read_text(encoding="utf-8").splitlines()[-1] == "20,2,,"
    summary = tables.read_table(out / "backtest_summary.csv", tables.BACKTEST_SUMMARY)
    assert summary["N"] == list(range(5, 20))
    assert not (out / "backtest_N20.csv").exists()
    record = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]["timing"]
    assert record["skipped_n"] == [20]


def test_a_lone_timing_run_leaves_only_its_own_backtests(demo7, tmp_path):
    cfg_path = _reconfigured(demo7, tmp_path, signal_n_list=[5, 6])
    out = cfg_path.parent / "out"
    assert len(list(out.glob("backtest_N*.csv"))) == 16
    assert main(["timing", "--config", str(cfg_path)]) == 0
    backtests = ["backtest_N05.csv", "backtest_N06.csv"]
    assert sorted(p.name for p in out.glob("backtest_N*.csv")) == backtests
    record = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]["timing"]
    assert sorted(name for name in record["rows"] if name.startswith("backtest_N")) == backtests


def test_lone_sentiment_takes_mention_dates_in_any_order(demo7, tmp_path):
    """Rows are read by date, stably: reversing the dates (not a date's rows) changes nothing."""
    built = {}
    for label in ("ascending", "reversed"):

        def edit(rows):
            firms = [row[1] for row in rows[1:3]]
            # Two firms on a day without transcripts, so event_skips.csv has rows.
            by_date = {"2000-01-03": [["2000-01-03", f, "3"] for f in reversed(firms)]}
            for row in rows[1:]:
                by_date.setdefault(row[0], []).append(row)
            dates = sorted(by_date, reverse=label == "reversed")
            rows[1:] = [row for d in dates for row in by_date[d]]

        cfg_path, _path = _corrupt(demo7, tmp_path / label, "out/mentions.csv", edit)
        assert main(["sentiment", "--config", str(cfg_path)]) == 0
        out = cfg_path.parent / "out"
        built[label] = {n: (out / n).read_bytes() for n in ("events.csv", "event_skips.csv")}
    assert built["reversed"] == built["ascending"]
    assert built["ascending"]["events.csv"] == (demo7 / "out" / "events.csv").read_bytes()
    assert built["ascending"]["event_skips.csv"].count(b"no sentiment observation") == 2


@pytest.mark.parametrize("key", ["nsi_csv", "short_rate_csv"])
def test_a_lone_stage_names_a_needed_input_before_it_reads_or_writes(
    demo7, tmp_path, capsys, key
):
    """A null input that `factors` needs is named ahead of a bad panel.csv, and no
    factors.csv is written out of step with controls.csv."""
    cfg_path, _path = _corrupt(demo7, tmp_path, "panel.csv", _set(4, 4, "KOSDAK"))
    out = cfg_path.parent / "out"
    shutil.rmtree(out)
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg_path.write_text(json.dumps({**raw, key: None}), encoding="utf-8")
    assert main(["factors", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"sentimetrics: error: config key '{key}' is required by the factors stage\n"
    )
    assert not (out / "factors.csv").exists()


# The stage that writes each file a stage reads, as the error for a missing one names it.
UPSTREAM = {
    "mentions.csv": "ingest",
    "sentiment.csv": "sentiment",
    "events.csv": "sentiment",
    "factors.csv": "factors",
    "controls.csv": "factors",
}


def test_each_declared_read_is_written_by_an_earlier_stage():
    for i, stage in enumerate(STAGE_ORDER):
        for name in STAGES[stage].reads:
            assert cli.PRODUCERS[name] == UPSTREAM[name], name
            assert STAGE_ORDER.index(UPSTREAM[name]) < i, (stage, name)


@pytest.mark.parametrize("stage", STAGE_ORDER)
def test_a_lone_stage_with_only_its_declared_reads_writes_its_declared_files(
    demo7, tmp_path, stage
):
    full = demo7 / "out"
    out = tmp_path / "out"
    out.mkdir()
    for name in STAGES[stage].reads:
        shutil.copyfile(full / name, out / name)
    assert main([stage, "--config", str(demo7 / "run_config.json"), "--out", str(out)]) == 0
    globbed = {pattern: {p.name for p in full.glob(pattern)} for pattern in STAGES[stage].writes}
    assert all(globbed.values()), globbed
    written = set().union(*globbed.values())
    assert {p.name for p in out.iterdir()} == {*STAGES[stage].reads, *written, "manifest.json"}
    for name in written:
        assert (out / name).read_bytes() == (full / name).read_bytes(), name
    records = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    full_records = json.loads((full / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert records == {stage: full_records[stage]}


@pytest.mark.parametrize(
    "stage, name", [(stage, name) for stage in STAGE_ORDER for name in STAGES[stage].reads]
)
def test_a_lone_stage_missing_a_declared_read_names_its_producer_and_writes_nothing(
    demo7, tmp_path, capsys, stage, name
):
    out = tmp_path / "out"
    shutil.copytree(demo7 / "out", out)
    (out / name).unlink()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([stage, "--config", str(demo7 / "run_config.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"sentimetrics: error: missing {name} in {out}; run the {UPSTREAM[name]} stage first\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_run_stages_calls_each_stage_through_stage_funcs(demo7, tmp_path, monkeypatch):
    """perfbench/tracer.py times a stage by wrapping its STAGE_FUNCS entry, so a stage run
    that bypassed the dict would read 0 s without an error."""
    out = tmp_path / "out"
    shutil.copytree(demo7 / "out", out)
    cfg = load_config(demo7 / "run_config.json", str(out))
    calls = []
    for name in STAGE_ORDER:

        def swapped(cfg, parsed, outputs, _name=name):
            calls.append((_name, cfg))
            return {}

        monkeypatch.setitem(cli.STAGE_FUNCS, name, swapped)
    run_stages(cfg, STAGE_ORDER)
    assert calls == [(name, cfg) for name in STAGE_ORDER]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stages"] == dict.fromkeys(STAGE_ORDER, {"rows": {}})


def test_the_parser_offers_each_stage_with_its_help_text():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == STAGE_ORDER + ["all", "synth"]
    assert {a.dest: a.help for a in sub._choices_actions} == {
        "ingest": "tokenize transcripts and count firm mentions",
        "sentiment": "score daily sentiment and emit stock mention events",
        "factors": "load or construct the factor series and controls",
        "eventstudy": "estimate exposures and pool abnormal returns",
        "timing": "build signals, scan correlations, run backtests",
        "regress": "fit the five market-direction regressions",
        "all": "run every stage in dependency order",
        "synth": "generate a seeded synthetic dataset",
    }


@pytest.mark.parametrize("stage", STAGE_ORDER)
def test_a_stage_asks_the_run_only_for_the_inputs_it_declares(demo7, tmp_path, stage):
    """run_stages frees a shared parse after the last stage that declares its input, so an
    undeclared use would parse the input again or find it gone."""
    out = tmp_path / "out"
    shutil.copytree(demo7 / "out", out)
    cfg = load_config(demo7 / "run_config.json", str(out))
    asked = set()

    class Recording(cli.Parses):
        def __getitem__(self, key):
            asked.add(key)
            return super().__getitem__(key)

    cli.STAGE_FUNCS[stage](cfg, Recording(cfg.inputs), cli.Outputs(cfg.out_dir, stage))
    assert asked <= set(STAGES[stage].needs)


@pytest.mark.parametrize("stage", STAGE_ORDER)
@pytest.mark.parametrize(
    "reach, named",
    [
        (lambda outputs: outputs.write("extra.csv", tables.write_rows, []), "wrote extra.csv"),
        (lambda outputs: outputs.path("extra.csv", writing=True), "wrote extra.csv"),
        (lambda outputs: outputs.path("days.csv"), "read days.csv"),  # no stage reads it
        (lambda outputs: outputs.read_table("days.csv"), "read days.csv"),
    ],
    ids=["write", "write_path", "read_path", "read_table"],
)
def test_a_stage_that_names_an_undeclared_file_stops_naming_it_and_leaves_none(
    demo7, tmp_path, capsys, monkeypatch, stage, reach, named
):
    def extra(cfg, parsed, outputs, _fn=cli.STAGE_FUNCS[stage]):
        reach(outputs)
        return _fn(cfg, parsed, outputs)

    monkeypatch.setitem(cli.STAGE_FUNCS, stage, extra)
    out = tmp_path / "out"
    shutil.copytree(demo7 / "out", out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([stage, "--config", str(demo7 / "run_config.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"sentimetrics: error: the {stage} stage {named}, which it does not declare\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # no extra.csv(.tmp)


def test_the_manifest_counts_the_data_rows_of_each_table_it_names(demo7):
    out = demo7 / "out"
    records = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    counted = {name: n for record in records.values() for name, n in record["rows"].items()}
    data_rows = {
        p.name: sum(1 for _row in tables.read_rows(p, schema.columns))
        for stage in STAGES.values()
        for pattern, schema in stage.writes.items()
        if schema is not None
        for p in out.glob(pattern)
    }
    # The FOUND: on regressions.csv in CHANGES.md: the manifest records the number of fits (5
    # on the demo), not the file's 15 rows.  Its mending makes this `counted == data_rows`.
    assert data_rows["regressions.csv"] == 15
    assert counted == {**data_rows, "regressions.csv": 5}


@pytest.mark.parametrize("out_dir", [".", "../data/"])
@pytest.mark.parametrize("command", ["all", "factors"])
def test_a_stage_that_would_write_over_an_input_stops_before_it_writes(
    demo7, tmp_path, capsys, out_dir, command
):
    """An output directory that holds factors_csv: the factors stage's factors.csv would
    replace the input (its first rf given a trailing 0 that the stage would not write back),
    and the manifest would hash the rewritten file as the input's."""

    def longer_rf(rows):
        rows[1][-1] += "0"

    cfg_path, factors_csv = _corrupt(demo7, tmp_path, "factors.csv", longer_rf)
    shutil.rmtree(cfg_path.parent / "out")
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg_path.write_text(json.dumps({**raw, "out_dir": out_dir}), encoding="utf-8")
    before = factors_csv.read_bytes()
    assert main([command, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sentimetrics: error: {cfg_path}: factors_csv is {factors_csv}, "
        "which the factors stage writes"
    )
    assert factors_csv.read_bytes() == before
    assert not (cfg_path.parent / "controls.csv").exists()
    assert not (cfg_path.parent / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, name, writer",
    [
        ("all", "manifest.json", "every stage"),
        ("timing", "manifest.json", "every stage"),
        ("regress", "manifest.json.tmp", "every stage"),
        ("all", "days.csv.tmp", "the ingest stage"),
        ("timing", "backtest_N05.csv.tmp", "the timing stage"),
        ("regress", "regressions.txt.tmp", "the regress stage"),
    ],
)
def test_an_input_named_as_the_manifest_or_a_partial_write_stops_the_run_before_it_writes(
    demo7, tmp_path, capsys, command, name, writer
):
    """The manifest, which every run rewrites, and the `<file>.tmp` that a write of <file>
    moves into place are entries of the output directory that a run replaces too."""
    data = tmp_path / "data"
    shutil.copytree(demo7, data)
    out = data / "out"
    shutil.copyfile(data / "exclusions.txt", out / name)
    cfg_path = data / "run_config.json"
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg_path.write_text(json.dumps({**raw, "exclusions_txt": f"out/{name}"}), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([command, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"sentimetrics: error: {cfg_path}: exclusions_txt is {out / name}, which {writer} writes"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize(
    "command, changes, error",
    [
        ("timing", {}, "missing sentiment.csv in {out}; run the sentiment stage first"),
        (
            "all",
            {"firm_names_csv": None},
            "config key 'firm_names_csv' is required by the ingest stage",
        ),
    ],
)
def test_a_stage_stopped_by_its_checks_makes_no_output_directory(
    demo7, tmp_path, capsys, command, changes, error
):
    cfg_path = _reconfigured(demo7, tmp_path, **changes)
    out = cfg_path.parent / "out"
    shutil.rmtree(out)
    assert main([command, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"sentimetrics: error: {error.format(out=out)}\n"
    assert not out.exists()


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "changes, error",
    [
        ({"nsi_csv": None}, "config key 'nsi_csv' is required by the factors stage"),
        (
            {"factors_csv": None, "rf_csv": None},
            "config key 'rf_csv' is required by the factors stage",
        ),
        (
            {"nsi_csv": None, "lexicon_negative_txt": None},  # the first stage's check wins
            "config key 'lexicon_negative_txt' is required by the sentiment stage",
        ),
        ({"out_dir": "."}, "{cfg}: factors_csv is {data}/factors.csv, which the factors stage writes"),
    ],
    ids=["nsi_csv", "rf_csv", "first_stage_wins", "out_dir"],
)
def test_all_checks_every_stage_before_the_first_one_runs(demo7, tmp_path, capsys, changes, error):
    """A check of the factors stage needs none of ingest's and sentiment's work, so it stops
    `all` before they write days.csv, mentions.csv, sentiment.csv, events.csv and
    event_skips.csv (into the data directory, for an out_dir of ".")."""
    cfg_path = _reconfigured(demo7, tmp_path, **changes)
    data = cfg_path.parent
    for path in (data / "out").iterdir():  # an earlier run's files, unlike what a rerun writes
        path.write_bytes(b"earlier\n" + path.read_bytes())
    before = _files(data)
    assert main(["all", "--config", str(cfg_path)]) == 1
    want = error.format(cfg=cfg_path, data=data)
    assert capsys.readouterr().err == f"sentimetrics: error: {want}\n"
    assert _files(data) == before
