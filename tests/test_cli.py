import hashlib
import json
from pathlib import Path

import pytest

from sentimetrics import factors
from sentimetrics.cli import OUT_FILES, STAGE_ORDER, ConfigError, load_config, main

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
    for name in OUT_FILES.values():
        assert (out / name).exists(), name
    # Per-N backtests come on top of the fixed set.
    assert (out / "backtest_N05.csv").exists()


def test_manifest_records_hashes_and_stages(pipeline):
    cfg_path, out = pipeline
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["stages"]) == set(STAGE_ORDER)
    assert len(manifest["config_sha256"]) == 64
    assert "timings" not in manifest  # opt-in only
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


def test_out_flag_overrides_configured_dir(tmp_path):
    cfg_path = _make_dataset(tmp_path)
    other = tmp_path / "elsewhere"
    rc = main(["ingest", "--config", str(cfg_path), "--out", str(other)])
    assert rc == 0
    assert (other / "days.csv").exists()
    assert not (cfg_path.parent / "out" / "days.csv").exists()


def test_load_config_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"out_dir": "results"}), encoding="utf-8")
    cfg = load_config(p)
    assert cfg.out_dir == tmp_path / "results"
    assert cfg.signal_n_list == list(range(5, 21))
    assert cfg.signal_lag == 2
    assert cfg.regression_n == 10
    assert not cfg.timings
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


def test_synth_override_file_that_is_not_json_names_the_file(tmp_path, capsys):
    overrides = tmp_path / "s.json"
    overrides.write_text('{"n_firms": 5,', encoding="utf-8")
    rc = main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(overrides)])
    assert rc == 1
    assert f"{overrides}: invalid JSON" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("tie_up", "false"),
        ("robust_se", 0),
        ("with_ols", None),
        ("timings", "yes"),
        ("min_mentions", 2.9),
        ("signal_lag", "2"),
        ("regression_n", True),
        ("rebalance_month", 7.0),
        ("rebalance_day", [1]),
        ("min_breakpoint_stocks", "6"),
        ("signal_n_list", [5, 6.5]),
        ("signal_n_list", [5, False]),
        ("signal_n_list", "5,6"),
    ],
)
def test_load_config_rejects_mistyped_values(tmp_path, key, value):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({key: value}), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        load_config(p)


def test_load_config_keeps_exact_json_types(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps({"tie_up": True, "min_mentions": 2, "signal_n_list": [5, 7]}), encoding="utf-8"
    )
    cfg = load_config(p)
    assert cfg.tie_up is True and not cfg.robust_se
    assert cfg.min_mentions == 2 and cfg.signal_n_list == [5, 7]


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
