"""Command-line pipeline: ingest, score, factors, event study, timing, regressions.

One JSON config file names every input and parameter; subcommands run single
stages or the whole chain in dependency order.  Stages communicate only
through CSV files in the output directory, so any stage can be re-run alone
once its upstream files exist, and re-running with unchanged inputs rewrites
byte-identical outputs.  A manifest records the config hash, input checksums,
and per-stage row counts; wall-clock timings go in only when asked, to keep
the default output tree deterministic.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
import typing
import warnings
from dataclasses import dataclass, field as dc_field
from datetime import date
from pathlib import Path

import numpy as np

from . import corpus, econometrics, eventstudy, factors as factormod, sentiment, synthetic, timing

PROG = "sentimetrics"

STAGE_ORDER = ["ingest", "sentiment", "factors", "eventstudy", "timing", "regress"]

OUT_FILES = {
    "days": "days.csv",
    "mentions": "mentions.csv",
    "sentiment": "sentiment.csv",
    "events": "events.csv",
    "event_skips": "event_skips.csv",
    "factors": "factors.csv",
    "controls": "controls.csv",
    "event_study": "event_study.csv",
    "event_exclusions": "event_exclusions.csv",
    "signals": "signals.csv",
    "r2_scan": "r2_scan.csv",
    "backtest_summary": "backtest_summary.csv",
    "regressions_csv": "regressions.csv",
    "regressions_txt": "regressions.txt",
    "manifest": "manifest.json",
}

INPUT_KEYS = [
    "transcripts_csv",
    "firm_names_csv",
    "exclusions_txt",
    "lexicon_positive_txt",
    "lexicon_negative_txt",
    "panel_csv",
    "factors_csv",
    "rf_csv",
    "nsi_csv",
    "short_rate_csv",
]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    config_path: Path
    out_dir: Path
    inputs: dict[str, Path | None]
    min_mentions: int = corpus.DEFAULT_MIN_MENTIONS
    window: eventstudy.EventWindowConfig = dc_field(
        default_factory=eventstudy.EventWindowConfig
    )
    signal_n_list: list[int] = dc_field(default_factory=lambda: list(range(5, 21)))
    signal_lag: int = timing.DEFAULT_LAG
    signal_mode: str = timing.INCLUSIVE
    regression_n: int = 10
    tie_up: bool = False
    robust_se: bool = False
    with_ols: bool = False
    rebalance_month: int = 7
    rebalance_day: int = 1
    min_breakpoint_stocks: int = 6
    timings: bool = False
    _panel: factormod.SecurityPanel | None = dc_field(
        default=None, init=False, repr=False, compare=False
    )

    def panel(self, stage: str) -> factormod.SecurityPanel:
        """The security panel, parsed on first use and shared by the later stages of this run."""
        if self._panel is None:
            self._panel = factormod.load_panel(self.input_path("panel_csv", stage))
        return self._panel

    def input_path(self, key: str, stage: str) -> Path:
        p = self.inputs.get(key)
        if p is None:
            raise ConfigError(f"config key '{key}' is required by the {stage} stage")
        return p

    def out_path(self, key: str) -> Path:
        return self.out_dir / OUT_FILES[key]

    def require_upstream(self, key: str, producer: str) -> Path:
        p = self.out_path(key)
        if not p.exists():
            raise ConfigError(
                f"missing {p.name} in {self.out_dir}; run the {producer} stage first"
            )
        return p


# Parameters whose JSON type is checked exactly: bool() and int() would turn
# "false" into True and 2.9 into 2.
BOOL_KEYS = ("tie_up", "robust_se", "with_ols", "timings")
INT_KEYS = (
    "min_mentions",
    "signal_lag",
    "regression_n",
    "rebalance_month",
    "rebalance_day",
    "min_breakpoint_stocks",
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_types(raw: dict, path: Path) -> None:
    for key in BOOL_KEYS:
        if key in raw and not isinstance(raw[key], bool):
            raise ConfigError(f"{path}: '{key}' must be true or false, got {json.dumps(raw[key])}")
    ints = [(key, raw[key]) for key in INT_KEYS if key in raw]
    if "signal_n_list" in raw:
        if not isinstance(raw["signal_n_list"], list):
            raise ConfigError(f"{path}: 'signal_n_list' must be a list of integers")
        ints += [("signal_n_list", n) for n in raw["signal_n_list"]]
    for key, value in ints:
        if not _is_int(value):
            raise ConfigError(f"{path}: '{key}' must be an integer, got {json.dumps(value)}")


def load_config(path: str | Path, out_override: str | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON object expected")

    known = {
        *INPUT_KEYS, *BOOL_KEYS, *INT_KEYS, "out_dir", "window", "signal_n_list", "signal_mode"
    }
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    _check_types(raw, path)

    base = path.parent

    def resolve(value: str | None) -> Path | None:
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else base / p

    inputs: dict[str, Path | None] = {}
    for key in INPUT_KEYS:
        p = resolve(raw.get(key))
        if p is not None and not p.exists():
            raise ConfigError(f"{path}: {key} points to missing file {p}")
        inputs[key] = p

    if out_override is not None:
        out_dir = Path(out_override)
    else:
        out_dir = resolve(raw.get("out_dir", "out"))
    window_raw = raw.get("window", {})
    if not isinstance(window_raw, dict):
        raise ConfigError(f"{path}: 'window' must be an object")
    try:
        window = eventstudy.EventWindowConfig(**window_raw)
    except TypeError as exc:
        raise ConfigError(f"{path}: bad window parameters ({exc})") from None

    cfg = RunConfig(
        config_path=path,
        out_dir=out_dir,
        inputs=inputs,
        window=window,
        signal_n_list=list(raw.get("signal_n_list", range(5, 21))),
        signal_mode=str(raw.get("signal_mode", timing.INCLUSIVE)),
        **{key: raw[key] for key in BOOL_KEYS + INT_KEYS if key in raw},
    )
    if cfg.signal_mode not in (timing.INCLUSIVE, timing.EXCLUSIVE):
        raise ConfigError(f"{path}: signal_mode must be inclusive|exclusive")
    if not cfg.signal_n_list:
        raise ConfigError(f"{path}: signal_n_list must not be empty")
    return cfg


# ---------------------------------------------------------------------------
# Small CSV helpers for intermediates owned by the CLI.


def _write_rows(path: Path, header: list[str], rows: list[list]) -> int:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_events_csv(path: Path, events: list[sentiment.StockSentimentEvent]) -> int:
    return _write_rows(
        path,
        ["firm_id", "announce_date", "sentiment", "polarity"],
        [[e.firm_id, e.announce_date.isoformat(), _fmt(e.sentiment), e.polarity] for e in events],
    )


def _read_events_csv(path: Path) -> list[sentiment.StockSentimentEvent]:
    out = []
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.append(
                sentiment.StockSentimentEvent(
                    firm_id=row["firm_id"],
                    announce_date=date.fromisoformat(row["announce_date"]),
                    sentiment=float(row["sentiment"]),
                    polarity=row["polarity"],
                )
            )
    return out


# ---------------------------------------------------------------------------
# Stages.  Each returns {filename: row_count} plus optional notes for the manifest.


def stage_ingest(cfg: RunConfig) -> dict:
    records = corpus.load_transcripts(cfg.input_path("transcripts_csv", "ingest"))
    dictionary = corpus.load_firm_dictionary(
        cfg.input_path("firm_names_csv", "ingest"), cfg.inputs.get("exclusions_txt")
    )
    days = corpus.build_days(records)
    mention_rows = []
    for day in days:
        mset = corpus.extract_mentions(day, dictionary, cfg.min_mentions)
        for firm_id, count in mset.mentions:
            mention_rows.append([day.date.isoformat(), firm_id, count])
    n_days = _write_rows(
        cfg.out_path("days"),
        ["date", "source_count", "n_tokens"],
        [[d.date.isoformat(), d.source_count, len(d.tokens)] for d in days],
    )
    n_mentions = _write_rows(cfg.out_path("mentions"), ["date", "firm_id", "count"], mention_rows)
    return {"rows": {OUT_FILES["days"]: n_days, OUT_FILES["mentions"]: n_mentions}}


def stage_sentiment(cfg: RunConfig) -> dict:
    mentions_path = cfg.require_upstream("mentions", "ingest")
    records = corpus.load_transcripts(cfg.input_path("transcripts_csv", "sentiment"))
    lexicon = sentiment.load_lexicon(
        cfg.input_path("lexicon_positive_txt", "sentiment"),
        cfg.input_path("lexicon_negative_txt", "sentiment"),
    )
    days = corpus.build_days(records)
    observations = [sentiment.score_day(day, lexicon) for day in days]
    sentiment.write_sentiment_csv(observations, cfg.out_path("sentiment"))

    by_date: dict[date, list[tuple[str, int]]] = {}
    with mentions_path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            by_date.setdefault(date.fromisoformat(row["date"]), []).append(
                (row["firm_id"], int(row["count"]))
            )
    mention_sets = [corpus.MentionSet(date=d, mentions=by_date[d]) for d in sorted(by_date)]
    events, skipped = sentiment.build_stock_events(mention_sets, observations)
    n_events = _write_events_csv(cfg.out_path("events"), events)
    n_skips = _write_rows(
        cfg.out_path("event_skips"),
        ["firm_id", "date", "reason"],
        [[s.firm_id, s.date.isoformat(), s.reason] for s in skipped],
    )
    return {
        "rows": {
            OUT_FILES["sentiment"]: len(observations),
            OUT_FILES["events"]: n_events,
            OUT_FILES["event_skips"]: n_skips,
        }
    }


def stage_factors(cfg: RunConfig) -> dict:
    panel = cfg.panel("factors")
    provided = cfg.inputs.get("factors_csv")
    if provided is not None:
        series = factormod.read_factors_csv(provided)
        source = "file"
    else:
        rf = factormod.read_rf_csv(cfg.input_path("rf_csv", "factors"))
        series = factormod.construct_factors(
            panel,
            rf,
            rebalance_month=cfg.rebalance_month,
            rebalance_day=cfg.rebalance_day,
            min_breakpoint_stocks=cfg.min_breakpoint_stocks,
        )
        source = "constructed"
    factormod.write_factors_csv(series, cfg.out_path("factors"))

    controls = factormod.load_controls(
        cfg.input_path("nsi_csv", "factors"),
        cfg.input_path("short_rate_csv", "factors"),
        panel,
    )
    n_controls = factormod.write_controls_csv(controls, cfg.out_path("controls"))
    return {
        "rows": {OUT_FILES["factors"]: len(series.dates), OUT_FILES["controls"]: n_controls},
        "factor_source": source,
    }


def stage_eventstudy(cfg: RunConfig) -> dict:
    events = _read_events_csv(cfg.require_upstream("events", "sentiment"))
    series = factormod.read_factors_csv(cfg.require_upstream("factors", "factors"))
    run = eventstudy.run_event_study(events, cfg.panel("eventstudy"), series, cfg.window)

    rows = []
    for group in sorted(run.results):
        res = run.results[group]
        for k, rel in enumerate(res.rel_days):
            rows.append(
                [
                    group,
                    int(rel),
                    _fmt(res.aar[k]),
                    _fmt(res.caar[k]),
                    int(res.n_events_per_day[k]),
                ]
            )
    n_rows = _write_rows(
        cfg.out_path("event_study"), ["group", "relative_day", "aar", "caar", "n_events"], rows
    )
    n_excl = _write_rows(
        cfg.out_path("event_exclusions"),
        ["firm_id", "announce_date", "reason"],
        [[e.firm_id, e.announce_date.isoformat(), e.reason] for e in run.exclusions],
    )
    return {
        "rows": {OUT_FILES["event_study"]: n_rows, OUT_FILES["event_exclusions"]: n_excl},
        "n_events": {g: r.n_events for g, r in sorted(run.results.items())},
        "overlapping_event_windows": run.overlap_count,
    }


def stage_timing(cfg: RunConfig) -> dict:
    observations = timing.timing_observations(
        sentiment.read_sentiment_csv(cfg.require_upstream("sentiment", "sentiment"))
    )
    series = factormod.read_factors_csv(cfg.require_upstream("factors", "factors"))
    calendar = series.dates

    signals = []
    skipped_n = []
    for n in cfg.signal_n_list:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig = timing.build_signal(observations, n, mode=cfg.signal_mode)
        if sig.dates:
            signals.append(sig)
        else:
            skipped_n.append(n)
    timing.write_signals_csv(signals, cfg.out_path("signals"))

    entries = timing.r2_scan(
        observations,
        [s.n for s in signals],
        calendar,
        series.rmrf,
        lag=cfg.signal_lag,
        mode=cfg.signal_mode,
    )
    timing.write_scan_csv(entries, cfg.out_path("r2_scan"))

    summary_rows = []
    rows_by_file = {
        OUT_FILES["signals"]: sum(len(s.dates) for s in signals),
        OUT_FILES["r2_scan"]: len(entries),
    }
    for sig in signals:
        try:
            result = timing.backtest_strategy(sig, calendar, series.rmrf, lag=cfg.signal_lag)
        except ValueError as exc:
            print(f"{PROG}: timing: N={sig.n}: {exc}", file=sys.stderr)
            skipped_n.append(sig.n)
            continue
        name = f"backtest_N{sig.n:02d}.csv"
        timing.write_backtest_csv(result, cfg.out_dir / name)
        rows_by_file[name] = len(result.dates)
        summary_rows.append(
            [
                sig.n,
                len(result.dates),
                _fmt(result.strategy_equity[-1]),
                _fmt(result.benchmark_equity[-1]),
                _fmt(result.outperformance),
                _fmt(result.outperformance_geometric),
            ]
        )
    rows_by_file[OUT_FILES["backtest_summary"]] = _write_rows(
        cfg.out_path("backtest_summary"),
        [
            "N",
            "n_days",
            "strategy_equity",
            "benchmark_equity",
            "outperformance",
            "outperformance_geometric",
        ],
        summary_rows,
    )
    out = {"rows": rows_by_file}
    if skipped_n:
        out["skipped_n"] = sorted(set(skipped_n))
    return out


def stage_regress(cfg: RunConfig) -> dict:
    observations = timing.timing_observations(
        sentiment.read_sentiment_csv(cfg.require_upstream("sentiment", "sentiment"))
    )
    series = factormod.read_factors_csv(cfg.require_upstream("factors", "factors"))
    controls = factormod.read_controls_csv(cfg.require_upstream("controls", "factors"))
    signal = timing.build_signal(observations, cfg.regression_n, mode=cfg.signal_mode)
    rmrf = np.full(len(controls.dates), np.nan)
    for i, d in enumerate(controls.dates):
        idx = series.index_of(d)
        if idx is not None:
            rmrf[i] = series.rmrf[idx]
    regset = econometrics.run_timing_regressions(
        signal,
        controls,
        rmrf,
        lag=cfg.signal_lag,
        tie_up=cfg.tie_up,
        robust=cfg.robust_se,
        with_ols=cfg.with_ols,
    )
    econometrics.write_regressions_csv(regset, cfg.out_path("regressions_csv"))
    report = econometrics.render_report(regset)
    if cfg.with_ols:
        report += "\n" + econometrics.render_report(regset, model=econometrics.OLS)
    cfg.out_path("regressions_txt").write_text(report, encoding="utf-8")
    n_rows = len(regset.logit) + len(regset.ols)
    return {
        "rows": {OUT_FILES["regressions_csv"]: n_rows},
        "n_obs": {k: r.n_obs for k, r in sorted(regset.logit.items())},
    }


STAGE_FUNCS = {
    "ingest": stage_ingest,
    "sentiment": stage_sentiment,
    "factors": stage_factors,
    "eventstudy": stage_eventstudy,
    "timing": stage_timing,
    "regress": stage_regress,
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(cfg: RunConfig, stage_infos: dict[str, dict], reset: bool) -> None:
    manifest_path = cfg.out_path("manifest")
    manifest = {}
    if not reset and manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            manifest = {}
    manifest["config_sha256"] = _sha256(cfg.config_path)
    inputs = {}
    for key, p in sorted(cfg.inputs.items()):
        if p is not None:
            inputs[key] = _sha256(p)
    manifest["inputs"] = inputs
    stages = manifest.get("stages", {}) if not reset else {}
    timings = manifest.get("timings", {}) if (not reset and cfg.timings) else {}
    for name, info in stage_infos.items():
        elapsed = info.pop("_elapsed", None)
        stages[name] = info
        if cfg.timings and elapsed is not None:
            timings[name] = round(elapsed, 6)
    manifest["stages"] = {k: stages[k] for k in sorted(stages)}
    if cfg.timings:
        manifest["timings"] = {k: timings[k] for k in sorted(timings)}
    else:
        manifest.pop("timings", None)
    with manifest_path.open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_stages(cfg: RunConfig, stages: list[str]) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    infos: dict[str, dict] = {}
    for name in stages:
        started = time.perf_counter()
        info = STAGE_FUNCS[name](cfg)
        info["_elapsed"] = time.perf_counter() - started
        infos[name] = info
        print(f"{PROG}: {name}: done", file=sys.stderr)
    _write_manifest(cfg, infos, reset=(stages == STAGE_ORDER))


# ---------------------------------------------------------------------------
# synth


def _synth_config(seed: int, overrides_path: str | None) -> synthetic.SynthConfig:
    cfg = synthetic.SynthConfig(seed=seed)
    if overrides_path is None:
        return cfg
    p = Path(overrides_path)
    if not p.exists():
        raise ConfigError(f"synth config not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top-level JSON object expected")
    valid = set(synthetic.SynthConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - valid)
    if unknown:
        raise ConfigError(f"{p}: unknown synth keys: {', '.join(unknown)}")
    raw.pop("seed", None)  # the --seed flag owns the seed
    kinds = typing.get_type_hints(synthetic.SynthConfig)
    for key, value in raw.items():
        setattr(cfg, key, _synth_value(kinds[key], value, f"{p}: '{key}'"))
    return cfg


def _synth_value(kind, value, where: str):
    """`value` as the SynthConfig field type `kind`; ConfigError naming `where` otherwise."""
    if kind is float and _is_int(value):
        value = float(value)
    if kind is date:
        try:
            return date.fromisoformat(value)
        except (TypeError, ValueError):
            pass
    elif kind == tuple[int, int]:
        if isinstance(value, list) and len(value) == 2 and all(map(_is_int, value)):
            return tuple(value)
    elif kind is int:
        if _is_int(value):
            return value
    elif isinstance(value, kind):  # bool, float, str
        return value
    expected = {
        bool: "true or false",
        str: "a string",
        int: "an integer",
        float: "a number",
        date: "an ISO date string",
    }.get(kind, "a pair of integers")
    raise ConfigError(f"{where} must be {expected}, got {json.dumps(value)}")


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _synth_config(args.seed, args.config)
    dataset = synthetic.gen_dataset(cfg)
    out = Path(args.out)
    paths = synthetic.write_dataset(dataset, out)
    run_config = {
        "transcripts_csv": paths["transcripts"].name,
        "firm_names_csv": paths["firm_names"].name,
        "exclusions_txt": paths["exclusions"].name,
        "lexicon_positive_txt": paths["lexicon_positive"].name,
        "lexicon_negative_txt": paths["lexicon_negative"].name,
        "panel_csv": paths["panel"].name,
        "factors_csv": paths["factors"].name,
        "rf_csv": paths["rf"].name,
        "nsi_csv": paths["nsi"].name,
        "short_rate_csv": paths["short_rate"].name,
        "out_dir": "out",
        "min_mentions": cfg.min_mentions,
        "signal_lag": cfg.signal_lag,
        "regression_n": cfg.signal_n,
    }
    with (out / "run_config.json").open("w", encoding="utf-8") as fh:
        json.dump(run_config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{PROG}: synth: dataset written to {out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Transcript sentiment, factor event study, and market-timing pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("ingest", "tokenize transcripts and count firm mentions"),
        ("sentiment", "score daily sentiment and emit stock mention events"),
        ("factors", "load or construct the factor series and controls"),
        ("eventstudy", "estimate exposures and pool abnormal returns"),
        ("timing", "build signals, scan correlations, run backtests"),
        ("regress", "fit the five market-direction regressions"),
        ("all", "run every stage in dependency order"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--out", default=None, help="override the configured output directory")

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True, help="directory to write the dataset into")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON overriding generator parameters")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        cfg = load_config(args.config, args.out)
        stages = STAGE_ORDER if args.command == "all" else [args.command]
        run_stages(cfg, stages)
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
