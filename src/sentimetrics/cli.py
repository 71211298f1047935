"""Command-line pipeline: ingest, score, factors, event study, timing, regressions.

One JSON config file names every input and parameter; subcommands run single
stages or the whole chain in dependency order.  Stages communicate only
through CSV files in the output directory, so any stage can be re-run alone
once its upstream files exist, and re-running with unchanged inputs rewrites
byte-identical outputs.  A manifest records the config hash, input checksums,
and per-stage row counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import typing
import warnings
from dataclasses import dataclass, field as dc_field, fields
from datetime import date
from pathlib import Path
try:
    import resource
except ImportError:  # Windows
    resource = None

import numpy as np

from . import corpus, econometrics, eventstudy, factors as factormod, sentiment, synthetic
from . import tables, timing

PROG = "sentimetrics"

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
    _panel: factormod.SecurityPanel | None = dc_field(
        default=None, init=False, repr=False, compare=False
    )
    _days: corpus.Days | None = dc_field(default=None, init=False, repr=False, compare=False)

    def days(self, keep: bool = True) -> corpus.Days:
        """The transcript days, built on first use; kept for a later stage of this run if `keep`."""
        days = self._days
        if days is None:
            days = corpus.build_days(corpus.load_transcripts(self.inputs["transcripts_csv"]))
        self._days = days if keep else None
        return days

    def panel(self) -> factormod.SecurityPanel:
        """The security panel, parsed on first use and shared by the later stages of this run."""
        if self._panel is None:
            self._panel = factormod.load_panel(self.inputs["panel_csv"])
        return self._panel

    def input_path(self, key: str, stage: str) -> Path:
        p = self.inputs.get(key)
        if p is None:
            raise ConfigError(f"config key '{key}' is required by the {stage} stage")
        return p


# The JSON type of every config key, stated once: the input paths, the output
# directory and the RunConfig parameters (`window` recurses into the fields of
# EventWindowConfig); the in-run caches are not __init__ fields, so never keys.
_CONFIG_KINDS = {
    **dict.fromkeys(INPUT_KEYS, str | None),
    "out_dir": str,
    **{
        f.name: typing.get_type_hints(RunConfig)[f.name]
        for f in fields(RunConfig)
        if f.init and f.name not in ("config_path", "out_dir", "inputs")
    },
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_object(path: Path, what: str) -> dict:
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        raw = json.loads("".join(tables.read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON object expected")
    return raw


def _typed(kinds: dict, raw: dict, where: str, what: str) -> dict:
    """`raw` with each value checked against and converted to its type in `kinds`.

    `where` prefixes every error message; `what` names the keys in the
    unknown-key error.  bool() and int() would turn "false" into True and 2.9
    into 2, so JSON types are matched exactly: ints are not bools, and only
    floats accept ints (stored as floats).
    """
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}unknown {what} keys: {', '.join(unknown)}")
    return {key: _value(kinds[key], value, f"{where}'{key}'") for key, value in raw.items()}


def _value(kind, value, where: str):
    """`value` as the type `kind`; a ConfigError naming `where` otherwise."""
    if kind is date:
        try:
            return date.fromisoformat(value)
        except (TypeError, ValueError):
            ok = False
    elif kind is eventstudy.EventWindowConfig:
        ok = isinstance(value, dict)
        if ok:
            try:
                value = kind(**_typed(typing.get_type_hints(kind), value, "", "window"))
            except ValueError as exc:  # a field of the wrong type, or the windows' order
                raise ConfigError(f"{where} must be an event window: {exc}") from None
    elif kind is float:
        ok = _is_int(value) or isinstance(value, float)
        value = float(value) if ok else value
    elif kind == tuple[int, int]:
        ok = isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))
        value = tuple(value) if ok else value
    elif kind == list[int]:
        ok = isinstance(value, list) and all(map(_is_int, value))
    elif kind == str | None:
        ok = value is None or isinstance(value, str)
    elif kind is int:
        ok = _is_int(value)
    else:  # bool, str
        ok = isinstance(value, kind)
    if ok:
        return value
    expected = {
        bool: "true or false",
        str: "a string",
        str | None: "a string or null",
        int: "an integer",
        float: "a number",
        date: "an ISO date string",
        tuple[int, int]: "a pair of integers",
        list[int]: "a list of integers",
    }.get(kind, "an object")
    raise ConfigError(f"{where} must be {expected}, got {json.dumps(value)}")


def load_config(path: str | Path, out_override: str | None = None) -> RunConfig:
    path = Path(path)
    raw = _typed(_CONFIG_KINDS, _json_object(path, "config file"), f"{path}: ", "config")

    def resolve(value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else path.parent / p

    inputs: dict[str, Path | None] = {}
    for key in INPUT_KEYS:
        value = raw.pop(key, None)
        p = inputs[key] = None if value is None else resolve(value)
        if p is not None and not p.exists():
            raise ConfigError(f"{path}: {key} points to missing file {p}")
    out_dir = resolve(raw.pop("out_dir", "out"))
    if out_override is not None:
        out_dir = Path(out_override)

    cfg = RunConfig(config_path=path, out_dir=out_dir, inputs=inputs, **raw)
    if cfg.signal_mode not in (timing.INCLUSIVE, timing.EXCLUSIVE):
        raise ConfigError(f"{path}: signal_mode must be inclusive|exclusive")
    n_list = cfg.signal_n_list
    if not n_list or min(n_list) < 1 or len(set(n_list)) < len(n_list):
        raise ConfigError(
            f"{path}: 'signal_n_list' must be a non-empty list of distinct integers >= 1, "
            f"got {n_list}"
        )
    for key, least in (
        ("min_mentions", 1),
        ("signal_lag", 0),
        ("regression_n", 1),
        ("min_breakpoint_stocks", 1),
    ):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{path}: '{key}' must be >= {least}, got {getattr(cfg, key)}")
    # The rebalance date must exist in every year, so a non-leap year decides.
    if not 1 <= cfg.rebalance_month <= 12:
        raise ConfigError(f"{path}: 'rebalance_month' must be in 1..12, got {cfg.rebalance_month}")
    try:
        date(2001, cfg.rebalance_month, cfg.rebalance_day)
    except ValueError:
        raise ConfigError(
            f"{path}: 'rebalance_day' must be a day of month {cfg.rebalance_month} "
            f"in every year, got {cfg.rebalance_day}"
        ) from None
    return cfg


# ---------------------------------------------------------------------------
# Stages.  Each returns {filename: row_count} plus optional notes for the manifest.


def stage_ingest(cfg: RunConfig) -> dict:
    """Tokenize transcripts and count firm mentions."""
    days = cfg.days()
    dictionary = corpus.load_firm_dictionary(
        cfg.inputs["firm_names_csv"], cfg.inputs["exclusions_txt"]
    )
    firms = dictionary.index(days.vocab)
    mentions = [
        (day.date, *mention)
        for day in days
        for mention in corpus.extract_mentions(day, firms, cfg.min_mentions)
    ]
    day_rows = [(d.date, d.source_count, len(d.tokens)) for d in days]
    n_days = tables.write_rows(cfg.out_dir / "days.csv", tables.DAYS, day_rows)
    n_mentions = tables.write_rows(cfg.out_dir / "mentions.csv", tables.MENTIONS, mentions)
    return {"rows": {"days.csv": n_days, "mentions.csv": n_mentions}}


def stage_sentiment(cfg: RunConfig) -> dict:
    """Score daily sentiment and emit stock mention events."""
    days = cfg.days(keep=False)
    lexicon = sentiment.load_lexicon(
        cfg.inputs["lexicon_positive_txt"], cfg.inputs["lexicon_negative_txt"]
    )
    polarity = lexicon.polarity(days.vocab)
    observations = [sentiment.score_day(day, polarity) for day in days]
    n_scores = tables.write_items(cfg.out_dir / "sentiment.csv", tables.SENTIMENT, observations)

    rows = zip(*tables.read_table(cfg.out_dir / "mentions.csv", tables.MENTIONS).values())
    mentions = sorted(rows, key=lambda row: row[0])  # stable: a date's rows keep their file order
    events, skipped = sentiment.build_stock_events(mentions, observations)
    n_events = tables.write_items(cfg.out_dir / "events.csv", tables.EVENTS, events)
    n_skips = tables.write_items(cfg.out_dir / "event_skips.csv", tables.EVENT_SKIPS, skipped)
    return {
        "rows": {"sentiment.csv": n_scores, "events.csv": n_events, "event_skips.csv": n_skips}
    }


def stage_factors(cfg: RunConfig) -> dict:
    """Load or construct the factor series and controls."""
    provided = cfg.inputs["factors_csv"]
    rf_path = cfg.input_path("rf_csv", "factors") if provided is None else None
    panel = cfg.panel()
    if provided is not None:
        series = factormod.read_factors_csv(provided)
        source = "file"
    else:
        try:
            series = factormod.construct_factors(
                panel,
                factormod.read_rf_csv(rf_path),
                rebalance_month=cfg.rebalance_month,
                rebalance_day=cfg.rebalance_day,
                min_breakpoint_stocks=cfg.min_breakpoint_stocks,
            )
        except factormod.CalendarAlignmentError as exc:  # rf misses trading dates
            raise factormod.CalendarAlignmentError(f"{rf_path}: {exc}") from None
        source = "constructed"
    # Both are built before either is written, so a bad input leaves the two files in step.
    controls = factormod.load_controls(cfg.inputs["nsi_csv"], cfg.inputs["short_rate_csv"], panel)
    tables.write_table(
        cfg.out_dir / "factors.csv", tables.FACTORS, tables.dated_columns(series, tables.FACTORS)
    )
    columns = tables.dated_columns(controls, tables.CONTROLS)
    n_controls = tables.write_table(cfg.out_dir / "controls.csv", tables.CONTROLS, columns)
    return {
        "rows": {"factors.csv": len(series.dates), "controls.csv": n_controls},
        "factor_source": source,
    }


def stage_eventstudy(cfg: RunConfig) -> dict:
    """Estimate exposures and pool abnormal returns."""
    table = tables.read_table(cfg.out_dir / "events.csv", tables.EVENTS)
    events = [sentiment.StockSentimentEvent(*row) for row in zip(*table.values())]
    series = factormod.read_factors_csv(cfg.out_dir / "factors.csv")
    run = eventstudy.run_event_study(events, cfg.panel(), series, cfg.window)

    study_rows = [
        (group, *day)
        for group, res in sorted(run.results.items())
        for day in zip(res.rel_days, res.aar, res.caar, res.n_events_per_day)
    ]
    n_rows = tables.write_rows(cfg.out_dir / "event_study.csv", tables.EVENT_STUDY, study_rows)
    n_excl = tables.write_items(
        cfg.out_dir / "event_exclusions.csv", tables.EVENT_EXCLUSIONS, run.exclusions
    )
    return {
        "rows": {"event_study.csv": n_rows, "event_exclusions.csv": n_excl},
        "n_events": {g: r.n_events for g, r in sorted(run.results.items())},
        "overlapping_event_windows": run.overlap_count,
    }


def _timing_observations(cfg: RunConfig) -> list[sentiment.SentimentObservation]:
    table = tables.read_table(cfg.out_dir / "sentiment.csv", tables.SENTIMENT)
    rows = zip(*table.values())
    return timing.timing_observations([sentiment.SentimentObservation(*row) for row in rows])


def _check_signal_lag(cfg: RunConfig, first_day: date, calendar: list[date], name: str) -> None:
    """Stop naming 'signal_lag' when it lags `first_day`, the earliest signal day, past the
    calendar of output `name`: every later signal day then lands past it too."""
    if factormod.roll_forward(calendar, [first_day])[0] + cfg.signal_lag >= len(calendar):
        raise ConfigError(
            f"{cfg.config_path}: 'signal_lag' is {cfg.signal_lag}: no signal day lagged by it "
            f"falls on the {len(calendar)} days of {name}"
        )


def stage_timing(cfg: RunConfig) -> dict:
    """Build signals, scan correlations, run backtests."""
    observations = _timing_observations(cfg)
    series = factormod.read_factors_csv(cfg.out_dir / "factors.csv")
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
    if signals:
        _check_signal_lag(cfg, min(sig.dates[0] for sig in signals), calendar, "factors.csv")
    entries = timing.r2_scan(signals, calendar, series.rmrf, lag=cfg.signal_lag)
    scan_rows = [(e.n, e.lag, e.r2, e.corr_sign) for e in entries]
    rows_by_file = {
        "signals.csv": tables.write_rows(
            cfg.out_dir / "signals.csv", tables.SIGNALS, timing.signal_rows(signals)
        ),
        "r2_scan.csv": tables.write_rows(cfg.out_dir / "r2_scan.csv", tables.R2_SCAN, scan_rows),
    }
    summary = []
    for sig in signals:
        try:
            result = timing.backtest_strategy(sig, calendar, series.rmrf, lag=cfg.signal_lag)
        except ValueError as exc:
            print(f"{PROG}: timing: N={sig.n}: {exc}", file=sys.stderr)
            skipped_n.append(sig.n)
            continue
        name = f"backtest_N{sig.n:02d}.csv"
        rows_by_file[name] = timing.write_backtest_csv(result, cfg.out_dir / name)
        summary.append(
            (
                sig.n,
                len(result.dates),
                result.strategy_equity[-1],
                result.benchmark_equity[-1],
                result.outperformance,
                result.outperformance_geometric,
            )
        )
    rows_by_file["backtest_summary.csv"] = tables.write_rows(
        cfg.out_dir / "backtest_summary.csv", tables.BACKTEST_SUMMARY, summary
    )
    out = {"rows": rows_by_file}
    if skipped_n:
        out["skipped_n"] = sorted(set(skipped_n))
    return out


def stage_regress(cfg: RunConfig) -> dict:
    """Fit the five market-direction regressions."""
    observations = _timing_observations(cfg)
    series = factormod.read_factors_csv(cfg.out_dir / "factors.csv")
    controls = factormod.read_controls_csv(cfg.out_dir / "controls.csv")
    with warnings.catch_warnings():  # an empty signal is reported below, naming its key
        warnings.simplefilter("ignore")
        signal = timing.build_signal(observations, cfg.regression_n, mode=cfg.signal_mode)
    if not signal.dates:
        raise ConfigError(
            f"{cfg.config_path}: 'regression_n' is {cfg.regression_n}, but only "
            f"{len(observations)} sentiment days are usable: the signal is empty"
        )
    _check_signal_lag(cfg, signal.dates[0], controls.dates, "controls.csv")
    # A control day not on the factor calendar (position -1) takes the appended NaN.
    rmrf = np.append(series.rmrf, np.nan)[factormod.positions(series.dates, controls.dates)]
    regset = econometrics.run_timing_regressions(
        signal,
        controls,
        rmrf,
        lag=cfg.signal_lag,
        tie_up=cfg.tie_up,
        robust=cfg.robust_se,
        with_ols=cfg.with_ols,
    )
    tables.write_rows(
        cfg.out_dir / "regressions.csv", tables.REGRESSIONS, econometrics.regression_rows(regset)
    )
    report = econometrics.render_report(regset)
    if cfg.with_ols:
        report += "\n" + econometrics.render_report(regset, model=econometrics.OLS)
    (cfg.out_dir / "regressions.txt").write_text(report, encoding="utf-8")
    n_fits = len(regset.logit) + len(regset.ols)
    return {
        "rows": {"regressions.csv": n_fits},
        "n_obs": {k: r.n_obs for k, r in sorted(regset.logit.items())},
    }


class Stage(typing.NamedTuple):
    func: typing.Callable[[RunConfig], dict]
    needs: tuple[str, ...]  # the config inputs it cannot run without
    reads: tuple[str, ...]  # files of the output directory
    writes: tuple[str, ...]


# Every stage, in run order: a stage reads only what earlier ones write.
STAGES = {
    "ingest": Stage(
        stage_ingest,
        needs=("transcripts_csv", "firm_names_csv"),
        reads=(),
        writes=("days.csv", "mentions.csv"),
    ),
    "sentiment": Stage(
        stage_sentiment,
        needs=("transcripts_csv", "lexicon_positive_txt", "lexicon_negative_txt"),
        reads=("mentions.csv",),
        writes=("sentiment.csv", "events.csv", "event_skips.csv"),
    ),
    "factors": Stage(
        stage_factors,
        needs=("panel_csv", "nsi_csv", "short_rate_csv"),  # and rf_csv, without factors_csv
        reads=(),
        writes=("factors.csv", "controls.csv"),
    ),
    "eventstudy": Stage(
        stage_eventstudy,
        needs=("panel_csv",),
        reads=("events.csv", "factors.csv"),
        writes=("event_study.csv", "event_exclusions.csv"),
    ),
    "timing": Stage(
        stage_timing,
        needs=(),
        reads=("sentiment.csv", "factors.csv"),
        writes=("signals.csv", "r2_scan.csv", "backtest_summary.csv"),  # and backtest_N*.csv
    ),
    "regress": Stage(
        stage_regress,
        needs=(),
        reads=("sentiment.csv", "factors.csv", "controls.csv"),
        writes=("regressions.csv", "regressions.txt"),
    ),
}
STAGE_ORDER = list(STAGES)
# run_stages calls each stage through this dict, so wrapping an entry wraps that stage.
STAGE_FUNCS = {name: stage.func for name, stage in STAGES.items()}
PRODUCERS = {file: name for name, stage in STAGES.items() for file in stage.writes}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(cfg: RunConfig, stage_infos: dict[str, dict], reset: bool) -> None:
    manifest_path = cfg.out_dir / "manifest.json"
    stages = {}
    if not reset and manifest_path.exists():
        try:
            old = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError:  # not JSON, or not UTF-8
            old = None
        if isinstance(old, dict) and isinstance(old.get("stages"), dict):  # else carry none over
            stages = old["stages"]
    stages.update(stage_infos)
    manifest = {
        "config_sha256": _sha256(cfg.config_path),
        "inputs": {key: _sha256(p) for key, p in sorted(cfg.inputs.items()) if p is not None},
        "stages": stages,
    }
    with manifest_path.open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_stages(cfg: RunConfig, stages: list[str]) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    infos: dict[str, dict] = {}
    mb = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss is in KiB; bytes on macOS
    reaped = resource and resource.getrusage(resource.RUSAGE_CHILDREN)[:3]  # times, maxrss
    for name in stages:
        for file in STAGES[name].reads:
            if not (cfg.out_dir / file).exists():
                raise ConfigError(
                    f"missing {file} in {cfg.out_dir}; run the {PRODUCERS[file]} stage first"
                )
        for key in STAGES[name].needs:
            cfg.input_path(key, name)
        started = time.perf_counter()
        infos[name] = STAGE_FUNCS[name](cfg)
        done = f"{PROG}: {name}: done in {time.perf_counter() - started:.2f} s"
        if resource is not None:  # the high-water marks so far: the process's, its children's
            done += f", peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / mb:.1f} MB"
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            if children[:3] != reaped:  # a child has been reaped during this run
                done += f", workers {children.ru_maxrss / mb:.1f} MB"
        print(done, file=sys.stderr)
    _write_manifest(cfg, infos, reset=(stages == STAGE_ORDER))


# ---------------------------------------------------------------------------
# synth


def _synth_config(seed: int, overrides_path: str | None) -> synthetic.SynthConfig:
    kinds = typing.get_type_hints(synthetic.SynthConfig)
    del kinds["seed"]  # the --seed flag owns the seed
    raw, where = {}, ""
    if overrides_path is not None:
        where = f"{overrides_path}: "
        raw = _typed(kinds, _json_object(Path(overrides_path), "synth config"), where, "synth")
    cfg = synthetic.SynthConfig(seed=seed, **raw)
    try:
        cfg.validate()
    except ValueError as exc:  # a value out of range, or values that do not fit together
        raise ConfigError(f"{where}{exc}") from None
    return cfg


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _synth_config(args.seed, args.config)
    dataset = synthetic.gen_dataset(cfg)
    out = Path(args.out)
    paths = synthetic.write_dataset(dataset, out)
    run_config = {key: paths[key.rsplit("_", 1)[0]].name for key in INPUT_KEYS}
    run_config.update(
        out_dir="out",
        min_mentions=cfg.min_mentions,
        signal_lag=cfg.signal_lag,
        regression_n=cfg.signal_n,
    )
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

    docs = {name: stage.func.__doc__ or "" for name, stage in STAGES.items()}  # None under -OO
    for name, doc in {**docs, "all": "Run every stage in dependency order."}.items():
        p = sub.add_parser(name, help=doc[:1].lower() + doc[1:].rstrip("."))
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
