"""Command-line pipeline: ingest, score, factors, event study, timing, regressions.

One JSON config file names every input and parameter; subcommands run single
stages or the whole chain in dependency order.  Stages communicate only
through CSV files in the output directory, so any stage can be re-run alone
once its upstream files exist, and re-running with unchanged inputs rewrites
byte-identical outputs.  A stage reaches the output directory only through its
Outputs, which holds it to the files and schemas STAGES declares for it and counts
each table's rows for the manifest, beside the config hash and input checksums.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import sys
import time
import typing
from dataclasses import dataclass, field as dc_field
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


@dataclass(frozen=True)
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

    def __post_init__(self):
        if self.signal_mode not in (timing.INCLUSIVE, timing.EXCLUSIVE):
            raise ValueError("signal_mode must be inclusive|exclusive")
        n_list = self.signal_n_list
        if not n_list or min(n_list) < 1 or len(set(n_list)) < len(n_list):
            raise ValueError(
                f"'signal_n_list' must be a non-empty list of distinct integers >= 1, got {n_list}"
            )
        lows = {"min_mentions": 1, "signal_lag": 0, "regression_n": 1, "min_breakpoint_stocks": 1}
        for key, least in lows.items():
            if getattr(self, key) < least:
                raise ValueError(f"'{key}' must be >= {least}, got {getattr(self, key)}")
        # The rebalance date must exist in every year, so a non-leap year decides.
        if not 1 <= self.rebalance_month <= 12:
            raise ValueError(f"'rebalance_month' must be in 1..12, got {self.rebalance_month}")
        try:
            date(2001, self.rebalance_month, self.rebalance_day)
        except (ValueError, OverflowError):  # a day past a C int overflows
            raise ValueError(
                f"'rebalance_day' must be a day of month {self.rebalance_month} "
                f"in every year, got {self.rebalance_day}"
            ) from None

    def input_path(self, key: str, stage: str) -> Path:
        p = self.inputs.get(key)
        if p is None:
            raise ConfigError(f"config key '{key}' is required by the {stage} stage")
        return p


# The JSON type of every config key, stated once: the input paths, the output
# directory and the RunConfig parameters (`window` recurses into the fields of
# EventWindowConfig).
_CONFIG_KINDS = {
    **dict.fromkeys(INPUT_KEYS, str | None),
    **typing.get_type_hints(RunConfig),
    "out_dir": str,
}
del _CONFIG_KINDS["config_path"], _CONFIG_KINDS["inputs"]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_object(path: Path, what: str) -> dict:
    def unique(pairs: list) -> dict:  # json.loads alone keeps the last value of a repeated key
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key '{key}'")
            obj[key] = value
        return obj

    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        raw = json.loads("".join(tables.read_lines(path)), object_pairs_hook=unique)
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


# Each JSON kind of a config value but a date and an event window: how an
# error words it, whether a JSON value is one, and the value it is kept as.
_KINDS = {
    bool: ("true or false", lambda v: isinstance(v, bool), bool),
    str: ("a string", lambda v: isinstance(v, str), str),
    str | None: ("a string or null", lambda v: v is None or isinstance(v, str), lambda v: v),
    int: ("an integer", _is_int, int),
    # abs(v) <= max turns down NaN, the infinities and an int that no float can hold.
    float: ("a number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, float),
    tuple[int, int]: (
        "a pair of integers",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
        tuple,
    ),
    list[int]: ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)), list),
}


def _value(kind, value, where: str):
    """`value` as the type `kind`; a ConfigError naming `where` otherwise."""
    if kind is date:
        expected = "an ISO date string"
        try:
            return date.fromisoformat(value)
        except (TypeError, ValueError):
            pass
    elif kind is eventstudy.EventWindowConfig:
        expected = "an object"
        if isinstance(value, dict):
            try:
                return kind(**_typed(typing.get_type_hints(kind), value, "", "window"))
            except ValueError as exc:  # a field of the wrong type, or the windows' order
                raise ConfigError(f"{where} must be an event window: {exc}") from None
    else:
        expected, check, keep = _KINDS[kind]
        if check(value):
            return keep(value)
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

    try:
        return RunConfig(config_path=path, out_dir=out_dir, inputs=inputs, **raw)
    except ValueError as exc:  # a value out of range
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Stages.  Each takes the run's config, its shared Parses and its own Outputs, and
# returns its notes for the manifest, which also records the rows its Outputs wrote.


class Parses(dict):
    """One run's parse of each input that two stages read, by config key, made on a
    stage's first use; run_stages drops it after the run's last stage that needs it."""

    parsers = {  # load_panel and build_days are looked up at each call, so a wrapper runs
        "panel_csv": lambda path: factormod.load_panel(path),
        "transcripts_csv": lambda path: corpus.build_days(corpus.load_transcripts(path)),
    }

    def __init__(self, inputs: dict[str, Path | None]):
        super().__init__()
        self.inputs = inputs

    def __missing__(self, key: str):
        return self.setdefault(key, self.parsers[key](self.inputs[key]))


def _declared(name: str, patterns: typing.Iterable[str]) -> str | None:
    """The pattern among `patterns` (names, or globs such as backtest_N*.csv) `name` matches."""
    return next((p for p in patterns if fnmatch.fnmatchcase(name, p)), None)


class Outputs:
    """A stage's only way into the output directory.  It names a file only if the stage
    declares it in STAGES, among its writes or, for a file it only reads, its reads; it
    writes a table under its declared schema, and `rows` records each table's row count."""

    def __init__(self, out_dir: Path, stage: str):
        self.out_dir, self.stage, self.rows = out_dir, stage, {}

    def path(self, name: str, writing: bool = False) -> Path:
        """`name` in the output directory; a ValueError if the stage does not declare it."""
        declared = STAGES[self.stage].writes if writing else STAGES[self.stage].reads
        if _declared(name, declared) is None:
            verb = "wrote" if writing else "read"
            raise ValueError(f"the {self.stage} stage {verb} {name}, which it does not declare")
        return self.out_dir / name

    def read_table(self, name: str) -> dict[str, list]:
        """The columns of a file the stage reads, under the schema its producer declares."""
        return tables.read_table(self.path(name), STAGES[PRODUCERS[name]].writes[name])

    def write(self, name: str, writer: typing.Callable, data) -> None:
        """`data` through `writer`, tables.write_rows, write_items, write_table or write_series."""
        path, writes = self.path(name, writing=True), STAGES[self.stage].writes
        self.rows[name] = writer(path, writes[_declared(name, writes)], data)

    def glob(self, pattern: str) -> typing.Iterator[Path]:
        return self.out_dir.glob(self.path(pattern, writing=True).name)


def stage_ingest(cfg: RunConfig, parsed: Parses, outputs: Outputs) -> dict:
    """Tokenize transcripts and count firm mentions."""
    days = parsed["transcripts_csv"]
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
    outputs.write("days.csv", tables.write_rows, day_rows)
    outputs.write("mentions.csv", tables.write_rows, mentions)
    return {}


def stage_sentiment(cfg: RunConfig, parsed: Parses, outputs: Outputs) -> dict:
    """Score daily sentiment and emit stock mention events."""
    days = parsed["transcripts_csv"]
    lexicon = sentiment.load_lexicon(
        cfg.inputs["lexicon_positive_txt"], cfg.inputs["lexicon_negative_txt"]
    )
    polarity = lexicon.polarity(days.vocab)
    observations = [sentiment.score_day(day, polarity) for day in days]
    outputs.write("sentiment.csv", tables.write_items, observations)

    rows = zip(*outputs.read_table("mentions.csv").values())
    mentions = sorted(rows, key=lambda row: row[0])  # stable: a date's rows keep their file order
    events, skipped = sentiment.build_stock_events(mentions, observations)
    outputs.write("events.csv", tables.write_items, events)
    outputs.write("event_skips.csv", tables.write_items, skipped)
    return {}


def stage_factors(cfg: RunConfig, parsed: Parses, outputs: Outputs) -> dict:
    """Load or construct the factor series and controls."""
    provided = cfg.inputs["factors_csv"]
    rf_path = cfg.input_path("rf_csv", "factors") if provided is None else None
    panel = parsed["panel_csv"]
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
        except factormod.DegenerateBreakpointsError as exc:  # a rebalance the panel cannot sort
            raise type(exc)(f"{cfg.inputs['panel_csv']}: {exc}") from None
        source = "constructed"
    # Both are built before either is written, so a bad input leaves the two files in step.
    controls = factormod.load_controls(cfg.inputs["nsi_csv"], cfg.inputs["short_rate_csv"], panel)
    outputs.write("factors.csv", tables.write_series, series)
    outputs.write("controls.csv", tables.write_series, controls)
    return {"factor_source": source}


def stage_eventstudy(cfg: RunConfig, parsed: Parses, outputs: Outputs) -> dict:
    """Estimate exposures and pool abnormal returns."""
    table = outputs.read_table("events.csv")
    events = [sentiment.StockSentimentEvent(*row) for row in zip(*table.values())]
    series = factormod.read_factors_csv(outputs.path("factors.csv"))
    if cfg.window.evt_len >= len(series.dates):  # more relative days than the calendar has
        raise ConfigError(
            f"{cfg.config_path}: 'evt_len' is {cfg.window.evt_len}: no event window that long "
            f"fits on the {len(series.dates)} days of factors.csv"
        )
    run = eventstudy.run_event_study(events, parsed["panel_csv"], series, cfg.window)

    study_rows = [
        (group, *day)
        for group, res in sorted(run.results.items())
        for day in zip(res.rel_days, res.aar, res.caar, res.n_events_per_day)
    ]
    outputs.write("event_study.csv", tables.write_rows, study_rows)
    outputs.write("event_exclusions.csv", tables.write_items, run.exclusions)
    return {
        "n_events": {g: r.n_events for g, r in sorted(run.results.items())},
        "overlapping_event_windows": run.overlap_count,
    }


def _signals(
    cfg: RunConfig, outputs: Outputs, ns: list[int], calendar: list[date], name: str
) -> tuple[list[tuple[timing.SignalSeries, np.ndarray]], str]:
    """The signal of each N in `ns` over the usable days of sentiment.csv with its values
    lagged onto `calendar`, the days of output `name`, and why an empty signal is empty.
    Stops naming 'signal_lag' when no signal day lagged by it falls on `calendar`."""
    rows = zip(*outputs.read_table("sentiment.csv").values())
    observations = timing.timing_observations([sentiment.SentimentObservation(*r) for r in rows])
    signals = [timing.build_signal(observations, n, mode=cfg.signal_mode) for n in ns]
    lagged = [timing.lagged_signal_values(sig, calendar, cfg.signal_lag) for sig in signals]
    if any(sig.dates for sig in signals) and all(np.isnan(values).all() for values in lagged):
        raise ConfigError(
            f"{cfg.config_path}: 'signal_lag' is {cfg.signal_lag}: no signal day lagged by it "
            f"falls on the {len(calendar)} days of {name}"
        )
    why = f"only {len(observations)} sentiment days are usable: the signal is empty"
    return list(zip(signals, lagged)), why


def stage_timing(cfg: RunConfig, parsed: Parses, outputs: Outputs) -> dict:
    """Build signals, scan correlations, run backtests."""
    series = factormod.read_factors_csv(outputs.path("factors.csv"))
    calendar = series.dates
    built, why = _signals(cfg, outputs, cfg.signal_n_list, calendar, "factors.csv")
    kept = [(sig, lagged) for sig, lagged in built if sig.dates]
    skipped = {sig.n: why for sig, _lagged in built if not sig.dates}  # N -> why it has no backtest
    outputs.write("signals.csv", tables.write_rows, timing.signal_rows([sig for sig, _ in kept]))
    scan = [(sig.n, cfg.signal_lag, *timing.r2_scan(lagged, series.rmrf)) for sig, lagged in kept]
    outputs.write("r2_scan.csv", tables.write_rows, scan)
    summary = []
    for sig, lagged in kept:
        try:
            result = timing.backtest_strategy(lagged, calendar, series.rmrf)
        except ValueError as exc:
            skipped[sig.n] = exc
            continue
        outputs.write(f"backtest_N{sig.n:02d}.csv", tables.write_series, result)
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
    outputs.write("backtest_summary.csv", tables.write_rows, summary)
    for path in outputs.glob("backtest_N*.csv"):  # an earlier run's, for an N not run now
        if path.name not in outputs.rows:
            path.unlink()
    for n, reason in skipped.items():
        print(f"{PROG}: timing: N={n}: {reason}", file=sys.stderr)
    return {"skipped_n": sorted(skipped)} if skipped else {}


def stage_regress(cfg: RunConfig, parsed: Parses, outputs: Outputs) -> dict:
    """Fit the five market-direction regressions."""
    series = factormod.read_factors_csv(outputs.path("factors.csv"))
    controls = factormod.read_controls_csv(outputs.path("controls.csv"))
    [(signal, lagged)], why = _signals(
        cfg, outputs, [cfg.regression_n], controls.dates, "controls.csv"
    )
    if not signal.dates:
        raise ConfigError(f"{cfg.config_path}: 'regression_n' is {cfg.regression_n}, but {why}")
    # A control day not on the factor calendar (position -1) takes the appended NaN.
    rmrf = np.append(series.rmrf, np.nan)[factormod.positions(series.dates, controls.dates)]
    regset = econometrics.run_timing_regressions(
        lagged, controls, rmrf, tie_up=cfg.tie_up, robust=cfg.robust_se, with_ols=cfg.with_ols
    )
    outputs.write("regressions.csv", tables.write_rows, econometrics.regression_rows(regset))
    # The number of fits, not the file's rows (the FOUND: on it in CHANGES.md): the manifest
    # keeps this figure, and so its bytes, until the benchmark's reference is keyed by code.
    outputs.rows["regressions.csv"] = len(regset.logit) + len(regset.ols)
    header = (cfg.regression_n, cfg.signal_lag)
    report = econometrics.render_report(regset, *header)
    if cfg.with_ols:
        report += "\n" + econometrics.render_report(regset, *header, model=econometrics.OLS)
    with tables.replacing(outputs.path("regressions.txt", writing=True)) as fh:
        fh.write(report)
    return {"n_obs": {k: r.n_obs for k, r in sorted(regset.logit.items())}}


class Stage(typing.NamedTuple):
    func: typing.Callable[[RunConfig, Parses, Outputs], dict]
    needs: tuple[str, ...]  # the config inputs it cannot run without; the only Parses keys it uses
    reads: tuple[str, ...]  # files of the output directory
    writes: dict[str, tables.Schema | None]  # file name or pattern -> its schema; None for text


# Every stage, in run order: a stage reads only what earlier ones write.
STAGES = {
    "ingest": Stage(
        stage_ingest,
        needs=("transcripts_csv", "firm_names_csv"),
        reads=(),
        writes={"days.csv": tables.DAYS, "mentions.csv": tables.MENTIONS},
    ),
    "sentiment": Stage(
        stage_sentiment,
        needs=("transcripts_csv", "lexicon_positive_txt", "lexicon_negative_txt"),
        reads=("mentions.csv",),
        writes={
            "sentiment.csv": tables.SENTIMENT, "events.csv": tables.EVENTS,
            "event_skips.csv": tables.EVENT_SKIPS,
        },
    ),
    "factors": Stage(
        stage_factors,
        needs=("panel_csv", "nsi_csv", "short_rate_csv"),  # and rf_csv, without factors_csv
        reads=(),
        writes={"factors.csv": tables.FACTORS, "controls.csv": tables.CONTROLS},
    ),
    "eventstudy": Stage(
        stage_eventstudy,
        needs=("panel_csv",),
        reads=("events.csv", "factors.csv"),
        writes={
            "event_study.csv": tables.EVENT_STUDY,
            "event_exclusions.csv": tables.EVENT_EXCLUSIONS,
        },
    ),
    "timing": Stage(
        stage_timing,
        needs=(),
        reads=("sentiment.csv", "factors.csv"),
        writes={
            "signals.csv": tables.SIGNALS, "r2_scan.csv": tables.R2_SCAN,
            "backtest_N*.csv": tables.BACKTEST, "backtest_summary.csv": tables.BACKTEST_SUMMARY,
        },
    ),
    "regress": Stage(
        stage_regress,
        needs=(),
        reads=("sentiment.csv", "factors.csv", "controls.csv"),
        writes={"regressions.csv": tables.REGRESSIONS, "regressions.txt": None},
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
    tables.write_json(manifest_path, manifest)


def run_stages(cfg: RunConfig, stages: list[str]) -> None:
    infos: dict[str, dict] = {}
    mb = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss is in KiB; bytes on macOS
    reaped = resource and resource.getrusage(resource.RUSAGE_CHILDREN)[:3]  # times, maxrss
    parsed = Parses(cfg.inputs)
    out_dir = cfg.out_dir.resolve()
    for i, name in enumerate(stages):
        stage = STAGES[name]
        for file in stage.reads:
            if not (cfg.out_dir / file).exists():
                raise ConfigError(
                    f"missing {file} in {cfg.out_dir}; run the {PRODUCERS[file]} stage first"
                )
        for key in stage.needs:
            cfg.input_path(key, name)
        writers = dict.fromkeys(stage.writes, f"the {name} stage")
        writers["manifest.json"] = "every stage"
        for key, path in cfg.inputs.items():  # the directory entry a write, or its .tmp, replaces
            inside = path and path.parent.resolve() == out_dir
            if inside and (written := _declared(path.name.removesuffix(".tmp"), writers)):
                raise ConfigError(
                    f"{cfg.config_path}: {key} is {path}, which {writers[written]} writes"
                )
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        outputs = Outputs(cfg.out_dir, name)
        started = time.perf_counter()
        infos[name] = {"rows": outputs.rows, **STAGE_FUNCS[name](cfg, parsed, outputs)}
        done = f"{PROG}: {name}: done in {time.perf_counter() - started:.2f} s"
        if resource is not None:  # the high-water marks so far: the process's, its children's
            done += f", peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / mb:.1f} MB"
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            if children[:3] != reaped:  # a child has been reaped during this run
                done += f", workers {children.ru_maxrss / mb:.1f} MB"
        print(done, file=sys.stderr)
        for key in parsed.keys() - {k for rest in stages[i + 1 :] for k in STAGES[rest].needs}:
            del parsed[key]  # no later stage of this run needs it
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
    try:
        return synthetic.SynthConfig(seed=seed, **raw)
    except ValueError as exc:  # a value out of range, or values that do not fit together
        raise ConfigError(f"{where}{exc}") from None


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
    tables.write_json(out / "run_config.json", run_config)
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
