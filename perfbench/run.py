#!/usr/bin/env python3
"""Benchmark of the sentimetrics pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload big_panel --seed 1 --seconds 55 --trace 0

A run generates the workload's dataset from the seed with the public
``synthetic.gen_dataset``/``write_dataset`` (timed as ``setup_s``), writes
its ``run_config.json`` and then runs the pipeline as users do,
``python -m sentimetrics.cli all --config run_config.json`` on an empty
output directory, in a fresh process.  The load is a closed loop with one
client: one timed operation at a time, repeated while another fits in
``--seconds``.

Every timed operation is checked: the CLI call must exit 0, the sha256 of
the whole output tree must match the one recorded for the same workload,
scale and seed by earlier runs in this checkout, and on the big_panel
dataset the planted event effect and timing slope must keep their signs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs the operation once untraced and once under perfbench/tracer.py and
reports the per-layer metrics; their counts must repeat exactly across runs
of the same seed.  ``--scale tiny`` runs every workload on the 20 x 340 demo
scale in seconds.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACER = HERE / "tracer.py"
# Generator keys that fall back to the SynthConfig defaults at --scale tiny.
SIZE_KEYS = ("n_firms", "n_days", "n_events", "sentiment_draws")
# Run-config input keys and the write_dataset path each one names.
CONFIG_INPUTS = {
    "transcripts_csv": "transcripts",
    "firm_names_csv": "firm_names",
    "exclusions_txt": "exclusions",
    "lexicon_positive_txt": "lexicon_positive",
    "lexicon_negative_txt": "lexicon_negative",
    "panel_csv": "panel",
    "factors_csv": "factors",
    "rf_csv": "rf",
    "nsi_csv": "nsi",
    "short_rate_csv": "short_rate",
}
# Count metrics: they must repeat exactly across runs of one seed.
COUNT_UNITS = ("count", "MB")
# Untraced runs set up this many times and report the median set-up time.
SETUPS = 2


class CheckFailed(Exception):
    pass


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Set-up: dataset and run config.


def synth_params(spec: dict, scale: str) -> dict:
    params = dict(spec["synth"])
    if scale == "tiny":
        for key in SIZE_KEYS:
            params.pop(key, None)
    return params


def setup(synthetic, spec: dict, seed: int, scale: str, data_dir: Path) -> float:
    """Generate and write the dataset; returns the seconds that took."""
    cfg = synthetic.SynthConfig(seed=seed, **synth_params(spec, scale))
    started = time.perf_counter()
    dataset = synthetic.gen_dataset(cfg)
    paths = synthetic.write_dataset(dataset, data_dir)
    elapsed = time.perf_counter() - started
    run_config = {key: paths[name].name for key, name in CONFIG_INPUTS.items()}
    run_config.update(
        out_dir="out",
        min_mentions=cfg.min_mentions,
        signal_lag=cfg.signal_lag,
        regression_n=cfg.signal_n,
    )
    run_config.update(spec["run_config"])
    run_config = {k: v for k, v in run_config.items() if v is not None}
    (data_dir / "run_config.json").write_text(
        json.dumps(run_config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return elapsed


# ---------------------------------------------------------------------------
# Timed operations.


def run_cli(stage: str, data_dir: Path, spans: Path | None = None) -> tuple[float, float, int]:
    """One CLI call in a fresh process: (wall seconds, peak RSS in MB, exit code)."""
    cmd = [sys.executable]
    cmd += [str(TRACER), str(spans)] if spans is not None else ["-m", "sentimetrics.cli"]
    cmd += [stage, "--config", "run_config.json"]
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath)
    with (data_dir / "cli.log").open("ab") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=data_dir, env=env, stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_all(data_dir: Path, spans_dir: Path | None = None):
    """The timed operation, `all` on an empty output directory.

    Returns (wall seconds, peak RSS in MB, error or None).
    """
    shutil.rmtree(data_dir / "out", ignore_errors=True)
    spans = None if spans_dir is None else spans_dir / "all.json"
    wall, rss, code = run_cli("all", data_dir, spans)
    return wall, rss, None if code == 0 else f"all exited {code}"


def tree_sha256(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_truth(data_dir: Path) -> None:
    """The planted event effect and the planted timing slope keep their signs."""
    truth = json.loads((data_dir / "ground_truth.json").read_text(encoding="utf-8"))
    out = data_dir / "out"
    polarity = truth["events"][0]["polarity"]
    effect = truth["events"][0]["effect"]
    lo, hi = truth["events"][0]["window"]
    with (out / "event_study.csv").open(newline="", encoding="utf-8") as fh:
        caar = sum(
            float(row["aar"])
            for row in csv.DictReader(fh)
            if row["group"] == f"{polarity}_full" and lo <= int(row["relative_day"]) <= hi
        )
    if caar * effect <= 0:
        raise CheckFailed(f"CAAR {caar!r} over days {lo}..{hi} lacks the planted sign of {effect!r}")
    with (out / "regressions.csv").open(newline="", encoding="utf-8") as fh:
        slopes = [float(row["estimate"]) for row in csv.DictReader(fh) if row["term"] == "signal"]
    if not slopes or min(slopes) <= 0:
        raise CheckFailed(f"signal slopes {slopes} are not all positive")


class Reference:
    """Tree hashes and counts seen by earlier runs in this checkout, per workload/scale/seed."""

    def __init__(self, key: str):
        self.path = WORK / "reference.json"
        self.key = key
        self.all = json.loads(self.path.read_text()) if self.path.exists() else {}
        self.entry = self.all.setdefault(key, {})

    def check(self, field: str, value) -> None:
        seen = self.entry.setdefault(field, value)
        if seen != value:
            raise CheckFailed(f"{field} drifted for {self.key}: {value} != {seen} seen before")

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True))
        tmp.replace(self.path)


def check_op(spec: dict, data_dir: Path, ref: Reference, error: str | None) -> bool:
    try:
        if error is not None:
            raise CheckFailed(error)
        ref.check("tree_sha256", tree_sha256(data_dir / "out"))
        if spec["truth_check"]:
            check_truth(data_dir)
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        log(f"FAILED: {exc}; see {data_dir / 'cli.log'}")
        return False
    return True


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.


def span_totals(spans: list[list]) -> dict[str, float]:
    """Busy seconds (`.s`), self seconds (`.self_s`), calls and counts per span name."""
    child = defaultdict(float)
    for _id, parent, _name, start, end, _counts in spans:
        if parent is not None:
            child[parent] += end - start
    totals = defaultdict(float)
    for span_id, _parent, name, start, end, counts in spans:
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += end - start - child[span_id]
        totals[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] += value
    return totals


def layer_metrics(totals: dict[str, float], panel_mb: float, traced_wall: float, untraced_wall: float):
    stage_s = sum(v for k, v in totals.items() if k.startswith("cli.stage.") and k.endswith(".s"))
    attempted = totals["eventstudy.run_event_study.attempted"]
    derived = {
        "cli.manifest.s": totals["cli.run_stages.s"] - stage_s,
        "factors.load_panel.mb": totals["factors.load_panel.calls"] * panel_mb,
        "corpus.tokens": totals["corpus.build_days.tokens"],
        "sentiment.events": totals["sentiment.build_stock_events.events"],
        "eventstudy.events_attempted": attempted,
        "eventstudy.estimated_ratio": (
            totals["eventstudy.run_event_study.estimated"] / attempted if attempted else 0.0
        ),
        "econometrics.logit_iterations": totals["econometrics.fit_logit.iterations"],
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": stage_s / traced_wall,
    }
    return {**totals, **derived}


def traced_metrics(tracer, spans_dir: Path, panel_mb: float, traced_wall: float, untraced_wall: float):
    """Every per-layer metric from the set-up spans and the traced CLI calls' span files."""
    tracer.dump(spans_dir / "setup.json")
    totals = defaultdict(float)
    absent = set()
    for path in sorted(spans_dir.glob("*.json")):
        dump = json.loads(path.read_text(encoding="utf-8"))
        absent.update(dump["absent"])
        for name, value in span_totals(dump["spans"]).items():
            totals[name] += value
    if absent:
        log(f"absent from this commit, reported as 0: {', '.join(sorted(absent))}")
    return layer_metrics(totals, panel_mb, traced_wall, untraced_wall)


# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    blas = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "thread_env": blas or "unset",
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, and the salt alone moves the time
        # of a CLI call by up to ~13 %; fix it for this process and its children.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    # A terminated run stops the CLI call it is waiting for (see run_cli).
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    args = parse_args(argv, workloads)
    if not (SRC / "sentimetrics" / "cli.py").is_file():
        log(f"no sentimetrics source under {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    from sentimetrics import synthetic

    from tracer import Tracer

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = workloads[args.workload]
    key = f"{args.workload}-{args.scale}-{args.seed}"
    data_dir = WORK / key
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    log(f"{key}: {json.dumps(environment(), sort_keys=True)}")

    tracer = Tracer()
    if args.trace:
        tracer.install(["synthetic"])
    n_setups = 1 if args.trace else SETUPS
    setups = [setup(synthetic, spec, args.seed, args.scale, data_dir) for _ in range(n_setups)]
    log(f"{key}: setup {', '.join(f'{s:.3f}' for s in setups)} s")

    ref = Reference(key)
    walls, rss, failed = [], [], 0
    started = time.perf_counter()
    while True:
        wall, peak, error = run_all(data_dir)
        walls.append(wall)
        rss.append(peak)
        failed += not check_op(spec, data_dir, ref, error)
        elapsed = time.perf_counter() - started
        log(f"{key}: operation {len(walls)}: {wall:.3f} s, {peak:.1f} MB")
        # Stop when another operation of the mean length would overrun --seconds.
        if args.trace or elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break
    attempted = len(walls)

    if args.trace:
        spans_dir = WORK / "spans" / key
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        traced_wall, _, error = run_all(data_dir, spans_dir)
        attempted += 1
        failed += not check_op(spec, data_dir, ref, error)
        panel_mb = (data_dir / "panel.csv").stat().st_size / 1e6
        values = traced_metrics(tracer, spans_dir, panel_mb, traced_wall, walls[0])
        wanted = bench["per_layer"]
        try:
            for m in wanted:
                if m["unit"] in COUNT_UNITS:
                    ref.check(m["name"], values.get(m["name"], 0.0))
        except CheckFailed as exc:
            log(f"FAILED: count {exc}")
            failed += 1
    else:
        values = {
            # The mean over the whole run, not the median of its five to nine
            # operations: host CPU speed drifts over tens of seconds, and the
            # median picks one or two operations of one phase of it.
            "wall_s": statistics.fmean(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": (attempted - failed) / attempted,
        }
        wanted = bench["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    if not failed:
        ref.save()
        shutil.rmtree(data_dir)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
