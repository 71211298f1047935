"""Smoke tests of the benchmark at the 20 x 340 demo scale; a few seconds each.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
REFERENCE = ROOT / ".bench_build" / "perfbench" / "reference.json"


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_tiny_run_reports_every_metric(workload, trace):
    result = result_of(bench(ROOT, workload, 5, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        assert result["metrics"]["cli.stage.eventstudy.s"]["value"] > 0
        assert result["metrics"]["synthetic.gen_dataset.s"]["value"] > 0
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_every_layer_metric_is_documented_once():
    stages = ["ingest", "sentiment", "factors", "eventstudy", "timing", "regress"]
    documented = []
    for layer in SPEC["layers"].values():
        for name in layer["metrics"]:
            documented += [name.replace("*", s) for s in stages] if "*" in name else [name]
    assert documented == [m["name"] for m in BENCH["per_layer"]]


def test_drifted_count_or_tree_fails_the_run():
    key = "big_panel-tiny-6"
    assert result_of(bench(ROOT, "big_panel", 6, 1))["correct"]
    reference = json.loads(REFERENCE.read_text())
    entry = reference[key]
    try:
        entry["factors.load_panel.calls"] += 1
        REFERENCE.write_text(json.dumps(reference))
        assert result_of(bench(ROOT, "big_panel", 6, 1))["failed"] == 1

        entry["factors.load_panel.calls"] -= 1
        entry["tree_sha256"] = "0" * 64
        REFERENCE.write_text(json.dumps(reference))
        result = result_of(bench(ROOT, "big_panel", 6, 0))
        assert not result["correct"] and result["failed"] == result["attempted"]
        assert result["metrics"]["ok_frac"]["value"] == 0.0
    finally:
        reference = json.loads(REFERENCE.read_text())
        reference.pop(key)
        REFERENCE.write_text(json.dumps(reference))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "big_panel", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
