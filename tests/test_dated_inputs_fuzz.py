"""A seeded fuzz of the four dated inputs (factors.csv, rf.csv, nsi.csv, short_rate.csv)
through the whole pipeline.

Each run copies one input of the seed-7 demo, mutates one or two of its cells, one
row's field count or the order of two rows, and runs `all` in-process on a run config
that points at the copy, with the factors passed through (factors.csv) or constructed
from the panel (rf.csv).  A run must exit 0, or exit 1 with one error line that names
the mutated file and one of the rows the mutation touched.
"""

import json
import random
import re

import pytest

from sentimetrics.cli import main

# Values a float cell takes: faults of each kind, the ends of each range, and values
# inside them that read as numbers only to a lenient parser or not at all.
FLOAT_VALUES = [
    "nan", "inf", "-inf", "x", "", "1e308", "-1e308", "1e20", "1", "-1",
    "1.0000000000000002", "-1.0000000000000002", "0.9999999999999999", "-0.9999999999999999",
    "1e6", "-1000000.0000000001", "999999.0", "5e-324", "-0.0", "0", " 0.005 ", "0.01",
]
DATE_VALUES = ["2021-02-30", "", "x", "0.01", "2021-13-01"]  # none a date of the demo's span
SEEDS = list(range(40))  # even seeds pass the factors through, odd ones construct them


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    data = tmp_path_factory.mktemp("demo7") / "data"
    assert main(["synth", "--out", str(data), "--seed", "7"]) == 0
    return data


def _mutate(rng: random.Random, lines: list[str]) -> tuple[list[str], set[int]]:
    """The data lines after one mutation, and the file rows (the header is row 1) it touched."""
    lines, k = list(lines), rng.randrange(len(lines))
    kind = rng.choice(["cells", "cells", "field count", "row order"])
    if kind == "field count":
        fields = lines[k].split(",")
        lines[k] = ",".join(fields[:-1] if rng.random() < 0.5 else [*fields, "0.01"])
        return lines, {k + 2}
    if kind == "row order":
        k = min(k, len(lines) - 2)
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
        return lines, {k + 2, k + 3}
    touched = set()
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(lines))
        fields = lines[k].split(",")
        j = 0 if rng.random() < 0.2 else rng.randrange(1, len(fields))  # mostly a value
        fields[j] = rng.choice(DATE_VALUES if j == 0 else FLOAT_VALUES)
        lines[k] = ",".join(fields)
        touched.add(k + 2)
    return lines, touched


@pytest.mark.parametrize("seed", SEEDS)
def test_a_mutated_dated_input_runs_or_stops_naming_its_file_and_row(demo, tmp_path, capsys, seed):
    rng = random.Random(f"dated inputs {seed}")
    config = json.loads((demo / "run_config.json").read_text(encoding="utf-8"))
    inputs = {k: str(demo / v) for k, v in config.items() if k.endswith(("_csv", "_txt"))}
    if seed % 2:
        inputs["factors_csv"] = None  # construct the factors from the panel and rf.csv
    factor_input = "factors_csv" if inputs["factors_csv"] else "rf_csv"  # the one the run reads
    key = rng.choice([factor_input, "nsi_csv", "short_rate_csv"])
    header, *lines = (demo / config[key]).read_text(encoding="utf-8").splitlines()
    lines, touched = _mutate(rng, lines)
    mutated = tmp_path / config[key]
    inputs[key] = str(mutated)
    mutated.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    run_config = tmp_path / "run_config.json"
    run_config.write_text(json.dumps({**config, **inputs, "out_dir": "out"}), encoding="utf-8")

    code = main(["all", "--config", str(run_config)])

    errors = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
    if code == 0:
        assert errors == []
        return
    assert code == 1 and len(errors) == 1, errors
    error = errors[0]
    assert error.startswith(f"sentimetrics: error: {mutated}: row "), error
    assert int(re.search(r": row (\d+): ", error).group(1)) in touched, (touched, error)
