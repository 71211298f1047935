"""Every input either loads or stops its stage naming the file: seeded byte mutations
of each input of the seed-7 demo, a BOM on every input, and the one CSV module."""

import json
import random
import re
import shutil
from pathlib import Path

import pytest

from sentimetrics.cli import INPUT_KEYS, main

SRC = Path(__file__).resolve().parents[1] / "src" / "sentimetrics"

# The lone stage that first reads each input.  rf.csv is read only when the
# factors are built from the panel, so its cases run without factors_csv.
FIRST_READER = {
    "transcripts_csv": "ingest",
    "firm_names_csv": "ingest",
    "exclusions_txt": "ingest",
    "lexicon_positive_txt": "sentiment",
    "lexicon_negative_txt": "sentiment",
    "panel_csv": "factors",
    "factors_csv": "factors",
    "rf_csv": "factors",
    "nsi_csv": "factors",
    "short_rate_csv": "factors",
}
assert sorted(FIRST_READER) == sorted(INPUT_KEYS)


def _row(new):
    """A line edit that replaces the target line x by new(x, rng)."""

    def edit(lines, i, rng):
        lines[i] = new(lines[i], rng)

    return edit


def _last_field(value):
    """A line edit that replaces the target line's last comma-separated field f by value(f)."""
    return _row(lambda x, rng: b",".join([*x.split(b",")[:-1], value(x.split(b",")[-1])]))


def _insert(char: bytes):
    """A line edit that puts `char` at a seeded position inside the target line."""

    def new(x, rng):
        at = rng.randrange(1, max(len(x), 2))
        return x[:at] + char + x[at:]

    return _row(new)


def _swap(lines, i, rng):
    j = min(i + 1, len(lines) - 1)
    lines[i], lines[j] = lines[j], lines[i]


FILE_EDITS = {
    "bom": lambda data, rng: b"\xef\xbb\xbf" + data,
    "crlf": lambda data, rng: data.replace(b"\n", b"\r\n"),
    "truncated": lambda data, rng: data[: rng.randrange(1, len(data))],
    "empty": lambda data, rng: b"",
    "header_only": lambda data, rng: data[: data.index(b"\n") + 1],
}
# Each edits the file's lines (split at b"\n", the endings dropped) in place at
# line i, seeded, and past the header where the file has more than one line.
LINE_EDITS = {
    "bad_byte": _insert(b"\xff"),
    "nul": _insert(b"\x00"),
    "stray_quote": _insert(b'"'),
    "unbalanced_quote": _row(lambda x, rng: b'"' + x),
    "tabs": _row(lambda x, rng: b"\t" + x.replace(b",", b"\t,\t")),
    "dropped_field": _row(lambda x, rng: x.rpartition(b",")[0]),
    "extra_field": _row(lambda x, rng: x + b",extra"),
    "blank_line": lambda lines, i, rng: lines.insert(i, b""),
    "repeated_row": lambda lines, i, rng: lines.insert(i, lines[i]),
    "swapped_rows": _swap,
    "nan": _last_field(lambda f: b"nan"),
    "inf": _last_field(lambda f: b"-inf"),
    "empty_field": _last_field(lambda f: b""),
    "big_number": _last_field(lambda f: b"9" * 400),
    "padded": _last_field(lambda f: b"  " + f + b" "),
    # A 40 000-word field: in transcripts.csv, a valid multi-hour broadcast.
    "long_field": _last_field(lambda f: b'"' + b" ".join([b"word"] * 40_000) + b'"'),
}


def mutate(data: bytes, kind: str, seed: str) -> bytes:
    rng = random.Random(seed)
    if kind in FILE_EDITS:
        return FILE_EDITS[kind](data, rng)
    lines = data.split(b"\n")[:-1]
    i = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
    LINE_EDITS[kind](lines, i, rng)
    return b"".join(line + b"\n" for line in lines)


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The seed-7 demo after `all`: (its data directory, its run config as a dict)."""
    data = tmp_path_factory.mktemp("inputs") / "data"
    assert main(["synth", "--out", str(data), "--seed", "7"]) == 0
    assert main(["all", "--config", str(data / "run_config.json")]) == 0
    return data, json.loads((data / "run_config.json").read_text(encoding="utf-8"))


def _config(tmp_path: Path, data: Path, raw: dict, **inputs) -> Path:
    """A run config over the demo's inputs, with `inputs` replaced, writing into tmp_path/out."""
    raw = {**raw, **{key: str(data / name) for key, name in raw.items() if key in INPUT_KEYS}}
    cfg = tmp_path / "run_config.json"
    cfg.write_text(json.dumps({**raw, **inputs, "out_dir": str(tmp_path / "out")}), "utf-8")
    return cfg


@pytest.mark.parametrize("kind", [*FILE_EDITS, *LINE_EDITS])
@pytest.mark.parametrize("key", sorted(FIRST_READER))
def test_a_mutated_input_loads_or_stops_naming_its_file(demo, tmp_path, capsys, key, kind):
    data, raw = demo
    path = tmp_path / raw[key]
    path.write_bytes(mutate((data / raw[key]).read_bytes(), kind, f"{key}:{kind}"))
    shutil.copytree(data / "out", tmp_path / "out")  # the upstream outputs of the lone stage
    extra = {"factors_csv": None} if key == "rf_csv" else {}
    cfg = _config(tmp_path, data, raw, **{key: str(path)}, **extra)
    rc = main([FIRST_READER[key], "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 0 or (rc == 1 and err.startswith(f"sentimetrics: error: {path}: ")), err


WORD_LISTS = ["exclusions_txt", "lexicon_negative_txt", "lexicon_positive_txt"]


@pytest.mark.parametrize(
    "keys, factors_csv",
    [(INPUT_KEYS, "factors.csv"), (INPUT_KEYS, None), (WORD_LISTS, "factors.csv")],
    ids=["every-input", "every-input-factors-built", "word-lists"],
)
def test_a_bom_on_inputs_leaves_the_outputs_unchanged(demo, tmp_path, keys, factors_csv):
    data, raw = demo
    trees = []
    for bom in (b"", b"\xef\xbb\xbf"):
        run = tmp_path / ("bom" if bom else "plain")
        run.mkdir()
        for key in INPUT_KEYS:
            head = bom if key in keys else b""
            (run / raw[key]).write_bytes(head + (data / raw[key]).read_bytes())
        cfg = _config(run, run, raw, factors_csv=factors_csv and str(run / factors_csv))
        assert main(["all", "--config", str(cfg)]) == 0
        out = run / "out"
        trees.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert trees[0] == trees[1]


def test_only_tables_uses_the_csv_module():
    users = [
        p.name
        for p in sorted(SRC.glob("*.py"))
        if re.search(r"^\s*(import csv\b|from csv import)", p.read_text("utf-8"), re.M)
    ]
    assert users == ["tables.py"]
