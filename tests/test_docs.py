"""The README's configuration tables and library example against the code they describe."""

import json
import re
from dataclasses import asdict, fields
from pathlib import Path

from sentimetrics import tables
from sentimetrics.cli import STAGE_ORDER, STAGES, RunConfig, load_config, main
from sentimetrics.factors import PANEL_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def _table_rows(heading: str) -> dict[str, list[str]]:
    """{first cell: other cells} of the markdown table under the line `heading`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(heading) + 1
    while not lines[start].startswith("|"):
        start += 1
    rows = {}
    for line in lines[start + 2 :]:  # past the header and its rule
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        rows[cells[0]] = cells[1:]
    return rows


def test_readme_input_formats_name_the_schema_columns():
    rows = _table_rows("Input files:")
    for key, columns in [
        ("transcripts_csv", tables.TRANSCRIPTS.columns),
        ("firm_names_csv", tables.FIRM_NAMES.columns),
        ("panel_csv", PANEL_COLUMNS),  # read by factors' own parser, not under a tables schema
        ("factors_csv", tables.FACTORS.columns),
        ("rf_csv", tables.RF.columns),
        ("nsi_csv", tables.NSI.columns),
        ("short_rate_csv", tables.SHORT_RATE.columns),
    ]:
        documented = re.findall(r"`([a-z_]+(?:,[a-z_]+)+)`", rows[f"`{key}`"][0])
        assert documented == [",".join(columns)], key


def test_readme_output_table_names_each_declared_write_and_its_stage():
    documented = {}
    for files, (stage, _contents) in _table_rows("Outputs land in `demo/out/`:").items():
        documented.update(dict.fromkeys(re.findall(r"`([^`]+)`", files), stage))
    declared = {file: f"`{name}`" for name, stage in STAGES.items() for file in stage.writes}
    assert documented == {**declared, "backtest_N*.csv": "`timing`", "manifest.json": "every stage"}


def test_readme_stage_order_is_the_run_order():
    text = " ".join(README.read_text(encoding="utf-8").split())
    order = re.search(r"Stage order is (.*?);", text).group(1)
    assert re.findall(r"`(\w+)`", order) == STAGE_ORDER


def test_readme_parameters_list_every_field_with_its_default(tmp_path):
    config = tmp_path / "run_config.json"
    config.write_text("{}", encoding="utf-8")
    defaults = load_config(config)
    documented = {}
    for keys, (default, _meaning) in _table_rows("Parameters (with defaults):").items():
        names = re.findall(r"`(\w+)`", keys)
        values = default.split(", ") if len(names) > 1 else [default]
        documented.update(zip(names, values))
    init_fields = {f.name for f in fields(RunConfig) if f.init} - {"config_path", "inputs"}
    assert set(documented) == init_fields
    for name, text in documented.items():
        value = getattr(defaults, name)
        if name == "out_dir":
            assert value == tmp_path / json.loads(text.strip("`"))
        elif name == "window":
            documented_window = {k: int(v) for k, v in re.findall(r"(\w+):(-?\d+)", text)}
            assert documented_window == asdict(value), name
        elif name == "signal_n_list":
            first, last = re.fullmatch(r"`\[(\d+)\.\.(\d+)\]`", text).groups()
            assert list(range(int(first), int(last) + 1)) == value, name
        else:
            assert json.loads(text.strip("`")) == value, name


def test_readme_library_use_runs_on_a_synth_dataset(tmp_path, monkeypatch):
    assert main(["synth", "--out", str(tmp_path), "--seed", "7"]) == 0
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```$", text, re.S | re.M).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, f"{README}: Library use", "exec"), {})
