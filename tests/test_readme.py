"""The README's CSV column listing matches the header each task writes."""

import re
from pathlib import Path

import pytest

from polsim.cli import TASKS, main
from test_cli import PHYSICAL, csv_rows, read_manifest, write_config
from test_cold_start import CHEAP

README = Path(__file__).resolve().parents[1] / "README.md"

# the cheap tasks' small configs, and a scan of the other observable
RUNS = [(task, *entry) for task, entry in CHEAP.items()] + [
    ("scan", PHYSICAL, {"parameter": "x_gate", "values": [4.0, 20.0],
                        "observable": "cw_point"}),
]


def readme_columns() -> dict:
    """{artifact key: header cells} of the README's "CSV columns" list.

    Each bullet reads ``- <key>: `cell`, `cell`, ...``; a bullet may wrap
    onto lines indented by two spaces.
    """
    text = README.read_text(encoding="utf-8")
    section = text.split("#### CSV columns\n", 1)[1].split("\n#", 1)[0]
    listing = {}
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", section, re.M):
        key, _, cells = " ".join(bullet.split()).partition(": ")
        listing[key] = re.findall(r"`([^`]+)`", cells)
    return listing


def test_every_task_is_listed():
    keys = " ".join(readme_columns())
    assert all(f"`{task}" in keys for task in TASKS)


@pytest.mark.parametrize(
    "task, physical, params", RUNS,
    ids=[f"{task}-{params.get('observable', '')}".rstrip("-") for task, _, params in RUNS],
)
def test_readme_lists_the_written_header(tmp_path, task, physical, params):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, physical=physical, task=task, task_params=params, output_dir=str(out),
    )
    assert main([task, "--config", str(cfg)]) == 0
    [name] = [n for n in read_manifest(out)["artifacts"] if n.endswith(".csv")]
    key = f"`{name.rpartition('_')[0]}.csv`"
    if task == "scan":
        key += f" with observable `{params['observable']}`"
    listed = [
        cell.replace("<parameter>", params.get("parameter", ""))
        for cell in readme_columns()[key]
    ]
    assert csv_rows(out / name)[0] == listed
