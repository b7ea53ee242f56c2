"""The README's examples run and give what the README says."""

import json
import re
import shlex
from pathlib import Path

import wallkit.linalg as linalg
from wallkit.cli import parse_config, run

README = Path(__file__).resolve().parents[1] / "README.md"


def _example(heading: str, lang: str = "python") -> str:
    text = README.read_text()
    section = text[text.index(heading) :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_command_line_examples_parse():
    # parse only: a flag the CLI no longer has fails here
    block = _example("## Command line", "sh")
    calls = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("wallkit ")]
    assert len(calls) >= 4
    for argv in calls:
        assert parse_config(argv).command == argv[0]


def test_quick_start_runs(capsys):
    exec(compile(_example("Quick start"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("{'left': True, 'right': True")
    assert lines[1] == "1"


def test_sff_example_is_what_the_cli_runs(tmp_path, capsys):
    ns = {}
    exec(compile(_example("## Spectral form factor"), str(README), "exec"), ns)
    assert ns["blocks"] == [(1, 1), (1, 1)]
    out = tmp_path / "sff.json"
    argv = ["sff", "--preset", "abelian-pair", "--t-max", "16", "--samples", "4000",
            "--format", "json", "--out", str(out)]
    assert run(argv) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    assert [r[1] for r in rows] == list(ns["res"].K_mc)
    assert [r[3] for r in rows] == list(ns["res"].K_analytic)


def test_tolerance_table_is_the_code_table():
    section = README.read_text().split("## Tolerances")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([A-Z_]+_TOL)` \| ([0-9e.-]+) \|", section, re.M)
    code = {name: value for name, value in vars(linalg).items() if name.endswith("_TOL")}
    assert {name: float(value) for name, value in rows} == code
    assert len(rows) == len(code)
