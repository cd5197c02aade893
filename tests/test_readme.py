"""The README's examples and API list agree with the package."""

import math
import re
import shlex
from pathlib import Path

import hopslab
from hopslab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_quick_start_runs(capsys):
    block = re.search(r"## Quick start\s+```python\n(.*?)```", README,
                      re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
    p_h, line = capsys.readouterr().out.splitlines()
    assert abs(complex(p_h) + 1j * math.tanh(0.44)) < 1e-12
    index_error, residual = map(float, line.split())
    assert abs(index_error) < 1e-12
    assert residual < 1e-10


def test_onset_example_matches_the_command(capsys):
    shown = [line for line in README.splitlines()
             if line.startswith("# onset_kt=")]
    assert main(["onset", "--nx", "0.035", "--ny", "0.035"]) == 0
    assert shown == ["# " + capsys.readouterr().out.rstrip("\n")]


def test_every_documented_command_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README,
                      re.DOTALL)
    assert block is not None
    commands = [line.split("#", 1)[0] for line in block.group(1).splitlines()
                if line.startswith("hopslab ")]
    assert len(commands) == 6
    # outputs such as curve.csv land in a scratch directory, in order,
    # since the --config line reads the curve the line before wrote
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
    capsys.readouterr()


def test_every_exported_name_is_documented():
    missing = [name for name in hopslab.__all__
               if not re.search(rf"`{re.escape(name)}\b", README)]
    assert not missing
