"""The README's examples and API list agree with the package."""

import dataclasses
import importlib
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


def _scope() -> dict:
    """`hopslab`, its modules and every class one of them holds, by name."""
    package = Path(hopslab.__file__).parent
    modules = {path.stem: importlib.import_module(f"hopslab.{path.stem}")
               for path in package.glob("*.py") if path.stem != "__init__"}
    scope = {"hopslab": hopslab, **modules}
    for module in modules.values():
        scope.update((name, value) for name, value in vars(module).items()
                     if isinstance(value, type))
    return scope


def _resolves(dotted: str, scope: dict) -> bool:
    """Whether `module.name` or `Class.name` names a hopslab attribute.

    Each part after the head, a name in `scope`, is an attribute of the
    one before it, or a dataclass field, which ends the name.
    """
    head, *parts = dotted.split(".")
    owner = scope.get(head)
    for k, part in enumerate(parts):
        if dataclasses.is_dataclass(owner) and part in {
                field.name for field in dataclasses.fields(owner)}:
            return k == len(parts) - 1
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return owner is not None


def test_every_dotted_reference_resolves():
    # `module.name` and `Class.name`, alone or called as `name(...)`
    dotted = set(re.findall(r"`(\w+(?:\.\w+)+)[`(]", README))
    assert {"QuantumState.blocks", "hopslab.dpa"} <= dotted
    scope = _scope()
    assert [name for name in sorted(dotted)
            if not _resolves(name, scope)] == []
    for stale in ("QuantumState.matrix", "nomodule.name"):
        assert not _resolves(stale, scope)
