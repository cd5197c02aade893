"""End-to-end test of scripts/reproduce_onset_figures.py."""

import os
import subprocess
import sys
from pathlib import Path

import hopslab
from hopslab.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "reproduce_onset_figures.py"
CASES = ("vacuum", "equal_weights", "unequal_weights")


def test_onset_script_writes_curves_the_cli_reproduces(tmp_path):
    source = str(Path(hopslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--outdir", "tmp", "--steps", "20"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    assert "all onsets round to 0.22" in result.stdout
    outdir = tmp_path / "tmp"
    for name in CASES:
        csv = outdir / f"{name}.csv"
        assert (outdir / f"{name}.svg").read_text().startswith("<svg ")
        # the echoed configuration is a config file for the same sweep
        rerun = tmp_path / f"{name}.rerun.csv"
        assert main(["sweep", "--config", str(csv),
                     "--out", str(rerun)]) == 0
        assert rerun.read_bytes() == csv.read_bytes()
