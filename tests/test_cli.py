"""End-to-end tests of the command-line interface."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import hopslab
import hopslab.fock as fock
import hopslab.polarization as polarization
from hopslab.cli import main
from hopslab.dpa import EVOLUTION_MARGIN
from hopslab.reporting import claims_csv, curve_csv
from hopslab.squeezing import (
    WeightedProjectorModel,
    claimed_moment_table,
    sweep,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def data_rows(csv_text):
    lines = [line for line in csv_text.splitlines()
             if line and not line.startswith("#")]
    return lines[0], lines[1:]


def test_onset_line(capsys):
    code, out = run_cli(["onset", "--nx", "0.035", "--ny", "0.035"], capsys)
    assert code == 0
    assert out.startswith("onset_kt=0.22074793421013325 ")
    assert "rounds_to=0.22" in out
    assert "bisection=0.2207479342" in out


def test_onset_above_the_unit_bracket(capsys):
    # Sq(1) > 0 from occupations near 26 on; the onset here is 1.326
    code, out = run_cli(["onset", "--nx", "100", "--ny", "100"], capsys)
    assert code == 0
    fields = dict(item.split("=") for item in out.split())
    assert float(fields["onset_kt"]) > 1.0
    assert float(fields["difference"]) <= 1e-12


def test_onset_defaults_match_explicit(capsys):
    _, explicit = run_cli(["onset", "--nx", "0.035", "--ny", "0.035"], capsys)
    _, defaulted = run_cli(["onset"], capsys)
    assert explicit == defaulted


def test_sweep_csv_structure_and_onset_crossing(capsys):
    code, out = run_cli(
        ["sweep", "--model", "fock", "--nx", "0", "--ny", "0",
         "--kt-max", "0.5", "--steps", "100"], capsys)
    assert code == 0
    header, rows = data_rows(out)
    assert header.split(",")[:2] == ["kt", "sq"]
    assert len(rows) == 100
    crossings = []
    values = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
    for (kt_a, sq_a), (kt_b, sq_b) in zip(values, values[1:]):
        if sq_a > 0.0 >= sq_b:
            crossings.append((kt_a, kt_b))
    assert len(crossings) == 1
    lo, hi = crossings[0]
    assert lo < math.asinh(1.0) / 4.0 < hi
    assert all(row.endswith(",fock") for row in rows)


def test_sweep_deterministic(tmp_path):
    argv = ["sweep", "--model", "weighted", "--kt-max", "0.4",
            "--steps", "12"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model=fock\nnx=0\nny=0\nsteps=5\nkt-max=0.3\n")
    code, out = run_cli(["sweep", "--config", str(config)], capsys)
    assert code == 0
    _, rows = data_rows(out)
    assert len(rows) == 5
    # explicit flag wins over the config file
    code, out = run_cli(
        ["sweep", "--config", str(config), "--steps", "7"], capsys)
    _, rows = data_rows(out)
    assert len(rows) == 7


@pytest.mark.parametrize("argv, echoed", [
    (["sweep", "--model", "fock", "--nx", "1", "--ny", "1",
      "--kt-max", "0.4", "--steps", "6"], "oracle=0"),
    # the header names the cutoff the oracle suggested for itself
    (["sweep", "--model", "fock", "--oracle", "--steps", "3"], "cutoff=31"),
    (["claims"], "kt=0.22"),
    (["claims", "--cutoff", "20"], "cutoff=20"),
    (["ensemble", "--count", "200", "--seed", "4"], "a0=1.0"),
    (["ensemble", "--amplitude", "rayleigh", "--scale", "0.5",
      "--count", "200"], "scale=0.5"),
    (["sweep", "--model", "thermal", "--nbar-x", "0.3", "--steps", "4"],
     "nbar_x=0.3"),
    (["sweep", "--model", "weighted", "--ny", "3", "--steps", "4"], "ny=3"),
    # built in Python: integer occupations are echoed as the floats
    # a replay parses
    (lambda: curve_csv(sweep(WeightedProjectorModel(10, 10, 10, 10), 0.5, 5)),
     "nbar_x=10.0"),
], ids=["closed-sweep", "oracle-sweep", "claims", "claims-cutoff",
        "ensemble-fixed", "ensemble-rayleigh", "thermal-sweep",
        "weighted-sweep", "python-weighted-sweep"])
def test_config_roundtrip_through_echo(argv, echoed, tmp_path):
    first = tmp_path / "first.csv"
    if callable(argv):
        first.write_text(argv())
        argv = ["sweep"]
    else:
        assert main(argv + ["--out", str(first)]) == 0
    echoed_lines = [line[2:] for line in first.read_text().splitlines()
                    if line.startswith("# ")]
    assert echoed in echoed_lines
    config = tmp_path / "echo.cfg"
    config.write_text("\n".join(echoed_lines) + "\n")
    second = tmp_path / "second.csv"
    assert main([argv[0], "--config", str(config),
                 "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_svg_output(tmp_path):
    svg = tmp_path / "curve.svg"
    assert main(["sweep", "--model", "fock", "--nx", "0", "--ny", "0",
                 "--kt-max", "0.5", "--steps", "20",
                 "--out", str(tmp_path / "curve.csv"),
                 "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert "<polyline" in text
    assert "onset kt=" in text


def test_sweep_truncation_exit_code(tmp_path):
    out = tmp_path / "partial.csv"
    code = main(["sweep", "--model", "fock", "--nx", "0", "--ny", "0",
                 "--kt-max", "0.9", "--steps", "5", "--oracle",
                 "--cutoff", "8", "--out", str(out)])
    assert code == 3
    header, rows = data_rows(out.read_text())
    valid_column = header.split(",").index("valid")
    flags = [row.split(",")[valid_column] for row in rows]
    assert "0" in flags
    assert len(rows) == 5


def test_verify_passes(capsys):
    code, out = run_cli(["verify", "--cutoff", "12"], capsys)
    assert code == 0
    assert "VERIFY PASS" in out
    assert "FAIL" not in out.replace("VERIFY PASS", "")
    # adjudication notes are present but not gating
    assert "printed form fails, corrected closes" in out
    assert "combined-order map deviates" in out


def test_verify_traced_peak_stays_small(tmp_path):
    # hidden-set moments act by ladder shifts; a dense d^2 x d^2 hidden
    # set at the 40x40 uncertainty probe alone traces over 300 MB. The
    # commutator tables run on chains; dense 56x56 tables trace 1.7 GB
    for cutoff, bound in ((16, 64e6), (56, 100e6)):
        tracemalloc.start()
        try:
            code = main(["verify", "--cutoff", str(cutoff),
                         "--out", str(tmp_path / "verify.txt")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < bound, (cutoff, peak)


def test_ensemble_traced_peak_stays_small(tmp_path):
    # the statistics are drawn and reduced in chunks; holding a million
    # samples and their component arrays at once traces about 80 MB
    tracemalloc.start()
    try:
        code = main(["ensemble", "--count", "1000000", "--amplitude",
                     "rayleigh", "--out", str(tmp_path / "ensemble.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16e6


def test_thermal_oracle_sweep_at_the_largest_cutoff(tmp_path):
    # the state is its sector blocks; as a d^2 x d^2 matrix the thermal
    # state alone held 1.3 GB here
    tracemalloc.start()
    try:
        code = main(["sweep", "--model", "thermal", "--oracle", "--cutoff",
                     "80", "--steps", "2", "--out", str(tmp_path / "t.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 50e6


def test_ensemble_csv(capsys):
    argv = ["ensemble", "--count", "20000", "--seed", "3",
            "--delta-h", "0.7"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    header, rows = data_rows(out)
    assert header == "component,estimate,std_error,count"
    table = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
    assert set(table) == {"s0", "s1", "s2", "s3", "h0", "h1", "h2", "h3"}
    assert table["s0"] == pytest.approx(1.0, abs=1e-12)
    assert table["h2"] == pytest.approx(math.cos(0.7), abs=1e-12)
    assert table["h3"] == pytest.approx(math.sin(0.7), abs=1e-12)
    assert abs(table["s2"]) < 5.0 / math.sqrt(20000)
    # same seed, same bytes
    _, again = run_cli(argv, capsys)
    assert again == out


def test_ensemble_error_stays_finite_with_its_estimate(capsys):
    # s0 = 1e200 is finite; its error must not overflow on the way
    code, out = run_cli(["ensemble", "--a0", "1e100", "--count", "100"],
                        capsys)
    assert code == 0
    _, rows = data_rows(out)
    cells = {row.split(",")[0]: row.split(",")[1:3] for row in rows}
    assert float(cells["s0"][0]) == pytest.approx(1e200, rel=1e-12)
    assert all(math.isfinite(float(v)) for pair in cells.values()
               for v in pair)


@pytest.mark.parametrize("argv", [
    ["ensemble", "--count", "5", "--a0", "1e-170"],
    ["ensemble", "--amplitude", "rayleigh", "--scale", "1e-170",
     "--count", "5"],
])
def test_underflowing_amplitude_exits_two(argv, capsys):
    # a0^2 underflows to 0, which would print s0 = 0.0 +- 0.0
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "underflows" in err


def test_claims_table(capsys):
    code, out = run_cli(
        ["claims", "--nx", "1", "--ny", "2", "--kt", "0.22"], capsys)
    assert code == 0
    header, rows = data_rows(out)
    assert header == "name,claimed,reference,verdict,deviation"
    verdicts = {row.split(",")[0]: row.split(",")[3] for row in rows}
    assert verdicts["mean_h0"] == "matches"
    assert verdicts["mean_h1"] == "matches"
    assert verdicts["mean_h2"] == "matches"
    assert verdicts["mean_h3"] == "sign_flip"
    assert verdicts["var_h2"] == "matches"
    assert verdicts["var_h1"] == "mismatch"


def test_claims_note_follows_unchanged_rows(capsys):
    # one note after the verdict rows says why Var H2 cannot fall; the
    # rows are the table's own
    code, out = run_cli(["claims"], capsys)
    assert code == 0
    note = out.splitlines()[-1]
    assert note.startswith("# note: H2 is the interaction itself")
    assert "Var H2 is a constant of the motion" in note
    assert "sinh(4kt)" in note
    table = claimed_moment_table(1.0, 2.0, 0.22)
    config = {"command": "claims", "nx": 1.0, "ny": 2.0, "kt": 0.22}
    assert out == claims_csv(table, config) + note + "\n"


def test_claims_oracle_reference(capsys):
    code, out = run_cli(
        ["claims", "--nx", "0", "--ny", "0", "--kt", "0.2",
         "--cutoff", "24"], capsys)
    assert code == 0
    _, rows = data_rows(out)
    verdicts = {row.split(",")[0]: row.split(",")[3] for row in rows}
    assert verdicts["mean_h3"] == "sign_flip"
    assert verdicts["var_h3"] == "matches"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--model", "unknown"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--model", "fock", "--nx", "1.5"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--steps", "1"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    # closed-form rows use no cutoff
    (["sweep", "--cutoff", "100", "--steps", "3"], "oracle rows only"),
    (["sweep", "--model", "fock", "--oracle", "--cutoff", "4", "--steps", "3"],
     f"cutoff must exceed {EVOLUTION_MARGIN} levels per mode"),
    (["sweep", "--model", "fock", "--nx", "-1", "--steps", "3"],
     "photon numbers must be non-negative integers"),
    # a model flag the chosen model lacks is named, not ignored
    (["sweep", "--model", "thermal", "--nx", "3", "--steps", "3"],
     "--nx does not apply to --model thermal"),
    (["sweep", "--model", "fock", "--nbar-x", "3"],
     "--nbar-x does not apply to --model fock"),
], ids=["cutoff-without-oracle", "cutoff-inside-margin", "negative-nx",
        "thermal-nx", "fock-nbar-x"])
def test_library_rules_exit_two_with_the_library_message(argv, message,
                                                         capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "thermal", "--nbar-x", "nan", "--steps", "3"],
    ["onset", "--nx", "nan"],
    ["onset", "--nx", "inf"],
    ["sweep", "--kt-max", "1000", "--steps", "3"],
    ["claims", "--nx", "nan"],
    ["claims", "--nx", "-1"],
    ["claims", "--kt", "nan"],
    ["claims", "--kt", "nan", "--cutoff", "10"],
    ["claims", "--kt", "1000"],
    ["verify", "--cutoff", "2"],
    ["verify", "--seed", "-1"],
    ["ensemble", "--count", "1"],
    # a 10^12-dimensional joint space: the first state or operator
    # allocation (7-15 TiB) fails at once
    ["sweep", "--model", "fock", "--steps", "3", "--oracle",
     "--cutoff", "1000000"],
    ["claims", "--cutoff", "1000000"],
    ["verify", "--cutoff", "1000000"],
    # nbar / (1 + nbar) rounds to 1.0, so no cutoff holds the thermal tail
    ["sweep", "--model", "thermal", "--nbar-x", "1e17", "--nbar-y", "1e17",
     "--oracle", "--steps", "3"],
    # |amplitude|^2 overflows: the statistics would be inf and NaN
    ["ensemble", "--a0", "1e200", "--count", "100"],
    ["ensemble", "--amplitude", "rayleigh", "--scale", "1e300",
     "--count", "100"],
    # the occupation term 2 N_x N_y / (1 + N_x + N_y) overflows
    ["onset", "--nx", "1e200", "--ny", "1e200"],
    # nbar (1 + nbar) overflows the closed-form variances
    ["sweep", "--model", "thermal", "--nbar-x", "1e300", "--steps", "3"],
    # DpaConfig's leakage_tol rule holds without --oracle too
    ["sweep", "--leakage-tol", "nan", "--steps", "3"],
    ["sweep", "--model", "fock", "--leakage-tol", "0", "--steps", "3"],
    # photon numbers are parsed as integers
    ["sweep", "--model", "fock", "--nx", "nan", "--steps", "3"],
    ["sweep", "--ny", "1.5", "--steps", "3"],
    # an unreadable config file goes through the same error line
    ["sweep", "--config", "/nonexistent/x.cfg"],
    # no state for the oracle to evolve, so the cutoff cannot be used
    ["claims", "--nx", "1.5", "--ny", "2", "--cutoff", "40"],
])
def test_non_finite_and_overflowing_input_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "fock", "--nx", "1e300", "--steps", "3"],
    # an integral float occupation is read as the photon number |1e300, 1>
    ["claims", "--nx", "1e300", "--ny", "1", "--cutoff", "10"],
], ids=["sweep", "claims"])
def test_huge_photon_number_exits_two_with_a_short_line(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1
    assert len(errors[0]) < 100, errors[0]


@pytest.mark.parametrize("argv, flag", [
    (["onset"], "--out"),
    (["sweep", "--steps", "3", "--out", "-"], "--svg"),
], ids=["onset-out", "sweep-svg"])
def test_unwritable_output_exits_two(argv, flag, tmp_path, capsys):
    # exit 1 is reserved for a failed verification
    target = tmp_path / "missing" / "output"
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [flag, str(target)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "Traceback" not in err


def test_overflow_error_names_no_flag(capsys):
    # the overflow comes from the occupations, not from the default --kt
    with pytest.raises(SystemExit) as excinfo:
        main(["claims", "--nx", "1e200", "--ny", "1e200"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "overflow" in err
    assert "--kt" not in err


def test_verify_cutoff_that_cannot_fit_exits_two_before_allocating(
        monkeypatch, tmp_path, capsys):
    # the chain tables need about 255 MB at d=100 and 45 MB at d=56
    monkeypatch.setattr(polarization, "_physical_memory", lambda: 64e6)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--cutoff", "100"])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert excinfo.value.code == 2
    assert elapsed < 1.0
    assert peak < 4e6
    err = capsys.readouterr().err
    assert "--cutoff 100 needs more memory than is available" in err
    for cutoff in (16, 56):
        assert main(["verify", "--cutoff", str(cutoff),
                     "--out", str(tmp_path / "verify.txt")]) == 0


@pytest.mark.parametrize("command", [
    ["sweep", "--model", "fock", "--nx", "1", "--oracle", "--steps", "3"],
    ["sweep", "--model", "thermal", "--oracle", "--steps", "3"],
    ["claims"],
], ids=["fock-sweep", "thermal-sweep", "claims"])
def test_oracle_cutoff_whose_sector_table_cannot_fit_exits_two(
        command, monkeypatch, capsys):
    # the sector table of d = 300 needs about 12 MB, 136 B per entry;
    # the probe reports 1 MB, so it is refused before it is built
    monkeypatch.setattr(fock, "_physical_memory", lambda: 1e6)
    with pytest.raises(MemoryError, match="sector table needs"):
        fock.sector_table(fock.FockCutoff(300, 300))
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--cutoff", "300"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert excinfo.value.code == 2
    assert peak < 4e6
    err = capsys.readouterr().err
    assert "--cutoff 300 needs more memory than is available" in err


def test_cli_import_loads_no_scipy():
    source = str(Path(hopslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    probe = ("import hopslab.cli, sys; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_missing_config_file(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--config", "/nonexistent/path.cfg"])
    assert excinfo.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("hopslab: error: cannot read config: ")
