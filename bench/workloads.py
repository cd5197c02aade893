"""The benchmark's workloads: the fixed list of calls each one makes into
hopslab, and the check each call's output must pass.

Calls go through module attributes (`squeezing.sweep`, `cli.main`) and
are looked up when the call runs, so a traced pass sees the wrappers
the span recorder installed. The workload seed only chooses inputs the
benchmark hands to the program: the order of the `fock-oracle` sweeps,
and the `ensemble` and `verify` seeds and phases. The two
`thermal-oracle` sweeps keep one order, because the order moves the
process's peak RSS by about 7%. Sizes are fixed per workload; `smoke`
keeps a subset of the same calls for a quick check of the benchmark
itself.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hopslab.cli as cli
import hopslab.squeezing as squeezing
from hopslab.fock import FockCutoff

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

KT_MAX = 0.5
THERMAL_STEPS = 20
THERMAL_CASES = ((0.5, 24), (0.035, 16))     # (nbar per mode, cutoff)
FOCK_STEPS = 101
FOCK_CUTOFFS = (48, 64)
FOCK_LEVELS = range(4)

ROW_FIELDS = ("mean_h0", "mean_h1", "mean_h2", "mean_h3",
              "var_h0", "var_h1", "var_h2", "var_h3", "leakage")
# round-off scale: reference rows were written with 12 significant digits
ROW_TOL = 1e-9

CLI_SWEEP_STEPS = 200
ENSEMBLE_COUNT = {"full": 1_000_000, "smoke": 20_000}
ENSEMBLE_SIGMAS = 5.0
CHI_H = 0.5 * math.pi
# verdicts of the claimed moment forms at the claims defaults (1, 2, 0.22),
# in the order mean_h0..mean_h3, var_h0..var_h3
CLAIM_VERDICTS = ("matches", "matches", "matches", "sign_flip",
                  "mismatch", "mismatch", "matches", "mismatch")


@dataclass
class Op:
    """One call into the program and the check its result must pass.

    `check` returns None when the output is right, else the reason.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def build(workload: str, seed: int, size: str, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    if workload == "thermal-oracle":
        return _oracle_ops(workload, thermal_cases(size))
    if workload == "fock-oracle":
        cases = fock_cases(size)
        rng.shuffle(cases)
        return _oracle_ops(workload, cases)
    if workload == "cli-session":
        return _cli_ops(rng, size, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# -- oracle sweeps ----------------------------------------------------------

@dataclass(frozen=True)
class OracleCase:
    key: str
    model: object
    cutoff: int
    steps: int

    def run(self):
        return squeezing.sweep(self.model, kt_max=KT_MAX, steps=self.steps,
                               with_oracle=True,
                               cutoff=FockCutoff(self.cutoff, self.cutoff))


def thermal_cases(size: str = "full") -> list[OracleCase]:
    cases = THERMAL_CASES if size == "full" else THERMAL_CASES[1:]
    return [OracleCase(f"thermal nbar={nbar} d={d}",
                       squeezing.ThermalMixtureModel(nbar, nbar), d,
                       THERMAL_STEPS)
            for nbar, d in cases]


def fock_cases(size: str = "full") -> list[OracleCase]:
    cutoffs = FOCK_CUTOFFS if size == "full" else FOCK_CUTOFFS[:1]
    levels = FOCK_LEVELS if size == "full" else range(2)
    return [OracleCase(f"fock n=({n_x},{n_y}) d={d}",
                       squeezing.FockModel(n_x, n_y), d, FOCK_STEPS)
            for d in cutoffs for n_x in levels for n_y in levels]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv"


def load_reference(workload: str) -> dict[str, list[list[float]]]:
    """case key -> rows of (kt, eight moments, leakage)."""
    rows: dict[str, list[list[float]]] = {}
    with reference_path(workload).open(newline="") as handle:
        for record in csv.DictReader(handle):
            rows.setdefault(record["case"], []).append(
                [float(record["kt"])]
                + [float(record[name]) for name in ROW_FIELDS])
    return rows


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ROW_TOL * max(1.0, abs(want))


def _check_curve(curve, expected: list[list[float]]) -> str | None:
    if len(curve.moment_rows) != len(expected):
        return f"{len(curve.moment_rows)} rows, reference has {len(expected)}"
    for row, (kt, *values) in zip(curve.moment_rows, expected):
        if not _close(row.kt, kt):
            return f"row kt {row.kt!r}, reference {kt!r}"
        got = (*row.means, *row.variances, row.leakage)
        for name, value, want in zip(ROW_FIELDS, got, values):
            if not _close(value, want):
                return f"kt={kt!r}: {name}={value!r}, reference {want!r}"
    return None


def _oracle_ops(workload: str, cases: list[OracleCase]) -> list[Op]:
    reference = load_reference(workload)
    return [Op(case.key, case.run,
               lambda curve, rows=reference[case.key]: _check_curve(curve,
                                                                    rows))
            for case in cases]


# -- CLI session ------------------------------------------------------------

def _data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def _expect_exit(code, check: Callable[[], str | None]) -> str | None:
    if code != 0:
        return f"exit code {code!r}, expected 0"
    return check()


def _onset_check(path: Path, n_x: float, n_y: float) -> Callable:
    closed = 0.25 * math.asinh(1.0 + 2.0 * n_x * n_y / (1.0 + n_x + n_y))

    def check() -> str | None:
        fields = dict(item.split("=", 1)
                      for item in path.read_text().split())
        if not abs(float(fields["onset_kt"]) - closed) <= 1e-12:
            return f"onset_kt {fields['onset_kt']}, closed form {closed!r}"
        if fields["rounds_to"] != f"{closed:.2f}":
            return f"rounds_to {fields['rounds_to']}, expected {closed:.2f}"
        return None

    return check


# the checks compute expected values themselves rather than trust the code
# they check; this mirrors squeezing.thermal_weight
def _thermal_weight(nbar: float, n: int) -> float:
    return math.exp(n * math.log(nbar) - (1 + n) * math.log1p(nbar))


def _sweep_check(path: Path, occupations: tuple[float, float],
                 svg: Path | None = None) -> Callable:
    n_x, n_y = occupations

    def check() -> str | None:
        rows = list(csv.DictReader(_data_lines(path)))
        if len(rows) != CLI_SWEEP_STEPS:
            return f"{len(rows)} rows, expected {CLI_SWEEP_STEPS}"
        for i, row in enumerate(rows):
            kt = KT_MAX * i / (CLI_SWEEP_STEPS - 1)
            sq = (1.0 + 2.0 * n_x * n_y / (1.0 + n_x + n_y)
                  - math.sinh(4.0 * kt))
            if not (_close(float(row["kt"]), kt)
                    and _close(float(row["sq"]), sq) and row["valid"] == "1"):
                return f"row {i} is {row}, expected kt={kt!r} sq={sq!r}"
        if svg is not None and "<polyline" not in svg.read_text():
            return "SVG has no curve"
        return None

    return check


def _same_rows(path: Path, original: Path) -> Callable:
    def check() -> str | None:
        if _data_lines(path) != _data_lines(original):
            return f"{path.name} rows differ from {original.name}"
        return None

    return check


def _claims_check(path: Path) -> Callable:
    def check() -> str | None:
        verdicts = tuple(row["verdict"]
                         for row in csv.DictReader(_data_lines(path)))
        if verdicts != CLAIM_VERDICTS:
            return f"verdicts {verdicts}, expected {CLAIM_VERDICTS}"
        return None

    return check


def _ensemble_check(path: Path, delta_h: float, mean_intensity: float):
    """Ordinary s1..s3 vanish at chi_h = pi/2; h2 + i h3 = sin chi_h e^{i delta_h}.

    Both are scaled by the mean intensity <A0^2>; each estimate must lie
    within ENSEMBLE_SIGMAS of its standard error.
    """
    pair = mean_intensity * math.sin(CHI_H)
    expected = {"s0": mean_intensity, "s1": -mean_intensity * math.cos(CHI_H),
                "s2": 0.0, "s3": 0.0, "h0": mean_intensity,
                "h1": -mean_intensity * math.cos(CHI_H),
                "h2": pair * math.cos(delta_h),
                "h3": pair * math.sin(delta_h)}

    def check() -> str | None:
        rows = {row["component"]: row
                for row in csv.DictReader(_data_lines(path))}
        if set(rows) != set(expected):
            return f"components {sorted(rows)}"
        for name, want in expected.items():
            got = float(rows[name]["estimate"])
            error = float(rows[name]["std_error"])
            if not abs(got - want) <= ENSEMBLE_SIGMAS * error + 1e-9:
                return f"{name}={got!r} +- {error!r}, expected {want!r}"
        return None

    return check


def _verify_check(path: Path) -> Callable:
    def check() -> str | None:
        lines = path.read_text().splitlines()
        if not lines or lines[-1] != "VERIFY PASS":
            return "verify did not print VERIFY PASS"
        return None

    return check


def _cli_ops(rng: random.Random, size: str, workdir: Path) -> list[Op]:
    count = ENSEMBLE_COUNT[size]
    seeds = [rng.randrange(2**31) for _ in range(3)]
    deltas = [rng.uniform(-3.0, 3.0) for _ in range(2)]
    weighted = _thermal_weight(10.0, 10)
    out = {name: workdir / name for name in (
        "onset.txt", "onset-1-2.txt", "weighted.csv", "weighted.svg",
        "fock.csv", "thermal.csv", "roundtrip.csv", "claims.csv",
        "claims-40.csv", "fixed.csv", "rayleigh.csv", "verify.txt")}
    plan = [
        ("onset", ["onset"], "onset.txt",
         _onset_check(out["onset.txt"], 0.035, 0.035)),
        ("onset 1,2", ["onset", "--nx", "1", "--ny", "2"], "onset-1-2.txt",
         _onset_check(out["onset-1-2.txt"], 1.0, 2.0)),
        ("sweep weighted", ["sweep", "--model", "weighted", "--steps",
                            str(CLI_SWEEP_STEPS), "--svg",
                            str(out["weighted.svg"])], "weighted.csv",
         _sweep_check(out["weighted.csv"], (weighted, weighted),
                      out["weighted.svg"])),
        ("sweep fock", ["sweep", "--model", "fock", "--steps",
                        str(CLI_SWEEP_STEPS)], "fock.csv",
         _sweep_check(out["fock.csv"], (0.0, 0.0))),
        ("sweep thermal", ["sweep", "--model", "thermal", "--steps",
                           str(CLI_SWEEP_STEPS)], "thermal.csv",
         _sweep_check(out["thermal.csv"], (0.5, 0.5))),
        ("sweep --config", ["sweep", "--config", str(out["weighted.csv"])],
         "roundtrip.csv",
         _same_rows(out["roundtrip.csv"], out["weighted.csv"])),
        ("claims", ["claims"], "claims.csv", _claims_check(out["claims.csv"])),
        ("claims d=40", ["claims", "--cutoff", "40"], "claims-40.csv",
         _claims_check(out["claims-40.csv"])),
        ("ensemble fixed", ["ensemble", "--count", str(count), "--seed",
                            str(seeds[0]), "--chi-h", repr(CHI_H),
                            "--delta-h", repr(deltas[0]), "--amplitude",
                            "fixed", "--a0", "1.0"], "fixed.csv",
         _ensemble_check(out["fixed.csv"], deltas[0], 1.0)),
        ("ensemble rayleigh", ["ensemble", "--count", str(count), "--seed",
                               str(seeds[1]), "--chi-h", repr(CHI_H),
                               "--delta-h", repr(deltas[1]), "--amplitude",
                               "rayleigh", "--scale", "1.0"], "rayleigh.csv",
         _ensemble_check(out["rayleigh.csv"], deltas[1], 2.0)),
        ("verify", ["verify", "--cutoff", "16", "--seed", str(seeds[2])],
         "verify.txt", _verify_check(out["verify.txt"])),
    ]
    return [Op(name, lambda argv=[*argv, "--out", str(out[target])]:
               cli.main(argv),
               lambda code, check=check: _expect_exit(code, check))
            for name, argv, target, check in plan]
