"""Run one workload of the hopslab benchmark and print its metrics.

    python3 bench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0

Each pass of the workload runs in a fresh interpreter (bench/child.py)
with hopslab imported from this checkout's `src/` and BLAS pinned to
BLAS_THREADS. The loop is closed: one client makes the workload's calls
in order and waits for each. Passes repeat until `--seconds` have
passed, and at least MIN_PASSES times; every metric is a median over
passes. `--trace 0` reports the end-to-end metrics; `--trace 1`
cycles through untraced, traced and allocation-traced passes and
reports the per-layer ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Metadata and every pass's raw
record go to .bench_out/<workload>.trace<0|1>.json; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("thermal-oracle", "fock-oracle", "cli-session")

# one BLAS thread measured faster and steadier than two on a shared
# two-core machine, and keeps the client strictly single-threaded
BLAS_THREADS = 1
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "success_rate": "fraction"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.peak_alloc_mb": "MB",
                      f"{layer}.errors": "count",
                      f"{layer}.import_s": "s"})
    units.update({"dpa.rows": "count", "dpa.rows_invalid": "count",
                  "dpa.rows_beyond_certificate": "count",
                  "trace_overhead_frac": "fraction",
                  "span_coverage_frac": "fraction",
                  "error_rate": "fraction"})
    return units


class ChildFailed(RuntimeError):
    """A pass process exited abnormally or wrote no result."""


class Runner:
    """Spawns the pass processes of one benchmark run."""

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            self.env[name] = str(BLAS_THREADS)
        self.result_path = OUT / f"{args.workload}.pass.json"
        self.spans_path = OUT / f"{args.workload}.spans.jsonl"

    def _run(self, command: list[str]) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            raise ChildFailed("out of time")
        try:
            return subprocess.run(command, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"timed out after {exc.timeout:.0f} s") from exc

    def spawn(self, mode: str) -> dict:
        """One pass; adds `setup_s`, the spawn-to-import-done interval."""
        self.result_path.unlink(missing_ok=True)
        command = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--size", self.args.size,
                   "--result", str(self.result_path),
                   "--spans", str(self.spans_path)]
        spawned = time.monotonic()
        proc = self._run(command)
        if proc.returncode != 0 or not self.result_path.exists():
            raise ChildFailed(f"{mode} pass exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(self.result_path.read_text())
        result["setup_s"] = result.pop("import_done") - spawned
        return result

    def import_times(self) -> dict[str, float]:
        """Cumulative `-X importtime` seconds of each layer module."""
        proc = self._run([sys.executable, "-X", "importtime", "-c",
                          "import hopslab.cli"])
        if proc.returncode != 0:
            raise ChildFailed(f"importtime exited {proc.returncode}")
        times = dict.fromkeys(LAYERS, 0.0)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            module = fields[-1].strip()
            if len(fields) == 3 and module.startswith("hopslab."):
                layer = module.removeprefix("hopslab.")
                if layer in times:
                    times[layer] = int(fields[1]) / 1e6
        return times

    def passes(self, modes: tuple[str, ...], minimum: int) -> list[dict]:
        """Cycle through `modes` until --seconds pass and each mode ran
        `minimum` times. A pass that fails ends the loop; it is recorded
        with `crashed` set and no operations."""
        done: list[dict] = []
        while (len(done) < minimum * len(modes)
               or time.monotonic() - self.started < self.args.seconds):
            mode = modes[len(done) % len(modes)]
            try:
                record = self.spawn(mode)
            except ChildFailed as exc:
                print(f"FAIL {mode} pass: {exc}", file=sys.stderr)
                done.append({"mode": mode, "crashed": True, "ops": []})
                break
            record["mode"] = mode
            done.append(record)
        return done


def op_wall(passes: list[dict]) -> float:
    """Sum over the workload's calls of each call's median time."""
    times: dict[int, list[float]] = {}
    for record in passes:
        for i, op in enumerate(record["ops"]):
            times.setdefault(i, []).append(op["seconds"])
    return sum(statistics.median(t) for t in times.values())


def pass_wall(record: dict) -> float:
    return sum(op["seconds"] for op in record["ops"])


def accounting(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and why each failed. A crashed
    pass counts the calls of a complete pass (or one, if none
    completed) as failed."""
    per_pass = max((len(p["ops"]) for p in passes), default=0) or 1
    attempted = failed = 0
    reasons = []
    for record in passes:
        if record.get("crashed"):
            attempted += per_pass
            failed += per_pass
            reasons.append(f"{record['mode']} pass crashed")
            continue
        for op in record["ops"]:
            attempted += 1
            if op["failure"] is not None:
                failed += 1
                reasons.append(f"{op['name']}: {op['failure']}")
    return attempted, failed, reasons


def end_to_end(runner: Runner) -> tuple[dict, list[dict]]:
    passes = runner.passes(("run",), MIN_PASSES)
    complete = [p for p in passes if not p.get("crashed")]
    setups = [p["setup_s"] for p in complete]
    while complete and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.spawn("setup")["setup_s"])
    if not complete:
        return {}, passes
    return {"setup_s": statistics.median(setups),
            "wall_s": op_wall(complete),
            "peak_rss_mb": statistics.median(
                p["peak_rss_mb"] for p in complete)}, passes


def per_layer(runner: Runner) -> tuple[dict, list[dict]]:
    modes = ("run", "trace", "alloc")
    passes = runner.passes(modes, 1)
    by_mode = {mode: [p for p in passes
                      if p["mode"] == mode and not p.get("crashed")]
               for mode in modes}
    plain, traced, alloc = by_mode.values()
    if not (plain and traced and alloc):
        return {}, passes
    metrics = {}

    def median(get, records=traced) -> float:
        return statistics.median(get(p) for p in records)

    for layer in LAYERS:
        for name in ("calls", "self_s", "errors"):
            metrics[f"{layer}.{name}"] = median(
                lambda p: p["layers"][layer][name])
        metrics[f"{layer}.peak_alloc_mb"] = median(
            lambda p: p["layers"][layer]["peak_alloc_mb"], alloc)
    imports = [runner.import_times() for _ in range(IMPORTTIME_SAMPLES)]
    for layer in LAYERS:
        metrics[f"{layer}.import_s"] = statistics.median(
            t[layer] for t in imports)
    for name in ("rows", "rows_invalid", "rows_beyond_certificate"):
        metrics[f"dpa.{name}"] = median(lambda p: p["rows"][name])
    metrics["trace_overhead_frac"] = op_wall(traced) / op_wall(plain) - 1.0
    metrics["span_coverage_frac"] = median(
        lambda p: sum(t["self_s"] for t in p["layers"].values())
        / pass_wall(p))
    return metrics, passes


def git_commit() -> str:
    """HEAD of the checkout's git repository, when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head.removeprefix("ref: ")).read_text().strip()
    except OSError:
        return "unknown"
    return head


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs a subset of the calls")
    args = parser.parse_args()

    if not (ROOT / "src" / "hopslab" / "cli.py").is_file():
        print(f"no hopslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    try:
        # compiles bytecode and fills the file cache; not measured
        versions = runner.spawn("setup")["versions"]
    except ChildFailed as exc:
        print(f"cannot start a pass: {exc}", file=sys.stderr)
        return 2
    runner.started = time.monotonic()
    measure = per_layer if args.trace else end_to_end
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    try:
        metrics, passes = measure(runner)
    except ChildFailed as exc:
        print(f"cannot finish the run: {exc}", file=sys.stderr)
        return 2
    attempted, failed, reasons = accounting(passes)
    if args.trace:
        metrics["error_rate"] = failed / attempted
    else:
        metrics["success_rate"] = 1.0 - failed / attempted

    metadata = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "size": args.size, "commit": git_commit(), **versions,
                "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
                "cpu_affinity": len(os.sched_getaffinity(0)),
                "passes": len(passes)}
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(
        {"metadata": metadata, "metrics": metrics, "passes": passes},
        indent=1))
    for reason in reasons:
        print(f"FAIL {reason}")
    print("metadata " + json.dumps(metadata))
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
