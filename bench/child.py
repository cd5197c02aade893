"""One pass of a workload, in a fresh interpreter started by run.py.

    python3 bench/child.py --mode setup|run|trace|alloc --workload NAME --seed N
                           --size full|smoke --result FILE [--spans FILE]

The first thing it does is `import hopslab.cli`; the monotonic clock
reading after that import ends the set-up interval run.py started
before spawning this process (CLOCK_MONOTONIC is shared by all
processes). `setup` mode stops there. `run` mode makes the workload's
calls one after another, timing each call alone and checking its output
after the clock stops. `trace` mode does the same with the span
recorder installed, and `alloc` mode with tracemalloc on as well; its
cost per allocation would distort the span times, so those come from
`trace` passes and only the allocation peaks from `alloc` passes. The
result is one JSON file.
"""

import time

import hopslab.cli  # noqa: F401  the set-up being measured

IMPORT_DONE = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def versions() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} "
                    f"{blas.get('version', '')}".strip()}


def run_ops(ops) -> list[dict]:
    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            output = op.call()
        except SystemExit as exc:
            output = exc.code
        except Exception as exc:  # an operation that raises has failed
            records.append({"name": op.name,
                            "seconds": time.perf_counter() - start,
                            "failure": f"raised {exc!r}"})
            continue
        seconds = time.perf_counter() - start
        try:
            failure = op.check(output)
        except Exception as exc:  # unreadable output fails the check
            failure = f"check raised {exc!r}"
        records.append({"name": op.name, "seconds": seconds,
                        "failure": failure})
    return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "alloc"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    source = ROOT / "src"
    if source not in Path(hopslab.__file__).resolve().parents:
        print(f"hopslab was imported from {hopslab.__file__}, "
              f"not from {source}", file=sys.stderr)
        return 2
    result = {"import_done": IMPORT_DONE, "versions": versions()}
    if args.mode != "setup":
        import tracing
        import workloads

        workdir = Path(tempfile.mkdtemp(dir=args.result.parent))
        try:
            ops = workloads.build(args.workload, args.seed, args.size,
                                  workdir)
            if args.mode in ("trace", "alloc"):
                recorder = tracing.SpanRecorder()
                audit = tracing.RowAudit()
                recorder.install(
                    {"hopslab.dpa.oracle_moments": audit.observe})
                if args.mode == "alloc":
                    tracemalloc.start()
                result["ops"] = run_ops(ops)
                tracemalloc.stop()
                result["layers"] = recorder.layer_totals()
                result["rows"] = {"rows": audit.rows,
                                  "rows_invalid": audit.invalid,
                                  "rows_beyond_certificate":
                                      audit.beyond_certificate}
                recorder.write(args.spans)
            else:
                result["ops"] = run_ops(ops)
        finally:
            shutil.rmtree(workdir)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
