"""Write the reference oracle rows the benchmark checks outputs against.

    PYTHONPATH=src python3 bench/make_reference.py

Run it only when the physics the oracle computes is meant to change;
the committed files were written from the program as it stood when the
benchmark was defined. Values keep 12 significant digits, well inside
the round-off-scale tolerance `workloads.ROW_TOL`.
"""

from __future__ import annotations

import csv

import workloads


def main() -> None:
    for workload, cases in (("thermal-oracle", workloads.thermal_cases()),
                            ("fock-oracle", workloads.fock_cases())):
        path = workloads.reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["case", "kt", *workloads.ROW_FIELDS])
            for case in cases:
                for row in case.run().moment_rows:
                    values = (row.kt, *row.means, *row.variances,
                              row.leakage)
                    writer.writerow([case.key,
                                     *(f"{v:.12g}" for v in values)])
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
