#!/usr/bin/env python3
"""Reproduce the squeezing-onset curves for three initial-state models.

Sweeps Sq(kt) for the two-mode vacuum and for two weighted-projector
states (equal and unequal effective intensities), writes one CSV and
one SVG per curve, and prints the onset times and, last, the values
they round to. Every onset lands near kt = 0.22 even though the
effective occupations differ by an order of magnitude; that
insensitivity is the point of the figure.
"""

import argparse
from pathlib import Path

from hopslab.reporting import curve_csv, curve_svg, fmt
from hopslab.squeezing import (
    FockModel,
    WeightedProjectorModel,
    onset_by_bisection,
    onset_time,
    sweep,
)

CASES = (
    ("vacuum", FockModel(0, 0)),
    ("equal_weights", WeightedProjectorModel(10.0, 10, 10.0, 10)),
    ("unequal_weights", WeightedProjectorModel(1.0, 1, 20.0, 20)),
)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--kt-max", type=float, default=0.5)
    args = parser.parse_args(argv)

    args.outdir.mkdir(parents=True, exist_ok=True)
    print(f"{'case':<16} {'w_x':>12} {'w_y':>12} "
          f"{'onset (closed)':>18} {'onset (bisect)':>18}")
    rounded = set()
    for name, model in CASES:
        curve = sweep(model, kt_max=args.kt_max, steps=args.steps)
        csv_path = args.outdir / f"{name}.csv"
        csv_path.write_text(curve_csv(curve))
        svg_path = args.outdir / f"{name}.svg"
        svg_path.write_text(curve_svg(curve))
        w_x, w_y = model.effective_occupations()
        closed = onset_time(w_x, w_y)
        root = onset_by_bisection(w_x, w_y)
        print(f"{name:<16} {w_x:>12.6f} {w_y:>12.6f} "
              f"{fmt(closed):>18.18s} {fmt(root):>18.18s}")
        print(f"  wrote {csv_path} and {svg_path}")
        rounded.update(f"{onset:.2f}" for onset in (closed, root))
    if len(rounded) == 1:
        print(f"all onsets round to {rounded.pop()}")
    else:
        print(f"onsets round to {', '.join(sorted(rounded))}")


if __name__ == "__main__":
    main()
