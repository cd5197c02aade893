"""Deterministic CSV and SVG rendering for sweep and table results.

CSV is the canonical output: a sorted `# key=value` comment block
echoing the effective configuration, one header row, then data rows
with floats in shortest round-trip form (repr). Identical inputs
produce byte-identical text. SVG is presentation-only; its geometry is
deterministic but carries no precision guarantee.
"""

from __future__ import annotations

from .classical import EnsembleStats
from .dpa import DEFAULT_LEAKAGE_TOL, MOMENT_NAMES
from .squeezing import MomentClaimTable, SqueezingCurve, StateModel

CURVE_COLUMNS = ("kt", "sq", *MOMENT_NAMES, "leakage", "valid", "model")

SVG_WIDTH = 640
SVG_HEIGHT = 400
SVG_MARGIN_LEFT = 64
SVG_MARGIN_RIGHT = 24
SVG_MARGIN_TOP = 28
SVG_MARGIN_BOTTOM = 44


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


def comment_block(config: dict) -> list[str]:
    """Sorted `# key=value` lines echoing the effective configuration."""
    lines = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, float):
            rendered = fmt(value)
        else:
            rendered = str(value)
        lines.append(f"# {key}={rendered}")
    return lines


def sweep_config(
    model: StateModel, kt_max: float, steps: int, oracle: bool = False,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL, cutoff: int | None = None,
) -> dict:
    """`hopslab sweep`'s configuration (keys are its flags) for `model`."""
    config = {"command": "sweep", "model": model.label, "kt_max": kt_max,
              "steps": steps, "oracle": int(oracle),
              "leakage_tol": leakage_tol}
    if model.label != "fock":
        config.update(nbar_x=model.nbar_x, nbar_y=model.nbar_y)
    if model.label != "thermal":
        config.update(nx=model.n_x, ny=model.n_y)
    if cutoff is not None:
        config["cutoff"] = cutoff
    return config


def curve_csv(curve: SqueezingCurve, config: dict) -> str:
    """Squeezing sweep as CSV: one row per kt grid point."""
    lines = comment_block(config)
    lines.append(",".join(CURVE_COLUMNS))
    for kt, sq, row in zip(curve.kt_grid, curve.sq_values, curve.moment_rows):
        cells = [fmt(kt), fmt(sq)]
        cells.extend(fmt(v) for v in row.means + row.variances)
        cells.append(fmt(row.leakage))
        cells.append(str(int(row.valid)))
        cells.append(curve.state_model)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def ensemble_csv(stats: EnsembleStats, config: dict) -> str:
    """Classical ensemble statistics: component, estimate, error, count."""
    lines = comment_block(config)
    lines.append("component,estimate,std_error,count")
    for name in stats.values:
        lines.append(",".join((
            name, fmt(stats.values[name]), fmt(stats.std_errors[name]),
            str(stats.sample_count))))
    return "\n".join(lines) + "\n"


def claims_csv(table: MomentClaimTable, config: dict) -> str:
    """Claimed-form verdict table as CSV (empty cells when unadjudicated)."""
    lines = comment_block(config)
    lines.append("name,claimed,reference,verdict,deviation")
    for row in table.rows:
        lines.append(",".join((
            row.name,
            fmt(row.claimed),
            fmt(row.reference) if row.reference is not None else "",
            row.verdict if row.verdict is not None else "",
            fmt(row.deviation) if row.deviation is not None else "",
        )))
    return "\n".join(lines) + "\n"


def _scale(value, lo, hi, out_lo, out_hi):
    if hi == lo:
        return 0.5 * (out_lo + out_hi)
    return out_lo + (value - lo) * (out_hi - out_lo) / (hi - lo)


def _g(value: float) -> str:
    return f"{value:.6g}"


def curve_svg(curve: SqueezingCurve) -> str:
    """Line plot of Sq vs kt with zero line and onset marker."""
    kt_lo, kt_hi = curve.kt_grid[0], curve.kt_grid[-1]
    sq_lo = min(min(curve.sq_values), 0.0)
    sq_hi = max(max(curve.sq_values), 0.0)
    pad = 0.05 * (sq_hi - sq_lo or 1.0)
    sq_lo -= pad
    sq_hi += pad
    x_lo, x_hi = SVG_MARGIN_LEFT, SVG_WIDTH - SVG_MARGIN_RIGHT
    y_lo, y_hi = SVG_HEIGHT - SVG_MARGIN_BOTTOM, SVG_MARGIN_TOP

    def x_of(kt):
        return _scale(kt, kt_lo, kt_hi, x_lo, x_hi)

    def y_of(sq):
        return _scale(sq, sq_lo, sq_hi, y_lo, y_hi)

    points = " ".join(
        f"{_g(x_of(kt))},{_g(y_of(sq))}"
        for kt, sq in zip(curve.kt_grid, curve.sq_values))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{SVG_WIDTH // 2}" y="18" text-anchor="middle" '
        f'font-size="14">squeezing sweep ({curve.state_model} model)</text>',
        # frame
        f'<rect x="{x_lo}" y="{y_hi}" width="{x_hi - x_lo}" '
        f'height="{y_lo - y_hi}" fill="none" stroke="black"/>',
        # zero line
        f'<line x1="{x_lo}" y1="{_g(y_of(0.0))}" x2="{x_hi}" '
        f'y2="{_g(y_of(0.0))}" stroke="gray" stroke-dasharray="4 3"/>',
        f'<polyline points="{points}" fill="none" stroke="crimson" '
        f'stroke-width="1.5"/>',
    ]
    for kt in (kt_lo, 0.5 * (kt_lo + kt_hi), kt_hi):
        parts.append(
            f'<text x="{_g(x_of(kt))}" y="{y_lo + 18}" text-anchor="middle" '
            f'font-size="11">{_g(kt)}</text>')
    for sq in (sq_lo + pad, 0.0, sq_hi - pad):
        parts.append(
            f'<text x="{x_lo - 6}" y="{_g(y_of(sq) + 4)}" text-anchor="end" '
            f'font-size="11">{_g(sq)}</text>')
    parts.append(
        f'<text x="{SVG_WIDTH // 2}" y="{SVG_HEIGHT - 8}" '
        f'text-anchor="middle" font-size="12">kt</text>')
    parts.append(
        f'<text x="16" y="{(y_lo + y_hi) // 2}" font-size="12" '
        f'transform="rotate(-90 16 {(y_lo + y_hi) // 2})" '
        f'text-anchor="middle">Sq</text>')
    if curve.onset is not None:
        cx, cy = _g(x_of(curve.onset)), _g(y_of(0.0))
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="navy"/>')
        parts.append(
            f'<text x="{cx}" y="{_g(y_of(0.0) - 10)}" font-size="11" '
            f'text-anchor="middle">onset kt={_g(curve.onset)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
