"""Command-line front end: sweeps, onset solves, verification, ensembles.

Exit codes: 0 success (all hard invariants pass), 1 verification
invariant failure, 2 usage error, 3 truncation trouble with partial
results written. Claimed-form discrepancies are reported in output
tables, never turned into failures; only constructed-algebra invariants
gate the exit code.

Commands only compute and emit; `main` alone turns bad input into a
usage error. A value the library rejects (`ValueError`), an overflow
(`OverflowError`), a size that cannot fit (`MemoryError`) or an output
path that cannot be written (`OSError`) ends the run with exit 2 and
one `error:` line, never a traceback. A failed numerical invariant
(truncation, an undefined fit, a variance below the clamping floor) is
not bad input and is not caught.

Configuration precedence: command-line flags override `--config` file
entries (key=value lines, `#` comments ignored), which override
built-in defaults; a sweep's model parameters default to the model's
own field defaults. Every CSV output echoes the effective configuration
as sorted `# key=value` lines, and that block minus the `command` line
is itself a valid config file.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .classical import (
    FixedAmplitude,
    HopsEnsembleSpec,
    RayleighAmplitude,
    hops_statistics,
)
from .dpa import (
    DEFAULT_LEAKAGE_TOL,
    DpaConfig,
    evolve,
    heisenberg_moments,
    oracle_moments,
)
from .fock import FockCutoff, fock_state, random_low_excitation_state
from .polarization import (
    FACTORIZATION_TOL,
    factorization_residuals,
    fit_hops_criterion,
    uncertainty_products,
    verify_hidden_commutators,
    verify_stokes_commutators,
)
from .reporting import (
    FIELD_KEYS,
    claims_csv,
    comment_block,
    curve_csv,
    curve_svg,
    ensemble_csv,
    fmt,
)
from .squeezing import (
    STATE_MODELS,
    claimed_moment_table,
    onset_by_bisection,
    onset_time,
    sweep,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_TRUNCATION = 3

# config-file keys for store_true flags: value decides presence
_BOOLEAN_KEYS = {"oracle"}
_SKIP_CONFIG_KEYS = {"command"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopslab",
        description="Hidden optical-polarization laboratory: squeezing "
                    "sweeps, onset times, algebra verification, classical "
                    "ensembles, claimed-form adjudication.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="-",
                        help="output path, '-' for stdout")
    common.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser(
        "sweep", parents=[common],
        help="squeezing function over a kt grid (CSV, optional SVG)")
    p_sweep.set_defaults(run=cmd_sweep)
    p_sweep.add_argument("--model", choices=tuple(STATE_MODELS),
                         default="weighted")
    p_sweep.add_argument("--nx", type=int, default=None,
                         help="photon number, x mode (fock/weighted)")
    p_sweep.add_argument("--ny", type=int, default=None,
                         help="photon number, y mode (fock/weighted)")
    p_sweep.add_argument("--nbar-x", dest="nbar_x", type=float, default=None,
                         help="mean occupation, x mode (thermal/weighted)")
    p_sweep.add_argument("--nbar-y", dest="nbar_y", type=float, default=None,
                         help="mean occupation, y mode (thermal/weighted)")
    p_sweep.add_argument("--kt-max", dest="kt_max", type=float, default=0.5)
    p_sweep.add_argument("--steps", type=int, default=100)
    p_sweep.add_argument("--oracle", action="store_true",
                         help="brute-force moment rows instead of closed forms")
    p_sweep.add_argument("--cutoff", type=int, default=None,
                         help="per-mode truncation override")
    p_sweep.add_argument("--leakage-tol", dest="leakage_tol", type=float,
                         default=DEFAULT_LEAKAGE_TOL)
    p_sweep.add_argument("--svg", default=None, help="also write an SVG plot")

    p_onset = sub.add_parser(
        "onset", parents=[common],
        help="closed-form squeezing onset with bisection cross-check")
    p_onset.set_defaults(run=cmd_onset)
    p_onset.add_argument("--nx", type=float, default=0.035,
                         help="effective occupation, x mode")
    p_onset.add_argument("--ny", type=float, default=0.035,
                         help="effective occupation, y mode")

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="run the invariant suites; exit 0 iff all hard checks pass")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--cutoff", type=int, default=16,
                          help="per-mode dimension for the algebra tables")
    p_verify.add_argument("--seed", type=int, default=7,
                          help="seed for the random-state uncertainty suite")

    p_ens = sub.add_parser(
        "ensemble", parents=[common],
        help="classical Monte-Carlo Stokes and hidden statistics")
    p_ens.set_defaults(run=cmd_ensemble)
    p_ens.add_argument("--chi-h", dest="chi_h", type=float,
                       default=0.5 * math.pi)
    p_ens.add_argument("--delta-h", dest="delta_h", type=float, default=0.0)
    p_ens.add_argument("--amplitude", choices=("fixed", "rayleigh"),
                       default="fixed")
    p_ens.add_argument("--a0", type=float, default=1.0,
                       help="overall amplitude (fixed law)")
    p_ens.add_argument("--scale", type=float, default=1.0,
                       help="Rayleigh scale (rayleigh law)")
    p_ens.add_argument("--count", type=int, default=1_000_000)
    p_ens.add_argument("--seed", type=int, default=0)

    p_claims = sub.add_parser(
        "claims", parents=[common],
        help="adjudicate the claimed closed-form moments")
    p_claims.set_defaults(run=cmd_claims)
    p_claims.add_argument("--nx", type=float, default=1.0)
    p_claims.add_argument("--ny", type=float, default=2.0)
    p_claims.add_argument("--kt", type=float, default=0.22)
    p_claims.add_argument("--cutoff", type=int, default=None,
                          help="adjudicate against the oracle at this cutoff "
                               "instead of the closed forms")
    return parser


def _prescan_config(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _load_config_args(path: str) -> list[str]:
    pairs: list[str] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if line.startswith("#"):
            line = line.lstrip("#").strip()
        if not line or "=" not in line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in _SKIP_CONFIG_KEYS:
            continue
        if key in _BOOLEAN_KEYS:
            if value.lower() in ("1", "true", "yes"):
                pairs.append("--" + key.replace("_", "-"))
            continue
        pairs.extend(["--" + key.replace("_", "-"), value])
    return pairs


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _build_model(args):
    model = STATE_MODELS[args.model]
    given = {field.name: getattr(args, FIELD_KEYS.get(field.name, field.name))
             for field in fields(model)}
    return model(**{name: value for name, value in given.items()
                    if value is not None})


def _oracle_cutoff(size: int | None) -> FockCutoff | None:
    return None if size is None else FockCutoff(size, size)


def cmd_sweep(args) -> int:
    curve = sweep(_build_model(args), kt_max=args.kt_max, steps=args.steps,
                  with_oracle=args.oracle, cutoff=_oracle_cutoff(args.cutoff),
                  leakage_tol=args.leakage_tol)
    _emit(curve_csv(curve), args.out)
    if args.svg is not None:
        Path(args.svg).write_text(curve_svg(curve))
    if any(not row.valid for row in curve.moment_rows):
        return EXIT_TRUNCATION
    return EXIT_OK


def cmd_onset(args) -> int:
    closed = onset_time(args.nx, args.ny)
    root = onset_by_bisection(args.nx, args.ny)
    line = (f"onset_kt={fmt(closed)} bisection={fmt(root)} "
            f"difference={fmt(abs(closed - root))} "
            f"rounds_to={closed:.2f}\n")
    _emit(line, args.out)
    return EXIT_OK


def cmd_ensemble(args) -> int:
    amplitude = (FixedAmplitude(args.a0) if args.amplitude == "fixed"
                 else RayleighAmplitude(args.scale))
    spec = HopsEnsembleSpec(chi_h=args.chi_h, delta_h=args.delta_h,
                            amplitude=amplitude)
    stats = hops_statistics(spec, args.count, seed=args.seed)
    config = {"command": "ensemble", "chi_h": args.chi_h,
              "delta_h": args.delta_h, "amplitude": args.amplitude,
              "count": args.count, "seed": args.seed}
    config["a0" if args.amplitude == "fixed" else "scale"] = (
        args.a0 if args.amplitude == "fixed" else args.scale)
    _emit(ensemble_csv(stats, config), args.out)
    return EXIT_OK


def cmd_claims(args) -> int:
    table = claimed_moment_table(args.nx, args.ny, args.kt,
                                 cutoff=_oracle_cutoff(args.cutoff))
    config = {"command": "claims", "nx": args.nx, "ny": args.ny,
              "kt": args.kt}
    if args.cutoff is not None:
        config["cutoff"] = args.cutoff
    text = claims_csv(table, config)
    status = EXIT_OK
    report = table.reference
    if report is not None and not report.valid:
        text += (f"# warning: leakage {fmt(report.leakage)} exceeded "
                 "the truncation budget; verdicts unreliable\n")
        status = EXIT_TRUNCATION
    _emit(text, args.out)
    return status


def _verify_suites(cutoff_dim: int, seed: int):
    """Run every invariant suite; yield (name, hard_pass, detail, notes)."""
    cut = FockCutoff(cutoff_dim, cutoff_dim)

    for name, table in (("hidden-commutators", verify_hidden_commutators),
                        ("stokes-commutators", verify_stokes_commutators)):
        rows = table(cut)
        worst = max(r.adjudicated_residual for r in rows)
        notes = [f"printed form fails, corrected closes: {r.name} "
                 f"(printed residual {fmt(r.printed_residual)}, "
                 f"corrected {r.adjudicated})"
                 for r in rows if not r.printed_pass]
        yield (name, all(r.adjudicated_pass for r in rows),
               f"max interior residual {fmt(worst)} at {cut}", notes)

    probe = FockCutoff(9, 9)
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(100):
        state = random_low_excitation_state(probe, 4, rng)
        violations += sum(not p.satisfied() for p in uncertainty_products(state))
    big = FockCutoff(40, 40)
    # the kt = 0.22 vacuum is also the coherence-factorization input
    vacua = {kt: evolve(fock_state(big, 0, 0), DpaConfig(kt=kt))
             for kt in (0.1, 0.22, 0.3)}
    for evolved in vacua.values():
        violations += sum(not p.satisfied()
                          for p in uncertainty_products(evolved))
    yield ("uncertainty-products", violations == 0,
           f"{violations} violations over 100 random states "
           "and 3 evolved vacua", [])

    worst_dev = 0.0
    for kt in (0.1, 0.3):
        config = DpaConfig(kt=kt)
        for n_x in range(3):
            for n_y in range(3):
                numeric = oracle_moments(fock_state(big, n_x, n_y), config)
                closed = heisenberg_moments(n_x, n_y, kt)
                tol = max(1e-8, 10.0 * numeric.leakage)
                for got, want in zip(numeric.means + numeric.variances,
                                     closed.means + closed.variances):
                    worst_dev = max(worst_dev, abs(got - want) / tol)
    yield ("oracle-closed-equivalence", worst_dev < 1.0,
           f"worst deviation/tolerance {fmt(worst_dev)} "
           "over 18 grid cells", [])

    # kt=0.4 leaves a tanh(0.8)^(d-1) geometric tail; 56 levels push the
    # truncation misfit below the 1e-8 gate
    deep = FockCutoff(56, 56)
    worst_residual = 0.0
    worst_index = 0.0
    for kt in (0.1, 0.22, 0.4):
        evolved = evolve(fock_state(deep, 0, 0), DpaConfig(kt=kt))
        fit = fit_hops_criterion(evolved)
        worst_residual = max(worst_residual, fit.residual)
        worst_index = max(worst_index,
                          abs(abs(fit.p_h) - math.tanh(2.0 * kt)))
    yield ("criterion-fit", worst_residual < 1e-8 and worst_index < 1e-8,
           f"max residual {fmt(worst_residual)}, "
           f"max index error {fmt(worst_index)}", [])

    checks = factorization_residuals(vacua[0.22])
    worst_reduced = max(c.reduced_residual for c in checks)
    worst_printed = max(c.printed_residual for c in checks)
    yield ("coherence-factorization", worst_reduced < FACTORIZATION_TOL,
           f"max reduced-form residual {fmt(worst_reduced)}",
           [f"published combined-order map deviates by up to "
            f"{fmt(worst_printed)} (reported, not gated)"])


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    lines = [line.lstrip("# ") for line in comment_block(
        {"command": "verify", "cutoff": args.cutoff, "seed": args.seed})]
    all_pass = True
    for name, passed, detail, notes in _verify_suites(args.cutoff, args.seed):
        all_pass &= passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        for note in notes:
            lines.append(f"  note {name}: {note}")
    lines.append("VERIFY " + ("PASS" if all_pass else "FAIL"))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_pass else EXIT_INVARIANT


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    config_path = _prescan_config(argv)
    if config_path is not None:
        try:
            extra = _load_config_args(config_path)
        except OSError as exc:
            print(f"hopslab: cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        argv = argv[:1] + extra + argv[1:]
    # built per call, so each run reaches the current cmd_* functions
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"cannot write output: {exc}")
    except OverflowError:
        parser.error("inputs overflow the floating-point range")
    except MemoryError:
        what = ("this run" if getattr(args, "cutoff", None) is None
                else f"--cutoff {args.cutoff}")
        parser.error(f"{what} needs more memory than is available")


if __name__ == "__main__":
    sys.exit(main())
