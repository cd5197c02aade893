"""Acceptance checks: one test per shipped claim, at the stated tolerances.

Each test prints an `ACCEPTANCE <name>: PASS/FAIL` line with the measured
numbers, collects every sub-check failure, and asserts at the end, so a
single run reports the status of all claims. Tolerances are part of the
claims and are not to be loosened here; a failing test means the claim
as stated does not hold, and the failure text says by how much.
"""

import cmath
import math
import time
from itertools import product

import numpy as np

from hopslab.classical import HopsEnsembleSpec, hops_statistics
from hopslab.dpa import DpaConfig, heisenberg_moments, oracle_moments
from hopslab.fock import FockCutoff, fock_state, random_low_excitation_state
from hopslab.polarization import (
    factorization_residuals,
    fit_hops_criterion,
    uncertainty_products,
    verify_hidden_commutators,
    verify_stokes_commutators,
)
from hopslab.squeezing import claimed_moment_table, onset_time, thermal_weight
from dense_reference import claim_row, verdict_counts

MOMENT_NAMES = ("mean_h0", "mean_h1", "mean_h2", "mean_h3",
                "var_h0", "var_h1", "var_h2", "var_h3")


def _finish(name, failures, details):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {name}: {status}")
    for line in details:
        print(f"  {line}")
    for line in failures:
        print(f"  failure: {line}")
    assert not failures, f"{name}: {len(failures)} sub-check(s) failed"


def test_onset_window():
    # onset(w_x, w_y) must land inside a half-millikt window around the
    # published values and round to 0.22, in under a millisecond per call
    failures, details = [], []
    cases = (((0.035, 0.035), 0.2209), ((0.25, 0.018), 0.2221))
    for (w_x, w_y), target in cases:
        onset_time(w_x, w_y)  # warm up
        start = time.perf_counter()
        value = onset_time(w_x, w_y)
        elapsed = time.perf_counter() - start
        details.append(f"onset({w_x}, {w_y}) = {value!r} "
                       f"({elapsed * 1e6:.1f} us)")
        if not (target - 0.0005 <= value <= target + 0.0005):
            failures.append(
                f"onset({w_x}, {w_y}) = {value!r} outside "
                f"[{target - 0.0005}, {target + 0.0005}] "
                f"(misses by {abs(value - target) - 0.0005:.3g})")
        if f"{value:.2f}" != "0.22":
            failures.append(f"onset({w_x}, {w_y}) rounds to {value:.2f}")
        if elapsed >= 1e-3:
            failures.append(f"onset({w_x}, {w_y}) took {elapsed:.4f} s")
    _finish("onset-window", failures, details)


def test_onset_intensity_insensitivity():
    # across a 20x20 occupation grid on [0, 0.5]^2 the onset spread
    # (max - min) must stay below 0.03, computed in under a second
    failures, details = [], []
    grid = np.linspace(0.0, 0.5, 20)
    start = time.perf_counter()
    values = [onset_time(w_x, w_y) for w_x in grid for w_y in grid]
    elapsed = time.perf_counter() - start
    spread = max(values) - min(values)
    details.append(f"grid 20x20 on [0, 0.5]^2: min {min(values)!r}, "
                   f"max {max(values)!r}, spread {spread!r} "
                   f"({elapsed * 1e3:.2f} ms)")
    if spread >= 0.03:
        failures.append(f"onset spread {spread!r} >= 0.03 "
                        f"(exceeds by {spread - 0.03:.4f})")
    if elapsed >= 1.0:
        failures.append(f"grid took {elapsed:.2f} s")
    _finish("onset-insensitivity", failures, details)


def test_oracle_matches_closed_forms_on_grid():
    # numerically evolved moments vs the closed Heisenberg forms for
    # every n_x, n_y in {0..3} and kt in {0.05, 0.1, 0.22, 0.3, 0.5} at
    # 48x48, each cell within max(1e-8, 10 * boundary leakage)
    failures, details = [], []
    cut = FockCutoff(48, 48)
    kts = (0.05, 0.1, 0.22, 0.3, 0.5)
    cells = passed = 0
    worst_ratio, worst_label = 0.0, ""
    start = time.perf_counter()
    for n_x, n_y in product(range(4), repeat=2):
        state = fock_state(cut, n_x, n_y)
        for kt in kts:
            cells += 1
            numeric = oracle_moments(state, DpaConfig(kt=kt))
            closed = heisenberg_moments(n_x, n_y, kt)
            tol = max(1e-8, 10.0 * numeric.leakage)
            cell_ok = True
            for moment, got, want in zip(
                    MOMENT_NAMES,
                    numeric.means + numeric.variances,
                    closed.means + closed.variances):
                dev = abs(got - want)
                if dev / tol > worst_ratio:
                    worst_ratio = dev / tol
                    worst_label = f"n=({n_x},{n_y}) kt={kt} {moment}"
                if dev > tol:
                    cell_ok = False
                    failures.append(
                        f"n=({n_x},{n_y}) kt={kt} {moment}: "
                        f"|{got!r} - {want!r}| = {dev:.3e} > tol {tol:.3e}")
            passed += cell_ok
    elapsed = time.perf_counter() - start
    details.append(f"{passed}/{cells} cells within tolerance "
                   f"({elapsed:.1f} s)")
    details.append(f"worst deviation/tolerance ratio {worst_ratio:.2f} "
                   f"at {worst_label}")
    if elapsed >= 300.0:
        failures.append(f"grid took {elapsed:.1f} s (budget 300 s)")
    _finish("oracle-grid", failures, details)


def test_operator_algebra_residuals():
    # commutation relations, the quadratic identity, and the Stokes
    # su(2) closure: interior residuals below 1e-10 at 16x16, under 30 s
    failures, details = [], []
    cut = FockCutoff(16, 16)
    start = time.perf_counter()
    hidden_rows = verify_hidden_commutators(cut)
    stokes_rows = verify_stokes_commutators(cut)
    elapsed = time.perf_counter() - start
    for row in hidden_rows + stokes_rows:
        if row.adjudicated_residual >= 1e-10:
            failures.append(f"{row.name}: interior residual "
                            f"{row.adjudicated_residual:.3e} >= 1e-10")
        if not row.printed_pass:
            details.append(
                f"published form of {row.name} fails as printed "
                f"(residual {row.printed_residual:.3g}); corrected "
                f"form residual {row.adjudicated_residual:.3g}")
    worst = max(r.adjudicated_residual for r in hidden_rows + stokes_rows)
    details.append(f"{len(hidden_rows) + len(stokes_rows)} relations, "
                   f"max interior residual {worst:.3e} ({elapsed:.2f} s)")
    if elapsed >= 30.0:
        failures.append(f"algebra checks took {elapsed:.1f} s")
    _finish("operator-algebra", failures, details)


def test_uncertainty_inequalities():
    # the three uncertainty products hold on 100 seeded random
    # low-excitation states and on evolved vacua at kt 0.1, 0.22, 0.3
    failures, details = [], []
    small = FockCutoff(9, 9)
    rng = np.random.default_rng(7)
    checked = 0
    for index in range(100):
        state = random_low_excitation_state(small, max_level=4, rng=rng)
        for item in uncertainty_products(state):
            checked += 1
            if not item.satisfied():
                failures.append(f"random state {index}: {item.name} "
                                f"lhs {item.lhs!r} rhs {item.rhs!r}")
    big = FockCutoff(40, 40)
    vacuum = fock_state(big, 0, 0)
    for kt in (0.1, 0.22, 0.3):
        from hopslab.dpa import evolve
        evolved = evolve(vacuum, DpaConfig(kt=kt))
        for item in uncertainty_products(evolved):
            checked += 1
            if not item.satisfied():
                failures.append(f"evolved vacuum kt={kt}: {item.name} "
                                f"lhs {item.lhs!r} rhs {item.rhs!r}")
    details.append(f"{checked} products checked "
                   f"(100 random states, 3 evolved vacua)")
    _finish("uncertainty-products", failures, details)


def test_criterion_fit_and_factorization():
    # evolved vacuum must satisfy the hidden-polarization criterion:
    # fit residual < 1e-8, |p_h| within 1e-8 of tanh(2 kt), and the
    # derived coherence factorization within 1e-6 through order 2.
    # kt = 0.4 leaves a tanh(0.8)^(d-1) geometric tail, so 56 levels
    # are needed to push the truncation misfit below the 1e-8 gate.
    failures, details = [], []
    cut = FockCutoff(56, 56)
    vacuum = fock_state(cut, 0, 0)
    from hopslab.dpa import evolve
    for kt in (0.1, 0.22, 0.4):
        evolved = evolve(vacuum, DpaConfig(kt=kt))
        fit = fit_hops_criterion(evolved)
        index_error = abs(abs(fit.p_h) - math.tanh(2.0 * kt))
        details.append(f"kt={kt}: residual {fit.residual:.3e}, "
                       f"|p_h| off by {index_error:.3e}")
        if fit.residual >= 1e-8:
            failures.append(f"kt={kt}: fit residual {fit.residual:.3e}")
        if index_error >= 1e-8:
            failures.append(f"kt={kt}: |p_h| = {abs(fit.p_h)!r} vs "
                            f"tanh(2kt) = {math.tanh(2.0 * kt)!r}")
        for check in factorization_residuals(evolved):
            if check.reduced_residual >= 1e-6:
                failures.append(
                    f"kt={kt} orders {check.orders}: reduced residual "
                    f"{check.reduced_residual:.3e} >= 1e-6")
    _finish("criterion-fit", failures, details)


def test_classical_ensemble_moments():
    # a million-sample hidden-polarized ensemble: ordinary Stokes
    # averages vanish to 5e-3 * s0 while the hidden pair moment equals
    # A0^2 sin(chi_h) e^(i delta_h) to 5e-3 * A0^2, in under 10 s
    failures, details = [], []
    chi_h, delta_h = math.pi / 2.0, 0.7
    start = time.perf_counter()
    stats = hops_statistics(HopsEnsembleSpec(chi_h=chi_h, delta_h=delta_h),
                            count=1_000_000, seed=0)
    elapsed = time.perf_counter() - start
    s0 = stats.values["s0"]
    for key in ("s1", "s2", "s3"):
        value = stats.values[key]
        details.append(f"{key} = {value:.3e} (se {stats.std_errors[key]:.1e})")
        if abs(value) >= 5e-3 * s0:
            failures.append(f"|{key}| = {abs(value):.3e} >= {5e-3 * s0:.1e}")
    pair = complex(stats.values["h2"], stats.values["h3"])
    target = cmath.exp(1j * delta_h) * math.sin(chi_h)
    details.append(f"h2 + i h3 = {pair:.6f}, target {target:.6f}, "
                   f"|difference| {abs(pair - target):.3e} ({elapsed:.1f} s)")
    if abs(pair - target) >= 5e-3:
        failures.append(f"hidden pair moment off by {abs(pair - target):.3e}")
    if elapsed >= 10.0:
        failures.append(f"ensemble took {elapsed:.1f} s")
    _finish("classical-ensemble", failures, details)


def test_thermal_weight_values():
    failures, details = [], []
    cases = ((10.0, 10, 0.035), (1.0, 1, 0.25), (20.0, 20, 0.018))
    for nbar, level, target in cases:
        value = thermal_weight(nbar, level)
        details.append(f"w({nbar:g}, {level}) = {value!r}")
        if abs(value - target) > 0.0005:
            failures.append(f"w({nbar:g}, {level}) = {value!r} not within "
                            f"0.0005 of {target}")
    _finish("thermal-weights", failures, details)


def test_claim_verdicts():
    # the three mean claims for H0, H1, H2 must verify as matches; the
    # H3 mean may verify only up to sign; verdicts must be deterministic
    failures, details = [], []
    table = claimed_moment_table(1, 2, 0.22)
    again = claimed_moment_table(1, 2, 0.22)
    if table != again:
        failures.append("claim table is not reproducible run to run")
    for row in table.rows:
        details.append(f"{row.name}: {row.verdict} "
                       f"(deviation {row.deviation:.3e})")
    for name in ("mean_h0", "mean_h1", "mean_h2"):
        verdict = claim_row(table, name).verdict
        if verdict != "matches":
            failures.append(f"{name} verdict {verdict!r}, expected 'matches'")
    if claim_row(table, "mean_h3").verdict not in ("matches", "sign_flip"):
        failures.append(
            f"mean_h3 verdict {claim_row(table, 'mean_h3').verdict!r}")
    details.append(f"verdict counts: {verdict_counts(table)}")
    _finish("claim-verdicts", failures, details)
