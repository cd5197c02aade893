"""Degenerate parametric amplification on the truncated Fock space.

The interaction-picture generator H_int = a_x^dag a_y^dag + a_x a_y
creates and destroys quanta pairwise, so it conserves the mode
imbalance n_x - n_y. On each imbalance sector (`fock.sector_table`) it
is a real symmetric tridiagonal matrix with zero diagonal and the
sector's a_y a_x weights off it. `fock` states every constant of a
sector, this eigenbasis included: each slab of a state's populated
sectors (`QuantumState.blocks`) computes its eigenpairs (E, V) and its
weighted columns in the eigenbasis, W = V^T G, once, on first use,
and keeps them as long as it lives (`SectorStack.eigenpairs`,
`SectorStack.eigencolumns`). This module adds only time: the phases,
`_propagate`'s U(kt) = V diag(e^{-i 2kt E}) W, one real product per
slab, the closed forms and the cutoff rule (`_require_margin`).

Both entry points evolve a state's slabs alike, to U G (`_propagate`),
which keeps the spectrum `state.blocks` certified. `oracle_moments`,
the brute-force oracle for the closed-form Heisenberg moments, never
forms the evolved state: the shared `polarization.hidden_sums` gives
its total population (`require_unit_trace`), the edge population that
certifies the truncation and the moments, a fixed number of array
operations per slab, whatever the number of sectors. `evolve` hands
the same U G to `QuantumState.with_columns`, so an evolved state's
`hidden_moments` and `boundary_leakage` are the oracle row's sums. A
kept `matrix` (inter-sector coherences) goes along as U rho U^dag,
formed in place in one copy of it; nothing is decomposed again. Oracle
and closed-form rows are one record, `MomentReport(kt, means,
variances, leakage, valid)`, the eight moments named once in
`MOMENT_NAMES`. No operator matrix is built here.

The truncation is the state's own cutoff, certified after the fact by
`boundary_leakage`: the evolved state must keep its population clear of
the last EVOLUTION_MARGIN levels of either mode, else `evolve` raises
and `oracle_moments` flags its report invalid.

Time enters only through the dimensionless product kt. The Bogoliubov
coefficients are C = cosh 2kt and S = sinh 2kt, fixed by the acceptance
anchors <N_x> = S^2 on vacuum and |p_h| = tanh 2kt, so the propagator
applies exp(-i * (2 kt) * H_int).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    EVOLUTION_MARGIN,
    STACK_SLAB,
    FockCutoff,
    QuantumState,
    SectorStack,
    require_kt,
    require_occupations,
    require_photon_numbers,
    require_unit_trace,
)
from .polarization import hidden_moments, hidden_sums

DEFAULT_LEAKAGE_TOL = 1e-6
MAX_SUGGESTED_DIM = 80  # largest per-mode cutoff `suggest_cutoff` gives


class TruncationError(ArithmeticError):
    """Evolution pushed too much population against the cutoff."""

    def __init__(self, leakage: float, cutoff: FockCutoff) -> None:
        super().__init__(
            f"boundary leakage {leakage:.3e} exceeds tolerance at {cutoff}")
        self.leakage = float(leakage)
        self.cutoff = cutoff


@dataclass(frozen=True)
class DpaConfig:
    """Evolution parameters: dimensionless kt and the leakage budget.

    kt may be negative (reversal); physical amplification uses kt >= 0.
    The truncation is the evolved state's own cutoff.
    """

    kt: float
    leakage_tol: float = DEFAULT_LEAKAGE_TOL

    def __post_init__(self) -> None:
        require_kt(self.kt)
        if not 0.0 < self.leakage_tol < 1.0:
            raise ValueError("leakage_tol must lie in (0, 1)")


MOMENT_NAMES = ("mean_h0", "mean_h1", "mean_h2", "mean_h3",
                "var_h0", "var_h1", "var_h2", "var_h3")


@dataclass(frozen=True)
class MomentReport:
    """All eight moments of the hidden set for one evolution time.

    `means` and `variances` are 4-tuples of floats for H0..H3, so
    `means + variances` lists the moments in `MOMENT_NAMES` order.
    `leakage` is the certified boundary population of the evolved state
    (identically zero for closed-form reports, which involve no
    truncation); `valid` is False when it exceeded the configured
    budget and the numbers should not be trusted. Every mean and
    variance is finite: a report of an overflowing input raises
    ValueError instead.
    """

    kt: float
    means: tuple[float, float, float, float]
    variances: tuple[float, float, float, float]
    leakage: float
    valid: bool = True

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.means + self.variances)):
            raise ValueError("moments are not finite; the inputs overflow "
                             "the floating-point range")
        if min(self.variances) < 0.0:
            raise ValueError(
                f"variances must be non-negative, got {self.variances}")


def _require_margin(cutoff: FockCutoff) -> None:
    """Raise unless `cutoff` has more than EVOLUTION_MARGIN levels per mode.

    Only then does the edge band leave an interior, so that its
    population certifies the truncation.
    """
    if min(cutoff.d_x, cutoff.d_y) <= EVOLUTION_MARGIN:
        raise ValueError(
            f"cutoff must exceed {EVOLUTION_MARGIN} levels per mode "
            "to certify leakage")


def _propagate(
    slab: SectorStack, kt: float, moved: np.ndarray | None = None,
) -> np.ndarray:
    """U x = V diag(exp(-i 2kt E)) W for U = exp(-i 2kt H_int), one real product.

    (E, V) are the slab's eigenpairs and W = V^T x is `moved`
    (`SectorStack.to_eigenbasis`), by default its `eigencolumns`: U G.
    """
    values, vectors = slab.eigenpairs
    moved = slab.eigencolumns if moved is None else moved
    phased = moved * np.exp(-1j * (2.0 * kt) * values)[:, :, None]
    return (vectors @ phased.view(float)).view(complex)


def evolve(state: QuantumState, config: DpaConfig) -> QuantumState:
    """Apply exp(-i * 2kt * H_int); certify truncation afterwards.

    Each slab evolves as in an oracle row, to U G with its own
    eigenpairs, and `QuantumState.with_columns` makes the slabs the
    evolved state. A kept `matrix` goes along as U rho U^dag, formed
    in one copy of it: U on its rows, then on the rows of its
    conjugate transpose.
    Raises TruncationError (carrying the measured leakage) when the
    evolved state holds more than config.leakage_tol of its population
    within EVOLUTION_MARGIN levels of either cutoff; enlarge the cutoff
    and retry in that case.
    """
    _require_margin(state.cutoff)

    def on_rows(x: np.ndarray) -> None:
        # U x in place, on the populated sectors' rows (a valid state is
        # zero on the others); a padding index (-1) gathers a row the
        # padded V never reads. Columns go a block of at most
        # STACK_SLAB entries at a time
        for slab in state.blocks:
            indices = slab.indices
            real = indices >= 0
            width = max(1, STACK_SLAB // indices.size)
            for start in range(0, x.shape[1], width):
                block = slice(start, start + width)
                moved = slab.to_eigenbasis(x[indices, block])
                x[indices[real], block] = _propagate(slab, config.kt, moved)[real]

    rho = None
    if state.matrix is not None:
        # U rho U^dag = (U (U rho)^dag)^dag, the adjoints as in-place
        # conjugations of the transpose view
        rho = state.matrix.copy()
        for x in (rho, rho.T):
            on_rows(x)
            np.conjugate(rho, out=rho)
    result = state.with_columns(
        [_propagate(slab, config.kt) for slab in state.blocks], rho)
    leakage = boundary_leakage(result)
    if leakage > config.leakage_tol:
        raise TruncationError(leakage, state.cutoff)
    return result


def boundary_leakage(state: QuantumState) -> float:
    """Population within EVOLUTION_MARGIN levels of either truncation edge.

    The certificate that a truncated computation approximates the
    untruncated physics: small leakage means the state never felt the
    boundary. It is the edge sum of the `hidden_sums` of the state's
    slabs (`blocks`), whose edge mask marks each sector's last
    EVOLUTION_MARGIN states, exactly its states that close to an edge;
    an oracle row's leakage is the same sum of its evolved slabs.
    """
    return sum(hidden_sums(slab, slab.columns)[1] for slab in state.blocks)


def heisenberg_moments(n_x: int, n_y: int, kt: float) -> MomentReport:
    """Closed-form hidden-set moments for the initial Fock state |n_x, n_y>.

    Normal-ordering the Bogoliubov-transformed modes gives, with
    c4 = cosh 4kt, s4 = sinh 4kt and K = 1 + n_x + n_y + 2 n_x n_y:

        <H0> = (n_x + n_y) c4 + 2 sinh^2 2kt      Var H0 = s4^2 K
        <H1> = n_y - n_x                          Var H1 = 0
        <H2> = 0                                  Var H2 = K
        <H3> = -(1 + n_x + n_y) s4                Var H3 = c4^2 K

    No truncation is involved; the report always carries zero leakage.
    """
    require_photon_numbers(n_x, n_y)
    return _closed_moments(n_x, n_y, 0.0, kt)


def thermal_heisenberg_moments(
    nbar_x: float, nbar_y: float, kt: float,
) -> MomentReport:
    """Closed-form moments for independent thermal modes.

    Mixing the Fock-state forms over geometric occupation laws with
    means nbar_x, nbar_y adds the classical occupation spread
    v_m = nbar_m (1 + nbar_m) to each variance through the usual
    law-of-total-variance split.
    """
    require_occupations(nbar_x, nbar_y)
    spread = nbar_x * (1.0 + nbar_x) + nbar_y * (1.0 + nbar_y)
    return _closed_moments(nbar_x, nbar_y, spread, kt)


def _closed_moments(
    n_x: float, n_y: float, spread: float, kt: float,
) -> MomentReport:
    """The Fock-state forms plus an occupation spread v_x + v_y.

    A Fock state has spread 0, which adds exactly 0.0 to its variances.
    """
    require_kt(kt)
    c4 = math.cosh(4.0 * kt)
    s4 = math.sinh(4.0 * kt)
    pair_var = 1.0 + n_x + n_y + 2.0 * n_x * n_y
    means = ((n_x + n_y) * c4 + 2.0 * math.sinh(2.0 * kt) ** 2,
             float(n_y - n_x), 0.0, -(1.0 + n_x + n_y) * s4)
    variances = (s4**2 * pair_var + c4**2 * spread, spread, pair_var,
                 c4**2 * pair_var + s4**2 * spread)
    return MomentReport(kt, means, variances, leakage=0.0)


def oracle_moments(state: QuantumState, config: DpaConfig) -> MomentReport:
    """Brute-force moments: evolve, then measure the hidden set.

    Only the state's slabs (`state.blocks`) are evolved, to U G, and
    measured: with the eigenbasis each slab keeps from the first row, a
    row is one phase, one real product and one `hidden_sums` per slab,
    and the full evolved state is never formed. U is unitary on each
    sector, so an evolved block keeps the spectrum `state.blocks`
    checked; the evolved total population must be 1 within ALGEBRA_TOL
    (`require_unit_trace`) on every row. Never raises on truncation
    trouble; the report is returned with valid=False and the measured
    leakage so sweeps can flag the row and continue.
    """
    _require_margin(state.cutoff)
    rows = [hidden_sums(slab, _propagate(slab, config.kt))
            for slab in state.blocks]
    require_unit_trace(sum(row[0] for row in rows))
    means, variances = hidden_moments(rows)
    leakage = sum(row[1] for row in rows)
    return MomentReport(config.kt, means, variances, leakage,
                        valid=leakage <= config.leakage_tol)


def suggest_cutoff(n_max: int, kt: float) -> FockCutoff:
    """Per-mode dimension comfortably above the amplified occupation.

    `n_max` is a photon number (`require_photon_numbers`); a NaN or
    infinite kt raises ValueError, and so does a dimension above
    MAX_SUGGESTED_DIM: pass an explicit cutoff for a larger space.
    """
    require_photon_numbers(n_max)
    require_kt(kt)
    try:
        d = n_max + 17 + math.ceil(10.0 * math.sinh(2.0 * abs(kt)) ** 2)
    except OverflowError:  # sinh 2kt, its square or its ceiling
        d = math.inf
    if d > MAX_SUGGESTED_DIM:
        raise ValueError(f"suggested cutoff {d} per mode is impractical; "
                         "pass an explicit cutoff")
    return FockCutoff(d, d)
