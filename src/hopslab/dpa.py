"""Degenerate parametric amplification on the truncated Fock space.

The interaction-picture generator H_int = a_x^dag a_y^dag + a_x a_y
creates and destroys quanta pairwise, so it conserves the mode
imbalance n_x - n_y. On each imbalance sector (`fock.sector_table`) it
is a real symmetric tridiagonal matrix with zero diagonal and the
sector's a_y a_x weights off it; its eigenpairs are computed once per
cutoff and give the one per-sector propagator U_delta(kt), reused for
every evolution time.

`oracle_moments`, the brute-force oracle against which the closed-form
Heisenberg moments are checked, never forms the evolved state: it
evolves only the state's populated sector blocks (`QuantumState.blocks`),
which are weighted columns (G, p) for pure and mixed states alike, as
(U G, p). U G keeps the spectrum p that `state.blocks` certified, so
the one check left is unit total population (`require_unit_trace`),
for vectors and densities alike. The blocks then go to the shared
H0..H3 measure `polarization.hidden_moments`; the trace check, the
certificate and the measure all read each evolved block's populations,
computed once when the block is built. Oracle and closed-form rows are
one record, `MomentReport(kt, means, variances, leakage, valid)`, with
the eight moments named once, in `MOMENT_NAMES`.

`evolve` returns a full QuantumState, built from the same U_delta
applied to its rows (and columns), since only that form carries a
density's inter-sector coherences. An evolved density is
eigendecomposed once, per populated sector, by `from_density`; those
are the blocks `boundary_leakage` then reads. No operator matrix is
built here.

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
from functools import lru_cache
from typing import Iterable

import numpy as np

from .fock import (
    FockCutoff,
    QuantumState,
    SectorBlock,
    require_occupations,
    require_photon_numbers,
    require_unit_trace,
    sector_table,
)
from .polarization import hidden_moments

EVOLUTION_MARGIN = 4           # boundary band whose population certifies truncation
DEFAULT_LEAKAGE_TOL = 1e-6


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
        if not math.isfinite(self.kt):
            raise ValueError("kt must be finite")
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


@lru_cache(maxsize=8)
def _sector_eigenpairs(
    cutoff: FockCutoff,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """delta -> eigenvalues and eigenvectors of H_int on that sector."""
    if min(cutoff.d_x, cutoff.d_y) <= EVOLUTION_MARGIN:
        raise ValueError(
            f"cutoff must exceed {EVOLUTION_MARGIN} levels per mode "
            "to certify leakage")
    pairs = {}
    for sector in sector_table(cutoff).sectors:
        w = sector.pair_weights
        values, vectors = np.linalg.eigh(np.diag(w, 1) + np.diag(w, -1))
        values.setflags(write=False)
        vectors.setflags(write=False)
        pairs[sector.delta] = (values, vectors)
    return pairs


def _propagate(
    x: np.ndarray, eigenpair: tuple[np.ndarray, np.ndarray], rate: float,
) -> np.ndarray:
    """U_delta = exp(-i * rate * H_int) on the sector index (rows) of x."""
    values, vectors = eigenpair
    phase = np.exp(-1j * rate * values).reshape((-1,) + (1,) * (x.ndim - 1))
    return vectors @ (phase * (vectors.T @ x))


def evolve(state: QuantumState, config: DpaConfig) -> QuantumState:
    """Apply exp(-i * 2kt * H_int); certify truncation afterwards.

    U_delta acts on the rows, and for a density also on the columns, of
    each populated sector. Raises TruncationError (carrying the
    measured leakage) when the evolved state holds more than
    config.leakage_tol of its population within EVOLUTION_MARGIN
    levels of either cutoff; enlarge the cutoff and retry in that case.
    """
    rate, cut = 2.0 * config.kt, state.cutoff
    pairs = _sector_eigenpairs(cut)
    sectors = [block.sector for block in state.blocks]
    x = state.array
    rows = np.zeros(x.shape, dtype=complex)
    for sector in sectors:
        rows[sector.indices] = _propagate(
            x[sector.indices], pairs[sector.delta], rate)
    if state.vector is not None:
        # rounding drift only: the truncated generator is exactly unitary
        result = QuantumState.from_vector(cut, rows / np.linalg.norm(rows))
    else:
        # U rho U^dag = (U (U rho)^dag)^dag; a valid density is zero
        # outside the populated sectors' rows and columns
        rho = np.zeros(x.shape, dtype=complex)
        for sector in sectors:
            rho[:, sector.indices] = _propagate(
                rows[:, sector.indices].conj().T, pairs[sector.delta],
                rate).conj().T
        result = QuantumState.from_density(cut, 0.5 * (rho + rho.conj().T))
    leakage = boundary_leakage(result)
    if leakage > config.leakage_tol:
        raise TruncationError(leakage, cut)
    return result


def boundary_leakage(state: QuantumState | Iterable[SectorBlock]) -> float:
    """Population within EVOLUTION_MARGIN levels of either truncation edge.

    The certificate that a truncated computation approximates the
    untruncated physics: small leakage means the state never felt the
    boundary. Takes a state, or the sector blocks of one; a sector's
    last EVOLUTION_MARGIN states are exactly its states that close to
    an edge.
    """
    blocks = state.blocks if isinstance(state, QuantumState) else state
    return float(sum(b.populations[-EVOLUTION_MARGIN:].sum() for b in blocks))


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
    if not math.isfinite(kt):
        raise ValueError("kt must be finite")
    c4 = math.cosh(4.0 * kt)
    s4 = math.sinh(4.0 * kt)
    pair_var = 1.0 + n_x + n_y + 2.0 * n_x * n_y
    means = ((n_x + n_y) * c4 + 2.0 * math.sinh(2.0 * kt) ** 2,
             float(n_y - n_x), 0.0, -(1.0 + n_x + n_y) * s4)
    variances = (s4**2 * pair_var + c4**2 * spread, spread, pair_var,
                 c4**2 * pair_var + s4**2 * spread)
    return MomentReport(kt, means, variances, leakage=0.0)


def _evolve_blocks(
    state: QuantumState, config: DpaConfig,
) -> list[SectorBlock]:
    """U_delta(kt) on the columns of each populated sector block.

    The weights p are kept, and U G is orthonormal where G is, so an
    evolved density block has exactly the spectrum `state.blocks`
    checked. The total population of the evolved blocks, sum_r p_r
    |U G_r|^2 (|v|^2 for a vector), must be 1 within ALGEBRA_TOL, as
    `require_unit_trace` asks of every state. Each evolved block's
    populations are computed once, when it is built.
    """
    rate = 2.0 * config.kt
    pairs = _sector_eigenpairs(state.cutoff)
    evolved = [SectorBlock(b.sector, _propagate(
                   b.columns, pairs[b.sector.delta], rate), b.weights)
               for b in state.blocks]
    require_unit_trace(sum(b.populations.sum() for b in evolved))
    return evolved


def oracle_moments(state: QuantumState, config: DpaConfig) -> MomentReport:
    """Brute-force moments: evolve, then measure the hidden set.

    Only the sector blocks the state populates are evolved and
    measured; the full evolved state is never formed. Never raises on
    truncation trouble; the report is returned with valid=False and
    the measured leakage so sweeps can flag the row and continue.
    """
    blocks = _evolve_blocks(state, config)
    leakage = boundary_leakage(blocks)
    means, variances = hidden_moments(blocks)
    return MomentReport(config.kt, means, variances, leakage,
                        valid=leakage <= config.leakage_tol)


def suggest_cutoff(n_max: int, kt: float) -> FockCutoff:
    """Per-mode dimension comfortably above the amplified occupation."""
    grown = 10.0 * math.sinh(2.0 * abs(kt)) ** 2
    d = n_max + 1 + math.ceil(grown) + 16
    return FockCutoff(d, d)
