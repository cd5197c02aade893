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
evolves only the sector blocks the initial state populates (U b for a
vector, U B U^dag for a density block), applies the checks that
`QuantumState.from_vector`/`from_density` would have run to those
blocks, and hands them to the shared H0..H3 measure
`polarization.hidden_moments`. `evolve` returns a full QuantumState,
built from the same U_delta applied to its rows (and columns). No
operator matrix is built here.

The truncation is the state's own cutoff, certified after the fact: the
evolved state must keep its population clear of the last EVOLUTION_MARGIN
levels of either mode, else `evolve` raises and `oracle_moments` flags
its report invalid.

Time enters only through the dimensionless product kt. The Bogoliubov
coefficients are C = cosh 2kt and S = sinh 2kt, fixed by the acceptance
anchors <N_x> = S^2 on vacuum and |p_h| = tanh 2kt, so the propagator
applies exp(-i * (2 kt) * H_int).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    FockCutoff,
    QuantumState,
    SectorBlock,
    boundary_leakage,
    check_density_blocks,
    populated_sectors,
    sector_blocks,
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


@dataclass(frozen=True)
class MomentReport:
    """All eight moments of the hidden set for one evolution time.

    `leakage` is the certified boundary population of the evolved state
    (identically zero for closed-form reports, which involve no
    truncation); `valid` is False when it exceeded the configured
    budget and the numbers should not be trusted. Every mean and
    variance is finite: a report of an overflowing input raises
    ValueError instead.
    """

    kt: float
    mean_h0: float
    mean_h1: float
    mean_h2: float
    mean_h3: float
    var_h0: float
    var_h1: float
    var_h2: float
    var_h3: float
    leakage: float
    valid: bool = True

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.means + self.variances)):
            raise ValueError("moments are not finite; the inputs overflow "
                             "the floating-point range")
        for name in ("var_h0", "var_h1", "var_h2", "var_h3"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def means(self) -> tuple[float, float, float, float]:
        return (self.mean_h0, self.mean_h1, self.mean_h2, self.mean_h3)

    @property
    def variances(self) -> tuple[float, float, float, float]:
        return (self.var_h0, self.var_h1, self.var_h2, self.var_h3)


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
    sectors = populated_sectors(state)
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
    leakage = boundary_leakage(result, EVOLUTION_MARGIN)
    if leakage > config.leakage_tol:
        raise TruncationError(leakage, cut)
    return result


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
    if n_x < 0 or n_y < 0 or n_x != int(n_x) or n_y != int(n_y):
        raise ValueError("occupations must be non-negative integers")
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
    if nbar_x < 0 or nbar_y < 0:
        raise ValueError("thermal occupations must be non-negative")
    spread = nbar_x * (1.0 + nbar_x) + nbar_y * (1.0 + nbar_y)
    return _closed_moments(nbar_x, nbar_y, spread, kt)


def _closed_moments(
    n_x: float, n_y: float, spread: float, kt: float,
) -> MomentReport:
    """The Fock-state forms plus an occupation spread v_x + v_y.

    A Fock state has spread 0, which adds exactly 0.0 to its variances.
    """
    c4 = math.cosh(4.0 * kt)
    s4 = math.sinh(4.0 * kt)
    pair_var = 1.0 + n_x + n_y + 2.0 * n_x * n_y
    return MomentReport(
        kt=kt,
        mean_h0=(n_x + n_y) * c4 + 2.0 * math.sinh(2.0 * kt) ** 2,
        mean_h1=float(n_y - n_x),
        mean_h2=0.0,
        mean_h3=-(1.0 + n_x + n_y) * s4,
        var_h0=s4**2 * pair_var + c4**2 * spread,
        var_h1=spread,
        var_h2=pair_var,
        var_h3=c4**2 * pair_var + s4**2 * spread,
        leakage=0.0,
    )


def _evolve_blocks(
    state: QuantumState, config: DpaConfig,
) -> list[SectorBlock]:
    """U_delta(kt) on each populated sector block of the state.

    Runs the checks `from_vector`/`from_density` run on an evolved
    state: the blocks of a vector are renormalized together; density
    blocks (U B U^dag) are hermitized, their total trace must be 1
    within ALGEBRA_TOL and each must be positive semidefinite.
    """
    rate = 2.0 * config.kt
    pairs = _sector_eigenpairs(state.cutoff)
    evolved = []
    for block in sector_blocks(state):
        pair = pairs[block.sector.delta]
        b = _propagate(block.array, pair, rate)
        if b.ndim == 2:
            b = _propagate(b.conj().T, pair, rate).conj().T
            b = 0.5 * (b + b.conj().T)
        evolved.append(SectorBlock(block.sector, b))
    if state.vector is not None:
        norm = math.sqrt(sum(np.vdot(b.array, b.array).real for b in evolved))
        return [SectorBlock(b.sector, b.array / norm) for b in evolved]
    check_density_blocks(evolved)
    return evolved


def oracle_moments(state: QuantumState, config: DpaConfig) -> MomentReport:
    """Brute-force moments: evolve, then measure the hidden set.

    Only the sector blocks the state populates are evolved and
    measured; the full evolved state is never formed. Never raises on
    truncation trouble; the report is returned with valid=False and
    the measured leakage so sweeps can flag the row and continue.
    """
    blocks = _evolve_blocks(state, config)
    # a sector's last EVOLUTION_MARGIN states are its edge band
    leakage = float(sum(b.populations()[-EVOLUTION_MARGIN:].sum()
                        for b in blocks))
    means, variances = hidden_moments(blocks)
    return MomentReport(
        kt=config.kt,
        mean_h0=means[0], mean_h1=means[1],
        mean_h2=means[2], mean_h3=means[3],
        var_h0=variances[0], var_h1=variances[1],
        var_h2=variances[2], var_h3=variances[3],
        leakage=leakage,
        valid=leakage <= config.leakage_tol,
    )


def suggest_cutoff(n_max: int, kt: float) -> FockCutoff:
    """Per-mode dimension comfortably above the amplified occupation."""
    grown = 10.0 * math.sinh(2.0 * abs(kt)) ** 2
    d = n_max + 1 + math.ceil(grown) + 16
    return FockCutoff(d, d)
