"""Degenerate parametric amplification on the truncated Fock space.

The interaction-picture generator H_int = a_x^dag a_y^dag + a_x a_y
creates and destroys quanta pairwise, so it conserves the mode
imbalance n_x - n_y. On each imbalance sector (`fock.sector_table`) it
is a real symmetric tridiagonal matrix with zero diagonal and the
sector's a_y a_x weights off it. Its eigenpairs are computed once per
cutoff, unpadded (`_sector_eigenpairs`).

Everything about a state's evolution that does not depend on kt is
computed once per slab of its populated sectors (`QuantumState.blocks`,
partitioned by `fock`), as the slab's plan (`_plan`): its eigenpairs
(E, V), padded as the slab is (`_slab_eigenpairs`), its weighted
columns G already in the eigenbasis, W = V^T G, and the constants of
the H0..H3 measure (`polarization.HiddenMeasure`). A plan is found by
the identity of its slab through a weak reference, so it lives exactly
as long as the state. `_propagate` is then U(kt) = V diag(e^{-i 2kt E})
W: one phase and one real product per slab, for every evolution time.

`oracle_moments`, the brute-force oracle against which the closed-form
Heisenberg moments are checked, never forms the evolved state: each
row evolves the plan's slabs, (U G, p) for pure and mixed states
alike, and measures them with the shared `polarization.hidden_sums`.
U G keeps the spectrum p that `state.blocks` certified, so the one
check left is unit total population (`require_unit_trace`), for
vectors and densities alike. The total population, the edge population
that certifies the truncation and the diagonal moments come from one
product of the evolved populations with the measure's constant matrix,
so a row costs a fixed number of array operations per slab, whatever
the number of sectors, and every check still runs on every row.
Oracle and closed-form rows are one record,
`MomentReport(kt, means, variances, leakage, valid)`, with the eight
moments named once, in `MOMENT_NAMES`.

`evolve` returns a full QuantumState, built from the same `_propagate`
and the same slab eigenpairs (`_slab_eigenpairs`), applied to its rows
(and columns), gathered a slab of sectors at a time, since only that
form carries a density's inter-sector coherences. It builds no plan: a
state is usually evolved once. An evolved density is eigendecomposed
once, per populated sector, by `from_density`; those slabs are what
`boundary_leakage` then reads. No operator matrix is
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
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    EVOLUTION_MARGIN,
    STACK_SLAB,
    FockCutoff,
    QuantumState,
    SectorStack,
    require_occupations,
    require_photon_numbers,
    require_unit_trace,
    sector_table,
)
from .polarization import HiddenMeasure, hidden_moments, hidden_sums

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
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenvalues and eigenvectors of H_int on each sector, table order.

    Unpadded: sector s has L_s of each.
    """
    if min(cutoff.d_x, cutoff.d_y) <= EVOLUTION_MARGIN:
        raise ValueError(
            f"cutoff must exceed {EVOLUTION_MARGIN} levels per mode "
            "to certify leakage")
    table = sector_table(cutoff)
    lengths = (table.indices >= 0).sum(axis=1)
    pairs = []
    for length, w in zip(lengths, table.pair_weights):
        w = w[:length - 1]
        values, vectors = np.linalg.eigh(np.diag(w, 1) + np.diag(w, -1))
        values.setflags(write=False)
        vectors.setflags(write=False)
        pairs.append((values, vectors))
    return tuple(pairs)


def _slab_eigenpairs(
    cutoff: FockCutoff, slab: SectorStack,
) -> tuple[np.ndarray, np.ndarray]:
    """The slab's eigenpairs, zero-padded as the slab is, to its L.

    Eigenvalues (S, L) and eigenvectors (S, L, L), from
    `_sector_eigenpairs`. The padding rows and columns of the
    eigenvectors are zero, so the padded propagator maps a sector's
    padding to zero and reads nothing from it.
    """
    pairs = _sector_eigenpairs(cutoff)
    count, length = slab.indices.shape
    values = np.zeros((count, length))
    vectors = np.zeros((count, length, length))
    for s, position in enumerate(slab.positions):
        sector_values, sector_vectors = pairs[position]
        n = sector_values.size
        values[s, :n], vectors[s, :n, :n] = sector_values, sector_vectors
    return values, vectors


@dataclass(frozen=True, eq=False)
class _SlabPlan:
    """One slab of a state's sectors, ready to evolve to any kt.

    The slab's eigenpairs E and V (`_slab_eigenpairs`), its columns in
    the eigenbasis, `moved` W = V^T G, and the constants of its H0..H3
    measure.
    """

    values: np.ndarray
    vectors: np.ndarray
    moved: np.ndarray
    measure: HiddenMeasure


# plans die with their slab; a plan holds arrays only, never the slab
_PLANS: weakref.WeakKeyDictionary[SectorStack, _SlabPlan] = \
    weakref.WeakKeyDictionary()


def _plan(cutoff: FockCutoff, slab: SectorStack) -> _SlabPlan:
    """One slab of a state's `blocks`, planned once per slab."""
    plan = _PLANS.get(slab)
    if plan is None:
        values, vectors = _slab_eigenpairs(cutoff, slab)
        plan = _PLANS[slab] = _SlabPlan(
            values, vectors, _eigenbasis(slab.columns, vectors),
            HiddenMeasure.of(slab))
    return plan


def _eigenbasis(x: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """W = V^T x on the sector index (axis 1) of a stack (S, L, k).

    `x` has a contiguous last axis. V is real, so the product runs on
    the real and imaginary parts of x at once, as one real stack.
    """
    return (vectors.transpose(0, 2, 1) @ x.view(float)).view(complex)


def _propagate(
    moved: np.ndarray, values: np.ndarray, vectors: np.ndarray, kt: float,
) -> np.ndarray:
    """U x for U = exp(-i 2kt H_int), from x's eigenbasis coordinates.

    U x = V diag(exp(-i 2kt E)) W with W = V^T x (`_eigenbasis`), from
    the eigenpairs (E, V) of a stack of sectors; one real product.
    """
    phased = moved * np.exp(-1j * (2.0 * kt) * values)[:, :, None]
    return (vectors @ phased.view(float)).view(complex)


def evolve(state: QuantumState, config: DpaConfig) -> QuantumState:
    """Apply exp(-i * 2kt * H_int); certify truncation afterwards.

    U acts on the rows, and for a density also on the columns, of each
    populated sector, a slab of sectors at a time, with the slab's
    eigenpairs (`_slab_eigenpairs`). Raises TruncationError
    (carrying the measured leakage) when the evolved state holds more
    than config.leakage_tol of its population within EVOLUTION_MARGIN
    levels of either cutoff; enlarge the cutoff and retry in that case.
    """
    cut = state.cutoff
    slabs = [(slab.indices, *_slab_eigenpairs(cut, slab))
             for slab in state.blocks]

    def on_rows(x: np.ndarray) -> np.ndarray:
        # a valid state is zero outside its populated sectors' rows; a
        # padding index (-1) gathers a row the padded V never reads.
        # Columns of x go a block at a time, so a gathered block holds
        # at most STACK_SLAB entries
        out = np.zeros(x.shape, dtype=complex)
        for indices, values, vectors in slabs:
            real = indices >= 0
            width = max(1, STACK_SLAB // indices.size)
            for start in range(0, x.shape[1], width):
                block = slice(start, start + width)
                moved = _eigenbasis(x[indices, block], vectors)
                out[indices[real], block] = _propagate(
                    moved, values, vectors, config.kt)[real]
        return out

    x = state.array
    if state.vector is not None:
        rows = on_rows(x[:, None])[:, 0]
        # rounding drift only: the truncated generator is exactly unitary
        result = QuantumState.from_vector(cut, rows / np.linalg.norm(rows))
    else:
        # U rho U^dag = (U (U rho)^dag)^dag
        rho = on_rows(on_rows(x).conj().T).conj().T
        result = QuantumState.from_density(cut, 0.5 * (rho + rho.conj().T))
    leakage = boundary_leakage(result)
    if leakage > config.leakage_tol:
        raise TruncationError(leakage, cut)
    return result


def boundary_leakage(state: QuantumState) -> float:
    """Population within EVOLUTION_MARGIN levels of either truncation edge.

    The certificate that a truncated computation approximates the
    untruncated physics: small leakage means the state never felt the
    boundary. Read from the state's slabs (`blocks`), whose `edge` mask
    marks each sector's last EVOLUTION_MARGIN states, exactly its
    states that close to an edge.
    """
    return float(sum(np.vdot(slab.populations, slab.edge)
                     for slab in state.blocks))


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


def oracle_moments(state: QuantumState, config: DpaConfig) -> MomentReport:
    """Brute-force moments: evolve, then measure the hidden set.

    Only the sectors the state populates (`state.blocks`) are evolved
    and measured, as (U G, p), a slab of sectors at a time; the full
    evolved state is never formed. Each slab's plan (`_plan`), built
    on the state's first row and kept while the state lives, holds its
    eigenpairs and W = V^T G, so a row is one phase, one real product
    and one `hidden_sums` per slab. The weights p are kept, and U G is
    orthonormal where G is, so an evolved density block has exactly
    the spectrum `state.blocks` checked. The evolved total population,
    sum_r p_r |U G_r|^2 (|v|^2 for a vector), must be 1 within
    ALGEBRA_TOL, as `require_unit_trace` asks of every state, on every
    row. Never raises on truncation trouble; the report is returned
    with valid=False and the measured leakage so sweeps can flag the
    row and continue.
    """
    plans = [_plan(state.cutoff, slab) for slab in state.blocks]
    sums = sum(hidden_sums(plan.measure, _propagate(
        plan.moved, plan.values, plan.vectors, config.kt)) for plan in plans)
    require_unit_trace(sums[0])
    means, variances = hidden_moments(sums)
    leakage = float(sums[1])
    return MomentReport(config.kt, means, variances, leakage,
                        valid=leakage <= config.leakage_tol)


def suggest_cutoff(n_max: int, kt: float) -> FockCutoff:
    """Per-mode dimension comfortably above the amplified occupation.

    `n_max` is a photon number (`require_photon_numbers`); a NaN or
    infinite kt raises ValueError.
    """
    require_photon_numbers(n_max)
    if not math.isfinite(kt):
        raise ValueError("kt must be finite")
    grown = 10.0 * math.sinh(2.0 * abs(kt)) ** 2
    d = n_max + 1 + math.ceil(grown) + 16
    return FockCutoff(d, d)
