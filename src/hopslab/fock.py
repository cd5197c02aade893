"""Truncated two-mode Fock space: states, sectors and ladder actions.

The joint space is the tensor product of two truncated oscillators with
dimensions d_x and d_y; the basis state |n_x, n_y> lives at flat index
n_x * d_y + n_y, row-major over x then y.

The amplifier generator and all four hidden-set operators conserve the
imbalance n_x - n_y, so the imbalance sector is the unit of work for
dynamics and moments. `sector_table` lists, once per cutoff, each
sector's flat indices |lo_x + m, lo_y + m> and the a_y a_x weights
along it, plus a flat-index -> sector label. `QuantumState.blocks`
holds, once per state, the sectors it populates as weighted columns
(`SectorBlock`), pure or mixed; a block computes its populations c_0
once, when it is built. Evolution and its truncation certificate
(`dpa`) and the H0..H3 measure (`polarization.hidden_moments`) run on
those blocks alone.

`require_photon_numbers` (integers >= 0) and `require_occupations`
(finite means >= 0) are the package's one statement of those input
rules; states, closed forms, thermal weights and state models all
call them.

`apply_ladders` serves the remaining state-level computations: a
ladder operator acts on the (d_x, d_y) view of a state vector, or of a
matrix with Fock-indexed rows, as an index shift times a sqrt(n + 1)
weight. No operator is stored as a joint-dimension matrix: the
commutator tables (`polarization`) run on the chains each operator set
conserves. Operations are exact on the truncated space; fidelity to the
infinite-dimensional physics is certified post hoc with
`dpa.boundary_leakage`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

ALGEBRA_TOL = 1e-12        # exact-algebra identities (hermiticity, norms)
VARIANCE_FLOOR = -1e-9     # cancellation allowance before clamping to zero
EIGENVALUE_FLOOR = -1e-10  # lowest eigenvalue a density matrix may have

# Rows per slab of the hermiticity test: its temporaries stay a slab in
# size, not a second and third copy of the matrix
HERMITICITY_SLAB = 64


@dataclass(frozen=True)
class FockCutoff:
    """Truncation of the two-mode Fock space.

    Photon numbers run 0..d_x-1 and 0..d_y-1. The flat basis index of
    |n_x, n_y> is n_x * d_y + n_y; every array in the package uses this
    ordering.
    """

    d_x: int
    d_y: int

    def __post_init__(self) -> None:
        if not (isinstance(self.d_x, Integral) and isinstance(self.d_y, Integral)):
            raise ValueError(f"cutoff dimensions must be integers, got {self}")
        if self.d_x < 2 or self.d_y < 2:
            raise ValueError(f"cutoff must be at least 2 per mode, got {self}")

    @property
    def dim(self) -> int:
        return self.d_x * self.d_y

    def index(self, n_x: int, n_y: int) -> int:
        require_photon_numbers(n_x, n_y)
        if not (n_x < self.d_x and n_y < self.d_y):
            raise ValueError(f"|{n_x},{n_y}> outside cutoff {self}")
        return n_x * self.d_y + n_y


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density matrix on the joint space.

    Build through from_vector / from_density (or fock_state). Both
    constructors require unit total population (|v|^2 or the trace,
    `require_unit_trace`); from_density also requires hermiticity and
    positivity. Positivity is certified by the sector blocks
    (`blocks`), whose eigendecomposition rejects an eigenvalue below
    EIGENVALUE_FLOOR; only a density with nonzero entries outside its
    populated blocks (inter-sector coherences) also has its full
    spectrum checked, at any size.
    """

    cutoff: FockCutoff
    vector: np.ndarray | None = field(default=None, repr=False)
    density: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_vector(cls, cutoff: FockCutoff, vec: np.ndarray) -> "QuantumState":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape != (cutoff.dim,):
            raise ValueError(f"state vector length {v.size}, expected {cutoff.dim}")
        v = v.copy()
        v.flags.writeable = False
        state = cls(cutoff, vector=v)
        require_unit_trace(state.populations().sum())
        return state

    @classmethod
    def from_density(cls, cutoff: FockCutoff, rho: np.ndarray) -> "QuantumState":
        m = np.asarray(rho, dtype=complex)
        if m.shape != (cutoff.dim, cutoff.dim):
            raise ValueError(f"density matrix has shape {m.shape}, "
                             f"expected {(cutoff.dim, cutoff.dim)}")
        for lo in range(0, cutoff.dim, HERMITICITY_SLAB):
            rows = slice(lo, lo + HERMITICITY_SLAB)
            with np.errstate(invalid="ignore"):  # inf - inf is NaN
                skew = np.max(np.abs(m[rows] - m[:, rows].conj().T))
            if not skew <= ALGEBRA_TOL:  # a NaN or inf entry fails too
                raise ValueError("density matrix is not finite and Hermitian "
                                 "within 1e-12")
        # copied only now, after the check's temporaries are gone;
        # freezing the caller's own array would make it read-only
        m = np.array(m, order="C")
        m.flags.writeable = False
        state = cls(cutoff, density=m)
        require_unit_trace(state.populations().sum())
        # the blocks' eigh certifies positivity unless nonzero entries
        # lie outside them (inter-sector coherences); then the full
        # spectrum is checked too
        inside = sum(np.count_nonzero(m[np.ix_(b.sector.indices,
                                                b.sector.indices)])
                     for b in state.blocks)
        if inside < np.count_nonzero(m):
            _require_positive(np.linalg.eigvalsh(m)[0])
        return state

    @property
    def array(self) -> np.ndarray:
        """The state vector if pure, else the density matrix."""
        return self.vector if self.vector is not None else self.density

    def populations(self) -> np.ndarray:
        """Diagonal occupation probabilities in the flat Fock basis."""
        if self.vector is not None:
            return np.abs(self.vector) ** 2
        assert self.density is not None
        return np.diag(self.density).real.copy()

    @cached_property
    def blocks(self) -> tuple[SectorBlock, ...]:
        """The state in each sector it populates, as weighted columns.

        Built once per state; its arrays are read-only. Every quantity
        that conserves the imbalance (H0..H3 and their products, the
        amplifier evolution, boundary populations) is a sum over these
        blocks; inter-sector coherences of a density never enter, and
        unpopulated sectors of a valid state are zero. Raises
        ValueError when a density block has an eigenvalue below
        EIGENVALUE_FLOOR.
        """
        table = sector_table(self.cutoff)
        hits = np.bincount(table.label[self.populations() != 0.0],
                           minlength=len(table.sectors))
        blocks = []
        for position in np.flatnonzero(hits):
            sector = table.sectors[position]
            if self.vector is not None:
                columns, weights = self.vector[sector.indices][:, None], np.ones(1)
            else:
                weights, columns = np.linalg.eigh(
                    self.density[np.ix_(sector.indices, sector.indices)])
                _require_positive(weights[0])
            columns.setflags(write=False)
            weights.setflags(write=False)
            blocks.append(SectorBlock(sector, columns, weights))
        return tuple(blocks)


def require_photon_numbers(*values: int) -> None:
    """Raise unless every value is an integer (`numbers.Integral`) >= 0."""
    for value in values:
        if not (isinstance(value, Integral) and value >= 0):
            raise ValueError(
                f"photon numbers must be non-negative integers, got {value!r}")


def require_occupations(*values: float) -> None:
    """Raise unless every value is a finite mean occupation >= 0."""
    for value in values:
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(
                f"occupations must be finite and non-negative, got {value!r}")


def require_unit_trace(trace: float) -> None:
    """Raise unless a state's `trace`, its total population, is 1.

    The one normalization rule, within ALGEBRA_TOL, for the |v|^2 of a
    vector and the trace of a density alike; a NaN trace fails it.
    """
    if not abs(trace - 1.0) <= ALGEBRA_TOL:
        raise ValueError(
            f"state trace {trace!r} is not 1 within {ALGEBRA_TOL}")


def _require_positive(low: float) -> None:
    """Raise unless the lowest eigenvalue `low` is >= EIGENVALUE_FLOOR."""
    if low < EIGENVALUE_FLOOR:
        raise ValueError(
            f"density matrix has eigenvalue {low:.3e} below {EIGENVALUE_FLOOR}")


@dataclass(frozen=True, eq=False)
class Sector:
    """One imbalance sector n_x - n_y = delta of a cutoff.

    It is spanned by |lo_x + m, lo_y + m>, m = 0..L-1, and runs until
    either mode reaches its cutoff, so its last k states are exactly
    its states within k levels of an edge. `pair_weights[m]` is the
    a_y a_x matrix element <m|a_y a_x|m+1> = sqrt((lo_x+m+1)(lo_y+m+1)),
    and `photons[m]` is n_x + n_y = lo_x + lo_y + 2m.
    """

    lo_x: int
    lo_y: int
    indices: np.ndarray = field(repr=False)
    pair_weights: np.ndarray = field(repr=False)
    photons: np.ndarray = field(repr=False)

    @property
    def delta(self) -> int:
        return self.lo_x - self.lo_y


@dataclass(frozen=True, eq=False)
class SectorTable:
    """The sectors of a cutoff, delta ascending, and each flat index's sector."""

    sectors: tuple[Sector, ...]
    label: np.ndarray = field(repr=False)


@lru_cache(maxsize=8)
def sector_table(cutoff: FockCutoff) -> SectorTable:
    """Build (once per cutoff) the imbalance-sector table of `cutoff`."""
    d_x, d_y = cutoff.d_x, cutoff.d_y
    sectors = []
    for delta in range(-(d_y - 1), d_x):
        lo_x, lo_y = max(delta, 0), max(-delta, 0)
        m = np.arange(min(d_x - lo_x, d_y - lo_y))
        indices = (lo_x + m) * d_y + (lo_y + m)
        weights = np.sqrt((lo_x + m[:-1] + 1.0) * (lo_y + m[:-1] + 1.0))
        photons = lo_x + lo_y + 2.0 * m
        for array in (indices, weights, photons):
            array.setflags(write=False)
        sectors.append(Sector(lo_x, lo_y, indices, weights, photons))
    label = np.subtract.outer(np.arange(d_x), np.arange(d_y)).ravel() + d_y - 1
    label.setflags(write=False)
    return SectorTable(tuple(sectors), label)


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """A state restricted to one sector, as weighted columns.

    The block is G diag(p) G^dag, with `columns` G of shape (L, r) in
    the sector's order and `weights` p of shape (r,): one column of
    weight 1 for a state vector, the eigenpairs of the principal block
    for a density matrix. `populations` is c_0, the block's diagonal
    sum_r p_r |G[m, r]|^2, computed once when the block is built and
    read-only; the trace, the truncation certificate and the moments
    all read it.
    """

    sector: Sector
    columns: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    populations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        populations = (np.abs(self.columns) ** 2) @ self.weights
        populations.setflags(write=False)
        object.__setattr__(self, "populations", populations)

    def band(self, k: int) -> np.ndarray:
        """c_k[m] = <m + k|block|m> = sum_r p_r G[m + k, r] conj(G[m, r])."""
        g = self.columns
        return (g[k:] * g[:g.shape[0] - k].conj()) @ self.weights


def fock_state(cutoff: FockCutoff, n_x: int, n_y: int) -> QuantumState:
    """The basis state |n_x, n_y>."""
    v = np.zeros(cutoff.dim, dtype=complex)
    v[cutoff.index(n_x, n_y)] = 1.0
    return QuantumState.from_vector(cutoff, v)


def apply_ladders(
    array: np.ndarray, cutoff: FockCutoff, k_x: int = 0, k_y: int = 0,
    adjoint: bool = False,
) -> np.ndarray:
    """a_x^{k_x} a_y^{k_y}, or its adjoint, applied to the Fock index.

    `array` is a state vector (dim,) or a matrix (dim, k) with
    Fock-indexed rows. On its (d_x, d_y) view each ladder is a shift by
    one level times a sqrt(n + 1) weight; amplitude raised past the top
    level is dropped, as it is by truncated ladder matrices.
    """
    x = np.asarray(array)
    if x.ndim not in (1, 2) or x.shape[0] != cutoff.dim:
        raise ValueError(
            f"array of shape {x.shape} is not Fock-indexed on {cutoff}")
    if k_x < 0 or k_y < 0:
        raise ValueError("ladder powers must be non-negative")
    d_x, d_y = cutoff.d_x, cutoff.d_y
    block = x.reshape((d_x, d_y) + x.shape[1:])
    out = np.zeros(block.shape, dtype=np.result_type(block, float))
    if k_x < d_x and k_y < d_y:
        low = (slice(0, d_x - k_x), slice(0, d_y - k_y))
        high = (slice(k_x, d_x), slice(k_y, d_y))
        weight = _ladder_weight(d_x, d_y, k_x, k_y).reshape(
            (d_x - k_x, d_y - k_y) + (1,) * (x.ndim - 1))
        if adjoint:
            out[high] = weight * block[low]
        else:
            out[low] = weight * block[high]
    return out.reshape(x.shape)


@lru_cache(maxsize=64)
def _ladder_weight(d_x: int, d_y: int, k_x: int, k_y: int) -> np.ndarray:
    """sqrt((n_x+1)...(n_x+k_x) (n_y+1)...(n_y+k_y)), for n_m < d_m - k_m."""
    rise_x = np.arange(1.0, d_x - k_x + 1.0)[:, None] + np.arange(k_x)
    rise_y = np.arange(1.0, d_y - k_y + 1.0)[:, None] + np.arange(k_y)
    weight = np.sqrt(np.outer(rise_x.prod(axis=1), rise_y.prod(axis=1)))
    weight.setflags(write=False)
    return weight


def random_low_excitation_state(
    cutoff: FockCutoff, max_level: int, rng: np.random.Generator,
) -> QuantumState:
    """Random pure state supported on n_x, n_y <= max_level."""
    if max_level >= min(cutoff.d_x, cutoff.d_y):
        raise ValueError("max_level must sit inside the cutoff")
    v = np.zeros(cutoff.dim, dtype=complex)
    for n_x in range(max_level + 1):
        lo = cutoff.index(n_x, 0)
        v[lo:lo + max_level + 1] = (rng.standard_normal(max_level + 1)
                                    + 1j * rng.standard_normal(max_level + 1))
    v /= np.linalg.norm(v)
    return QuantumState.from_vector(cutoff, v)
