"""Truncated two-mode Fock space: states, sectors and ladder actions.

The joint space is the tensor product of two truncated oscillators with
dimensions d_x and d_y; the basis state |n_x, n_y> lives at flat index
n_x * d_y + n_y, row-major over x then y.

The amplifier generator and all four hidden-set operators conserve the
imbalance n_x - n_y, so the imbalance sector is the unit of work for
dynamics and moments. `sector_table` lists, once per cutoff, each
sector's flat indices |lo_x + m, lo_y + m> and the a_y a_x weights
along it, plus a flat-index -> sector label; `sector_blocks` splits a
state into the amplitude slices (vector) or principal blocks (density)
of only the sectors it populates. Evolution (`dpa`) and the H0..H3
measure (`polarization.hidden_moments`) run on those blocks.

`apply_ladders` serves the remaining state-level computations: a
ladder operator acts on the (d_x, d_y) view of a state vector, or of a
matrix with Fock-indexed rows, as an index shift times a sqrt(n + 1)
weight. No operator is stored as a joint-dimension matrix: the
commutator tables (`polarization`) run on the chains each operator set
conserves. Operations are exact on the truncated space; fidelity to the
infinite-dimensional physics is certified post hoc with
boundary_leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

ALGEBRA_TOL = 1e-12        # exact-algebra identities (hermiticity, norms)
VARIANCE_FLOOR = -1e-9     # cancellation allowance before clamping to zero
EIGENVALUE_FLOOR = -1e-10  # lowest eigenvalue a density matrix may have

# Full positivity certification is cubic in dimension; above this joint
# dimension a density that is not sector-block diagonal gets only the
# hermiticity and trace checks.
PSD_CHECK_MAX_DIM = 1024


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
        if self.d_x < 2 or self.d_y < 2:
            raise ValueError(f"cutoff must be at least 2 per mode, got {self}")

    @property
    def dim(self) -> int:
        return self.d_x * self.d_y

    def index(self, n_x: int, n_y: int) -> int:
        if not (0 <= n_x < self.d_x and 0 <= n_y < self.d_y):
            raise ValueError(f"|{n_x},{n_y}> outside cutoff {self}")
        return n_x * self.d_y + n_y

    def number_diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonals of N_x and N_y in the flat basis."""
        n_x = np.repeat(np.arange(self.d_x, dtype=float), self.d_y)
        n_y = np.tile(np.arange(self.d_y, dtype=float), self.d_x)
        return n_x, n_y


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density matrix on the joint space.

    Build through from_vector / from_density (or fock_state); the
    constructors validate normalization, and for density matrices
    hermiticity, unit trace, and positivity: per sector block when the
    matrix has no inter-sector coherences, else on the full matrix up
    to PSD_CHECK_MAX_DIM.
    """

    cutoff: FockCutoff
    vector: np.ndarray | None = field(default=None, repr=False)
    density: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @classmethod
    def from_vector(cls, cutoff: FockCutoff, vec: np.ndarray) -> "QuantumState":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape != (cutoff.dim,):
            raise ValueError(f"state vector length {v.size}, expected {cutoff.dim}")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > ALGEBRA_TOL:
            raise ValueError(f"state vector norm {norm!r} is not 1 within {ALGEBRA_TOL}")
        v = v.copy()
        v.flags.writeable = False
        return cls(cutoff, vector=v)

    @classmethod
    def from_density(cls, cutoff: FockCutoff, rho: np.ndarray) -> "QuantumState":
        m = np.asarray(rho, dtype=complex)
        if m.shape != (cutoff.dim, cutoff.dim):
            raise ValueError(f"density matrix has shape {m.shape}, "
                             f"expected {(cutoff.dim, cutoff.dim)}")
        if np.max(np.abs(m - m.conj().T)) > ALGEBRA_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        _require_unit_trace(np.trace(m).real)
        _check_positive(m, cutoff)
        # copied only now, after the checks' temporaries are gone;
        # freezing the caller's own array would make it read-only
        m = np.array(m, order="C")
        m.flags.writeable = False
        return cls(cutoff, density=m)

    @property
    def array(self) -> np.ndarray:
        """The state vector if pure, else the density matrix."""
        return self.vector if self.vector is not None else self.density

    def density_matrix(self) -> np.ndarray:
        if self.vector is not None:
            return np.outer(self.vector, self.vector.conj())
        assert self.density is not None
        return self.density

    def populations(self) -> np.ndarray:
        """Diagonal occupation probabilities in the flat Fock basis."""
        if self.vector is not None:
            return np.abs(self.vector) ** 2
        assert self.density is not None
        return np.diag(self.density).real.copy()


def _require_unit_trace(trace: float) -> None:
    if abs(trace - 1.0) > ALGEBRA_TOL:
        raise ValueError(
            f"density matrix trace {trace!r} is not 1 within {ALGEBRA_TOL}")


def _require_positive(blocks) -> None:
    """Raise unless every Hermitian block has eigenvalues >= EIGENVALUE_FLOOR."""
    low = min(float(np.linalg.eigvalsh(b)[0]) for b in blocks)
    if low < EIGENVALUE_FLOOR:
        raise ValueError(
            f"density matrix has eigenvalue {low:.3e} below {EIGENVALUE_FLOOR}")


def _check_positive(m: np.ndarray, cutoff: FockCutoff) -> None:
    blocks = [m[np.ix_(s.indices, s.indices)]
              for s in sector_table(cutoff).sectors]
    if sum(np.count_nonzero(b) for b in blocks) == np.count_nonzero(m):
        # no inter-sector coherence (diagonal mixtures included): the
        # spectrum is the union of the sector blocks' spectra
        _require_positive(blocks)
    elif m.shape[0] <= PSD_CHECK_MAX_DIM:
        _require_positive([m])


@dataclass(frozen=True, eq=False)
class Sector:
    """One imbalance sector n_x - n_y = delta of a cutoff.

    It is spanned by |lo_x + m, lo_y + m>, m = 0..L-1, and runs until
    either mode reaches its cutoff, so its last k states are exactly
    its states within k levels of an edge. `pair_weights[m]` is the
    a_y a_x matrix element <m|a_y a_x|m+1> = sqrt((lo_x+m+1)(lo_y+m+1)).
    """

    lo_x: int
    lo_y: int
    indices: np.ndarray = field(repr=False)
    pair_weights: np.ndarray = field(repr=False)

    @property
    def delta(self) -> int:
        return self.lo_x - self.lo_y

    @property
    def photons(self) -> np.ndarray:
        """n_x + n_y along the sector."""
        return self.lo_x + self.lo_y + 2.0 * np.arange(self.indices.size)


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
        indices.setflags(write=False)
        weights.setflags(write=False)
        sectors.append(Sector(lo_x, lo_y, indices, weights))
    label = np.subtract.outer(np.arange(d_x), np.arange(d_y)).ravel() + d_y - 1
    label.setflags(write=False)
    return SectorTable(tuple(sectors), label)


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """A state restricted to one sector.

    `array` holds the amplitudes (L,) of a state vector, or the (L, L)
    principal block of a density matrix, in the sector's order.
    """

    sector: Sector
    array: np.ndarray = field(repr=False)

    def populations(self) -> np.ndarray:
        if self.array.ndim == 1:
            return np.abs(self.array) ** 2
        return np.diagonal(self.array).real


def populated_sectors(state: QuantumState) -> list[Sector]:
    """The sectors holding any of the state's population."""
    table = sector_table(state.cutoff)
    hits = np.bincount(table.label[state.populations() != 0.0],
                       minlength=len(table.sectors))
    return [table.sectors[i] for i in np.flatnonzero(hits)]


def sector_blocks(state: QuantumState) -> list[SectorBlock]:
    """The state's blocks in the sectors it populates.

    Every quantity that conserves the imbalance (H0..H3 and their
    products, the amplifier evolution, boundary populations) is a sum
    over these blocks; inter-sector coherences of a density never
    enter, and unpopulated sectors of a valid state are zero.
    """
    x = state.array
    if x.ndim == 1:
        return [SectorBlock(s, x[s.indices]) for s in populated_sectors(state)]
    return [SectorBlock(s, x[np.ix_(s.indices, s.indices)])
            for s in populated_sectors(state)]


def check_density_blocks(blocks: list[SectorBlock]) -> None:
    """The trace and positivity checks of `from_density`, on sector blocks.

    For a state without inter-sector coherences this is exactly the
    full-matrix check; blocks must already be Hermitian.
    """
    _require_unit_trace(sum(np.trace(b.array).real for b in blocks))
    _require_positive(b.array for b in blocks)


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


def boundary_leakage(state: QuantumState, margin: int) -> float:
    """Population within `margin` levels of either truncation edge.

    The certificate that a truncated computation approximates the
    untruncated physics: small leakage means the state never felt the
    boundary.
    """
    d_x, d_y = state.cutoff.d_x, state.cutoff.d_y
    if not (1 <= margin < min(d_x, d_y)):
        raise ValueError(f"margin {margin} must satisfy 1 <= margin < {min(d_x, d_y)}")
    n_x, n_y = state.cutoff.number_diagonals()
    mask = (n_x >= d_x - margin) | (n_y >= d_y - margin)
    return float(np.sum(state.populations()[mask]))


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
